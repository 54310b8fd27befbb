//! The trace subsystem's load-bearing guarantees, property-tested:
//!
//! 1. **Round trip** — recording a run and replaying it from the
//!    trace's embedded config reproduces every frame byte-identically
//!    (state digests *and* event streams), across drain / churn /
//!    reconnect scenarios;
//! 2. **Ring = tail of full** — a bounded ring recording of a run is
//!    record-for-record equal to the last frames of the full recording;
//! 3. **Bisection** — a divergence (scripted or synthetic) is
//!    pinpointed to the exact first diverging frame.

use etx_fleet::ScenarioSpec;
use etx_sim::{ScriptedFailure, SimConfigBuilder};
use etx_trace::{
    diff_traces, record_run, render_divergence, replay, DivergenceComponent, RecordMode,
    RecordOptions, Trace, TraceError,
};
use proptest::prelude::*;

/// A scenario spec whose single instance is cheap to run but still
/// crosses topology / algorithm / battery / churn dimensions.
fn fast_spec(seed: u64, revive: bool) -> ScenarioSpec {
    ScenarioSpec {
        seed,
        instances: 1,
        mesh_side: (3, 4),
        battery_pj: (2_500.0, 4_500.0),
        churn: (0, 2),
        churn_horizon: 10_000,
        revival_fraction: if revive { 0.8 } else { 0.0 },
        max_cycles: 200_000,
        ..ScenarioSpec::smoke()
    }
}

fn record_options(spec: &ScenarioSpec, mode: RecordMode) -> RecordOptions {
    RecordOptions { spec: spec.to_text(), instance: 0, mode, wall_time: false }
}

/// Records instance 0 of `spec`, or `None` when the sampled combination
/// is rejected by config validation (a legal spec outcome).
fn record_instance(spec: &ScenarioSpec, mode: RecordMode) -> Option<Trace> {
    record_run(spec.sample(0), &record_options(spec, mode)).ok().map(|(_report, trace)| trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Record → replay reproduces every frame, and the replayed trace's
    /// bytes (wall time off) are identical to the recording. Also pins
    /// the canonical-encoding property on real traces: parse ∘ to_bytes
    /// is the identity.
    #[test]
    fn replay_reproduces_recorded_runs(
        seed in 0u64..10_000,
        revive in 0u8..2,
    ) {
        let spec = fast_spec(seed, revive == 1);
        let Some(trace) = record_instance(&spec, RecordMode::Full) else {
            return Ok(()); // rejected instance: nothing to replay
        };
        let outcome = replay(spec.sample(0), &trace).expect("same builder must replay");
        prop_assert!(
            outcome.diff.identical(),
            "replay diverged:\n{}",
            render_divergence("recorded", "replayed", &outcome.diff)
        );
        prop_assert_eq!(outcome.diff.frames_compared as usize, trace.records.len());
        prop_assert_eq!(outcome.diff.cost_only_frames, 0);
        prop_assert_eq!(outcome.replayed.to_bytes(), trace.to_bytes());
        let reparsed = Trace::parse(&trace.to_bytes()).expect("own bytes parse");
        prop_assert_eq!(reparsed.to_bytes(), trace.to_bytes());
        prop_assert_eq!(reparsed.records, trace.records);
    }

    /// A ring recording holds exactly the last `capacity` frames of the
    /// full recording, record-for-record, and accounts for every
    /// dropped frame.
    #[test]
    fn ring_tail_matches_full_trace(
        seed in 0u64..10_000,
        capacity in 1usize..6,
    ) {
        let spec = fast_spec(seed, true);
        let Some(full) = record_instance(&spec, RecordMode::Full) else {
            return Ok(());
        };
        let ring = record_instance(&spec, RecordMode::Ring(capacity))
            .expect("instance accepted once is accepted again");
        let tail_len = full.records.len().min(capacity);
        prop_assert_eq!(ring.records.len(), tail_len);
        let tail = &full.records[full.records.len() - tail_len..];
        prop_assert_eq!(ring.records.as_slice(), tail);
        prop_assert_eq!(
            ring.header.dropped_frames as usize,
            full.records.len() - tail_len
        );
        // And the tail diffs clean against the full trace.
        let diff = diff_traces(&full, &ring);
        prop_assert!(diff.identical());
        prop_assert_eq!(diff.frames_compared as usize, tail_len);
    }
}

/// A drain config big enough that the repair pipeline engages, with an
/// optional extra scripted failure to force a divergence.
fn drain_builder(extra_failure: Option<(u64, usize)>) -> SimConfigBuilder {
    let mut failures = vec![ScriptedFailure { at_cycle: 9_000, node: 5 }];
    if let Some((at_cycle, node)) = extra_failure {
        failures.push(ScriptedFailure { at_cycle, node });
    }
    etx_sim::SimConfig::builder()
        .mesh_square(5)
        .battery_capacity_picojoules(60_000.0)
        .scripted_failures(failures)
        .max_cycles(400_000)
}

fn record_builder(builder: SimConfigBuilder) -> Trace {
    let options = RecordOptions {
        spec: String::new(),
        instance: 0,
        mode: RecordMode::Full,
        wall_time: false,
    };
    record_run(builder, &options).expect("valid config").1
}

/// Two runs differing by one scripted failure: the bisector lands on
/// the exact first frame whose records disagree, and the side-by-side
/// report names the diverging components.
#[test]
fn bisect_pinpoints_scripted_divergence() {
    let baseline = record_builder(drain_builder(None));
    let perturbed = record_builder(drain_builder(Some((20_000, 7))));
    let diff = diff_traces(&baseline, &perturbed);
    let div = diff.divergence.as_ref().expect("runs must diverge");

    // Independent ground truth: the first zipped record pair that
    // disagrees (wall time is zero in both, so direct comparison works).
    let expected = baseline
        .records
        .iter()
        .zip(&perturbed.records)
        .find(|(a, b)| a != b)
        .map(|(a, _)| a.frame)
        .expect("a perturbed run must differ within the common prefix");
    assert_eq!(div.frame, expected);
    assert_eq!(diff.frames_compared, expected - baseline.first_frame().unwrap());
    // The injected failure lands at cycle 20k: every frame before it
    // must agree, so the divergent frame's cycle can't precede it.
    assert!(div.left.as_ref().unwrap().cycle >= 20_000 - 2_048);

    let report = render_divergence("baseline", "perturbed", &diff);
    assert!(report.contains("first divergence at frame"), "report:\n{report}");
    for component in &div.components {
        assert!(report.contains(&component.to_string()), "report misses {component}:\n{report}");
    }
}

/// A synthetic single-bit digest perturbation is pinpointed to that
/// frame, flagged as a state-digest divergence and nothing else.
#[test]
fn perturbed_digest_is_pinpointed() {
    let trace = record_builder(drain_builder(None));
    assert!(trace.records.len() >= 3, "drain run too short to perturb meaningfully");
    let target = trace.records.len() / 2;
    let mut mutated = trace.clone();
    mutated.records[target].state_digest ^= 1;
    let diff = diff_traces(&trace, &mutated);
    let div = diff.divergence.expect("perturbation must surface");
    assert_eq!(div.frame, trace.records[target].frame);
    assert_eq!(div.components, vec![DivergenceComponent::StateDigest]);
    assert_eq!(diff.frames_compared as usize, target);
}

/// A truncated trace diffs as a missing-frame (presence) divergence at
/// the first absent frame.
#[test]
fn truncated_trace_is_a_presence_divergence() {
    let full = record_builder(drain_builder(None));
    assert!(full.records.len() >= 2);
    let mut short = full.clone();
    short.records.pop();
    let diff = diff_traces(&full, &short);
    let div = diff.divergence.expect("missing tail must surface");
    assert_eq!(div.frame, full.last_frame().unwrap());
    assert_eq!(div.components, vec![DivergenceComponent::Presence]);
    assert!(div.right.is_none());
}

/// Replaying against the wrong config is rejected by fingerprint before
/// any cycle runs.
#[test]
fn replay_rejects_mismatched_config() {
    let spec = fast_spec(42, false);
    let trace = record_instance(&spec, RecordMode::Full).expect("seed 42 samples a valid config");
    let other = fast_spec(43, false);
    let err = replay(other.sample(0), &trace).expect_err("different config must be rejected");
    assert!(
        matches!(err, TraceError::FingerprintMismatch { .. }),
        "expected fingerprint mismatch, got: {err}"
    );
}
