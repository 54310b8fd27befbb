//! Replay, trace comparison, and divergence bisection.
//!
//! A trace pins a run's per-frame state digests; replaying re-drives a
//! fresh engine from the same config and asserts the digests (and event
//! streams) reproduce byte-identically. When two traces — or a trace
//! and a live re-run — disagree, [`diff_traces`] pinpoints the first
//! diverging frame and [`render_divergence`] pretty-prints the two
//! frames side by side.

use core::fmt::Write as _;

use etx_sim::{SimConfigBuilder, SimError, SimReport};

use crate::format::{FrameRecord, Trace, TraceHeader};
use crate::recorder::{SharedRecorder, TraceRecorder};
use crate::{config_fingerprint, TraceError};

/// How to store frames while recording a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordMode {
    /// Keep every frame.
    #[default]
    Full,
    /// Keep only the last `N` frames (bounded memory).
    Ring(usize),
}

/// Knobs for [`record_run`].
#[derive(Debug, Clone, Default)]
pub struct RecordOptions {
    /// Canonical scenario-spec text to stamp into the header (empty for
    /// standalone configs).
    pub spec: String,
    /// Fleet instance index to stamp into the header.
    pub instance: u64,
    /// Full or ring storage.
    pub mode: RecordMode,
    /// Capture per-frame wall time (off → byte-deterministic output).
    pub wall_time: bool,
}

/// Builds `builder`, runs it to completion with a trace recorder
/// attached, and returns the final report plus the recorded trace.
pub fn record_run(
    builder: SimConfigBuilder,
    options: &RecordOptions,
) -> Result<(SimReport, Trace), SimError> {
    let mut sim = builder.build()?;
    let header = TraceHeader {
        ring: matches!(options.mode, RecordMode::Ring(_)),
        config_fingerprint: config_fingerprint(sim.config()),
        instance: options.instance,
        dropped_frames: 0,
        spec: options.spec.clone(),
    };
    let recorder = match options.mode {
        RecordMode::Full => TraceRecorder::full(header),
        RecordMode::Ring(capacity) => TraceRecorder::ring(header, capacity),
    }
    .with_wall_time(options.wall_time);
    let shared = SharedRecorder::new(recorder);
    sim.set_frame_recorder(Box::new(shared.clone()));
    let report = sim.run();
    let trace = shared.to_trace().expect("recorder emits well-formed traces");
    Ok((report, trace))
}

/// Which part of a frame record diverged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceComponent {
    /// The frame exists in only one trace (different run length or a
    /// frame-numbering mismatch).
    Presence,
    /// The semantic state digest (battery buckets, liveness/deadlock
    /// bitsets, routing version).
    StateDigest,
    /// The routing-table version.
    RoutingVersion,
    /// Whether the frame recomputed.
    Recomputed,
    /// The frame's event stream.
    Events,
    /// Cumulative job completion/loss counters.
    Jobs,
    /// Cumulative energy tallies (bit-exact f64 comparison).
    Energy,
}

impl core::fmt::Display for DivergenceComponent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            DivergenceComponent::Presence => "presence",
            DivergenceComponent::StateDigest => "state-digest",
            DivergenceComponent::RoutingVersion => "routing-version",
            DivergenceComponent::Recomputed => "recomputed",
            DivergenceComponent::Events => "events",
            DivergenceComponent::Jobs => "jobs",
            DivergenceComponent::Energy => "energy",
        };
        f.write_str(name)
    }
}

/// The first diverging frame of a comparison.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Frame number where the traces first disagree.
    pub frame: u64,
    /// The left trace's record at that frame (if present).
    pub left: Option<FrameRecord>,
    /// The right trace's record at that frame (if present).
    pub right: Option<FrameRecord>,
    /// Every component that disagrees at that frame.
    pub components: Vec<DivergenceComponent>,
}

/// Result of comparing two traces frame by frame.
#[derive(Debug, Clone)]
pub struct TraceDiff {
    /// Frames both traces covered and agreed on (in every semantic
    /// component).
    pub frames_compared: u64,
    /// Frames whose *cost* digests differed — recompute-counter drift
    /// only, expected between recompute strategies; never a
    /// divergence.
    pub cost_only_frames: u64,
    /// The first semantic divergence, if any.
    pub divergence: Option<Divergence>,
}

impl TraceDiff {
    /// `true` when the traces are semantically identical (cost drift
    /// allowed).
    #[must_use]
    pub fn identical(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Components on which records `l` and `r` of the same frame disagree.
fn frame_components(l: &FrameRecord, r: &FrameRecord) -> Vec<DivergenceComponent> {
    let mut components = Vec::new();
    if l.state_digest != r.state_digest {
        components.push(DivergenceComponent::StateDigest);
    }
    if l.routing_version != r.routing_version {
        components.push(DivergenceComponent::RoutingVersion);
    }
    if l.recomputed != r.recomputed {
        components.push(DivergenceComponent::Recomputed);
    }
    if l.events != r.events {
        components.push(DivergenceComponent::Events);
    }
    if l.jobs_completed != r.jobs_completed || l.jobs_lost != r.jobs_lost {
        components.push(DivergenceComponent::Jobs);
    }
    if l.medium_pj_bits != r.medium_pj_bits || l.controller_pj_bits != r.controller_pj_bits {
        components.push(DivergenceComponent::Energy);
    }
    components
}

/// Compares two traces of (supposedly) the same run frame by frame and
/// reports the first semantic divergence.
///
/// Ring traces only retain a tail: the comparison starts at the later
/// of the two first retained frames, so a ring tail diffs cleanly
/// against the full trace of the same run. Wall time and cost counters
/// never count as divergence (cost drift is tallied separately).
#[must_use]
pub fn diff_traces(left: &Trace, right: &Trace) -> TraceDiff {
    let start = match (left.first_frame(), right.first_frame()) {
        (Some(l), Some(r)) => l.max(r),
        // One (or both) recorded nothing: identical only if both empty.
        _ => {
            let divergence = match (left.records.first(), right.records.first()) {
                (None, None) => None,
                (l, r) => Some(Divergence {
                    frame: l.or(r).map_or(0, |rec| rec.frame),
                    left: l.cloned(),
                    right: r.cloned(),
                    components: vec![DivergenceComponent::Presence],
                }),
            };
            return TraceDiff { frames_compared: 0, cost_only_frames: 0, divergence };
        }
    };
    let mut l_iter = left.records.iter().skip_while(|r| r.frame < start).peekable();
    let mut r_iter = right.records.iter().skip_while(|r| r.frame < start).peekable();
    let mut frames_compared = 0u64;
    let mut cost_only_frames = 0u64;
    loop {
        match (l_iter.peek().copied(), r_iter.peek().copied()) {
            (None, None) => {
                return TraceDiff { frames_compared, cost_only_frames, divergence: None }
            }
            (Some(l), None) => {
                return TraceDiff {
                    frames_compared,
                    cost_only_frames,
                    divergence: Some(Divergence {
                        frame: l.frame,
                        left: Some(l.clone()),
                        right: None,
                        components: vec![DivergenceComponent::Presence],
                    }),
                }
            }
            (None, Some(r)) => {
                return TraceDiff {
                    frames_compared,
                    cost_only_frames,
                    divergence: Some(Divergence {
                        frame: r.frame,
                        left: None,
                        right: Some(r.clone()),
                        components: vec![DivergenceComponent::Presence],
                    }),
                }
            }
            (Some(l), Some(r)) => {
                if l.frame != r.frame {
                    let frame = l.frame.min(r.frame);
                    let (missing_left, missing_right) = if l.frame < r.frame {
                        (Some(l.clone()), None)
                    } else {
                        (None, Some(r.clone()))
                    };
                    return TraceDiff {
                        frames_compared,
                        cost_only_frames,
                        divergence: Some(Divergence {
                            frame,
                            left: missing_left,
                            right: missing_right,
                            components: vec![DivergenceComponent::Presence],
                        }),
                    };
                }
                let components = frame_components(l, r);
                if !components.is_empty() {
                    return TraceDiff {
                        frames_compared,
                        cost_only_frames,
                        divergence: Some(Divergence {
                            frame: l.frame,
                            left: Some(l.clone()),
                            right: Some(r.clone()),
                            components,
                        }),
                    };
                }
                if l.cost_digest != r.cost_digest {
                    cost_only_frames += 1;
                }
                frames_compared += 1;
                l_iter.next();
                r_iter.next();
            }
        }
    }
}

/// Formats one side's field for the two-column divergence report.
fn column(record: Option<&FrameRecord>, f: impl Fn(&FrameRecord) -> String) -> String {
    record.map_or_else(|| "(absent)".to_string(), f)
}

/// Pretty-prints the first diverging frame of `diff` side by side:
/// digest components, counters, and the two event streams, with `>`
/// marking the rows that disagree.
#[must_use]
pub fn render_divergence(left_name: &str, right_name: &str, diff: &TraceDiff) -> String {
    let mut out = String::new();
    let Some(div) = &diff.divergence else {
        let _ = writeln!(
            out,
            "traces agree on {} frame(s) ({} with cost-counter drift only)",
            diff.frames_compared, diff.cost_only_frames
        );
        return out;
    };
    let cycle = div.left.as_ref().or(div.right.as_ref()).map_or(0, |r| r.cycle);
    let _ = writeln!(
        out,
        "first divergence at frame {} (cycle {cycle}), after {} identical frame(s)",
        div.frame, diff.frames_compared
    );
    let labels: Vec<String> = div.components.iter().map(ToString::to_string).collect();
    let _ = writeln!(out, "diverging components: {}", labels.join(", "));
    let width = 44usize;
    let l = div.left.as_ref();
    let r = div.right.as_ref();
    let _ = writeln!(out, "  {:<24}{:<width$}  {}", "", left_name, right_name);
    let mut row = |label: &str, f: &dyn Fn(&FrameRecord) -> String| {
        let lv = column(l, f);
        let rv = column(r, f);
        let mark = if lv == rv { ' ' } else { '>' };
        let _ = writeln!(out, "{mark} {label:<24}{lv:<width$}  {rv}");
    };
    row("frame/cycle", &|rec| format!("f{} @{}", rec.frame, rec.cycle));
    row("state digest", &|rec| format!("{:016x}", rec.state_digest));
    row("routing version", &|rec| rec.routing_version.to_string());
    row("recomputed", &|rec| rec.recomputed.to_string());
    row("jobs done/lost", &|rec| format!("{}/{}", rec.jobs_completed, rec.jobs_lost));
    row("medium pJ", &|rec| format!("{:.3}", rec.medium_pj()));
    row("controller pJ", &|rec| format!("{:.3}", rec.controller_pj()));
    row("cost digest", &|rec| format!("{:016x}", rec.cost_digest));
    row("recompute delta", &|rec| {
        let d = &rec.recompute_delta;
        format!(
            "full={} repair={} entries={}",
            d.full_recomputes, d.repair_recomputes, d.table_entries_rebuilt
        )
    });
    let l_events = l.map_or(&[][..], |rec| rec.events.as_slice());
    let r_events = r.map_or(&[][..], |rec| rec.events.as_slice());
    let _ = writeln!(out, "  events: {} vs {}", l_events.len(), r_events.len());
    for i in 0..l_events.len().max(r_events.len()) {
        let le = l_events.get(i);
        let re = r_events.get(i);
        let fmt = |e: Option<&etx_sim::TraceEntry>| {
            e.map_or_else(
                || "(absent)".to_string(),
                |e| format!("f{} @{} {}", e.frame, e.cycle, e.event),
            )
        };
        let (ls, rs) = (fmt(le), fmt(re));
        let mark = if le == re { ' ' } else { '>' };
        let _ = writeln!(out, "{mark}   {ls:<width$}  {rs}", width = width + 22);
    }
    out
}

/// Outcome of replaying a trace against a rebuilt config.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The re-run's final report.
    pub report: SimReport,
    /// The re-run's own (full, wall-time-free) trace.
    pub replayed: Trace,
    /// Comparison of the original trace against the re-run.
    pub diff: TraceDiff,
}

/// Re-drives a fresh engine from `builder` and compares its frame
/// stream against `trace`.
///
/// The builder must reproduce the recorded run's config: the built
/// config's fingerprint is checked against the trace header before any
/// cycle runs. Returns the re-run's report plus the frame-level diff
/// (`diff.identical()` ⇔ the replay reproduced every retained frame).
pub fn replay(builder: SimConfigBuilder, trace: &Trace) -> Result<ReplayOutcome, TraceError> {
    let options = RecordOptions {
        spec: trace.header.spec.clone(),
        instance: trace.header.instance,
        mode: RecordMode::Full,
        wall_time: false,
    };
    // Fingerprint check happens inside record_run via the built config;
    // do it eagerly here for a precise error before spending a run.
    {
        let sim_cfg = builder.clone().build().map_err(|e| TraceError::Config(e.to_string()))?;
        let fp = config_fingerprint(sim_cfg.config());
        if fp != trace.header.config_fingerprint {
            return Err(TraceError::FingerprintMismatch {
                trace: trace.header.config_fingerprint,
                rebuilt: fp,
            });
        }
    }
    let (report, replayed) =
        record_run(builder, &options).map_err(|e| TraceError::Config(e.to_string()))?;
    let diff = diff_traces(trace, &replayed);
    Ok(ReplayOutcome { report, replayed, diff })
}
