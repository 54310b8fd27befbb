//! `fleet_mixed`: `FleetController::run` over the `mixed` preset with
//! `ShardPlan::Auto`, one sweep after another.
//!
//! Operation: one sweep of `SWEEP` freshly sampled instances. A fleet
//! has no telemetry path: its new input is a sweep's scenarios, visible
//! once the merged aggregate returns, so its ingest samples are the
//! sweep latencies. Set-up: a warm-up sweep, repeated.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use etx_fleet::{FleetAggregate, FleetController, FleetResult, ScenarioSpec, ShardPlan};
use etx_metrics::{CounterId, MetricsHandle, Registry, SpanId};
use etx_sim::SimPool;

use crate::common::{derive_seed, ms, span_ms, EndToEnd, Layers, Outcome, Samples, Table, Tracer};

/// Instances per sweep: two shards of 64 under `ShardPlan::Auto` on two
/// cores, and enough sweeps per window for a p90 with ten samples
/// beyond it.
const SWEEP: usize = 128;
/// Warm-up sweeps timed for `setup_s`: one sweep's time varies by a
/// third with its sampled instances, so the median needs many.
const SETUP_REPS: u64 = 15;
/// Every `CHECK_EVERY`-th sweep is re-run on one shard.
const CHECK_EVERY: usize = 16;
/// Sweeps of the serial traced pass.
const TRACED_SWEEPS: usize = 4;

const SETUP_STREAM: u64 = 1 << 40;

/// Sweep `stream` of the window: the `mixed` preset under its own seed.
fn sweep_spec(seed: u64, stream: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "fleet_mixed".to_string(),
        seed: derive_seed(seed, stream),
        instances: SWEEP,
        ..ScenarioSpec::default()
    }
}

fn sweep(spec: &ScenarioSpec, plan: ShardPlan) -> Result<(FleetResult, f64), String> {
    let t = Instant::now();
    let result = FleetController::new().with_shards(plan).run(spec)?;
    Ok((result, ms(t.elapsed())))
}

/// A digest of every field of an aggregate (its `Debug` rendering). A
/// checked sweep keeps these 8 bytes instead of the aggregate's three
/// ~15 KB histograms, so the peak RSS does not grow with the number of
/// sweeps a run gets through.
fn digest(aggregate: &FleetAggregate) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{aggregate:?}").hash(&mut h);
    h.finish()
}

/// One timed sweep; the sweeps the check re-runs keep their aggregate's
/// digest and shard count (the spec is rebuilt from the index).
struct Sweep {
    wall_ms: f64,
    instances: u64,
    rejected: u64,
    kept: Option<(u64, usize)>,
}

fn measure(seed: u64, seconds: f64) -> Result<(EndToEnd, Vec<Sweep>), String> {
    let mut e2e = EndToEnd::default();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        sweep(&sweep_spec(seed, SETUP_STREAM + rep), ShardPlan::Auto)?;
        e2e.setup.push(t.elapsed().as_secs_f64());
    }
    let start = Instant::now();
    let mut sweeps = Vec::new();
    while start.elapsed().as_secs_f64() < seconds {
        let spec = sweep_spec(seed, sweeps.len() as u64);
        let (result, wall_ms) = sweep(&spec, ShardPlan::Auto)?;
        let aggregate = &result.aggregate;
        sweeps.push(Sweep {
            wall_ms,
            instances: aggregate.instances + aggregate.rejected,
            rejected: aggregate.rejected,
            kept: (sweeps.len() % CHECK_EVERY == 0).then(|| (digest(aggregate), result.shards)),
        });
    }
    let mut wall = 0.0;
    let mut instances = 0u64;
    for s in &sweeps {
        e2e.latency.push(s.wall_ms);
        e2e.ingest.push(s.wall_ms);
        wall += s.wall_ms / 1e3;
        instances += s.instances;
    }
    e2e.throughput_per_s = instances as f64 / wall;
    Ok((e2e, sweeps))
}

/// One re-run sweep: its window index, 1-shard wall and window wall.
struct Rerun {
    k: u64,
    one_ms: f64,
    auto_ms: f64,
}

/// Shard invariance: sampled sweeps re-run on one shard must produce
/// the identical aggregate.
fn check(out: &mut Outcome, seed: u64, sweeps: &[Sweep]) -> Result<(Vec<Rerun>, usize), String> {
    let mut reruns = Vec::new();
    let mut shards = 1;
    for (k, s) in sweeps.iter().enumerate() {
        let Some((expected, auto_shards)) = s.kept else { continue };
        let (serial, one_ms) = sweep(&sweep_spec(seed, k as u64), ShardPlan::Fixed(1))?;
        out.check(
            format!("sweep {k}: {auto_shards}-shard aggregate equals the 1-shard aggregate"),
            digest(&serial.aggregate) == expected,
        );
        reruns.push(Rerun { k: k as u64, one_ms, auto_ms: s.wall_ms });
        shards = auto_shards;
    }
    let rejected: u64 = sweeps.iter().map(|s| s.rejected).sum();
    out.check(format!("no sampled instance rejected ({rejected})"), rejected == 0);
    Ok((reruns, shards))
}

/// The serial traced pass over the first re-run sweeps: each instance
/// built and run by the benchmark with a full registry attached. Their
/// untraced 1-shard re-runs are the reference.
fn traced(
    seed: u64,
    reruns: &[Rerun],
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<Vec<String>, String> {
    let registry = MetricsHandle::new(Arc::new(Registry::full()));
    let mut pool = SimPool::new();
    let (mut build, mut run, mut instance) =
        (Samples::default(), Samples::default(), Samples::default());
    let pass = Instant::now();
    let reruns = &reruns[..reruns.len().min(TRACED_SWEEPS)];
    for rerun in reruns {
        let spec = sweep_spec(seed, rerun.k);
        for index in 0..SWEEP {
            let request = rerun.k * SWEEP as u64 + index as u64;
            let t0 = Instant::now();
            let sim = spec.sample(index).build_pooled(&mut pool);
            let t1 = Instant::now();
            let Ok(mut sim) = sim else { continue };
            sim.set_metrics(registry.clone());
            let _ = sim.run_pooled(&mut pool);
            let t2 = Instant::now();
            let id = tracer.record("fleet.instance", t0, t2, None, request);
            tracer.record("fleet.build", t0, t1, Some(id), request);
            tracer.record("sim.run", t1, t2, Some(id), request);
            build.push(ms(t1 - t0));
            run.push(ms(t2 - t1));
            instance.push(ms(t2 - t0));
        }
    }
    let pass_ms = ms(pass.elapsed());
    // The pass is the registry's only traffic.
    let snap = registry.snapshot();
    let recompute = span_ms(&snap, SpanId::SimFrameRecompute);
    let upload = span_ms(&snap, SpanId::SimFrameUpload);
    if let Some(h) = snap.span(SpanId::SimFrameRecompute) {
        layers.recompute_p50 = h.quantile_raw(0.5) as f64 / 1e6;
        layers.recompute_p90 = h.quantile_raw(0.9) as f64 / 1e6;
    }
    layers.repaired_sources = snap.counter(CounterId::RoutingRepairedSources);
    layers.fallback_sources = snap.counter(CounterId::RoutingFallbackSources);
    let recomputes = snap.counter(CounterId::SimRecomputes).max(1);
    layers.changed_per_recompute =
        snap.counter(CounterId::RoutingNodesScanned) as f64 / recomputes as f64;
    layers.window_ms = pass_ms;
    layers.routing_ms = recompute;
    layers.sim_ms = run.sum() - recompute;
    layers.fleet_ms = pass_ms - run.sum();

    let n = instance.len().max(1) as f64;
    let untraced = reruns.iter().map(|r| r.one_ms).sum::<f64>() / n;
    let mut table = Table::default();
    table.row("fleet.build (sample + build_pooled)", build.sum() / n);
    table.row("sim.frame.upload", upload / n);
    table.row("routing (sim.frame.recompute)", recompute / n);
    table.row("sim self (run - upload - recompute)", (run.sum() - upload - recompute) / n);
    table.row("fleet loop (pass - instances)", (pass_ms - instance.sum()) / n);
    let mut notes = table.render(
        &format!("fleet_mixed instance, serial traced pass (n={})", instance.len()),
        "untraced 1-shard instance mean",
        untraced,
    );
    notes.push(format!("fleet.build: {}", build.describe("ms")));
    notes.push(format!("fleet.instance: {}", instance.describe("ms")));
    notes.push(format!(
        "routing.fw_share: {:.2} % of instance time in sim.frame.recompute",
        100.0 * recompute / instance.sum()
    ));
    notes.push(format!(
        "tracing overhead: instance mean {:+.2} % (traced serial pass vs untraced 1-shard sweeps)",
        100.0 * (pass_ms / n / untraced - 1.0)
    ));
    Ok(notes)
}

pub fn run(seed: u64, seconds: f64, trace: Option<&mut Tracer>) -> Result<Outcome, String> {
    let (e2e, sweeps) = measure(seed, seconds)?;
    let mut out =
        Outcome { attempted: sweeps.iter().map(|s| s.instances).sum(), ..Outcome::default() };
    out.notes.extend(e2e.notes(
        &format!("one {SWEEP}-instance sweep"),
        "sweep submitted to merged aggregate returned",
    ));
    let (reruns, shards) = check(&mut out, seed, &sweeps)?;
    let one_ms: f64 = reruns.iter().map(|r| r.one_ms).sum();
    let auto_ms: f64 = reruns.iter().map(|r| r.auto_ms).sum();
    let efficiency = one_ms / (shards as f64 * auto_ms);
    let instances = (reruns.len() * SWEEP) as f64;
    out.notes.push(format!(
        "1-shard point: {:.1} instances/s vs {:.1} on {shards} shards (parallel efficiency {:.3})",
        instances / (one_ms / 1e3),
        instances / (auto_ms / 1e3),
        efficiency
    ));
    if let Some(tracer) = trace {
        let mut layers = Layers { parallel_efficiency: efficiency, ..Layers::default() };
        out.notes.extend(traced(seed, &reruns, tracer, &mut layers)?);
        out.layers = Some(layers);
    }
    out.e2e = e2e;
    Ok(out)
}
