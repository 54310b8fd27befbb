//! `sim_k1024`: one 32×32 EAR fabric sampled from a `ScenarioSpec`,
//! stepped frame by frame over whole lifetimes.
//!
//! Operation: one TDMA frame, i.e. the `Simulation::step` calls that
//! advance one frame period. Ingest: the frame-boundary step of a frame
//! that recomputed routes (status upload to fresh tables). Set-up:
//! sampling and building the fabric, repeated.
//!
//! A traced run attaches a full registry and switches it on for every
//! other frame, so traced and untraced frames interleave over the same
//! lifetimes and the box's drift cancels out of the comparison.

use std::sync::Arc;
use std::time::{Duration, Instant};

use etx_fleet::{AppChoice, BatteryChoice, ScenarioSpec, TopologyChoice};
use etx_graph::NodeId;
use etx_metrics::{CounterId, MetricsHandle, MetricsSnapshot, Registry, SpanId};
use etx_routing::{Algorithm, SystemReport};
use etx_sim::{
    MappingKind, RecomputeStats, RecomputeStrategy, SimConfigBuilder, SimReport, Simulation,
};

use crate::common::{
    counter_delta, derive_seed, ms, span_ms, EndToEnd, Layers, Outcome, Samples, Table, Tracer,
};

/// Fabric builds timed for `setup_s`; one build is too short to time
/// steadily on its own.
const SETUP_REPS: usize = 7;

/// The scenario distribution: the `SimConfig` default battery
/// (thin-film, 60 000 pJ) with heterogeneous capacities, a few
/// concurrent AES jobs fed by broadcast, and scripted
/// disconnect/reconnects.
fn spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "sim_k1024".to_string(),
        seed: derive_seed(seed, 0x51),
        instances: 1,
        mesh_side: (32, 32),
        topologies: vec![TopologyChoice::Mesh],
        algorithms: vec![Algorithm::Ear],
        strategy: RecomputeStrategy::Auto,
        battery_models: vec![BatteryChoice::ThinFilm],
        apps: vec![AppChoice::Aes],
        battery_pj: (60_000.0, 60_000.0),
        heterogeneity: 0.3,
        churn: (2, 4),
        churn_horizon: 40_000,
        revival_fraction: 0.75,
        frame_period: (1_024, 1_024),
        concurrent_jobs: (3, 3),
        broadcast_fraction: 1.0,
        max_cycles: 20_000_000,
        ..ScenarioSpec::default()
    }
}

/// Instance `index` of the spec. The mapping is pinned to the paper's
/// checkerboard: the sampler's coin flip between two mappings would
/// otherwise split seeds into two cost classes.
fn builder(spec: &ScenarioSpec, index: usize, strategy: RecomputeStrategy) -> SimConfigBuilder {
    spec.sample(index).mapping(MappingKind::Checkerboard).recompute_strategy(strategy)
}

fn build(
    spec: &ScenarioSpec,
    index: usize,
    strategy: RecomputeStrategy,
) -> Result<Simulation, String> {
    builder(spec, index, strategy).build().map_err(|e| format!("sim_k1024 instance {index}: {e}"))
}

/// Per-frame registry deltas of a traced frame, ms.
#[derive(Debug, Default, Clone, Copy)]
struct Parts {
    upload: f64,
    recompute: f64,
    delta: f64,
    increase: f64,
    decrease: f64,
    table: f64,
    repaired: u64,
    fallback: u64,
    changed: usize,
}

/// One stepped frame.
#[derive(Debug, Clone, Copy)]
struct Frame {
    total: Duration,
    boundary: Duration,
    recomputed: bool,
    /// Registry deltas when the frame ran traced.
    traced: Option<Parts>,
}

/// Steps one frame period starting at a frame boundary; `true` once
/// the system died.
fn step_frame(sim: &mut Simulation, period: u64) -> (Frame, bool) {
    let version = sim.routing_version();
    let t0 = Instant::now();
    let mut dead = sim.step().is_some();
    let t1 = Instant::now();
    let mut steps = 1;
    while !dead && steps < period {
        dead = sim.step().is_some();
        steps += 1;
    }
    let t2 = Instant::now();
    let frame = Frame {
        total: t2 - t0,
        boundary: t1 - t0,
        recomputed: sim.routing_version() != version,
        traced: None,
    };
    (frame, dead)
}

fn changed_nodes(before: &SystemReport, after: &SystemReport) -> usize {
    (0..after.node_count())
        .map(NodeId::new)
        .filter(|&n| {
            before.is_alive(n) != after.is_alive(n)
                || before.battery_level(n) != after.battery_level(n)
        })
        .count()
}

/// The traced run's instruments: the registry every instance records
/// into, its last snapshot and the span recorder.
struct Tracing<'a> {
    registry: MetricsHandle,
    prev: MetricsSnapshot,
    tracer: &'a mut Tracer,
    request: u64,
}

impl Tracing<'_> {
    /// Steps one frame; odd frames run with the registry switched on.
    fn frame(&mut self, sim: &mut Simulation, period: u64) -> (Frame, bool) {
        let on = self.request % 2 == 1;
        self.registry.set_timing(on);
        self.registry.set_counting(on);
        let before = on.then(|| sim.last_report().clone());
        let t0 = Instant::now();
        let (mut frame, dead) = step_frame(sim, period);
        if let Some(before) = before {
            let snap = self.registry.snapshot();
            let (prev, now) = (&self.prev, &snap);
            let d = |id: SpanId| span_ms(now, id) - span_ms(prev, id);
            let p = Parts {
                upload: d(SpanId::SimFrameUpload),
                recompute: d(SpanId::SimFrameRecompute),
                delta: d(SpanId::RoutingRepairDelta),
                increase: d(SpanId::RoutingRepairIncrease),
                decrease: d(SpanId::RoutingRepairDecrease),
                table: d(SpanId::RoutingRepairTable),
                repaired: counter_delta(prev, now, CounterId::RoutingRepairedSources),
                fallback: counter_delta(prev, now, CounterId::RoutingFallbackSources),
                changed: changed_nodes(&before, sim.last_report()),
            };
            let t2 = t0 + frame.total;
            let id = self.tracer.record("sim.frame", t0, t2, None, self.request);
            let boundary = t0 + frame.boundary;
            self.tracer.record("sim.step.boundary", t0, boundary, Some(id), self.request);
            self.tracer.record("sim.step.jobs", boundary, t2, Some(id), self.request);
            for (key, v) in [
                ("sim.frame.upload_ms", p.upload),
                ("sim.frame.recompute_ms", p.recompute),
                ("routing.repair.delta_ms", p.delta),
                ("routing.repair.increase_ms", p.increase),
                ("routing.repair.decrease_ms", p.decrease),
                ("routing.repair.table_ms", p.table),
                ("routing.changed_nodes", p.changed as f64),
            ] {
                self.tracer.attr(id, key, v);
            }
            frame.traced = Some(p);
            self.prev = snap;
        }
        self.request += 1;
        (frame, dead)
    }
}

/// One stepped lifetime.
struct Lifetime {
    index: usize,
    frames: Vec<Frame>,
    report: SimReport,
}

fn run_lifetime(mut sim: Simulation, index: usize, tracing: &mut Option<Tracing<'_>>) -> Lifetime {
    if let Some(t) = tracing.as_ref() {
        sim.set_metrics(t.registry.clone());
    }
    let period = sim.config().tdma.frame_period.count();
    let mut frames = Vec::new();
    loop {
        let (frame, dead) = match tracing.as_mut() {
            Some(t) => t.frame(&mut sim, period),
            None => step_frame(&mut sim, period),
        };
        frames.push(frame);
        if dead {
            break;
        }
    }
    Lifetime { index, frames, report: sim.run() }
}

/// Set-up repetitions, then whole lifetimes until the window is spent.
/// The end-to-end figures come from the untraced frames.
fn measure(
    spec: &ScenarioSpec,
    seconds: f64,
    tracing: &mut Option<Tracing<'_>>,
) -> Result<(EndToEnd, Vec<Lifetime>), String> {
    let mut e2e = EndToEnd::default();
    let mut sim = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = build(spec, 0, RecomputeStrategy::Auto)?;
        e2e.setup.push(t.elapsed().as_secs_f64());
        sim = Some(built);
    }
    let mut sim = sim.expect("at least one set-up repetition");
    let start = Instant::now();
    let mut lifetimes = Vec::new();
    loop {
        let index = lifetimes.len();
        lifetimes.push(run_lifetime(sim, index, tracing));
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        sim = build(spec, index + 1, RecomputeStrategy::Auto)?;
    }
    let mut stepping = 0.0;
    let mut frames = 0usize;
    for frame in lifetimes.iter().flat_map(|l| &l.frames).filter(|f| f.traced.is_none()) {
        e2e.latency.push(ms(frame.total));
        if frame.recomputed {
            e2e.ingest.push(ms(frame.boundary));
        }
        stepping += frame.total.as_secs_f64();
        frames += 1;
    }
    e2e.throughput_per_s = frames as f64 / stepping;
    Ok((e2e, lifetimes))
}

/// A report with the strategy-dependent cost counters cleared: every
/// strategy must produce exactly this.
fn results_only(report: &SimReport) -> SimReport {
    SimReport { recompute: RecomputeStats::default(), ..report.clone() }
}

/// Checks every measured lifetime against the `Full` oracle.
fn check(out: &mut Outcome, spec: &ScenarioSpec, lifetimes: &[Lifetime]) -> Result<(), String> {
    for lifetime in lifetimes {
        let oracle = build(spec, lifetime.index, RecomputeStrategy::Full)?.run();
        let same = results_only(&oracle) == results_only(&lifetime.report);
        out.check(format!("instance {} SimReport equals the Full oracle", lifetime.index), same);
        let r = &lifetime.report;
        out.notes.push(format!(
            "instance {}: {} frames, {} jobs, lifetime {} cycles, {} deadlock reports, death {:?}",
            lifetime.index,
            r.frames,
            r.jobs_completed,
            r.lifetime_cycles,
            r.deadlock_reports,
            r.death_cause
        ));
    }
    Ok(())
}

/// The layer table of the median traced frame (traced frames between
/// p40 and p60 of frame time, averaged part by part) and the per-layer
/// metrics.
fn layers(lifetimes: &[Lifetime], e2e: &EndToEnd, out: &mut Outcome) {
    let mut traced: Vec<(f64, Parts)> = lifetimes
        .iter()
        .flat_map(|l| &l.frames)
        .filter_map(|f| f.traced.map(|p| (ms(f.total), p)))
        .collect();
    let mut layers = Layers::default();
    let mut recompute = Samples::default();
    let mut changed = Samples::default();
    let mut total = Samples::default();
    for (t, p) in &traced {
        total.push(*t);
        layers.routing_ms += p.recompute;
        layers.repaired_sources += p.repaired;
        layers.fallback_sources += p.fallback;
        if p.recompute > 0.0 {
            recompute.push(p.recompute);
            changed.push(p.changed as f64);
        }
    }
    layers.recompute_p50 = recompute.median();
    layers.recompute_p90 = recompute.quantile(0.9);
    layers.changed_per_recompute = changed.mean();
    layers.window_ms = total.sum();
    layers.sim_ms = layers.window_ms - layers.routing_ms;

    traced.sort_by(|a, b| a.0.total_cmp(&b.0));
    let lo = traced.len() * 2 / 5;
    let hi = (traced.len() * 3 / 5).max(lo + 1).min(traced.len());
    let band = &traced[lo..hi];
    let mean = |f: &dyn Fn(f64, &Parts) -> f64| {
        band.iter().map(|(t, p)| f(*t, p)).sum::<f64>() / band.len().max(1) as f64
    };
    let mut table = Table::default();
    table.row("sim.frame.upload", mean(&|_, p| p.upload));
    table.row("routing.repair.delta_extract", mean(&|_, p| p.delta));
    table.row("routing.repair.increase", mean(&|_, p| p.increase));
    table.row("routing.repair.decrease", mean(&|_, p| p.decrease));
    table.row("routing.repair.table", mean(&|_, p| p.table));
    table.row(
        "routing (recompute outside stages)",
        mean(&|_, p| p.recompute - p.delta - p.increase - p.decrease - p.table),
    );
    table.row("sim self (frame - upload - recompute)", mean(&|t, p| t - p.upload - p.recompute));
    out.notes.extend(table.render(
        &format!("sim_k1024 median frame (traced frames p40-p60, n={})", band.len()),
        "untraced frame p50",
        e2e.latency.median(),
    ));
    out.notes.push(format!(
        "tracing overhead: frame p50 {:+.2} %, frame mean {:+.2} % (traced vs untraced frames, \
         interleaved)",
        100.0 * (total.median() / e2e.latency.median() - 1.0),
        100.0 * (total.mean() / e2e.latency.mean() - 1.0)
    ));
    out.notes.push(format!(
        "routing: repaired {} / fallback {} sources; recompute p50 {:.4} ms, p90 {:.4} ms; \
         {:.1} changed nodes per recompute",
        layers.repaired_sources,
        layers.fallback_sources,
        layers.recompute_p50,
        layers.recompute_p90,
        layers.changed_per_recompute
    ));
    out.layers = Some(layers);
}

pub fn run(seed: u64, seconds: f64, trace: Option<&mut Tracer>) -> Result<Outcome, String> {
    let spec = spec(seed);
    let mut tracing = trace.map(|tracer| {
        let registry = MetricsHandle::new(Arc::new(Registry::full()));
        let prev = registry.snapshot();
        Tracing { registry, prev, tracer, request: 0 }
    });
    let (e2e, lifetimes) = measure(&spec, seconds, &mut tracing)?;
    let mut out = Outcome {
        attempted: lifetimes.iter().map(|l| l.frames.len() as u64).sum(),
        ..Outcome::default()
    };
    out.notes.extend(e2e.notes("one TDMA frame", "frame-boundary step of recompute frames"));
    check(&mut out, &spec, &lifetimes)?;
    if tracing.is_some() {
        layers(&lifetimes, &e2e, &mut out);
    }
    out.e2e = e2e;
    Ok(out)
}
