//! `bench_routing` — emits `BENCH_routing.json`, the machine-readable
//! perf baseline of the routing kernel, so future changes have a
//! trajectory to compare against.
//!
//! ```text
//! cargo run -p etx-bench --bin bench_routing --release            # writes ./BENCH_routing.json
//! cargo run -p etx-bench --bin bench_routing --release -- out.json
//! cargo run -p etx-bench --bin bench_routing --release -- --smoke # small sizes, short budgets
//! ```
//!
//! For each K in {16, 64, 256, 1024} (square meshes 4×4 … 32×32) it
//! measures, in nanoseconds (best of a fixed wall-clock budget):
//!
//! * `full_floyd_warshall_ns` — the seed's phase-2+3 path (`Router::compute`
//!   pinned to [`PathBackend::FloydWarshall`]),
//! * `full_auto_ns` — the same full recompute under [`PathBackend::Auto`],
//! * `incremental_repair_ns` — the steady-drain loop the simulator
//!   actually runs: one battery-bucket drain per frame, recomputed in
//!   place over a warmed [`RoutingScratch`] through the engine's
//!   dirty-list entry point (`Router::recompute_dirty_into`) driving the
//!   incremental path-repair pipeline,
//!
//! * `churn_repair_ns` — the churn/reconnect loop: per 16-frame period
//!   a rotating victim is disconnected and revived while recharge
//!   pulses land on bystanders in between, so every period drives both
//!   repair halves (increase *and* decrease) through the same
//!   dirty-list entry point,
//!
//! plus two per-frame observability metrics of the repair loop:
//! `repair_table_entries_per_frame` (phase-3 delta rebuild) and
//! `decrease_repairs_per_frame` (sources whose repair engaged the
//! decrease half over the churn loop);
//!
//! plus the frame-time distribution and tracing cost:
//! `repair_frame_p50/p90/p99_ns` (individually-timed steady-drain
//! repair frames — the latency shape a frame-trace timeline reports)
//! and `record_overhead_ns` / `record_overhead_frac` (one `etx-trace`
//! record call — digest + encode + ring store — absolute and as a
//! fraction of a steady repair frame).
//!
//! A final `"metrics"` block reports `metrics_overhead_frac`: one
//! frame's full `etx-metrics` record traffic (the engine's frame
//! counters, phase spans, routing-version gauge and `RecomputeStats`
//! delta flush, plus every live repair-stage span) micro-timed on a
//! warm loop against the identical loop with recording
//! runtime-disabled, divided by the K=1024 steady-drain repair frame —
//! the same protocol as `record_overhead_frac`. CI gates this at ≤ 1%.

use std::sync::Arc;
use std::time::{Duration, Instant};

use etx::graph::PathBackend;
use etx::metrics::{CounterId, GaugeId, MetricsHandle, Registry, SpanId};
use etx::prelude::*;
use etx::routing::{RoutingScratch, RoutingState};

fn best_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    let deadline = Instant::now() + budget;
    let mut iters = 0u32;
    loop {
        let start = Instant::now();
        f();
        let elapsed = start.elapsed().as_secs_f64() * 1e9;
        best = best.min(elapsed);
        iters += 1;
        if (iters >= 3 && Instant::now() >= deadline) || iters >= 10_000 {
            return best;
        }
    }
}

fn module_stripes(k: usize) -> Vec<Vec<NodeId>> {
    (0..3).map(|m| (m..k).step_by(3).map(NodeId::new).collect()).collect()
}

struct Point {
    k: usize,
    side: usize,
    auto_backend: &'static str,
    full_floyd_warshall_ns: f64,
    full_auto_ns: f64,
    incremental_repair_ns: f64,
    /// Per-frame cost of the churn/reconnect loop (one disconnect +
    /// reconnect pair per [`CHURN_PERIOD`], recharge/drain pulse pairs
    /// in between, one node per frame) on the repair pipeline.
    churn_repair_ns: f64,
    /// Average `(node, module)` table entries phase 3 refreshed per
    /// steady-drain repair frame (a full rebuild would refresh `3 * K`).
    repair_table_entries_per_frame: f64,
    /// Average sources per churn frame whose repair engaged the decrease
    /// half (improvement propagation instead of a conservative re-run).
    decrease_repairs_per_frame: f64,
    /// Steady-drain repair frame-time distribution (individual frame
    /// timings, not best-window averages): the p50/p90/p99 shape the
    /// frame-trace timeline reports per run.
    repair_frame_p50_ns: f64,
    /// 90th percentile of the same distribution.
    repair_frame_p90_ns: f64,
    /// 99th percentile of the same distribution.
    repair_frame_p99_ns: f64,
    /// Cost of one frame-trace record call (state + cost digest over a
    /// K-node report, LEB128 encode, ring-slot store) on a warm
    /// recorder — the whole per-frame price of `fleet --record`.
    record_overhead_ns: f64,
    /// `record_overhead_ns / incremental_repair_ns`: recording cost as
    /// a fraction of the steady-drain repair frame it rides on.
    record_overhead_frac: f64,
}

/// Times one frame-trace record call on a warm ring recorder: the state
/// digest walks all `K` node states, so this is the recording hook's
/// full per-frame cost (the engine adds only an event-tap drain).
fn record_frame_ns(report: &SystemReport, budget: Duration) -> f64 {
    use etx::sim::{FrameSnapshot, TraceEntry, TraceEvent};
    use etx::trace::{TraceHeader, TraceRecorder};
    let mut recorder = TraceRecorder::ring(TraceHeader::default(), 64).with_wall_time(false);
    let events = [
        TraceEntry::new(1, 1_024, TraceEvent::RoutingRecomputed { version: 1 }),
        TraceEntry::new(1, 1_024, TraceEvent::JobCompleted { job: 7 }),
    ];
    let stats = etx::routing::RecomputeStats {
        repair_recomputes: 1,
        repaired_sources: 3,
        table_cells_patched: 12,
        nodes_scanned: report.node_count() as u64,
        ..Default::default()
    };
    let mut frame = 0u64;
    let mut record_one = move |recorder: &mut TraceRecorder| {
        frame += 1;
        recorder.record(&FrameSnapshot {
            frame,
            cycle: frame * 1_024,
            routing_version: frame,
            recomputed: true,
            report,
            recompute: stats,
            recompute_delta: stats,
            events: &events,
            medium_energy: Energy::from_picojoules(frame as f64 * 100.0),
            controller_energy: Energy::from_picojoules(frame as f64 * 400.0),
            jobs_completed: frame,
            jobs_lost: 0,
        });
    };
    // Warm the digest bitsets, encode buffer, and every ring slot.
    for _ in 0..128 {
        record_one(&mut recorder);
    }
    let window_ns = best_ns(budget, || {
        for _ in 0..CHURN_PERIOD {
            record_one(&mut recorder);
        }
    });
    window_ns / CHURN_PERIOD as f64
}

/// Individual steady-drain repair frame timings (the same loop as
/// [`steady_drain_ns`]), reduced to
/// `(p50, p90, p99)` — the per-frame latency distribution a frame-trace
/// timeline would show for this fabric size.
fn repair_frame_percentiles(
    graph: &etx::graph::DiGraph,
    modules: &[Vec<NodeId>],
    report: &SystemReport,
    samples: usize,
) -> (f64, f64, f64) {
    let router = Router::new(Algorithm::Ear);
    let k = graph.node_count();
    let mut scratch = RoutingScratch::new();
    let mut state = RoutingState::empty();
    let mut current = report.clone();
    router.compute_into(graph, modules, &current, None, &mut scratch, &mut state);
    let mut frame = 0usize;
    let mut drain_one = move |current: &mut SystemReport,
                              scratch: &mut RoutingScratch,
                              state: &mut RoutingState| {
        let node = NodeId::new((frame * 7 + 3) % k);
        let level = current.battery_level(node);
        current.set_battery_level(node, if level == 0 { 15 } else { level - 1 });
        frame += 1;
        router.recompute_dirty_into(graph, modules, current, &[node], scratch, state);
    };
    for _ in 0..8 {
        drain_one(&mut current, &mut scratch, &mut state);
    }
    let mut timings: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            drain_one(&mut current, &mut scratch, &mut state);
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    timings.sort_by(f64::total_cmp);
    let pick = |q: f64| timings[((timings.len() - 1) as f64 * q).round() as usize];
    (pick(0.50), pick(0.90), pick(0.99))
}

/// Measures the table entries phase 3 refreshed per frame over a
/// steady battery-drain loop.
fn steady_table_entries_per_frame(
    graph: &etx::graph::DiGraph,
    modules: &[Vec<NodeId>],
    report: &SystemReport,
) -> f64 {
    let router = Router::new(Algorithm::Ear);
    let k = graph.node_count();
    let mut scratch = RoutingScratch::new();
    let mut state = RoutingState::empty();
    let mut current = report.clone();
    router.compute_into(graph, modules, &current, None, &mut scratch, &mut state);
    let mut drain_one = |frame: usize, scratch: &mut RoutingScratch, state: &mut RoutingState| {
        let node = NodeId::new((frame * 7 + 3) % k);
        let level = current.battery_level(node);
        current.set_battery_level(node, if level == 0 { 15 } else { level - 1 });
        router.recompute_dirty_into(graph, modules, &current, &[node], scratch, state);
    };
    // Warm-up frames: the first delta frame after a full recompute finds
    // cold shortest-path trees and re-runs (and re-tables) everything —
    // that is start-up cost, not the steady state this metric tracks.
    let warmup_frames = 4usize;
    for frame in 0..warmup_frames {
        drain_one(frame, &mut scratch, &mut state);
    }
    let warmup = scratch.stats();
    let frames = 32u64;
    for frame in 0..frames {
        drain_one(warmup_frames + frame as usize, &mut scratch, &mut state);
    }
    let stats = scratch.stats();
    (stats.table_entries_rebuilt - warmup.table_entries_rebuilt) as f64 / frames as f64
}

/// Length of one churn period: a disconnect/reconnect pair followed by
/// recharge/drain pulse pairs on rotating bystanders. One failure every
/// 16 recompute frames is still orders of magnitude denser churn than
/// any fleet scenario (whose failures are separated by thousands of
/// frames) — a disconnect re-hangs the victim's whole shortest-path
/// subtree for every source, `Θ(avg depth)` nodes against a drain
/// tick's `Θ(1)`, so an every-frame-structural loop would measure that
/// asymptotic gap rather than the repair pipeline.
const CHURN_PERIOD: usize = 16;

/// Applies churn frame `frame` to `report` and returns the changed
/// node: per 16-frame period, disconnect a rotating victim, revive it
/// at its pre-death battery level (reconnect semantics — the battery
/// rides along while the node is unreachable, so every revived edge is
/// a dead→alive weight *decrease* back to its exact old value), then
/// drain-and-recharge bystanders in pairs (each recharge a strict
/// decrease). Every period exercises both repair halves with one
/// changed node per frame.
fn churn_mutate(
    report: &mut SystemReport,
    frame: usize,
    k: usize,
    victim_level: &mut u32,
) -> NodeId {
    match frame % CHURN_PERIOD {
        0 => {
            let victim = NodeId::new((frame / CHURN_PERIOD * 11 + 5) % k);
            *victim_level = report.battery_level(victim);
            report.set_dead(victim);
            victim
        }
        1 => {
            let victim = NodeId::new(((frame - 1) / CHURN_PERIOD * 11 + 5) % k);
            report.revive(victim, *victim_level);
            victim
        }
        i => {
            let node = NodeId::new(((frame - i % 2) * 7 + 3) % k);
            let level = report.battery_level(node);
            let level = if i % 2 == 0 { level.saturating_sub(1) } else { (level + 1).min(15) };
            report.set_battery_level(node, level);
            node
        }
    }
}

/// Times one churn/reconnect cycle (averaged to a per-frame figure) on
/// the repair pipeline, and measures how many
/// sources per frame the decrease half repaired in place.
fn churn_repair_stats(
    graph: &etx::graph::DiGraph,
    modules: &[Vec<NodeId>],
    report: &SystemReport,
    budget: Duration,
) -> (f64, f64) {
    let router = Router::new(Algorithm::Ear);
    let k = graph.node_count();
    let mut scratch = RoutingScratch::new();
    let mut state = RoutingState::empty();
    let mut current = report.clone();
    router.compute_into(graph, modules, &current, None, &mut scratch, &mut state);
    let mut frame = 0usize;
    let mut victim_level = 0u32;
    let mut churn_one = move |current: &mut SystemReport,
                              scratch: &mut RoutingScratch,
                              state: &mut RoutingState| {
        let node = churn_mutate(current, frame, k, &mut victim_level);
        frame += 1;
        router.recompute_dirty_into(graph, modules, current, &[node], scratch, state);
    };
    for _ in 0..CHURN_PERIOD {
        churn_one(&mut current, &mut scratch, &mut state);
    }
    let warmup = scratch.stats();
    let stat_frames = 2 * CHURN_PERIOD as u64;
    for _ in 0..stat_frames {
        churn_one(&mut current, &mut scratch, &mut state);
    }
    let stats = scratch.stats();
    let decrease_per_frame =
        (stats.decrease_repairs - warmup.decrease_repairs) as f64 / stat_frames as f64;
    let cycle_ns = best_ns(budget, || {
        for _ in 0..CHURN_PERIOD {
            churn_one(&mut current, &mut scratch, &mut state);
        }
    });
    (cycle_ns / CHURN_PERIOD as f64, decrease_per_frame)
}

/// Times the simulator's steady-state loop — one battery-bucket drain
/// per frame, recomputed in place over warmed buffers through the
/// engine's dirty-list entry point (`recompute_dirty_into`).
///
/// Measured as the best complete [`CHURN_PERIOD`]-frame window averaged
/// to a per-frame figure — the same protocol as
/// [`churn_repair_stats`], so the churn/drain ratio compares like with
/// like. (Frame costs vary with the drained node's depth and charge
/// class; a best-*single*-frame figure would report the luckiest node
/// instead of the steady state.)
fn steady_drain_ns(
    graph: &etx::graph::DiGraph,
    modules: &[Vec<NodeId>],
    report: &SystemReport,
    budget: Duration,
) -> f64 {
    let router = Router::new(Algorithm::Ear);
    let k = graph.node_count();
    let mut scratch = RoutingScratch::new();
    let mut state = RoutingState::empty();
    let mut current = report.clone();
    router.compute_into(graph, modules, &current, None, &mut scratch, &mut state);
    let mut frame = 0usize;
    let mut drain_one = move |current: &mut SystemReport,
                              scratch: &mut RoutingScratch,
                              state: &mut RoutingState| {
        let node = NodeId::new((frame * 7 + 3) % k);
        let level = current.battery_level(node);
        if level == 0 {
            current.set_battery_level(node, 15); // keep the loop running
        } else {
            current.set_battery_level(node, level - 1);
        }
        frame += 1;
        router.recompute_dirty_into(graph, modules, current, &[node], scratch, state);
    };
    for _ in 0..8 {
        drain_one(&mut current, &mut scratch, &mut state);
    }
    let window_ns = best_ns(budget, || {
        for _ in 0..CHURN_PERIOD {
            drain_one(&mut current, &mut scratch, &mut state);
        }
    });
    window_ns / CHURN_PERIOD as f64
}

/// Per-frame cost of full `etx-metrics` instrumentation, measured the
/// way `record_overhead_ns` measures trace recording: the complete
/// record traffic one instrumented steady-drain frame emits — the
/// engine's frame counters, phase spans, routing-version gauge and
/// `RecomputeStats` delta flush, plus every live repair-stage span —
/// timed on a warm tight loop against the identical loop with
/// recording runtime-disabled (the shipped no-op mode: every record
/// call early-returns on the class flags, spans never read the clock).
/// Returns `(enabled_ns, noop_ns)` per frame.
///
/// **One registry, toggled, windows interleaved.** Two
/// separately-allocated loop instances differ in memory layout, and on
/// this shared container address-dependent cache/TLB aliasing makes
/// one systematically 1–2% faster for the lifetime of the process;
/// and best-of minima gathered seconds apart swing ±4% because the
/// noise floor itself drifts. Toggling one registry keeps every byte
/// of working set identical between the streams, and alternating
/// enabled/disabled windows inside one budget keeps both on the same
/// machine.
///
/// Differential end-to-end timing of the repair loop itself was tried
/// and abandoned: a sub-microsecond per-frame record cost is ~0.03% of
/// the 1.8 ms K=1024 repair frame, an order of magnitude below this
/// container's demonstrated estimator bias — null experiments with
/// both streams disabled read ±2–4% "overhead" on a true zero, bent by
/// LLC-exceeding working sets, node-residue workload parity coupling
/// and co-tenant stalls. Micro-timing the record traffic resolves
/// nanoseconds; dividing by the separately measured repair frame gives
/// the fraction the CI gate rides — exactly how `record_overhead_frac`
/// is defined.
fn metrics_record_ns(budget: Duration) -> (f64, f64) {
    let registry = Arc::new(Registry::full());
    let metrics = MetricsHandle::new(Arc::clone(&registry));
    // A representative K=1024 steady-drain frame's recompute delta: one
    // repaired source, a phase-3 patch sweep, every node state scanned.
    let delta = etx::routing::RecomputeStats {
        repair_recomputes: 1,
        repaired_sources: 1,
        table_cells_patched: 33,
        nodes_scanned: 1024,
        ..Default::default()
    };
    let mut version = 0u64;
    let mut record_one = || {
        version += 1;
        // The engine's frame loop traffic (engine.rs): frame counter,
        // three phase spans, recompute counter, version gauge, delta
        // flush...
        metrics.inc(CounterId::SimFrames);
        {
            let _upload = metrics.span(SpanId::SimFrameUpload);
        }
        {
            let _recompute = metrics.span(SpanId::SimFrameRecompute);
            // ...wrapping the repair pipeline's stage spans
            // (router.rs): the stage-1 delta guard, the stage-2 timer
            // with its one-half observation, the stage-3 table guard.
            {
                let _delta = metrics.span(SpanId::RoutingRepairDelta);
            }
            let stage2 = metrics.timer();
            metrics.observe_since(SpanId::RoutingRepairIncrease, stage2);
            {
                let _table = metrics.span(SpanId::RoutingRepairTable);
            }
        }
        metrics.inc(CounterId::SimRecomputes);
        {
            let _publish = metrics.span(SpanId::SimFramePublish);
        }
        metrics.gauge_raise(GaugeId::SimRoutingVersion, version);
        delta.record_into(&metrics);
    };
    let set_recording = |on: bool| {
        registry.set_counting(on);
        registry.set_timing(on);
    };
    // ~600 ns/frame enabled: a window is long enough to dwarf the two
    // clock reads timing it, short enough for many windows per budget.
    const WINDOW: usize = 1024;
    for on in [true, false] {
        set_recording(on);
        for _ in 0..WINDOW {
            record_one();
        }
    }
    // best[0] = noop stream, best[1] = enabled stream.
    let mut best = [f64::INFINITY; 2];
    let deadline = Instant::now() + budget;
    let mut iters = 0u32;
    loop {
        for on in [true, false] {
            set_recording(on);
            let start = Instant::now();
            for _ in 0..WINDOW {
                record_one();
            }
            let ns = start.elapsed().as_secs_f64() * 1e9;
            let slot = usize::from(on);
            best[slot] = best[slot].min(ns);
        }
        iters += 1;
        if (iters >= 3 && Instant::now() >= deadline) || iters >= 10_000 {
            break;
        }
    }
    (best[1] / WINDOW as f64, best[0] / WINDOW as f64)
}

/// A mid-drain fleet with striped charge (buckets 8..=15, neighbours
/// differing) rather than a factory-fresh uniform one: uniform levels
/// make every pulse back to ambient spawn mesh-wide exact-tie
/// achiever flips, a worst case no running fleet sits in, and the
/// repair paths measured here are exactly the tie-maintenance-sensitive
/// ones.
fn striped_report(k: usize) -> SystemReport {
    let mut report = SystemReport::fresh(k, 16);
    for i in 0..k {
        report.set_battery_level(NodeId::new(i), 8 + ((i * 5) % 8) as u32);
    }
    report
}

fn measure(side: usize, budget: Duration) -> Point {
    let mesh = Mesh2D::square(side, Length::from_centimetres(2.05));
    let graph = mesh.to_graph();
    let k = graph.node_count();
    let modules = module_stripes(k);
    let report = striped_report(k);

    let fw = Router::new(Algorithm::Ear).with_backend(PathBackend::FloydWarshall);
    let auto = Router::new(Algorithm::Ear);
    let auto_backend = match PathBackend::Auto.resolve(graph.node_count(), graph.edge_count()) {
        etx::graph::ResolvedBackend::FloydWarshall => "floyd_warshall",
        etx::graph::ResolvedBackend::DijkstraAllPairs => "dijkstra_all_pairs",
    };

    let full_floyd_warshall_ns = best_ns(budget, || {
        std::hint::black_box(fw.compute(std::hint::black_box(&graph), &modules, &report, None));
    });
    let full_auto_ns = best_ns(budget, || {
        std::hint::black_box(auto.compute(std::hint::black_box(&graph), &modules, &report, None));
    });

    // The engine's steady-state loop: incremental path repair fed one
    // dirty node per frame.
    let incremental_repair_ns = steady_drain_ns(&graph, &modules, &report, budget);

    let (churn_repair_ns, decrease_repairs_per_frame) =
        churn_repair_stats(&graph, &modules, &report, budget);

    let repair_table_entries_per_frame = steady_table_entries_per_frame(&graph, &modules, &report);

    let samples = if budget < Duration::from_millis(100) { 64 } else { 128 };
    let (repair_frame_p50_ns, repair_frame_p90_ns, repair_frame_p99_ns) =
        repair_frame_percentiles(&graph, &modules, &report, samples);
    let record_overhead_ns = record_frame_ns(&report, budget);
    let record_overhead_frac = record_overhead_ns / incremental_repair_ns;
    Point {
        k,
        side,
        auto_backend,
        full_floyd_warshall_ns,
        full_auto_ns,
        incremental_repair_ns,
        churn_repair_ns,
        repair_table_entries_per_frame,
        decrease_repairs_per_frame,
        repair_frame_p50_ns,
        repair_frame_p90_ns,
        repair_frame_p99_ns,
        record_overhead_ns,
        record_overhead_frac,
    }
}

fn main() {
    // `--smoke`: small sizes and short budgets — the CI-speed pass that
    // still exercises every measured path and emits the per-frame
    // observability metrics.
    let mut smoke = false;
    let mut out_path = None;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = Some(arg);
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_routing.json".to_string());
    let sides: &[usize] = if smoke { &[4, 8, 16] } else { &[4, 8, 16, 32] };
    let mut points = Vec::new();
    for &side in sides {
        let budget = match (smoke, side >= 32) {
            (true, _) => Duration::from_millis(60),
            (false, true) => Duration::from_millis(3000),
            (false, false) => Duration::from_millis(400),
        };
        let point = measure(side, budget);
        eprintln!(
            "K={:4} ({}x{}, auto={}): full_fw={:.0}ns full_auto={:.0}ns \
             repair={:.0}ns ({:.1}x over seed) churn={:.0}ns \
             ({:.1}x over drain, {:.1} decrease-repairs/frame); \
             table {:.1}/{} entries per repair frame",
            point.k,
            point.side,
            point.side,
            point.auto_backend,
            point.full_floyd_warshall_ns,
            point.full_auto_ns,
            point.incremental_repair_ns,
            point.full_floyd_warshall_ns / point.incremental_repair_ns,
            point.churn_repair_ns,
            point.churn_repair_ns / point.incremental_repair_ns,
            point.decrease_repairs_per_frame,
            point.repair_table_entries_per_frame,
            3 * point.k,
        );
        eprintln!(
            "        frame times p50={:.0}ns p90={:.0}ns p99={:.0}ns; trace record {:.0}ns \
             = {:.2}% of a repair frame",
            point.repair_frame_p50_ns,
            point.repair_frame_p90_ns,
            point.repair_frame_p99_ns,
            point.record_overhead_ns,
            point.record_overhead_frac * 100.0,
        );
        points.push(point);
    }

    // Metrics instrumentation overhead, always against the K=1024
    // steady-drain repair frame — the ≤1% budget is defined there, and
    // at smaller K the (fixed, sub-microsecond) per-frame record cost
    // reads as a misleadingly large fraction of a cheap frame. The
    // record traffic is micro-timed (see `metrics_record_ns` for why
    // end-to-end differential timing cannot resolve this on a shared
    // container); the denominator reuses the full run's K=1024 point,
    // or is measured directly with a short budget under `--smoke`.
    let overhead_side = 32;
    let overhead_budget =
        if smoke { Duration::from_millis(200) } else { Duration::from_millis(1000) };
    let (metrics_enabled_ns, metrics_noop_ns) = metrics_record_ns(overhead_budget);
    let metrics_overhead_ns = (metrics_enabled_ns - metrics_noop_ns).max(0.0);
    let repair_frame_ns = points
        .iter()
        .find(|p| p.side == overhead_side)
        .map(|p| p.incremental_repair_ns)
        .unwrap_or_else(|| {
            let mesh = Mesh2D::square(overhead_side, Length::from_centimetres(2.05));
            let graph = mesh.to_graph();
            let k = graph.node_count();
            let modules = module_stripes(k);
            let report = striped_report(k);
            steady_drain_ns(&graph, &modules, &report, Duration::from_millis(250))
        });
    let metrics_overhead_frac = metrics_overhead_ns / repair_frame_ns;
    eprintln!(
        "metrics record traffic: enabled={:.0}ns noop={:.0}ns overhead={:.0}ns/frame \
         = {:.3}% of the K={} repair frame ({:.2}ms)",
        metrics_enabled_ns,
        metrics_noop_ns,
        metrics_overhead_ns,
        metrics_overhead_frac * 100.0,
        overhead_side * overhead_side,
        repair_frame_ns / 1e6,
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"routing_recompute\",\n");
    json.push_str("  \"command\": \"cargo run -p etx-bench --bin bench_routing --release\",\n");
    json.push_str("  \"units\": \"nanoseconds, best observed iteration\",\n");
    json.push_str("  \"workload\": \"EAR three-phase recompute, square mesh, 3 striped modules, 16 battery levels\",\n");
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"k\": {}, \"mesh\": \"{}x{}\", \"auto_backend\": \"{}\", \
             \"full_floyd_warshall_ns\": {:.0}, \"full_auto_ns\": {:.0}, \
             \"incremental_repair_ns\": {:.0}, \
             \"churn_repair_ns\": {:.0}, \
             \"repair_table_entries_per_frame\": {:.1}, \
             \"decrease_repairs_per_frame\": {:.1}, \
             \"repair_frame_p50_ns\": {:.0}, \"repair_frame_p90_ns\": {:.0}, \
             \"repair_frame_p99_ns\": {:.0}, \"record_overhead_ns\": {:.0}, \
             \"record_overhead_frac\": {:.4}}}{}\n",
            p.k,
            p.side,
            p.side,
            p.auto_backend,
            p.full_floyd_warshall_ns,
            p.full_auto_ns,
            p.incremental_repair_ns,
            p.churn_repair_ns,
            p.repair_table_entries_per_frame,
            p.decrease_repairs_per_frame,
            p.repair_frame_p50_ns,
            p.repair_frame_p90_ns,
            p.repair_frame_p99_ns,
            p.record_overhead_ns,
            p.record_overhead_frac,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"metrics\": {{\"k\": {}, \"record_enabled_ns\": {:.0}, \
         \"record_noop_ns\": {:.0}, \"metrics_overhead_ns\": {:.0}, \
         \"repair_frame_ns\": {:.0}, \"metrics_overhead_frac\": {:.4}}}\n",
        overhead_side * overhead_side,
        metrics_enabled_ns,
        metrics_noop_ns,
        metrics_overhead_ns,
        repair_frame_ns,
        metrics_overhead_frac,
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write benchmark json");
    eprintln!("wrote {out_path}");
}
