//! `overhead_gate` — the instrumentation overhead gate. Exits non-zero
//! when either observability layer costs more than its ceiling on the
//! K=1024 (32×32) steady-drain repair frame:
//!
//! * **metrics** (≤ 1 %): one frame's full `etx-metrics` record traffic
//!   — the engine's frame counters, phase spans, routing-version gauge
//!   and `RecomputeStats` delta flush, plus every live repair-stage
//!   span — against the identical loop with recording runtime-disabled;
//! * **trace record** (≤ 5 %): one `etx-trace` record call — state and
//!   cost digest over the K-node report, LEB128 encode, ring-slot store.
//!
//! ```text
//! cargo run -p etx-bench --bin overhead_gate --release
//! ```
//!
//! Both costs are micro-timed on warm loops and divided by the
//! separately timed repair frame: one battery-bucket drain per frame,
//! recomputed in place through `Router::recompute_dirty_into`, the best
//! 16-frame window divided by 16. It runs in a few seconds.
//!
//! **Why micro-timing.** A sub-microsecond per-frame record cost is
//! ~0.03 % of a K=1024 repair frame, an order of magnitude below what
//! end-to-end differential timing resolves on a shared host: null
//! experiments with both streams disabled read ±2–4 % "overhead" on a
//! true zero, bent by LLC-exceeding working sets, node-residue parity
//! coupling and co-tenant stalls. Micro-timing the record traffic
//! resolves nanoseconds.
//!
//! **One registry, toggled, windows interleaved.** Two separately
//! allocated loop instances differ in memory layout, and
//! address-dependent cache/TLB aliasing can make one systematically
//! 1–2 % faster for the lifetime of the process; best-of minima
//! gathered seconds apart swing ±4 % because the noise floor itself
//! drifts. Toggling one registry keeps every byte of working set
//! identical between the enabled and disabled streams, and alternating
//! their windows inside one budget keeps both on the same machine state.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use etx::graph::DiGraph;
use etx::metrics::{CounterId, GaugeId, MetricsHandle, Registry, SpanId};
use etx::prelude::*;
use etx::routing::{RecomputeStats, RoutingScratch, RoutingState};

/// Mesh side of the frame both ceilings are defined against.
const SIDE: usize = 32;
/// Metrics ceiling, as a fraction of the repair frame.
const METRICS_CEILING: f64 = 0.01;
/// Trace-record ceiling, as a fraction of the repair frame.
const RECORD_CEILING: f64 = 0.05;
/// Frames per timed window of the repair and record loops.
const WINDOW_FRAMES: usize = 16;

/// Best wall time of `f` over a fixed budget (at least three calls).
fn best_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    let deadline = Instant::now() + budget;
    let mut iters = 0u32;
    loop {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e9);
        iters += 1;
        if (iters >= 3 && Instant::now() >= deadline) || iters >= 10_000 {
            return best;
        }
    }
}

fn module_stripes(k: usize) -> Vec<Vec<NodeId>> {
    (0..3).map(|m| (m..k).step_by(3).map(NodeId::new).collect()).collect()
}

/// A mid-drain fleet with striped charge (buckets 8..=15, neighbours
/// differing) rather than a factory-fresh uniform one: uniform levels
/// make every pulse back to ambient spawn mesh-wide exact-tie achiever
/// flips, a worst case no running fleet sits in.
fn striped_report(k: usize) -> SystemReport {
    let mut report = SystemReport::fresh(k, 16);
    for i in 0..k {
        report.set_battery_level(NodeId::new(i), 8 + ((i * 5) % 8) as u32);
    }
    report
}

/// The steady-drain repair frame: one battery-bucket drain per frame,
/// recomputed in place over warmed buffers. Frame costs vary with the
/// drained node's depth and charge class, so this is the best
/// [`WINDOW_FRAMES`]-frame window averaged per frame, not the luckiest
/// single node.
fn steady_drain_ns(
    graph: &DiGraph,
    modules: &[Vec<NodeId>],
    report: &SystemReport,
    budget: Duration,
) -> f64 {
    let router = Router::new(Algorithm::Ear);
    let k = graph.node_count();
    let mut scratch = RoutingScratch::new();
    let mut state = RoutingState::empty();
    let mut current = report.clone();
    router.recompute_dirty_into(graph, modules, &current, &[], &mut scratch, &mut state);
    let mut frame = 0usize;
    let mut drain_one = || {
        let node = NodeId::new((frame * 7 + 3) % k);
        let level = current.battery_level(node);
        // Wrap an empty bucket back to full to keep the loop running.
        current.set_battery_level(node, if level == 0 { 15 } else { level - 1 });
        frame += 1;
        router.recompute_dirty_into(graph, modules, &current, &[node], &mut scratch, &mut state);
    };
    // The first delta frames after a full recompute find cold trees and
    // re-run every source: start-up cost, not the steady state.
    for _ in 0..8 {
        drain_one();
    }
    best_ns(budget, || {
        for _ in 0..WINDOW_FRAMES {
            drain_one();
        }
    }) / WINDOW_FRAMES as f64
}

/// Per-frame `etx-metrics` record traffic, `(enabled_ns, noop_ns)`:
/// one registry toggled between full recording and the shipped no-op
/// mode (every record call early-returns on the class flags, spans
/// never read the clock), enabled and disabled windows interleaved.
fn metrics_record_ns(budget: Duration) -> (f64, f64) {
    let registry = Arc::new(Registry::full());
    let metrics = MetricsHandle::new(Arc::clone(&registry));
    // A representative K=1024 steady-drain frame's recompute delta: one
    // repaired source, a phase-3 patch sweep, every node state scanned.
    let delta = RecomputeStats {
        repair_recomputes: 1,
        repaired_sources: 1,
        table_cells_patched: 33,
        nodes_scanned: (SIDE * SIDE) as u64,
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
    // best[0] = no-op stream, best[1] = enabled stream.
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
            let slot = usize::from(on);
            best[slot] = best[slot].min(start.elapsed().as_secs_f64() * 1e9);
        }
        iters += 1;
        if (iters >= 3 && Instant::now() >= deadline) || iters >= 10_000 {
            break;
        }
    }
    (best[1] / WINDOW as f64, best[0] / WINDOW as f64)
}

/// Per-frame cost of one frame-trace record call on a warm ring
/// recorder. The state digest walks all `K` node states, so this is
/// the recording hook's whole per-frame price (the engine adds only an
/// event-tap drain).
fn record_frame_ns(report: &SystemReport, budget: Duration) -> f64 {
    use etx::sim::{FrameSnapshot, TraceEntry, TraceEvent};
    use etx::trace::{TraceHeader, TraceRecorder};
    let mut recorder = TraceRecorder::ring(TraceHeader::default(), 64).with_wall_time(false);
    let events = [
        TraceEntry::new(1, 1_024, TraceEvent::RoutingRecomputed { version: 1 }),
        TraceEntry::new(1, 1_024, TraceEvent::JobCompleted { job: 7 }),
    ];
    let stats = RecomputeStats {
        repair_recomputes: 1,
        repaired_sources: 3,
        table_cells_patched: 12,
        nodes_scanned: report.node_count() as u64,
        ..Default::default()
    };
    let mut frame = 0u64;
    let mut record_one = || {
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
    // Warm the digest bitsets, the encode buffer and every ring slot.
    for _ in 0..128 {
        record_one();
    }
    best_ns(budget, || {
        for _ in 0..WINDOW_FRAMES {
            record_one();
        }
    }) / WINDOW_FRAMES as f64
}

fn main() -> ExitCode {
    let graph = Mesh2D::square(SIDE, Length::from_centimetres(2.05)).to_graph();
    let k = graph.node_count();
    let modules = module_stripes(k);
    let report = striped_report(k);

    let frame_ns = steady_drain_ns(&graph, &modules, &report, Duration::from_millis(250));
    let (enabled_ns, noop_ns) = metrics_record_ns(Duration::from_millis(200));
    let metrics_ns = (enabled_ns - noop_ns).max(0.0);
    let record_ns = record_frame_ns(&report, Duration::from_millis(60));

    let metrics_frac = metrics_ns / frame_ns;
    let record_frac = record_ns / frame_ns;
    println!("K={k} steady-drain repair frame: {:.3} ms", frame_ns / 1e6);
    println!(
        "metrics record traffic: enabled {enabled_ns:.0} ns, no-op {noop_ns:.0} ns, \
         overhead {metrics_ns:.0} ns/frame = {:.3} % (ceiling {:.0} %)",
        metrics_frac * 100.0,
        METRICS_CEILING * 100.0,
    );
    println!(
        "trace record: {record_ns:.0} ns/frame = {:.3} % (ceiling {:.0} %)",
        record_frac * 100.0,
        RECORD_CEILING * 100.0,
    );
    let mut pass = true;
    if metrics_frac > METRICS_CEILING {
        eprintln!("overhead_gate: metrics recording exceeds its ceiling");
        pass = false;
    }
    if record_frac > RECORD_CEILING {
        eprintln!("overhead_gate: trace recording exceeds its ceiling");
        pass = false;
    }
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
