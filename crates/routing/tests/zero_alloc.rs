//! Proves the zero-allocation claim of `Router::recompute_dirty_into`:
//! once a `RoutingScratch`/`RoutingState` pair has warmed up on the
//! system's dimensions, steady-state recomputes perform **no heap
//! allocation** — under both phase-2 backends, on the incremental
//! repair path and on full recomputes, for one-node drains, recharges,
//! wide-change frames with deadlock flags, and frames that flip the
//! frame-width verdict between wide and narrow.
//!
//! A counting `#[global_allocator]` wraps the system allocator; this file
//! contains a single test so no concurrent test case can pollute the
//! counter between snapshots.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use etx_graph::{topology::Mesh2D, NodeId};
use etx_routing::{Algorithm, Router, RoutingScratch, RoutingState, SystemReport};
use etx_units::Length;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to the system allocator unchanged;
// the counter is a relaxed atomic with no further side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn module_stripes(k: usize) -> Vec<Vec<NodeId>> {
    (0..3).map(|m| (m..k).step_by(3).map(NodeId::new).collect()).collect()
}

/// Diffs two reports into `dirty`: the nodes whose battery bucket or
/// liveness moved. Reuses `dirty`'s capacity, so a list reserved for
/// every node never grows.
fn changed_nodes_into(old: &SystemReport, new: &SystemReport, dirty: &mut Vec<NodeId>) {
    dirty.clear();
    dirty.extend((0..new.node_count()).map(NodeId::new).filter(|&n| {
        new.battery_level(n) != old.battery_level(n) || new.is_alive(n) != old.is_alive(n)
    }));
}

/// Drives a warmed scratch through `frames` battery-drain recomputes
/// (mirroring what the simulator does every TDMA frame: snapshot the old
/// report into a recycled buffer, mutate, diff, recompute) and returns
/// how many heap allocations the frames performed.
#[allow(clippy::too_many_arguments)] // test helper mirroring the engine's state
fn allocations_over_drain_frames(
    router: &Router,
    graph: &etx_graph::DiGraph,
    modules: &[Vec<NodeId>],
    scratch: &mut RoutingScratch,
    state: &mut RoutingState,
    report: &mut SystemReport,
    old_report: &mut SystemReport,
    dirty: &mut Vec<NodeId>,
    frames: u32,
) -> u64 {
    let k = graph.node_count();
    let before = allocations();
    for frame in 0..frames {
        old_report.clone_from(report); // warmed buffer: no allocation
        let node = NodeId::new((frame as usize * 7 + 3) % k);
        let level = report.battery_level(node);
        report.set_battery_level(node, level.saturating_sub(1));
        changed_nodes_into(old_report, report, dirty);
        router.recompute_dirty_into(graph, modules, report, dirty, scratch, state);
    }
    allocations() - before
}

#[test]
fn steady_state_recompute_does_not_allocate() {
    // 8x8: Auto resolves to Dijkstra, so the repair pipeline engages.
    // 4x4: Auto resolves to Floyd-Warshall (the paper's sizes) and every
    // frame is a full recompute.
    for (side, expect_repair) in [(8usize, true), (4, false)] {
        let graph = Mesh2D::square(side, Length::from_centimetres(2.05)).to_graph();
        let k = graph.node_count();
        let modules = module_stripes(k);
        let router = Router::new(Algorithm::Ear);
        let mut scratch = RoutingScratch::new();
        let mut state = RoutingState::empty();
        let mut report = SystemReport::fresh(k, 16);

        // Warm-up: initial full compute, then a burst of drain frames so
        // every lazily-grown buffer (dirty list, prev-hop snapshot,
        // adjacency + transpose, shortest-path trees, repair scratch,
        // heap, report clone buffer) reaches steady capacity.
        // Everything is deterministic, so "warm" is a stable property,
        // not a flaky one.
        router.recompute_dirty_into(&graph, &modules, &report, &[], &mut scratch, &mut state);
        let mut warm_old = SystemReport::fresh(0, 1);
        let mut dirty = Vec::with_capacity(k);
        let _ = allocations_over_drain_frames(
            &router,
            &graph,
            &modules,
            &mut scratch,
            &mut state,
            &mut report,
            &mut warm_old,
            &mut dirty,
            8,
        );

        let allocated = allocations_over_drain_frames(
            &router,
            &graph,
            &modules,
            &mut scratch,
            &mut state,
            &mut report,
            &mut warm_old,
            &mut dirty,
            32,
        );
        assert_eq!(
            allocated, 0,
            "{side}x{side}: steady-state recompute allocated {allocated} times"
        );
        let stats = scratch.stats();
        if expect_repair {
            assert!(
                stats.repair_recomputes >= 32,
                "{side}x{side}: repair pipeline never engaged ({stats:?})"
            );
            assert!(
                stats.repaired_sources > 0,
                "{side}x{side}: no source was ever repaired in place"
            );
        } else {
            assert_eq!(
                stats.repair_recomputes, 0,
                "{side}x{side}: Floyd-Warshall sizes must recompute in full"
            );
        }
        // Results stay correct after all those in-place updates.
        let reference = router.compute(&graph, &modules, &report, None);
        assert_eq!(state.paths().distances(), reference.paths().distances());
        assert_eq!(state.paths().successors(), reference.paths().successors());
    }

    // One-node dirty lists named directly, as the engine's frame
    // builds them, hold the same guarantee.
    let graph = Mesh2D::square(8, Length::from_centimetres(2.05)).to_graph();
    let k = graph.node_count();
    let modules = module_stripes(k);
    let router = Router::new(Algorithm::Ear);
    let mut scratch = RoutingScratch::new();
    let mut state = RoutingState::empty();
    let mut report = SystemReport::fresh(k, 16);
    router.recompute_dirty_into(&graph, &modules, &report, &[], &mut scratch, &mut state);
    let drain_frame = |frame: usize,
                       report: &mut SystemReport,
                       scratch: &mut RoutingScratch,
                       state: &mut RoutingState| {
        let node = NodeId::new((frame * 7 + 3) % k);
        report.set_battery_level(node, report.battery_level(node).saturating_sub(1));
        router.recompute_dirty_into(&graph, &modules, report, &[node], scratch, state);
    };
    for frame in 0..8 {
        drain_frame(frame, &mut report, &mut scratch, &mut state);
    }
    let before = allocations();
    for frame in 8..40 {
        drain_frame(frame, &mut report, &mut scratch, &mut state);
    }
    assert_eq!(allocations() - before, 0, "dirty-list frames allocated");
    let reference = router.compute(&graph, &modules, &report, None);
    assert_eq!(state.paths().distances(), reference.paths().distances());
    assert_eq!(state.paths().successors(), reference.paths().successors());

    // The decrease half holds the guarantee too: alternating drain and
    // recharge frames keep the improvement heap, the child-link walks
    // and the succ-dirty DFS inside recycled buffers. The recharges are
    // genuine weight decreases, so `decrease_repairs` must advance while
    // the allocation counter stands still.
    let pulse_frame = |frame: usize,
                       report: &mut SystemReport,
                       scratch: &mut RoutingScratch,
                       state: &mut RoutingState| {
        let node = NodeId::new((frame * 5 + 2) % k);
        let level = report.battery_level(node);
        let level =
            if frame.is_multiple_of(2) { level.saturating_sub(1) } else { (level + 1).min(15) };
        report.set_battery_level(node, level);
        router.recompute_dirty_into(&graph, &modules, report, &[node], scratch, state);
    };
    for frame in 0..8 {
        pulse_frame(frame, &mut report, &mut scratch, &mut state);
    }
    let decreases_before = scratch.stats().decrease_repairs;
    let before = allocations();
    for frame in 8..40 {
        pulse_frame(frame, &mut report, &mut scratch, &mut state);
    }
    assert_eq!(allocations() - before, 0, "decrease-repair frames allocated");
    assert!(
        scratch.stats().decrease_repairs > decreases_before,
        "recharge pulses never engaged the decrease half"
    );
    let reference = router.compute(&graph, &modules, &report, None);
    assert_eq!(state.paths().distances(), reference.paths().distances());
    assert_eq!(state.paths().successors(), reference.paths().successors());

    // Wide-change frames: an eighth of the mesh drains every frame (the
    // K=1024 simulator changes about a tenth of its nodes per
    // recompute), so most sources trip the cost gate inside the
    // affected walk and re-run, and the re-run rows refill in one pass.
    // Every eighth frame raises a deadlock flag and the next clears it:
    // both rebuild the whole table, detour rows included.
    let mut dirty: Vec<NodeId> = Vec::with_capacity(8);
    let mut wide_frame = |frame: usize,
                          report: &mut SystemReport,
                          scratch: &mut RoutingScratch,
                          state: &mut RoutingState| {
        dirty.clear();
        for i in 0..8 {
            let node = NodeId::new((frame * 13 + i * 8 + 1) % k);
            report.set_battery_level(node, report.battery_level(node).saturating_sub(1));
            dirty.push(node);
        }
        match frame % 8 {
            3 => report.set_deadlocked(NodeId::new((frame * 5) % k), true),
            4 => (0..k).for_each(|i| report.set_deadlocked(NodeId::new(i), false)),
            _ => {}
        }
        router.recompute_dirty_into(&graph, &modules, report, &dirty, scratch, state);
    };
    for frame in 0..16 {
        wide_frame(frame, &mut report, &mut scratch, &mut state);
    }
    let stats_before = scratch.stats();
    let before = allocations();
    for frame in 16..48 {
        wide_frame(frame, &mut report, &mut scratch, &mut state);
    }
    assert_eq!(allocations() - before, 0, "wide-change frames allocated");
    let stats = scratch.stats().delta_since(&stats_before);
    assert_eq!(stats.full_recomputes, 0, "wide frames must stay on the repair path: {stats:?}");
    assert!(stats.fallback_sources > 0, "the cost gate never fired: {stats:?}");
    assert!(stats.repaired_sources > 0, "no source was repaired: {stats:?}");
    assert!(
        stats.repair_recomputes - stats.table_delta_rebuilds >= 8,
        "deadlock frames must rebuild the whole table: {stats:?}"
    );
    let reference = router.compute(&graph, &modules, &report, None);
    assert_eq!(state.paths().distances(), reference.paths().distances());
    assert_eq!(state.paths().successors(), reference.paths().successors());

    // Frame-width verdict flips: frames alternate between a quarter of
    // the mesh and one node, from mixed levels. The router samples 16
    // of the 64 sources before it commits, so a wide frame (more than
    // half of the sample re-runs) re-runs at least 48 + 9 = 57 sources,
    // re-solving the 48 others without recording and leaving them
    // stale; a narrow frame re-runs at most 8 + 48 = 56, and one right
    // after a wide frame re-records those 48. The window crosses
    // wide → narrow → wide on warm buffers.
    let mut report = SystemReport::fresh(k, 16);
    for i in 0..k {
        report.set_battery_level(NodeId::new(i), 4 + ((i * 7) % 12) as u32);
    }
    let mut scratch = RoutingScratch::new();
    let mut state = RoutingState::empty();
    router.recompute_dirty_into(&graph, &modules, &report, &[], &mut scratch, &mut state);
    let mut dirty: Vec<NodeId> = Vec::with_capacity(k);
    let mut flip_frame = |frame: usize,
                          report: &mut SystemReport,
                          scratch: &mut RoutingScratch,
                          state: &mut RoutingState| {
        dirty.clear();
        if frame.is_multiple_of(2) {
            dirty.extend((frame / 2 % 4..k).step_by(4).map(NodeId::new));
        } else {
            dirty.push(NodeId::new((frame * 7 + 3) % k));
        }
        for &node in &dirty {
            let level = report.battery_level(node);
            report.set_battery_level(node, if level == 0 { 15 } else { level - 1 });
        }
        let before = scratch.stats();
        router.recompute_dirty_into(&graph, &modules, report, &dirty, scratch, state);
        scratch.stats().delta_since(&before)
    };
    // Frame 0 is cold (start-up left every tree stale); 1..4 warm the
    // verdict's both branches.
    for frame in 0..4 {
        flip_frame(frame, &mut report, &mut scratch, &mut state);
    }
    let mut reruns = [0u64; 8];
    let before = allocations();
    for (frame, slot) in (4..12).zip(reruns.iter_mut()) {
        *slot = flip_frame(frame, &mut report, &mut scratch, &mut state).fallback_sources;
    }
    assert_eq!(allocations() - before, 0, "verdict-flip frames allocated");
    for (i, &count) in reruns.iter().enumerate() {
        if i % 2 == 0 {
            assert!(count >= 57, "quarter-mesh frame {i} was not wide: {reruns:?}");
        } else {
            assert!((48..=56).contains(&count), "one-node frame {i} was not narrow: {reruns:?}");
        }
    }
    let reference = router.compute(&graph, &modules, &report, None);
    assert_eq!(state, reference);
}
