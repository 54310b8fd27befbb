//! Bounds the heap a warm K=1024 fabric holds: the router keeps no
//! dense phase-1 matrix, and its `K × K` node-index planes (successors,
//! repair-tree links) are `u16` lanes. A 32×32 EAR mesh then holds the
//! distances (8 MiB), the successors (2 MiB) and the four tree-link
//! planes (8 MiB), plus `O(K + E)` lists.
//!
//! A tracking `#[global_allocator]` wraps the system allocator and keeps
//! the live byte count and its high-water mark; this file contains a
//! single test so no concurrent test case can move either between
//! snapshots.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use etx_graph::{topology::Mesh2D, NodeId};
use etx_routing::{Algorithm, Router, RoutingScratch, RoutingState, SystemReport};
use etx_units::Length;

struct TrackingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: delegates every operation to the system allocator unchanged;
// the counters are relaxed atomics with no further side effects.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }
}

#[global_allocator]
static GLOBAL: TrackingAllocator = TrackingAllocator;

const MIB: usize = 1 << 20;

#[test]
fn warm_k1024_fabric_peaks_under_20_mib() {
    // The high-water mark of this test alone: reset it to what is live
    // now (the harness's own allocations).
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);

    let graph = Mesh2D::square(32, Length::from_centimetres(2.05)).to_graph();
    let k = graph.node_count();
    let modules: Vec<Vec<NodeId>> =
        (0..3).map(|m| (m..k).step_by(3).map(NodeId::new).collect()).collect();
    let router = Router::new(Algorithm::Ear);
    let mut report = SystemReport::fresh(k, 16);
    let mut scratch = RoutingScratch::new();
    let mut state = RoutingState::empty();

    // The engine's start-up call: a full recompute.
    router.recompute_dirty_into(&graph, &modules, &report, &[], &mut scratch, &mut state);
    // Steady-drain repair frames: the first records every source's tree,
    // the rest repair against them, so the trees end warm.
    for frame in 0..16 {
        let node = NodeId::new((frame * 67 + 5) % k);
        report.set_battery_level(node, report.battery_level(node).saturating_sub(1));
        router.recompute_dirty_into(&graph, &modules, &report, &[node], &mut scratch, &mut state);
    }
    let stats = scratch.stats();
    assert_eq!((stats.full_recomputes, stats.repair_recomputes), (1, 16), "{stats:?}");
    assert!(stats.repaired_sources > 0, "the trees never warmed: {stats:?}");

    let peak = PEAK.load(Ordering::Relaxed) - base;
    #[allow(clippy::cast_precision_loss)]
    let peak_mib = peak as f64 / MIB as f64;
    eprintln!(
        "K={k} EAR fabric, full recompute + 16 repair frames: peak live heap {peak_mib:.2} MiB"
    );
    assert!(peak <= 20 * MIB, "peak live heap {peak_mib:.2} MiB exceeds 20 MiB");
}
