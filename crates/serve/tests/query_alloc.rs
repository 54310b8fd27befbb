//! Proves the zero-allocation claim of the serve path: once the batch,
//! output and snapshot buffers have warmed up, a steady publish + query
//! loop — epoch publication included — performs **no heap allocation**.
//! Same counting-allocator discipline as the routing kernel's
//! `RoutingScratch` (see `crates/routing/tests/zero_alloc.rs`).
//!
//! A counting `#[global_allocator]` wraps the system allocator; this
//! file contains a single test so no concurrent test case can pollute
//! the counter between snapshots.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use etx_graph::{topology::Mesh2D, NodeId};
use etx_routing::{Algorithm, Router, RoutingScratch, RoutingState, SystemReport};
use etx_serve::{
    EpochPublisher, FleetFrontend, Query, QueryBatch, QueryOutput, WorkloadGen, WorkloadSpec,
};
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

/// One live fabric: a router feeding a publisher every frame.
struct Fabric {
    graph: etx_graph::DiGraph,
    modules: Vec<Vec<NodeId>>,
    router: Router,
    scratch: RoutingScratch,
    state: RoutingState,
    report: SystemReport,
    publisher: EpochPublisher,
}

impl Fabric {
    /// One steady-drain frame: recompute in place, publish an epoch.
    fn drain_frame(&mut self, frame: u32) {
        let k = self.graph.node_count();
        let node = NodeId::new((frame as usize * 7 + 3) % k);
        let level = self.report.battery_level(node);
        self.report.set_battery_level(node, level.saturating_sub(1));
        self.router.recompute_dirty_into(
            &self.graph,
            &self.modules,
            &self.report,
            &[node],
            &mut self.scratch,
            &mut self.state,
        );
        self.publisher.publish(&self.state);
    }
}

fn drive(
    frontend: &FleetFrontend,
    generator: &mut WorkloadGen,
    batch: &mut QueryBatch,
    out: &mut QueryOutput,
    fabrics: &mut [Fabric],
    frames: u32,
) {
    for frame in 0..frames {
        for fabric in fabrics.iter_mut() {
            fabric.drain_frame(frame);
        }
        generator.fill(frontend, batch);
        frontend.execute(batch, out);
    }
}

#[test]
fn steady_publish_and_query_loop_does_not_allocate() {
    // Two fabrics fed by live routers, so the loop exercises publish
    // (with double-buffer reclaim) *and* batched queries of all three
    // kinds against freshly pinned snapshots.
    let mut frontend = FleetFrontend::new(1);
    let mut fabrics = Vec::new();
    for side in [6usize, 8] {
        let graph = Mesh2D::square(side, Length::from_centimetres(2.05)).to_graph();
        let k = graph.node_count();
        let modules = module_stripes(k);
        let router = Router::new(Algorithm::Ear);
        let mut scratch = RoutingScratch::new();
        let mut state = RoutingState::empty();
        let report = SystemReport::fresh(k, 16);
        router.recompute_dirty_into(&graph, &modules, &report, &[], &mut scratch, &mut state);
        let (mut publisher, reader) = EpochPublisher::new();
        publisher.publish(&state);
        frontend.register(reader, k, modules.len());
        fabrics.push(Fabric { graph, modules, router, scratch, state, report, publisher });
    }

    let spec = WorkloadSpec { batch: 512, ..WorkloadSpec::default() };
    let mut generator = WorkloadGen::new(spec);
    let mut batch = QueryBatch::new();
    let mut out = QueryOutput::new();

    // Warm-up: grow every buffer (batch, order, results, arena, the
    // publishers' double buffers, the routers' scratch).
    drive(&frontend, &mut generator, &mut batch, &mut out, &mut fabrics, 4);

    let before = allocations();
    drive(&frontend, &mut generator, &mut batch, &mut out, &mut fabrics, 16);
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "steady publish+query loop allocated {allocated} times over 16 frames"
    );

    // The loop actually did the work it claims: every query answered,
    // epochs advanced past the warm-up.
    assert_eq!(out.results().len(), 512);
    assert!(frontend.epoch(0).unwrap() > 16);

    // Single-fabric fast path: every query addresses fabric 0, so
    // `sort_for_execution` skips the key build + sort entirely and the
    // lane-split execute runs all three lanes — the Path lane writing
    // through the arena — on warm buffers without allocating.
    let nodes = frontend.node_count(0).unwrap();
    let modules = frontend.module_count(0).unwrap() as u32;
    let fill_single_fabric = |batch: &mut QueryBatch, salt: usize| {
        batch.clear();
        for i in 0..512usize {
            let source = NodeId::new((i * 13 + salt) % nodes);
            let query = match i % 10 {
                8 => Query::Path { fabric: 0, source, module: (i as u32) % modules },
                9 => Query::Cost { fabric: 0, source, target: NodeId::new((i * 7 + salt) % nodes) },
                _ => Query::NextHop { fabric: 0, source, module: (i as u32) % modules },
            };
            batch.push(query);
        }
    };
    // Warm-up, then the measured loop (the per-type lane buffers and
    // the arena reach their high-water marks for this mix).
    for salt in 0..4 {
        fill_single_fabric(&mut batch, salt);
        frontend.execute(&mut batch, &mut out);
    }
    let before = allocations();
    for salt in 0..8 {
        fill_single_fabric(&mut batch, salt);
        frontend.execute(&mut batch, &mut out);
    }
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "single-fabric lane-split execute allocated {allocated} times over 8 batches"
    );
    assert_eq!(out.results().len(), 512);
    // The fast path really answered paths through the arena.
    assert!(out
        .results()
        .iter()
        .any(|r| matches!(r, etx_serve::QueryResult::Path { nodes: (s, e), .. } if e > s)));
}
