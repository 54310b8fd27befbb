//! Criterion bench for the routing kernels: the `O(K^3)` Floyd–Warshall
//! phase 2, the `O(K·E log K)` Dijkstra backend, the full EAR three-phase
//! recomputation under `PathBackend::Auto`, and the steady-state
//! scratch/delta recompute loop the simulator actually runs — across
//! mesh sizes from the paper's 4x4 up to 32x32 (K = 1024). This backs
//! both the paper's complexity claim ("practical for graphs consisting
//! of tens to a few hundreds of nodes") and the `Auto` crossover table
//! documented on `PathBackend`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use etx::graph::{dijkstra_all_pairs, floyd_warshall, PathBackend};
use etx::prelude::*;
use etx::routing::{RoutingScratch, RoutingState};

fn module_stripes(k: usize) -> Vec<Vec<NodeId>> {
    (0..3).map(|m| (m..k).step_by(3).map(NodeId::new).collect()).collect()
}

/// Floyd–Warshall's `O(K³)` makes it pointless (minutes of bench time)
/// past this size; the Dijkstra backend and the recompute loop keep
/// scaling to 32x32.
const FLOYD_WARSHALL_MAX_NODES: usize = 576;

fn routing_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_scaling");
    group.sample_size(50);
    for side in [4usize, 6, 8, 12, 16, 24, 32] {
        let mesh = Mesh2D::square(side, Length::from_centimetres(2.05));
        let graph = mesh.to_graph();
        let k = graph.node_count();
        let report = SystemReport::fresh(k, 16);
        let modules = module_stripes(k);

        if k <= FLOYD_WARSHALL_MAX_NODES {
            group.bench_with_input(BenchmarkId::new("floyd_warshall", k), &graph, |b, graph| {
                let weights = graph.weight_matrix(|e| e.length.centimetres());
                b.iter(|| floyd_warshall(std::hint::black_box(&weights)));
            });
        }
        // The O(K·E log K) alternative phase-2 backend: on sparse meshes
        // it overtakes the O(K^3) Floyd-Warshall from K ≈ 16-36 on.
        group.bench_with_input(BenchmarkId::new("dijkstra_all_pairs", k), &graph, |b, graph| {
            let weights = graph.weight_matrix(|e| e.length.centimetres());
            b.iter(|| dijkstra_all_pairs(std::hint::black_box(&weights)));
        });
        // Full three-phase EAR recompute, fresh allocations, backend
        // picked by Auto — the seed's benchmark, now backend-aware.
        group.bench_with_input(BenchmarkId::new("ear_full_recompute", k), &graph, |b, graph| {
            let router = Router::new(Algorithm::Ear);
            b.iter(|| {
                router.compute(
                    std::hint::black_box(graph),
                    std::hint::black_box(&modules),
                    std::hint::black_box(&report),
                    None,
                )
            });
        });
        // Pinned Floyd-Warshall full recompute for an apples-to-apples
        // "what the seed paid" series at every size benched.
        if k <= FLOYD_WARSHALL_MAX_NODES {
            group.bench_with_input(
                BenchmarkId::new("ear_full_recompute_fw", k),
                &graph,
                |b, graph| {
                    let router =
                        Router::new(Algorithm::Ear).with_backend(PathBackend::FloydWarshall);
                    b.iter(|| {
                        router.compute(
                            std::hint::black_box(graph),
                            std::hint::black_box(&modules),
                            std::hint::black_box(&report),
                            None,
                        )
                    });
                },
            );
        }
        // The path the simulator runs every changed TDMA frame: in-place,
        // delta-aware, zero steady-state allocation. One battery bucket
        // drains per iteration (cycling over nodes), exactly like a
        // long-running simulation's report stream, and the iteration
        // diffs the old and new report into the frame's dirty list.
        group.bench_with_input(BenchmarkId::new("ear_delta_recompute", k), &graph, |b, graph| {
            let router = Router::new(Algorithm::Ear);
            let mut scratch = RoutingScratch::new();
            let mut state = RoutingState::empty();
            let mut current = SystemReport::fresh(k, 16);
            let mut old = SystemReport::fresh(0, 1);
            let mut dirty = Vec::with_capacity(k);
            router.recompute_dirty_into(graph, &modules, &current, &[], &mut scratch, &mut state);
            let mut frame = 0usize;
            b.iter(|| {
                old.clone_from(&current);
                let node = NodeId::new((frame * 7 + 3) % k);
                let level = current.battery_level(node);
                current.set_battery_level(node, if level == 0 { 15 } else { level - 1 });
                frame += 1;
                dirty.clear();
                dirty.extend((0..k).map(NodeId::new).filter(|&n| {
                    current.battery_level(n) != old.battery_level(n)
                        || current.is_alive(n) != old.is_alive(n)
                }));
                router.recompute_dirty_into(
                    std::hint::black_box(graph),
                    &modules,
                    &current,
                    &dirty,
                    &mut scratch,
                    &mut state,
                );
            });
        });
    }
    group.finish();
}

criterion_group!(benches, routing_scaling);
criterion_main!(benches);
