//! Pluggable phase-2 all-pairs backend selection.

use crate::{
    dijkstra_all_pairs_into, floyd_warshall_into, AdjacencyList, DijkstraScratch, ShortestPaths,
};

/// Which all-pairs shortest-path algorithm phase 2 runs.
///
/// The paper's Fig 5 is Floyd–Warshall, `O(K³)` — "practical for graphs
/// consisting of tens to a few hundreds of nodes". The Dijkstra backend
/// is `O(K·E log K)`, which on sparse fabrics (meshes have `E ≈ 4K`) is
/// `O(K² log K)` and overtakes Floyd–Warshall well before the fabric
/// sizes that conductive-textile bus networks target.
///
/// # The `Auto` crossover heuristic
///
/// `Auto` picks by node count and edge density, using crossovers measured
/// on square meshes with this workspace's release profile on a
/// single-core container (best-of-run phase-2 times via
/// `crates/bench/benches/routing_scaling.rs`; absolute numbers vary by
/// machine, the *ratios* are what the heuristic encodes):
///
/// | K (mesh)    | Floyd–Warshall | Dijkstra all-pairs | ratio |
/// |-------------|----------------|--------------------|-------|
/// | 16 (4×4)    | 4.0 µs         | 2.9 µs             | 1.4×  |
/// | 36 (6×6)    | 40 µs          | 17 µs              | 2.4×  |
/// | 64 (8×8)    | 213 µs         | 57 µs              | 3.7×  |
/// | 256 (16×16) | 10.4 ms        | 1.6 ms             | 6.3×  |
/// | 576 (24×24) | 124 ms         | 8.6 ms             | 14×   |
/// | 1024 (32×32)| 695 ms         | 26 ms              | 27×   |
///
/// (For the full three-phase EAR recompute the same machine measures
/// 5.8× at K = 256 and 17× at K = 1024; with multiple cores the Dijkstra
/// backend additionally fans sources out over threads.)
///
/// The backend choice also gates the *between-frame* fast path: the
/// routing crate's incremental shortest-path-tree repair (its
/// `RecomputeStrategy::Auto`) engages only when the resolved backend is
/// `DijkstraAllPairs`, because kept rows must reproduce the
/// deterministic Dijkstra successor tie-breaking bit-for-bit. Under
/// Floyd–Warshall every frame is a full recompute — which is the right
/// trade at the small sizes where `Auto` picks it.
///
/// Dijkstra's advantage requires sparsity: at average out-degree `d`, its
/// cost grows like `K²·d·log K` against Floyd–Warshall's `K³`, so the
/// heuristic demands `E·log₂K < K²`, plus a small-K floor:
///
/// * `K < 48` → Floyd–Warshall. Below the floor the absolute gap is a
///   few tens of microseconds, and Floyd–Warshall is the paper's Fig 5
///   algorithm with its exact successor tie-breaking — `Auto` keeps the
///   reproduction bit-faithful across the paper's own evaluation range
///   (4×4 … 6×6) where the backends' successor choices could differ.
/// * `K ≥ 48` and `E·log₂K < K²` → Dijkstra — sparse enough to pay off.
/// * otherwise → Floyd–Warshall — dense graphs keep the `O(K³)` loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PathBackend {
    /// Always run the paper's Floyd–Warshall (Fig 5), `O(K³)`.
    FloydWarshall,
    /// Always run all-sources binary-heap Dijkstra, `O(K·E log K)`.
    DijkstraAllPairs,
    /// Pick per graph: Floyd–Warshall for small or dense graphs,
    /// Dijkstra for large sparse ones (see the crossover table above).
    #[default]
    Auto,
}

/// Node-count floor below which `Auto` always picks Floyd–Warshall.
const AUTO_MIN_DIJKSTRA_NODES: usize = 48;

/// The concrete algorithm [`PathBackend::resolve`] settled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolvedBackend {
    /// Phase 2 will run Floyd–Warshall.
    FloydWarshall,
    /// Phase 2 will run all-sources Dijkstra.
    DijkstraAllPairs,
}

impl PathBackend {
    /// Resolves `Auto` against a graph's node and (directed) edge count.
    #[must_use]
    pub fn resolve(self, node_count: usize, edge_count: usize) -> ResolvedBackend {
        match self {
            PathBackend::FloydWarshall => ResolvedBackend::FloydWarshall,
            PathBackend::DijkstraAllPairs => ResolvedBackend::DijkstraAllPairs,
            PathBackend::Auto => {
                let k = node_count;
                let log_k = usize::BITS - k.max(2).leading_zeros(); // ≈ ⌈log₂ k⌉
                let sparse_enough =
                    (edge_count as u128) * u128::from(log_k) < (k as u128) * (k as u128);
                if k >= AUTO_MIN_DIJKSTRA_NODES && sparse_enough {
                    ResolvedBackend::DijkstraAllPairs
                } else {
                    ResolvedBackend::FloydWarshall
                }
            }
        }
    }
}

impl ResolvedBackend {
    /// Runs this backend over the sparse `adjacency` into `out`, reusing
    /// `scratch` (used by the Dijkstra arm only). Floyd–Warshall seeds
    /// its distances and successors from the list's edges, so neither
    /// arm needs a `K × K` weight matrix.
    ///
    /// `parallel` lets the Dijkstra arm fan sources out over scoped
    /// threads; pass `false` on paths that must not allocate.
    ///
    /// # Panics
    ///
    /// Panics if `adjacency` covers more than
    /// [`IndexPlane::MAX_NODES`](crate::IndexPlane::MAX_NODES) nodes.
    pub fn compute_into(
        self,
        adjacency: &AdjacencyList,
        scratch: &mut DijkstraScratch,
        out: &mut ShortestPaths,
        parallel: bool,
    ) {
        match self {
            ResolvedBackend::FloydWarshall => floyd_warshall_into(adjacency, out),
            ResolvedBackend::DijkstraAllPairs => {
                dijkstra_all_pairs_into(adjacency, scratch, out, parallel);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_backends_resolve_to_themselves() {
        assert_eq!(PathBackend::FloydWarshall.resolve(10_000, 1), ResolvedBackend::FloydWarshall);
        assert_eq!(PathBackend::DijkstraAllPairs.resolve(2, 1), ResolvedBackend::DijkstraAllPairs);
    }

    #[test]
    fn auto_keeps_floyd_warshall_for_small_graphs() {
        // The paper's whole evaluation range (4x4 .. 8x8 meshes).
        for side in 2..=6 {
            let k = side * side;
            let e = 4 * side * (side - 1); // bidirectional mesh edges
            assert_eq!(
                PathBackend::Auto.resolve(k, e),
                ResolvedBackend::FloydWarshall,
                "side {side}"
            );
        }
    }

    #[test]
    fn auto_switches_to_dijkstra_for_large_sparse_graphs() {
        for side in [8usize, 16, 32] {
            let k = side * side;
            let e = 4 * side * (side - 1);
            assert_eq!(
                PathBackend::Auto.resolve(k, e),
                ResolvedBackend::DijkstraAllPairs,
                "side {side}"
            );
        }
    }

    #[test]
    fn auto_keeps_floyd_warshall_for_dense_graphs() {
        // A complete digraph on 256 nodes: E = K(K-1), E·log K >> K².
        let k = 256;
        assert_eq!(PathBackend::Auto.resolve(k, k * (k - 1)), ResolvedBackend::FloydWarshall);
    }
}
