//! Floyd–Warshall all-pairs shortest paths with successor matrices.
//!
//! This is phase 2 of both SDR and EAR (Fig 5 in the paper): given a weight
//! matrix `W`, compute the distance matrix `D` and the successor matrix `S`
//! where `S[i][j]` is the next hop out of `i` on a shortest `i -> j` path.

use core::fmt;

use crate::{IndexPlane, Matrix, NodeId};

/// The weight used for "no edge" entries; any path through it loses.
pub const INFINITE_DISTANCE: f64 = f64::INFINITY;

/// Result of [`floyd_warshall`]: distances plus successors for path
/// reconstruction.
///
/// The distances are a dense `f64` [`Matrix`]; the successors are one
/// row-major [`IndexPlane`] of `u16` lanes (`from * n + to`), with
/// [`IndexPlane::SENTINEL`] where no successor exists — the encoding the
/// serve tier's snapshots publish by copying the lanes. At `K = 1024`
/// that is 8 MB of distances and 2 MB of successors. A result covers at
/// most [`IndexPlane::MAX_NODES`] nodes.
///
/// # Examples
///
/// ```
/// use etx_graph::{DiGraph, NodeId, floyd_warshall};
/// use etx_units::Length;
///
/// let mut g = DiGraph::new(3);
/// let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
/// g.add_edge(a, b, Length::from_centimetres(1.0))?;
/// g.add_edge(b, c, Length::from_centimetres(1.0))?;
/// g.add_edge(a, c, Length::from_centimetres(5.0))?;
///
/// let paths = floyd_warshall(&g.weight_matrix(|e| e.length.centimetres()));
/// assert_eq!(paths.distance(a, c), Some(2.0)); // via b, not the direct 5.0 edge
/// assert_eq!(paths.successor(a, c), Some(b));
/// assert_eq!(paths.path(a, c).unwrap(), vec![a, b, c]);
/// # Ok::<(), etx_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPaths {
    dist: Matrix<f64>,
    /// Row-major successor lanes, [`IndexPlane::SENTINEL`] = none.
    succ: IndexPlane,
}

/// Errors raised during path reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathError {
    /// No path exists between the endpoints.
    Unreachable {
        /// Path source.
        from: NodeId,
        /// Path target.
        to: NodeId,
    },
    /// Successor chain did not terminate (only possible with negative
    /// cycles or a corrupted successor matrix).
    CycleDetected {
        /// Path source.
        from: NodeId,
        /// Path target.
        to: NodeId,
    },
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::Unreachable { from, to } => {
                write!(f, "no path from {from} to {to}")
            }
            PathError::CycleDetected { from, to } => {
                write!(f, "successor cycle while walking from {from} to {to}")
            }
        }
    }
}

impl std::error::Error for PathError {}

impl ShortestPaths {
    /// Number of nodes covered by this result.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.dist.rows()
    }

    /// Shortest distance `from -> to`; `None` if unreachable.
    #[must_use]
    pub fn distance(&self, from: NodeId, to: NodeId) -> Option<f64> {
        let d = self.dist[(from, to)];
        d.is_finite().then_some(d)
    }

    /// The next hop out of `from` on a shortest path to `to`.
    ///
    /// `None` when `from == to` or `to` is unreachable.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    #[must_use]
    pub fn successor(&self, from: NodeId, to: NodeId) -> Option<NodeId> {
        let n = self.node_count();
        let (i, j) = (from.index(), to.index());
        assert!(i < n && j < n, "successor ({i},{j}) out of bounds");
        if i == j {
            return None;
        }
        self.succ.get(i * n + j).map(NodeId::new)
    }

    /// `true` if a path `from -> to` exists (trivially true for `from == to`).
    #[must_use]
    pub fn is_reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.dist[(from, to)].is_finite()
    }

    /// Reconstructs the full node sequence of a shortest path.
    ///
    /// The result includes both endpoints; `path(a, a)` is `[a]`.
    ///
    /// # Errors
    ///
    /// [`PathError::Unreachable`] when no path exists, and
    /// [`PathError::CycleDetected`] if the successor chain exceeds the node
    /// count (defensive guard; cannot happen with non-negative weights).
    pub fn path(&self, from: NodeId, to: NodeId) -> Result<Vec<NodeId>, PathError> {
        if !self.is_reachable(from, to) {
            return Err(PathError::Unreachable { from, to });
        }
        let mut nodes = vec![from];
        let mut cur = from;
        while cur != to {
            cur = self.successor(cur, to).ok_or(PathError::Unreachable { from, to })?;
            nodes.push(cur);
            if nodes.len() > self.node_count() {
                return Err(PathError::CycleDetected { from, to });
            }
        }
        Ok(nodes)
    }

    /// Number of hops (edges) on the shortest path, if reachable.
    ///
    /// Walks the successor matrix directly without materializing the path
    /// vector, so it performs no allocation. Returns `None` when `to` is
    /// unreachable or the successor chain is corrupt (the conditions
    /// [`ShortestPaths::path`] reports as errors).
    #[must_use]
    pub fn hop_count(&self, from: NodeId, to: NodeId) -> Option<usize> {
        if !self.is_reachable(from, to) {
            return None;
        }
        let mut hops = 0usize;
        let mut cur = from;
        while cur != to {
            cur = self.successor(cur, to)?;
            hops += 1;
            if hops >= self.node_count() {
                return None; // defensive: cycle in a corrupt matrix
            }
        }
        Some(hops)
    }

    /// Read-only view of the distance matrix.
    #[must_use]
    pub fn distances(&self) -> &Matrix<f64> {
        &self.dist
    }

    /// Read-only view of the successor plane: `u16` lanes, row-major
    /// (`from * n + to`), [`IndexPlane::SENTINEL`] where no successor
    /// exists (the diagonal and unreachable pairs).
    #[must_use]
    pub fn successors(&self) -> &IndexPlane {
        &self.succ
    }

    /// An empty (0-node) result, for preallocated workspaces that are
    /// filled by the `*_into` backends before first use.
    #[must_use]
    pub fn empty() -> Self {
        ShortestPaths { dist: Matrix::filled(0, 0, 0.0), succ: IndexPlane::new() }
    }

    /// Overwrites this result with `other`'s distances and successors,
    /// reusing both allocations when they are large enough (no heap
    /// allocation once the node count has been seen).
    pub fn copy_from(&mut self, other: &ShortestPaths) {
        self.dist.copy_from(&other.dist);
        self.succ.copy_from(&other.succ);
    }

    /// Resizes to `n` nodes and resets every pair to "unreachable"
    /// (`dist = ∞`, diagonal `0`, successors none), reusing the existing
    /// allocations whenever they are large enough.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`IndexPlane::MAX_NODES`], before
    /// allocating.
    pub fn reset(&mut self, n: usize) {
        IndexPlane::assert_fits(n);
        self.dist.reset(n, n, INFINITE_DISTANCE);
        self.succ.reset(n * n);
        for i in 0..n {
            self.dist[(i, i)] = 0.0;
        }
    }

    /// Ensures the matrices are `n x n` without touching existing
    /// entries when the dimensions already match — for callers about to
    /// overwrite every row anyway ([`dijkstra_all_pairs_into`]), skipping
    /// the fill a full [`ShortestPaths::reset`] would pay.
    fn ensure_dims(&mut self, n: usize) {
        if self.dist.rows() != n || self.dist.cols() != n {
            self.reset(n);
        }
    }

    /// Borrows the distance and successor rows of one source.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    #[must_use]
    pub fn source_rows(&self, source: NodeId) -> (&[f64], &[u16]) {
        let (n, s) = (self.node_count(), source.index());
        (self.dist.row_slice(s), &self.succ.lanes()[s * n..(s + 1) * n])
    }

    /// Mutably borrows the distance and successor rows of one source —
    /// the write target of a single-source recompute
    /// ([`dijkstra_source_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn source_rows_mut(&mut self, source: NodeId) -> (&mut [f64], &mut [u16]) {
        let (n, s) = (self.node_count(), source.index());
        (self.dist.row_slice_mut(s), &mut self.succ.lanes_mut()[s * n..(s + 1) * n])
    }
}

/// Runs the Floyd–Warshall variant of the paper (Fig 5) on a weight matrix.
///
/// `weights[(i, j)]` must be `0` on the diagonal, the edge cost for
/// existing edges and [`INFINITE_DISTANCE`] otherwise — exactly what
/// [`DiGraph::weight_matrix`](crate::DiGraph::weight_matrix) produces.
/// Costs must be non-negative (battery-scaled lengths always are).
///
/// Complexity is `O(n^3)` time, `O(n^2)` space, matching the paper's
/// analysis ("practical for graphs consisting of tens to a few hundreds of
/// nodes").
///
/// Tie-breaking follows Fig 5 exactly: an intermediate node `n` replaces
/// the current successor only on a *strict* improvement, so earlier
/// intermediates win ties deterministically.
///
/// # Panics
///
/// Panics if `weights` is not square, contains negative or NaN entries,
/// or covers more than [`IndexPlane::MAX_NODES`] nodes.
#[must_use]
pub fn floyd_warshall(weights: &Matrix<f64>) -> ShortestPaths {
    validate_weights(weights);
    let n = weights.rows();
    let mut out = ShortestPaths::empty();
    out.reset(n);
    out.dist.copy_from(weights);
    // S^(0): the successor of i toward a directly-connected j is j itself.
    let succ = out.succ.lanes_mut();
    for i in 0..n {
        for j in 0..n {
            if i != j && out.dist[(i, j)].is_finite() {
                succ[i * n + j] = j as u16;
            }
        }
    }
    relax_floyd_warshall(&mut out);
    out
}

fn validate_weights(weights: &Matrix<f64>) {
    assert_eq!(weights.rows(), weights.cols(), "weight matrix must be square");
    for (r, c, w) in weights.entries() {
        assert!(!w.is_nan(), "weight ({r},{c}) is NaN");
        assert!(*w >= 0.0, "weight ({r},{c}) is negative: {w}");
    }
}

/// [`floyd_warshall`] over a sparse adjacency list, into a preallocated
/// result: `dist`/`succ` are seeded from the list's edges (`0` on the
/// diagonal, `∞` and no successor elsewhere), so no `K × K` weight copy
/// exists. Equal to [`floyd_warshall`] over the matrix the list was
/// built from. No heap allocation once `out` has seen the node count.
///
/// # Panics
///
/// Panics if `adjacency` covers more than [`IndexPlane::MAX_NODES`]
/// nodes.
pub fn floyd_warshall_into(adjacency: &AdjacencyList, out: &mut ShortestPaths) {
    let n = adjacency.len();
    out.reset(n);
    let succ = out.succ.lanes_mut();
    for u in 0..n {
        for &(v, w) in adjacency.neighbors(u) {
            out.dist[(u, v)] = w;
            succ[u * n + v] = v as u16;
        }
    }
    relax_floyd_warshall(out);
}

/// The Fig 5 triple loop over seeded `dist`/`succ`.
fn relax_floyd_warshall(out: &mut ShortestPaths) {
    let n = out.node_count();
    let (dist, succ) = (&mut out.dist, out.succ.lanes_mut());
    for k in 0..n {
        for i in 0..n {
            let d_ik = dist[(i, k)];
            if !d_ik.is_finite() {
                continue;
            }
            for j in 0..n {
                let via = d_ik + dist[(k, j)];
                if via < dist[(i, j)] {
                    dist[(i, j)] = via;
                    succ[i * n + j] = succ[i * n + k];
                }
            }
        }
    }
}

/// Sparse out-neighbour lists of a weighted digraph, kept sorted by
/// neighbour id so that incremental updates preserve the exact
/// iteration order a full rebuild would produce (Dijkstra's successor
/// tie-breaking depends on it).
///
/// This is the routing pipeline's only phase-1 store: the router fills
/// it straight from the graph and the report
/// ([`AdjacencyList::clear_to`] plus [`AdjacencyList::push_edge`]),
/// reads a frame's old weights from it ([`AdjacencyList::weight`]) and
/// applies the frame's edge deltas with [`AdjacencyList::set_edge`]. A
/// mesh row holds about four entries where a dense weight row holds `K`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdjacencyList {
    lists: Vec<Vec<(usize, f64)>>,
    edge_count: usize,
}

impl AdjacencyList {
    /// An empty adjacency list; call [`AdjacencyList::rebuild`] before use.
    #[must_use]
    pub fn new() -> Self {
        AdjacencyList::default()
    }

    /// Number of nodes covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// `true` when covering zero nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// The out-neighbours of `u` as `(neighbour, weight)`, ascending by
    /// neighbour id.
    #[must_use]
    pub fn neighbors(&self, u: usize) -> &[(usize, f64)] {
        &self.lists[u]
    }

    /// Total number of (finite, off-diagonal) edges currently held —
    /// an upper bound on a Dijkstra run's live heap entries, used to
    /// pre-size the heap so steady-state runs never reallocate it.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Re-extracts every list from `weights`, reusing per-node capacity.
    pub fn rebuild(&mut self, weights: &Matrix<f64>) {
        let n = weights.rows();
        self.lists.resize_with(n, Vec::new);
        self.edge_count = 0;
        for (r, list) in self.lists.iter_mut().enumerate() {
            list.clear();
            for (c, w) in weights.row_slice(r).iter().enumerate() {
                if r != c && w.is_finite() {
                    list.push((c, *w));
                }
            }
            self.edge_count += list.len();
        }
    }

    /// Rebuilds every list as the *transpose* of `out_lists`, so
    /// `neighbors(v)` yields the **in**-neighbours `(u, w(u, v))` of `v`,
    /// ascending by `u`, reusing per-node capacity. The incremental path
    /// repair uses this to find a node's shortest-path achievers in
    /// `O(indeg)` instead of an `O(K)` column scan.
    pub fn rebuild_transpose(&mut self, out_lists: &AdjacencyList) {
        self.clear_to(out_lists.len());
        for (u, list) in out_lists.lists.iter().enumerate() {
            for &(v, w) in list {
                self.lists[v].push((u, w));
            }
        }
        self.edge_count = out_lists.edge_count;
    }

    /// Empties every list and resizes to `n` nodes, reusing per-node
    /// capacity — the first step of a sparse rebuild through
    /// [`AdjacencyList::push_edge`].
    pub fn clear_to(&mut self, n: usize) {
        self.lists.resize_with(n, Vec::new);
        for list in &mut self.lists {
            list.clear();
        }
        self.edge_count = 0;
    }

    /// Appends the edge `u -> v` of a sparse rebuild: pushes for one
    /// node must come in ascending `v`, which keeps the list in the
    /// order [`AdjacencyList::rebuild`] gives a dense matrix. An infinite
    /// weight (an unusable link) adds nothing.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is NaN or negative (the checks
    /// [`floyd_warshall`] runs over a whole matrix, made per edge), if
    /// `v` is not above `u`'s last neighbour, or if `u == v`.
    pub fn push_edge(&mut self, u: usize, v: usize, weight: f64) {
        assert!(!weight.is_nan(), "weight ({u},{v}) is NaN");
        assert!(weight >= 0.0, "weight ({u},{v}) is negative: {weight}");
        if weight.is_finite() {
            let list = &mut self.lists[u];
            assert!(
                u != v && list.last().is_none_or(|&(last, _)| last < v),
                "edge ({u},{v}) pushed out of order"
            );
            list.push((v, weight));
            self.edge_count += 1;
        }
    }

    /// The weight of the list entry `u -> v`, [`INFINITE_DISTANCE`] when
    /// absent — `O(log deg u)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn weight(&self, u: usize, v: usize) -> f64 {
        let list = &self.lists[u];
        list.binary_search_by_key(&v, |&(c, _)| c).map_or(INFINITE_DISTANCE, |pos| list[pos].1)
    }

    /// Sets the weight of the list entry `u -> v`: inserted at its
    /// sorted position, updated in place, or removed when `weight` is
    /// infinite — `O(deg u)`. On an out-list this is the edge `u -> v`;
    /// on one built by [`AdjacencyList::rebuild_transpose`] pass the
    /// reversed pair
    /// (`v`'s in-list gains `u`). Setting every edge whose weight changed
    /// equals a full rebuild from the new weights, which is how the
    /// routing pipeline applies a frame's edge-delta stream.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn set_edge(&mut self, u: usize, v: usize, weight: f64) {
        let list = &mut self.lists[u];
        match list.binary_search_by_key(&v, |&(c, _)| c) {
            Ok(pos) if weight.is_finite() => list[pos].1 = weight,
            Ok(pos) => {
                list.remove(pos);
                self.edge_count -= 1;
            }
            Err(pos) if weight.is_finite() => {
                list.insert(pos, (v, weight));
                self.edge_count += 1;
            }
            Err(_) => {}
        }
    }
}

/// Min-heap entry: `(distance, node)` packed into one `u128`, so every
/// heap comparison is a single integer compare.
///
/// Non-negative, non-NaN `f64`s (validated up front) compare identically
/// to their raw bit patterns, so the packed order is exactly "distance
/// ascending, then node id ascending" — the deterministic tie-break the
/// delta recompute depends on. Keys are unique (a node is only re-pushed
/// on a strict distance improvement), so pop order is a total order and
/// independent of the heap implementation.
#[inline]
pub(crate) fn pack_entry(distance: f64, node: usize) -> u128 {
    (u128::from(distance.to_bits()) << 64) | node as u128
}

#[inline]
pub(crate) fn unpack_entry(key: u128) -> (f64, usize) {
    (f64::from_bits((key >> 64) as u64), (key & u128::from(u64::MAX)) as usize)
}

/// Reusable per-thread working memory for single-source Dijkstra runs.
///
/// All buffers retain their capacity across calls, so a steady-state
/// recompute loop performs no heap allocation (the property the simulator
/// relies on; see `etx-routing`'s `RoutingScratch`).
///
/// The queue is `std`'s binary heap over `Reverse`-packed keys: a
/// hand-rolled 4-ary heap was tried and measured ~35% *slower* here —
/// `BinaryHeap`'s hole-based sift is hard to beat once comparisons are
/// single integers.
#[derive(Default)]
pub struct DijkstraScratch {
    pub(crate) heap: std::collections::BinaryHeap<core::cmp::Reverse<u128>>,
}

impl core::fmt::Debug for DijkstraScratch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DijkstraScratch").field("capacity", &self.heap.capacity()).finish()
    }
}

impl DijkstraScratch {
    /// A scratch with no capacity; grows on first use.
    #[must_use]
    pub fn new() -> Self {
        DijkstraScratch::default()
    }
}

/// Recomputes the all-pairs rows of `source` by binary-heap Dijkstra,
/// writing distances into `dist_row` and first hops into `succ_row`
/// (both of length `adjacency.len()`; `u16` lanes with
/// [`IndexPlane::SENTINEL`] where no first hop exists).
///
/// Successor tie-breaking is deterministic: the heap pops by
/// `(distance, node id)` and predecessors update only on strict
/// improvement, so re-running a source over an unchanged reachable
/// subgraph reproduces its rows bit-for-bit — the property the
/// delta-aware recompute in `etx-routing` relies on.
///
/// # Panics
///
/// Panics if `source` or the row lengths do not match `adjacency`.
pub fn dijkstra_source_into(
    adjacency: &AdjacencyList,
    source: NodeId,
    scratch: &mut DijkstraScratch,
    dist_row: &mut [f64],
    succ_row: &mut [u16],
) {
    let n = adjacency.len();
    assert!(source.index() < n, "source {source} out of range");
    assert_eq!(dist_row.len(), n, "distance row length mismatch");
    assert_eq!(succ_row.len(), n, "successor row length mismatch");
    let source = source.index();

    scratch.heap.clear();
    // At most one live heap entry per relaxed edge plus the source:
    // pre-sizing here means later runs never grow the heap mid-flight.
    let heap_bound = adjacency.edge_count() + 1;
    if scratch.heap.capacity() < heap_bound {
        scratch.heap.reserve(heap_bound);
    }

    // The output rows double as the tentative-distance / first-hop
    // arrays: a node's first hop is final when it settles (its
    // predecessor settled earlier), so no pred chain or second pass is
    // needed.
    dist_row.fill(INFINITE_DISTANCE);
    succ_row.fill(IndexPlane::SENTINEL);
    dist_row[source] = 0.0;
    scratch.heap.push(core::cmp::Reverse(pack_entry(0.0, source)));
    while let Some(core::cmp::Reverse(entry)) = scratch.heap.pop() {
        let (du, u) = unpack_entry(entry);
        if du > dist_row[u] {
            continue; // stale entry
        }
        let off_source = u == source;
        let via_u = succ_row[u];
        for &(v, w) in adjacency.neighbors(u) {
            let nd = du + w;
            if nd < dist_row[v] {
                dist_row[v] = nd;
                // First hop toward v: v itself off the source, else the
                // settled first hop of u.
                succ_row[v] = if off_source { v as u16 } else { via_u };
                scratch.heap.push(core::cmp::Reverse(pack_entry(nd, v)));
            }
        }
    }
}

/// Below this node count the scoped-thread fan-out of
/// [`dijkstra_all_pairs_into`] costs more than it saves.
const PARALLEL_MIN_NODES: usize = 128;

/// Minimum sources per worker thread for the parallel fan-out.
const PARALLEL_MIN_ROWS_PER_THREAD: usize = 32;

/// [`dijkstra_all_pairs`] over a sparse adjacency list, into
/// preallocated storage.
///
/// `out` is resized and every row recomputed. With `parallel` set,
/// sources are fanned out over scoped threads in contiguous row blocks
/// (each worker allocates its own [`DijkstraScratch`]), producing
/// bit-identical results to the serial path since every row is an
/// independent deterministic computation. The serial path
/// (`parallel = false`) reuses `scratch` and performs no steady-state
/// allocation.
///
/// # Panics
///
/// Panics if `adjacency` covers more than [`IndexPlane::MAX_NODES`]
/// nodes.
pub fn dijkstra_all_pairs_into(
    adjacency: &AdjacencyList,
    scratch: &mut DijkstraScratch,
    out: &mut ShortestPaths,
    parallel: bool,
) {
    let n = adjacency.len();
    // Every row is fully rewritten below, so only the dimensions need
    // fixing up front.
    out.ensure_dims(n);

    let threads = if parallel && n >= PARALLEL_MIN_NODES {
        etx_par::chunk_count(n, PARALLEL_MIN_ROWS_PER_THREAD)
    } else {
        1
    };
    if threads <= 1 {
        for source in 0..n {
            let (dist_row, succ_row) = out.source_rows_mut(NodeId::new(source));
            dijkstra_source_into(adjacency, NodeId::new(source), scratch, dist_row, succ_row);
        }
        return;
    }

    let rows_per_chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (chunk_idx, (dist_chunk, succ_chunk)) in out
            .dist
            .row_chunks_mut(rows_per_chunk)
            .zip(out.succ.lanes_mut().chunks_mut(rows_per_chunk * n))
            .enumerate()
        {
            let first_source = chunk_idx * rows_per_chunk;
            scope.spawn(move || {
                let mut local = DijkstraScratch::new();
                for (offset, (dist_row, succ_row)) in
                    dist_chunk.chunks_mut(n).zip(succ_chunk.chunks_mut(n)).enumerate()
                {
                    dijkstra_source_into(
                        adjacency,
                        NodeId::new(first_source + offset),
                        &mut local,
                        dist_row,
                        succ_row,
                    );
                }
            });
        }
    });
}

/// Computes the same all-pairs result as [`floyd_warshall`] by running a
/// binary-heap Dijkstra from every source.
///
/// Complexity is `O(K · E log K)` — on sparse fabrics (meshes have
/// `E ≈ 4K`) that is `O(K² log K)`, asymptotically better than
/// Floyd–Warshall's `O(K³)`. The paper sizes its controller for "tens to
/// a few hundreds of nodes" with the `O(K³)` algorithm; this backend
/// shows how much headroom a smarter phase 2 would buy (see the
/// `routing_scaling` bench). Results are identical (verified by property
/// tests), including unreachability; tie-breaking may differ, so compare
/// distances, not successors.
///
/// # Panics
///
/// Panics if `weights` is not square, contains negative or NaN entries,
/// or covers more than [`IndexPlane::MAX_NODES`] nodes.
#[must_use]
pub fn dijkstra_all_pairs(weights: &Matrix<f64>) -> ShortestPaths {
    validate_weights(weights);
    let mut adjacency = AdjacencyList::new();
    adjacency.rebuild(weights);
    let mut scratch = DijkstraScratch::new();
    let mut out = ShortestPaths::empty();
    dijkstra_all_pairs_into(&adjacency, &mut scratch, &mut out, true);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiGraph;
    use etx_units::Length;
    use proptest::prelude::*;

    fn cm(v: f64) -> Length {
        Length::from_centimetres(v)
    }

    fn line_graph(n: usize) -> DiGraph {
        let mut g = DiGraph::new(n);
        for i in 0..n - 1 {
            g.add_edge_bidirectional(NodeId::new(i), NodeId::new(i + 1), cm(1.0)).unwrap();
        }
        g
    }

    #[test]
    fn line_distances() {
        let g = line_graph(5);
        let p = floyd_warshall(&g.weight_matrix(|e| e.length.centimetres()));
        assert_eq!(p.distance(NodeId::new(0), NodeId::new(4)), Some(4.0));
        assert_eq!(p.distance(NodeId::new(4), NodeId::new(0)), Some(4.0));
        assert_eq!(p.distance(NodeId::new(2), NodeId::new(2)), Some(0.0));
        assert_eq!(p.hop_count(NodeId::new(0), NodeId::new(4)), Some(4));
    }

    #[test]
    fn prefers_cheaper_indirect_path() {
        let mut g = DiGraph::new(3);
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        g.add_edge(a, c, cm(10.0)).unwrap();
        g.add_edge(a, b, cm(1.0)).unwrap();
        g.add_edge(b, c, cm(1.0)).unwrap();
        let p = floyd_warshall(&g.weight_matrix(|e| e.length.centimetres()));
        assert_eq!(p.distance(a, c), Some(2.0));
        assert_eq!(p.successor(a, c), Some(b));
        assert_eq!(p.path(a, c).unwrap(), vec![a, b, c]);
    }

    #[test]
    fn unreachable_reported() {
        let mut g = DiGraph::new(3);
        g.add_edge(NodeId::new(0), NodeId::new(1), cm(1.0)).unwrap();
        let p = floyd_warshall(&g.weight_matrix(|e| e.length.centimetres()));
        let (a, c) = (NodeId::new(0), NodeId::new(2));
        assert_eq!(p.distance(a, c), None);
        assert!(!p.is_reachable(a, c));
        assert_eq!(p.path(a, c), Err(PathError::Unreachable { from: a, to: c }));
        assert!(p.path(a, c).unwrap_err().to_string().contains("no path"));
    }

    #[test]
    fn directed_asymmetry_respected() {
        let mut g = DiGraph::new(2);
        g.add_edge(NodeId::new(0), NodeId::new(1), cm(3.0)).unwrap();
        let p = floyd_warshall(&g.weight_matrix(|e| e.length.centimetres()));
        assert_eq!(p.distance(NodeId::new(0), NodeId::new(1)), Some(3.0));
        assert_eq!(p.distance(NodeId::new(1), NodeId::new(0)), None);
    }

    #[test]
    fn self_path_is_single_node() {
        let g = line_graph(3);
        let p = floyd_warshall(&g.weight_matrix(|e| e.length.centimetres()));
        assert_eq!(p.path(NodeId::new(1), NodeId::new(1)).unwrap(), vec![NodeId::new(1)]);
        assert_eq!(p.successor(NodeId::new(1), NodeId::new(1)), None);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_weights_rejected() {
        let w = Matrix::from_vec(2, 2, vec![0.0, -1.0, 1.0, 0.0]);
        let _ = floyd_warshall(&w);
    }

    #[test]
    #[should_panic(expected = "a u16 index plane can hold")]
    fn reset_past_the_lane_cap_panics_before_allocating() {
        ShortestPaths::empty().reset(IndexPlane::MAX_NODES + 1);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_rejected() {
        let w = Matrix::filled(2, 3, 0.0);
        let _ = floyd_warshall(&w);
    }

    #[test]
    fn dijkstra_matches_floyd_warshall_on_mesh() {
        let g = crate::topology::Mesh2D::square(5, cm(2.0)).to_graph();
        let w = g.weight_matrix(|e| e.length.centimetres());
        let fw = floyd_warshall(&w);
        let dj = dijkstra_all_pairs(&w);
        for i in 0..25 {
            for j in 0..25 {
                assert_eq!(fw.dist[(i, j)], dj.dist[(i, j)], "distance ({i},{j}) differs");
            }
        }
        // Paths reconstructed from Dijkstra successors are valid and
        // cost-matching.
        let (a, b) = (NodeId::new(0), NodeId::new(24));
        let path = dj.path(a, b).unwrap();
        assert_eq!(path.len() - 1, 8); // Manhattan hops on 5x5 corners
    }

    #[test]
    fn dijkstra_handles_unreachable() {
        let mut g = DiGraph::new(3);
        g.add_edge(NodeId::new(0), NodeId::new(1), cm(1.0)).unwrap();
        let dj = dijkstra_all_pairs(&g.weight_matrix(|e| e.length.centimetres()));
        assert!(!dj.is_reachable(NodeId::new(0), NodeId::new(2)));
        assert!(dj.is_reachable(NodeId::new(0), NodeId::new(1)));
        assert!(!dj.is_reachable(NodeId::new(1), NodeId::new(0)));
    }

    /// Reference single-source Bellman-Ford for cross-checking.
    fn bellman_ford(w: &Matrix<f64>, src: usize) -> Vec<f64> {
        let n = w.rows();
        let mut d = vec![INFINITE_DISTANCE; n];
        d[src] = 0.0;
        for _ in 0..n {
            for i in 0..n {
                if !d[i].is_finite() {
                    continue;
                }
                for j in 0..n {
                    if i != j && w[(i, j)].is_finite() && d[i] + w[(i, j)] < d[j] {
                        d[j] = d[i] + w[(i, j)];
                    }
                }
            }
        }
        d
    }

    proptest! {
        /// Distances agree with an independent Bellman-Ford implementation
        /// on random digraphs, and reconstructed path costs equal the
        /// reported distances.
        #[test]
        fn matches_bellman_ford_and_paths_consistent(
            n in 2usize..8,
            edges in proptest::collection::vec((0usize..8, 0usize..8, 0.1f64..10.0), 0..40),
        ) {
            let mut g = DiGraph::new(n);
            for (a, b, w) in edges {
                let (a, b) = (a % n, b % n);
                if a != b {
                    g.add_edge(NodeId::new(a), NodeId::new(b), cm(w)).unwrap();
                }
            }
            let w = g.weight_matrix(|e| e.length.centimetres());
            let p = floyd_warshall(&w);
            for s in 0..n {
                let ref_d = bellman_ford(&w, s);
                for (t, &ref_dt) in ref_d.iter().enumerate() {
                    let fw = p.dist[(s, t)];
                    if ref_dt.is_finite() {
                        prop_assert!((fw - ref_dt).abs() < 1e-9,
                            "dist({s},{t}): fw={fw} ref={ref_dt}");
                        // Path cost must equal the distance.
                        let path = p.path(NodeId::new(s), NodeId::new(t)).unwrap();
                        let mut cost = 0.0;
                        for pair in path.windows(2) {
                            cost += w[(pair[0], pair[1])];
                        }
                        prop_assert!((cost - fw).abs() < 1e-9);
                    } else {
                        prop_assert!(!fw.is_finite());
                    }
                }
            }
        }

        /// Dijkstra and Floyd–Warshall agree on distances for random
        /// digraphs, and both yield cost-consistent paths.
        #[test]
        fn dijkstra_equals_floyd_warshall(
            n in 2usize..8,
            edges in proptest::collection::vec((0usize..8, 0usize..8, 0.1f64..10.0), 0..40),
        ) {
            let mut g = DiGraph::new(n);
            for (a, b, w) in edges {
                let (a, b) = (a % n, b % n);
                if a != b {
                    g.add_edge(NodeId::new(a), NodeId::new(b), cm(w)).unwrap();
                }
            }
            let w = g.weight_matrix(|e| e.length.centimetres());
            let fw = floyd_warshall(&w);
            let dj = dijkstra_all_pairs(&w);
            for i in 0..n {
                for j in 0..n {
                    let (a, b) = (fw.dist[(i, j)], dj.dist[(i, j)]);
                    if a.is_finite() || b.is_finite() {
                        prop_assert!((a - b).abs() < 1e-9, "({i},{j}): fw={a} dj={b}");
                    }
                    // Dijkstra paths cost what they claim.
                    if b.is_finite() && i != j {
                        let path = dj.path(NodeId::new(i), NodeId::new(j)).unwrap();
                        let mut cost = 0.0;
                        for pair in path.windows(2) {
                            cost += w[(pair[0], pair[1])];
                        }
                        prop_assert!((cost - b).abs() < 1e-9);
                    }
                }
            }
        }

        /// The triangle inequality holds on the resulting distance matrix.
        #[test]
        fn triangle_inequality(
            n in 2usize..7,
            edges in proptest::collection::vec((0usize..7, 0usize..7, 0.1f64..10.0), 0..30),
        ) {
            let mut g = DiGraph::new(n);
            for (a, b, w) in edges {
                let (a, b) = (a % n, b % n);
                if a != b {
                    g.add_edge(NodeId::new(a), NodeId::new(b), cm(w)).unwrap();
                }
            }
            let p = floyd_warshall(&g.weight_matrix(|e| e.length.centimetres()));
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let (ij, ik, kj) = (p.dist[(i, j)], p.dist[(i, k)], p.dist[(k, j)]);
                        if ik.is_finite() && kj.is_finite() {
                            prop_assert!(ij <= ik + kj + 1e-9);
                        }
                    }
                }
            }
        }
    }
}
