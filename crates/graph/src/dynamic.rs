//! Dynamic (incremental) all-pairs shortest paths: per-source
//! shortest-path-tree storage plus Ramalingam–Reps-style batch repair.
//!
//! The simulator's steady state is a stream of *small, mostly monotone*
//! edge-weight changes: every TDMA frame a handful of batteries cross a
//! quantization bucket, which only *raises* the cost of the affected
//! node's in-edges (and a death raises every incident edge to `∞`). A
//! full delta recompute still re-runs single-source Dijkstra from every
//! source that can reach a changed edge — on a connected fabric that is
//! *all* of them. This module repairs each source's rows instead,
//! touching only the nodes whose shortest path actually used a changed
//! edge.
//!
//! # Exactness contract
//!
//! Repair is **bit-exact**: after [`repair_source`] returns
//! [`RepairOutcome::Repaired`] (or `Unchanged`), the source's distance
//! row, successor row, and stored tree are byte-identical to what a fresh
//! [`dijkstra_source_tree_into`] over the new weights would produce. The
//! proof hinges on the deterministic tie-breaking of the workspace's
//! Dijkstra: the final successor (and tree parent) of a node `v` is
//! always derived from `u* = min_(dist,id) { u : dist(u) + w(u,v) =
//! dist(v) }` — the first-popped *achiever* of `v`'s final distance. For
//! a batch of pure weight **increases**:
//!
//! * a node whose tree path avoids every increased edge keeps its
//!   distance (no alternative got cheaper) *and* its achiever `u*` (the
//!   achiever set can only shrink, and the tree parent — the previous
//!   minimum — stays in it), so its row entries are untouched;
//! * every other node is a tree descendant of an increased edge; those
//!   are recomputed by a heap pass restricted to the affected set, and a
//!   post-pass in pop order restores `u*`-derived successors/parents.
//!
//! Weight **decreases** (a node revived, a link restored, a battery
//! recharged) are handled by a second half that runs after the increase
//! phases: an *improvement propagation* Dijkstra seeded from every
//! decreased edge whose head could get cheaper, relaxing globally (an
//! improvement is not confined to any old subtree) and re-hanging each
//! improved node under its new achiever through the explicit child
//! links. Exact *ties* — `dist(u) + w_new = dist(v)` with `dist(v)`
//! unchanged — can still flip the deterministic achiever `u*`; tie
//! heads are enumerated from the changed edges and the improved tails
//! (achiever sets only gain members there), their achievers re-derived,
//! and every successor in the re-hung subtrees refreshed in `(dist,
//! id)` order. Irrelevant decreases remain proven no-ops and cost
//! `O(#deltas)`; [`RepairOutcome::Rerun`] is now reserved for the cost
//! gate (combined increase + decrease frontier past
//! `max_affected_fraction`) and cold trees, not for decreases per se.

use crate::shortest::{pack_entry, unpack_entry};
use crate::{AdjacencyList, DijkstraScratch, IndexPlane, NodeId, INFINITE_DISTANCE};

/// Sentinel for "no tree parent" (the source itself, or unreachable) and
/// for an empty child or sibling link: the [`IndexPlane::SENTINEL`] of
/// the tree planes' `u16` lanes.
pub const NO_PARENT: u16 = IndexPlane::SENTINEL;

/// One directed edge whose phase-1 weight changed between two recomputes
/// — the unit of the edge-delta stream the routing pipeline feeds the
/// repair with. `old`/`new` may be [`INFINITE_DISTANCE`] (edge absent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightDelta {
    /// Edge tail.
    pub from: u32,
    /// Edge head.
    pub to: u32,
    /// Weight before the change.
    pub old: f64,
    /// Weight after the change.
    pub new: f64,
}

impl WeightDelta {
    /// `true` when the weight rose (battery drain, node death) — the
    /// monotone case repair handles incrementally.
    #[must_use]
    pub fn is_increase(&self) -> bool {
        self.new > self.old
    }
}

/// Per-source shortest-path trees: for every source `s`, the tree parent
/// of each node plus explicit child links (first-child / sibling lists),
/// so the descendants of any tree edge can be enumerated in time
/// proportional to the subtree — never by scanning all `K` nodes.
///
/// Rows are maintained by [`dijkstra_source_tree_into`] (full per-source
/// runs) and [`repair_source`] (incremental repair); both leave the same
/// parents behind, which is what lets repairs chain frame after frame.
/// Sibling-list *order* is an implementation detail (it depends on the
/// maintenance history) and carries no meaning: every derived quantity —
/// distances, successors, parents, settled counts — is history-free.
///
/// The four link planes are row-major `u16` [`IndexPlane`]s (`source * K
/// + node`), with [`NO_PARENT`] (the plane sentinel) for "none": 8 MB at
/// `K = 1024`.
#[derive(Debug, Default)]
pub struct SpTreeStore {
    parent: IndexPlane,
    /// Head of each node's child list (`NO_PARENT` = childless).
    first_child: IndexPlane,
    /// Doubly-linked sibling lists, so a repaired node re-parents in
    /// `O(1)`.
    next_sibling: IndexPlane,
    prev_sibling: IndexPlane,
    settled: Vec<u32>,
}

/// Unlinks `v` from `parent`'s child list (row-level helper; all slices
/// belong to one source's tree).
fn unlink_child(
    first_child: &mut [u16],
    next_sibling: &mut [u16],
    prev_sibling: &mut [u16],
    parent: u16,
    v: u16,
) {
    let prev = prev_sibling[v as usize];
    let next = next_sibling[v as usize];
    if prev == NO_PARENT {
        first_child[parent as usize] = next;
    } else {
        next_sibling[prev as usize] = next;
    }
    if next != NO_PARENT {
        prev_sibling[next as usize] = prev;
    }
}

/// Links `v` at the head of `parent`'s child list.
fn link_child(
    first_child: &mut [u16],
    next_sibling: &mut [u16],
    prev_sibling: &mut [u16],
    parent: u16,
    v: u16,
) {
    let head = first_child[parent as usize];
    next_sibling[v as usize] = head;
    prev_sibling[v as usize] = NO_PARENT;
    if head != NO_PARENT {
        prev_sibling[head as usize] = v;
    }
    first_child[parent as usize] = v;
}

impl SpTreeStore {
    /// An empty store; size it with [`SpTreeStore::reset`].
    #[must_use]
    pub fn new() -> Self {
        SpTreeStore::default()
    }

    /// Number of sources (and nodes) covered.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.settled.len()
    }

    /// Resizes for `n` nodes and invalidates every tree, reusing the
    /// existing allocations whenever they are large enough.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`IndexPlane::MAX_NODES`], before
    /// allocating.
    pub fn reset(&mut self, n: usize) {
        IndexPlane::assert_fits(n);
        self.parent.reset(n * n);
        self.first_child.reset(n * n);
        self.next_sibling.reset(n * n);
        self.prev_sibling.reset(n * n);
        self.settled.clear();
        self.settled.resize(n, 0);
    }

    /// Mutably borrows source `s`'s `(parent, first_child, next_sibling,
    /// prev_sibling)` rows.
    pub(crate) fn link_rows_mut(
        &mut self,
        s: usize,
    ) -> (&mut [u16], &mut [u16], &mut [u16], &mut [u16]) {
        let n = self.node_count();
        let row = s * n..(s + 1) * n;
        let SpTreeStore { parent, first_child, next_sibling, prev_sibling, .. } = self;
        (
            &mut parent.lanes_mut()[row.clone()],
            &mut first_child.lanes_mut()[row.clone()],
            &mut next_sibling.lanes_mut()[row.clone()],
            &mut prev_sibling.lanes_mut()[row],
        )
    }

    /// The tree parent of `node` in source `s`'s tree (`None` for the
    /// source itself and unreachable nodes).
    ///
    /// # Panics
    ///
    /// Panics if `s` or `node` is out of range.
    #[must_use]
    pub fn parent(&self, s: usize, node: usize) -> Option<NodeId> {
        let n = self.node_count();
        assert!(s < n && node < n, "tree entry ({s},{node}) out of bounds");
        self.parent.get(s * n + node).map(NodeId::new)
    }

    /// How many nodes source `s` settles (reaches).
    #[must_use]
    pub fn settled(&self, s: usize) -> usize {
        self.settled[s] as usize
    }

    /// Records source `s`'s settled count (set by the tree-recording
    /// Dijkstra / repair drivers).
    pub(crate) fn set_settled(&mut self, s: usize, count: u32) {
        self.settled[s] = count;
    }
}

/// Reusable working memory for [`repair_source`] batches. All buffers
/// retain capacity across frames, so steady-state repairs perform no
/// heap allocation.
#[derive(Debug, Default)]
pub struct RepairScratch {
    /// Increased edges `(to, from)` of the current batch.
    increases: Vec<(u32, u32)>,
    /// Decreased edges of the current batch.
    decreases: Vec<WeightDelta>,
    /// Stamp-based affected marks: `affected[v] == stamp` means `v` is
    /// affected in the *current* [`repair_source`] call. Stamping makes
    /// clearing `O(1)` per call — no `O(K)` re-initialisation — which is
    /// what keeps a repair proportional to its subtree.
    affected: Vec<u32>,
    /// The stamp of the current call (see `affected`).
    stamp: u32,
    /// Affected nodes (DFS discovery order; order carries no meaning).
    touched: Vec<u32>,
    /// DFS work stack of the subtree walk.
    stack: Vec<u32>,
    /// Repaired nodes in `(dist, id)` pop order.
    pops: Vec<u32>,
    /// Decrease half: nodes whose distance improved (pop order), plus
    /// tie heads whose achiever flipped (appended after the pops).
    improved: Vec<u32>,
    /// Decrease half: heads of exact-tie relaxations whose achiever set
    /// may have gained a member (deduplicated lazily; false positives
    /// cost one achiever scan each).
    tie_heads: Vec<u32>,
    /// Decrease half: nodes whose successor entry must be re-derived
    /// (the improved/tie-flipped nodes and their whole subtrees).
    succ_dirty: Vec<u32>,
    /// Second stamp array for the decrease half (improvement-pop dedup,
    /// then the successor-dirty subtree walk) — kept separate from
    /// `affected` so the increase-phase marks survive for the final
    /// touched-set merge.
    marks2: Vec<u32>,
    /// The stamp of the current `marks2` generation.
    stamp2: u32,
}

impl RepairScratch {
    /// An empty scratch; buffers grow on first use and are retained.
    #[must_use]
    pub fn new() -> Self {
        RepairScratch::default()
    }

    /// Pre-sizes the batch buffers for up to `edges` deltas, so bursty
    /// frames (mass churn after a quiet warm-up) never grow them
    /// mid-flight — the zero-allocation guarantee is keyed to the
    /// graph's dimensions, not to the largest batch seen so far.
    pub fn reserve_batch(&mut self, edges: usize) {
        self.increases.reserve(edges);
        self.decreases.reserve(edges);
        // Tie candidates are recorded per relaxation: each node's
        // out-edges are scanned at most twice in the decrease half
        // (once when seeding from the increase-phase pops, once when
        // popped as an improvement), so `2 * edges` bounds the pushes.
        self.tie_heads.reserve(2 * edges);
    }

    /// Indexes one frame's delta batch into increase/decrease lists.
    /// Call once per batch, before the per-source [`repair_source`]
    /// loop.
    pub fn prepare(&mut self, deltas: &[WeightDelta], n: usize) {
        self.increases.clear();
        self.increases.reserve(deltas.len());
        self.decreases.clear();
        self.decreases.reserve(deltas.len());
        // Per-source buffers hold at most one entry per node; reserving
        // the bound here keeps burst batches free of mid-flight growth.
        self.touched.reserve(2 * n);
        self.stack.reserve(n);
        self.pops.reserve(n);
        self.improved.reserve(n);
        self.succ_dirty.reserve(n);
        for d in deltas {
            if d.is_increase() {
                self.increases.push((d.to, d.from));
            } else if d.new < d.old {
                self.decreases.push(*d);
            }
        }
    }

    /// `true` when the prepared batch contains no effective change.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.increases.is_empty() && self.decreases.is_empty()
    }

    /// The nodes the most recent [`repair_source`] call recomputed —
    /// valid after a [`RepairOutcome::Repaired`] return, until the next
    /// call. Every row entry *outside* this set is bit-identical to the
    /// pre-repair solution, which is what lets callers maintain
    /// downstream per-destination state (routing tables) incrementally.
    #[must_use]
    pub fn touched_nodes(&self) -> &[u32] {
        &self.touched
    }

    /// The nodes whose distance improved — or whose exact-tie achiever
    /// flipped — in the most recent [`repair_source`] call's decrease
    /// half, always a subset of [`RepairScratch::touched_nodes`]. Valid
    /// only when the last call returned [`RepairOutcome::Repaired`]
    /// with `improved > 0` (a repair with no relevant decrease skips
    /// the decrease half and leaves the buffer stale), until the next
    /// call. The significance for downstream per-destination state:
    /// between two frames, these are the **only** nodes whose key in a
    /// min-distance competition can have gotten *better*, so a cached
    /// competition winner that did not worsen can only be displaced by
    /// one of them.
    #[must_use]
    pub fn improved_nodes(&self) -> &[u32] {
        &self.improved
    }

    /// Starts a fresh affected-mark generation covering `n` nodes.
    fn bump_stamp(&mut self, n: usize) {
        if self.affected.len() != n {
            self.affected.clear();
            self.affected.resize(n, 0);
            self.stamp = 0;
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Wrapped: old marks could alias the new generation.
            self.affected.fill(0);
            self.stamp = 1;
        }
    }

    /// Marks `v` affected. Returns `true` when the mark is new.
    fn mark(&mut self, v: u32) -> bool {
        let slot = &mut self.affected[v as usize];
        if *slot == self.stamp {
            false
        } else {
            *slot = self.stamp;
            true
        }
    }

    /// `true` when `v` was marked affected in the current call.
    fn is_affected(&self, v: usize) -> bool {
        self.affected[v] == self.stamp
    }

    /// Starts a fresh generation of the decrease-half marks (`marks2`).
    fn bump_stamp2(&mut self, n: usize) {
        if self.marks2.len() != n {
            self.marks2.clear();
            self.marks2.resize(n, 0);
            self.stamp2 = 0;
        }
        self.stamp2 = self.stamp2.wrapping_add(1);
        if self.stamp2 == 0 {
            self.marks2.fill(0);
            self.stamp2 = 1;
        }
    }

    /// Marks `v` in the current `marks2` generation. Returns `true`
    /// when the mark is new.
    fn mark2(&mut self, v: u32) -> bool {
        let slot = &mut self.marks2[v as usize];
        if *slot == self.stamp2 {
            false
        } else {
            *slot = self.stamp2;
            true
        }
    }

    /// `true` when `v` carries the current `marks2` generation.
    fn is_marked2(&self, v: usize) -> bool {
        self.marks2[v] == self.stamp2
    }
}

/// What [`repair_source`] did with one source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairOutcome {
    /// No changed edge can affect this source's rows; nothing was
    /// touched.
    Unchanged,
    /// The rows were repaired in place; `touched` nodes were recomputed.
    Repaired {
        /// Number of nodes whose entries were recomputed (increase
        /// subtrees plus the decrease half's improved/re-hung nodes).
        touched: usize,
        /// Of those, entries updated by the decrease half: distance
        /// improvements plus achiever tie flips. Zero for pure-increase
        /// batches.
        improved: usize,
    },
    /// The repair declined: the combined increase + decrease frontier
    /// exceeded `max_affected_fraction`, or the batch predates the
    /// stored trees. The caller must re-run the source in full via
    /// [`dijkstra_source_tree_into`]. The increase gate fires before
    /// any mutation; the decrease gate may abort mid-improvement and
    /// leave the rows partially updated — the mandatory full re-run
    /// overwrites every entry either way.
    Rerun,
}

/// Runs the tree-recording variant of the workspace's single-source
/// Dijkstra: identical `dist_row`/`succ_row` to
/// [`dijkstra_source_into`](crate::dijkstra_source_into), and
/// additionally records each node's tree parent (the deterministic
/// achiever `u*`) and the child links into `trees`.
///
/// # Panics
///
/// Panics if `source` or the row lengths do not match `adjacency`.
pub fn dijkstra_source_tree_into(
    adjacency: &AdjacencyList,
    source: NodeId,
    scratch: &mut DijkstraScratch,
    dist_row: &mut [f64],
    succ_row: &mut [u16],
    trees: &mut SpTreeStore,
) {
    let n = adjacency.len();
    assert!(source.index() < n, "source {source} out of range");
    assert_eq!(dist_row.len(), n, "distance row length mismatch");
    assert_eq!(succ_row.len(), n, "successor row length mismatch");
    assert_eq!(trees.node_count(), n, "tree store does not cover the adjacency");
    let s = source.index();
    let (parent_row, first_child_row, next_row, prev_row) = trees.link_rows_mut(s);

    scratch.heap.clear();
    let heap_bound = adjacency.edge_count() + 1;
    if scratch.heap.capacity() < heap_bound {
        scratch.heap.reserve(heap_bound);
    }

    dist_row.fill(INFINITE_DISTANCE);
    succ_row.fill(IndexPlane::SENTINEL);
    parent_row.fill(NO_PARENT);
    dist_row[s] = 0.0;
    let mut settled: u32 = 0;
    scratch.heap.push(core::cmp::Reverse(pack_entry(0.0, s)));
    while let Some(core::cmp::Reverse(entry)) = scratch.heap.pop() {
        let (du, u) = unpack_entry(entry);
        if du > dist_row[u] {
            continue; // stale entry
        }
        settled += 1;
        let off_source = u == s;
        let via_u = succ_row[u];
        for &(v, w) in adjacency.neighbors(u) {
            let nd = du + w;
            if nd < dist_row[v] {
                dist_row[v] = nd;
                succ_row[v] = if off_source { v as u16 } else { via_u };
                parent_row[v] = u as u16;
                scratch.heap.push(core::cmp::Reverse(pack_entry(nd, v)));
            }
        }
    }
    // Rebuild the child lists from the final parents (a full re-run
    // replaces the whole tree, so incremental link maintenance would buy
    // nothing here).
    first_child_row.fill(NO_PARENT);
    for (v, &p) in parent_row.iter().enumerate() {
        if p != NO_PARENT {
            link_child(first_child_row, next_row, prev_row, p, v as u16);
        }
    }
    trees.set_settled(s, settled);
}

/// Repairs one source's all-pairs rows against a prepared batch of
/// weight deltas (see [`RepairScratch::prepare`]), or reports that the
/// source must be re-run.
///
/// Inputs describe the **new** graph: `adjacency` (out-lists) and
/// `in_adjacency` (in-lists, [`AdjacencyList::rebuild_transpose`]) must
/// already reflect the post-delta weights, while `dist_row`/`succ_row`
/// and `trees` still hold the pre-delta solution this repair advances.
///
/// `max_affected_fraction` is the repair-vs-rerun cost gate, applied to
/// the *combined* increase + decrease frontier: when more than that
/// fraction of the source's settled nodes is affected by the increase
/// subtrees plus the improvement propagation, the bookkeeping stops
/// paying for itself and [`RepairOutcome::Rerun`] is returned (the
/// increase gate declines before mutating, checked inside the affected
/// walk so a declined source never finishes it; the decrease gate may
/// abort mid-improvement — see [`RepairOutcome::Rerun`]).
///
/// # Panics
///
/// Panics if the row lengths or tree store do not match `adjacency`.
#[allow(clippy::too_many_arguments)] // mirrors the per-source solver rows + workspace
pub fn repair_source(
    adjacency: &AdjacencyList,
    in_adjacency: &AdjacencyList,
    source: NodeId,
    heap: &mut DijkstraScratch,
    repair: &mut RepairScratch,
    trees: &mut SpTreeStore,
    dist_row: &mut [f64],
    succ_row: &mut [u16],
    max_affected_fraction: f64,
) -> RepairOutcome {
    let n = adjacency.len();
    assert_eq!(dist_row.len(), n, "distance row length mismatch");
    assert_eq!(succ_row.len(), n, "successor row length mismatch");
    assert_eq!(trees.node_count(), n, "tree store does not cover the adjacency");
    let s = source.index();

    // A decrease is relevant when it could improve — or *tie* — the
    // path to any settled node. Irrelevant decreases are proven no-ops
    // against the (still exact) pre-repair rows; relevant ones engage
    // the decrease half below the increase phases.
    let any_relevant_decrease = repair.decreases.iter().any(|d| {
        let du = dist_row[d.from as usize];
        du.is_finite() && du + d.new <= dist_row[d.to as usize]
    });

    let settled = trees.settled(s);
    let (parent_row, first_child_row, next_row, prev_row) = trees.link_rows_mut(s);

    // Phase A — affected set, in time proportional to the *subtree*:
    // the heads are the tree edges that increased (non-tree alternatives
    // were already ≥ and only got worse); their descendants are exactly
    // the nodes whose tree path uses an increased edge, enumerated
    // through the child links. No settle-order scan, no `O(K)` walk —
    // an unaffected source pays `O(#increases)` and nothing else.
    //
    // Cost gate: past `limit` affected nodes a fresh Dijkstra is cheaper
    // than the repair bookkeeping (measured; see the routing crate's
    // REPAIR_MAX_AFFECTED_FRACTION). The set only grows, so the gate is
    // checked after seeding and at every discovery: a doomed source
    // stops walking the moment it passes, still before any mutation,
    // and the outcome equals a check after the complete walk.
    #[allow(clippy::cast_precision_loss)]
    let limit = max_affected_fraction * settled as f64;
    repair.bump_stamp(n);
    repair.touched.clear();
    repair.stack.clear();
    for i in 0..repair.increases.len() {
        let (to, from) = repair.increases[i];
        if u32::from(parent_row[to as usize]) == from
            && dist_row[to as usize].is_finite()
            && repair.mark(to)
        {
            repair.touched.push(to);
            repair.stack.push(to);
        }
    }
    if repair.touched.is_empty() && !any_relevant_decrease {
        return RepairOutcome::Unchanged;
    }
    #[allow(clippy::cast_precision_loss)]
    if repair.touched.len() as f64 > limit {
        return RepairOutcome::Rerun;
    }
    while let Some(v) = repair.stack.pop() {
        let mut child = first_child_row[v as usize];
        while child != NO_PARENT {
            let c = u32::from(child);
            if repair.mark(c) {
                repair.touched.push(c);
                #[allow(clippy::cast_precision_loss)]
                if repair.touched.len() as f64 > limit {
                    return RepairOutcome::Rerun;
                }
                repair.stack.push(c);
            }
            child = next_row[child as usize];
        }
    }

    // Phase B — invalidate and seed: affected entries unlink from their
    // old parent and drop to "unreachable", then each gets its best
    // boundary candidate (an unaffected in-neighbour; positive weights
    // mean every achiever settles strictly earlier, so these are final
    // values).
    for i in 0..repair.touched.len() {
        let v = repair.touched[i] as usize;
        unlink_child(first_child_row, next_row, prev_row, parent_row[v], v as u16);
        dist_row[v] = INFINITE_DISTANCE;
        succ_row[v] = IndexPlane::SENTINEL;
        parent_row[v] = NO_PARENT;
    }
    heap.heap.clear();
    let heap_bound = adjacency.edge_count() + 1;
    if heap.heap.capacity() < heap_bound {
        heap.heap.reserve(heap_bound);
    }
    for i in 0..repair.touched.len() {
        let v = repair.touched[i] as usize;
        let mut best = INFINITE_DISTANCE;
        for &(u, w) in in_adjacency.neighbors(v) {
            if !repair.is_affected(u) && dist_row[u].is_finite() {
                let cand = dist_row[u] + w;
                if cand < best {
                    best = cand;
                }
            }
        }
        if best.is_finite() {
            dist_row[v] = best;
            heap.heap.push(core::cmp::Reverse(pack_entry(best, v)));
        }
    }

    // Phase C — Dijkstra restricted to the affected set. Pop order is
    // `(dist, id)` ascending, exactly the full run's settle order.
    repair.pops.clear();
    while let Some(core::cmp::Reverse(entry)) = heap.heap.pop() {
        let (du, u) = unpack_entry(entry);
        if du > dist_row[u] {
            continue; // stale entry
        }
        repair.pops.push(u as u32);
        for &(v, w) in adjacency.neighbors(u) {
            if !repair.is_affected(v) {
                continue;
            }
            let nd = du + w;
            if nd < dist_row[v] {
                dist_row[v] = nd;
                heap.heap.push(core::cmp::Reverse(pack_entry(nd, v)));
            }
        }
    }

    // Phase D — successors/parents from the achiever rule, in pop order
    // so an affected achiever's own entries are already final when a
    // later node reads them. Each repaired node relinks under its new
    // parent; nodes that ended up unreachable stay unlinked, which is
    // exactly the tree a fresh run would leave behind.
    for i in 0..repair.pops.len() {
        let v = repair.pops[i] as usize;
        let dv = dist_row[v];
        let mut best: Option<(u64, usize)> = None;
        for &(u, w) in in_adjacency.neighbors(v) {
            let du = dist_row[u];
            if du.is_finite() && du + w == dv && (du < dv || (du == dv && u < v)) {
                let key = (du.to_bits(), u);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        // A finite repaired distance always has an achiever that settles
        // strictly before `v` (weights are positive in this workspace;
        // the zero-weight corner would need the unfiltered minimum).
        let u = best.expect("finite repaired distance has an earlier achiever").1;
        parent_row[v] = u as u16;
        succ_row[v] = if u == s { v as u16 } else { succ_row[u] };
        link_child(first_child_row, next_row, prev_row, u as u16, v as u16);
    }

    // Settled accounting: the unaffected nodes keep their reachability;
    // of the touched ones, exactly the repaired pops remain reachable.
    let mut new_settled = settled - repair.touched.len() + repair.pops.len();

    // ===== Decrease half =====
    let mut improved_total = 0usize;
    if any_relevant_decrease {
        // Phase E — seed the improvement heap. Improvements enter the
        // row through (a) decreased edges whose head gets cheaper and
        // (b) increase-phase pops whose distance *dropped* (Phase C
        // relaxes post-delta weights, so a repaired node can come back
        // cheaper through a decreased edge); their out-edges may now
        // undercut neighbours outside the affected set, which the
        // restricted Phase C never relaxed. Exact-tie relaxations are
        // recorded as tie heads: achiever sets can only *gain* members
        // at the heads of changed edges or cheaper tails, and a false
        // positive costs one no-op achiever scan.
        repair.improved.clear();
        repair.tie_heads.clear();
        repair.bump_stamp2(n);
        heap.heap.clear();
        for i in 0..repair.decreases.len() {
            let d = repair.decreases[i];
            let du = dist_row[d.from as usize];
            if !du.is_finite() {
                continue;
            }
            let nd = du + d.new;
            let v = d.to as usize;
            if nd < dist_row[v] {
                if !dist_row[v].is_finite() {
                    new_settled += 1;
                }
                dist_row[v] = nd;
                heap.heap.push(core::cmp::Reverse(pack_entry(nd, v)));
            } else if nd == dist_row[v] && v != s {
                repair.tie_heads.push(d.to);
            }
        }
        for i in 0..repair.pops.len() {
            let u = repair.pops[i] as usize;
            let du = dist_row[u];
            for &(v, w) in adjacency.neighbors(u) {
                let nd = du + w;
                if nd < dist_row[v] {
                    if !dist_row[v].is_finite() {
                        new_settled += 1;
                    }
                    dist_row[v] = nd;
                    heap.heap.push(core::cmp::Reverse(pack_entry(nd, v)));
                } else if nd == dist_row[v] && v != s {
                    repair.tie_heads.push(v as u32);
                }
            }
        }

        // Phase F — improvement Dijkstra with *global* relaxation: an
        // improvement is not confined to any old subtree, so any node
        // that gets cheaper joins the frontier. Pop order is `(dist,
        // id)` ascending on final values, making every valid pop final.
        while let Some(core::cmp::Reverse(entry)) = heap.heap.pop() {
            let (du, u) = unpack_entry(entry);
            if du > dist_row[u] || !repair.mark2(u as u32) {
                continue; // stale or duplicate-key entry
            }
            repair.improved.push(u as u32);
            // Combined-frontier cost gate. Unlike the increase gate
            // this fires mid-repair: the rows are dirty, and the
            // caller's mandatory full re-run rewrites them (see
            // [`RepairOutcome::Rerun`]).
            #[allow(clippy::cast_precision_loss)]
            if (repair.touched.len() + repair.improved.len()) as f64
                > max_affected_fraction * new_settled as f64
            {
                return RepairOutcome::Rerun;
            }
            for &(v, w) in adjacency.neighbors(u) {
                let nd = du + w;
                if nd < dist_row[v] {
                    if !dist_row[v].is_finite() {
                        new_settled += 1;
                    }
                    dist_row[v] = nd;
                    heap.heap.push(core::cmp::Reverse(pack_entry(nd, v)));
                } else if nd == dist_row[v] && v != s {
                    // `u` got cheaper, so it may be a *new* achiever.
                    repair.tie_heads.push(v as u32);
                }
            }
        }

        // Phase G — re-hang each improved node under its achiever
        // (parents only; successors are derived in Phase I, once every
        // parent is final).
        for i in 0..repair.improved.len() {
            let v = repair.improved[i] as usize;
            let dv = dist_row[v];
            let mut best: Option<(u64, usize)> = None;
            for &(u, w) in in_adjacency.neighbors(v) {
                let du = dist_row[u];
                if du.is_finite() && du + w == dv && (du < dv || (du == dv && u < v)) {
                    let key = (du.to_bits(), u);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
            let u = best.expect("finite improved distance has an earlier achiever").1 as u16;
            let old = parent_row[v];
            if old != u {
                if old != NO_PARENT {
                    unlink_child(first_child_row, next_row, prev_row, old, v as u16);
                }
                parent_row[v] = u;
                link_child(first_child_row, next_row, prev_row, u, v as u16);
            }
        }

        // Phase H — exact-tie achiever flips. A tie head's distance is
        // unchanged, but a changed edge or a cheaper tail may now be
        // its min-(dist, id) achiever; re-derive and re-hang on a flip.
        // Improved nodes are skipped (already exact); duplicate heads
        // self-dedupe (the second scan finds the updated parent).
        for i in 0..repair.tie_heads.len() {
            let v = repair.tie_heads[i] as usize;
            if repair.is_marked2(v) {
                continue;
            }
            let dv = dist_row[v];
            let mut best: Option<(u64, usize)> = None;
            for &(u, w) in in_adjacency.neighbors(v) {
                let du = dist_row[u];
                if du.is_finite() && du + w == dv && (du < dv || (du == dv && u < v)) {
                    let key = (du.to_bits(), u);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
            let u = best.expect("a tie head keeps a finite distance and an achiever").1 as u16;
            if parent_row[v] != u {
                unlink_child(first_child_row, next_row, prev_row, parent_row[v], v as u16);
                parent_row[v] = u;
                link_child(first_child_row, next_row, prev_row, u, v as u16);
                repair.improved.push(v as u32); // successor seed
            }
        }
        improved_total = repair.improved.len();

        // Phase I — successor refresh. A re-hung node changes the
        // successor of its whole subtree (descendants keep parents but
        // inherit the source-adjacent hop), so collect the subtree
        // closure of every improved/flipped node and assign successors
        // in `(dist, id)` order: a tree parent settles strictly before
        // its child, so each node reads a final value from its parent.
        repair.bump_stamp2(n);
        repair.succ_dirty.clear();
        repair.stack.clear();
        for i in 0..repair.improved.len() {
            let v = repair.improved[i];
            if repair.mark2(v) {
                repair.succ_dirty.push(v);
                repair.stack.push(v);
            }
        }
        while let Some(v) = repair.stack.pop() {
            let mut child = first_child_row[v as usize];
            while child != NO_PARENT {
                let c = u32::from(child);
                if repair.mark2(c) {
                    repair.succ_dirty.push(c);
                    repair.stack.push(c);
                }
                child = next_row[child as usize];
            }
        }
        repair.succ_dirty.sort_unstable_by_key(|&v| pack_entry(dist_row[v as usize], v as usize));
        for i in 0..repair.succ_dirty.len() {
            let v = repair.succ_dirty[i] as usize;
            let p = usize::from(parent_row[v]);
            succ_row[v] = if p == s { v as u16 } else { succ_row[p] };
        }
        // Merge into the touched set; the increase-phase marks in
        // `affected` are still live, so the merge stays duplicate-free.
        for i in 0..repair.succ_dirty.len() {
            let v = repair.succ_dirty[i];
            if repair.mark(v) {
                repair.touched.push(v);
            }
        }
    }

    trees.set_settled(s, new_settled as u32);

    RepairOutcome::Repaired { touched: repair.touched.len(), improved: improved_total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        dijkstra_all_pairs, dijkstra_all_pairs_into, dijkstra_source_into, floyd_warshall,
        floyd_warshall_into, DiGraph, Matrix,
    };
    use etx_units::Length;
    use proptest::prelude::*;

    fn cm(v: f64) -> Length {
        Length::from_centimetres(v)
    }

    /// A weighted digraph from an edge list over `n` nodes.
    fn graph_from(n: usize, edges: &[(usize, usize, f64)]) -> Matrix<f64> {
        let mut g = DiGraph::new(n);
        for &(a, b, w) in edges {
            if a != b {
                let _ = g.add_edge(NodeId::new(a), NodeId::new(b), cm(w));
            }
        }
        g.weight_matrix(|e| e.length.centimetres())
    }

    /// The `Option<NodeId>` successor reference: the single-source
    /// Dijkstra as it stood before successors moved to `u16` lanes
    /// (`O(K)` relaxation scan instead of a heap; the same `(dist, id)`
    /// settle order and strict-improvement updates).
    fn reference_dijkstra(weights: &Matrix<f64>) -> (Matrix<f64>, Matrix<Option<NodeId>>) {
        let n = weights.rows();
        let mut dist = Matrix::filled(n, n, INFINITE_DISTANCE);
        let mut succ = Matrix::filled(n, n, None);
        for s in 0..n {
            let mut done = vec![false; n];
            dist[(s, s)] = 0.0;
            while let Some(u) = (0..n)
                .filter(|&u| !done[u] && dist[(s, u)].is_finite())
                .min_by(|&a, &b| dist[(s, a)].total_cmp(&dist[(s, b)]).then(a.cmp(&b)))
            {
                done[u] = true;
                let via_u = if u == s { None } else { succ[(s, u)] };
                for v in 0..n {
                    let w = weights[(u, v)];
                    if u == v || !w.is_finite() {
                        continue;
                    }
                    let nd = dist[(s, u)] + w;
                    if nd < dist[(s, v)] {
                        dist[(s, v)] = nd;
                        succ[(s, v)] = via_u.or(Some(NodeId::new(v)));
                    }
                }
            }
        }
        (dist, succ)
    }

    /// The `Option<NodeId>` successor reference for Floyd–Warshall: the
    /// paper's Fig 5 as it stood before successors moved to `u16` lanes.
    fn reference_floyd_warshall(weights: &Matrix<f64>) -> (Matrix<f64>, Matrix<Option<NodeId>>) {
        let n = weights.rows();
        let mut dist = weights.clone();
        let mut succ = Matrix::filled(n, n, None);
        for i in 0..n {
            for j in 0..n {
                if i != j && dist[(i, j)].is_finite() {
                    succ[(i, j)] = Some(NodeId::new(j));
                }
            }
        }
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
                        succ[(i, j)] = succ[(i, k)];
                    }
                }
            }
        }
        (dist, succ)
    }

    /// Decodes `u16` successor lanes (row-major, `n` per row) into the
    /// reference's `Option<NodeId>` form.
    fn decode(lanes: &[u16], n: usize) -> Matrix<Option<NodeId>> {
        let cells = lanes.iter().map(|&x| (x != NO_PARENT).then(|| NodeId::new(usize::from(x))));
        Matrix::from_vec(n, n, cells.collect())
    }

    /// `paths` equals the reference pair bit for bit: distances, and
    /// successors once decoded (the diagonal reads "none" on both).
    fn assert_matches_reference(
        paths: &crate::ShortestPaths,
        reference: &(Matrix<f64>, Matrix<Option<NodeId>>),
        what: &str,
    ) {
        let n = paths.node_count();
        let bits = |m: &Matrix<f64>| m.as_slice().iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(paths.distances()), bits(&reference.0), "{what}: distances");
        assert_eq!(decode(paths.successors().lanes(), n), reference.1, "{what}: successors");
    }

    struct Solved {
        adjacency: AdjacencyList,
        in_adjacency: AdjacencyList,
        trees: SpTreeStore,
        dist: Matrix<f64>,
        succ: Matrix<u16>,
    }

    fn solve(weights: &Matrix<f64>) -> Solved {
        let n = weights.rows();
        let mut adjacency = AdjacencyList::new();
        adjacency.rebuild(weights);
        let mut in_adjacency = AdjacencyList::new();
        in_adjacency.rebuild_transpose(&adjacency);
        let mut trees = SpTreeStore::new();
        trees.reset(n);
        let mut dist = Matrix::filled(n, n, 0.0);
        let mut succ = Matrix::filled(n, n, NO_PARENT);
        let mut scratch = DijkstraScratch::new();
        for s in 0..n {
            dijkstra_source_tree_into(
                &adjacency,
                NodeId::new(s),
                &mut scratch,
                dist.row_slice_mut(s),
                succ.row_slice_mut(s),
                &mut trees,
            );
        }
        Solved { adjacency, in_adjacency, trees, dist, succ }
    }

    /// Applies `deltas` to `weights` and repairs every source of
    /// `solved`, falling back to a recorded re-run when asked — then
    /// asserts bit-equality (dist, succ, parent, order) with a from-
    /// scratch solve over the new weights.
    fn repair_all_and_check(
        weights: &mut Matrix<f64>,
        solved: &mut Solved,
        deltas: &[WeightDelta],
    ) {
        let n = weights.rows();
        for d in deltas {
            weights[(d.from as usize, d.to as usize)] = d.new;
        }
        for d in deltas {
            solved.adjacency.set_edge(d.from as usize, d.to as usize, d.new);
            solved.in_adjacency.set_edge(d.to as usize, d.from as usize, d.new);
        }
        let mut repair = RepairScratch::new();
        repair.prepare(deltas, n);
        let mut heap = DijkstraScratch::new();
        for s in 0..n {
            let outcome = repair_source(
                &solved.adjacency,
                &solved.in_adjacency,
                NodeId::new(s),
                &mut heap,
                &mut repair,
                &mut solved.trees,
                solved.dist.row_slice_mut(s),
                solved.succ.row_slice_mut(s),
                0.75,
            );
            if outcome == RepairOutcome::Rerun {
                dijkstra_source_tree_into(
                    &solved.adjacency,
                    NodeId::new(s),
                    &mut heap,
                    solved.dist.row_slice_mut(s),
                    solved.succ.row_slice_mut(s),
                    &mut solved.trees,
                );
            }
        }
        let fresh = solve(weights);
        assert_eq!(solved.dist, fresh.dist, "distances diverged");
        assert_eq!(solved.succ, fresh.succ, "successors diverged");
        assert_eq!(
            decode(solved.succ.as_slice(), n),
            reference_dijkstra(weights).1,
            "repaired successors decode to the reference"
        );
        for s in 0..n {
            assert_eq!(solved.trees.settled(s), fresh.trees.settled(s), "settled count s={s}");
            for v in 0..n {
                assert_eq!(solved.trees.parent(s, v), fresh.trees.parent(s, v), "parent {s}->{v}");
            }
        }
    }

    #[test]
    fn tree_dijkstra_matches_plain_dijkstra() {
        let w = graph_from(5, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0), (0, 3, 5.0), (3, 4, 1.0)]);
        let solved = solve(&w);
        let mut adjacency = AdjacencyList::new();
        adjacency.rebuild(&w);
        let mut scratch = DijkstraScratch::new();
        let mut dist = vec![0.0; 5];
        let mut succ = vec![0; 5];
        for s in 0..5 {
            dijkstra_source_into(&adjacency, NodeId::new(s), &mut scratch, &mut dist, &mut succ);
            assert_eq!(dist, solved.dist.row_slice(s), "dist row {s}");
            assert_eq!(succ, solved.succ.row_slice(s), "succ row {s}");
        }
        // Parents form a tree rooted at the source.
        assert_eq!(solved.trees.parent(0, 0), None);
        assert_eq!(solved.trees.parent(0, 2), Some(NodeId::new(1)));
        // Settle order starts at the source.
        assert_eq!(solved.trees.settled(0), 5);
    }

    #[test]
    fn single_increase_repair_is_exact() {
        let mut w =
            graph_from(4, &[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.5), (2, 3, 1.5), (3, 0, 1.0)]);
        let mut solved = solve(&w);
        // Raise the 0->1 shortcut past the detour.
        let deltas = [WeightDelta { from: 0, to: 1, old: 1.0, new: 4.0 }];
        repair_all_and_check(&mut w, &mut solved, &deltas);
    }

    #[test]
    fn edge_removal_repair_is_exact() {
        let mut w = graph_from(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 9.0)]);
        let mut solved = solve(&w);
        let deltas = [WeightDelta { from: 1, to: 2, old: 1.0, new: INFINITE_DISTANCE }];
        repair_all_and_check(&mut w, &mut solved, &deltas);
    }

    #[test]
    fn irrelevant_decrease_is_unchanged_and_exact_tie_repairs_in_place() {
        let mut w = graph_from(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)]);
        let mut solved = solve(&w);
        let mut heap = DijkstraScratch::new();
        let mut repair = RepairScratch::new();
        // 5.0 -> 4.0 still loses to the 2.0 path: provably untouchable.
        repair.prepare(&[WeightDelta { from: 0, to: 2, old: 5.0, new: 4.0 }], 3);
        let outcome = repair_source(
            &solved.adjacency,
            &solved.in_adjacency,
            NodeId::new(0),
            &mut heap,
            &mut repair,
            &mut solved.trees,
            solved.dist.row_slice_mut(0),
            solved.succ.row_slice_mut(0),
            0.75,
        );
        assert_eq!(outcome, RepairOutcome::Unchanged);
        // 5.0 -> 2.0 ties the detour. The direct edge 0->2 becomes the
        // min-(dist, id) achiever of node 2 (tail 0 settles first), so
        // the successor must flip from "via 1" to "direct" — exactly
        // the tie case that used to force a rerun.
        let deltas = [WeightDelta { from: 0, to: 2, old: 5.0, new: 2.0 }];
        repair_all_and_check(&mut w, &mut solved, &deltas);
        assert_eq!(solved.succ[(0, 2)], 2, "achiever tie must flip to direct");
    }

    #[test]
    fn decrease_repair_reroutes_outside_the_old_subtree() {
        // 0 -> 1 -> 2 -> 3 costs 6; dropping the spur 0 -> 4 -> 3 to
        // cost 3 improves node 3 (and nothing else) — an improvement
        // that no increase-subtree walk would ever find.
        let mut w =
            graph_from(5, &[(0, 1, 2.0), (1, 2, 2.0), (2, 3, 2.0), (0, 4, 9.0), (4, 3, 1.0)]);
        let mut solved = solve(&w);
        let deltas = [WeightDelta { from: 0, to: 4, old: 9.0, new: 2.0 }];
        repair_all_and_check(&mut w, &mut solved, &deltas);
        assert_eq!(solved.dist[(0, 3)], 3.0);
        assert_eq!(solved.succ[(0, 3)], 4, "3 now routes via the spur");
    }

    #[test]
    fn revival_decrease_restores_reachability() {
        // Node 2 starts cut off (both incident edges absent); restoring
        // them makes it reachable again purely through the decrease
        // half, which must also grow the settled count.
        let mut w = graph_from(4, &[(0, 1, 1.0), (1, 3, 4.0)]);
        let mut solved = solve(&w);
        assert_eq!(solved.trees.settled(0), 3);
        let deltas = [
            WeightDelta { from: 1, to: 2, old: INFINITE_DISTANCE, new: 1.0 },
            WeightDelta { from: 2, to: 3, old: INFINITE_DISTANCE, new: 1.0 },
        ];
        repair_all_and_check(&mut w, &mut solved, &deltas);
        assert_eq!(solved.trees.settled(0), 4);
        assert_eq!(solved.dist[(0, 2)], 2.0);
        assert_eq!(solved.dist[(0, 3)], 3.0, "3 reroutes through the revived node");
    }

    #[test]
    fn mixed_increase_and_decrease_batch_is_exact() {
        // The increase invalidates 1's subtree while the decrease opens
        // a cheaper detour through 3 — the combined batch exercises the
        // phase-C/decrease interaction (a repaired node coming back
        // cheaper through a decreased edge).
        let mut w =
            graph_from(4, &[(0, 1, 1.0), (1, 2, 1.0), (0, 3, 5.0), (3, 2, 1.0), (3, 1, 1.0)]);
        let mut solved = solve(&w);
        let deltas = [
            WeightDelta { from: 0, to: 1, old: 1.0, new: 6.0 },
            WeightDelta { from: 0, to: 3, old: 5.0, new: 1.0 },
        ];
        repair_all_and_check(&mut w, &mut solved, &deltas);
        assert_eq!(solved.dist[(0, 2)], 2.0);
        assert_eq!(solved.dist[(0, 1)], 2.0, "1 reroutes through the cheaper spur");
    }

    #[test]
    fn frontier_gate_demands_rerun() {
        // Increasing the source's only out-edge affects every settled
        // node: with a tiny gate the repair must decline untouched.
        let w = graph_from(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let mut solved = solve(&w);
        let before = solved.dist.clone();
        let mut heap = DijkstraScratch::new();
        let mut repair = RepairScratch::new();
        repair.prepare(&[WeightDelta { from: 0, to: 1, old: 1.0, new: 2.0 }], 4);
        let outcome = repair_source(
            &solved.adjacency,
            &solved.in_adjacency,
            NodeId::new(0),
            &mut heap,
            &mut repair,
            &mut solved.trees,
            solved.dist.row_slice_mut(0),
            solved.succ.row_slice_mut(0),
            0.1,
        );
        assert_eq!(outcome, RepairOutcome::Rerun);
        assert_eq!(solved.dist, before, "a declined repair must not touch the rows");
    }

    #[test]
    fn transpose_adjacency_mirrors_rows() {
        let mut w = graph_from(4, &[(0, 1, 1.0), (2, 1, 3.0), (1, 3, 2.0), (3, 0, 1.0)]);
        let mut out = AdjacencyList::new();
        out.rebuild(&w);
        let mut t = AdjacencyList::new();
        t.rebuild_transpose(&out);
        assert_eq!(t.neighbors(1), &[(0, 1.0), (2, 3.0)]);
        assert_eq!(t.neighbors(0), &[(3, 1.0)]);
        assert_eq!(t.edge_count(), 4);
        assert_eq!((out.weight(2, 1), out.weight(1, 2)), (3.0, INFINITE_DISTANCE));
        // Setting the changed edges equals a fresh rebuild, for both the
        // out-lists and the transpose: a removal, an insertion and an
        // update.
        for (from, to, weight) in [(2, 1, INFINITE_DISTANCE), (1, 0, 2.5), (3, 0, 4.0)] {
            w[(from, to)] = weight;
            out.set_edge(from, to, weight);
            t.set_edge(to, from, weight);
        }
        let mut fresh = AdjacencyList::new();
        fresh.rebuild(&w);
        assert_eq!(out, fresh);
        let mut fresh_t = AdjacencyList::new();
        fresh_t.rebuild_transpose(&fresh);
        assert_eq!(t, fresh_t);

        // Filling through `push_edge` lands on the dense rebuild's lists.
        let mut pushed = AdjacencyList::new();
        pushed.clear_to(4);
        for (u, v, weight) in
            [(0, 1, 1.0), (1, 0, 2.5), (1, 3, 2.0), (3, 0, 4.0), (3, 2, INFINITE_DISTANCE)]
        {
            pushed.push_edge(u, v, weight);
        }
        assert_eq!(pushed, fresh);
    }

    #[test]
    #[should_panic(expected = "is negative")]
    fn push_edge_rejects_negative_weights() {
        let mut list = AdjacencyList::new();
        list.clear_to(2);
        list.push_edge(0, 1, -1.0);
    }

    #[test]
    #[should_panic(expected = "is NaN")]
    fn push_edge_rejects_nan_weights() {
        let mut list = AdjacencyList::new();
        list.clear_to(2);
        list.push_edge(1, 0, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "a u16 index plane can hold")]
    fn tree_store_past_the_lane_cap_panics_before_allocating() {
        SpTreeStore::new().reset(IndexPlane::MAX_NODES + 1);
    }

    #[test]
    fn all_pairs_rows_decode_to_the_reference() {
        // A 16x16 mesh (K = 256): every source row of the `u16`
        // successor plane decodes to the reference run.
        let g = crate::topology::Mesh2D::square(16, cm(2.0)).to_graph();
        let w = g.weight_matrix(|e| e.length.centimetres());
        assert_matches_reference(&dijkstra_all_pairs(&w), &reference_dijkstra(&w), "K = 256");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Chains of random mixed delta batches (increases, removals,
        /// decreases, insertions) repaired per source — with re-run
        /// fallback — stay bit-identical to from-scratch solves.
        #[test]
        fn chained_repairs_equal_fresh_solves(
            n in 2usize..8,
            edges in proptest::collection::vec((0usize..8, 0usize..8, 0.5f64..8.0), 1..30),
            batches in proptest::collection::vec(
                proptest::collection::vec((0usize..8, 0usize..8, 0u8..4, 0.5f64..8.0), 1..4),
                1..5
            ),
        ) {
            let edges: Vec<(usize, usize, f64)> =
                edges.into_iter().map(|(a, b, w)| (a % n, b % n, w)).collect();
            let mut weights = graph_from(n, &edges);
            let mut solved = solve(&weights);
            for batch in &batches {
                let mut deltas = Vec::new();
                for &(a, b, kind, w) in batch {
                    let (a, b) = (a % n, b % n);
                    if a == b {
                        continue;
                    }
                    let old = weights[(a, b)];
                    let new = match kind {
                        0 => old * 3.0,              // increase (∞ stays ∞)
                        1 => INFINITE_DISTANCE,      // removal
                        2 if old.is_finite() => old * 0.5, // decrease
                        _ => w,                      // set (insert or move)
                    };
                    if new != old && !(new.is_nan()) {
                        // Dedup within the batch: keep the last write.
                        deltas.retain(|d: &WeightDelta| !(d.from as usize == a && d.to as usize == b));
                        deltas.push(WeightDelta { from: a as u32, to: b as u32, old, new });
                    }
                }
                if deltas.is_empty() {
                    continue;
                }
                repair_all_and_check(&mut weights, &mut solved, &deltas);
            }
        }

        /// Every solver that writes `u16` successor lanes — Floyd–Warshall
        /// (dense-seeded and list-seeded), all-pairs Dijkstra (matrix and
        /// list entry points), the tree-recording Dijkstra and, after a
        /// mixed delta batch, `repair_source` — decodes to the
        /// `Option<NodeId>` reference bit for bit.
        #[test]
        fn successor_lanes_decode_to_the_option_reference(
            n in 2usize..9,
            edges in proptest::collection::vec((0usize..9, 0usize..9, 1u32..5), 1..36),
            batch in proptest::collection::vec((0usize..9, 0usize..9, 0u8..4, 1u32..5), 1..5),
        ) {
            // Small integer lengths make exact distance ties common.
            let edges: Vec<(usize, usize, f64)> =
                edges.into_iter().map(|(a, b, w)| (a % n, b % n, f64::from(w))).collect();
            let mut weights = graph_from(n, &edges);
            let mut adjacency = AdjacencyList::new();
            adjacency.rebuild(&weights);

            let fw_reference = reference_floyd_warshall(&weights);
            assert_matches_reference(&floyd_warshall(&weights), &fw_reference, "fw");
            let mut fw = crate::ShortestPaths::empty();
            floyd_warshall_into(&adjacency, &mut fw);
            assert_matches_reference(&fw, &fw_reference, "fw from the list");

            let dj_reference = reference_dijkstra(&weights);
            assert_matches_reference(&dijkstra_all_pairs(&weights), &dj_reference, "dijkstra");
            let mut dj = crate::ShortestPaths::empty();
            dijkstra_all_pairs_into(&adjacency, &mut DijkstraScratch::new(), &mut dj);
            assert_matches_reference(&dj, &dj_reference, "dijkstra from the list");

            let mut solved = solve(&weights);
            prop_assert_eq!(decode(solved.succ.as_slice(), n), dj_reference.1.clone());
            prop_assert_eq!(&solved.dist, &dj_reference.0);

            let mut deltas: Vec<WeightDelta> = Vec::new();
            for &(a, b, kind, w) in &batch {
                let (a, b) = (a % n, b % n);
                let old = weights[(a, b)];
                let new = match kind {
                    0 => old * 2.0,
                    1 => INFINITE_DISTANCE,
                    _ => f64::from(w),
                };
                if a != b && new != old && !deltas.iter().any(|d| (d.from, d.to) == (a as u32, b as u32)) {
                    deltas.push(WeightDelta { from: a as u32, to: b as u32, old, new });
                }
            }
            if !deltas.is_empty() {
                // Checks the repaired rows against the reference too.
                repair_all_and_check(&mut weights, &mut solved, &deltas);
            }
        }
    }
}
