//! Phase 3: routing tables — nearest-duplicate destination selection with
//! deadlock avoidance (the paper's Fig 6).

use etx_graph::{AdjacencyList, IndexPlane, Matrix, NodeId, ResolvedBackend, ShortestPaths};

use crate::SystemReport;

/// One routing-table entry: where node `n` should send a packet whose next
/// operation belongs to module `i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteEntry {
    /// The chosen destination (a live node hosting the module).
    pub destination: NodeId,
    /// The first hop out of the origin toward `destination`. Equals
    /// `destination` when the origin hosts the module itself (distance 0,
    /// no packet leaves the node).
    pub next_hop: NodeId,
    /// The phase-2 distance to `destination` (battery-weighted under EAR).
    pub distance: f64,
}

/// The phase-3 route table, struct of arrays: the router's own storage
/// and the one encoding `etx-serve` snapshots copy and answer from.
///
/// Each flat position `node * module_count + module` is one lane in
/// each of three planes: a destination-index plane and a first-hop-index
/// plane (both `u16` lanes via [`IndexPlane`]) and an `f64`
/// entry-distance plane — 12 bytes per entry instead of a 32-byte
/// `Option<RouteEntry>`, half of it padding and discriminant. A batched
/// next-hop lookup gathers from planes that stay resident in L1, and
/// queries that never read the distance never touch that plane.
///
/// The destination sentinel is the one validity mark. Every write goes
/// through one crate-private `set`, which stores an invalid entry as
/// the sentinel in both index planes and `0.0` in the distance plane,
/// so two plane sets holding equal tables compare equal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouteTablePlanes {
    dest: IndexPlane,
    next_hop: IndexPlane,
    distance: Vec<f64>,
}

impl RouteTablePlanes {
    /// Number of flat table positions covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.distance.len()
    }

    /// `true` when no positions are covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.distance.is_empty()
    }

    /// The destination-index plane ([`IndexPlane::SENTINEL`] = no
    /// route).
    #[must_use]
    pub fn dest(&self) -> &IndexPlane {
        &self.dest
    }

    /// The first-hop-index plane ([`IndexPlane::SENTINEL`] = no route).
    #[must_use]
    pub fn next_hop(&self) -> &IndexPlane {
        &self.next_hop
    }

    /// The entry-distance plane (`0.0` where no route).
    #[must_use]
    pub fn distance(&self) -> &[f64] {
        &self.distance
    }

    /// The entry at flat position `flat`; `None` for an invalid or
    /// out-of-range position.
    #[must_use]
    #[inline]
    pub fn entry(&self, flat: usize) -> Option<RouteEntry> {
        Some(RouteEntry {
            destination: NodeId::new(self.dest.get(flat)?),
            next_hop: NodeId::new(usize::from(self.next_hop.lanes()[flat])),
            distance: self.distance[flat],
        })
    }

    /// Writes the entry at flat position `flat` — the table's only
    /// write. `None` stores the sentinel in both index planes and `0.0`
    /// as the distance, the lanes a never-written position holds.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is out of range, or the entry names a node at
    /// or above [`IndexPlane::MAX_NODES`].
    #[inline]
    pub(crate) fn set(&mut self, flat: usize, entry: Option<RouteEntry>) {
        self.dest.set(flat, entry.map(|e| e.destination.index()));
        self.next_hop.set(flat, entry.map(|e| e.next_hop.index()));
        self.distance[flat] = entry.map_or(0.0, |e| e.distance);
    }

    /// Resizes to `len` positions, every one invalid, reusing the
    /// allocations when they are large enough.
    fn reset(&mut self, len: usize) {
        self.dest.reset(len);
        self.next_hop.reset(len);
        self.distance.clear();
        self.distance.resize(len, 0.0);
    }

    /// Overwrites these planes with `other`'s, reusing the allocations
    /// when they are large enough.
    fn copy_from(&mut self, other: &RouteTablePlanes) {
        self.dest.copy_from(&other.dest);
        self.next_hop.copy_from(&other.next_hop);
        self.distance.clone_from(&other.distance);
    }
}

/// The complete routing state computed by one controller invocation:
/// the phase-2 all-pairs data plus the phase-3 per-(node, module) table.
///
/// Relay nodes forward by destination using [`RoutingState::next_hop`];
/// origin nodes consult [`RoutingState::route`] to pick the destination
/// duplicate for their job's next operation.
///
/// The table is stored flat (`node * module_count + module`) as
/// [`RouteTablePlanes`], so a recompute into an existing state touches
/// three contiguous planes and performs no allocation in steady state,
/// and a published snapshot copies them as they stand
/// ([`Clone::clone_from`] refills a state in place).
#[derive(Debug)]
pub struct RoutingState {
    paths: ShortestPaths,
    /// Flat `[node × module]` table, row-major by node.
    table: RouteTablePlanes,
    modules: usize,
    /// The phase-2 backend that filled `paths`; `None` when the state
    /// was assembled outside the router. The incremental repair keeps
    /// untouched all-pairs rows as they are, which is only sound when
    /// every row came from the same deterministic Dijkstra policy.
    pub(crate) backend: Option<ResolvedBackend>,
}

/// Equality compares the routing *data* (phase-2 paths and phase-3
/// table) only; the backend provenance is excluded, so identically
/// routed states built through different entry points compare equal.
impl PartialEq for RoutingState {
    fn eq(&self, other: &Self) -> bool {
        self.paths == other.paths && self.table == other.table && self.modules == other.modules
    }
}

impl Clone for RoutingState {
    fn clone(&self) -> Self {
        RoutingState {
            paths: self.paths.clone(),
            table: self.table.clone(),
            modules: self.modules,
            backend: self.backend,
        }
    }

    /// Copies every plane in place: no heap allocation once `self` has
    /// seen `source`'s dimensions.
    fn clone_from(&mut self, source: &Self) {
        self.paths.copy_from(&source.paths);
        self.table.copy_from(&source.table);
        self.modules = source.modules;
        self.backend = source.backend;
    }
}

impl RoutingState {
    /// Builds the phase-3 table from phase-2 results.
    ///
    /// For every node `n` and module `i`, selects the live duplicate
    /// `j ∈ S_i` minimizing `D(n, j)`. When `n` is flagged deadlocked, the
    /// first hop recorded in `previous` for `(n, i)` is the blocked port
    /// the controller must redirect the job away from (paper Sec 5.3 /
    /// Fig 6 line 5): candidates are then restricted to first hops `m`
    /// other than that port, scored `W(n, m) + D(m, j)` — the cheapest
    /// unlocked detour phase 2 already paid for.
    ///
    /// `weights` is the phase-1 matrix the phase-2 result was computed
    /// from; finite off-diagonal entries are exactly the usable links
    /// (extracted once into an [`AdjacencyList`], which the detour scan
    /// walks).
    ///
    /// Unreachable or extinct modules yield `None` entries (the system is
    /// about to be declared dead by the caller).
    ///
    /// A `previous` state whose node or module count does not match the
    /// current inputs is ignored (as if `None` were passed): its table
    /// has no meaningful blocked-port entries for this system shape.
    ///
    /// # Panics
    ///
    /// Panics if the report or weight matrix cover a different number of
    /// nodes than the phase-2 result.
    #[must_use]
    pub fn build(
        paths: ShortestPaths,
        weights: &Matrix<f64>,
        module_nodes: &[Vec<NodeId>],
        report: &SystemReport,
        previous: Option<&RoutingState>,
    ) -> Self {
        let mut state = RoutingState {
            paths,
            table: RouteTablePlanes::default(),
            modules: module_nodes.len(),
            backend: None,
        };
        // The previous first hops (only deadlocked nodes read them).
        let prev_hops = previous
            .filter(|p| {
                p.module_count() == module_nodes.len() && p.node_count() == state.paths.node_count()
            })
            .map(|p| &p.table.next_hop);
        assert_eq!(
            weights.rows(),
            state.paths.node_count(),
            "weight matrix does not match phase 2"
        );
        let mut adjacency = AdjacencyList::new();
        adjacency.rebuild(weights);
        let mut dup_mask = Vec::new();
        module_masks_into(module_nodes, state.paths.node_count(), &mut dup_mask);
        state.rebuild_table(&adjacency, module_nodes, report, prev_hops, &dup_mask);
        state
    }

    /// An empty state for preallocated workspaces; fill it through
    /// [`Router::recompute_dirty_into`](crate::Router::recompute_dirty_into)
    /// before use.
    #[must_use]
    pub fn empty() -> Self {
        RoutingState {
            paths: ShortestPaths::empty(),
            table: RouteTablePlanes::default(),
            modules: 0,
            backend: None,
        }
    }

    /// Mutable access to the phase-2 data for in-place backends.
    pub(crate) fn paths_mut(&mut self) -> &mut ShortestPaths {
        &mut self.paths
    }

    /// Split borrow for the repair pipeline: mutable phase-2 data plus a
    /// read-only view of the *current* (pre-rebuild) table, so stage 2
    /// can check which entries' winning destinations were touched while
    /// it rewrites the all-pairs rows.
    pub(crate) fn paths_and_table_mut(&mut self) -> (&mut ShortestPaths, &RouteTablePlanes) {
        (&mut self.paths, &self.table)
    }

    /// Rebuilds the phase-3 table in place from the current phase-2 data
    /// (the paper's Fig 6), reusing the table planes: no allocation once
    /// the `(node, module)` dimensions have been seen.
    ///
    /// `adjacency` holds the phase-1 weights the phase-2 result was
    /// computed from (each node's usable out-links, the ports a deadlock
    /// detour may take). `prev_hops` is the first-hop plane of the
    /// previous controller invocation's table (deadlock-port
    /// avoidance); its length must be `n * module_nodes.len()` if
    /// present. `dup_mask` holds the placement's per-node module masks
    /// ([`module_masks_into`]), which let each live, non-deadlocked row
    /// fill in one pass over its distance row.
    ///
    /// # Panics
    ///
    /// Panics if the report or adjacency list cover a different number
    /// of nodes than the phase-2 result.
    pub(crate) fn rebuild_table(
        &mut self,
        adjacency: &AdjacencyList,
        module_nodes: &[Vec<NodeId>],
        report: &SystemReport,
        prev_hops: Option<&IndexPlane>,
        dup_mask: &[u64],
    ) {
        let n = self.paths.node_count();
        assert_eq!(
            n,
            report.node_count(),
            "report covers {} nodes but phase 2 covered {n}",
            report.node_count()
        );
        assert_eq!(adjacency.len(), n, "adjacency list does not match phase 2");
        let m = module_nodes.len();
        if let Some(prev) = prev_hops {
            assert_eq!(prev.lanes().len(), n * m, "previous-hop snapshot dimensions mismatch");
        }
        self.modules = m;
        self.table.reset(n * m);
        for node_idx in 0..n {
            fill_table_row(
                &self.paths,
                &mut self.table,
                node_idx,
                adjacency,
                module_nodes,
                report,
                prev_hops,
                dup_mask,
            );
        }
    }

    /// Refreshes the table row of a single node from the current phase-2
    /// data — the delta-aware stage 3: when the router knows which
    /// sources' all-pairs rows changed (and that liveness, deadlock flags
    /// and placement did not), refreshing only those rows is exactly
    /// equivalent to a full [`RoutingState::rebuild_table`]. Only sound
    /// on deadlock-free frames (no `prev_hops` detour).
    ///
    /// # Panics
    ///
    /// Panics if the table was not previously built for
    /// (`node_count`, `module_nodes.len()`) dimensions.
    pub(crate) fn rebuild_table_row(
        &mut self,
        node_idx: usize,
        adjacency: &AdjacencyList,
        module_nodes: &[Vec<NodeId>],
        report: &SystemReport,
        dup_mask: &[u64],
    ) {
        assert_eq!(
            module_nodes.len(),
            self.modules,
            "table was built for a different module count"
        );
        fill_table_row(
            &self.paths,
            &mut self.table,
            node_idx,
            adjacency,
            module_nodes,
            report,
            None,
            dup_mask,
        );
    }

    /// Refreshes a single `(node, module)` table entry — the finest
    /// grain of the delta-aware stage 3: an entry's inputs are the
    /// node's distances *to that module's duplicates* (plus liveness and
    /// deadlock flags), so when the repair pipeline knows which
    /// destinations a source's row changed for, everything else can be
    /// left untouched. Only sound on deadlock-free frames (no
    /// `prev_hops` detour).
    ///
    /// # Panics
    ///
    /// Panics if the table was not previously built for
    /// (`node_count`, `module_nodes.len()`) dimensions.
    pub(crate) fn rebuild_table_cell(
        &mut self,
        node_idx: usize,
        module: usize,
        module_nodes: &[Vec<NodeId>],
        adjacency: &AdjacencyList,
        report: &SystemReport,
    ) {
        let m = module_nodes.len();
        assert_eq!(m, self.modules, "table was built for a different module count");
        let entry = fill_table_cell(
            &self.paths,
            node_idx,
            module,
            &module_nodes[module],
            adjacency,
            report,
            None,
            m,
        );
        self.table.set(node_idx * m + module, entry);
    }

    /// Patches the masked entries of one node's table row against the
    /// just-repaired phase-2 rows by *challenging* the cached winners,
    /// in `O(marked · |improved|)` comparisons instead of the
    /// `O(marked · |S_i|)` duplicate re-scan of
    /// [`RoutingState::rebuild_table_cell`] — the churn-frame half of
    /// the delta-aware stage 3, where the marked duplicates vastly
    /// outnumber the improved ones.
    ///
    /// Soundness leans on the repair contract. Between two
    /// deadlock-free, placement-stable frames a `(node, module)` entry
    /// can change hands in exactly two ways:
    ///
    /// * the cached winner **worsened** — its distance grew, became
    ///   infinite, or the duplicate died — so a previously-losing
    ///   candidate may take over and the cell needs the full duplicate
    ///   re-scan (a died duplicate shows up here too: a dead node's
    ///   row distance is infinite);
    /// * some candidate's key got **better** — its distance shrank
    ///   (revived duplicates included: their distance drops from
    ///   infinity) — and every such node is in the repair's improved
    ///   set by construction, so challenging the improved duplicates
    ///   alone is exhaustive. A candidate whose distance grew keeps
    ///   losing; one whose key is unchanged already lost to the
    ///   cached winner's (unworsened) key.
    ///
    /// The winner check is `O(1)` because the stored entry keeps the
    /// previous frame's distance: comparing it against the current row
    /// separates "kept or improved" (refresh the fields in place — an
    /// exact-tie achiever flip keeps the distance but can re-hang the
    /// successor) from "worsened" (full re-pick). The tie-break mirrors
    /// [`fill_table_cell`]'s `(distance, lower destination id)` order
    /// bit for bit.
    ///
    /// Only sound on deadlock-free frames (no `prev_hops` detour), like
    /// the cell rebuild it specialises. `improved` must hold the
    /// repair's improved set for this node's source row; bit `i` of
    /// `dup_mask[x]` says node `x` hosts module `i`.
    ///
    /// Returns `(entries touched, entries that needed the full
    /// re-scan)`.
    ///
    /// # Panics
    ///
    /// Panics if the table was not previously built for
    /// (`node_count`, `module_nodes.len()`) dimensions.
    #[allow(clippy::too_many_arguments)] // the Fig-6 input set plus the repair's delta feed
    pub(crate) fn patch_table_row(
        &mut self,
        node_idx: usize,
        mut mask: u64,
        improved: &[u32],
        dup_mask: &[u64],
        module_nodes: &[Vec<NodeId>],
        adjacency: &AdjacencyList,
        report: &SystemReport,
    ) -> (u64, u64) {
        let m = module_nodes.len();
        assert_eq!(m, self.modules, "table was built for a different module count");
        let node = NodeId::new(node_idx);
        let (mut touched, mut full) = (0u64, 0u64);
        if !report.is_alive(node) {
            // Dead origins own all-`None` rows (the router marks a
            // liveness flip's own row for a whole-row rebuild, so this
            // is defensive, not load-bearing).
            while mask != 0 {
                let module = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                touched += 1;
                self.table.set(node_idx * m + module, None);
            }
            return (touched, full);
        }
        while mask != 0 {
            let module = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            touched += 1;
            let flat = node_idx * m + module;
            // O(1) winner check: did the cached winner worsen?
            let kept = match self.table.entry(flat) {
                // An empty cell has no winner to lose; only improved
                // candidates can fill it, and the challenge loop below
                // considers exactly those.
                None => None,
                Some(e) if e.destination == node => Some(e), // self-hosting: 0 cannot worsen
                Some(e) => match self.paths.distance(node, e.destination) {
                    Some(d) if d <= e.distance && report.is_alive(e.destination) => {
                        let next_hop = self
                            .paths
                            .successor(node, e.destination)
                            .expect("finite distance implies a successor");
                        Some(RouteEntry { destination: e.destination, next_hop, distance: d })
                    }
                    _ => {
                        // Died, worsened or unreachable: re-pick.
                        full += 1;
                        let entry = fill_table_cell(
                            &self.paths,
                            node_idx,
                            module,
                            &module_nodes[module],
                            adjacency,
                            report,
                            None,
                            m,
                        );
                        self.table.set(flat, entry);
                        continue;
                    }
                },
            };
            // Challenge round: only the improved duplicates can beat a
            // kept winner (or fill an empty cell).
            let mut best = kept;
            let module_bit = 1u64 << module;
            for &x in improved {
                let dest = NodeId::new(x as usize);
                if dup_mask[x as usize] & module_bit == 0
                    || !report.is_alive(dest)
                    || best.is_some_and(|b| b.destination == dest)
                {
                    continue;
                }
                let candidate = if dest == node {
                    RouteEntry { destination: dest, next_hop: node, distance: 0.0 }
                } else {
                    let Some(distance) = self.paths.distance(node, dest) else {
                        continue;
                    };
                    let Some(next_hop) = self.paths.successor(node, dest) else {
                        continue;
                    };
                    RouteEntry { destination: dest, next_hop, distance }
                };
                if beats(&candidate, best.as_ref()) {
                    best = Some(candidate);
                }
            }
            self.table.set(flat, best);
        }
        (touched, full)
    }

    /// Number of nodes covered.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.paths.node_count()
    }

    /// The phase-3 table planes, row-major by node (`node *
    /// module_count + module`) — the storage batched queries gather
    /// from directly.
    #[must_use]
    pub fn route_planes(&self) -> &RouteTablePlanes {
        &self.table
    }

    /// Number of modules covered.
    #[must_use]
    pub fn module_count(&self) -> usize {
        self.modules
    }

    /// The routing-table entry for packets originating at `node` whose
    /// next operation belongs to `module`; `None` if no live duplicate is
    /// reachable (or `node`/`module` is unknown).
    #[must_use]
    #[inline] // the simulator's per-job lookup, in another crate
    pub fn route(&self, node: NodeId, module: usize) -> Option<RouteEntry> {
        if module >= self.modules || node.index() >= self.node_count() {
            return None;
        }
        self.table.entry(node.index() * self.modules + module)
    }

    /// Full-path materialization: resolves `node`'s table entry for
    /// `module` and appends the complete node sequence (both endpoints
    /// included; `[node]` when self-hosted) to `out`. The entry's first
    /// hop is honoured even when it detours off the successor chain (a
    /// deadlock redirect), with the remainder walked through the
    /// successor plane. Returns the resolved entry, or `None` (with
    /// `out` untouched) when no route exists or the walk does not
    /// terminate (a corrupt successor plane; defensive guard).
    pub fn path_into(
        &self,
        node: NodeId,
        module: usize,
        out: &mut Vec<NodeId>,
    ) -> Option<RouteEntry> {
        let entry = self.route(node, module)?;
        let start = out.len();
        out.push(node);
        if entry.destination != node {
            let n = self.node_count();
            let dest = entry.destination.index();
            let succ = self.paths.successors().lanes();
            let mut cur = entry.next_hop;
            out.push(cur);
            let mut hops = 1usize;
            while cur != entry.destination {
                if cur.index() >= n {
                    out.truncate(start);
                    return None;
                }
                let next = succ[cur.index() * n + dest];
                if next == IndexPlane::SENTINEL {
                    out.truncate(start);
                    return None;
                }
                cur = NodeId::new(usize::from(next));
                out.push(cur);
                hops += 1;
                if hops > n {
                    out.truncate(start);
                    return None;
                }
            }
        }
        Some(entry)
    }

    /// The relay decision: the next hop out of `from` toward destination
    /// `to`, from the phase-2 successor matrix.
    #[must_use]
    pub fn next_hop(&self, from: NodeId, to: NodeId) -> Option<NodeId> {
        if from == to {
            Some(to)
        } else {
            self.paths.successor(from, to)
        }
    }

    /// The phase-2 (weighted) distance between two nodes.
    #[must_use]
    pub fn distance(&self, from: NodeId, to: NodeId) -> Option<f64> {
        self.paths.distance(from, to)
    }

    /// The full phase-2 result, for diagnostics.
    #[must_use]
    pub fn paths(&self) -> &ShortestPaths {
        &self.paths
    }
}

/// Writes the per-node module masks of a placement into `out`: bit `m`
/// of `out[x]` says node `x` hosts module `m`. Only placements of at
/// most 64 modules have masks; larger ones leave `out` empty, and every
/// consumer then falls back to per-module duplicate scans.
pub(crate) fn module_masks_into(module_nodes: &[Vec<NodeId>], n: usize, out: &mut Vec<u64>) {
    out.clear();
    if module_nodes.len() > 64 {
        return;
    }
    out.resize(n, 0);
    for (m, hosts) in module_nodes.iter().enumerate() {
        for &host in hosts {
            if host.index() < n {
                out[host.index()] |= 1u64 << m;
            }
        }
    }
}

/// `true` when `candidate` beats `best` in the table's `(distance, lower
/// destination id)` order; an exact tie on both keeps `best`.
fn beats(candidate: &RouteEntry, best: Option<&RouteEntry>) -> bool {
    best.is_none_or(|b| {
        candidate.distance < b.distance
            || (candidate.distance == b.distance && candidate.destination < b.destination)
    })
}

/// Fills one node's table row (the paper's Fig 6 body for a single
/// origin): for every module, the nearest live duplicate by phase-2
/// distance, with the deadlock-port detour scan when the node is flagged.
/// Dead origins get all-`None` rows.
///
/// A live, non-deadlocked row with module masks takes one pass over the
/// node's distance row ([`fill_row_one_pass`]); a deadlocked row with a
/// previous table takes the detour fill ([`fill_detour_row`]); anything
/// else (more than 64 modules) fills cell by cell.
#[allow(clippy::too_many_arguments)] // the Fig-6 input set plus the placement masks
fn fill_table_row(
    paths: &ShortestPaths,
    table: &mut RouteTablePlanes,
    node_idx: usize,
    adjacency: &AdjacencyList,
    module_nodes: &[Vec<NodeId>],
    report: &SystemReport,
    prev_hops: Option<&IndexPlane>,
    dup_mask: &[u64],
) {
    let node = NodeId::new(node_idx);
    let m = module_nodes.len();
    if !report.is_alive(node) {
        for module in 0..m {
            table.set(node_idx * m + module, None);
        }
        return;
    }
    if let Some(prev) = prev_hops.filter(|_| report.is_deadlocked(node)) {
        fill_detour_row(paths, table, node_idx, adjacency, module_nodes, report, prev);
    } else if dup_mask.len() == paths.node_count() {
        fill_row_one_pass(paths, table, node_idx, m, report, dup_mask);
    } else {
        for (module, duplicates) in module_nodes.iter().enumerate() {
            let entry =
                fill_table_cell(paths, node_idx, module, duplicates, adjacency, report, None, m);
            table.set(node_idx * m + module, entry);
        }
    }
}

/// The live, non-deadlocked row of `node_idx` (`m` modules wide) in one
/// ascending pass over its distance row: every live host `x` (a set bit
/// in `dup_mask[x]`) offers one entry to each module it hosts, and each
/// cell keeps the lowest `(distance, id)` — ascending ids make a later
/// exact tie lose, which is [`fill_table_cell`]'s lower-id tie-break.
/// The row itself is the per-module accumulator, so the pass allocates
/// nothing.
fn fill_row_one_pass(
    paths: &ShortestPaths,
    table: &mut RouteTablePlanes,
    node_idx: usize,
    m: usize,
    report: &SystemReport,
    dup_mask: &[u64],
) {
    let base = node_idx * m;
    for module in 0..m {
        table.set(base + module, None);
    }
    let (dist_row, succ_row) = paths.source_rows(NodeId::new(node_idx));
    for (x, &hosted) in dup_mask.iter().enumerate() {
        if hosted == 0 {
            continue;
        }
        // Self-hosting: distance 0, and no packet leaves the node.
        let distance = if x == node_idx { 0.0 } else { dist_row[x] };
        let dest = NodeId::new(x);
        if !distance.is_finite() || !report.is_alive(dest) {
            continue;
        }
        let mut bits = hosted;
        while bits != 0 {
            let flat = base + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if table.entry(flat).is_none_or(|best| distance < best.distance) {
                // The first hop is read only when the candidate wins.
                let next_hop = match succ_row[x] {
                    _ if x == node_idx => dest,
                    IndexPlane::SENTINEL => break,
                    hop => NodeId::new(usize::from(hop)),
                };
                table.set(flat, Some(RouteEntry { destination: dest, next_hop, distance }));
            }
        }
    }
}

/// The row of a deadlocked `node_idx`. Cells without a blocked port (no
/// previous first hop) take the plain nearest-duplicate pick. A blocked
/// cell starts from its self-hosting entry, if any, and then scans the
/// node's usable out-links once for the whole row: each link other than
/// the cell's blocked port offers `W(n, hop) + D(hop, j)` to every live
/// duplicate `j`. Links come in ascending id, so among exact `(distance,
/// destination)` ties the lowest hop wins — the same pick as
/// [`fill_table_cell`]'s per-duplicate detour scan, at one pass over the
/// node's `O(degree)` out-links instead of one per duplicate.
fn fill_detour_row(
    paths: &ShortestPaths,
    table: &mut RouteTablePlanes,
    node_idx: usize,
    adjacency: &AdjacencyList,
    module_nodes: &[Vec<NodeId>],
    report: &SystemReport,
    prev_hops: &IndexPlane,
) {
    let m = module_nodes.len();
    let node = NodeId::new(node_idx);
    let base = node_idx * m;
    let blocked = |module: usize| prev_hops.get(base + module).map(NodeId::new);
    for (module, duplicates) in module_nodes.iter().enumerate() {
        let entry = if blocked(module).is_none() {
            fill_table_cell(paths, node_idx, module, duplicates, adjacency, report, None, m)
        } else {
            duplicates.contains(&node).then_some(RouteEntry {
                destination: node,
                next_hop: node,
                distance: 0.0,
            })
        };
        table.set(base + module, entry);
    }
    for &(hop_idx, w) in adjacency.neighbors(node_idx) {
        let hop = NodeId::new(hop_idx);
        for (module, duplicates) in module_nodes.iter().enumerate() {
            if blocked(module).is_none_or(|port| port == hop) {
                continue;
            }
            for &dest in duplicates {
                if dest == node || !report.is_alive(dest) {
                    continue;
                }
                let Some(rest) = paths.distance(hop, dest) else {
                    continue;
                };
                let candidate = RouteEntry { destination: dest, next_hop: hop, distance: w + rest };
                if beats(&candidate, table.entry(base + module).as_ref()) {
                    table.set(base + module, Some(candidate));
                }
            }
        }
    }
}

/// The entry of one `(node, module)` cell: the nearest live duplicate
/// of `module` by phase-2 distance (deterministic lower-id tie-break),
/// with the deadlock-port detour scan when the node is flagged. A dead
/// origin yields `None`.
#[allow(clippy::too_many_arguments)] // the full Fig-6 input set for one cell
fn fill_table_cell(
    paths: &ShortestPaths,
    node_idx: usize,
    module: usize,
    duplicates: &[NodeId],
    adjacency: &AdjacencyList,
    report: &SystemReport,
    prev_hops: Option<&IndexPlane>,
    module_count: usize,
) -> Option<RouteEntry> {
    let node = NodeId::new(node_idx);
    if !report.is_alive(node) {
        return None;
    }
    // A deadlocked node must be steered off the port its previous table
    // used for this module.
    let blocked_port = if report.is_deadlocked(node) {
        prev_hops.and_then(|prev| prev.get(node_idx * module_count + module)).map(NodeId::new)
    } else {
        None
    };
    let mut best: Option<RouteEntry> = None;
    let consider = |candidate: RouteEntry, best: &mut Option<RouteEntry>| {
        if beats(&candidate, best.as_ref()) {
            *best = Some(candidate);
        }
    };
    for &dest in duplicates {
        if !report.is_alive(dest) {
            continue;
        }
        if dest == node {
            // Self-hosting: no packet leaves the node, so no port can be
            // blocked.
            consider(RouteEntry { destination: dest, next_hop: node, distance: 0.0 }, &mut best);
            continue;
        }
        match blocked_port {
            None => {
                let Some(distance) = paths.distance(node, dest) else {
                    continue;
                };
                let Some(next_hop) = paths.successor(node, dest) else {
                    continue;
                };
                consider(RouteEntry { destination: dest, next_hop, distance }, &mut best);
            }
            Some(blocked) => {
                // Detour scan: first hop over any usable out-link except
                // the blocked port, in ascending id.
                for &(hop_idx, w) in adjacency.neighbors(node_idx) {
                    let hop = NodeId::new(hop_idx);
                    if hop == blocked {
                        continue;
                    }
                    let Some(rest) = paths.distance(hop, dest) else {
                        continue;
                    };
                    consider(
                        RouteEntry { destination: dest, next_hop: hop, distance: w + rest },
                        &mut best,
                    );
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ear_weights, sdr_weights, Algorithm, BatteryWeighting, Router, RoutingScratch};
    use etx_graph::{dijkstra_all_pairs, floyd_warshall, topology, DiGraph};
    use etx_units::Length;
    use proptest::prelude::*;

    fn cm(v: f64) -> Length {
        Length::from_centimetres(v)
    }

    fn build_line(
        module_nodes: &[Vec<NodeId>],
        report: &SystemReport,
        previous: Option<&RoutingState>,
    ) -> RoutingState {
        let g = topology::line(4, cm(1.0));
        let w = ear_weights(&g, report, &BatteryWeighting::default());
        RoutingState::build(floyd_warshall(&w), &w, module_nodes, report, previous)
    }

    #[test]
    fn picks_nearest_duplicate() {
        // Module 0 hosted at nodes 0 and 3 of a 4-line.
        let modules = vec![vec![NodeId::new(0), NodeId::new(3)]];
        let report = SystemReport::fresh(4, 16);
        let rs = build_line(&modules, &report, None);
        // Node 1 is nearer to 0; node 2 nearer to 3.
        assert_eq!(rs.route(NodeId::new(1), 0).unwrap().destination, NodeId::new(0));
        assert_eq!(rs.route(NodeId::new(2), 0).unwrap().destination, NodeId::new(3));
        // Self-hosting: destination and next hop are the node itself.
        let own = rs.route(NodeId::new(0), 0).unwrap();
        assert_eq!(own.destination, NodeId::new(0));
        assert_eq!(own.next_hop, NodeId::new(0));
        assert_eq!(own.distance, 0.0);
    }

    #[test]
    fn ties_break_toward_lower_node_id() {
        let modules = vec![vec![NodeId::new(0), NodeId::new(2)]];
        let report = SystemReport::fresh(3, 16);
        let g = topology::line(3, cm(1.0));
        let w = ear_weights(&g, &report, &BatteryWeighting::default());
        let rs = RoutingState::build(floyd_warshall(&w), &w, &modules, &report, None);
        // Node 1 is equidistant; deterministic tie-break to node 0.
        assert_eq!(rs.route(NodeId::new(1), 0).unwrap().destination, NodeId::new(0));
    }

    #[test]
    fn dead_duplicates_are_skipped() {
        let modules = vec![vec![NodeId::new(0), NodeId::new(3)]];
        let mut report = SystemReport::fresh(4, 16);
        report.set_dead(NodeId::new(0));
        let rs = build_line(&modules, &report, None);
        assert_eq!(rs.route(NodeId::new(1), 0).unwrap().destination, NodeId::new(3));
    }

    #[test]
    fn extinct_module_yields_none() {
        let modules = vec![vec![NodeId::new(0)]];
        let mut report = SystemReport::fresh(4, 16);
        report.set_dead(NodeId::new(0));
        let rs = build_line(&modules, &report, None);
        assert!(rs.route(NodeId::new(1), 0).is_none());
    }

    #[test]
    fn unreachable_duplicate_yields_none() {
        // Node 1 dead partitions the 4-line; node 3's only module-0 host
        // (node 0) becomes unreachable.
        let modules = vec![vec![NodeId::new(0)]];
        let mut report = SystemReport::fresh(4, 16);
        report.set_dead(NodeId::new(1));
        let rs = build_line(&modules, &report, None);
        assert!(rs.route(NodeId::new(3), 0).is_none());
        // Node 0 still routes to itself.
        assert!(rs.route(NodeId::new(0), 0).is_some());
    }

    #[test]
    fn deadlocked_node_redirects_away_from_blocked_port() {
        // Diamond: 0 -> 1 -> 3 and 0 -> 2 -> 3, module at 3.
        let mut g = DiGraph::new(4);
        g.add_edge_bidirectional(NodeId::new(0), NodeId::new(1), cm(1.0)).unwrap();
        g.add_edge_bidirectional(NodeId::new(1), NodeId::new(3), cm(1.0)).unwrap();
        g.add_edge_bidirectional(NodeId::new(0), NodeId::new(2), cm(2.0)).unwrap();
        g.add_edge_bidirectional(NodeId::new(2), NodeId::new(3), cm(2.0)).unwrap();
        let modules = vec![vec![NodeId::new(3)]];

        let report = SystemReport::fresh(4, 16);
        let w = ear_weights(&g, &report, &BatteryWeighting::default());
        let first = RoutingState::build(floyd_warshall(&w), &w, &modules, &report, None);
        assert_eq!(first.route(NodeId::new(0), 0).unwrap().next_hop, NodeId::new(1));

        // Node 0 reports a deadlock: its previous port (toward 1) must be
        // avoided in the recomputation.
        let mut stuck = report.clone();
        stuck.set_deadlocked(NodeId::new(0), true);
        let w = ear_weights(&g, &stuck, &BatteryWeighting::default());
        let second = RoutingState::build(floyd_warshall(&w), &w, &modules, &stuck, Some(&first));
        assert_eq!(second.route(NodeId::new(0), 0).unwrap().next_hop, NodeId::new(2));
        // Other nodes are unaffected.
        assert_eq!(second.route(NodeId::new(1), 0).unwrap().next_hop, NodeId::new(3));
    }

    #[test]
    fn next_hop_walks_toward_destination() {
        let modules = vec![vec![NodeId::new(3)]];
        let report = SystemReport::fresh(4, 16);
        let rs = build_line(&modules, &report, None);
        let mut cur = NodeId::new(0);
        let dest = NodeId::new(3);
        let mut hops = 0;
        while cur != dest {
            cur = rs.next_hop(cur, dest).unwrap();
            hops += 1;
            assert!(hops <= 4, "walk did not terminate");
        }
        assert_eq!(hops, 3);
        assert_eq!(rs.next_hop(dest, dest), Some(dest));
    }

    #[test]
    fn dimensions() {
        let modules = vec![vec![NodeId::new(0)], vec![NodeId::new(1)]];
        let report = SystemReport::fresh(4, 16);
        let rs = build_line(&modules, &report, None);
        assert_eq!(rs.node_count(), 4);
        assert_eq!(rs.module_count(), 2);
        assert!(rs.route(NodeId::new(9), 0).is_none());
        assert!(rs.route(NodeId::new(0), 9).is_none());
        assert!(rs.distance(NodeId::new(0), NodeId::new(3)).is_some());
        assert_eq!(rs.paths().node_count(), 4);
    }

    /// The reference row: one [`fill_table_cell`] call per module.
    fn per_cell_row(
        paths: &ShortestPaths,
        node_idx: usize,
        adjacency: &AdjacencyList,
        module_nodes: &[Vec<NodeId>],
        report: &SystemReport,
        prev_hops: Option<&IndexPlane>,
    ) -> Vec<Option<RouteEntry>> {
        let m = module_nodes.len();
        (0..m)
            .map(|module| {
                let duplicates = &module_nodes[module];
                fill_table_cell(
                    paths, node_idx, module, duplicates, adjacency, report, prev_hops, m,
                )
            })
            .collect()
    }

    /// Row `node_idx` of an `m`-module table, read back from the planes.
    fn row_of(table: &RouteTablePlanes, node_idx: usize, m: usize) -> Vec<Option<RouteEntry>> {
        (0..m).map(|module| table.entry(node_idx * m + module)).collect()
    }

    /// Empty planes of `len` positions, every one invalid.
    fn planes(len: usize) -> RouteTablePlanes {
        let mut table = RouteTablePlanes::default();
        table.reset(len);
        table
    }

    /// The first-hop plane encoding of a test-local `Option<NodeId>`
    /// previous-hop list.
    fn hop_plane(hops: &[Option<NodeId>]) -> IndexPlane {
        let mut plane = IndexPlane::new();
        plane.reset(hops.len());
        for (i, hop) in hops.iter().enumerate() {
            plane.set(i, hop.map(NodeId::index));
        }
        plane
    }

    fn adjacency_of(weights: &Matrix<f64>) -> AdjacencyList {
        let mut adjacency = AdjacencyList::new();
        adjacency.rebuild(weights);
        adjacency
    }

    /// [`fill_table_cell`] as it stood with a dense weight matrix: the
    /// detour scan walks the node's whole weight row (`O(K)`) and skips
    /// the diagonal and infinite entries. The reference twin of the
    /// out-link walk.
    #[allow(clippy::too_many_arguments)]
    fn dense_row_cell(
        paths: &ShortestPaths,
        node_idx: usize,
        module: usize,
        duplicates: &[NodeId],
        weights: &Matrix<f64>,
        report: &SystemReport,
        prev_hops: Option<&[Option<NodeId>]>,
        module_count: usize,
    ) -> Option<RouteEntry> {
        let n = paths.node_count();
        let node = NodeId::new(node_idx);
        if !report.is_alive(node) {
            return None;
        }
        let blocked_port = if report.is_deadlocked(node) {
            prev_hops.and_then(|prev| prev[node_idx * module_count + module])
        } else {
            None
        };
        let mut best: Option<RouteEntry> = None;
        let mut consider = |candidate: RouteEntry| {
            if beats(&candidate, best.as_ref()) {
                best = Some(candidate);
            }
        };
        for &dest in duplicates {
            if !report.is_alive(dest) {
                continue;
            }
            if dest == node {
                consider(RouteEntry { destination: dest, next_hop: node, distance: 0.0 });
                continue;
            }
            match blocked_port {
                None => {
                    let (Some(distance), Some(next_hop)) =
                        (paths.distance(node, dest), paths.successor(node, dest))
                    else {
                        continue;
                    };
                    consider(RouteEntry { destination: dest, next_hop, distance });
                }
                Some(blocked) => {
                    for hop_idx in 0..n {
                        let hop = NodeId::new(hop_idx);
                        let w = weights[(node_idx, hop_idx)];
                        if hop == node || hop == blocked || !w.is_finite() {
                            continue;
                        }
                        let Some(rest) = paths.distance(hop, dest) else {
                            continue;
                        };
                        consider(RouteEntry {
                            destination: dest,
                            next_hop: hop,
                            distance: w + rest,
                        });
                    }
                }
            }
        }
        best
    }

    /// [`fill_detour_row`] as it stood with a dense weight matrix: one
    /// pass over the node's whole weight row.
    fn dense_row_detour(
        paths: &ShortestPaths,
        node_idx: usize,
        weights: &Matrix<f64>,
        module_nodes: &[Vec<NodeId>],
        report: &SystemReport,
        prev_hops: &[Option<NodeId>],
    ) -> Vec<Option<RouteEntry>> {
        let m = module_nodes.len();
        let node = NodeId::new(node_idx);
        let blocked = &prev_hops[node_idx * m..(node_idx + 1) * m];
        let mut row: Vec<Option<RouteEntry>> = module_nodes
            .iter()
            .enumerate()
            .map(|(module, duplicates)| {
                if blocked[module].is_none() {
                    dense_row_cell(paths, node_idx, module, duplicates, weights, report, None, m)
                } else {
                    duplicates.contains(&node).then_some(RouteEntry {
                        destination: node,
                        next_hop: node,
                        distance: 0.0,
                    })
                }
            })
            .collect();
        for (hop_idx, &w) in weights.row_slice(node_idx).iter().enumerate() {
            if hop_idx == node_idx || !w.is_finite() {
                continue;
            }
            let hop = NodeId::new(hop_idx);
            for (module, duplicates) in module_nodes.iter().enumerate() {
                if blocked[module].is_none_or(|port| port == hop) {
                    continue;
                }
                for &dest in duplicates {
                    if dest == node || !report.is_alive(dest) {
                        continue;
                    }
                    let Some(rest) = paths.distance(hop, dest) else {
                        continue;
                    };
                    let candidate =
                        RouteEntry { destination: dest, next_hop: hop, distance: w + rest };
                    if beats(&candidate, row[module].as_ref()) {
                        row[module] = Some(candidate);
                    }
                }
            }
        }
        row
    }

    #[test]
    fn one_pass_row_keeps_the_lower_id_on_exact_ties() {
        // Node 1 of a 3-line sits exactly between the two duplicates.
        let modules = vec![vec![NodeId::new(2), NodeId::new(0)], vec![NodeId::new(1)]];
        let report = SystemReport::fresh(3, 16);
        let g = topology::line(3, cm(1.0));
        let w = sdr_weights(&g, &report);
        let paths = floyd_warshall(&w);
        let mut masks = Vec::new();
        module_masks_into(&modules, 3, &mut masks);
        let mut table = planes(3 * 2);
        fill_row_one_pass(&paths, &mut table, 1, 2, &report, &masks);
        let row = row_of(&table, 1, 2);
        assert_eq!(row[0].unwrap().destination, NodeId::new(0));
        assert_eq!(
            row[1].unwrap(),
            RouteEntry { destination: NodeId::new(1), next_hop: NodeId::new(1), distance: 0.0 }
        );
        assert_eq!(row, per_cell_row(&paths, 1, &adjacency_of(&w), &modules, &report, None));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The one-pass row fill and the out-link detour fill against
        /// per-cell [`fill_table_cell`], row by row, on random digraphs
        /// (one-way edges, small integer lengths for exact distance
        /// ties) with dead and unreachable duplicates, self-hosted
        /// modules, nodes hosting two modules, deadlocked rows and
        /// random previous ports.
        #[test]
        fn row_fills_equal_per_cell_fills(
            n in 2usize..10,
            edges in proptest::collection::vec((0usize..10, 0usize..10, 1u32..4, any::<bool>()), 0..30),
            hosts in proptest::collection::vec((0usize..10, 0usize..4), 1..16),
            dead in proptest::collection::vec(0usize..10, 0..3),
            deadlocked in proptest::collection::vec(0usize..10, 0..4),
            ports in proptest::collection::vec(0usize..11, 40),
            levels in proptest::collection::vec(0u32..16, 10),
            ear in any::<bool>(),
            dijkstra in any::<bool>(),
        ) {
            let mut g = DiGraph::new(n);
            for (a, b, len, both) in edges {
                let (a, b) = (NodeId::new(a % n), NodeId::new(b % n));
                if a != b {
                    g.add_edge(a, b, cm(f64::from(len))).unwrap();
                    if both {
                        g.add_edge(b, a, cm(f64::from(len))).unwrap();
                    }
                }
            }
            // Four modules; a host may carry several, list one twice, or
            // be dead.
            let mut modules = vec![Vec::new(); 4];
            for (host, module) in hosts {
                modules[module].push(NodeId::new(host % n));
            }
            let mut report = SystemReport::fresh(n, 16);
            for (i, &level) in levels.iter().take(n).enumerate() {
                report.set_battery_level(NodeId::new(i), level);
            }
            for &d in &dead {
                report.set_dead(NodeId::new(d % n));
            }
            for &d in &deadlocked {
                if report.is_alive(NodeId::new(d % n)) {
                    report.set_deadlocked(NodeId::new(d % n), true);
                }
            }
            let w = if ear {
                ear_weights(&g, &report, &BatteryWeighting::default())
            } else {
                sdr_weights(&g, &report)
            };
            let paths = if dijkstra { dijkstra_all_pairs(&w) } else { floyd_warshall(&w) };
            // Previous first hops: any node, or none (`n`).
            let prev: Vec<Option<NodeId>> = (0..n * 4)
                .map(|i| {
                    let p = ports[i % ports.len()] % (n + 1);
                    (p < n).then(|| NodeId::new(p))
                })
                .collect();
            let prev = hop_plane(&prev);
            let adjacency = adjacency_of(&w);
            let mut masks = Vec::new();
            module_masks_into(&modules, n, &mut masks);
            for prev_hops in [None, Some(&prev)] {
                let mut table = planes(n * 4);
                for node_idx in 0..n {
                    fill_table_row(
                        &paths, &mut table, node_idx, &adjacency, &modules, &report, prev_hops,
                        &masks,
                    );
                    let expected =
                        per_cell_row(&paths, node_idx, &adjacency, &modules, &report, prev_hops);
                    prop_assert_eq!(row_of(&table, node_idx, 4), expected, "node {}", node_idx);
                }
            }
        }

        /// Deadlocked rows and cells filled over the node's out-links
        /// equal the dense-row detour scans they replaced, on random
        /// digraphs (one-way edges, dead endpoints, exact distance ties)
        /// with random blocked ports — including ports that are not
        /// links and links to dead neighbours.
        #[test]
        fn out_link_detours_equal_dense_row_scans(
            n in 2usize..10,
            edges in proptest::collection::vec((0usize..10, 0usize..10, 1u32..4, any::<bool>()), 0..30),
            hosts in proptest::collection::vec((0usize..10, 0usize..3), 1..12),
            dead in proptest::collection::vec(0usize..10, 0..3),
            ports in proptest::collection::vec(0usize..11, 30),
            levels in proptest::collection::vec(0u32..16, 10),
            ear in any::<bool>(),
        ) {
            let mut g = DiGraph::new(n);
            for (a, b, len, both) in edges {
                let (a, b) = (NodeId::new(a % n), NodeId::new(b % n));
                if a != b {
                    g.add_edge(a, b, cm(f64::from(len))).unwrap();
                    if both {
                        g.add_edge(b, a, cm(f64::from(len))).unwrap();
                    }
                }
            }
            let mut modules = vec![Vec::new(); 3];
            for (host, module) in hosts {
                modules[module].push(NodeId::new(host % n));
            }
            let mut report = SystemReport::fresh(n, 16);
            for (i, &level) in levels.iter().take(n).enumerate() {
                report.set_battery_level(NodeId::new(i), level);
            }
            for &d in &dead {
                report.set_dead(NodeId::new(d % n));
            }
            for i in 0..n {
                if report.is_alive(NodeId::new(i)) {
                    report.set_deadlocked(NodeId::new(i), true);
                }
            }
            let w = if ear {
                ear_weights(&g, &report, &BatteryWeighting::default())
            } else {
                sdr_weights(&g, &report)
            };
            let adjacency = adjacency_of(&w);
            let paths = dijkstra_all_pairs(&w);
            let prev: Vec<Option<NodeId>> = (0..n * 3)
                .map(|i| {
                    let p = ports[i % ports.len()] % (n + 1);
                    (p < n).then(|| NodeId::new(p))
                })
                .collect();
            let prev_plane = hop_plane(&prev);
            let mut table = planes(n * 3);
            for node_idx in 0..n {
                if report.is_alive(NodeId::new(node_idx)) {
                    fill_detour_row(
                        &paths, &mut table, node_idx, &adjacency, &modules, &report, &prev_plane,
                    );
                    let dense = dense_row_detour(&paths, node_idx, &w, &modules, &report, &prev);
                    prop_assert_eq!(row_of(&table, node_idx, 3), dense, "detour row {}", node_idx);
                }
                for (module, duplicates) in modules.iter().enumerate() {
                    let cell = fill_table_cell(
                        &paths, node_idx, module, duplicates, &adjacency, &report,
                        Some(&prev_plane), 3,
                    );
                    let dense = dense_row_cell(
                        &paths, node_idx, module, duplicates, &w, &report, Some(&prev), 3,
                    );
                    prop_assert_eq!(cell, dense, "detour cell ({}, {})", node_idx, module);
                }
            }
        }
    }

    #[test]
    fn route_planes_reconstruct_every_entry() {
        // A table with live entries, a `None` row (dead node) and an
        // extinct module column exercises every plane lane.
        let modules = vec![vec![NodeId::new(0), NodeId::new(3)], vec![NodeId::new(2)]];
        let mut report = SystemReport::fresh(4, 16);
        report.set_dead(NodeId::new(2));
        let rs = build_line(&modules, &report, None);

        // The planes `rebuild_table` wrote hold the per-cell picks.
        let g = topology::line(4, cm(1.0));
        let w = ear_weights(&g, &report, &BatteryWeighting::default());
        let adjacency = adjacency_of(&w);
        let planes = rs.route_planes();
        assert_eq!(planes.len(), 4 * 2);
        for node_idx in 0..4 {
            let want = per_cell_row(rs.paths(), node_idx, &adjacency, &modules, &report, None);
            for (module, expected) in want.into_iter().enumerate() {
                let flat = node_idx * 2 + module;
                assert_eq!(planes.entry(flat), expected, "flat position {flat}");
                assert_eq!(rs.route(NodeId::new(node_idx), module), expected);
                if expected.is_none() {
                    assert_eq!(planes.dest().lanes()[flat], IndexPlane::SENTINEL);
                    assert_eq!(planes.next_hop().lanes()[flat], IndexPlane::SENTINEL);
                    assert_eq!(planes.distance()[flat].to_bits(), 0.0f64.to_bits());
                }
            }
        }
        assert!(planes.dest().lanes().contains(&IndexPlane::SENTINEL), "some entry is invalid");
        assert_eq!(planes.entry(planes.len()), None, "out of range reads as absent");

        // An in-place refill from another state copies the planes
        // exactly and keeps their allocations.
        let mut copy = RoutingState::empty();
        copy.clone_from(&build_line(&modules, &SystemReport::fresh(4, 16), None));
        let capacity = copy.table.distance.capacity();
        copy.clone_from(&rs);
        assert_eq!(copy, rs);
        assert_eq!(copy.route_planes(), planes);
        assert_eq!(copy.table.distance.capacity(), capacity, "refill reuses the allocation");
    }

    #[test]
    fn cleared_entries_equal_never_written_ones() {
        let entry =
            RouteEntry { destination: NodeId::new(7), next_hop: NodeId::new(3), distance: 2.5 };
        let mut table = planes(3);
        let fresh = table.clone();
        table.set(1, Some(entry));
        assert_eq!(table.entry(1), Some(entry));
        assert_ne!(table, fresh);
        table.set(1, None);
        assert_eq!(table, fresh, "a cleared entry leaves no stale lane");
        assert_eq!(table.dest().lanes(), &[IndexPlane::SENTINEL; 3]);
        assert_eq!(table.next_hop().lanes(), &[IndexPlane::SENTINEL; 3]);
        assert!(table.distance().iter().all(|d| d.to_bits() == 0.0f64.to_bits()));
        assert_eq!(table.entry(1), None);
    }

    #[test]
    fn delta_patched_tables_equal_full_rebuilds() {
        // An 8x8 EAR fabric advanced through the repair pipeline's
        // cell patches and row rebuilds (drains, a death, a revival)
        // holds byte-identical planes to a fresh full rebuild.
        let graph = topology::Mesh2D::square(8, cm(2.05)).to_graph();
        let k = graph.node_count();
        let modules: Vec<Vec<NodeId>> =
            (0..3).map(|m| (m..k).step_by(3).map(NodeId::new).collect()).collect();
        let router = Router::new(Algorithm::Ear);
        let mut report = SystemReport::fresh(k, 16);
        let mut scratch = RoutingScratch::new();
        let mut state = RoutingState::empty();
        router.recompute_dirty_into(&graph, &modules, &report, &[], &mut scratch, &mut state);
        for frame in 0..12usize {
            let node = NodeId::new((frame * 7 + 3) % k);
            match frame {
                5 => report.set_dead(node),
                9 => report.revive(NodeId::new((5 * 7 + 3) % k), 15),
                _ => report.set_battery_level(node, report.battery_level(node).saturating_sub(3)),
            }
            let dirty = if frame == 9 { NodeId::new((5 * 7 + 3) % k) } else { node };
            router.recompute_dirty_into(
                &graph,
                &modules,
                &report,
                &[dirty],
                &mut scratch,
                &mut state,
            );
            let rebuilt = router.compute(&graph, &modules, &report, None);
            assert_eq!(state.route_planes(), rebuilt.route_planes(), "frame {frame}");
            assert_eq!(state, rebuilt, "frame {frame}");
        }
        let stats = scratch.stats();
        assert_eq!(stats.full_recomputes, 1, "{stats:?}");
        assert!(stats.table_cells_patched > 0, "the challenge patch must engage: {stats:?}");
    }

    fn ring_state(k: usize) -> RoutingState {
        let graph = topology::ring(k, cm(1.0));
        let modules = vec![vec![NodeId::new(0), NodeId::new(k / 2)]];
        Router::new(Algorithm::Ear).compute(&graph, &modules, &SystemReport::fresh(k, 16), None)
    }

    #[test]
    fn path_walks_to_the_chosen_duplicate() {
        let state = ring_state(6);
        let mut path = Vec::new();
        let entry = state.path_into(NodeId::new(1), 0, &mut path).expect("route exists");
        assert_eq!(path.first(), Some(&NodeId::new(1)));
        assert_eq!(path.last(), Some(&entry.destination));
        assert_eq!(path[1], entry.next_hop);
        for pair in path.windows(2).skip(1) {
            assert_eq!(state.next_hop(pair[0], entry.destination), Some(pair[1]));
        }
        // Appends after what the buffer already holds.
        let len = path.len();
        let again = state.path_into(NodeId::new(2), 0, &mut path).expect("route exists");
        assert_eq!(path[len], NodeId::new(2));
        assert_eq!(path.last(), Some(&again.destination));
        // Self-hosted: single-node path.
        path.clear();
        let own = state.path_into(NodeId::new(0), 0, &mut path).expect("self route");
        assert_eq!(own.destination, NodeId::new(0));
        assert_eq!(path, vec![NodeId::new(0)]);
    }

    #[test]
    fn out_of_range_queries_are_none() {
        let state = ring_state(4);
        let (n, m) = (state.node_count(), state.module_count());
        let mut path = vec![NodeId::new(1)];
        for node in [n, n + 1, (1 << 24) - 1, 1 << 24, (1 << 24) + 1] {
            let node = NodeId::new(node);
            assert!(state.route(node, 0).is_none(), "node {node}");
            assert!(state.path_into(node, 0, &mut path).is_none(), "node {node}");
        }
        for module in [m, m + 1, 9, (1 << 24) - 1, 1 << 24] {
            assert!(state.route(NodeId::new(0), module).is_none(), "module {module}");
            assert!(state.path_into(NodeId::new(0), module, &mut path).is_none());
        }
        assert_eq!(path, vec![NodeId::new(1)], "a miss leaves the buffer untouched");
        assert!(RoutingState::empty().route(NodeId::new(0), 0).is_none());
    }
}
