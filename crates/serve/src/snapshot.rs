//! [`TableSnapshot`]: one immutable, epoch-numbered copy of a fabric's
//! routing tables, repacked as struct-of-arrays planes.
//!
//! # Plane layout
//!
//! The producing [`RoutingState`] is array-of-structs: a flat
//! `Vec<Option<RouteEntry>>` whose 32-byte elements interleave
//! destination, first hop and distance — every lookup drags all of them
//! (plus `Option` padding) through cache. A snapshot splits that table
//! into four parallel planes, indexed by the same flat position
//! `node * module_count + module`:
//!
//! ```text
//! AoS  table[flat] : [ dest | next_hop | distance | Option pad ]  32 B
//!                              ⇣ fill_from (one pass, in place)
//! SoA  dest      u16 ┆ u16 ┆ u16 ┆ …   (sentinel = no route)      2 B/entry
//!      next_hop  u16 ┆ u16 ┆ u16 ┆ …                              2 B/entry
//!      distance  f64 ┆ f64 ┆ f64 ┆ …   (0.0 where invalid)        8 B/entry
//!      valid     word-packed bitset                               1 bit/entry
//! ```
//!
//! The phase-2 data is already in plane form in the router: distances
//! are one contiguous `f64` plane (cost queries touch nothing else) and
//! the successors one [`IndexPlane`] (path walks touch nothing else), so
//! a publish copies both as they stand. Index planes are `u16` lanes:
//! simulator config validation caps a fabric at
//! [`IndexPlane::MAX_NODES`] nodes and the router asserts the cap, so
//! one lane width serves every fabric, and the gather loops and path
//! walks read the bare `u16` slices.

use etx_graph::{IndexPlane, Matrix, NodeId};
use etx_routing::{RouteEntry, RouteTablePlanes, RoutingState};

/// An immutable copy of everything a query needs from one controller
/// invocation: the phase-3 per-(node, module) route table and the
/// phase-2 distance/successor data, stored as struct-of-arrays planes
/// (see the module docs for the layout).
///
/// Snapshots reconstruct **byte-identical** [`RouteEntry`] values to
/// the [`RoutingState`] they were filled from, are numbered by a
/// monotonically increasing epoch, and are never mutated after
/// publication — a reader holding one can answer queries indefinitely
/// without observing a half-rebuilt table, no matter how many
/// recomputes the writer publishes on top.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    epoch: u64,
    modules: usize,
    nodes: usize,
    /// Phase-2 distance plane (`n x n`, row-major; `+inf` = unreachable).
    dist: Matrix<f64>,
    /// Phase-2 successor plane (`n * n`, sentinel = no successor).
    succ: IndexPlane,
    /// Phase-3 table planes (`n * modules` flat positions).
    table: RouteTablePlanes,
}

impl Default for TableSnapshot {
    fn default() -> Self {
        TableSnapshot::empty()
    }
}

impl TableSnapshot {
    /// An empty (epoch-0, zero-node) snapshot; fill it through
    /// [`TableSnapshot::fill_from`] (or a publisher) before use.
    #[must_use]
    pub fn empty() -> Self {
        TableSnapshot {
            epoch: 0,
            modules: 0,
            nodes: 0,
            dist: Matrix::default(),
            succ: IndexPlane::new(),
            table: RouteTablePlanes::new(),
        }
    }

    /// Overwrites this snapshot with `routing`'s tables at `epoch`: the
    /// distance and successor planes are copied as they stand (the
    /// router already keeps successors in `u16` lanes), and the route
    /// table is compacted into planes in one pass. Every plane is
    /// refilled in place — refills on warmed snapshots of unchanged
    /// dimensions perform no heap allocation.
    pub fn fill_from(&mut self, epoch: u64, routing: &RoutingState) {
        self.epoch = epoch;
        self.modules = routing.module_count();
        self.nodes = routing.node_count();
        self.dist.copy_from(routing.paths().distances());
        self.succ.copy_from(routing.paths().successors());
        routing.export_route_planes(&mut self.table);
    }

    /// The epoch this snapshot was published at (0 = never filled).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of nodes covered.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of modules covered.
    #[must_use]
    pub fn module_count(&self) -> usize {
        self.modules
    }

    /// The phase-3 table planes — the storage batched execution gathers
    /// from directly.
    #[must_use]
    pub fn table_planes(&self) -> &RouteTablePlanes {
        &self.table
    }

    /// The phase-2 distance plane, row-major (`from * n + to`).
    #[must_use]
    pub fn dist_plane(&self) -> &[f64] {
        self.dist.as_slice()
    }

    /// Reconstructs the `Option<RouteEntry>` at flat table position
    /// `flat` (`node * module_count + module`) — byte-identical to the
    /// producing router's entry; `None` out of range.
    #[must_use]
    pub fn entry(&self, flat: usize) -> Option<RouteEntry> {
        self.table.entry(flat)
    }

    /// Iterates every flat table position's reconstructed entry, in
    /// flat order — the byte-identity oracle against
    /// [`RoutingState::route_table`].
    pub fn entries(&self) -> impl Iterator<Item = Option<RouteEntry>> + '_ {
        (0..self.table.len()).map(|flat| self.table.entry(flat))
    }

    /// Point lookup: the routing-table entry for packets originating at
    /// `node` whose next operation belongs to `module`; `None` when no
    /// live duplicate is reachable (or `node`/`module` is unknown).
    #[must_use]
    pub fn route(&self, node: NodeId, module: usize) -> Option<RouteEntry> {
        if module >= self.modules || node.index() >= self.nodes {
            return None;
        }
        self.table.entry(node.index() * self.modules + module)
    }

    /// The relay decision: the next hop out of `from` toward `to`, from
    /// the phase-2 successor plane (`Some(to)` when `from == to`).
    #[must_use]
    pub fn next_hop(&self, from: NodeId, to: NodeId) -> Option<NodeId> {
        let n = self.nodes;
        if from.index() >= n || to.index() >= n {
            return None;
        }
        if from == to {
            Some(to)
        } else {
            self.succ.get(from.index() * n + to.index()).map(NodeId::new)
        }
    }

    /// The phase-2 (battery-weighted under EAR) path cost between two
    /// nodes; `None` when unreachable or out of range.
    #[must_use]
    pub fn cost(&self, from: NodeId, to: NodeId) -> Option<f64> {
        let n = self.nodes;
        if from.index() >= n || to.index() >= n {
            return None;
        }
        let d = self.dist.as_slice()[from.index() * n + to.index()];
        d.is_finite().then_some(d)
    }

    /// Full-path materialization: resolves `node`'s table entry for
    /// `module` and appends the complete node sequence (both endpoints
    /// included; `[node]` when self-hosted) to `out`. The entry's first
    /// hop is honoured even when it detours off the successor chain (a
    /// deadlock redirect), with the remainder walked through the
    /// successor plane. Returns the resolved entry, or `None` (with
    /// `out` untouched) when no route exists or the walk does not
    /// terminate (corrupt snapshot; defensive guard).
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
            let n = self.nodes;
            let dest = entry.destination.index();
            let succ = self.succ.lanes();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_graph::topology;
    use etx_routing::{Algorithm, Router, SystemReport};
    use etx_units::Length;

    fn ring_state(k: usize) -> RoutingState {
        let graph = topology::ring(k, Length::from_centimetres(1.0));
        let modules = vec![vec![NodeId::new(0), NodeId::new(k / 2)]];
        let report = SystemReport::fresh(k, 16);
        Router::new(Algorithm::Ear).compute(&graph, &modules, &report, None)
    }

    #[test]
    fn snapshot_mirrors_routing_state() {
        let state = ring_state(6);
        let mut snap = TableSnapshot::empty();
        snap.fill_from(7, &state);
        assert_eq!(snap.epoch(), 7);
        assert_eq!(snap.node_count(), 6);
        assert_eq!(snap.module_count(), 1);
        assert!(snap.entries().eq(state.route_table().iter().copied()));
        for i in 0..6 {
            let node = NodeId::new(i);
            assert_eq!(snap.route(node, 0), state.route(node, 0).copied());
            for j in 0..6 {
                let other = NodeId::new(j);
                assert_eq!(snap.cost(node, other), state.distance(node, other));
                assert_eq!(snap.next_hop(node, other), state.next_hop(node, other));
            }
        }
    }

    #[test]
    fn refill_reuses_buffers_and_replaces_content() {
        let a = ring_state(6);
        let b = ring_state(8);
        let mut snap = TableSnapshot::empty();
        snap.fill_from(1, &a);
        snap.fill_from(2, &b);
        assert_eq!(snap.epoch(), 2);
        assert_eq!(snap.node_count(), 8);
        assert!(snap.entries().eq(b.route_table().iter().copied()));
    }

    #[test]
    fn path_walks_to_the_chosen_duplicate() {
        let state = ring_state(6);
        let mut snap = TableSnapshot::empty();
        snap.fill_from(1, &state);
        let mut path = Vec::new();
        let entry = snap.path_into(NodeId::new(1), 0, &mut path).expect("route exists");
        assert_eq!(path.first(), Some(&NodeId::new(1)));
        assert_eq!(path.last(), Some(&entry.destination));
        assert_eq!(path[1], entry.next_hop);
        // Self-hosted: single-node path.
        path.clear();
        let own = snap.path_into(NodeId::new(0), 0, &mut path).expect("self route");
        assert_eq!(own.destination, NodeId::new(0));
        assert_eq!(path, vec![NodeId::new(0)]);
    }

    #[test]
    fn out_of_range_queries_are_none() {
        let mut snap = TableSnapshot::empty();
        snap.fill_from(1, &ring_state(4));
        assert!(snap.route(NodeId::new(9), 0).is_none());
        assert!(snap.route(NodeId::new(0), 9).is_none());
        assert!(snap.cost(NodeId::new(0), NodeId::new(9)).is_none());
        assert!(snap.next_hop(NodeId::new(9), NodeId::new(0)).is_none());
        let mut path = Vec::new();
        assert!(snap.path_into(NodeId::new(9), 0, &mut path).is_none());
        assert!(path.is_empty());
    }
}
