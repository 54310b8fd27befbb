//! [`TableSnapshot`]: one immutable, epoch-numbered copy of a fabric's
//! routing state.
//!
//! A snapshot is an epoch plus a [`RoutingState`], so it has the
//! router's own layout and one read API. The router keeps every table in
//! plane form: the phase-2 distances are one contiguous `f64` plane
//! (cost queries touch nothing else), the successors one `u16`
//! [`IndexPlane`](etx_graph::IndexPlane) (path walks touch nothing
//! else), and the phase-3 table is
//! [`RouteTablePlanes`](etx_routing::RouteTablePlanes): a destination
//! and a first-hop `u16` plane plus an `f64` distance plane, 12 bytes
//! per entry. A publish copies every plane as it stands
//! ([`Clone::clone_from`]); nothing is repacked.

use etx_routing::RoutingState;

/// An immutable copy of everything a query needs from one controller
/// invocation: the [`RoutingState`] the router produced, numbered by a
/// monotonically increasing epoch.
///
/// Snapshots answer **byte-identically** to the state they were filled
/// from, since they hold a copy of it, and are never mutated after
/// publication — a reader holding one can answer queries indefinitely
/// without observing a half-rebuilt table, no matter how many
/// recomputes the writer publishes on top.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    epoch: u64,
    routing: RoutingState,
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
        TableSnapshot { epoch: 0, routing: RoutingState::empty() }
    }

    /// Overwrites this snapshot with `routing` at `epoch`. Every plane
    /// is copied in place, so refills of a warmed snapshot at unchanged
    /// dimensions perform no heap allocation.
    pub fn fill_from(&mut self, epoch: u64, routing: &RoutingState) {
        self.epoch = epoch;
        self.routing.clone_from(routing);
    }

    /// The epoch this snapshot was published at (0 = never filled).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The routing state published at this epoch — the one read API
    /// for point lookups ([`RoutingState::route`]), path walks
    /// ([`RoutingState::path_into`]), costs and the planes batched
    /// execution gathers from.
    #[must_use]
    pub fn routing(&self) -> &RoutingState {
        &self.routing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_graph::{topology, NodeId};
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
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.routing().node_count(), 0);
        snap.fill_from(7, &state);
        assert_eq!(snap.epoch(), 7);
        assert_eq!(snap.routing(), &state);
        assert_eq!(snap.routing().route_planes(), state.route_planes());
        for i in 0..6 {
            let node = NodeId::new(i);
            assert_eq!(snap.routing().route(node, 0), state.route(node, 0));
        }
    }

    #[test]
    fn refill_reuses_buffers_and_replaces_content() {
        let a = ring_state(6);
        let b = ring_state(8);
        let mut snap = TableSnapshot::empty();
        snap.fill_from(1, &b);
        snap.fill_from(2, &a);
        let lanes = snap.routing().route_planes().distance().as_ptr();
        snap.fill_from(3, &b);
        assert_eq!(snap.epoch(), 3);
        assert_eq!(snap.routing(), &b);
        assert_eq!(
            snap.routing().route_planes().distance().as_ptr(),
            lanes,
            "a refill within the seen dimensions keeps the allocation"
        );
    }
}
