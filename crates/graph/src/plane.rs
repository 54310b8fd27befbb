//! [`IndexPlane`]: a contiguous plane of `u16`-compacted node indices.
//!
//! Every `K × K` node-index plane of the workspace uses this one
//! encoding: the phase-2 successors of
//! [`ShortestPaths`](crate::ShortestPaths), the repair trees' parent and
//! child links in [`SpTreeStore`](crate::SpTreeStore), and the phase-3
//! route table's destination and first-hop planes (`etx-routing`'s
//! `RouteTablePlanes`), which the router writes and the serve tier's
//! snapshots copy as they stand. A `u16` lane packs an index 8x denser
//! than the `Option<NodeId>` it replaces — the difference between a
//! route table that lives in L1 and one that is chased through L2 on
//! every batched lookup, and between 2 MB and 16 MB of successors at
//! `K = 1024`. "No index" is the reserved sentinel `u16::MAX`, which
//! keeps the plane a plain `u16` slice that gather loops can stream
//! over, and a snapshot publishes the router's planes by copying the
//! lanes.
//!
//! One lane width covers every fabric the simulator accepts: its config
//! validation caps a fabric at [`IndexPlane::MAX_NODES`] nodes, and the
//! router and [`ShortestPaths`](crate::ShortestPaths) assert the cap
//! before any `K × K` allocation. The paper sizes its controller for
//! tens to a few hundreds of nodes, and a fabric past the cap would need
//! a 34 GB dense phase-2 matrix anyway.

/// A flat plane of optional node indices in `u16` lanes, with
/// [`IndexPlane::SENTINEL`] as the "no index" value.
///
/// Refills reuse the backing allocation, so steady-state refill
/// performs no heap allocation — the same discipline as
/// [`Matrix`](crate::Matrix) and [`NodeBitset`](crate::NodeBitset).
///
/// # Examples
///
/// ```
/// use etx_graph::IndexPlane;
///
/// let mut plane = IndexPlane::new();
/// plane.reset(3);
/// plane.set(0, Some(0));
/// plane.set(2, Some(20));
/// assert_eq!(plane.get(0), Some(0));
/// assert_eq!(plane.get(1), None);
/// assert_eq!(plane.get(2), Some(20));
/// assert_eq!(plane.get(3), None); // out of range reads as absent
/// assert_eq!(plane.lanes(), &[0, IndexPlane::SENTINEL, 20]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexPlane {
    lanes: Vec<u16>,
}

impl IndexPlane {
    /// The reserved "no index" lane value.
    pub const SENTINEL: u16 = u16::MAX;

    /// The most nodes a plane can index: `0..=65534`, keeping
    /// [`IndexPlane::SENTINEL`] free.
    pub const MAX_NODES: usize = u16::MAX as usize;

    /// An empty plane.
    #[must_use]
    pub fn new() -> Self {
        IndexPlane::default()
    }

    /// Checks that `node_count` nodes fit `u16` lanes. Owners of
    /// `K × K` planes call it before allocating: a larger graph would
    /// otherwise wrap its indices silently, after asking for tens of
    /// gigabytes.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` exceeds [`IndexPlane::MAX_NODES`].
    pub fn assert_fits(node_count: usize) {
        assert!(
            node_count <= Self::MAX_NODES,
            "{node_count} nodes exceed the {} a u16 index plane can hold",
            Self::MAX_NODES
        );
    }

    /// The entry at `i`; `None` for the sentinel and for out-of-range
    /// positions.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<usize> {
        self.lanes.get(i).and_then(|&x| (x != Self::SENTINEL).then_some(usize::from(x)))
    }

    /// The raw lanes, [`IndexPlane::SENTINEL`] where no index is stored.
    #[must_use]
    pub fn lanes(&self) -> &[u16] {
        &self.lanes
    }

    /// The raw lanes, mutably: the write target of the row-wise
    /// solvers, which store [`IndexPlane::SENTINEL`] for "none".
    pub fn lanes_mut(&mut self) -> &mut [u16] {
        &mut self.lanes
    }

    /// Empties the plane, keeping its allocation.
    pub fn clear(&mut self) {
        self.lanes.clear();
    }

    /// Resizes to `len` lanes, every one [`IndexPlane::SENTINEL`],
    /// reusing the allocation when it is large enough.
    pub fn reset(&mut self, len: usize) {
        self.lanes.clear();
        self.lanes.resize(len, Self::SENTINEL);
    }

    /// Overwrites this plane with `other`'s lanes, reusing the
    /// allocation when it is large enough (no heap allocation once the
    /// length has been seen).
    pub fn copy_from(&mut self, other: &IndexPlane) {
        self.lanes.clear();
        self.lanes.extend_from_slice(&other.lanes);
    }

    /// Stores `index` at lane `i` ([`IndexPlane::SENTINEL`] for `None`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range, or `index` is at or above
    /// [`IndexPlane::MAX_NODES`].
    #[inline]
    pub fn set(&mut self, i: usize, index: Option<usize>) {
        self.lanes[i] = match index {
            Some(x) => {
                assert!(x < Self::MAX_NODES, "index {x} does not fit a u16 index plane");
                x as u16
            }
            None => Self::SENTINEL,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plane of `len` lanes holding `f(i)` at lane `i`.
    fn plane_of(len: usize, f: impl Fn(usize) -> Option<usize>) -> IndexPlane {
        let mut plane = IndexPlane::new();
        plane.reset(len);
        for i in 0..len {
            plane.set(i, f(i));
        }
        plane
    }

    #[test]
    fn narrow_roundtrip_with_sentinels() {
        let plane = plane_of(5, |i| (i % 2 == 0).then_some(i * 7));
        assert_eq!(plane.get(0), Some(0));
        assert_eq!(plane.get(1), None);
        assert_eq!(plane.get(4), Some(28));
        assert_eq!(plane.get(5), None);
        assert_eq!(plane.lanes(), &[0, u16::MAX, 14, u16::MAX, 28]);
    }

    #[test]
    fn narrow_bound_is_exact() {
        // 65535 indices (0..=65534) fit; u16::MAX is the sentinel.
        let plane = plane_of(2, |i| (i == 0).then_some(IndexPlane::MAX_NODES - 1));
        assert_eq!(plane.get(0), Some(65_534));
        assert_eq!(plane.get(1), None);
        // So a 65,535-node fabric fits; one more node panics (the
        // `*_past_the_lane_cap_*` tests of its owners).
        IndexPlane::assert_fits(IndexPlane::MAX_NODES);
    }

    #[test]
    fn refill_reuses_width_and_replaces_content() {
        let mut plane = plane_of(3, Some);
        let capacity = plane.lanes.capacity();
        plane.reset(2);
        plane.set(0, Some(10));
        plane.set(1, Some(11));
        assert_eq!(plane.lanes(), &[10, 11]);
        assert_eq!(plane.get(2), None);
        assert_eq!(plane.lanes.capacity(), capacity, "refill keeps the allocation");
        // Clearing a lane stores the sentinel, as a never-written lane.
        plane.set(1, None);
        assert_eq!(plane.lanes(), &[10, IndexPlane::SENTINEL]);
        plane.clear();
        assert_eq!(plane.get(0), None);
    }

    #[test]
    fn reset_and_copy_keep_the_allocation() {
        let mut plane = IndexPlane::new();
        plane.reset(4);
        assert_eq!(plane.lanes(), &[IndexPlane::SENTINEL; 4]);
        plane.lanes_mut()[2] = 7;
        assert_eq!(plane.get(2), Some(7));
        let capacity = plane.lanes.capacity();
        plane.reset(3);
        assert_eq!(plane.lanes(), &[IndexPlane::SENTINEL; 3], "reset clears old lanes");
        assert_eq!(plane.lanes.capacity(), capacity);

        let source = plane_of(2, |i| (i == 1).then_some(5));
        plane.copy_from(&source);
        assert_eq!(plane, source);
        assert_eq!(plane.lanes.capacity(), capacity, "copy reuses the allocation");
    }

    #[test]
    #[should_panic(expected = "does not fit a u16 index plane")]
    fn out_of_bound_index_panics() {
        plane_of(1, |_| Some(IndexPlane::MAX_NODES));
    }
}
