//! [`IndexPlane`]: a contiguous plane of `u16`-compacted node indices.
//!
//! The serve tier's struct-of-arrays snapshots store node indices
//! (successors, route destinations, first hops) in flat planes instead
//! of `Option<NodeId>`-shaped structs. A `u16` lane packs an index 4x
//! denser than the machine-word `NodeId` it replaces — the difference
//! between a route table that lives in L1 and one that is chased
//! through L2 on every batched lookup. "No index" is the reserved
//! sentinel `u16::MAX`, which keeps the plane a plain `u16` slice that
//! gather loops can stream over.
//!
//! One lane width covers every fabric the simulator accepts: its config
//! validation caps a fabric at [`IndexPlane::MAX_NODES`] nodes. The
//! paper sizes its controller for tens to a few hundreds of nodes, and
//! a fabric past the cap would need a 34 GB dense phase-2 matrix
//! anyway.

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
/// plane.fill_with(3, |i| if i == 1 { None } else { Some(i * 10) });
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

    /// Empties the plane, keeping its allocation.
    pub fn clear(&mut self) {
        self.lanes.clear();
    }

    /// Appends one entry.
    ///
    /// # Panics
    ///
    /// Panics if `index` is at or above [`IndexPlane::MAX_NODES`].
    #[inline]
    pub fn push(&mut self, index: Option<usize>) {
        self.lanes.push(match index {
            Some(x) => {
                assert!(x < Self::MAX_NODES, "index {x} does not fit a u16 index plane");
                x as u16
            }
            None => Self::SENTINEL,
        });
    }

    /// Refills the plane with `len` entries produced by `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` returns an index at or above
    /// [`IndexPlane::MAX_NODES`].
    pub fn fill_with(&mut self, len: usize, mut f: impl FnMut(usize) -> Option<usize>) {
        self.clear();
        self.lanes.reserve(len);
        for i in 0..len {
            self.push(f(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_roundtrip_with_sentinels() {
        let mut plane = IndexPlane::new();
        plane.fill_with(5, |i| (i % 2 == 0).then_some(i * 7));
        assert_eq!(plane.get(0), Some(0));
        assert_eq!(plane.get(1), None);
        assert_eq!(plane.get(4), Some(28));
        assert_eq!(plane.get(5), None);
        assert_eq!(plane.lanes(), &[0, u16::MAX, 14, u16::MAX, 28]);
    }

    #[test]
    fn narrow_bound_is_exact() {
        // 65535 indices (0..=65534) fit; u16::MAX is the sentinel.
        let mut plane = IndexPlane::new();
        plane.fill_with(2, |i| (i == 0).then_some(IndexPlane::MAX_NODES - 1));
        assert_eq!(plane.get(0), Some(65_534));
        assert_eq!(plane.get(1), None);
    }

    #[test]
    fn refill_reuses_width_and_replaces_content() {
        let mut plane = IndexPlane::new();
        plane.fill_with(3, Some);
        let capacity = plane.lanes.capacity();
        plane.fill_with(2, |i| Some(i + 10));
        assert_eq!(plane.lanes(), &[10, 11]);
        assert_eq!(plane.get(2), None);
        assert_eq!(plane.lanes.capacity(), capacity, "refill keeps the allocation");
        plane.clear();
        plane.push(Some(9));
        plane.push(None);
        assert_eq!(plane.lanes(), &[9, IndexPlane::SENTINEL]);
    }

    #[test]
    #[should_panic(expected = "does not fit a u16 index plane")]
    fn out_of_bound_index_panics() {
        let mut plane = IndexPlane::new();
        plane.fill_with(1, |_| Some(IndexPlane::MAX_NODES));
    }
}
