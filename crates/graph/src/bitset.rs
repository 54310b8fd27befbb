//! [`NodeBitset`]: a word-packed set of node indices.
//!
//! One bit per node, 64 nodes per word: the route-table validity plane
//! and the frame-trace liveness/deadlock digests store node sets this
//! way.

use crate::NodeId;

/// A fixed-capacity set of node indices packed 64 per `u64` word.
///
/// All operations are branch-light and allocation-free after
/// [`NodeBitset::resize`].
///
/// # Examples
///
/// ```
/// use etx_graph::{NodeBitset, NodeId};
///
/// let mut set = NodeBitset::new();
/// set.resize(130);
/// assert!(set.insert(NodeId::new(3)));
/// assert!(set.insert(NodeId::new(128)));
/// assert!(set.contains(NodeId::new(3)));
/// assert!(!set.contains(NodeId::new(4)));
/// set.resize(130); // clears every bit
/// assert!(!set.contains(NodeId::new(3)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeBitset {
    words: Vec<u64>,
    /// Number of valid node indices (bits past `len` stay zero).
    len: usize,
}

impl NodeBitset {
    /// An empty set of capacity 0; size it with [`NodeBitset::resize`].
    #[must_use]
    pub fn new() -> Self {
        NodeBitset::default()
    }

    /// Resizes to cover indices `0..n` and clears every bit. Reuses the
    /// existing allocation whenever it is large enough.
    pub fn resize(&mut self, n: usize) {
        let words = n.div_ceil(64);
        self.words.clear();
        self.words.resize(words, 0);
        self.len = n;
    }

    /// Inserts `node`. Returns `true` when the bit was newly set.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let i = node.index();
        assert!(i < self.len, "node {i} out of range (capacity {})", self.len);
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// `true` when `node`'s bit is set (`false` for out-of-range nodes).
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        i < self.len && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Feeds the set's capacity and packed membership words into
    /// `hasher`: two sets digest equal iff they have the same capacity
    /// and the same members (tail bits past `len` are never set, so the
    /// packed words are canonical).
    pub fn digest_into(&self, hasher: &mut crate::Fnv64) {
        hasher.write_usize(self.len);
        for &word in &self.words {
            hasher.write_u64(word);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sized(n: usize) -> NodeBitset {
        let mut set = NodeBitset::new();
        set.resize(n);
        set
    }

    fn digest(set: &NodeBitset) -> u64 {
        let mut hasher = crate::Fnv64::new();
        set.digest_into(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn insert_and_contains() {
        let mut set = sized(70);
        assert!(!set.contains(NodeId::new(0)));
        assert!(set.insert(NodeId::new(0)));
        assert!(!set.insert(NodeId::new(0)), "double insert reports not-fresh");
        assert!(set.insert(NodeId::new(69)));
        assert!(set.contains(NodeId::new(0)) && set.contains(NodeId::new(69)));
        assert!(!set.contains(NodeId::new(68)));
        assert!(!set.contains(NodeId::new(1_000)), "out of range reads as absent");
    }

    #[test]
    fn digest_tracks_capacity_and_members() {
        let mut a = sized(200);
        let mut b = sized(200);
        // Members on both sides of every word boundary, inserted in
        // different orders.
        for i in [199, 0, 64, 63, 128, 5] {
            a.insert(NodeId::new(i));
        }
        for i in [0, 5, 63, 64, 128, 199] {
            b.insert(NodeId::new(i));
        }
        assert_eq!(digest(&a), digest(&b));
        b.insert(NodeId::new(127));
        assert_ne!(digest(&a), digest(&b), "one more member changes the digest");
        assert_ne!(digest(&sized(64)), digest(&sized(65)), "capacity is digested");
    }

    #[test]
    fn resize_clears_and_reuses() {
        let mut set = sized(128);
        set.insert(NodeId::new(100));
        set.resize(64);
        assert!(!set.contains(NodeId::new(100)));
        assert_eq!(set, sized(64));
        set.insert(NodeId::new(63));
        set.resize(64);
        assert!(!set.contains(NodeId::new(63)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut set = sized(10);
        set.insert(NodeId::new(10));
    }
}
