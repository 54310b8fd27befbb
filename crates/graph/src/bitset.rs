//! [`NodeBitset`]: a word-packed set of node indices.
//!
//! One bit per node, 64 nodes per word: the route-table validity plane
//! and the frame-trace liveness/deadlock digests store node sets this
//! way, and iteration skips empty words, so a sparse set costs
//! `O(K/64)` word checks plus its members.

use crate::NodeId;

/// A fixed-capacity set of node indices packed 64 per `u64` word.
///
/// All operations are branch-light and allocation-free after
/// [`NodeBitset::resize`]; iteration visits indices in ascending order
/// (the same order a `0..n` scan would).
///
/// # Examples
///
/// ```
/// use etx_graph::{NodeBitset, NodeId};
///
/// let mut set = NodeBitset::new();
/// set.resize(130);
/// set.insert(NodeId::new(3));
/// set.insert(NodeId::new(128));
/// assert!(set.contains(NodeId::new(3)));
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![NodeId::new(3), NodeId::new(128)]);
/// set.clear();
/// assert!(set.is_empty());
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

    /// A cleared set covering indices `0..n`.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        let mut set = NodeBitset::new();
        set.resize(n);
        set
    }

    /// Resizes to cover indices `0..n` and clears every bit. Reuses the
    /// existing allocation whenever it is large enough.
    pub fn resize(&mut self, n: usize) {
        let words = n.div_ceil(64);
        self.words.clear();
        self.words.resize(words, 0);
        self.len = n;
    }

    /// Number of node indices covered (the `n` of the last resize).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Clears every bit, keeping the capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
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

    /// Removes `node`. Returns `true` when the bit was set.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let i = node.index();
        assert!(i < self.len, "node {i} out of range (capacity {})", self.len);
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let present = *word & mask != 0;
        *word &= !mask;
        present
    }

    /// `true` when `node`'s bit is set (`false` for out-of-range nodes).
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        i < self.len && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// `true` when no bit is set. `O(words)`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits. `O(words)` popcounts.
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The packed words (64 indices per word, LSB first).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
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

    /// Iterates the set indices in ascending order, skipping whole empty
    /// words.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            core::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(NodeId::new(wi * 64 + bit))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut set = NodeBitset::with_capacity(70);
        assert!(set.is_empty());
        assert!(set.insert(NodeId::new(0)));
        assert!(!set.insert(NodeId::new(0)), "double insert reports not-fresh");
        assert!(set.insert(NodeId::new(69)));
        assert!(set.contains(NodeId::new(0)) && set.contains(NodeId::new(69)));
        assert!(!set.contains(NodeId::new(68)));
        assert!(!set.contains(NodeId::new(1_000)), "out of range reads as absent");
        assert_eq!(set.count(), 2);
        assert!(set.remove(NodeId::new(0)));
        assert!(!set.remove(NodeId::new(0)));
        assert_eq!(set.count(), 1);
    }

    #[test]
    fn iteration_is_ascending_and_word_skipping() {
        let mut set = NodeBitset::with_capacity(200);
        for i in [199, 0, 64, 63, 128, 5] {
            set.insert(NodeId::new(i));
        }
        let got: Vec<usize> = set.iter().map(NodeId::index).collect();
        assert_eq!(got, vec![0, 5, 63, 64, 128, 199]);
    }

    #[test]
    fn resize_clears_and_reuses() {
        let mut set = NodeBitset::with_capacity(128);
        set.insert(NodeId::new(100));
        set.resize(64);
        assert!(set.is_empty());
        assert_eq!(set.capacity(), 64);
        set.insert(NodeId::new(63));
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.capacity(), 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut set = NodeBitset::with_capacity(10);
        set.insert(NodeId::new(10));
    }
}
