//! The [`DiGraph`] directed graph with physical edge lengths.

use core::fmt;

use etx_units::Length;

use crate::{Matrix, NodeId};

/// A directed edge carrying the physical length of its transmission line.
///
/// E-textile links are *directed* in the paper's formulation (the edge
/// weight matrices `W` are not required to be symmetric), although mesh
/// builders create both directions with equal lengths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Physical length of the textile transmission line.
    pub length: Length,
}

/// Errors raised by [`DiGraph`] mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint was not a node of this graph.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// The number of nodes in the graph.
        node_count: usize,
    },
    /// A self-loop was requested; the platform has no loopback lines.
    SelfLoop(NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(f, "node {node} out of range for graph with {node_count} nodes")
            }
            GraphError::SelfLoop(node) => write!(f, "self-loop on {node} is not allowed"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Source of globally unique [`DiGraph::version_stamp`] values: every
/// graph construction and every mutation draws a fresh value, so two
/// graphs that ever diverged can never share a stamp.
static NEXT_VERSION_STAMP: core::sync::atomic::AtomicU64 = core::sync::atomic::AtomicU64::new(1);

fn fresh_version_stamp() -> u64 {
    NEXT_VERSION_STAMP.fetch_add(1, core::sync::atomic::Ordering::Relaxed)
}

/// A directed graph over dense node ids, with [`Length`]-weighted edges.
///
/// Stored sparsely: every node keeps its out-links and its in-links, each
/// sorted by neighbour id. E-textile fabrics are meshes of degree ≤ 4, so
/// [`DiGraph::neighbors`], [`DiGraph::in_neighbors`] and the edge lookups
/// cost `O(degree)`, [`DiGraph::edges`] costs `O(E)`, and a graph takes
/// `O(K + E)` memory instead of a `K × K` matrix. Keeping both directions
/// lets the routing pipeline touch only a changed node's own links.
///
/// # Examples
///
/// ```
/// use etx_graph::{DiGraph, NodeId};
/// use etx_units::Length;
///
/// let mut g = DiGraph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1), Length::from_centimetres(10.0))?;
/// g.add_edge(NodeId::new(1), NodeId::new(2), Length::from_centimetres(10.0))?;
/// assert_eq!(g.edge_count(), 2);
/// assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
/// assert!(!g.has_edge(NodeId::new(1), NodeId::new(0)));
/// assert_eq!(g.in_neighbors(NodeId::new(1)).count(), 1);
/// # Ok::<(), etx_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DiGraph {
    /// `out_links[u]`: the edges `u -> v` as `(v, length)`, ascending by `v`.
    out_links: Vec<Vec<(NodeId, Length)>>,
    /// `in_links[v]`: the edges `u -> v` as `(u, length)`, ascending by `u`.
    in_links: Vec<Vec<(NodeId, Length)>>,
    edge_count: usize,
    version_stamp: u64,
}

/// Equality compares the graph *content* (nodes and edges); the version
/// stamp is an identity aid for caches and is excluded. The in-links
/// mirror the out-links, so comparing the out-links suffices.
impl PartialEq for DiGraph {
    fn eq(&self, other: &Self) -> bool {
        self.edge_count == other.edge_count && self.out_links == other.out_links
    }
}

/// Inserts or replaces `(key, length)` in a link list sorted by node id;
/// returns the replaced length.
fn upsert_link(links: &mut Vec<(NodeId, Length)>, key: NodeId, length: Length) -> Option<Length> {
    match links.binary_search_by_key(&key, |&(id, _)| id) {
        Ok(pos) => Some(core::mem::replace(&mut links[pos].1, length)),
        Err(pos) => {
            links.insert(pos, (key, length));
            None
        }
    }
}

/// Removes `key` from a link list sorted by node id; returns its length.
fn remove_link(links: &mut Vec<(NodeId, Length)>, key: NodeId) -> Option<Length> {
    let pos = links.binary_search_by_key(&key, |&(id, _)| id).ok()?;
    Some(links.remove(pos).1)
}

impl DiGraph {
    /// Creates a graph with `node_count` nodes and no edges.
    #[must_use]
    pub fn new(node_count: usize) -> Self {
        DiGraph {
            out_links: vec![Vec::new(); node_count],
            in_links: vec![Vec::new(); node_count],
            edge_count: 0,
            version_stamp: fresh_version_stamp(),
        }
    }

    /// An opaque value identifying this graph's exact edge content:
    /// refreshed (globally uniquely) on every mutation and copied by
    /// `Clone`, so equal stamps imply identical edges. Routing caches key
    /// on it to detect graph changes in `O(1)` instead of re-hashing the
    /// edge list. (Stamps are conservative: independently built graphs
    /// with identical edges get different stamps.)
    #[must_use]
    pub fn version_stamp(&self) -> u64 {
        self.version_stamp
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.out_links.len()
    }

    /// Number of directed edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Checks whether `node` belongs to this graph.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        node.index() < self.node_count()
    }

    fn check_node(&self, node: NodeId) -> Result<(), GraphError> {
        if self.contains(node) {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange { node, node_count: self.node_count() })
        }
    }

    /// Adds (or replaces) the directed edge `from -> to`.
    ///
    /// Returns the previous length if the edge already existed.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] for unknown endpoints and
    /// [`GraphError::SelfLoop`] when `from == to`.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        length: Length,
    ) -> Result<Option<Length>, GraphError> {
        self.check_node(from)?;
        self.check_node(to)?;
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        let prev = upsert_link(&mut self.out_links[from.index()], to, length);
        upsert_link(&mut self.in_links[to.index()], from, length);
        if prev.is_none() {
            self.edge_count += 1;
        }
        self.version_stamp = fresh_version_stamp();
        Ok(prev)
    }

    /// Adds both `a -> b` and `b -> a` with the same length.
    ///
    /// # Errors
    ///
    /// Same as [`DiGraph::add_edge`].
    pub fn add_edge_bidirectional(
        &mut self,
        a: NodeId,
        b: NodeId,
        length: Length,
    ) -> Result<(), GraphError> {
        self.add_edge(a, b, length)?;
        self.add_edge(b, a, length)?;
        Ok(())
    }

    /// Removes the directed edge `from -> to`, returning its length.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> Option<Length> {
        if !self.contains(from) || !self.contains(to) {
            return None;
        }
        let prev = remove_link(&mut self.out_links[from.index()], to)?;
        remove_link(&mut self.in_links[to.index()], from);
        self.edge_count -= 1;
        self.version_stamp = fresh_version_stamp();
        Some(prev)
    }

    /// `true` if the directed edge `from -> to` exists.
    #[must_use]
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.edge_length(from, to).is_some()
    }

    /// The length of edge `from -> to`, if present: a search of
    /// `from`'s out-links.
    #[must_use]
    pub fn edge_length(&self, from: NodeId, to: NodeId) -> Option<Length> {
        let links = self.out_links.get(from.index())?;
        let pos = links.binary_search_by_key(&to, |&(id, _)| id).ok()?;
        Some(links[pos].1)
    }

    /// Iterates over all directed edges, ordered by source and then by
    /// destination id.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.out_links.iter().enumerate().flat_map(|(from, links)| {
            links.iter().map(move |&(to, length)| Edge { from: NodeId::new(from), to, length })
        })
    }

    /// Iterates over the out-neighbours of `node` (with edge lengths),
    /// ascending by id; empty for an unknown node.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, Length)> + '_ {
        self.out_links.get(node.index()).map_or(&[][..], Vec::as_slice).iter().copied()
    }

    /// Iterates over the in-neighbours of `node` (with edge lengths),
    /// ascending by id: every `(u, length)` with an edge `u -> node`.
    /// Empty for an unknown node.
    pub fn in_neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, Length)> + '_ {
        self.in_links.get(node.index()).map_or(&[][..], Vec::as_slice).iter().copied()
    }

    /// Out-degree of `node`.
    #[must_use]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_links.get(node.index()).map_or(0, Vec::len)
    }

    /// Builds a cost matrix from the adjacency structure.
    ///
    /// Entry `(i, i)` is `0`, entry `(i, j)` is `cost(edge)` when the edge
    /// exists and [`INFINITE_DISTANCE`](crate::INFINITE_DISTANCE)
    /// otherwise — exactly the `W` matrix construction of the paper's
    /// phase 1 (for both SDR and EAR, which differ only in `cost`).
    #[must_use]
    pub fn weight_matrix<F: FnMut(Edge) -> f64>(&self, mut cost: F) -> Matrix<f64> {
        let n = self.node_count();
        let mut w = Matrix::filled(n, n, crate::INFINITE_DISTANCE);
        for i in 0..n {
            w[(i, i)] = 0.0;
        }
        for edge in self.edges() {
            w[(edge.from, edge.to)] = cost(edge);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cm(v: f64) -> Length {
        Length::from_centimetres(v)
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new(4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.nodes().count(), 4);
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn add_remove_edges() {
        let mut g = DiGraph::new(3);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert_eq!(g.add_edge(a, b, cm(5.0)).unwrap(), None);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_length(a, b), Some(cm(5.0)));
        // replacing returns the old value and keeps the count
        assert_eq!(g.add_edge(a, b, cm(7.0)).unwrap(), Some(cm(5.0)));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.remove_edge(a, b), Some(cm(7.0)));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.remove_edge(a, b), None);
    }

    #[test]
    fn bidirectional_adds_two_edges() {
        let mut g = DiGraph::new(2);
        g.add_edge_bidirectional(NodeId::new(0), NodeId::new(1), cm(1.0)).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(g.has_edge(NodeId::new(1), NodeId::new(0)));
    }

    #[test]
    fn rejects_self_loop_and_bad_nodes() {
        let mut g = DiGraph::new(2);
        let err = g.add_edge(NodeId::new(0), NodeId::new(0), cm(1.0)).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop(NodeId::new(0)));
        let err = g.add_edge(NodeId::new(0), NodeId::new(5), cm(1.0)).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { .. }));
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn neighbors_and_degree() {
        let mut g = DiGraph::new(4);
        g.add_edge(NodeId::new(0), NodeId::new(1), cm(1.0)).unwrap();
        g.add_edge(NodeId::new(0), NodeId::new(2), cm(2.0)).unwrap();
        let ns: Vec<_> = g.neighbors(NodeId::new(0)).collect();
        assert_eq!(ns, vec![(NodeId::new(1), cm(1.0)), (NodeId::new(2), cm(2.0))]);
        assert_eq!(g.out_degree(NodeId::new(0)), 2);
        assert_eq!(g.out_degree(NodeId::new(3)), 0);
    }

    #[test]
    fn edges_iterator_matches_count() {
        let mut g = DiGraph::new(3);
        g.add_edge_bidirectional(NodeId::new(0), NodeId::new(1), cm(1.0)).unwrap();
        g.add_edge(NodeId::new(2), NodeId::new(0), cm(3.0)).unwrap();
        assert_eq!(g.edges().count(), g.edge_count());
    }

    #[test]
    fn in_neighbors_list_reverse_links() {
        let mut g = DiGraph::new(4);
        g.add_edge(NodeId::new(2), NodeId::new(1), cm(3.0)).unwrap();
        g.add_edge(NodeId::new(0), NodeId::new(1), cm(1.0)).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(3), cm(2.0)).unwrap();
        let ins: Vec<_> = g.in_neighbors(NodeId::new(1)).collect();
        assert_eq!(ins, vec![(NodeId::new(0), cm(1.0)), (NodeId::new(2), cm(3.0))]);
        assert_eq!(g.in_neighbors(NodeId::new(0)).count(), 0);
        assert_eq!(g.in_neighbors(NodeId::new(9)).count(), 0, "unknown node has no links");
        g.remove_edge(NodeId::new(0), NodeId::new(1));
        let ins: Vec<_> = g.in_neighbors(NodeId::new(1)).collect();
        assert_eq!(ins, vec![(NodeId::new(2), cm(3.0))]);
    }

    #[test]
    fn weight_matrix_structure() {
        let mut g = DiGraph::new(3);
        g.add_edge(NodeId::new(0), NodeId::new(1), cm(4.0)).unwrap();
        let w = g.weight_matrix(|e| e.length.centimetres());
        assert_eq!(w[(0, 0)], 0.0);
        assert_eq!(w[(0, 1)], 4.0);
        assert_eq!(w[(1, 0)], crate::INFINITE_DISTANCE);
        assert_eq!(w[(2, 2)], 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The sparse link lists against a dense `K × K` reference kept
        /// here: after random adds, replacements and removals (one-way
        /// edges included), `edges()` lists exactly the reference's
        /// entries in row-major order, `neighbors` reads its rows,
        /// `in_neighbors` its columns, and every lookup agrees.
        #[test]
        fn sparse_links_match_a_dense_reference(
            n in 1usize..10,
            ops in proptest::collection::vec((0usize..10, 0usize..10, 0u8..4, 1u32..50), 0..60),
        ) {
            let mut g = DiGraph::new(n);
            let mut dense: Matrix<Option<Length>> = Matrix::filled(n, n, None);
            for (a, b, kind, len) in ops {
                let (a, b) = (a % n, b % n);
                if a == b {
                    continue;
                }
                let (from, to) = (NodeId::new(a), NodeId::new(b));
                let length = cm(f64::from(len));
                if kind == 0 {
                    prop_assert_eq!(g.remove_edge(from, to), dense[(a, b)].take());
                } else {
                    prop_assert_eq!(g.add_edge(from, to, length).unwrap(), dense[(a, b)].replace(length));
                }
            }
            let expected: Vec<Edge> = dense
                .entries()
                .filter_map(|(r, c, len)| {
                    len.map(|length| Edge { from: NodeId::new(r), to: NodeId::new(c), length })
                })
                .collect();
            prop_assert_eq!(g.edges().collect::<Vec<_>>(), expected.clone());
            prop_assert_eq!(g.edge_count(), expected.len());
            for u in 0..n {
                let node = NodeId::new(u);
                let row: Vec<_> = (0..n)
                    .filter_map(|c| dense[(u, c)].map(|l| (NodeId::new(c), l)))
                    .collect();
                let column: Vec<_> = (0..n)
                    .filter_map(|r| dense[(r, u)].map(|l| (NodeId::new(r), l)))
                    .collect();
                prop_assert_eq!(g.neighbors(node).collect::<Vec<_>>(), row.clone());
                prop_assert_eq!(g.out_degree(node), row.len());
                prop_assert_eq!(g.in_neighbors(node).collect::<Vec<_>>(), column);
                for v in 0..n {
                    prop_assert_eq!(g.edge_length(node, NodeId::new(v)), dense[(u, v)]);
                }
                // Every out-link appears in its head's in-links.
                for (v, l) in g.neighbors(node) {
                    prop_assert!(g.in_neighbors(v).any(|(w, m)| w == node && m == l));
                }
            }
        }
    }
}
