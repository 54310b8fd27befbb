//! Directed-graph substrate for e-textile networks.
//!
//! The routing algorithms of Kao & Marculescu (DATE'05) operate on an
//! adjacency-matrix representation of the communication network and run a
//! Floyd–Warshall variant that tracks, for every pair `(i, j)`, both the
//! shortest distance `D[i][j]` and the *successor* `S[i][j]` — the next hop
//! out of `i` on a shortest path to `j` (Fig 5 of the paper).
//!
//! This crate provides:
//!
//! * [`NodeId`] — a typed node index,
//! * [`Matrix`] — a dense row-major matrix used for weights and distances,
//! * [`IndexPlane`] — `u16` node-index lanes, the one encoding of "node
//!   index or none" for every `K × K` index plane (successors, repair-tree
//!   links, snapshot planes),
//! * [`DiGraph`] — a directed graph whose edges carry physical
//!   [`Length`](etx_units::Length)s (textile transmission lines), stored
//!   as per-node out- and in-link lists sorted by neighbour id,
//! * [`floyd_warshall`] / [`ShortestPaths`] — the all-pairs computation
//!   (plus [`dijkstra_all_pairs`], an `O(K·E log K)` alternative backend
//!   that beats `O(K³)` on sparse fabrics); the `*_into` forms run over a
//!   sparse [`AdjacencyList`], so no `K × K` weight matrix is needed,
//! * [`topology`] — mesh / torus / line / ring / star builders, including
//!   the coordinate bookkeeping for the paper's 2-D mesh ([`Mesh2D`]),
//! * [`connectivity`] — reachability helpers used for system-death checks.
//!
//! # Examples
//!
//! ```
//! use etx_graph::{topology::Mesh2D, floyd_warshall};
//! use etx_units::Length;
//!
//! let mesh = Mesh2D::new(4, 4, Length::from_centimetres(2.0));
//! let graph = mesh.to_graph();
//! let weights = graph.weight_matrix(|edge| edge.length.centimetres());
//! let paths = floyd_warshall(&weights);
//!
//! let a = mesh.node_at(1, 1).unwrap();
//! let b = mesh.node_at(4, 4).unwrap();
//! // Manhattan distance: 6 hops of 2 cm each.
//! assert_eq!(paths.distance(a, b), Some(12.0));
//! assert_eq!(paths.path(a, b).unwrap().len(), 7); // 7 nodes, 6 hops
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod bitset;
mod digest;
mod digraph;
mod matrix;
mod node;
mod plane;
mod shortest;

pub mod connectivity;
pub mod dynamic;
pub mod topology;

pub use backend::{PathBackend, ResolvedBackend};
pub use bitset::NodeBitset;
pub use digest::Fnv64;
pub use digraph::{DiGraph, Edge, GraphError};
pub use dynamic::{
    dijkstra_source_tree_into, repair_source, RepairOutcome, RepairScratch, SpTreeStore,
    WeightDelta,
};
pub use matrix::Matrix;
pub use node::NodeId;
pub use plane::IndexPlane;
pub use shortest::{
    dijkstra_all_pairs, dijkstra_all_pairs_into, dijkstra_source_into, floyd_warshall,
    floyd_warshall_into, AdjacencyList, DijkstraScratch, PathError, ShortestPaths,
    INFINITE_DISTANCE,
};
pub use topology::Mesh2D;
