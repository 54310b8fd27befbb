//! The EAR and SDR routing algorithms of Kao & Marculescu (DATE'05).
//!
//! Both algorithms run *online* at a central controller, are recomputed
//! whenever the reported system state changes, and share the same
//! three-phase structure (Sec 6 of the paper):
//!
//! 1. **Phase 1 — edge weights.** SDR weighs a directed link by its
//!    physical length, `W(i,j) = L(i,j)`. EAR additionally scales by the
//!    reported battery level of the link's *receiving* node,
//!    `W(i,j) = f(N_B(j)) · L(i,j)`, with the exponential weighting
//!    `f(n) = Q^(N_B − 1 − n)`: a full battery costs `Q⁰ = 1` (EAR
//!    degenerates to SDR), an almost-empty one costs `Q^(N_B−1)`.
//!    See [`BatteryWeighting`], [`sdr_weights`], [`ear_weights`]: those
//!    build the paper's dense matrix `W`. The [`Router`] itself keeps
//!    phase 1 as a sparse adjacency list (each node's usable out-links,
//!    about four on a mesh), filled from the graph and the report in
//!    `O(K + E)` and updated per changed edge between frames.
//! 2. **Phase 2 — all-pairs shortest paths** with successors, through a
//!    pluggable backend ([`PathBackend`]): the paper's Floyd–Warshall
//!    variant (Fig 5, `O(K³)`), an all-sources Dijkstra
//!    (`O(K·E log K)`, the winner on sparse fabrics past a few dozen
//!    nodes), or `Auto`, which picks by node count and edge density.
//!    Between TDMA frames, [`Router::recompute_dirty_into`] (fed a dirty
//!    list) advances the state through a staged pipeline — weight-delta
//!    extraction (`O(degree)` per changed node), path repair or
//!    re-solve, table rebuild — selected by
//!    [`RecomputeStrategy`]: incremental shortest-path-tree repair
//!    (Ramalingam–Reps style, `O(changed subtree · log K)` per source)
//!    under `Auto`, or a full phase 2 — into preallocated
//!    [`RoutingScratch`] storage with zero steady-state allocation. The
//!    successor matrix `S` and the repair trees' links are `u16` lanes
//!    ([`IndexPlane`](etx_graph::IndexPlane)), so a graph has at most
//!    65,535 nodes; at `K = 1024` a warm fabric holds 8 MB of distances,
//!    2 MB of successors and 8 MB of tree links.
//! 3. **Phase 3 — destination selection.** For every node and every
//!    module, pick the nearest *live* duplicate of that module (w.r.t. the
//!    phase-2 distances) while avoiding ports in a deadlock state
//!    (the paper's Fig 6). See [`RoutingState`]. The table is stored
//!    as [`RouteTablePlanes`]: a destination and a first-hop `u16`
//!    plane plus an `f64` distance plane, 12 bytes per entry. It is the
//!    table's only encoding: every phase-3 writer fills the planes, and
//!    `etx-serve` publishes a state by copying them.
//!
//! [`Router`] packages the three phases behind one call.
//!
//! # Examples
//!
//! ```
//! use etx_graph::{topology::Mesh2D, NodeId};
//! use etx_routing::{Algorithm, Router, SystemReport};
//! use etx_units::Length;
//!
//! let mesh = Mesh2D::square(4, Length::from_centimetres(2.0));
//! let graph = mesh.to_graph();
//! // Module 0 duplicates live at two corners:
//! let module_nodes = vec![vec![
//!     mesh.node_at(1, 1).unwrap(),
//!     mesh.node_at(4, 4).unwrap(),
//! ]];
//!
//! let report = SystemReport::fresh(graph.node_count(), 16);
//! let routing = Router::new(Algorithm::Ear).compute(&graph, &module_nodes, &report, None);
//!
//! // A node next to corner (1,1) is sent there, not across the mesh.
//! let src = mesh.node_at(2, 1).unwrap();
//! let entry = routing.route(src, 0).unwrap();
//! assert_eq!(entry.destination, mesh.node_at(1, 1).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod report;
mod router;
mod scratch;
mod table;
mod weighting;
mod weights;

pub use etx_graph::{NodeBitset, PathBackend};
pub use report::SystemReport;
pub use router::{Algorithm, RecomputeStrategy, Router};
pub use scratch::{RecomputeStats, RoutingScratch};
pub use table::{RouteEntry, RouteTablePlanes, RoutingState};
pub use weighting::BatteryWeighting;
pub use weights::{ear_weights, sdr_weights};
