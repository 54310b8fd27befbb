//! `etx-serve` — the read side of the routing controller: a
//! snapshot-consistent route query service over epoch-published tables.
//!
//! The paper's EAR tables exist so garment nodes can *answer routing
//! queries* while the fabric drains; every layer below this crate only
//! *produces* tables. `etx-serve` consumes them at rate:
//!
//! * [`TableSnapshot`] — an immutable, epoch-numbered copy of one
//!   controller invocation's [`RoutingState`](etx_routing::RoutingState),
//!   whose tables are already **struct-of-arrays planes**
//!   (u16-compacted destination/first-hop/successor index planes and
//!   `f64` distance planes), so a publish copies them as they stand and
//!   answers are byte-identical to the router's;
//! * [`EpochPublisher`] / [`SnapshotReader`] — std-only double-buffered
//!   `Arc` publication: the writer fills outside the lock and swaps a
//!   pointer; readers pin with a pointer clone and can hold a snapshot
//!   across any number of republishes without ever observing a
//!   half-rebuilt table. The publisher implements the engine's
//!   [`TableObserver`](etx_sim::TableObserver) hook, so every TDMA-frame
//!   recompute becomes one published epoch;
//! * [`QueryBatch`] / [`QueryOutput`] — batched next-hop / full-path /
//!   path-cost queries, sorted by `(fabric, source)` to amortize
//!   cache misses (single-fabric batches skip the sort), split into
//!   per-type lanes that run cache-blocked over exactly the planes each
//!   query type reads, answered into caller-owned buffers with zero
//!   steady-state allocation;
//! * [`FleetFrontend`] — one query surface over thousands of pooled
//!   fabric instances (built from an
//!   [`ScenarioSpec`](etx_fleet::ScenarioSpec) exactly as the fleet
//!   controller samples them), pinning each fabric's snapshot once per
//!   batch;
//! * [`WorkloadGen`] — SplitMix64-driven query streams with a
//!   configurable point/path/cost mix, reproducible from a seed on
//!   either side of a socket;
//! * [`net`] — `etx-served`: the thread-per-core TCP daemon that puts
//!   all of the above behind a compact length-prefixed binary
//!   protocol, with per-shard connection pinning, a telemetry-ingest
//!   write path and bounded-queue load shedding.
//!
//! # Example
//!
//! ```
//! use etx_fleet::ScenarioSpec;
//! use etx_graph::NodeId;
//! use etx_serve::{FleetFrontend, Query, QueryBatch, QueryOutput, QueryResult};
//!
//! let spec = ScenarioSpec { instances: 2, ..ScenarioSpec::smoke() };
//! let frontend = FleetFrontend::from_spec(&spec, 1_000)?;
//!
//! let mut batch = QueryBatch::new();
//! batch.push(Query::NextHop { fabric: 0, source: NodeId::new(1), module: 0 });
//! let mut out = QueryOutput::new();
//! frontend.execute(&mut batch, &mut out);
//! assert!(matches!(out.results()[0], QueryResult::NextHop(_)));
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frontend;
pub mod net;
mod publish;
mod query;
mod snapshot;
mod workload;

pub use frontend::FleetFrontend;
pub use net::{RouteClient, Served, ServedConfig};
pub use publish::{EpochPublisher, PinnedSnapshot, SnapshotReader};
pub use query::{Query, QueryBatch, QueryOutput, QueryResult};
pub use snapshot::TableSnapshot;
pub use workload::{FabricDirectory, WorkloadGen, WorkloadSpec};
