//! `etx-served`: the query service over TCP.
//!
//! Everything below this module is in-process; this module puts the
//! [`FleetFrontend`](crate::FleetFrontend) behind a socket without
//! giving up its properties:
//!
//! * [`proto`] — a compact length-prefixed binary protocol (LEB128
//!   framing, one type byte per message) for batched NextHop / Path /
//!   Cost queries, telemetry ingestion and control frames, encoded
//!   through [`etx_trace::wire`], the workspace's one varint codec;
//! * [`wire`] — the frame plumbing: the in-place length-prefix writer
//!   and the buffered [`FrameReader`];
//! * [`Served`] — the thread-per-core daemon: connections are pinned
//!   to shards at accept, each shard's worker executes its
//!   connections' batches (and owns the write side of its fabrics),
//!   and bounded per-shard queues shed load with explicit OVERLOADED
//!   rejections instead of queueing without bound;
//! * [`RouteClient`] — the blocking client half, which learns the
//!   fleet's fabric dimensions at the handshake, so a
//!   [`WorkloadGen`](crate::WorkloadGen) streams the same queries over
//!   the wire as in-process.
//!
//! Answers over the wire are byte-identical to
//! [`FleetFrontend::execute`](crate::FleetFrontend::execute) on the
//! same spec and epoch — CI diffs the two — and the warm per-request
//! path on both sides performs zero heap allocations.

pub mod client;
pub mod daemon;
pub mod proto;
pub mod wire;

pub use client::{NetError, Response, ResponseKind, RouteClient};
pub use daemon::{Served, ServedConfig};
pub use wire::{FrameReader, RecvError, WireError};
