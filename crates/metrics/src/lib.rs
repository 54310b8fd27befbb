//! # etx-metrics — unified metrics & profiling for the e-textile stack
//!
//! A std-only, dependency-free metrics subsystem shared by every layer
//! of the simulator: `etx-sim` frame phases, `etx-routing` repair
//! stages, `etx-serve` query latency, `etx-fleet` shard aggregation.
//!
//! Design constraints, in order:
//!
//! 1. **Allocation-free and cheap on the hot path.** Metric identities
//!    are a static catalog ([`CounterId`], [`GaugeId`], [`SpanId`]) of
//!    dense array indices — recording is one relaxed atomic RMW, never
//!    a hash lookup or an allocation. A counting-allocator test
//!    enforces this.
//! 2. **Deterministic export.** Counters are classed ([`Class`]) by
//!    what they may vary with; the deterministic JSON export
//!    ([`MetricsSnapshot::to_json`]) includes only [`Class::Stable`]
//!    counters and is byte-identical across shard counts and recompute
//!    strategies. Merging ([`MetricsSnapshot::merge`],
//!    exact integer arithmetic throughout) is associative and
//!    commutative, so fleet shards can aggregate in any grouping.
//! 3. **Disabled means free.** A disabled [`Registry`] (the
//!    [`MetricsHandle::noop`] default) reduces every record call to one
//!    relaxed load and branch.
//!
//! The histogram ([`Histo`]) is the exact-integer log-linear bucket
//! scheme previously private to `etx_fleet::aggregate::StreamingStat`,
//! lifted here so fleet aggregation, serve latency capture and span
//! timing share one implementation (fleet re-exports it under the old
//! name).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod histo;
mod registry;
mod snapshot;

pub use catalog::{Class, CounterId, GaugeId, SpanId};
pub use histo::Histo;
pub use registry::{AtomicHisto, Counter, Gauge, MetricsHandle, Registry, SpanGuard};
pub use snapshot::MetricsSnapshot;
