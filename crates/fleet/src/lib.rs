//! `etx-fleet` — a sharded multi-fabric fleet controller with scenario
//! generation.
//!
//! The `et_sim` engine answers "how long does *one* garment live?"; this
//! crate answers the production question above it: across a fleet of
//! thousands of independently-configured garments — different fabric
//! sizes and shapes, battery lots, churn patterns, duty cycles and
//! traffic — what do the lifetime, throughput and overhead
//! *distributions* look like?
//!
//! Three pieces:
//!
//! * [`ScenarioSpec`] + [`FleetRng`] — a declarative distribution over
//!   operating conditions and the seeded SplitMix64 stream that expands
//!   it into N reproducible [`SimConfig`][etx_sim::SimConfig]s (instance
//!   `i` depends only on `(seed, i)`);
//! * [`FleetController`] — sharded execution: contiguous instance ranges
//!   fan out over scoped threads, each shard recycling one
//!   [`SimPool`][etx_sim::SimPool] so steady-state memory per shard is
//!   one simulation plus one buffer set;
//! * [`FleetAggregate`] — constant-memory, *exact-integer* streaming
//!   aggregation (fixed-point sums, log-linear histograms) so fleet
//!   percentiles are byte-identical across runs and shard counts.
//!
//! # Example
//!
//! ```
//! use etx_fleet::{FleetController, ScenarioSpec, ShardPlan};
//!
//! let spec = ScenarioSpec { instances: 3, ..ScenarioSpec::smoke() };
//! let result = FleetController::new().with_shards(ShardPlan::Fixed(2)).run(&spec)?;
//! assert_eq!(result.aggregate.instances + result.aggregate.rejected, 3);
//! // Same spec, different sharding: byte-identical aggregates.
//! let serial = FleetController::new().with_shards(ShardPlan::Fixed(1)).run(&spec)?;
//! assert_eq!(serial.aggregate, result.aggregate);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod controller;
mod rng;
mod scenario;

pub use aggregate::{DeathTally, FleetAggregate, StreamingStat};
pub use controller::{FleetController, FleetResult, ShardPlan};
pub use rng::FleetRng;
pub use scenario::{AppChoice, BatteryChoice, ScenarioSpec, TopologyChoice};
