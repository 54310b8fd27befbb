//! # etx — Energy-Aware Routing for E-Textile Applications
//!
//! A complete Rust reproduction of *Kao & Marculescu, "Energy-Aware
//! Routing for E-Textile Applications", DATE 2005*: the EAR/SDR online
//! routing algorithms, the Theorem-1 analytical upper bound, the `et_sim`
//! cycle-accurate platform simulator (mesh + textile transmission lines +
//! thin-film batteries + TDMA control), the 3-module distributed AES
//! driver application, and experiment drivers that regenerate every table
//! and figure of the paper's evaluation.
//!
//! ## Crate map
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | [`units`] | `etx-units` | typed quantities (pJ, mW, V, cm, cycles) |
//! | [`graph`] | `etx-graph` | digraph, Floyd–Warshall + successors, topologies |
//! | [`battery`] | `etx-battery` | ideal / linear / thin-film battery models |
//! | [`energy`] | `etx-energy` | transmission lines, compute energies, packets |
//! | [`app`] | `etx-app` | application model, the AES partition |
//! | [`aes`] | `etx-aes` | FIPS-197 AES + distributed module executor |
//! | [`mapping`] | `etx-mapping` | checkerboard / proportional / custom maps |
//! | [`bound`] | `etx-bound` | Theorem 1 upper bound + optimal duplicates |
//! | [`routing`] | `etx-routing` | EAR and SDR (phases 1–3) |
//! | [`control`] | `etx-control` | TDMA schedule, controllers, overhead ledger |
//! | [`sim`] | `etx-sim` | the cycle-accurate simulator |
//! | [`fleet`] | `etx-fleet` | sharded fleet controller + scenario generation |
//! | [`serve`] | `etx-serve` | snapshot-consistent route query service |
//! | [`metrics`] | `etx-metrics` | counters, span timers, deterministic export |
//! | [`experiments`] | (here) | one driver per paper table/figure |
//!
//! ## Quickstart
//!
//! ```
//! use etx::prelude::*;
//!
//! // Simulate AES on a 4x4 e-textile mesh under EAR (scaled-down
//! // batteries keep the doc-test fast; the paper uses 60_000 pJ).
//! let report = SimConfig::builder()
//!     .mesh_square(4)
//!     .algorithm(Algorithm::Ear)
//!     .battery(BatteryModel::Ideal)
//!     .battery_capacity_picojoules(10_000.0)
//!     .build()?
//!     .run();
//!
//! // Compare against the Theorem-1 bound for the same budget.
//! let inputs = BoundInputs::uniform_comm(
//!     &AppSpec::aes(),
//!     Energy::from_picojoules(116.71),
//! );
//! let bound = upper_bound(&inputs, Energy::from_picojoules(10_000.0), 16)?;
//! assert!(report.jobs_fractional <= bound.jobs());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use etx_aes as aes;
pub use etx_app as app;
pub use etx_battery as battery;
pub use etx_bound as bound;
pub use etx_control as control;
pub use etx_energy as energy;
pub use etx_fleet as fleet;
pub use etx_graph as graph;
pub use etx_mapping as mapping;
pub use etx_metrics as metrics;
pub use etx_routing as routing;
pub use etx_serve as serve;
pub use etx_sim as sim;
pub use etx_trace as trace;
pub use etx_units as units;

pub mod experiments;

/// The most common imports in one place.
pub mod prelude {
    pub use etx_aes::{Aes128, DistributedAes128};
    pub use etx_app::{AppSpec, ModuleId, ModuleSpec};
    pub use etx_battery::{Battery, DischargeCurve, IdealBattery, ThinFilmBattery};
    pub use etx_bound::{upper_bound, BoundInputs, UpperBound};
    pub use etx_control::{ControllerBank, ControllerEnergyModel, TdmaConfig};
    pub use etx_energy::{PacketFormat, TransmissionLineModel};
    pub use etx_fleet::{FleetAggregate, FleetController, ScenarioSpec, ShardPlan};
    pub use etx_graph::{topology::Mesh2D, DiGraph, NodeId};
    pub use etx_mapping::{CheckerboardMapping, MappingStrategy, Placement};
    pub use etx_routing::{Algorithm, BatteryWeighting, Router, SystemReport};
    pub use etx_serve::{FleetFrontend, Query, QueryBatch, QueryOutput, QueryResult};
    pub use etx_sim::{
        BatteryModel, ControllerSetup, DeathCause, JobSource, MappingKind, RemappingPolicy,
        ScriptedFailure, SimConfig, SimPool, SimReport, Simulation, TopologyKind,
    };
    pub use etx_units::{Cycles, Energy, Frequency, Length, Power, Voltage};
}
