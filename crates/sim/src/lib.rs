//! `et_sim` — the cycle-accurate e-textile network simulator of the
//! DATE'05 paper, rebuilt in Rust.
//!
//! The simulator advances in clock cycles and models, with the energy
//! values of Sec 5:
//!
//! * a 2-D mesh of computation nodes (any [`Mesh2D`] size; the paper uses
//!   4x4 … 8x8), each hosting one application-module instance with its own
//!   battery ([`BatteryModel`]: ideal for Table 2, thin-film for Fig 7/8);
//! * store-and-forward packet transport over textile transmission lines,
//!   with the *sending* node paying each hop's energy (the paper's `C_j`);
//! * the TDMA control mechanism: periodic status uploads (which drain node
//!   batteries), controller-side routing recomputation whenever the
//!   reported information changes, and downloads of fresh next hops;
//! * online EAR or SDR routing with deadlock detection and recovery;
//! * battery-powered controller banks with failover (Sec 7.3) or the
//!   idealized infinite controller (Sec 7.1–7.2);
//! * single-job operation ("a new job is launched when the previous one is
//!   completed") or multiple concurrent jobs with finite node buffers.
//!
//! The simulation ends when the *system dies*: some module loses its last
//! live duplicate, all controllers die, the job source is cut off, or all
//! in-flight jobs are irrecoverably stalled. [`SimReport`] then carries
//! the numbers every figure of the paper is built from: jobs completed
//! (fractional, as in Table 2's 62.8), lifetime, the full energy
//! breakdown, and the control-overhead percentage.
//!
//! # Examples
//!
//! ```
//! use etx_routing::Algorithm;
//! use etx_sim::{BatteryModel, SimConfig};
//!
//! // A quick 4x4 run with tiny batteries to keep the doc-test fast.
//! let report = SimConfig::builder()
//!     .mesh_square(4)
//!     .algorithm(Algorithm::Ear)
//!     .battery(BatteryModel::Ideal)
//!     .battery_capacity_picojoules(6_000.0)
//!     .build()?
//!     .run();
//! assert!(report.jobs_completed > 0);
//! # Ok::<(), etx_sim::SimError>(())
//! ```
//!
//! [`Mesh2D`]: etx_graph::topology::Mesh2D

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod job;
mod node;
mod pool;
mod stats;
mod trace;

pub use config::{
    BatteryModel, ControllerSetup, JobSource, MappingKind, RemappingPolicy, ScriptedFailure,
    ScriptedRevival, SimConfig, SimConfigBuilder, SimError, TopologyKind,
};
pub use engine::{FrameRecorder, FrameSnapshot, Simulation, TableObserver};
pub use etx_routing::{RecomputeStats, RecomputeStrategy};
pub use pool::SimPool;
pub use stats::{DeathCause, EnergyBreakdown, NodeStats, SimReport};
pub use trace::{SimTrace, TraceEntry, TraceEvent, TraceOverflow, TraceRun};
