//! [`SimConfig`]: everything `et_sim` needs to reproduce a paper run.

use core::fmt;

use etx_app::AppSpec;
use etx_battery::{
    Battery, DischargeCurve, IdealBattery, LinearBattery, ThinFilmBattery, ThinFilmConfig,
};
use etx_control::{ControllerEnergyModel, TdmaConfig};
use etx_energy::{PacketFormat, TransmissionLineModel};
use etx_graph::topology::Mesh2D;
use etx_mapping::{
    CheckerboardMapping, CustomMapping, MappingError, MappingStrategy, Placement,
    ProportionalMapping, RoundRobinMapping,
};
use etx_routing::{Algorithm, BatteryWeighting, RecomputeStrategy};
use etx_units::{Cycles, Energy, Length, Voltage};

use crate::Simulation;

/// Which battery model powers the computation nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum BatteryModel {
    /// Constant voltage, 100 % efficiency until depletion (Table 2).
    Ideal,
    /// The Li-free thin-film cell with its discharge curve and
    /// discrete-time effects (Fig 7, Fig 8). Uses the default
    /// [`ThinFilmConfig`] coefficients.
    ThinFilm,
    /// Thin-film with explicit discrete-time coefficients (for ablations).
    ThinFilmCustom {
        /// Rate-capacity coefficient (see [`ThinFilmConfig`]).
        rate_capacity_coeff: f64,
        /// Recovery fraction per 1000 idle cycles.
        recovery_per_kilocycle: f64,
    },
    /// Linear voltage decline between two rails with a death cutoff.
    Linear {
        /// Full-charge voltage.
        v_full: Voltage,
        /// Empty voltage.
        v_empty: Voltage,
        /// Death cutoff.
        cutoff: Voltage,
    },
}

impl BatteryModel {
    /// Instantiates one battery of this model with the given capacity.
    #[must_use]
    pub fn build(&self, capacity: Energy) -> Box<dyn Battery> {
        match self {
            BatteryModel::Ideal => Box::new(IdealBattery::new(capacity)),
            BatteryModel::ThinFilm => Box::new(ThinFilmBattery::new(capacity)),
            BatteryModel::ThinFilmCustom { rate_capacity_coeff, recovery_per_kilocycle } => {
                Box::new(ThinFilmBattery::with_config(ThinFilmConfig {
                    nominal: capacity,
                    curve: DischargeCurve::li_free_thin_film(),
                    rate_capacity_coeff: *rate_capacity_coeff,
                    recovery_per_kilocycle: *recovery_per_kilocycle,
                    ..ThinFilmConfig::default()
                }))
            }
            BatteryModel::Linear { v_full, v_empty, cutoff } => {
                Box::new(LinearBattery::new(capacity, *v_full, *v_empty, *cutoff))
            }
        }
    }
}

/// How the platform's central controllers are provisioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerSetup {
    /// One controller with infinite energy (Sec 7.1–7.2).
    Infinite,
    /// `count` battery-powered controllers with failover (Sec 7.3 /
    /// Fig 8); each gets the same battery capacity as the nodes.
    Finite {
        /// Number of provisioned controllers.
        count: usize,
    },
}

/// Where new jobs enter the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobSource {
    /// Jobs enter the mesh at a fixed gateway node — the sensor/actuator
    /// attach point of the paper's Fig 3(a) smart shirt (1-indexed mesh
    /// coordinates). The gateway relays every job's first packet; if it
    /// dies or is cut off, no further jobs can be injected.
    Gateway {
        /// Gateway x coordinate (1-indexed).
        x: usize,
        /// Gateway y coordinate (1-indexed).
        y: usize,
    },
    /// Jobs enter at a fixed gateway addressed by node id — the only
    /// gateway form available on coordinate-free topologies.
    GatewayNode {
        /// Dense node index of the gateway.
        node: usize,
    },
    /// Jobs materialize directly at a duplicate of their first module —
    /// chosen by highest reported battery (ties toward lower node id).
    /// Models sensors attached across the whole fabric.
    Broadcast,
}

/// Which mapping strategy assigns modules to mesh nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum MappingKind {
    /// The paper's parity checkerboard (3-module apps only).
    Checkerboard,
    /// Theorem-1 proportional mapping (any app); uses the platform's
    /// calibrated per-act communication energy.
    Proportional,
    /// `node mod p` striping.
    RoundRobin,
    /// An explicit per-node module assignment (row-major).
    Custom(Vec<etx_app::ModuleId>),
}

/// The physical interconnect shape of the platform.
///
/// `et_sim` "supports, in default mode, any 2D mesh"; the routing
/// algorithms themselves are general-purpose, so the simulator also
/// accepts wrap-around tori, rings and fully custom fabrics. Non-mesh
/// topologies have no `(x, y)` coordinates: use a coordinate-free
/// mapping ([`MappingKind::Proportional`], [`MappingKind::RoundRobin`] or
/// [`MappingKind::Custom`]) and a node-id job source
/// ([`JobSource::GatewayNode`] or [`JobSource::Broadcast`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyKind {
    /// The default `width x height` mesh (the paper's platform).
    Mesh,
    /// A mesh with wrap-around links.
    Torus,
    /// A ring of `width * height` nodes.
    Ring,
    /// An arbitrary fabric; edge lengths come from the graph itself.
    Custom(etx_graph::DiGraph),
}

/// Opt-in module-remapping policy — the *code migration* lifetime lever
/// of Stanley-Marbell et al. that the paper explicitly leaves out of its
/// fixed-mapping formulation (Sec 3). When enabled, the central
/// controller watches each module's live duplicate count during TDMA
/// frames; when a module drops below `min_live_duplicates`, an idle,
/// well-charged node from an over-provisioned module is reprogrammed to
/// host the endangered module, paying `migration_energy` and staying
/// busy for `migration_cycles`.
#[derive(Debug, Clone, PartialEq)]
pub struct RemappingPolicy {
    /// Reprogram once a module's live duplicates fall below this.
    pub min_live_duplicates: usize,
    /// Energy the donor pays to be reprogrammed (bitstream transfer +
    /// reconfiguration).
    pub migration_energy: Energy,
    /// Cycles the donor is unavailable while reprogramming.
    pub migration_cycles: Cycles,
}

impl Default for RemappingPolicy {
    fn default() -> Self {
        RemappingPolicy {
            min_live_duplicates: 2,
            migration_energy: Energy::from_picojoules(500.0),
            migration_cycles: Cycles::new(64),
        }
    }
}

/// One scripted node failure: at cycle `at_cycle`, node `node` is ripped
/// out of the fabric (cut trace, torn connector, washing-machine event),
/// whatever its remaining charge — which is then accounted as stranded
/// energy. This is the churn-injection lever fleet scenarios sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedFailure {
    /// Simulation cycle at which the node fails.
    pub at_cycle: u64,
    /// Dense node index of the failing node.
    pub node: usize,
}

/// One scripted node revival: at cycle `at_cycle`, node `node` is
/// reconnected to the fabric (re-seated connector, re-stitched trace) if a
/// scripted failure had ripped it out. The battery rode along untouched
/// while disconnected, so the node reports back in with whatever charge it
/// still holds; reviving a node that is live, or whose *battery* died, is
/// a no-op. This is the reconnect lever fleet churn scenarios sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedRevival {
    /// Simulation cycle at which the node reconnects.
    pub at_cycle: u64,
    /// Dense node index of the reconnecting node.
    pub node: usize,
}

/// Errors raised while assembling a [`Simulation`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The mapping strategy could not place the application.
    Mapping(MappingError),
    /// The gateway coordinates fall outside the mesh.
    GatewayOutOfRange {
        /// Requested x.
        x: usize,
        /// Requested y.
        y: usize,
    },
    /// A config field failed validation.
    InvalidConfig(&'static str),
    /// The chosen job source or mapping needs mesh coordinates that this
    /// topology does not have.
    TopologyMismatch(&'static str),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Mapping(e) => write!(f, "mapping failed: {e}"),
            SimError::GatewayOutOfRange { x, y } => {
                write!(f, "gateway ({x},{y}) is outside the mesh")
            }
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::TopologyMismatch(msg) => write!(f, "topology mismatch: {msg}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Mapping(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MappingError> for SimError {
    fn from(e: MappingError) -> Self {
        SimError::Mapping(e)
    }
}

/// The complete, validated configuration of one `et_sim` run.
///
/// Defaults reproduce the paper's main setup: AES on a 4x4 mesh with
/// 2.05 cm links (calibrated to Table 2's implied per-hop energy),
/// checkerboard mapping, EAR with `N_B = 16`/`Q = 2`, thin-film 60 000 pJ
/// batteries, an infinite controller, single-job operation, and the
/// default TDMA frame schedule.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Mesh width (columns).
    pub mesh_width: usize,
    /// Mesh height (rows).
    pub mesh_height: usize,
    /// Physical link length between mesh neighbours.
    pub link_pitch: Length,
    /// Interconnect shape.
    pub topology: TopologyKind,
    /// Transmission-line energy model.
    pub line_model: TransmissionLineModel,
    /// Data-packet format.
    pub packet: PacketFormat,
    /// Switching activity on data lines.
    pub switching_activity: f64,
    /// The application to run.
    pub app: AppSpec,
    /// Module-to-node mapping strategy.
    pub mapping: MappingKind,
    /// Node battery model.
    pub battery: BatteryModel,
    /// Battery budget `B` per node.
    pub battery_capacity: Energy,
    /// Per-node battery-capacity multipliers (battery heterogeneity).
    /// Node `i` gets `battery_capacity * capacity_profile[i % len]`;
    /// empty (the default) means a uniform fleet. Entries must be
    /// positive and finite.
    pub capacity_profile: Vec<f64>,
    /// Scripted node failures (churn injection), applied when the
    /// simulation clock reaches each entry's cycle. Order is irrelevant;
    /// the engine sorts a copy. Empty by default.
    pub scripted_failures: Vec<ScriptedFailure>,
    /// Scripted node revivals (reconnect injection), applied when the
    /// simulation clock reaches each entry's cycle. Order is irrelevant;
    /// the engine sorts a copy. Empty by default.
    pub scripted_revivals: Vec<ScriptedRevival>,
    /// Routing algorithm (EAR or SDR).
    pub algorithm: Algorithm,
    /// How the controller recomputes routes between TDMA frames. Both
    /// strategies produce identical routing (and therefore identical
    /// simulation results); they differ only in controller-side cost.
    pub recompute_strategy: RecomputeStrategy,
    /// EAR battery weighting (`N_B`, `Q`).
    pub weighting: BatteryWeighting,
    /// TDMA schedule.
    pub tdma: TdmaConfig,
    /// When `true` (default), the shared control medium's length is
    /// derived from the fabric size — `(width + height) * pitch`, the
    /// half-perimeter a bus spanning the mesh must cover — overriding
    /// `tdma.medium_length`. A bigger shirt needs a longer control bus,
    /// which is what makes the paper's overhead percentages grow with
    /// mesh size (2.8 % at 4x4 up to 11.6 % at 8x8).
    pub auto_medium_length: bool,
    /// Controller provisioning.
    pub controllers: ControllerSetup,
    /// Where jobs enter.
    pub source: JobSource,
    /// Jobs kept in flight concurrently.
    pub concurrent_jobs: usize,
    /// Optional module-remapping (code-migration) policy.
    pub remapping: Option<RemappingPolicy>,
    /// Cycles one act of computation takes.
    pub compute_cycles: Cycles,
    /// Cycles one hop takes.
    pub hop_cycles: Cycles,
    /// Packet slots per node buffer (relevant with concurrent jobs).
    pub buffer_capacity: usize,
    /// Job stuck longer than this reports a deadlock.
    pub deadlock_threshold: Cycles,
    /// All jobs stuck longer than this kills the system (irrecoverable
    /// stall).
    pub stall_giveup: Cycles,
    /// Hard safety stop.
    pub max_cycles: u64,
    /// Event-trace capacity; 0 (default) disables tracing.
    pub trace_capacity: usize,
    /// When `true`, a full trace overwrites its *oldest* events (ring
    /// buffer) instead of dropping new ones — long fleet runs keep the
    /// interesting tail with bounded memory. Default `false` (the seed's
    /// keep-first behaviour).
    pub trace_ring: bool,
}

impl SimConfig {
    /// Starts a builder pre-loaded with the paper's defaults.
    #[must_use]
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder { config: SimConfig::default() }
    }

    /// Wraps an already-assembled config in a builder, so programmatic
    /// producers (fleet scenario sampling) can go through the same
    /// validation and pooled-construction paths as hand-written specs.
    #[must_use]
    pub fn into_builder(self) -> SimConfigBuilder {
        SimConfigBuilder { config: self }
    }

    /// The mesh geometry.
    #[must_use]
    pub fn mesh(&self) -> Mesh2D {
        Mesh2D::new(self.mesh_width, self.mesh_height, self.link_pitch)
    }

    /// Number of nodes `K` (for [`TopologyKind::Custom`], the graph's
    /// node count; otherwise `width * height`).
    #[must_use]
    pub fn node_count(&self) -> usize {
        match &self.topology {
            TopologyKind::Custom(graph) => graph.node_count(),
            _ => self.mesh_width * self.mesh_height,
        }
    }

    /// Builds the interconnect graph for this configuration.
    #[must_use]
    pub fn build_graph(&self) -> etx_graph::DiGraph {
        match &self.topology {
            TopologyKind::Mesh => self.mesh().to_graph(),
            TopologyKind::Torus => {
                etx_graph::topology::torus(self.mesh_width, self.mesh_height, self.link_pitch)
            }
            TopologyKind::Ring => {
                etx_graph::topology::ring(self.mesh_width * self.mesh_height, self.link_pitch)
            }
            TopologyKind::Custom(graph) => graph.clone(),
        }
    }

    /// `true` when the topology carries mesh coordinates.
    #[must_use]
    pub fn has_mesh_coordinates(&self) -> bool {
        matches!(self.topology, TopologyKind::Mesh | TopologyKind::Torus)
    }

    /// The calibrated per-act communication energy: one packet over one
    /// default-pitch hop. This is the `c_i` the analytical bound uses.
    #[must_use]
    pub fn comm_energy_per_act(&self) -> Energy {
        self.line_model.packet_energy(self.link_pitch, &self.packet, self.switching_activity)
    }

    /// The controller energy model scaled for this mesh.
    #[must_use]
    pub fn controller_model(&self) -> ControllerEnergyModel {
        ControllerEnergyModel::for_mesh_nodes(self.node_count())
    }

    /// Resolves the mapping strategy into a placement.
    ///
    /// # Errors
    ///
    /// Propagates [`MappingError`] from the strategy.
    pub fn placement(&self) -> Result<Placement, MappingError> {
        if self.has_mesh_coordinates() {
            let mesh = self.mesh();
            match &self.mapping {
                MappingKind::Checkerboard => CheckerboardMapping.place(&mesh, &self.app),
                MappingKind::Proportional => {
                    ProportionalMapping::new(self.comm_energy_per_act()).place(&mesh, &self.app)
                }
                MappingKind::RoundRobin => RoundRobinMapping.place(&mesh, &self.app),
                MappingKind::Custom(assignment) => {
                    CustomMapping::new(assignment.clone()).place(&mesh, &self.app)
                }
            }
        } else {
            let nodes = self.node_count();
            match &self.mapping {
                MappingKind::Checkerboard => CheckerboardMapping.place_nodes(nodes, &self.app),
                MappingKind::Proportional => ProportionalMapping::new(self.comm_energy_per_act())
                    .place_nodes(nodes, &self.app),
                MappingKind::RoundRobin => RoundRobinMapping.place_nodes(nodes, &self.app),
                MappingKind::Custom(assignment) => {
                    CustomMapping::new(assignment.clone()).place_nodes(nodes, &self.app)
                }
            }
        }
    }

    /// The battery budget of node `i` after applying the heterogeneity
    /// profile (the uniform `battery_capacity` when the profile is
    /// empty).
    #[must_use]
    pub fn effective_capacity(&self, node: usize) -> Energy {
        if self.capacity_profile.is_empty() {
            self.battery_capacity
        } else {
            self.battery_capacity * self.capacity_profile[node % self.capacity_profile.len()]
        }
    }

    /// Resolves the configured job source to a gateway node id, if the
    /// source is gateway-based.
    #[must_use]
    pub fn gateway_node(&self) -> Option<etx_graph::NodeId> {
        match self.source {
            JobSource::Gateway { x, y } => self.mesh().node_at(x, y),
            JobSource::GatewayNode { node } => Some(etx_graph::NodeId::new(node)),
            JobSource::Broadcast => None,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mesh_width: 4,
            mesh_height: 4,
            link_pitch: Length::from_centimetres(2.05),
            topology: TopologyKind::Mesh,
            line_model: TransmissionLineModel::textile(),
            packet: PacketFormat::default(),
            switching_activity: 1.0,
            app: AppSpec::aes(),
            mapping: MappingKind::Checkerboard,
            battery: BatteryModel::ThinFilm,
            battery_capacity: Energy::from_picojoules(60_000.0),
            capacity_profile: Vec::new(),
            scripted_failures: Vec::new(),
            scripted_revivals: Vec::new(),
            algorithm: Algorithm::Ear,
            recompute_strategy: RecomputeStrategy::Auto,
            weighting: BatteryWeighting::default(),
            tdma: TdmaConfig::default(),
            auto_medium_length: true,
            controllers: ControllerSetup::Infinite,
            source: JobSource::Gateway { x: 1, y: 1 },
            concurrent_jobs: 1,
            remapping: None,
            compute_cycles: Cycles::new(4),
            hop_cycles: Cycles::new(2),
            buffer_capacity: 2,
            deadlock_threshold: Cycles::new(256),
            stall_giveup: Cycles::new(16_384),
            max_cycles: 20_000_000,
            trace_capacity: 0,
            trace_ring: false,
        }
    }
}

/// Builder for [`SimConfig`] (see [`SimConfig::builder`]).
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Sets a `width x height` mesh.
    #[must_use]
    pub fn mesh(mut self, width: usize, height: usize) -> Self {
        self.config.mesh_width = width;
        self.config.mesh_height = height;
        self
    }

    /// Sets a square `n x n` mesh (the paper's shapes).
    #[must_use]
    pub fn mesh_square(self, n: usize) -> Self {
        self.mesh(n, n)
    }

    /// Sets the routing algorithm.
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.config.algorithm = algorithm;
        self
    }

    /// Sets the routing recompute strategy (default
    /// [`RecomputeStrategy::Auto`]).
    #[must_use]
    pub fn recompute_strategy(mut self, strategy: RecomputeStrategy) -> Self {
        self.config.recompute_strategy = strategy;
        self
    }

    /// Sets the EAR battery weighting.
    #[must_use]
    pub fn weighting(mut self, weighting: BatteryWeighting) -> Self {
        self.config.weighting = weighting;
        self
    }

    /// Sets the node battery model.
    #[must_use]
    pub fn battery(mut self, battery: BatteryModel) -> Self {
        self.config.battery = battery;
        self
    }

    /// Sets the per-node battery budget `B` in picojoules.
    #[must_use]
    pub fn battery_capacity_picojoules(mut self, pj: f64) -> Self {
        self.config.battery_capacity = Energy::from_picojoules(pj);
        self
    }

    /// Sets the application.
    #[must_use]
    pub fn app(mut self, app: AppSpec) -> Self {
        self.config.app = app;
        self
    }

    /// Sets the mapping strategy.
    #[must_use]
    pub fn mapping(mut self, mapping: MappingKind) -> Self {
        self.config.mapping = mapping;
        self
    }

    /// Sets the controller provisioning.
    #[must_use]
    pub fn controllers(mut self, controllers: ControllerSetup) -> Self {
        self.config.controllers = controllers;
        self
    }

    /// Sets the job source.
    #[must_use]
    pub fn source(mut self, source: JobSource) -> Self {
        self.config.source = source;
        self
    }

    /// Sets the number of concurrent jobs.
    #[must_use]
    pub fn concurrent_jobs(mut self, jobs: usize) -> Self {
        self.config.concurrent_jobs = jobs;
        self
    }

    /// Enables module remapping (code migration) with the given policy.
    #[must_use]
    pub fn remapping(mut self, policy: RemappingPolicy) -> Self {
        self.config.remapping = Some(policy);
        self
    }

    /// Sets the TDMA schedule.
    #[must_use]
    pub fn tdma(mut self, tdma: TdmaConfig) -> Self {
        self.config.tdma = tdma;
        self
    }

    /// Sets the physical link pitch.
    #[must_use]
    pub fn link_pitch(mut self, pitch: Length) -> Self {
        self.config.link_pitch = pitch;
        self
    }

    /// Sets the interconnect topology.
    #[must_use]
    pub fn topology(mut self, topology: TopologyKind) -> Self {
        self.config.topology = topology;
        self
    }

    /// Sets the per-node buffer capacity.
    #[must_use]
    pub fn buffer_capacity(mut self, slots: usize) -> Self {
        self.config.buffer_capacity = slots;
        self
    }

    /// Sets the deadlock-report threshold.
    #[must_use]
    pub fn deadlock_threshold(mut self, cycles: Cycles) -> Self {
        self.config.deadlock_threshold = cycles;
        self
    }

    /// Sets the hard cycle limit.
    #[must_use]
    pub fn max_cycles(mut self, cycles: u64) -> Self {
        self.config.max_cycles = cycles;
        self
    }

    /// Enables event tracing with the given capacity.
    #[must_use]
    pub fn trace_capacity(mut self, events: usize) -> Self {
        self.config.trace_capacity = events;
        self
    }

    /// Makes a full trace overwrite its oldest events (ring buffer)
    /// instead of dropping new ones.
    #[must_use]
    pub fn trace_ring(mut self, ring: bool) -> Self {
        self.config.trace_ring = ring;
        self
    }

    /// Sets per-node battery-capacity multipliers (battery
    /// heterogeneity); node `i` gets `battery_capacity * profile[i % len]`.
    #[must_use]
    pub fn capacity_profile(mut self, profile: Vec<f64>) -> Self {
        self.config.capacity_profile = profile;
        self
    }

    /// Schedules scripted node failures (churn injection).
    #[must_use]
    pub fn scripted_failures(mut self, failures: Vec<ScriptedFailure>) -> Self {
        self.config.scripted_failures = failures;
        self
    }

    /// Schedules scripted node revivals (reconnect injection).
    #[must_use]
    pub fn scripted_revivals(mut self, revivals: Vec<ScriptedRevival>) -> Self {
        self.config.scripted_revivals = revivals;
        self
    }

    /// Grants direct access for fields without a dedicated setter.
    #[must_use]
    pub fn tweak(mut self, f: impl FnOnce(&mut SimConfig)) -> Self {
        f(&mut self.config);
        self
    }

    /// Validates the configuration and assembles the [`Simulation`].
    ///
    /// Validation is descriptive and non-fatal: every bad spec —
    /// including the TDMA schedule, the heterogeneity profile and
    /// scripted failures — comes back as an `Err`, never a panic, so
    /// fleet scenario sampling can reject and move on.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for out-of-range scalar fields,
    /// [`SimError::GatewayOutOfRange`] for a bad gateway, and
    /// [`SimError::Mapping`] when the application cannot be placed.
    pub fn build(self) -> Result<Simulation, SimError> {
        Simulation::new(self.validate()?)
    }

    /// Like [`SimConfigBuilder::build`], but drawing the routing
    /// scratch, table and report buffers from `pool` instead of
    /// allocating fresh ones — the fleet controller's per-shard reuse
    /// path. [`Simulation::run_pooled`] returns them when the run ends.
    ///
    /// # Errors
    ///
    /// Same as [`SimConfigBuilder::build`].
    pub fn build_pooled(self, pool: &mut crate::SimPool) -> Result<Simulation, SimError> {
        Simulation::new_pooled(self.validate()?, pool)
    }

    /// Runs every validation check and returns the finalized
    /// [`SimConfig`] (with the auto-derived medium length applied).
    ///
    /// # Errors
    ///
    /// Same as [`SimConfigBuilder::build`].
    pub fn validate(self) -> Result<SimConfig, SimError> {
        let c = &self.config;
        if c.mesh_width == 0 || c.mesh_height == 0 {
            return Err(SimError::InvalidConfig("mesh dimensions must be positive"));
        }
        if c.concurrent_jobs == 0 {
            return Err(SimError::InvalidConfig("need at least one concurrent job"));
        }
        if c.buffer_capacity == 0 {
            return Err(SimError::InvalidConfig("buffer capacity must be positive"));
        }
        if !(0.0..=1.0).contains(&c.switching_activity) {
            return Err(SimError::InvalidConfig("switching activity must be in [0, 1]"));
        }
        if c.compute_cycles.is_zero() || c.hop_cycles.is_zero() {
            return Err(SimError::InvalidConfig("compute/hop latencies must be positive"));
        }
        if c.battery_capacity.picojoules() <= 0.0 {
            return Err(SimError::InvalidConfig("battery capacity must be positive"));
        }
        if !c.capacity_profile.iter().all(|m| m.is_finite() && *m > 0.0) {
            return Err(SimError::InvalidConfig(
                "capacity profile multipliers must be positive and finite",
            ));
        }
        if let ControllerSetup::Finite { count: 0 } = c.controllers {
            return Err(SimError::InvalidConfig("finite controller bank needs at least one"));
        }
        c.tdma.check().map_err(SimError::InvalidConfig)?;
        match c.source {
            JobSource::Gateway { x, y } => {
                if !c.has_mesh_coordinates() {
                    return Err(SimError::TopologyMismatch(
                        "coordinate gateways need a mesh or torus; use GatewayNode",
                    ));
                }
                if c.mesh().node_at(x, y).is_none() {
                    return Err(SimError::GatewayOutOfRange { x, y });
                }
            }
            JobSource::GatewayNode { node } => {
                if node >= c.node_count() {
                    return Err(SimError::GatewayOutOfRange { x: node, y: 0 });
                }
            }
            JobSource::Broadcast => {}
        }
        if matches!(c.topology, TopologyKind::Ring) && c.mesh_width * c.mesh_height < 3 {
            return Err(SimError::InvalidConfig("ring topology needs at least 3 nodes"));
        }
        if c.scripted_failures.iter().any(|f| f.node >= c.node_count()) {
            return Err(SimError::InvalidConfig(
                "scripted failure names a node outside the fabric",
            ));
        }
        if c.scripted_revivals.iter().any(|r| r.node >= c.node_count()) {
            return Err(SimError::InvalidConfig(
                "scripted revival names a node outside the fabric",
            ));
        }
        let mut config = self.config;
        if config.auto_medium_length {
            config.tdma.medium_length =
                config.link_pitch * (config.mesh_width + config.mesh_height) as f64;
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper() {
        let c = SimConfig::default();
        assert_eq!(c.node_count(), 16);
        assert_eq!(c.battery_capacity.picojoules(), 60_000.0);
        assert_eq!(c.algorithm, Algorithm::Ear);
        // Calibration: per-act communication energy ~116.7 pJ (DESIGN.md).
        assert!((c.comm_energy_per_act().picojoules() - 116.7).abs() < 1.0);
    }

    #[test]
    fn battery_model_builds_each_kind() {
        let cap = Energy::from_picojoules(100.0);
        assert!(!BatteryModel::Ideal.build(cap).is_dead());
        assert!(!BatteryModel::ThinFilm.build(cap).is_dead());
        assert!(!BatteryModel::ThinFilmCustom {
            rate_capacity_coeff: 0.1,
            recovery_per_kilocycle: 0.1
        }
        .build(cap)
        .is_dead());
        assert!(!BatteryModel::Linear {
            v_full: Voltage::from_volts(4.0),
            v_empty: Voltage::from_volts(2.0),
            cutoff: Voltage::from_volts(3.0),
        }
        .build(cap)
        .is_dead());
    }

    #[test]
    fn builder_validation() {
        assert!(matches!(SimConfig::builder().mesh(0, 4).build(), Err(SimError::InvalidConfig(_))));
        assert!(matches!(
            SimConfig::builder().concurrent_jobs(0).build(),
            Err(SimError::InvalidConfig(_))
        ));
        assert!(matches!(
            SimConfig::builder().source(JobSource::Gateway { x: 9, y: 1 }).build(),
            Err(SimError::GatewayOutOfRange { x: 9, y: 1 })
        ));
        assert!(matches!(
            SimConfig::builder().controllers(ControllerSetup::Finite { count: 0 }).build(),
            Err(SimError::InvalidConfig(_))
        ));
        let err = SimConfig::builder().mesh(0, 4).build().unwrap_err();
        assert!(err.to_string().contains("mesh"));
    }

    #[test]
    fn mapping_error_propagates() {
        // Checkerboard needs 3 modules; a 2x2 round-robin works instead.
        let app = AppSpec::aes();
        let result = SimConfig::builder()
            .app(app)
            .mapping(MappingKind::Custom(vec![etx_app::ModuleId::new(0); 16]))
            .build();
        assert!(matches!(result, Err(SimError::Mapping(_))));
    }

    #[test]
    fn tweak_reaches_all_fields() {
        let sim =
            SimConfig::builder().tweak(|c| c.max_cycles = 123).max_cycles(456).build().unwrap();
        assert_eq!(sim.config().max_cycles, 456);
    }
}
