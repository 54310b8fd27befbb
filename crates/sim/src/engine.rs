//! The [`Simulation`] engine: the cycle loop of `et_sim`.

use etx_control::{ControlLedger, ControllerBank, ControllerEnergyModel};
use etx_graph::{DiGraph, NodeId};
use etx_mapping::Placement;
use etx_metrics::{CounterId, GaugeId, MetricsHandle, MetricsSnapshot, SpanId};
use etx_routing::{RecomputeStats, Router, RoutingScratch, RoutingState, SystemReport};
use etx_units::Energy;

use crate::config::{
    ControllerSetup, JobSource, ScriptedFailure, ScriptedRevival, SimConfig, SimError,
};
use crate::job::{Job, JobPhase};
use crate::node::{DrainKind, NodeState};
use crate::pool::SimPool;
use crate::stats::{DeathCause, EnergyBreakdown, NodeStats, SimReport};
use crate::trace::{SimTrace, TraceEntry, TraceEvent};

/// Observer of freshly recomputed routing tables — the engine's publish
/// hook for read-side table services (see the `etx-serve` crate).
///
/// The engine calls [`TableObserver::on_tables`] once when the observer
/// is attached (covering the tables computed at construction) and then
/// after **every** routing recompute, inside the TDMA frame, before any
/// job consults the new tables. `version` is the engine's monotonically
/// increasing routing version; `routing` and `report` are the freshly
/// published state and the system report it was computed from.
pub trait TableObserver: Send {
    /// One freshly recomputed routing state.
    fn on_tables(&mut self, version: u64, routing: &RoutingState, report: &SystemReport);
}

/// Everything the engine exposes about one *completed* TDMA frame — the
/// input of the [`FrameRecorder`] hook.
///
/// The snapshot is taken after the frame's recompute/publish work,
/// *before* the edge-triggered deadlock flags are cleared (so `report`
/// still shows the deadlocks the controller just serviced). Every field
/// except the cost counters in `recompute` is byte-identical across
/// recompute strategies.
#[derive(Debug)]
pub struct FrameSnapshot<'a> {
    /// 1-based frame number (the engine's monotonically increasing
    /// frame counter; partial death frames are skipped, not renumbered).
    pub frame: u64,
    /// The cycle this frame boundary fired at.
    pub cycle: u64,
    /// Routing-table version after this frame (bumped iff `recomputed`).
    pub routing_version: u64,
    /// Whether this frame recomputed the routing tables.
    pub recomputed: bool,
    /// The system report the controller acted on this frame: battery
    /// buckets, liveness, and the frame's (not-yet-cleared) deadlock
    /// flags.
    pub report: &'a SystemReport,
    /// *Cumulative* recompute counters as of this frame; diff
    /// consecutive snapshots with
    /// [`RecomputeStats::delta_since`] for per-frame costs.
    pub recompute: RecomputeStats,
    /// What this frame alone cost: `recompute` diffed against the
    /// previous frame's snapshot by the engine itself — the single
    /// per-frame delta every consumer (trace recorder, metrics
    /// registry, benches) shares instead of keeping its own
    /// previous-snapshot state.
    pub recompute_delta: RecomputeStats,
    /// Trace events since the previous recorded frame (each entry
    /// carries its own frame/cycle stamp). Delivered even when
    /// [`SimConfig::trace_capacity`](crate::SimConfig::trace_capacity)
    /// is 0 — recording taps the event stream directly.
    pub events: &'a [TraceEntry],
    /// Cumulative energy the shared medium consumed (uploads +
    /// downloads).
    pub medium_energy: Energy,
    /// Cumulative energy the controller bank consumed.
    pub controller_energy: Energy,
    /// Jobs completed so far.
    pub jobs_completed: u64,
    /// Jobs lost so far.
    pub jobs_lost: u64,
}

/// Per-frame observer — the engine's recording hook (the frame-granular
/// sibling of [`TableObserver`], which only sees recompute frames).
///
/// Attached with [`Simulation::set_frame_recorder`]; called once per
/// completed TDMA frame. Frames that die mid-frame
/// (controller death, module extinction during upload) are not
/// delivered — a replay of the same config dies at the same point.
pub trait FrameRecorder: Send {
    /// One completed frame.
    fn on_frame(&mut self, snapshot: &FrameSnapshot<'_>);
}

/// Outcome of advancing one job for one cycle.
enum JobOutcome {
    /// Still in flight.
    Continue,
    /// Walked its whole operation sequence.
    Completed,
    /// Lost to a node death.
    Lost,
}

/// One `et_sim` run in progress.
///
/// Create it with [`SimConfig::builder`], drive it with
/// [`Simulation::step`] or just call [`Simulation::run`].
pub struct Simulation {
    cfg: SimConfig,
    /// Resolved gateway node for gateway-based job sources.
    gateway: Option<NodeId>,
    graph: DiGraph,
    placement: Placement,
    nodes: Vec<NodeState>,
    router: Router,
    routing: RoutingState,
    /// Reusable workspace for routing recomputes: after the first frame
    /// the steady-state recompute performs no heap allocation, and the
    /// dirty-node feed lets the router repair (or skip) phase-2 work
    /// instead of re-solving it.
    routing_scratch: RoutingScratch,
    /// The frame's routing delta feed: nodes whose battery bucket or
    /// liveness changed since the last published report.
    dirty_nodes: Vec<NodeId>,
    /// The report the current routing tables were computed from.
    last_report: SystemReport,
    /// The recycled buffer each frame rebuilds its report into; it swaps
    /// with `last_report` whenever the frame recomputes.
    report_buf: SystemReport,
    bank: ControllerBank,
    controller_model: ControllerEnergyModel,
    ledger: ControlLedger,
    jobs: Vec<Job>,
    /// Recycled spare for the per-cycle survivor sweep, so steady-state
    /// stepping performs no heap allocation.
    jobs_spare: Vec<Job>,
    now: u64,
    next_job_id: u64,
    // Event accumulators.
    jobs_completed: u64,
    jobs_lost: u64,
    finished_fraction: f64,
    deadlock_reports: u64,
    remaps: u64,
    /// 1 after the start-up recompute, bumped by every frame recompute:
    /// the table version jobs compare against, and the recompute count
    /// `SimReport::routing_recomputes` reports.
    routing_version: u64,
    frames: u64,
    /// Scripted failures sorted by cycle; `failure_cursor` tracks the
    /// next one due.
    failures: Vec<ScriptedFailure>,
    failure_cursor: usize,
    /// Scripted revivals sorted by cycle; `revival_cursor` tracks the
    /// next one due.
    revivals: Vec<ScriptedRevival>,
    revival_cursor: usize,
    pending_death: Option<DeathCause>,
    death: Option<DeathCause>,
    trace: SimTrace,
    /// Publish hook: told about every fresh routing state (see
    /// [`TableObserver`]).
    table_observer: Option<Box<dyn TableObserver>>,
    /// Recording hook: told about every completed TDMA frame (see
    /// [`FrameRecorder`]).
    frame_recorder: Option<Box<dyn FrameRecorder>>,
    /// Where frame counters and phase spans are recorded. Defaults to
    /// the shared no-op registry (one relaxed load per record call).
    metrics: MetricsHandle,
    /// The recompute counters as of the previous completed frame — the
    /// engine-owned state behind [`FrameSnapshot::recompute_delta`].
    prev_frame_stats: RecomputeStats,
}

impl core::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("mesh", &format_args!("{}x{}", self.cfg.mesh_width, self.cfg.mesh_height))
            .field("algorithm", &self.cfg.algorithm)
            .field("jobs_completed", &self.jobs_completed)
            .field("live_nodes", &self.live_node_count())
            .field("dead", &self.death)
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Assembles a simulation (called by the config builder).
    pub(crate) fn new(cfg: SimConfig) -> Result<Self, SimError> {
        Self::with_buffers(
            cfg,
            RoutingScratch::new(),
            RoutingState::empty(),
            SystemReport::fresh(0, 1),
            SystemReport::fresh(0, 1),
        )
    }

    /// Assembles a simulation on recycled buffers drawn from `pool`.
    pub(crate) fn new_pooled(cfg: SimConfig, pool: &mut SimPool) -> Result<Self, SimError> {
        // Resolve the one remaining fallible step *before* drawing
        // buffers, so a rejected instance (mapping failure) cannot leak
        // the shard's warm buffer set out of the pool.
        let placement = cfg.placement()?;
        let (scratch, routing, report, report_buf) = pool.take();
        Ok(Self::assemble(cfg, placement, scratch, routing, report, report_buf))
    }

    /// Assembles a simulation from a validated config plus the buffer
    /// set it will own (fresh or recycled — capacity is reused either
    /// way).
    fn with_buffers(
        cfg: SimConfig,
        routing_scratch: RoutingScratch,
        routing: RoutingState,
        report: SystemReport,
        report_buf: SystemReport,
    ) -> Result<Self, SimError> {
        let placement = cfg.placement()?;
        Ok(Self::assemble(cfg, placement, routing_scratch, routing, report, report_buf))
    }

    /// Infallible assembly once the placement is resolved.
    fn assemble(
        cfg: SimConfig,
        placement: Placement,
        mut routing_scratch: RoutingScratch,
        mut routing: RoutingState,
        mut report: SystemReport,
        mut report_buf: SystemReport,
    ) -> Self {
        let graph = cfg.build_graph();
        let gateway = cfg.gateway_node();
        let nodes: Vec<NodeState> = placement
            .iter()
            .map(|(id, module)| {
                NodeState::new(module, cfg.battery.build(cfg.effective_capacity(id.index())))
            })
            .collect();
        let router = Router::with_weighting(cfg.algorithm, cfg.weighting)
            .with_strategy(cfg.recompute_strategy);
        let bank = match cfg.controllers {
            ControllerSetup::Infinite => ControllerBank::infinite(),
            ControllerSetup::Finite { count } => ControllerBank::new(count, cfg.battery_capacity),
        };
        let controller_model = cfg.controller_model();
        let cfg_trace_capacity = cfg.trace_capacity;
        let mut failures = cfg.scripted_failures.clone();
        failures.sort_by_key(|f| (f.at_cycle, f.node));
        let mut revivals = cfg.scripted_revivals.clone();
        revivals.sort_by_key(|r| (r.at_cycle, r.node));
        let trace = if cfg.trace_ring {
            SimTrace::ring(cfg_trace_capacity)
        } else {
            SimTrace::with_capacity(cfg_trace_capacity)
        };
        // Initial routing from the fresh system state. The graph was
        // just built, so its version stamp is new to the (possibly
        // recycled) scratch and the empty dirty list runs the full
        // pipeline.
        report.reset_fresh(nodes.len(), cfg.weighting.levels());
        router.recompute_dirty_into(
            &graph,
            placement.module_nodes(),
            &report,
            &[],
            &mut routing_scratch,
            &mut routing,
        );
        let node_count = nodes.len();
        report_buf.clone_from(&report);
        Simulation {
            cfg,
            gateway,
            graph,
            placement,
            nodes,
            router,
            routing,
            routing_scratch,
            dirty_nodes: Vec::with_capacity(node_count),
            last_report: report,
            report_buf,
            bank,
            controller_model,
            ledger: ControlLedger::new(),
            jobs: Vec::new(),
            jobs_spare: Vec::new(),
            now: 0,
            next_job_id: 0,
            jobs_completed: 0,
            jobs_lost: 0,
            finished_fraction: 0.0,
            deadlock_reports: 0,
            remaps: 0,
            routing_version: 1,
            frames: 0,
            failures,
            failure_cursor: 0,
            revivals,
            revival_cursor: 0,
            pending_death: None,
            death: None,
            trace,
            table_observer: None,
            frame_recorder: None,
            metrics: MetricsHandle::default(),
            // Starts at zero (not the post-construction snapshot) so the
            // first frame's delta covers the initial full recompute,
            // matching what per-frame consumers historically computed.
            prev_frame_stats: RecomputeStats::default(),
        }
    }

    /// Attaches the routing-table publish hook. The observer is called
    /// immediately with the current tables (so an attach after
    /// construction still sees the initial routing state) and then after
    /// every recompute. Replaces any previous observer.
    pub fn set_table_observer(&mut self, mut observer: Box<dyn TableObserver>) {
        observer.on_tables(self.routing_version, &self.routing, &self.last_report);
        self.table_observer = Some(observer);
    }

    /// Attaches the per-frame recording hook and enables the trace tap
    /// that feeds it event streams (works with `trace_capacity = 0`).
    /// Attach before the first [`Simulation::step`]: the recorder only
    /// sees frames (and events) from that point on, and replays assume
    /// recording covered the whole run. Replaces any previous recorder.
    pub fn set_frame_recorder(&mut self, recorder: Box<dyn FrameRecorder>) {
        self.trace.enable_tap();
        self.trace.clear_tap();
        self.frame_recorder = Some(recorder);
    }

    /// Points this run's metrics (frame counters, frame-phase spans,
    /// per-frame recompute deltas, and the routing repair-stage spans)
    /// at a registry. The default is the shared no-op registry, whose
    /// record calls cost one relaxed load each. Attach before stepping;
    /// counters recorded so far are not replayed.
    pub fn set_metrics(&mut self, metrics: MetricsHandle) {
        self.routing_scratch.set_metrics(metrics.clone());
        self.metrics = metrics;
    }

    /// A snapshot of the registry this run records into (the no-op
    /// registry — all zeros — unless [`Simulation::set_metrics`] was
    /// called). Note the registry is shared: a fleet shard pointing many
    /// instances at one registry reads their combined totals here.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The current routing state (next-hop/full-path tables included).
    #[must_use]
    pub fn routing(&self) -> &RoutingState {
        &self.routing
    }

    /// The last system report the controller published tables from.
    #[must_use]
    pub fn last_report(&self) -> &SystemReport {
        &self.last_report
    }

    /// The monotonically increasing routing-table version.
    #[must_use]
    pub fn routing_version(&self) -> u64 {
        self.routing_version
    }

    /// TDMA frames started so far (including a final partial frame the
    /// system may have died in).
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Returns this simulation's pooled buffers to `pool` **without**
    /// running it to completion — the tear-down half of
    /// [`SimConfigBuilder::build_pooled`][crate::SimConfigBuilder::build_pooled]
    /// for callers that only needed to warm the system up (a read-side
    /// frontend extracting a published snapshot, for instance).
    pub fn recycle_into(mut self, pool: &mut SimPool) {
        let scratch = std::mem::take(&mut self.routing_scratch);
        let routing = std::mem::replace(&mut self.routing, RoutingState::empty());
        let report = std::mem::replace(&mut self.last_report, SystemReport::fresh(0, 1));
        let report_buf = std::mem::replace(&mut self.report_buf, SystemReport::fresh(0, 1));
        pool.put(scratch, routing, report, report_buf);
    }

    /// Tears this simulation down into the routing write side it has
    /// warmed: the fabric graph, the routing scratch (cached weights,
    /// adjacency lists, shortest-path trees and counters), the current
    /// routing state and the report it was computed from. The scratch's
    /// caches are keyed to this very graph, so a caller that keeps
    /// advancing the tables through `Router::recompute_dirty_into` (a
    /// daemon's telemetry ingest) repairs from warm state instead of
    /// starting with a full recompute.
    #[must_use]
    pub fn into_routing_parts(self) -> (DiGraph, RoutingScratch, RoutingState, SystemReport) {
        (self.graph, self.routing_scratch, self.routing, self.last_report)
    }

    /// The configuration this run uses.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current simulation cycle.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// `true` once the system has died.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.death.is_some()
    }

    /// Jobs completed so far.
    #[must_use]
    pub fn jobs_completed(&self) -> u64 {
        self.jobs_completed
    }

    /// Number of nodes still alive.
    #[must_use]
    pub fn live_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.is_dead()).count()
    }

    /// The event trace recorded so far (empty unless
    /// [`SimConfig::trace_capacity`] is non-zero).
    #[must_use]
    pub fn trace(&self) -> &SimTrace {
        &self.trace
    }

    /// Advances the simulation by one cycle. Returns the death cause once
    /// the system dies (and on every later call).
    pub fn step(&mut self) -> Option<DeathCause> {
        if let Some(cause) = self.death {
            return Some(cause);
        }
        if self.now >= self.cfg.max_cycles {
            return self.die(DeathCause::MaxCycles);
        }

        // --- scripted failures (churn injection) ----------------------
        while self.failure_cursor < self.failures.len()
            && self.failures[self.failure_cursor].at_cycle <= self.now
        {
            let node = NodeId::new(self.failures[self.failure_cursor].node);
            self.failure_cursor += 1;
            if !self.nodes[node.index()].is_dead() {
                self.nodes[node.index()].forced_dead = true;
                self.on_node_death(node);
            }
        }
        // --- scripted revivals (reconnect injection) ------------------
        while self.revival_cursor < self.revivals.len()
            && self.revivals[self.revival_cursor].at_cycle <= self.now
        {
            let node = NodeId::new(self.revivals[self.revival_cursor].node);
            self.revival_cursor += 1;
            // Only a disconnect can be reversed: a node whose *battery*
            // died stays dead, and reviving a live node is a no-op.
            let n = &mut self.nodes[node.index()];
            if n.forced_dead && !n.battery.is_dead() {
                n.forced_dead = false;
                self.on_node_revival(node);
            }
        }
        if let Some(cause) = self.pending_death.take() {
            return self.die(cause);
        }

        // --- TDMA frame boundary -------------------------------------
        if self.now.is_multiple_of(self.cfg.tdma.frame_period.count()) {
            if let Some(cause) = self.tdma_frame() {
                return self.die(cause);
            }
        }

        // --- advance jobs ---------------------------------------------
        // Both vectors are recycled every cycle (`jobs` drains into
        // `survivors`, then becomes next cycle's spare), so the sweep
        // allocates only when the in-flight job count grows.
        let mut jobs = std::mem::take(&mut self.jobs);
        let mut survivors = std::mem::take(&mut self.jobs_spare);
        debug_assert!(survivors.is_empty());
        let mut died = None;
        for mut job in jobs.drain(..) {
            match self.advance_job(&mut job) {
                JobOutcome::Continue => survivors.push(job),
                JobOutcome::Completed => {
                    self.jobs_completed += 1;
                    self.trace.record(self.now, TraceEvent::JobCompleted { job: job.id });
                    self.release_buffer(job.location);
                }
                JobOutcome::Lost => {
                    self.jobs_lost += 1;
                    self.trace
                        .record(self.now, TraceEvent::JobLost { job: job.id, at: job.location });
                    // Buffer slots held on dead nodes are irrelevant; only
                    // release slots held on live ones.
                    if !self.nodes[job.location.index()].is_dead() {
                        self.release_buffer(job.location);
                    }
                }
            }
            died = self.pending_death.take();
            if died.is_some() {
                break;
            }
        }
        // `jobs` is empty here even after an early break: dropping the
        // `Drain` iterator removes any undrained elements.
        self.jobs_spare = jobs;
        self.jobs = survivors;
        if let Some(cause) = died {
            return self.die(cause);
        }

        // --- deadlock flags --------------------------------------------
        let threshold = self.cfg.deadlock_threshold.count();
        for job in &self.jobs {
            if job.stuck_for(self.now) > threshold {
                // Edge-triggered: the flag stays raised until the next
                // frame uploads it, then clears.
                self.nodes[job.location.index()].deadlock_flag = true;
            }
        }

        // --- injection --------------------------------------------------
        while self.jobs.len() < self.cfg.concurrent_jobs {
            match self.inject_job() {
                Ok(true) => {}
                Ok(false) => break, // temporarily no room; retry next cycle
                Err(cause) => return self.die(cause),
            }
        }

        // --- irrecoverable stall check -----------------------------------
        let giveup = self.cfg.stall_giveup.count();
        if !self.jobs.is_empty() && self.jobs.iter().all(|j| j.stuck_for(self.now) > giveup) {
            return self.die(DeathCause::Stalled);
        }

        self.now += 1;
        None
    }

    /// Runs until the system dies and returns the final report.
    #[must_use]
    pub fn run(mut self) -> SimReport {
        loop {
            if let Some(cause) = self.step() {
                return self.into_report(cause);
            }
        }
    }

    /// Runs to completion like [`Simulation::run`], then hands the
    /// simulation's routing scratch, table and report buffers back to
    /// `pool` for the next instance. Pair with
    /// [`SimConfigBuilder::build_pooled`][crate::SimConfigBuilder::build_pooled];
    /// the report is identical to what [`Simulation::run`] produces.
    #[must_use]
    pub fn run_pooled(mut self, pool: &mut SimPool) -> SimReport {
        let cause = loop {
            if let Some(cause) = self.step() {
                break cause;
            }
        };
        // Snapshot the recompute counters before the scratch (whose
        // recycling zeroes them) flows back to the pool.
        let recompute = self.routing_scratch.stats();
        let scratch = std::mem::take(&mut self.routing_scratch);
        let routing = std::mem::replace(&mut self.routing, RoutingState::empty());
        let report = std::mem::replace(&mut self.last_report, SystemReport::fresh(0, 1));
        let report_buf = std::mem::replace(&mut self.report_buf, SystemReport::fresh(0, 1));
        pool.put(scratch, routing, report, report_buf);
        self.finish_report(cause, recompute)
    }

    // ------------------------------------------------------------------
    // internals

    fn die(&mut self, cause: DeathCause) -> Option<DeathCause> {
        self.death = Some(cause);
        Some(cause)
    }

    fn release_buffer(&mut self, node: NodeId) {
        let n = &mut self.nodes[node.index()];
        n.buffered = n.buffered.saturating_sub(1);
    }

    /// Handles a node death: checks for module extinction and gateway loss.
    fn on_node_death(&mut self, node: NodeId) {
        let module = self.placement.module_of(node);
        self.trace.record(self.now, TraceEvent::NodeDied { node, module });
        let extinct =
            self.placement.nodes_of(module).iter().all(|&n| self.nodes[n.index()].is_dead());
        if extinct {
            self.pending_death.get_or_insert(DeathCause::ModuleExtinct(module));
        }
        if self.gateway == Some(node) {
            self.pending_death.get_or_insert(DeathCause::GatewayDead);
        }
    }

    /// Handles a scripted revival: the node reports back in with the
    /// charge its battery held while disconnected — a weight *decrease*
    /// the routing repair path absorbs without a full re-run.
    fn on_node_revival(&mut self, node: NodeId) {
        let module = self.placement.module_of(node);
        self.trace.record(self.now, TraceEvent::NodeRevived { node, module });
    }

    /// Drains a node battery and propagates death bookkeeping.
    ///
    /// A thin-film cell can die *while delivering the full request* (the
    /// voltage crosses the 3.0 V cutoff on a successful draw), so death
    /// is checked on every transition, not only on failed draws.
    fn drain_node(&mut self, node: NodeId, energy: Energy, kind: DrainKind) -> bool {
        let was_dead = self.nodes[node.index()].is_dead();
        let ok = self.nodes[node.index()].drain(self.now, energy, kind);
        if !was_dead && self.nodes[node.index()].is_dead() {
            self.on_node_death(node);
        }
        ok
    }

    /// One TDMA frame, as the paper's controller sees it: every live
    /// node uploads its status, the controller rebuilds the system
    /// report from those uploads, diffs it against the last published
    /// one and, when anything changed, recomputes routes and downloads
    /// them. Returns a death cause if the controllers die.
    fn tdma_frame(&mut self) -> Option<DeathCause> {
        self.frames += 1;
        self.trace.set_frame(self.frames);
        // Phase spans borrow the registry while the frame mutates
        // `self`, so hold the handle locally (an `Arc` bump, no
        // allocation).
        let metrics = self.metrics.clone();
        metrics.inc(CounterId::SimFrames);
        let upload = self.cfg.tdma.upload_energy_per_node(&self.cfg.line_model);

        // Upload phase: every live node drives its status slot.
        {
            let _upload_span = metrics.span(SpanId::SimFrameUpload);
            for i in 0..self.nodes.len() {
                let node = NodeId::new(i);
                if self.nodes[i].is_dead() {
                    continue;
                }
                self.drain_node(node, upload, DrainKind::Control);
                // The slot hits the wire either way: even a node dying
                // mid-drive leaves its partial slot on the shared medium.
                self.ledger.record_upload(upload);
            }
        }
        if let Some(cause) = self.pending_death.take() {
            return Some(cause);
        }

        // Controller leakage since the previous frame.
        let live_before = self.bank.live_count();
        let leak = self.controller_model.leakage_energy(self.cfg.tdma.frame_period);
        self.ledger.record_controller_compute(leak);
        if !self.bank.charge(leak) {
            self.trace.record(self.now, TraceEvent::ControllerFailover { remaining: 0 });
            return Some(DeathCause::ControllersDead);
        }
        if self.bank.live_count() < live_before {
            self.trace.record(
                self.now,
                TraceEvent::ControllerFailover { remaining: self.bank.live_count() },
            );
        }

        // Build the report the controller just received (into the
        // recycled buffer; steady-state frames allocate nothing) and, in
        // the same pass, the routing delta feed: the nodes whose battery
        // bucket or liveness changed since the last published report.
        let mut report = std::mem::replace(&mut self.report_buf, SystemReport::fresh(0, 1));
        let (any_deadlock, deadlock_cleared) = self.build_report_and_deltas_into(&mut report);
        for i in 0..self.nodes.len() {
            if report.is_deadlocked(NodeId::new(i)) {
                self.deadlock_reports += 1;
                self.trace.record(self.now, TraceEvent::DeadlockReported { node: NodeId::new(i) });
            }
        }

        let remapped = self.maybe_remap(&report);

        let recomputed =
            !self.dirty_nodes.is_empty() || any_deadlock || deadlock_cleared || remapped;
        if recomputed {
            // Routing recomputation: the controller actively computes for
            // the duration of the frame.
            let active =
                self.controller_model.active_energy(self.cfg.tdma.frame_cycles(self.nodes.len()));
            self.ledger.record_controller_compute(active);
            if !self.bank.charge(active) {
                return Some(DeathCause::ControllersDead);
            }
            // Download phase: fresh next hops to every live node.
            let down_each = self.cfg.tdma.download_energy_per_node(&self.cfg.line_model);
            let down_total = down_each * report.live_count() as f64;
            self.ledger.record_download(down_total);
            if !self.bank.charge(down_total) {
                return Some(DeathCause::ControllersDead);
            }
            // Staged in-place recompute fed by the frame's dirty nodes:
            // the router turns them into an edge-delta stream against
            // its cached weights, repairs (or re-solves, per the
            // configured strategy) only the affected shortest-path work,
            // and reuses all scratch storage (zero steady-state
            // allocation).
            {
                let _recompute_span = metrics.span(SpanId::SimFrameRecompute);
                self.router.recompute_dirty_into(
                    &self.graph,
                    self.placement.module_nodes(),
                    &report,
                    &self.dirty_nodes,
                    &mut self.routing_scratch,
                    &mut self.routing,
                );
            }
            self.routing_version += 1;
            metrics.inc(CounterId::SimRecomputes);
            self.trace
                .record(self.now, TraceEvent::RoutingRecomputed { version: self.routing_version });
            // Publish hook: read-side services snapshot the fresh tables
            // before any job consults them.
            if let Some(observer) = self.table_observer.as_mut() {
                let _publish_span = metrics.span(SpanId::SimFramePublish);
                observer.on_tables(self.routing_version, &self.routing, &report);
            }
            // The new report becomes the baseline; the old baseline's
            // buffers are recycled for the next frame.
            self.report_buf = std::mem::replace(&mut self.last_report, report);
        } else {
            self.report_buf = report;
        }

        // Recording hook: the frame's report sits in `last_report` when
        // the frame recomputed (the swap above), otherwise in
        // `report_buf`; deadlock flags are still set (cleared below).
        self.record_frame(recomputed);

        // Deadlock flags are edge-triggered: once uploaded and serviced,
        // clear them; still-stuck jobs will re-raise them.
        for n in &mut self.nodes {
            n.deadlock_flag = false;
        }
        None
    }

    /// Closes out the just-completed frame: computes the per-frame
    /// recompute delta (the single source every consumer shares), feeds
    /// it to the metrics registry, and delivers the frame to the
    /// attached [`FrameRecorder`] (if any), draining the trace tap. The
    /// frame's report lives in `last_report` when the frame recomputed,
    /// else in `report_buf`.
    fn record_frame(&mut self, recomputed: bool) {
        let stats = self.routing_scratch.stats();
        let recompute_delta = stats.delta_since(&self.prev_frame_stats);
        self.prev_frame_stats = stats;
        recompute_delta.record_into(&self.metrics);
        if self.frame_recorder.is_none() {
            return;
        }
        let metrics = self.metrics.clone();
        self.metrics.inc(CounterId::SimFramesRecorded);
        let _record_span = metrics.span(SpanId::SimFrameRecord);
        let Simulation {
            frame_recorder,
            report_buf,
            last_report,
            trace,
            ledger,
            frames,
            now,
            routing_version,
            jobs_completed,
            jobs_lost,
            ..
        } = self;
        let recorder = frame_recorder.as_mut().expect("checked above");
        let report: &SystemReport = if recomputed { last_report } else { report_buf };
        recorder.on_frame(&FrameSnapshot {
            frame: *frames,
            cycle: *now,
            routing_version: *routing_version,
            recomputed,
            report,
            recompute: stats,
            recompute_delta,
            events: trace.tap(),
            medium_energy: ledger.medium_energy(),
            controller_energy: ledger.controller_energy(),
            jobs_completed: *jobs_completed,
            jobs_lost: *jobs_lost,
        });
        trace.clear_tap();
    }

    /// Builds the frame's report into `report` and, in the same pass,
    /// derives the routing delta feed against the last *published*
    /// report: `self.dirty_nodes` receives every node whose battery
    /// bucket or liveness changed. Returns `(any_deadlock,
    /// deadlock_cleared)` — whether any node reports a deadlock now, and
    /// whether a previously-reported deadlock flag dropped (both force a
    /// table rebuild even though no edge weight moved).
    fn build_report_and_deltas_into(&mut self, report: &mut SystemReport) -> (bool, bool) {
        let levels = self.cfg.weighting.levels();
        report.reset_fresh(self.nodes.len(), levels);
        self.dirty_nodes.clear();
        let last = &self.last_report;
        let prev_comparable = last.node_count() == self.nodes.len();
        let mut any_deadlock = false;
        let mut deadlock_cleared = false;
        for (i, n) in self.nodes.iter().enumerate() {
            let id = NodeId::new(i);
            if n.is_dead() {
                report.set_dead(id);
            } else {
                report.set_battery_level(id, n.battery.reported_level(levels));
                report.set_deadlocked(id, n.deadlock_flag);
                any_deadlock |= n.deadlock_flag;
            }
            if prev_comparable {
                if report.battery_level(id) != last.battery_level(id)
                    || report.is_alive(id) != last.is_alive(id)
                {
                    self.dirty_nodes.push(id);
                }
                deadlock_cleared |= last.is_deadlocked(id) && !report.is_deadlocked(id);
            } else {
                self.dirty_nodes.push(id);
            }
        }
        (any_deadlock, deadlock_cleared)
    }

    /// The remapping extension: reprogram a surplus node to rescue a
    /// module whose live duplicate count fell below the policy threshold.
    /// Returns `true` when the placement changed (forcing a routing
    /// recomputation).
    fn maybe_remap(&mut self, report: &SystemReport) -> bool {
        let Some(policy) = self.cfg.remapping.clone() else {
            return false;
        };
        let mut changed = false;
        let levels = self.cfg.weighting.levels();
        for m in 0..self.placement.module_count() {
            let module = etx_app::ModuleId::new(m);
            let live =
                self.placement.nodes_of(module).iter().filter(|&&n| report.is_alive(n)).count();
            if live == 0 || live >= policy.min_live_duplicates {
                // Extinct modules are beyond rescue (the job state is
                // gone); healthy ones need no help.
                continue;
            }
            // Donor: the best-charged idle node whose own module keeps a
            // surplus after losing it.
            let donor = (0..self.nodes.len())
                .map(NodeId::new)
                .filter(|&n| report.is_alive(n))
                .filter(|&n| {
                    let dm = self.placement.module_of(n);
                    if dm == module {
                        return false;
                    }
                    let dm_live =
                        self.placement.nodes_of(dm).iter().filter(|&&x| report.is_alive(x)).count();
                    dm_live > policy.min_live_duplicates
                })
                .filter(|&n| {
                    let node = &self.nodes[n.index()];
                    node.buffered == 0 && node.busy_until <= self.now
                })
                .max_by_key(|&n| {
                    (
                        self.nodes[n.index()].battery.reported_level(levels),
                        std::cmp::Reverse(n.index()),
                    )
                });
            let Some(donor) = donor else { continue };
            if !self.drain_node(donor, policy.migration_energy, DrainKind::Compute) {
                continue; // donor died taking the bitstream; no remap
            }
            if self.placement.reassign(donor, module).is_ok() {
                self.trace.record(self.now, TraceEvent::Remapped { node: donor, to: module });
                self.nodes[donor.index()].module = module;
                self.nodes[donor.index()].busy_until = self.now + policy.migration_cycles.count();
                self.remaps += 1;
                changed = true;
            }
        }
        changed
    }

    /// Injects one job. `Ok(true)` on success, `Ok(false)` when the entry
    /// point has no buffer space this cycle.
    fn inject_job(&mut self) -> Result<bool, DeathCause> {
        let entry_node = match self.cfg.source {
            JobSource::Gateway { .. } | JobSource::GatewayNode { .. } => {
                let gateway = self.gateway.expect("validated by builder");
                if self.nodes[gateway.index()].is_dead() {
                    return Err(DeathCause::GatewayDead);
                }
                gateway
            }
            JobSource::Broadcast => {
                // The freshest live duplicate of the first module.
                let first_module = self.cfg.app.op_sequence()[0];
                let best = self
                    .placement
                    .nodes_of(first_module)
                    .iter()
                    .filter(|&&n| !self.nodes[n.index()].is_dead())
                    .max_by_key(|&&n| {
                        (
                            self.nodes[n.index()]
                                .battery
                                .reported_level(self.cfg.weighting.levels()),
                            std::cmp::Reverse(n.index()),
                        )
                    })
                    .copied();
                match best {
                    Some(n) => n,
                    None => return Err(DeathCause::ModuleExtinct(first_module)),
                }
            }
        };
        if self.nodes[entry_node.index()].buffered >= self.cfg.buffer_capacity {
            return Ok(false);
        }
        self.nodes[entry_node.index()].buffered += 1;
        let job = Job::new(self.next_job_id, entry_node);
        self.next_job_id += 1;
        self.jobs.push(job);
        Ok(true)
    }

    /// Advances one job by (at most) one cycle's worth of activity.
    fn advance_job(&mut self, job: &mut Job) -> JobOutcome {
        // A dead holder loses the job (packet and state are gone).
        if self.nodes[job.location.index()].is_dead()
            && !matches!(job.phase, JobPhase::HopInFlight { .. })
        {
            return JobOutcome::Lost;
        }
        loop {
            match job.phase {
                JobPhase::AwaitingRoute => {
                    let module = self.cfg.app.op_sequence()[job.op_index];
                    let Some(entry) = self.routing.route(job.location, module.index()) else {
                        // No live duplicate reachable right now; wait for
                        // recovery (or the stall reaper).
                        job.mark_stuck(self.now);
                        return JobOutcome::Continue;
                    };
                    let dest = entry.destination;
                    if dest != job.location && self.nodes[dest.index()].is_dead() {
                        // Stale table: the chosen duplicate died since the
                        // last TDMA download. Wait for fresh routes.
                        job.mark_stuck(self.now);
                        return JobOutcome::Continue;
                    }
                    job.seen_routing_version = self.routing_version;
                    job.phase = JobPhase::Traveling { dest };
                    continue;
                }
                JobPhase::Traveling { dest } => {
                    // A stuck job re-resolves its destination as soon as
                    // the controller publishes fresh tables (this is how a
                    // deadlock redirect actually reaches an en-route job).
                    if job.stuck_since.is_some()
                        && job.seen_routing_version < self.routing_version
                        && job.location != dest
                    {
                        job.phase = JobPhase::AwaitingRoute;
                        continue;
                    }
                    // Remapping may have changed what dest hosts while the
                    // packet was in flight; re-resolve next cycle.
                    let module = self.cfg.app.op_sequence()[job.op_index];
                    if self.placement.module_of(dest) != module {
                        job.mark_stuck(self.now);
                        job.phase = JobPhase::AwaitingRoute;
                        return JobOutcome::Continue;
                    }
                    if job.location == dest {
                        // Arrived (or self-hosted): try to start computing.
                        let node = &self.nodes[dest.index()];
                        if node.is_dead() {
                            return JobOutcome::Lost;
                        }
                        if node.busy_until > self.now {
                            job.mark_stuck(self.now);
                            return JobOutcome::Continue;
                        }
                        let module = self.cfg.app.op_sequence()[job.op_index];
                        let energy = self
                            .cfg
                            .app
                            .module(module)
                            .expect("placement validated modules")
                            .compute_energy();
                        if !self.drain_node(dest, energy, DrainKind::Compute) {
                            return JobOutcome::Lost;
                        }
                        let until = self.now + self.cfg.compute_cycles.count();
                        self.nodes[dest.index()].busy_until = until;
                        job.mark_progress();
                        job.phase = JobPhase::Computing { until };
                        return JobOutcome::Continue;
                    }
                    // Destination may have died while we were travelling.
                    if self.nodes[dest.index()].is_dead() {
                        job.phase = JobPhase::AwaitingRoute;
                        continue;
                    }
                    let Some(next) = self.routing.next_hop(job.location, dest) else {
                        job.mark_stuck(self.now);
                        return JobOutcome::Continue;
                    };
                    if self.nodes[next.index()].is_dead() {
                        // Stale table points into a dead neighbour; the
                        // link layer refuses, wait for fresh routes.
                        job.mark_stuck(self.now);
                        return JobOutcome::Continue;
                    }
                    if self.nodes[next.index()].buffered >= self.cfg.buffer_capacity {
                        job.mark_stuck(self.now);
                        return JobOutcome::Continue;
                    }
                    // Transmit one hop; the sender pays for the line.
                    let length = self
                        .graph
                        .edge_length(job.location, next)
                        .expect("next hop is a graph neighbour");
                    let energy = self.cfg.line_model.packet_energy(
                        length,
                        &self.cfg.packet,
                        self.cfg.switching_activity,
                    );
                    self.nodes[next.index()].buffered += 1; // reserve
                    let sent = self.drain_node(job.location, energy, DrainKind::Communication);
                    self.nodes[job.location.index()].packets_sent += 1;
                    self.release_buffer(job.location);
                    if !sent {
                        // Sender died driving the line: packet lost.
                        self.release_buffer(next);
                        return JobOutcome::Lost;
                    }
                    job.mark_progress();
                    job.phase = JobPhase::HopInFlight {
                        dest,
                        to: next,
                        arrive: self.now + self.cfg.hop_cycles.count(),
                    };
                    return JobOutcome::Continue;
                }
                JobPhase::HopInFlight { dest, to, arrive } => {
                    if self.now < arrive {
                        return JobOutcome::Continue;
                    }
                    if self.nodes[to.index()].is_dead() {
                        // Landed on a node that died mid-flight.
                        return JobOutcome::Lost;
                    }
                    job.location = to;
                    job.phase = JobPhase::Traveling { dest };
                    continue;
                }
                JobPhase::Computing { until } => {
                    if self.now < until {
                        return JobOutcome::Continue;
                    }
                    self.nodes[job.location.index()].ops_done += 1;
                    job.op_index += 1;
                    job.mark_progress();
                    if job.op_index >= self.cfg.app.op_sequence().len() {
                        return JobOutcome::Completed;
                    }
                    job.phase = JobPhase::AwaitingRoute;
                    continue;
                }
            }
        }
    }

    /// Final accounting.
    fn into_report(self, cause: DeathCause) -> SimReport {
        let recompute = self.routing_scratch.stats();
        self.finish_report(cause, recompute)
    }

    /// [`Simulation::into_report`] with the recompute counters supplied
    /// explicitly (the pooled path snapshots them before the scratch is
    /// recycled).
    fn finish_report(self, cause: DeathCause, recompute: etx_routing::RecomputeStats) -> SimReport {
        // Lifetime totals land once, at the end of the run, so a fleet
        // shard's registry sums exactly what its aggregate sums.
        self.metrics.add(CounterId::SimJobsCompleted, self.jobs_completed);
        self.metrics.add(CounterId::SimJobsLost, self.jobs_lost);
        self.metrics.gauge_raise(GaugeId::SimRoutingVersion, self.routing_version);
        let total_ops = self.cfg.app.op_sequence().len();
        let in_flight: f64 = self.jobs.iter().map(|j| j.progress(total_ops)).sum();
        let mut energy = EnergyBreakdown::default();
        let mut node_stats = Vec::with_capacity(self.nodes.len());
        for (i, n) in self.nodes.iter().enumerate() {
            energy.compute += n.compute_energy;
            energy.data_communication += n.comm_energy;
            let delivered = n.battery.delivered();
            let stranded = (n.battery.nominal_capacity() - delivered).clamp_non_negative();
            energy.stranded += stranded;
            node_stats.push(NodeStats {
                node: NodeId::new(i),
                module: n.module,
                ops_done: n.ops_done,
                packets_sent: n.packets_sent,
                compute_energy: n.compute_energy,
                comm_energy: n.comm_energy,
                control_energy: n.control_energy,
                alive_at_end: !n.is_dead(),
                delivered,
                stranded,
            });
        }
        energy.control_medium = self.ledger.medium_energy();
        energy.controller = self.ledger.controller_energy();
        SimReport {
            jobs_completed: self.jobs_completed,
            jobs_fractional: self.jobs_completed as f64 + in_flight + self.finished_fraction,
            jobs_lost: self.jobs_lost,
            lifetime_cycles: self.now,
            death_cause: cause,
            energy,
            deadlock_reports: self.deadlock_reports,
            routing_recomputes: self.routing_version,
            recompute,
            remaps: self.remaps,
            frames: self.frames,
            node_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BatteryModel, MappingKind, TopologyKind};
    use etx_app::ModuleId;
    use etx_routing::Algorithm;

    fn quick(algorithm: Algorithm, capacity: f64) -> SimReport {
        SimConfig::builder()
            .mesh_square(4)
            .algorithm(algorithm)
            .battery(BatteryModel::Ideal)
            .battery_capacity_picojoules(capacity)
            .build()
            .expect("valid config")
            .run()
    }

    #[test]
    fn completes_jobs_and_dies() {
        let report = quick(Algorithm::Ear, 10_000.0);
        assert!(report.jobs_completed > 0, "no jobs completed:\n{report}");
        assert_ne!(report.death_cause, DeathCause::MaxCycles);
        assert!(report.lifetime_cycles > 0);
        assert!(report.jobs_fractional >= report.jobs_completed as f64);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = quick(Algorithm::Ear, 8_000.0);
        let b = quick(Algorithm::Ear, 8_000.0);
        assert_eq!(a, b);
    }

    #[test]
    fn recompute_strategies_do_not_change_outcomes() {
        use etx_routing::RecomputeStrategy;
        // 8x8 so the Auto backend resolves to Dijkstra and the repair
        // pipeline actually engages.
        let run = |strategy| {
            SimConfig::builder()
                .mesh_square(8)
                .mapping(MappingKind::Proportional)
                .battery(BatteryModel::Ideal)
                .battery_capacity_picojoules(8_000.0)
                .recompute_strategy(strategy)
                .build()
                .expect("valid config")
                .run()
        };
        let full = run(RecomputeStrategy::Full);
        let auto = run(RecomputeStrategy::Auto);
        // Identical simulation outcomes — only the controller-side cost
        // profile (the counters) may differ.
        assert_eq!(full.jobs_fractional, auto.jobs_fractional);
        assert_eq!(full.lifetime_cycles, auto.lifetime_cycles);
        assert_eq!(full.energy, auto.energy);
        assert_eq!(full.node_stats, auto.node_stats);
        assert_eq!(full.routing_recomputes, auto.routing_recomputes);
        assert_eq!(full.recompute.repair_recomputes, 0);
        assert!(auto.recompute.repair_recomputes > 0, "{auto}");
        assert!(auto.recompute.repaired_sources > 0, "{auto}");
    }

    #[test]
    fn ear_beats_sdr_on_default_platform() {
        let ear = quick(Algorithm::Ear, 20_000.0);
        let sdr = quick(Algorithm::Sdr, 20_000.0);
        assert!(
            ear.jobs_fractional > sdr.jobs_fractional,
            "EAR {:.1} vs SDR {:.1}",
            ear.jobs_fractional,
            sdr.jobs_fractional
        );
    }

    #[test]
    fn ideal_battery_outlives_thin_film() {
        let ideal = SimConfig::builder()
            .battery(BatteryModel::Ideal)
            .battery_capacity_picojoules(20_000.0)
            .build()
            .unwrap()
            .run();
        let film = SimConfig::builder()
            .battery(BatteryModel::ThinFilm)
            .battery_capacity_picojoules(20_000.0)
            .build()
            .unwrap()
            .run();
        // Near-tie tolerance: staggered thin-film deaths can help the
        // router at some scales (see the battery ablation).
        assert!(ideal.jobs_fractional >= film.jobs_fractional * 0.85);
        assert!(film.energy.stranded.is_positive());
    }

    #[test]
    fn energy_accounting_is_consistent() {
        let report = quick(Algorithm::Ear, 10_000.0);
        let consumed = report.energy.total_consumed().picojoules();
        assert!(consumed > 0.0);
        // Node-side energy must not exceed the aggregate battery budget.
        let node_side =
            report.energy.compute.picojoules() + report.energy.data_communication.picojoules();
        assert!(node_side <= 16.0 * 10_000.0 + 1e-6);
        // Overhead is a sane percentage.
        let pct = report.overhead_percent();
        assert!((0.0..100.0).contains(&pct), "overhead {pct}%");
    }

    #[test]
    fn finite_controllers_limit_lifetime() {
        let make = |setup| {
            SimConfig::builder()
                .battery(BatteryModel::Ideal)
                .battery_capacity_picojoules(60_000.0)
                .controllers(setup)
                .build()
                .unwrap()
                .run()
        };
        let infinite = make(ControllerSetup::Infinite);
        let one = make(ControllerSetup::Finite { count: 1 });
        let many = make(ControllerSetup::Finite { count: 10 });
        assert!(one.jobs_fractional <= many.jobs_fractional + 1e-9);
        assert!(many.jobs_fractional <= infinite.jobs_fractional + 1e-9);
    }

    #[test]
    fn broadcast_source_runs() {
        let report = SimConfig::builder()
            .source(JobSource::Broadcast)
            .battery(BatteryModel::Ideal)
            .battery_capacity_picojoules(8_000.0)
            .build()
            .unwrap()
            .run();
        assert!(report.jobs_completed > 0);
    }

    #[test]
    fn concurrent_jobs_complete() {
        let report = SimConfig::builder()
            .concurrent_jobs(4)
            .battery(BatteryModel::Ideal)
            .battery_capacity_picojoules(10_000.0)
            .build()
            .unwrap()
            .run();
        assert!(report.jobs_completed > 0, "report: {report}");
    }

    #[test]
    fn proportional_mapping_runs() {
        let report = SimConfig::builder()
            .mapping(MappingKind::Proportional)
            .battery(BatteryModel::Ideal)
            .battery_capacity_picojoules(8_000.0)
            .build()
            .unwrap()
            .run();
        assert!(report.jobs_completed > 0);
    }

    #[test]
    fn step_api_reports_death_repeatedly() {
        let mut sim = SimConfig::builder()
            .battery(BatteryModel::Ideal)
            .battery_capacity_picojoules(2_000.0)
            .build()
            .unwrap();
        let cause = loop {
            if let Some(c) = sim.step() {
                break c;
            }
        };
        assert!(sim.is_dead());
        assert_eq!(sim.step(), Some(cause));
    }

    #[test]
    fn ring_topology_runs_with_node_gateway() {
        let report = SimConfig::builder()
            .mesh(4, 4) // 16-node ring
            .topology(TopologyKind::Ring)
            .mapping(MappingKind::Proportional)
            .source(JobSource::GatewayNode { node: 0 })
            .battery(BatteryModel::Ideal)
            .battery_capacity_picojoules(8_000.0)
            .build()
            .expect("ring config is valid")
            .run();
        assert!(
            report.jobs_completed > 0,
            "ring completed nothing:
{report}"
        );
    }

    #[test]
    fn torus_beats_mesh_under_ear() {
        // Wrap-around links shorten paths, so the torus should do at
        // least as well as the mesh on the same budget.
        let run = |topology| {
            SimConfig::builder()
                .topology(topology)
                .mapping(MappingKind::Proportional)
                .battery(BatteryModel::Ideal)
                .battery_capacity_picojoules(10_000.0)
                .build()
                .expect("valid config")
                .run()
                .jobs_fractional
        };
        let mesh = run(TopologyKind::Mesh);
        let torus = run(TopologyKind::Torus);
        assert!(torus >= mesh * 0.9, "torus {torus:.1} vs mesh {mesh:.1}");
    }

    #[test]
    fn custom_topology_uses_graph_lengths() {
        let graph = etx_graph::topology::star(5, etx_units::Length::from_centimetres(3.0));
        let report = SimConfig::builder()
            .topology(TopologyKind::Custom(graph))
            .mapping(MappingKind::RoundRobin)
            .source(JobSource::Broadcast)
            .battery(BatteryModel::Ideal)
            .battery_capacity_picojoules(20_000.0)
            .build()
            .expect("custom topology config is valid")
            .run();
        assert!(report.jobs_completed > 0);
        assert_eq!(report.node_stats.len(), 5);
    }

    #[test]
    fn coordinate_gateway_rejected_on_ring() {
        let err = SimConfig::builder()
            .topology(TopologyKind::Ring)
            .mapping(MappingKind::Proportional)
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::TopologyMismatch(_)));
    }

    #[test]
    fn remapping_rescues_endangered_modules() {
        use crate::config::RemappingPolicy;
        // Module 0 starts with a single host: without remapping the
        // system dies as soon as that node does; with remapping a donor
        // is reprogrammed and life continues.
        let mut assignment = vec![ModuleId::new(2); 16];
        assignment[5] = ModuleId::new(0);
        assignment[6] = ModuleId::new(1);
        assignment[9] = ModuleId::new(1);
        let base = || {
            SimConfig::builder()
                .mapping(MappingKind::Custom(assignment.clone()))
                .battery(BatteryModel::Ideal)
                .battery_capacity_picojoules(20_000.0)
        };
        let plain = base().build().expect("valid config").run();
        let remapped =
            base().remapping(RemappingPolicy::default()).build().expect("valid config").run();
        assert!(
            remapped.remaps > 0,
            "no migrations happened:
{remapped}"
        );
        assert!(
            remapped.jobs_fractional > plain.jobs_fractional,
            "remapping did not help: {:.1} vs {:.1}",
            remapped.jobs_fractional,
            plain.jobs_fractional
        );
        assert_eq!(plain.remaps, 0);
    }

    #[test]
    fn trace_records_key_events() {
        use crate::trace::TraceEvent;
        let mut sim = SimConfig::builder()
            .battery(BatteryModel::Ideal)
            .battery_capacity_picojoules(5_000.0)
            .trace_capacity(10_000)
            .build()
            .unwrap();
        while sim.step().is_none() {}
        let trace = sim.trace();
        assert!(!trace.is_disabled());
        let completions = trace.filter(|e| matches!(e, TraceEvent::JobCompleted { .. })).count();
        assert_eq!(completions as u64, sim.jobs_completed());
        let deaths = trace.filter(|e| matches!(e, TraceEvent::NodeDied { .. })).count();
        assert!(deaths > 0, "no node deaths traced");
        let recomputes =
            trace.filter(|e| matches!(e, TraceEvent::RoutingRecomputed { .. })).count();
        assert!(recomputes > 0);
        // Events are time-ordered, and frame stamps follow cycle order.
        assert!(trace.events().windows(2).all(|w| w[0].cycle <= w[1].cycle));
        assert!(trace.events().windows(2).all(|w| w[0].frame <= w[1].frame));
        assert!(trace.events().iter().any(|e| e.frame > 0), "no events stamped with a frame");
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut sim = SimConfig::builder()
            .battery(BatteryModel::Ideal)
            .battery_capacity_picojoules(2_000.0)
            .build()
            .unwrap();
        while sim.step().is_none() {}
        assert!(sim.trace().is_disabled());
        assert!(sim.trace().events().is_empty());
    }

    #[test]
    fn scripted_failures_kill_nodes_and_strand_energy() {
        use crate::config::ScriptedFailure;
        // Rip out a relay corner early; the run must still be well-formed
        // and the victim's remaining charge counts as stranded.
        let base = || {
            SimConfig::builder().battery(BatteryModel::Ideal).battery_capacity_picojoules(10_000.0)
        };
        let plain = base().build().expect("valid config").run();
        let churned = base()
            .scripted_failures(vec![ScriptedFailure { at_cycle: 500, node: 15 }])
            .build()
            .expect("valid config")
            .run();
        let victim = &churned.node_stats[15];
        assert!(!victim.alive_at_end);
        assert!(victim.stranded.picojoules() > 1_000.0, "forced death strands charge");
        assert!(churned.jobs_fractional <= plain.jobs_fractional);
        // Determinism holds with failures scripted.
        let again = base()
            .scripted_failures(vec![ScriptedFailure { at_cycle: 500, node: 15 }])
            .build()
            .expect("valid config")
            .run();
        assert_eq!(churned, again);
    }

    #[test]
    fn scripted_failure_of_singleton_module_is_fatal() {
        use crate::config::ScriptedFailure;
        let mut assignment = vec![ModuleId::new(2); 16];
        assignment[5] = ModuleId::new(0);
        assignment[6] = ModuleId::new(1);
        let report = SimConfig::builder()
            .mapping(MappingKind::Custom(assignment))
            .battery(BatteryModel::Ideal)
            .battery_capacity_picojoules(60_000.0)
            .scripted_failures(vec![ScriptedFailure { at_cycle: 2_000, node: 5 }])
            .build()
            .expect("valid config")
            .run();
        assert_eq!(report.death_cause, DeathCause::ModuleExtinct(ModuleId::new(0)));
        assert!(report.lifetime_cycles <= 2_001);
    }

    #[test]
    fn scripted_failure_rejects_out_of_range_node() {
        use crate::config::ScriptedFailure;
        let err = SimConfig::builder()
            .scripted_failures(vec![ScriptedFailure { at_cycle: 0, node: 99 }])
            .build()
            .unwrap_err();
        assert!(matches!(err, crate::SimError::InvalidConfig(_)));
    }

    #[test]
    fn scripted_revivals_reconnect_nodes() {
        use crate::config::{ScriptedFailure, ScriptedRevival};
        let base = || {
            SimConfig::builder().battery(BatteryModel::Ideal).battery_capacity_picojoules(10_000.0)
        };
        // Disconnect a corner relay, then re-seat it: its battery rode
        // along untouched, so the fabric gets the node (and its charge)
        // back for the rest of the run.
        let failure = vec![ScriptedFailure { at_cycle: 500, node: 15 }];
        let reconnected = base()
            .scripted_failures(failure.clone())
            .scripted_revivals(vec![ScriptedRevival { at_cycle: 1_500, node: 15 }])
            .build()
            .expect("valid config")
            .run();
        let churned = base().scripted_failures(failure).build().expect("valid config").run();
        assert!(
            reconnected.jobs_fractional >= churned.jobs_fractional,
            "reconnect {:.1} vs churn {:.1}",
            reconnected.jobs_fractional,
            churned.jobs_fractional
        );
        // Reviving a node that never failed is a no-op, bit for bit.
        let noop = base()
            .scripted_revivals(vec![ScriptedRevival { at_cycle: 100, node: 3 }])
            .build()
            .expect("valid config")
            .run();
        let plain = base().build().expect("valid config").run();
        assert_eq!(noop, plain);
        // Out-of-range revivals are rejected like failures are.
        let err = base()
            .scripted_revivals(vec![ScriptedRevival { at_cycle: 0, node: 99 }])
            .build()
            .unwrap_err();
        assert!(matches!(err, crate::SimError::InvalidConfig(_)));
    }

    #[test]
    fn capacity_profile_scales_per_node_budgets() {
        // Give the gateway quadrant weak cells: lifetime must drop.
        let weak_first = vec![0.25, 1.0, 1.0, 1.0];
        let rich = quick(Algorithm::Ear, 10_000.0);
        let poor = SimConfig::builder()
            .battery(BatteryModel::Ideal)
            .battery_capacity_picojoules(10_000.0)
            .capacity_profile(weak_first)
            .build()
            .expect("valid config")
            .run();
        assert!(poor.jobs_fractional < rich.jobs_fractional);
        let err = SimConfig::builder().capacity_profile(vec![0.0]).build().unwrap_err();
        assert!(matches!(err, crate::SimError::InvalidConfig(_)));
    }

    #[test]
    fn pooled_run_matches_direct_run() {
        use crate::pool::SimPool;
        let mut pool = SimPool::new();
        let make = |caps: f64| {
            SimConfig::builder().battery(BatteryModel::Ideal).battery_capacity_picojoules(caps)
        };
        // Several sequential instances over one pool, including a size
        // change, all identical to their unpooled twins.
        for (side, caps) in [(4usize, 8_000.0), (5, 6_000.0), (4, 8_000.0)] {
            let direct = make(caps).mesh_square(side).build().expect("valid config").run();
            let pooled = make(caps)
                .mesh_square(side)
                .build_pooled(&mut pool)
                .expect("valid config")
                .run_pooled(&mut pool);
            assert_eq!(direct, pooled, "{side}x{side} diverged under pooling");
        }
        assert_eq!(pool.served(), 3);
    }

    #[test]
    fn ring_trace_bounds_memory_on_long_runs() {
        let mut sim = SimConfig::builder()
            .battery(BatteryModel::Ideal)
            .battery_capacity_picojoules(8_000.0)
            .trace_capacity(4)
            .trace_ring(true)
            .build()
            .unwrap();
        while sim.step().is_none() {}
        let trace = sim.trace();
        assert!(trace.events().len() <= 4);
        assert!(trace.dropped() > 0, "a whole lifetime should overflow 4 slots");
        // The ring keeps the tail: the last stored cycle is near death.
        let last_cycle = trace.iter().last().expect("events stored").cycle;
        assert!(last_cycle * 2 >= sim.now(), "ring kept early events only");
    }

    #[test]
    fn node_stats_cover_all_nodes() {
        let report = quick(Algorithm::Ear, 5_000.0);
        assert_eq!(report.node_stats.len(), 16);
        let total_ops: u64 = report.node_stats.iter().map(|n| n.ops_done).sum();
        // 30 ops per completed job, at least.
        assert!(total_ops >= report.jobs_completed * 30);
    }
}
