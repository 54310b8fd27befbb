//! `wire_mixed`: an in-process `Served` (one shard, four 32×32
//! fabrics) driven by one closed-loop `RouteClient` that sends 8:1:1
//! query batches and, at a fixed cadence, an INGEST of one fabric's
//! frame telemetry.
//!
//! Operation: one query batch round trip (send to RESULTS). Ingest:
//! INGEST sent to INGEST_ACK received; the daemon publishes the new
//! epoch before it writes the ACK, so this is ingest-to-visible.
//! Set-up: `Served::start` plus the client handshake, repeated.
//!
//! Correctness is checked against a mirror of the daemon's write side
//! built in this process from the same spec samples: it replays every
//! ingest (same epochs, same applied counts) and answers every sampled
//! batch through its own `FleetFrontend` at the same epochs.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use etx_fleet::{FleetRng, ScenarioSpec, TopologyChoice};
use etx_graph::{DiGraph, NodeId};
use etx_metrics::{CounterId, GaugeId, MetricsHandle, MetricsSnapshot, Registry, SpanId};
use etx_routing::{Algorithm, RouteEntry, Router, RoutingScratch, RoutingState, SystemReport};
use etx_serve::net::ResponseKind;
use etx_serve::{
    EpochPublisher, FleetFrontend, QueryBatch, QueryOutput, QueryResult, RouteClient, Served,
    ServedConfig, WorkloadGen, WorkloadSpec,
};
use etx_sim::{MappingKind, RecomputeStrategy, SimPool, Simulation, TableObserver};

use crate::common::{
    derive_seed, ms, span_count, span_ms, EndToEnd, Layers, Outcome, Samples, Table, Tracer,
};

/// Daemon starts timed for `setup_s`.
const SETUP_REPS: usize = 3;
/// Queries per batch: the 8:1:1 mix of `WorkloadSpec::default()` in
/// batches large enough that execution, not the three thread wake-ups
/// of a round trip, sets the median (at 1 024 queries the median jumped
/// between two wake-up modes from run to run).
const BATCH: usize = 4_096;
/// Query batches between two ingests: sized so that reads and writes
/// each take about half the window and ingest p90 has well over ten
/// samples beyond it.
const INGEST_EVERY: u64 = 40;
/// Telemetry items per INGEST (distinct nodes of one fabric).
const ITEMS: usize = 4;
/// Every `RECHARGE_EVERY`-th ingest recharges its nodes to the top
/// bucket (weight decreases); the others drain one bucket each.
const RECHARGE_EVERY: u64 = 8;
/// Every `CHECK_EVERY`-th batch's answers are compared with the mirror.
const CHECK_EVERY: u64 = 8;
/// Untimed exchanges that warm both sides' buffers.
const WARMUP_BATCHES: u64 = 16;

/// The `bench_serve` fleet: four 32×32 EAR fabrics, warmed 8 000 cycles,
/// with the battery budget, job count, frame period and a broadcast job
/// source fixed (a sampled frame period or gateway node makes the
/// warm-up, and so the set-up, differ by up to 2x between seeds). The
/// sampler draws each fabric's mapping by coin flip and a proportional
/// mapping makes ingests about half again as costly, so the spec seed is
/// the first one derived from `seed` whose fabrics use each mapping
/// twice: every seed then serves the same mix.
fn fleet_spec(seed: u64) -> Result<ScenarioSpec, String> {
    let mut spec = ScenarioSpec {
        name: "wire_mixed".to_string(),
        seed: 0,
        instances: 4,
        mesh_side: (32, 32),
        topologies: vec![TopologyChoice::Mesh],
        algorithms: vec![Algorithm::Ear],
        strategy: RecomputeStrategy::Auto,
        battery_models: vec![etx_fleet::BatteryChoice::Ideal],
        battery_pj: (50_000.0, 50_000.0),
        heterogeneity: 0.2,
        churn: (0, 0),
        frame_period: (1_024, 1_024),
        concurrent_jobs: (3, 3),
        broadcast_fraction: 1.0,
        max_cycles: 10_000_000,
        warm_cycles: 8_000,
        ..ScenarioSpec::default()
    };
    for attempt in 0..1_000 {
        spec.seed = derive_seed(seed, 0x31 + (attempt << 8));
        let mut proportional = 0;
        for index in 0..spec.instances {
            let cfg = spec.sample(index).validate().map_err(|e| format!("wire_mixed: {e}"))?;
            proportional += usize::from(cfg.mapping == MappingKind::Proportional);
        }
        if 2 * proportional == spec.instances {
            return Ok(spec);
        }
    }
    Err("wire_mixed: no balanced fleet seed found".to_string())
}

fn query_spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec { seed: derive_seed(seed, 0x32), batch: BATCH, ..WorkloadSpec::default() }
}

/// The engine-side publish hook of a mirror fabric (the publisher must
/// outlive the warm-up simulation).
struct SharedPublisher(Arc<Mutex<EpochPublisher>>);

impl TableObserver for SharedPublisher {
    fn on_tables(&mut self, _version: u64, routing: &RoutingState, _report: &SystemReport) {
        self.0.lock().expect("mirror publisher lock").publish(routing);
    }
}

/// The write side of one mirrored fabric.
struct MirrorFabric {
    graph: DiGraph,
    modules: Vec<Vec<NodeId>>,
    router: Router,
    scratch: RoutingScratch,
    state: RoutingState,
    report: SystemReport,
    publisher: Arc<Mutex<EpochPublisher>>,
    dirty: Vec<NodeId>,
}

/// Timings of one mirrored ingest, ms.
struct IngestTiming {
    routing: f64,
    publish: f64,
}

impl MirrorFabric {
    fn from_sim(sim: &Simulation, publisher: Arc<Mutex<EpochPublisher>>) -> Result<Self, String> {
        let cfg = sim.config();
        let placement = cfg.placement().map_err(|e| format!("mirror placement: {e:?}"))?;
        Ok(MirrorFabric {
            graph: cfg.build_graph(),
            modules: placement.module_nodes().to_vec(),
            router: Router::with_weighting(cfg.algorithm, cfg.weighting)
                .with_strategy(cfg.recompute_strategy),
            scratch: RoutingScratch::new(),
            state: sim.routing().clone(),
            report: sim.last_report().clone(),
            publisher,
            dirty: Vec::new(),
        })
    }

    /// Applies `(node, wire level)` items exactly as the daemon's
    /// write side does; returns `(epoch, applied)` and the timings.
    fn ingest(&mut self, items: &[(u32, u32)]) -> ((u64, u64), IngestTiming) {
        self.dirty.clear();
        for &(node, level) in items {
            if node as usize >= self.report.node_count() {
                continue;
            }
            let id = NodeId::new(node as usize);
            if level == 0 {
                if !self.report.is_alive(id) {
                    continue;
                }
                self.report.set_dead(id);
            } else {
                let target = (level - 1).min(self.report.levels() - 1);
                if self.report.is_alive(id) {
                    if self.report.battery_level(id) == target {
                        continue;
                    }
                    self.report.set_battery_level(id, target);
                } else {
                    self.report.revive(id, target);
                }
            }
            self.dirty.push(id);
        }
        let applied = self.dirty.len() as u64;
        let mut publisher = self.publisher.lock().expect("mirror publisher lock");
        if applied == 0 {
            return ((publisher.epoch(), 0), IngestTiming { routing: 0.0, publish: 0.0 });
        }
        let t0 = Instant::now();
        self.router.recompute_dirty_into(
            &self.graph,
            &self.modules,
            &self.report,
            &self.dirty,
            &mut self.scratch,
            &mut self.state,
        );
        let t1 = Instant::now();
        let epoch = publisher.publish(&self.state);
        let timing = IngestTiming { routing: ms(t1 - t0), publish: ms(t1.elapsed()) };
        ((epoch, applied), timing)
    }
}

/// The in-process twin of the daemon: same samples, same warm-up, same
/// publishes.
struct Mirror {
    frontend: FleetFrontend,
    fabrics: Vec<Option<MirrorFabric>>,
}

fn build_mirror(spec: &ScenarioSpec) -> Result<Mirror, String> {
    let mut frontend = FleetFrontend::new(1);
    let mut fabrics = Vec::new();
    let mut pool = SimPool::new();
    for index in 0..spec.instances {
        match spec.sample(index).build_pooled(&mut pool) {
            Ok(mut sim) => {
                let (publisher, reader) = EpochPublisher::new();
                let publisher = Arc::new(Mutex::new(publisher));
                sim.set_table_observer(Box::new(SharedPublisher(Arc::clone(&publisher))));
                for _ in 0..spec.warm_cycles {
                    if sim.step().is_some() {
                        break;
                    }
                }
                frontend.register(reader, sim.routing().node_count(), sim.routing().module_count());
                fabrics.push(Some(MirrorFabric::from_sim(&sim, publisher)?));
                sim.recycle_into(&mut pool);
            }
            Err(_) => {
                frontend.register_rejected();
                fabrics.push(None);
            }
        }
    }
    Ok(Mirror { frontend, fabrics })
}

/// The benchmark's own view of every node's battery bucket, so each
/// generated telemetry item changes state.
#[derive(Clone)]
struct Levels {
    /// `None`: dead or rejected fabric.
    nodes: Vec<Vec<Option<u32>>>,
    top: u32,
}

impl Levels {
    fn of(mirror: &Mirror) -> Levels {
        let mut top = 0;
        let nodes = mirror
            .fabrics
            .iter()
            .map(|f| match f {
                Some(f) => {
                    top = f.report.levels() - 1;
                    (0..f.report.node_count())
                        .map(NodeId::new)
                        .map(|n| f.report.is_alive(n).then(|| f.report.battery_level(n)))
                        .collect()
                }
                None => Vec::new(),
            })
            .collect();
        Levels { nodes, top }
    }

    /// Ingest `j`: `ITEMS` distinct nodes of one fabric, each drained
    /// one bucket, or every `RECHARGE_EVERY`-th time recharged to the
    /// top bucket. Items carry wire levels (bucket + 1).
    fn next_ingest(
        &mut self,
        rng: &mut FleetRng,
        j: u64,
    ) -> Result<(u32, Vec<(u32, u32)>), String> {
        let served: Vec<usize> =
            (0..self.nodes.len()).filter(|&f| !self.nodes[f].is_empty()).collect();
        let fabric = served[(j % served.len() as u64) as usize];
        let recharge = j % RECHARGE_EVERY == RECHARGE_EVERY - 1;
        let nodes = &mut self.nodes[fabric];
        let mut items: Vec<(u32, u32)> = Vec::with_capacity(ITEMS);
        for _ in 0..100_000 {
            if items.len() == ITEMS {
                break;
            }
            let node = rng.below(nodes.len() as u64) as usize;
            let Some(level) = nodes[node] else { continue };
            if items.iter().any(|&(n, _)| n as usize == node) {
                continue;
            }
            let target = match (recharge, level) {
                (true, l) if l < self.top => self.top,
                (false, l) if l > 0 => l - 1,
                _ => continue,
            };
            nodes[node] = Some(target);
            items.push((node as u32, target + 1));
        }
        if items.len() < ITEMS {
            return Err(format!("no eligible telemetry items left on fabric {fabric}"));
        }
        Ok((fabric as u32, items))
    }
}

/// A deterministic digest of a batch's resolved answers (entries, path
/// node sequences and costs; arena layout excluded).
fn digest(out: &QueryOutput) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    let entry = |mix: &mut dyn FnMut(u64), e: &Option<RouteEntry>| match e {
        Some(e) => {
            mix(e.destination.index() as u64);
            mix(e.next_hop.index() as u64);
            mix(e.distance.to_bits());
        }
        None => mix(u64::MAX),
    };
    for result in out.results() {
        match result {
            QueryResult::NextHop(e) => {
                mix(1);
                entry(&mut mix, e);
            }
            QueryResult::Path { entry: e, .. } => {
                mix(2);
                entry(&mut mix, e);
                for node in out.path_nodes(result) {
                    mix(node.index() as u64);
                }
            }
            QueryResult::Cost(c) => {
                mix(3);
                mix(c.map_or(u64::MAX, f64::to_bits));
            }
            QueryResult::UnknownFabric => mix(4),
        }
    }
    h
}

/// One request of the timed window, in send order.
enum Request {
    Query { digest: Option<u64> },
    Ingest { fabric: u32, items: Vec<(u32, u32)>, ack: Option<(u64, u64)>, traced: bool },
}

/// Registry deltas of one traced ingest, ms.
struct IngestParts {
    decode: f64,
    execute: f64,
    publish: f64,
}

/// One side (untraced or traced) of the window.
#[derive(Default)]
struct Side {
    rtt: Samples,
    ingest: Samples,
    queries: u64,
    wall: f64,
}

/// What one window saw. Untraced runs put everything on `plain`.
#[derive(Default)]
struct Window {
    requests: Vec<Request>,
    plain: Side,
    traced: Side,
    /// `RouteClient::send_queries` per traced batch, ms.
    send: Samples,
    failed: u64,
    ingest_parts: Vec<IngestParts>,
}

fn start_daemon(
    spec: &ScenarioSpec,
    metrics: MetricsHandle,
) -> Result<(Served, RouteClient), String> {
    let mut config = ServedConfig::new(spec.clone());
    config.shards = 1;
    config.metrics = metrics;
    let served = Served::start(config)?;
    let client = RouteClient::connect(served.addr()).map_err(|e| format!("connect: {e}"))?;
    Ok((served, client))
}

fn switch(registry: Option<&MetricsHandle>, on: bool) {
    if let Some(registry) = registry {
        registry.set_timing(on);
        registry.set_counting(on);
    }
}

/// Runs the closed loop until `seconds` have passed. A cycle is
/// `INGEST_EVERY` query batches followed by one ingest; with a registry
/// (traced run) every odd cycle runs with it switched on, and the
/// registry is read around each traced ingest.
fn window(
    seed: u64,
    seconds: f64,
    client: &mut RouteClient,
    levels: &mut Levels,
    registry: Option<&MetricsHandle>,
    mut tracer: Option<&mut Tracer>,
) -> Result<Window, String> {
    let mut warm =
        WorkloadGen::new(WorkloadSpec { seed: derive_seed(seed, 0x33), ..query_spec(seed) });
    let mut gen = WorkloadGen::new(query_spec(seed));
    let mut rng = FleetRng::new(derive_seed(seed, 0x34));
    let mut batch = QueryBatch::new();
    let mut out = QueryOutput::new();
    for _ in 0..WARMUP_BATCHES {
        warm.fill(client, &mut batch);
        client.query(batch.queries(), &mut out).map_err(|e| format!("warm-up: {e}"))?;
    }
    let mut w = Window::default();
    let mut last_epoch: Vec<u64> = vec![0; levels.nodes.len()];
    let (mut batches, mut ingests) = (0u64, 0u64);
    let start = Instant::now();
    let mut cycle_start = start;
    let mut traced = false;
    while start.elapsed().as_secs_f64() < seconds {
        let request = batches + ingests;
        if batches > 0 && batches % INGEST_EVERY == 0 && ingests < batches / INGEST_EVERY {
            let (fabric, items) = levels.next_ingest(&mut rng, ingests)?;
            ingests += 1;
            let before = if traced { registry.map(|r| r.snapshot()) } else { None };
            let t0 = Instant::now();
            let sent = client.send_ingest(fabric, &items);
            let reply = sent.and_then(|id| client.recv(&mut out).map(|r| (id, r)));
            let t1 = Instant::now();
            let ack = match reply {
                Ok((id, r)) if r.request_id == id => match r.kind {
                    ResponseKind::IngestAck { epoch, applied } => Some((epoch, applied)),
                    _ => None,
                },
                Ok(_) => None,
                Err(e) => return Err(format!("ingest {request}: {e}")),
            };
            let ok = ack.is_some_and(|(epoch, applied)| {
                epoch > last_epoch[fabric as usize] && applied == items.len() as u64
            });
            if let Some((epoch, _)) = ack {
                last_epoch[fabric as usize] = epoch;
            }
            w.failed += u64::from(!ok);
            let side = if traced { &mut w.traced } else { &mut w.plain };
            side.ingest.push(if ok { ms(t1 - t0) } else { f64::INFINITY });
            if let (Some(registry), Some(before)) = (registry, before) {
                let after = registry.snapshot();
                let d = |id| span_ms(&after, id) - span_ms(&before, id);
                w.ingest_parts.push(IngestParts {
                    decode: d(SpanId::NetDecode),
                    execute: d(SpanId::NetExecute),
                    publish: d(SpanId::ServePublish),
                });
            }
            if let (Some(tracer), true) = (tracer.as_deref_mut(), traced) {
                tracer.record("wire.ingest", t0, t1, None, request);
            }
            w.requests.push(Request::Ingest { fabric, items, ack, traced });
            // The cycle ends with its ingest; the next one may switch.
            let now = Instant::now();
            let side = if traced { &mut w.traced } else { &mut w.plain };
            side.wall += (now - cycle_start).as_secs_f64();
            cycle_start = now;
            traced = registry.is_some() && ingests % 2 == 1;
            switch(registry, traced);
            continue;
        }
        gen.fill(client, &mut batch);
        let t0 = Instant::now();
        let sent = client.send_queries(batch.queries());
        let t1 = Instant::now();
        let reply = sent.and_then(|id| client.recv(&mut out).map(|r| (id, r)));
        let t2 = Instant::now();
        let ok = match reply {
            Ok((id, r)) => r.request_id == id && r.kind == ResponseKind::Results,
            Err(e) => return Err(format!("query batch {batches}: {e}")),
        };
        w.failed += u64::from(!ok);
        let side = if traced { &mut w.traced } else { &mut w.plain };
        side.rtt.push(if ok { ms(t2 - t0) } else { f64::INFINITY });
        if ok {
            side.queries += batch.len() as u64;
        }
        if let (Some(tracer), true) = (tracer.as_deref_mut(), traced) {
            w.send.push(ms(t1 - t0));
            let id = tracer.record("wire.query", t0, t2, None, request);
            tracer.record("net.client_send", t0, t1, Some(id), request);
            tracer.record("net.client_wait", t1, t2, Some(id), request);
        }
        let checked = batches % CHECK_EVERY == 0;
        w.requests.push(Request::Query { digest: (ok && checked).then(|| digest(&out)) });
        batches += 1;
    }
    let side = if traced { &mut w.traced } else { &mut w.plain };
    side.wall += cycle_start.elapsed().as_secs_f64();
    switch(registry, false);
    Ok(w)
}

/// Replays the window on the mirror: every ingest must produce the
/// ACK's epoch and applied count, every sampled batch the same answers.
fn replay(out: &mut Outcome, seed: u64, mirror: &mut Mirror, w: &Window, layers: &mut Layers) {
    let mut gen = WorkloadGen::new(query_spec(seed));
    let mut batch = QueryBatch::new();
    let mut answers = QueryOutput::new();
    let (mut batches_ok, mut batches_checked, mut ingests_ok, mut ingests) = (0, 0, 0, 0);
    let mut execute = Samples::default();
    let mut publish = Samples::default();
    let mut recompute = Samples::default();
    let mut changed = Samples::default();
    for request in &w.requests {
        match request {
            Request::Ingest { fabric, items, ack, traced } => {
                ingests += 1;
                let Some(Some(side)) = mirror.fabrics.get_mut(*fabric as usize) else { continue };
                let (got, timing) = side.ingest(items);
                ingests_ok += u64::from(Some(got) == *ack);
                recompute.push(timing.routing);
                publish.push(timing.publish);
                changed.push(got.1 as f64);
                if *traced {
                    layers.routing_ms += timing.routing;
                }
            }
            Request::Query { digest: expected } => {
                gen.fill(&mirror.frontend, &mut batch);
                if let Some(expected) = expected {
                    let t = Instant::now();
                    mirror.frontend.execute_pinned(&mut batch, &mut answers);
                    execute.push(ms(t.elapsed()));
                    batches_checked += 1;
                    batches_ok += u64::from(digest(&answers) == *expected);
                }
            }
        }
    }
    out.check(
        format!("{ingests_ok} of {ingests} INGEST_ACKs match the mirror's epoch and applied count"),
        ingests_ok == ingests,
    );
    out.check(
        format!("{batches_ok} of {batches_checked} sampled batches answer as the mirror frontend"),
        batches_ok == batches_checked && batches_checked > 0,
    );
    for side in mirror.fabrics.iter().flatten() {
        let stats = side.scratch.stats();
        layers.repaired_sources += stats.repaired_sources;
        layers.fallback_sources += stats.fallback_sources;
    }
    layers.recompute_p50 = recompute.median();
    layers.recompute_p90 = recompute.quantile(0.9);
    layers.changed_per_recompute = changed.mean();
    for (name, samples) in [
        ("routing.ingest (recompute_dirty_into)", &recompute),
        ("serve.publish (EpochPublisher::publish)", &publish),
        ("serve.execute (execute_pinned, sampled batches)", &execute),
    ] {
        out.notes.push(format!("mirror {name}: {}", samples.describe("ms")));
    }
}

/// The layer tables of the traced cycles: registry totals (only traced
/// cycles record) minus the traced ingests' own deltas give the query
/// path; the interleaved untraced cycles are the reference.
fn tables(w: &Window, snap: &MetricsSnapshot, layers: &mut Layers) -> Vec<String> {
    let t = &w.traced;
    let batches = t.rtt.len().max(1) as f64;
    let ingest_decode: f64 = w.ingest_parts.iter().map(|p| p.decode).sum();
    let ingest_execute: f64 = w.ingest_parts.iter().map(|p| p.execute).sum();
    let ingest_publish: f64 = w.ingest_parts.iter().map(|p| p.publish).sum();
    let lanes = [SpanId::NetWireNextHop, SpanId::NetWireCost, SpanId::NetWirePath];
    let lane_ms: f64 = lanes.iter().map(|&id| span_ms(snap, id)).sum();
    let lane_n: u64 = lanes.iter().map(|&id| span_count(snap, id)).sum();
    let decode = (span_ms(snap, SpanId::NetDecode) - ingest_decode) / batches;
    let execute = (span_ms(snap, SpanId::NetExecute) - ingest_execute) / batches;
    let encode = span_ms(snap, SpanId::NetEncode) / batches;
    // Every query of a batch records the batch's wire-lane time, and
    // batches are equal-sized, so the per-query mean is the batch mean.
    let wire = lane_ms / lane_n.max(1) as f64;
    let send = w.send.mean();
    let rtt = t.rtt.mean();
    let mut table = Table::default();
    table.row("net.client_send (RouteClient::send_queries)", send);
    table.row("net.decode", decode);
    table.row("net.queue_wait (wire lane - execute - encode)", wire - execute - encode);
    table.row("serve.execute (net.execute)", execute);
    table.row("net.encode (+ socket write)", encode);
    table.row("net.residual (socket, wake-ups, client recv)", rtt - send - decode - wire);
    let mut notes = table.render(
        &format!("wire_mixed query batch round trip, means (traced n={})", t.rtt.len()),
        "untraced round-trip mean",
        w.plain.rtt.mean(),
    );
    notes.push(format!(
        "tracing overhead: query RTT p50 {:+.2} %, mean {:+.2} %; ingest p50 {:+.2} % \
         (traced vs untraced cycles, interleaved)",
        100.0 * (t.rtt.median() / w.plain.rtt.median() - 1.0),
        100.0 * (rtt / w.plain.rtt.mean() - 1.0),
        100.0 * (t.ingest.median() / w.plain.ingest.median() - 1.0)
    ));
    let n_ingest = t.ingest.len().max(1) as f64;
    let routing = layers.routing_ms / n_ingest;
    let mut ingest_table = Table::default();
    ingest_table.row("net.decode", ingest_decode / n_ingest);
    ingest_table.row("routing (mirror recompute_dirty_into)", routing);
    ingest_table.row("serve.publish", ingest_publish / n_ingest);
    ingest_table.row(
        "daemon ingest rest (apply items, locks)",
        (ingest_execute - ingest_publish) / n_ingest - routing,
    );
    ingest_table.row(
        "net rest (client, queue, ack, socket)",
        t.ingest.mean() - (ingest_decode + ingest_execute) / n_ingest,
    );
    notes.extend(ingest_table.render(
        &format!("wire_mixed INGEST to INGEST_ACK, means (traced n={})", t.ingest.len()),
        "untraced ingest mean",
        w.plain.ingest.mean(),
    ));
    let bytes = snap.counter(CounterId::NetBytesIn) + snap.counter(CounterId::NetBytesOut);
    layers.bytes_per_query = bytes as f64 / t.queries.max(1) as f64;
    layers.queue_depth_peak = snap.gauge(GaugeId::NetQueueDepthPeak);
    layers.window_ms = t.wall * 1e3;
    layers.serve_ms = execute * batches + ingest_publish;
    layers.net_ms = t.rtt.sum() + t.ingest.sum() - layers.routing_ms - layers.serve_ms;
    notes
}

pub fn run(seed: u64, seconds: f64, trace: Option<&mut Tracer>) -> Result<Outcome, String> {
    let spec = fleet_spec(seed)?;
    // The mirror is built twice (levels now, replay later) so it never
    // shares the process with a daemon: the peak RSS stays the daemon's.
    let initial = Levels::of(&build_mirror(&spec)?);
    let registry = trace.is_some().then(|| {
        let registry = MetricsHandle::new(Arc::new(Registry::full()));
        switch(Some(&registry), false);
        registry
    });
    let mut setup = Samples::default();
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        drop(daemon.take());
        let t = Instant::now();
        let started = start_daemon(&spec, registry.clone().unwrap_or_default())?;
        setup.push(t.elapsed().as_secs_f64());
        daemon = Some(started);
    }
    let (served, mut client) = daemon.expect("at least one set-up repetition");
    let mut levels = initial.clone();
    let w = window(seed, seconds, &mut client, &mut levels, registry.as_ref(), trace)?;
    drop(client);
    // Dropping the daemon joins its workers: every span is recorded.
    drop(served);
    let e2e = EndToEnd {
        latency: w.plain.rtt.clone(),
        throughput_per_s: w.plain.queries as f64 / w.plain.wall,
        ingest: w.plain.ingest.clone(),
        setup,
    };
    let mut out =
        Outcome { attempted: w.requests.len() as u64, failed: w.failed, ..Outcome::default() };
    out.notes.extend(e2e.notes("one query batch round trip", "INGEST to INGEST_ACK"));
    out.notes.push(format!(
        "window: {} query batches, {} ingests, {} failed ({} batches and {} ingests traced)",
        w.plain.rtt.len() + w.traced.rtt.len(),
        w.plain.ingest.len() + w.traced.ingest.len(),
        w.failed,
        w.traced.rtt.len(),
        w.traced.ingest.len()
    ));
    let mut layers = Layers::default();
    replay(&mut out, seed, &mut build_mirror(&spec)?, &w, &mut layers);
    if let Some(registry) = registry {
        out.notes.extend(tables(&w, &registry.snapshot(), &mut layers));
        out.layers = Some(layers);
    }
    out.e2e = e2e;
    Ok(out)
}
