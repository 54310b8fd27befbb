//! [`Served`]: the thread-per-core TCP query daemon.
//!
//! One acceptor thread pins each incoming connection to a shard
//! (round-robin), one lightweight reader thread per connection
//! decodes frames, and one **worker thread per shard** executes every
//! queued request for its connections — so a connection's queries run
//! on the owning shard with no cross-core handoff on the hot path.
//! Between reader and worker sits a **bounded queue**: when it fills,
//! the reader sheds the request with a [`code::OVERLOADED`] REJECT
//! instead of queueing, which keeps in-daemon wait bounded and pushes
//! backpressure to the client where it belongs (§ load-shedding in
//! the README's wire-protocol section).
//!
//! Each worker additionally owns the **write side** of the fabrics
//! [`FleetFrontend::shard_of`] maps to it: INGEST frames patch the fabric's battery report,
//! rerun the decrease-half repair, and publish a new epoch — the
//! network analogue of the engine's per-frame `TableObserver` hook.
//! Reads never wait on writes: queries answer from the epoch
//! snapshots, so an ingest's only effect on concurrent queries is
//! which epoch they pin.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use etx_fleet::ScenarioSpec;
use etx_graph::{DiGraph, NodeId};
use etx_metrics::{CounterId, GaugeId, MetricsHandle, SpanId};
use etx_routing::{Router, RoutingScratch, RoutingState, SystemReport};
use etx_sim::{SimPool, Simulation, TableObserver};

use super::proto::{self, code, FabricDims, PROTOCOL_VERSION};
use super::wire::{FrameReader, RecvError};
use crate::{EpochPublisher, FleetFrontend, QueryBatch, QueryOutput};

/// Configuration for [`Served::start`].
#[derive(Debug)]
pub struct ServedConfig {
    /// The fleet scenario whose instances this daemon serves.
    pub spec: ScenarioSpec,
    /// Worker-thread (shard) count, clamped to ≥ 1.
    pub shards: usize,
    /// TCP port on 127.0.0.1 (`0`: ephemeral; read [`Served::addr`]).
    pub port: u16,
    /// Warm-up engine cycles per instance (`None`: the spec's
    /// `warm_cycles`).
    pub warm_cycles: Option<u64>,
    /// Bounded per-shard queue capacity: requests past this are shed.
    pub queue_capacity: usize,
    /// Maximum accepted frame payload.
    pub max_frame_len: usize,
    /// Start with workers paused (deterministic backpressure tests:
    /// the queue fills while paused; [`Served::set_paused`] releases).
    pub start_paused: bool,
    /// Metrics sink for the daemon's counters, spans and wire-latency
    /// histograms.
    pub metrics: MetricsHandle,
}

impl ServedConfig {
    /// Defaults for `spec`: one shard, ephemeral port, spec warm-up,
    /// queue capacity 64, 1 MiB frames, running (not paused), no-op
    /// metrics.
    #[must_use]
    pub fn new(spec: ScenarioSpec) -> Self {
        ServedConfig {
            spec,
            shards: 1,
            port: 0,
            warm_cycles: None,
            queue_capacity: 64,
            max_frame_len: proto::DEFAULT_MAX_FRAME_LEN,
            start_paused: false,
            metrics: MetricsHandle::default(),
        }
    }
}

/// What a queued request is.
enum JobKind {
    /// A QUERY batch to execute against the frontend.
    Query,
    /// An INGEST to apply to one fabric's write side.
    Ingest,
}

/// A pooled per-request workspace: the decoded request and the
/// execution buffers, retained across requests so the warm path
/// allocates nothing. (The encode buffer belongs to the shard worker;
/// see [`worker_loop`].)
struct WorkItem {
    request_id: u64,
    kind: JobKind,
    batch: QueryBatch,
    ingest_fabric: u32,
    ingest: Vec<(u32, u32)>,
    out: QueryOutput,
    received: Option<Instant>,
    /// Query counts per wire-latency lane: next-hop, cost, path.
    lanes: [u64; 3],
}

impl Default for WorkItem {
    fn default() -> Self {
        WorkItem {
            request_id: 0,
            kind: JobKind::Query,
            batch: QueryBatch::new(),
            ingest_fabric: 0,
            ingest: Vec::new(),
            out: QueryOutput::new(),
            received: None,
            lanes: [0; 3],
        }
    }
}

/// One queued request: the workspace plus the connection to answer.
struct Job {
    conn: Arc<Conn>,
    item: WorkItem,
}

/// The bounded handoff between a shard's readers and its worker.
struct ShardQueue {
    state: Mutex<VecDeque<Job>>,
    ready: Condvar,
    capacity: usize,
}

impl ShardQueue {
    fn new(capacity: usize) -> Self {
        ShardQueue {
            state: Mutex::new(VecDeque::with_capacity(capacity)),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues unless full; a full queue returns the job to the
    /// caller for shedding. Never blocks.
    // Err is the give-back path, not an error type: the rejected Job
    // must come back whole so its WorkItem returns to the connection
    // pool without a heap round trip on the shed path.
    #[allow(clippy::result_large_err)]
    fn try_push(&self, job: Job, metrics: &MetricsHandle) -> Result<(), Job> {
        let mut q = self.state.lock().unwrap();
        if q.len() >= self.capacity {
            return Err(job);
        }
        q.push_back(job);
        metrics.gauge_raise(GaugeId::NetQueueDepthPeak, q.len() as u64);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` on shutdown. While paused, the
    /// queue accepts pushes but releases nothing — how the
    /// backpressure tests fill it deterministically.
    fn pop(&self, shutdown: &AtomicBool, paused: &AtomicBool) -> Option<Job> {
        let mut q = self.state.lock().unwrap();
        loop {
            if shutdown.load(Ordering::Acquire) {
                return None;
            }
            if !paused.load(Ordering::Acquire) {
                if let Some(job) = q.pop_front() {
                    return Some(job);
                }
            }
            q = self.ready.wait(q).unwrap();
        }
    }

    fn notify_all(&self) {
        let _guard = self.state.lock().unwrap();
        self.ready.notify_all();
    }
}

/// Per-connection state shared between its reader thread and the
/// shard workers answering it.
struct Conn {
    stream: TcpStream,
    /// Serializes frame writes: reader-side REJECTs and worker-side
    /// RESULTS interleave at frame granularity, never mid-frame.
    write: Mutex<()>,
    /// Returned [`WorkItem`]s, reused by the reader. Per-connection,
    /// so a connection's buffers converge to its own batch sizes.
    pool: Mutex<Vec<WorkItem>>,
    /// The shard this connection's queries execute on.
    shard: u32,
}

impl Conn {
    fn take_item(&self) -> WorkItem {
        self.pool.lock().unwrap().pop().unwrap_or_default()
    }

    fn put_item(&self, item: WorkItem) {
        self.pool.lock().unwrap().push(item);
    }

    /// Writes one already-encoded frame atomically; errors mean the
    /// peer is gone and are ignored (the reader observes the close).
    fn write_frame(&self, metrics: &MetricsHandle, frame: &[u8]) {
        use std::io::Write as _;
        let _guard = self.write.lock().unwrap();
        if (&self.stream).write_all(frame).is_ok() {
            metrics.inc(CounterId::NetFramesOut);
            metrics.add(CounterId::NetBytesOut, frame.len() as u64);
        }
    }
}

/// The write side of one served fabric: everything needed to patch
/// its battery report, repair its tables and publish a new epoch —
/// the same `graph → report → recompute_dirty_into → publish` loop
/// the engine's frame hook runs, owned by exactly one worker.
struct ServedFabric {
    fabric: u32,
    graph: DiGraph,
    modules: Vec<Vec<NodeId>>,
    router: Router,
    scratch: RoutingScratch,
    state: RoutingState,
    report: SystemReport,
    publisher: Arc<Mutex<EpochPublisher>>,
    dirty: Vec<NodeId>,
    /// `false` when the engine configuration (a remapping policy)
    /// moves modules outside this write side's model — such fabrics
    /// answer queries but refuse ingests.
    ingestable: bool,
}

impl ServedFabric {
    fn from_sim(
        fabric: u32,
        sim: &Simulation,
        publisher: Arc<Mutex<EpochPublisher>>,
    ) -> Result<ServedFabric, String> {
        let cfg = sim.config();
        let placement = cfg.placement().map_err(|e| format!("fabric {fabric}: {e:?}"))?;
        Ok(ServedFabric {
            fabric,
            graph: cfg.build_graph(),
            modules: placement.module_nodes().to_vec(),
            router: Router::with_weighting(cfg.algorithm, cfg.weighting)
                .with_strategy(cfg.recompute_strategy),
            scratch: RoutingScratch::new(),
            state: sim.routing().clone(),
            report: sim.last_report().clone(),
            publisher,
            dirty: Vec::new(),
            ingestable: cfg.remapping.is_none(),
        })
    }

    /// Applies `(node, level)` telemetry (wire level `0`: dead;
    /// `k > 0`: battery level `k − 1`), repairs the tables over the
    /// dirtied nodes and publishes. Returns `(epoch, applied)`;
    /// no-op items (unknown nodes, unchanged levels) don't count and
    /// an all-no-op ingest publishes nothing.
    fn ingest(&mut self, items: &[(u32, u32)]) -> (u64, u64) {
        self.dirty.clear();
        let nodes = self.report.node_count();
        for &(node, level) in items {
            if node as usize >= nodes {
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
        if applied == 0 {
            return (self.publisher.lock().unwrap().epoch(), 0);
        }
        self.router.recompute_dirty_into(
            &self.graph,
            &self.modules,
            &self.report,
            &self.dirty,
            &mut self.scratch,
            &mut self.state,
        );
        let epoch = self.publisher.lock().unwrap().publish(&self.state);
        (epoch, applied)
    }
}

/// The engine-side table hook for daemon-owned fabrics: the publisher
/// must outlive the simulation (the worker's write side keeps
/// publishing epochs), so the observer holds it behind a shared lock.
struct SharedPublisher(Arc<Mutex<EpochPublisher>>);

impl TableObserver for SharedPublisher {
    fn on_tables(&mut self, _version: u64, routing: &RoutingState, _report: &SystemReport) {
        self.0.lock().unwrap().publish(routing);
    }
}

/// State shared by the acceptor, every reader and every worker.
struct Shared {
    frontend: FleetFrontend,
    queues: Vec<ShardQueue>,
    dims: FabricDims,
    metrics: MetricsHandle,
    shutdown: AtomicBool,
    paused: AtomicBool,
    max_frame_len: usize,
    conns: Mutex<Vec<Weak<Conn>>>,
    next_conn: AtomicUsize,
    addr: SocketAddr,
}

impl Shared {
    /// Flips the daemon into shutdown and unblocks everything that
    /// could be waiting: workers (queue condvars), readers (socket
    /// shutdown) and the acceptor (a self-connection). Idempotent.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        for queue in &self.queues {
            queue.notify_all();
        }
        let conns = self.conns.lock().unwrap();
        for conn in conns.iter().filter_map(Weak::upgrade) {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        drop(conns);
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running daemon. Dropping it shuts it down and joins its threads.
pub struct Served {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Served {
    /// Builds the fleet (sampled, warmed and published exactly as
    /// [`FleetFrontend::from_spec`] does, so answers and epochs are
    /// identical to the in-process frontend), binds 127.0.0.1 and
    /// spawns the acceptor and one worker per shard.
    ///
    /// # Errors
    ///
    /// Invalid specs ([`ScenarioSpec::check`]) and bind failures.
    pub fn start(config: ServedConfig) -> Result<Served, String> {
        let ServedConfig {
            spec,
            shards,
            port,
            warm_cycles,
            queue_capacity,
            max_frame_len,
            start_paused,
            metrics,
        } = config;
        spec.check()?;
        let shards = shards.max(1);
        let warm = warm_cycles.unwrap_or(spec.warm_cycles);

        let mut frontend = FleetFrontend::new(shards).with_metrics(metrics.clone());
        let mut pool = SimPool::new();
        let mut write_sides: Vec<Vec<ServedFabric>> = (0..shards).map(|_| Vec::new()).collect();
        let mut dims: FabricDims = Vec::with_capacity(spec.instances);
        for index in 0..spec.instances {
            match spec.sample(index).build_pooled(&mut pool) {
                Ok(mut sim) => {
                    let (mut publisher, reader) = EpochPublisher::new();
                    publisher.set_metrics(metrics.clone());
                    let shared_pub = Arc::new(Mutex::new(publisher));
                    sim.set_table_observer(Box::new(SharedPublisher(Arc::clone(&shared_pub))));
                    for _ in 0..warm {
                        if sim.step().is_some() {
                            break;
                        }
                    }
                    let nodes = sim.routing().node_count();
                    let modules = sim.routing().module_count();
                    let fabric = frontend.register(reader, nodes, modules);
                    dims.push(Some((nodes as u32, modules as u32)));
                    let side = ServedFabric::from_sim(fabric, &sim, shared_pub)?;
                    write_sides[frontend.shard_of(fabric) as usize].push(side);
                    sim.recycle_into(&mut pool);
                }
                Err(_) => {
                    frontend.register_rejected();
                    dims.push(None);
                }
            }
        }

        let listener = TcpListener::bind(("127.0.0.1", port))
            .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;

        let shared = Arc::new(Shared {
            frontend,
            queues: (0..shards).map(|_| ShardQueue::new(queue_capacity)).collect(),
            dims,
            metrics,
            shutdown: AtomicBool::new(false),
            paused: AtomicBool::new(start_paused),
            max_frame_len,
            conns: Mutex::new(Vec::new()),
            next_conn: AtomicUsize::new(0),
            addr,
        });

        let workers = write_sides
            .into_iter()
            .enumerate()
            .map(|(shard, fabrics)| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, shard, fabrics))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || acceptor_loop(&shared, &listener))
        };
        Ok(Served { shared, acceptor: Some(acceptor), workers })
    }

    /// The daemon's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Pauses/resumes the shard workers (requests queue — and shed
    /// past capacity — while paused).
    pub fn set_paused(&self, paused: bool) {
        self.shared.paused.store(paused, Ordering::Release);
        if !paused {
            for queue in &self.shared.queues {
                queue.notify_all();
            }
        }
    }

    /// Begins shutdown (idempotent; also reachable over the wire via
    /// a SHUTDOWN frame).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the daemon has shut down (wire SHUTDOWN frame or
    /// [`Served::shutdown`]) and its acceptor and workers have
    /// exited.
    pub fn wait(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        self.wait();
    }
}

fn acceptor_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                shared.metrics.inc(CounterId::NetConnections);
                let _ = stream.set_nodelay(true);
                let shard =
                    (shared.next_conn.fetch_add(1, Ordering::Relaxed) % shared.queues.len()) as u32;
                let conn = Arc::new(Conn {
                    stream,
                    write: Mutex::new(()),
                    pool: Mutex::new(Vec::new()),
                    shard,
                });
                let mut conns = shared.conns.lock().unwrap();
                conns.retain(|c| c.strong_count() > 0);
                conns.push(Arc::downgrade(&conn));
                drop(conns);
                let shared = Arc::clone(shared);
                std::thread::spawn(move || conn_loop(&shared, &conn));
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

/// Prefix + payload length of a frame whose payload is `len` bytes.
fn frame_len(len: usize) -> u64 {
    let mut prefix = 1u64;
    let mut v = len >> 7;
    while v > 0 {
        prefix += 1;
        v >>= 7;
    }
    prefix + len as u64
}

/// Sends a fatal ERROR frame and counts the protocol error.
fn fatal(shared: &Shared, conn: &Conn, scratch: &mut Vec<u8>, error: u8) {
    shared.metrics.inc(CounterId::NetProtocolErrors);
    let frame = proto::encode_error(scratch, error);
    conn.write_frame(&shared.metrics, frame);
}

fn conn_loop(shared: &Arc<Shared>, conn: &Arc<Conn>) {
    let mut reader = FrameReader::new();
    let mut scratch = Vec::new();

    // Handshake: HELLO in, HELLO_ACK (or a fatal ERROR) out.
    {
        let accept_t = shared.metrics.timer();
        match reader.next_frame(&conn.stream, shared.max_frame_len) {
            Ok(Some(payload)) => {
                shared.metrics.inc(CounterId::NetFramesIn);
                shared.metrics.add(CounterId::NetBytesIn, frame_len(payload.len()));
                match proto::decode_hello(payload) {
                    Ok(version) if version == PROTOCOL_VERSION => {}
                    Ok(_) => return fatal(shared, conn, &mut scratch, code::BAD_VERSION),
                    Err(error) => return fatal(shared, conn, &mut scratch, error),
                }
            }
            Ok(None) => return,
            Err(RecvError::TooLarge { .. }) => {
                return fatal(shared, conn, &mut scratch, code::FRAME_TOO_LARGE)
            }
            Err(RecvError::BadLength) => return fatal(shared, conn, &mut scratch, code::MALFORMED),
            Err(_) => return,
        }
        let frame = proto::encode_hello_ack(
            &mut scratch,
            conn.shard,
            shared.queues.len() as u32,
            &shared.dims,
        );
        conn.write_frame(&shared.metrics, frame);
        shared.metrics.observe_since(SpanId::NetAccept, accept_t);
    }

    loop {
        let payload = match reader.next_frame(&conn.stream, shared.max_frame_len) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(RecvError::TooLarge { .. }) => {
                return fatal(shared, conn, &mut scratch, code::FRAME_TOO_LARGE)
            }
            Err(RecvError::BadLength) => return fatal(shared, conn, &mut scratch, code::MALFORMED),
            Err(_) => return,
        };
        shared.metrics.inc(CounterId::NetFramesIn);
        shared.metrics.add(CounterId::NetBytesIn, frame_len(payload.len()));

        match payload.first().copied() {
            Some(proto::msg::QUERY) => {
                let decode_t = shared.metrics.timer();
                let mut item = conn.take_item();
                let request_id = match proto::decode_query_into(payload, &mut item.batch) {
                    Ok(id) => id,
                    Err(_) => {
                        conn.put_item(item);
                        return fatal(shared, conn, &mut scratch, code::MALFORMED);
                    }
                };
                item.request_id = request_id;
                item.kind = JobKind::Query;
                item.lanes = [0; 3];
                for query in item.batch.queries() {
                    let lane = match query {
                        crate::Query::NextHop { .. } => 0,
                        crate::Query::Cost { .. } => 1,
                        crate::Query::Path { .. } => 2,
                    };
                    item.lanes[lane] += 1;
                }
                item.received = shared.metrics.timer();
                shared.metrics.observe_since(SpanId::NetDecode, decode_t);
                shared.metrics.inc(CounterId::NetQueryRequests);
                let queue = &shared.queues[conn.shard as usize];
                if let Err(job) =
                    queue.try_push(Job { conn: Arc::clone(conn), item }, &shared.metrics)
                {
                    shared.metrics.inc(CounterId::NetShedTotal);
                    let frame = proto::encode_reject(&mut scratch, request_id, code::OVERLOADED);
                    conn.write_frame(&shared.metrics, frame);
                    conn.put_item(job.item);
                }
            }
            Some(proto::msg::INGEST) => {
                let decode_t = shared.metrics.timer();
                let mut item = conn.take_item();
                let (request_id, fabric) =
                    match proto::decode_ingest_into(payload, &mut item.ingest) {
                        Ok(decoded) => decoded,
                        Err(_) => {
                            conn.put_item(item);
                            return fatal(shared, conn, &mut scratch, code::MALFORMED);
                        }
                    };
                item.request_id = request_id;
                item.kind = JobKind::Ingest;
                item.ingest_fabric = fabric;
                item.received = shared.metrics.timer();
                shared.metrics.observe_since(SpanId::NetDecode, decode_t);
                if fabric as usize >= shared.dims.len() {
                    let frame =
                        proto::encode_reject(&mut scratch, request_id, code::UNKNOWN_FABRIC);
                    conn.write_frame(&shared.metrics, frame);
                    conn.put_item(item);
                    continue;
                }
                let queue = &shared.queues[shared.frontend.shard_of(fabric) as usize];
                if let Err(job) =
                    queue.try_push(Job { conn: Arc::clone(conn), item }, &shared.metrics)
                {
                    shared.metrics.inc(CounterId::NetShedTotal);
                    let frame = proto::encode_reject(&mut scratch, request_id, code::OVERLOADED);
                    conn.write_frame(&shared.metrics, frame);
                    conn.put_item(job.item);
                }
            }
            Some(proto::msg::SHUTDOWN) => {
                shared.begin_shutdown();
                return;
            }
            Some(_) => return fatal(shared, conn, &mut scratch, code::UNKNOWN_TYPE),
            None => return fatal(shared, conn, &mut scratch, code::MALFORMED),
        }
    }
}

/// Wire-latency lanes, ordered as `WorkItem::lanes`.
const WIRE_LANES: [SpanId; 3] = [SpanId::NetWireNextHop, SpanId::NetWireCost, SpanId::NetWirePath];

/// Drains one shard's queue. Each answer is encoded into the worker's
/// own buffer so the pooled [`WorkItem`] can go back to its
/// connection *before* the answer is written: a closed-loop client's
/// next request then always finds it in the pool instead of growing a
/// fresh one from empty buffers.
fn worker_loop(shared: &Arc<Shared>, shard: usize, mut fabrics: Vec<ServedFabric>) {
    let mut wire = Vec::new();
    while let Some(job) = shared.queues[shard].pop(&shared.shutdown, &shared.paused) {
        let Job { conn, mut item } = job;
        match item.kind {
            JobKind::Query => {
                {
                    let _exec = shared.metrics.span(SpanId::NetExecute);
                    shared.frontend.execute(&mut item.batch, &mut item.out);
                }
                let encode_t = shared.metrics.timer();
                let frame = proto::encode_results(&mut wire, item.request_id, &item.out);
                let (received, lanes) = (item.received.take(), item.lanes);
                conn.put_item(item);
                conn.write_frame(&shared.metrics, frame);
                shared.metrics.observe_since(SpanId::NetEncode, encode_t);
                if let Some(received) = received {
                    let ns = received.elapsed().as_nanos() as u64;
                    for (lane, span) in WIRE_LANES.into_iter().enumerate() {
                        shared.metrics.observe_n(span, ns, lanes[lane]);
                    }
                }
            }
            JobKind::Ingest => {
                let side = fabrics.iter_mut().find(|f| f.fabric == item.ingest_fabric);
                let frame = match side {
                    Some(side) if side.ingestable => {
                        let _exec = shared.metrics.span(SpanId::NetExecute);
                        let (epoch, applied) = side.ingest(&item.ingest);
                        shared.metrics.inc(CounterId::NetIngests);
                        proto::encode_ingest_ack(&mut wire, item.request_id, epoch, applied)
                    }
                    Some(_) => {
                        proto::encode_reject(&mut wire, item.request_id, code::INGEST_UNSUPPORTED)
                    }
                    None => proto::encode_reject(&mut wire, item.request_id, code::UNKNOWN_FABRIC),
                };
                conn.put_item(item);
                conn.write_frame(&shared.metrics, frame);
            }
        }
    }
}
