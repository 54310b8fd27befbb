//! Workload generation and load loops: SplitMix64-driven query streams
//! with a configurable point/path/cost mix, driven open- or closed-loop
//! against a [`FleetFrontend`], with HDR-style tail-latency capture
//! (the exact-integer [`Histo`] from `etx-metrics` — the same bucket
//! scheme the fleet's `StreamingStat` re-exports).

use std::time::Instant;

use etx_fleet::FleetRng;
use etx_graph::NodeId;
use etx_metrics::Histo;

use crate::frontend::FleetFrontend;
use crate::query::{Query, QueryBatch, QueryOutput};

/// A declarative query workload: one spec plus a seed expands into a
/// reproducible query stream (batch `b` depends only on `(seed, b)`
/// and the frontend's fabric dimensions).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Root seed of the query stream.
    pub seed: u64,
    /// Queries per batch.
    pub batch: usize,
    /// Relative weight of point (next-hop) lookups.
    pub next_hop_weight: u32,
    /// Relative weight of full-path queries.
    pub path_weight: u32,
    /// Relative weight of path-cost queries.
    pub cost_weight: u32,
}

impl Default for WorkloadSpec {
    /// Point-lookup-heavy mix (8:1:1) in 1024-query batches.
    fn default() -> Self {
        WorkloadSpec { seed: 2005, batch: 1024, next_hop_weight: 8, path_weight: 1, cost_weight: 1 }
    }
}

impl WorkloadSpec {
    /// A pure point-lookup workload (the headline throughput metric;
    /// exercises the NextHop lane alone).
    #[must_use]
    pub fn point_lookups() -> Self {
        WorkloadSpec { next_hop_weight: 1, path_weight: 0, cost_weight: 0, ..Self::default() }
    }

    /// A pure full-path workload (exercises the Path lane and the node
    /// arena alone).
    #[must_use]
    pub fn full_paths() -> Self {
        WorkloadSpec { next_hop_weight: 0, path_weight: 1, cost_weight: 0, ..Self::default() }
    }

    /// A pure path-cost workload (exercises the Cost lane — and with
    /// it, only the distance plane).
    #[must_use]
    pub fn path_costs() -> Self {
        WorkloadSpec { next_hop_weight: 0, path_weight: 0, cost_weight: 1, ..Self::default() }
    }
}

/// The fabric dimensions a workload generator samples against —
/// implemented by the in-process [`FleetFrontend`] and by the
/// daemon's [`RouteClient`](crate::net::RouteClient) (which learns
/// them from the HELLO_ACK handshake), so the *same* generator state
/// produces the *same* query stream locally and over the wire.
pub trait FabricDirectory {
    /// Number of fabric ids (rejected placeholders included).
    fn fabric_count(&self) -> usize;
    /// Node count of a served fabric (`None` for rejected ids).
    fn node_count(&self, fabric: u32) -> Option<usize>;
    /// Module count of a served fabric (`None` for rejected ids).
    fn module_count(&self, fabric: u32) -> Option<usize>;
}

impl FabricDirectory for FleetFrontend {
    fn fabric_count(&self) -> usize {
        FleetFrontend::fabric_count(self)
    }

    fn node_count(&self, fabric: u32) -> Option<usize> {
        FleetFrontend::node_count(self, fabric)
    }

    fn module_count(&self, fabric: u32) -> Option<usize> {
        FleetFrontend::module_count(self, fabric)
    }
}

/// Expands a [`WorkloadSpec`] into query batches.
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    spec: WorkloadSpec,
    next_batch: u64,
}

impl WorkloadGen {
    /// A generator at batch 0.
    #[must_use]
    pub fn new(spec: WorkloadSpec) -> Self {
        WorkloadGen { spec, next_batch: 0 }
    }

    /// The spec this generator expands.
    #[must_use]
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Fills `batch` with the next batch of queries addressed at
    /// `frontend`'s fabrics. Deterministic: batch `b` is sampled from a
    /// substream forked from `(seed, b)` alone, so two generators over
    /// the same spec and the same fabric dimensions produce identical
    /// streams regardless of timing — or of which side of a socket
    /// they run on.
    pub fn fill(&mut self, frontend: &impl FabricDirectory, batch: &mut QueryBatch) {
        let mut rng = FleetRng::new(self.spec.seed).fork(self.next_batch);
        self.next_batch += 1;
        batch.clear();
        let fabric_count = frontend.fabric_count().max(1) as u64;
        let total_weight = u64::from(self.spec.next_hop_weight)
            + u64::from(self.spec.path_weight)
            + u64::from(self.spec.cost_weight);
        for _ in 0..self.spec.batch {
            let fabric = rng.below(fabric_count) as u32;
            let nodes = frontend.node_count(fabric).unwrap_or(1) as u64;
            let modules = frontend.module_count(fabric).unwrap_or(1).max(1) as u64;
            let source = NodeId::new(rng.below(nodes.max(1)) as usize);
            let pick = if total_weight == 0 { 0 } else { rng.below(total_weight) };
            let query = if pick < u64::from(self.spec.next_hop_weight) {
                Query::NextHop { fabric, source, module: rng.below(modules) as u32 }
            } else if pick < u64::from(self.spec.next_hop_weight + self.spec.path_weight) {
                Query::Path { fabric, source, module: rng.below(modules) as u32 }
            } else {
                Query::Cost {
                    fabric,
                    source,
                    target: NodeId::new(rng.below(nodes.max(1)) as usize),
                }
            };
            batch.push(query);
        }
    }
}

/// How the load loop paces itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Closed loop: the next batch is issued the moment the previous
    /// one completes; latency is pure service time.
    Closed,
    /// Open loop: queries arrive on a fixed schedule at this rate
    /// regardless of completion, so latency includes queueing delay —
    /// the tail behaviour a saturated service actually exhibits.
    Open {
        /// Scheduled arrival rate, queries per second.
        rate_qps: f64,
    },
}

/// Result of one load run: throughput plus the latency distribution in
/// nanoseconds (p50/p90/p99/p999 from the HDR-style histogram).
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Queries executed.
    pub queries: u64,
    /// Batches executed.
    pub batches: u64,
    /// Wall-clock duration of the measured loop.
    pub wall_seconds: f64,
    /// Sustained throughput, queries per second.
    pub qps: f64,
    /// Per-query latency histogram, nanoseconds.
    pub latency: Histo,
}

impl LoadReport {
    /// The `q`-quantile of per-query latency, nanoseconds.
    #[must_use]
    pub fn latency_ns(&self, q: f64) -> u64 {
        self.latency.quantile_raw(q)
    }
}

/// Drives `target_queries` (rounded up to whole batches) through
/// `frontend` and captures throughput plus tail latency.
///
/// Per-query latency is attributed at batch granularity: a batch's
/// service time is divided evenly over its queries. Under
/// [`LoadMode::Open`] each query records *wait + service* — the time it
/// spent queued behind earlier batches relative to its scheduled
/// arrival, plus its service share — so percentiles stay meaningful
/// even when service completes within the arrival tick (a pure
/// finish-minus-arrival sojourn clamps to zero there). Batch generation
/// is excluded from the measured service time.
#[must_use]
pub fn run_load(
    frontend: &FleetFrontend,
    generator: &mut WorkloadGen,
    mode: LoadMode,
    target_queries: u64,
) -> LoadReport {
    let mut batch = QueryBatch::new();
    let mut out = QueryOutput::new();
    let mut latency = Histo::new();
    let mut queries = 0u64;
    let mut batches = 0u64;

    // Warm-up batch: grows every reusable buffer before timing starts.
    generator.fill(frontend, &mut batch);
    frontend.execute(&mut batch, &mut out);

    let start = Instant::now();
    // Virtual open-loop clock, nanoseconds since `start`.
    let mut finish_ns = 0u64;
    while queries < target_queries {
        generator.fill(frontend, &mut batch);
        let batch_len = batch.len() as u64;
        let issued = Instant::now();
        frontend.execute(&mut batch, &mut out);
        let service_ns = issued.elapsed().as_nanos() as u64;

        match mode {
            LoadMode::Closed => {
                let per_query = service_ns / batch_len.max(1);
                for _ in 0..batch_len {
                    latency.observe(per_query);
                }
            }
            LoadMode::Open { rate_qps } => {
                // Scheduled arrivals: query `i` of the run arrives at
                // `i / rate`; the batch starts no earlier than both its
                // first arrival and the previous batch's finish. Each
                // query's sojourn is its queueing wait (time between its
                // arrival and the batch start, zero when it arrived
                // mid-batch) *plus* its service share — never clamped to
                // zero: a query that completes within its arrival tick
                // still pays its service time, which is what keeps the
                // low percentiles meaningful at sub-saturation rates.
                let inter_ns = 1e9 / rate_qps.max(1e-9);
                let first_arrival = (queries as f64 * inter_ns) as u64;
                let batch_start = finish_ns.max(first_arrival);
                finish_ns = batch_start + service_ns;
                let per_query = (service_ns / batch_len.max(1)).max(1);
                for i in 0..batch_len {
                    let arrival = ((queries + i) as f64 * inter_ns) as u64;
                    let wait = batch_start.saturating_sub(arrival);
                    latency.observe(wait + per_query);
                }
            }
        }
        queries += batch_len;
        batches += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    LoadReport {
        queries,
        batches,
        wall_seconds: wall,
        qps: queries as f64 / wall.max(1e-9),
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_fleet::ScenarioSpec;

    fn tiny_frontend() -> FleetFrontend {
        let spec = ScenarioSpec { instances: 2, ..ScenarioSpec::smoke() };
        FleetFrontend::from_spec(&spec, 1_500).expect("smoke spec is valid")
    }

    #[test]
    fn generation_is_deterministic() {
        let frontend = tiny_frontend();
        let spec = WorkloadSpec { batch: 64, ..WorkloadSpec::default() };
        let mut a = WorkloadGen::new(spec.clone());
        let mut b = WorkloadGen::new(spec);
        let mut batch_a = QueryBatch::new();
        let mut batch_b = QueryBatch::new();
        for _ in 0..3 {
            a.fill(&frontend, &mut batch_a);
            b.fill(&frontend, &mut batch_b);
            assert_eq!(batch_a.queries(), batch_b.queries());
        }
    }

    #[test]
    fn mix_respects_pure_point_spec() {
        let frontend = tiny_frontend();
        let mut generator =
            WorkloadGen::new(WorkloadSpec { batch: 128, ..WorkloadSpec::point_lookups() });
        let mut batch = QueryBatch::new();
        generator.fill(&frontend, &mut batch);
        assert!(batch.queries().iter().all(|q| matches!(q, Query::NextHop { .. })));
    }

    #[test]
    fn closed_loop_reports_throughput_and_latency() {
        let frontend = tiny_frontend();
        let mut generator =
            WorkloadGen::new(WorkloadSpec { batch: 256, ..WorkloadSpec::default() });
        let report = run_load(&frontend, &mut generator, LoadMode::Closed, 1_000);
        assert!(report.queries >= 1_000);
        assert!(report.qps > 0.0);
        assert_eq!(report.latency.count(), report.queries);
        assert!(report.latency_ns(0.999) >= report.latency_ns(0.5));
    }

    #[test]
    fn open_loop_percentiles_are_never_zero() {
        // Sub-saturation arrivals: the service regularly completes
        // within the arrival tick, the case that used to clamp the
        // whole lower half of the distribution to 0 ns.
        let frontend = tiny_frontend();
        let mut generator =
            WorkloadGen::new(WorkloadSpec { batch: 256, ..WorkloadSpec::default() });
        let report = run_load(&frontend, &mut generator, LoadMode::Open { rate_qps: 1_000.0 }, 512);
        assert!(report.latency_ns(0.5) > 0, "open-loop p50 clamped to zero");
        assert!(report.latency_ns(0.5) <= report.latency_ns(0.99));
    }

    #[test]
    fn open_loop_latency_includes_queueing() {
        let frontend = tiny_frontend();
        let spec = WorkloadSpec { batch: 256, ..WorkloadSpec::default() };
        // An absurdly high arrival rate forces a backlog: open-loop tail
        // latency must dominate the closed-loop service time.
        let open = run_load(
            &frontend,
            &mut WorkloadGen::new(spec.clone()),
            LoadMode::Open { rate_qps: 1e12 },
            2_000,
        );
        let closed = run_load(&frontend, &mut WorkloadGen::new(spec), LoadMode::Closed, 2_000);
        assert!(
            open.latency_ns(0.99) >= closed.latency_ns(0.99),
            "open p99 {} < closed p99 {}",
            open.latency_ns(0.99),
            closed.latency_ns(0.99)
        );
    }
}
