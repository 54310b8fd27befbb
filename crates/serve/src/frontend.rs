//! [`FleetFrontend`]: one query surface over thousands of pooled fabric
//! instances.

use etx_fleet::ScenarioSpec;
use etx_metrics::{CounterId, MetricsHandle, SpanId};
use etx_sim::SimPool;

use crate::publish::{EpochPublisher, PinnedSnapshot, SnapshotReader};
use crate::query::{execute_group, QueryBatch, QueryOutput};

/// One served fabric: the reader half of its publisher plus the
/// dimensions workload generators need.
#[derive(Debug, Clone)]
struct FabricHandle {
    reader: SnapshotReader,
    nodes: usize,
    modules: usize,
}

/// A read-side frontend over a fleet of fabrics: every fabric's routing
/// tables are published through an [`EpochPublisher`], and queries
/// address fabrics by dense id (`0..fabric_count`).
///
/// [`FleetFrontend::execute`] visits a batch's fabrics in ascending id
/// order, sources grouped within a fabric, pinning each fabric's
/// snapshot exactly once per batch. Answers are byte-identical across
/// the publisher's recompute strategies, since every strategy publishes
/// identical tables. The frontend also carries the daemon's shard map
/// ([`FleetFrontend::shard_of`]); execution never reads it.
#[derive(Debug, Clone)]
pub struct FleetFrontend {
    /// Indexed by fabric id; `None` marks a spec instance the builder
    /// rejected (queries against it answer `UnknownFabric`).
    fabrics: Vec<Option<FabricHandle>>,
    shards: usize,
    /// Records batch counters, per-type query counters and the
    /// sort/split + per-lane latency spans; the default no-op handle
    /// costs one relaxed load per record site.
    metrics: MetricsHandle,
}

impl FleetFrontend {
    /// An empty frontend whose [`FleetFrontend::shard_of`] map spreads
    /// fabrics over `shards` shards (clamped to ≥ 1); register fabrics
    /// with [`FleetFrontend::register`].
    #[must_use]
    pub fn new(shards: usize) -> Self {
        FleetFrontend {
            fabrics: Vec::new(),
            shards: shards.max(1),
            metrics: MetricsHandle::default(),
        }
    }

    /// Points this frontend's metrics (batch/query counters, sort/split
    /// spans, per-type latency histograms) at a registry.
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsHandle) -> Self {
        self.metrics = metrics;
        self
    }

    /// Builds a frontend from a fleet scenario: every spec instance is
    /// sampled exactly as the fleet controller would (instance `i`
    /// depends only on `(spec.seed, i)`), built over one recycled
    /// [`SimPool`], stepped `warm_cycles` cycles so its tables reflect a
    /// warmed, draining fabric, and its final published snapshot becomes
    /// fabric `i` of the frontend. Rejected instances keep their id and
    /// answer [`QueryResult::UnknownFabric`](crate::QueryResult::UnknownFabric).
    ///
    /// # Errors
    ///
    /// [`ScenarioSpec::check`]'s description when the spec itself is
    /// structurally invalid.
    pub fn from_spec(spec: &ScenarioSpec, warm_cycles: u64) -> Result<FleetFrontend, String> {
        spec.check()?;
        let mut frontend = FleetFrontend::new(1);
        let mut pool = SimPool::new();
        for index in 0..spec.instances {
            match spec.sample(index).build_pooled(&mut pool) {
                Ok(mut sim) => {
                    let (publisher, reader) = EpochPublisher::new();
                    sim.set_table_observer(Box::new(publisher));
                    for _ in 0..warm_cycles {
                        if sim.step().is_some() {
                            break;
                        }
                    }
                    let nodes = sim.routing().node_count();
                    let modules = sim.routing().module_count();
                    sim.recycle_into(&mut pool);
                    frontend.fabrics.push(Some(FabricHandle { reader, nodes, modules }));
                }
                Err(_) => frontend.fabrics.push(None),
            }
        }
        Ok(frontend)
    }

    /// Registers a fabric served by `reader` (e.g. a live simulation's
    /// publisher) and returns its fabric id.
    pub fn register(&mut self, reader: SnapshotReader, nodes: usize, modules: usize) -> u32 {
        let id = self.fabrics.len() as u32;
        self.fabrics.push(Some(FabricHandle { reader, nodes, modules }));
        id
    }

    /// Registers a rejected-instance placeholder: the id stays dense
    /// (builders that sample a spec instance-by-instance keep instance
    /// `i` at fabric id `i`), and every query against it answers
    /// [`QueryResult::UnknownFabric`](crate::QueryResult::UnknownFabric)
    /// — exactly what [`FleetFrontend::from_spec`] records for instances
    /// the `SimConfigBuilder` rejects.
    pub fn register_rejected(&mut self) -> u32 {
        let id = self.fabrics.len() as u32;
        self.fabrics.push(None);
        id
    }

    /// Number of fabric ids (rejected placeholders included).
    #[must_use]
    pub fn fabric_count(&self) -> usize {
        self.fabrics.len()
    }

    /// The shard owning `fabric`: `fabric % shards`. The daemon routes
    /// a fabric's ingests to, and places its write side on, this shard.
    #[must_use]
    pub fn shard_of(&self, fabric: u32) -> u32 {
        (fabric as usize % self.shards) as u32
    }

    /// Node count of a served fabric (`None` for unknown/rejected ids).
    #[must_use]
    pub fn node_count(&self, fabric: u32) -> Option<usize> {
        self.fabrics.get(fabric as usize)?.as_ref().map(|h| h.nodes)
    }

    /// Module count of a served fabric (`None` for unknown/rejected ids).
    #[must_use]
    pub fn module_count(&self, fabric: u32) -> Option<usize> {
        self.fabrics.get(fabric as usize)?.as_ref().map(|h| h.modules)
    }

    /// The current epoch of a served fabric's tables.
    #[must_use]
    pub fn epoch(&self, fabric: u32) -> Option<u64> {
        self.fabrics.get(fabric as usize)?.as_ref().map(|h| h.reader.epoch())
    }

    /// Pins a served fabric's current snapshot (`None` for
    /// unknown/rejected ids) — the hook differential harnesses use to
    /// mirror the exact tables a batch would be answered from.
    #[must_use]
    pub fn pin(&self, fabric: u32) -> Option<PinnedSnapshot> {
        self.fabrics.get(fabric as usize)?.as_ref().map(|h| h.reader.pin())
    }

    /// Executes a batch: sorts it by `(fabric, source)`, pins each
    /// addressed fabric's snapshot exactly once, runs each fabric
    /// group's per-type lanes over the snapshot planes, and writes
    /// every answer into `out` at the query's submission index. All
    /// buffers (`batch`'s permutation and lanes, `out`'s results and
    /// path arena) are reused — steady-state batches perform no heap
    /// allocation.
    ///
    /// Within one batch, all queries against the same fabric are
    /// answered from **one** snapshot (the pin), so a batch can never
    /// observe two different epochs of the same fabric.
    pub fn execute(&self, batch: &mut QueryBatch, out: &mut QueryOutput) {
        self.metrics.inc(CounterId::ServeBatches);
        {
            let _sort_span = self.metrics.span(SpanId::ServeBatchSort);
            batch.sort_for_execution();
        }
        out.reset(batch.len());
        let (order, queries, lanes) = batch.exec_parts();
        let (results, arena) = out.parts_mut();
        let mut start = 0usize;
        while start < order.len() {
            let fabric = queries[order[start] as usize].fabric();
            let mut end = start + 1;
            while end < order.len() && queries[order[end] as usize].fabric() == fabric {
                end += 1;
            }
            let pinned = self.pin(fabric);
            let group = &order[start..end];
            execute_group(&self.metrics, pinned.as_deref(), group, queries, lanes, arena, results);
            start = end;
        }
    }

    /// Alias of [`FleetFrontend::execute`], kept because `perfbench/`
    /// still calls it.
    #[doc(hidden)]
    pub fn execute_pinned(&self, batch: &mut QueryBatch, out: &mut QueryOutput) {
        self.execute(batch, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Query, QueryResult};
    use etx_graph::NodeId;

    #[test]
    fn from_spec_serves_every_instance() {
        let spec = ScenarioSpec { instances: 4, ..ScenarioSpec::smoke() };
        let frontend = FleetFrontend::from_spec(&spec, 2_000).expect("smoke spec is valid");
        assert_eq!(frontend.fabric_count(), 4);
        let mut batch = QueryBatch::new();
        for f in 0..4u32 {
            if let Some(nodes) = frontend.node_count(f) {
                assert!(nodes >= 9, "smoke fabrics are at least 3x3");
                assert!(frontend.module_count(f).unwrap() >= 2);
                assert!(frontend.epoch(f).unwrap() >= 1, "warm fabric published at least once");
            }
            batch.push(Query::NextHop { fabric: f, source: NodeId::new(0), module: 0 });
        }
        // Unknown fabric id exercises the placeholder path.
        batch.push(Query::NextHop { fabric: 99, source: NodeId::new(0), module: 0 });

        let mut out = QueryOutput::new();
        frontend.execute(&mut batch, &mut out);
        for (query, result) in batch.queries().iter().zip(out.results()) {
            let served = frontend.node_count(query.fabric()).is_some();
            assert_eq!(matches!(result, QueryResult::UnknownFabric), !served, "{query:?}");
        }
    }

    #[test]
    fn shard_of_is_stable_and_bounded() {
        let frontend = FleetFrontend::new(5);
        for f in 0..100u32 {
            let s = frontend.shard_of(f);
            assert!(s < 5);
            assert_eq!(s, frontend.shard_of(f));
            assert_eq!(s, f % 5);
        }
    }
}
