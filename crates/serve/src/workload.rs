//! Workload generation: SplitMix64-driven query streams with a
//! configurable point/path/cost mix, sampled against any
//! [`FabricDirectory`] — the in-process [`FleetFrontend`] or a daemon
//! connection — so both sides of a socket see the same stream.

use etx_fleet::FleetRng;
use etx_graph::NodeId;

use crate::frontend::FleetFrontend;
use crate::query::{Query, QueryBatch};

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
        let mut generator = WorkloadGen::new(WorkloadSpec {
            batch: 128,
            next_hop_weight: 1,
            path_weight: 0,
            cost_weight: 0,
            ..WorkloadSpec::default()
        });
        let mut batch = QueryBatch::new();
        generator.fill(&frontend, &mut batch);
        assert!(batch.queries().iter().all(|q| matches!(q, Query::NextHop { .. })));
    }
}
