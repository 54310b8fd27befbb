//! The sharded [`FleetController`]: thousands of independent fabrics,
//! bounded memory, deterministic aggregates.
//!
//! Execution model:
//!
//! 1. The instance index space `0..spec.instances` is split into
//!    contiguous shards ([`etx_par::chunk_ranges`]).
//! 2. Shards run concurrently via [`etx_par::par_map`] (scoped threads;
//!    serial on one core). **Within** a shard, instances run
//!    sequentially over one [`SimPool`], so a shard's steady-state
//!    memory is one simulation plus one recycled buffer set — never
//!    `O(instances)`.
//! 3. Each finished [`SimReport`] folds into the shard's
//!    [`FleetAggregate`] immediately and is dropped; shard aggregates
//!    merge at the end.
//!
//! Determinism does not depend on the shard count: instance `i` samples
//! its scenario from `(seed, i)` alone, and aggregate folding/merging is
//! exact integer arithmetic, so `shards = 1` and `shards = 64` produce
//! byte-identical results ([`FleetController::run`] is pure).

use std::sync::Arc;

use etx_metrics::{CounterId, MetricsHandle, MetricsSnapshot, Registry};
use etx_sim::SimPool;

use crate::aggregate::FleetAggregate;
use crate::scenario::ScenarioSpec;

/// How a fleet run should be sharded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPlan {
    /// One shard per available core, floored at 32 instances per shard
    /// so spawn cost stays amortized.
    #[default]
    Auto,
    /// Exactly this many shards (clamped to the instance count).
    Fixed(usize),
}

impl ShardPlan {
    /// Resolves to a concrete shard count for `instances`.
    #[must_use]
    pub fn resolve(self, instances: usize) -> usize {
        match self {
            ShardPlan::Auto => etx_par::chunk_count(instances, 32),
            ShardPlan::Fixed(n) => n.clamp(1, instances.max(1)),
        }
    }
}

/// Result of a fleet run: the merged aggregate plus run metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// Spec name (for report headers).
    pub spec_name: String,
    /// Root seed the expansion used.
    pub seed: u64,
    /// Shards actually used.
    pub shards: usize,
    /// The merged, order-independent aggregate.
    pub aggregate: FleetAggregate,
    /// Fleet-wide metrics: every shard records into its own
    /// counters-only registry and the per-shard snapshots merge with
    /// exact integer arithmetic, so — like the aggregate — the stable
    /// counters are byte-identical whatever the shard count.
    pub metrics: MetricsSnapshot,
}

/// Runs [`ScenarioSpec`]s to completion across shards.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetController {
    plan: ShardPlan,
}

impl FleetController {
    /// A controller with the default (auto) shard plan.
    #[must_use]
    pub fn new() -> Self {
        FleetController::default()
    }

    /// Overrides the shard plan.
    #[must_use]
    pub fn with_shards(mut self, plan: ShardPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Expands `spec` into its instances, runs every one to completion
    /// and returns the merged fleet aggregate.
    ///
    /// # Errors
    ///
    /// [`ScenarioSpec::check`]'s description when the spec itself is
    /// structurally invalid (empty ranges, zero instances, …) — sampled
    /// *instances* that fail builder validation are not errors; they are
    /// counted in [`FleetAggregate::rejected`].
    pub fn run(&self, spec: &ScenarioSpec) -> Result<FleetResult, String> {
        spec.check()?;
        let shards = self.plan.resolve(spec.instances);
        let ranges = etx_par::chunk_ranges(spec.instances, shards);
        // Fan shards out; each range is processed sequentially over its
        // own reuse pool. `min_per_thread = 1`: ranges are already
        // core-sized chunks.
        let shard_results = etx_par::par_map(&ranges, 1, |range| {
            let mut pool = SimPool::new();
            let mut agg = FleetAggregate::new();
            // One counters-only registry per shard: instances within a
            // shard record into it lock-free, and the shard boundary
            // never shows because snapshot merging is exact addition.
            let metrics = MetricsHandle::new(Arc::new(Registry::counters_only()));
            for index in range.clone() {
                match spec.sample(index).build_pooled(&mut pool) {
                    Ok(mut sim) => {
                        metrics.inc(CounterId::FleetInstances);
                        sim.set_metrics(metrics.clone());
                        agg.observe(&sim.run_pooled(&mut pool));
                    }
                    Err(_) => agg.observe_rejection(),
                }
            }
            (agg, metrics.snapshot())
        });
        let mut aggregate = FleetAggregate::new();
        let mut metrics = MetricsSnapshot::new();
        for (shard_agg, shard_metrics) in &shard_results {
            aggregate.merge(shard_agg);
            metrics.merge(shard_metrics);
        }
        Ok(FleetResult {
            spec_name: spec.name.clone(),
            seed: spec.seed,
            shards,
            aggregate,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(instances: usize) -> ScenarioSpec {
        ScenarioSpec { instances, ..ScenarioSpec::smoke() }
    }

    #[test]
    fn shard_plan_resolution() {
        assert_eq!(ShardPlan::Fixed(4).resolve(100), 4);
        assert_eq!(ShardPlan::Fixed(200).resolve(100), 100);
        assert_eq!(ShardPlan::Fixed(0).resolve(100), 1);
        assert!(ShardPlan::Auto.resolve(10_000) >= 1);
    }

    #[test]
    fn fleet_run_covers_all_instances() {
        let spec = tiny_spec(6);
        let result = FleetController::new().run(&spec).expect("smoke spec is valid");
        assert_eq!(result.aggregate.instances + result.aggregate.rejected, 6);
        assert_eq!(result.spec_name, "smoke");
        assert!(result.aggregate.lifetime.count() > 0, "no instance produced a lifetime");
    }

    #[test]
    fn invalid_spec_is_an_error_not_a_panic() {
        let spec = ScenarioSpec { mesh_side: (0, 0), ..ScenarioSpec::smoke() };
        let err = FleetController::new().run(&spec).unwrap_err();
        assert!(err.contains("mesh_side"), "unexpected error: {err}");
    }

    #[test]
    fn strategy_changes_cost_profile_not_results() {
        use etx_sim::RecomputeStrategy;
        // 8x8 fabrics so the Dijkstra backend (and with it the repair
        // pipeline) engages; strategies must agree on every result
        // distribution and differ only in the recompute tallies.
        let spec = |strategy| ScenarioSpec {
            instances: 4,
            mesh_side: (8, 8),
            strategy,
            ..ScenarioSpec::smoke()
        };
        let full =
            FleetController::new().run(&spec(RecomputeStrategy::Full)).expect("spec is valid");
        let repair =
            FleetController::new().run(&spec(RecomputeStrategy::Auto)).expect("spec is valid");
        assert_eq!(full.aggregate.lifetime, repair.aggregate.lifetime);
        assert_eq!(full.aggregate.jobs, repair.aggregate.jobs);
        assert_eq!(full.aggregate.overhead, repair.aggregate.overhead);
        assert_eq!(full.aggregate.deaths, repair.aggregate.deaths);
        assert_eq!(full.aggregate.jobs_completed_total, repair.aggregate.jobs_completed_total);
        assert_eq!(full.aggregate.recompute.repair, 0);
        assert!(repair.aggregate.recompute.repair > 0, "{}", repair.aggregate);
        assert!(repair.aggregate.recompute.repaired_sources > 0, "{}", repair.aggregate);
    }

    #[test]
    fn shard_count_does_not_change_aggregates() {
        let spec = tiny_spec(10);
        let one = FleetController::new().with_shards(ShardPlan::Fixed(1)).run(&spec).unwrap();
        let many = FleetController::new().with_shards(ShardPlan::Fixed(5)).run(&spec).unwrap();
        assert_eq!(one.aggregate, many.aggregate);
        assert_eq!(one.aggregate.to_json(), many.aggregate.to_json());
        assert_eq!(one.shards, 1);
        assert_eq!(many.shards, 5);
        // The metrics snapshot obeys the same contract: the stable
        // export is byte-identical whatever the shard count.
        assert_eq!(one.metrics.to_json(), many.metrics.to_json());
        assert_eq!(one.metrics.counter(CounterId::FleetInstances), 10);
        assert!(one.metrics.counter(CounterId::SimFrames) > 0);
    }
}
