//! The fleet-wide metrics contract, property-tested: the deterministic
//! metrics export (`MetricsSnapshot::to_json`, stable counters only) is
//! **byte-identical** across shard counts (1/2/3/7 forced workers) — the
//! same invariance the fleet aggregate already guarantees, extended to
//! the observability layer.

use etx_fleet::{FleetController, ScenarioSpec, ShardPlan};
use etx_metrics::CounterId;
use proptest::prelude::*;

fn fast_spec(seed: u64, instances: usize) -> ScenarioSpec {
    ScenarioSpec {
        seed,
        instances,
        // Small fabrics and small batteries keep a property case cheap.
        mesh_side: (3, 4),
        battery_pj: (2_500.0, 4_500.0),
        max_cycles: 200_000,
        ..ScenarioSpec::smoke()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shard count never changes the deterministic metrics export:
    /// per-shard registries merge with exact integer arithmetic.
    #[test]
    fn metrics_export_is_shard_invariant(
        seed in 0u64..10_000,
        instances in 1usize..6,
    ) {
        let baseline = FleetController::new()
            .with_shards(ShardPlan::Fixed(1))
            .run(&fast_spec(seed, instances))
            .unwrap();
        let json = baseline.metrics.to_json();
        for shards in [2usize, 3, 7] {
            let run = FleetController::new()
                .with_shards(ShardPlan::Fixed(shards))
                .run(&fast_spec(seed, instances))
                .unwrap();
            prop_assert_eq!(&json, &run.metrics.to_json(), "shards={}", shards);
        }
        // The counters agree with the aggregate's own accounting.
        prop_assert_eq!(
            baseline.metrics.counter(CounterId::FleetInstances),
            baseline.aggregate.instances
        );
        prop_assert_eq!(
            u128::from(baseline.metrics.counter(CounterId::SimJobsCompleted)),
            baseline.aggregate.jobs_completed_total
        );
    }
}
