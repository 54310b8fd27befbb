//! The snapshot-consistency property suite: a reader pinned to epoch E
//! sees tables **byte-identical** to the ones the Router produced at
//! epoch E — across chains of drain/churn/reconnect report mutations,
//! across concurrent republishes on top of held pins, and under every
//! [`RecomputeStrategy`] (whose in-place delta/repair recomputes and
//! delta-aware table rebuilds must never leak into a published epoch).

use etx_graph::{topology::Mesh2D, NodeId, PathBackend};
use etx_routing::{
    Algorithm, RecomputeStrategy, Router, RoutingScratch, RoutingState, SystemReport,
};
use etx_serve::{
    EpochPublisher, FleetFrontend, PinnedSnapshot, Query, QueryBatch, QueryOutput, QueryResult,
    TableSnapshot,
};
use etx_units::Length;
use proptest::prelude::*;

fn mesh_graph(side: usize) -> etx_graph::DiGraph {
    Mesh2D::square(side, Length::from_centimetres(2.05)).to_graph()
}

fn module_stripes(k: usize) -> Vec<Vec<NodeId>> {
    (0..3).map(|m| (m..k).step_by(3).map(NodeId::new).collect()).collect()
}

fn report_from(levels: &[u32], dead: &[bool], k: usize) -> SystemReport {
    let mut report = SystemReport::fresh(k, 16);
    for i in 0..k {
        let node = NodeId::new(i);
        report.set_battery_level(node, levels[i % levels.len()]);
        if dead[i % dead.len()] {
            report.set_dead(node);
        }
    }
    report
}

/// What the Router actually produced at one epoch, captured eagerly.
fn expectation(epoch: u64, state: &RoutingState) -> TableSnapshot {
    let mut expected = TableSnapshot::empty();
    expected.fill_from(epoch, state);
    expected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Pins taken at every epoch of a drain/churn/reconnect chain stay
    /// byte-identical to the Router's state at that epoch, no matter
    /// how many later epochs are published over them, for every
    /// recompute strategy and both algorithms.
    #[test]
    fn pinned_epochs_match_router_state(
        side in 3usize..7,
        algorithm in prop_oneof![Just(Algorithm::Ear), Just(Algorithm::Sdr)],
        strategy in prop_oneof![Just(RecomputeStrategy::Full), Just(RecomputeStrategy::Auto)],
        frames in proptest::collection::vec(
            (proptest::collection::vec(0u32..16, 8), proptest::collection::vec(any::<bool>(), 5)),
            2..7
        ),
    ) {
        // Explicit Dijkstra backend so the in-place fast paths engage at
        // every mesh size — they are exactly what must not corrupt a
        // previously published epoch.
        let router = Router::new(algorithm)
            .with_backend(PathBackend::DijkstraAllPairs)
            .with_strategy(strategy);
        let graph = mesh_graph(side);
        let k = graph.node_count();
        let modules = module_stripes(k);

        let (mut publisher, reader) = EpochPublisher::new();
        let mut scratch = RoutingScratch::new();
        let mut state = RoutingState::empty();
        let mut report = report_from(&frames[0].0, &frames[0].1, k);
        router.compute_into(&graph, &modules, &report, None, &mut scratch, &mut state);

        let mut pins: Vec<PinnedSnapshot> = Vec::new();
        let mut expected: Vec<TableSnapshot> = Vec::new();

        let epoch = publisher.publish(&state);
        prop_assert_eq!(epoch, 1);
        prop_assert_eq!(reader.epoch(), 1);
        pins.push(reader.pin());
        expected.push(expectation(1, &state));

        for (levels, dead) in &frames[1..] {
            let old_report = report;
            report = report_from(levels, dead, k);
            router.recompute_into(&graph, &modules, &old_report, &report, &mut scratch, &mut state);
            let epoch = publisher.publish(&state);
            prop_assert_eq!(reader.epoch(), epoch);
            pins.push(reader.pin());
            expected.push(expectation(epoch, &state));
        }

        // Every pin — including those taken many republishes ago — must
        // still be byte-identical to what the Router produced at its
        // epoch: same epoch number, same flat table, same distance and
        // successor matrices, same answers.
        for (pin, want) in pins.iter().zip(&expected) {
            prop_assert_eq!(pin.as_ref(), want, "epoch {} diverged", want.epoch());
            for n in 0..k {
                let node = NodeId::new(n);
                for m in 0..modules.len() {
                    prop_assert_eq!(pin.route(node, m), want.route(node, m));
                }
            }
        }
    }

    /// The published epoch is indistinguishable across recompute
    /// strategies: whatever phase-2/phase-3 shortcuts a strategy takes,
    /// the snapshot a reader pins equals the Full strategy's snapshot
    /// at the same frame (routing data compared; epochs match by
    /// construction).
    #[test]
    fn published_snapshots_agree_across_strategies(
        side in 3usize..6,
        algorithm in prop_oneof![Just(Algorithm::Ear), Just(Algorithm::Sdr)],
        frames in proptest::collection::vec(
            (proptest::collection::vec(0u32..16, 8), proptest::collection::vec(any::<bool>(), 5)),
            2..5
        ),
    ) {
        let strategies = [RecomputeStrategy::Full, RecomputeStrategy::Auto];
        let graph = mesh_graph(side);
        let k = graph.node_count();
        let modules = module_stripes(k);

        let mut per_strategy: Vec<Vec<PinnedSnapshot>> = Vec::new();
        for strategy in strategies {
            let router = Router::new(algorithm)
                .with_backend(PathBackend::DijkstraAllPairs)
                .with_strategy(strategy);
            let (mut publisher, reader) = EpochPublisher::new();
            let mut scratch = RoutingScratch::new();
            let mut state = RoutingState::empty();
            let mut report = report_from(&frames[0].0, &frames[0].1, k);
            router.compute_into(&graph, &modules, &report, None, &mut scratch, &mut state);
            let mut pins = Vec::new();
            publisher.publish(&state);
            pins.push(reader.pin());
            for (levels, dead) in &frames[1..] {
                let old_report = report;
                report = report_from(levels, dead, k);
                router.recompute_into(
                    &graph, &modules, &old_report, &report, &mut scratch, &mut state,
                );
                publisher.publish(&state);
                pins.push(reader.pin());
            }
            per_strategy.push(pins);
        }

        let reference = &per_strategy[0];
        for (pins, strategy) in per_strategy[1..].iter().zip(&strategies[1..]) {
            prop_assert_eq!(pins.len(), reference.len());
            for (pin, want) in pins.iter().zip(reference) {
                prop_assert_eq!(
                    pin.as_ref(), want.as_ref(),
                    "strategy {:?} diverged from Full at epoch {}", strategy, want.epoch()
                );
            }
        }
    }

    /// The lane-split batched execution answers exactly what the
    /// producing `RoutingState` answers: for every epoch of a
    /// drain/churn/reconnect chain (every recompute strategy, both
    /// algorithms), a frontend batch of all three query types resolves
    /// to the state's own `route`, `distance` and successor-walk answers.
    #[test]
    fn batched_queries_match_routing_state(
        side in 3usize..6,
        algorithm in prop_oneof![Just(Algorithm::Ear), Just(Algorithm::Sdr)],
        strategy in prop_oneof![Just(RecomputeStrategy::Full), Just(RecomputeStrategy::Auto)],
        frames in proptest::collection::vec(
            (proptest::collection::vec(0u32..16, 8), proptest::collection::vec(any::<bool>(), 5)),
            2..5
        ),
    ) {
        let router = Router::new(algorithm)
            .with_backend(PathBackend::DijkstraAllPairs)
            .with_strategy(strategy);
        let graph = mesh_graph(side);
        let k = graph.node_count();
        let modules = module_stripes(k);

        let (mut publisher, reader) = EpochPublisher::new();
        let mut frontend = FleetFrontend::new(1);
        let fabric = frontend.register(reader, k, modules.len());

        let mut scratch = RoutingScratch::new();
        let mut state = RoutingState::empty();
        let mut report = report_from(&frames[0].0, &frames[0].1, k);
        router.compute_into(&graph, &modules, &report, None, &mut scratch, &mut state);

        let mut batch = QueryBatch::new();
        let mut out = QueryOutput::new();
        let mut want_path = Vec::new();

        for (frame, (levels, dead)) in frames.iter().enumerate() {
            if frame > 0 {
                let old_report = report;
                report = report_from(levels, dead, k);
                router.recompute_into(
                    &graph, &modules, &old_report, &report, &mut scratch, &mut state,
                );
            }
            publisher.publish(&state);

            batch.clear();
            for s in 0..k {
                let source = NodeId::new(s);
                for m in 0..modules.len() as u32 {
                    batch.push(Query::NextHop { fabric, source, module: m });
                    batch.push(Query::Path { fabric, source, module: m });
                }
                batch.push(Query::Cost { fabric, source, target: NodeId::new((s * 7 + 1) % k) });
            }
            frontend.execute(&mut batch, &mut out);

            for (query, result) in batch.queries().iter().zip(out.results()) {
                match (*query, *result) {
                    (Query::NextHop { source, module, .. }, QueryResult::NextHop(entry)) => {
                        prop_assert_eq!(entry, state.route(source, module as usize).copied());
                    }
                    (Query::Cost { source, target, .. }, QueryResult::Cost(cost)) => {
                        prop_assert_eq!(cost, state.distance(source, target));
                    }
                    (Query::Path { source, module, .. }, result @ QueryResult::Path { entry, .. }) => {
                        let want = state.route(source, module as usize).copied();
                        prop_assert_eq!(entry, want);
                        // Reference walk through the state's successor
                        // data: first hop from the entry, remainder via
                        // next_hop.
                        want_path.clear();
                        if let Some(entry) = want {
                            want_path.push(source);
                            let mut cur = entry.next_hop;
                            while cur != entry.destination {
                                want_path.push(cur);
                                cur = state.next_hop(cur, entry.destination)
                                    .expect("published route walks to its destination");
                            }
                            if entry.destination != source {
                                want_path.push(entry.destination);
                            }
                        }
                        prop_assert_eq!(out.path_nodes(&result), want_path.as_slice());
                    }
                    (query, result) => {
                        prop_assert!(false, "mismatched kinds: {:?} -> {:?}", query, result);
                    }
                }
            }
        }
    }
}
