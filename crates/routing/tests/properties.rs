//! Property tests for the routing kernel's fast paths: scratch reuse,
//! delta-aware recompute, strategy equivalence, and backend equivalence.

use etx_graph::{topology::Mesh2D, NodeId, PathBackend};
use etx_routing::{
    Algorithm, RecomputeStrategy, Router, RoutingScratch, RoutingState, SystemReport,
};
use etx_units::Length;
use proptest::prelude::*;

fn mesh_graph(side: usize) -> etx_graph::DiGraph {
    Mesh2D::square(side, Length::from_centimetres(2.05)).to_graph()
}

/// Three modules striped over `k` nodes.
fn module_stripes(k: usize) -> Vec<Vec<NodeId>> {
    (0..3).map(|m| (m..k).step_by(3).map(NodeId::new).collect()).collect()
}

fn report_from(levels: &[u32], dead: &[bool], deadlocked: &[bool], k: usize) -> SystemReport {
    let mut report = SystemReport::fresh(k, 16);
    for i in 0..k {
        let node = NodeId::new(i);
        report.set_battery_level(node, levels[i % levels.len()]);
        report.set_deadlocked(node, deadlocked[i % deadlocked.len()]);
        if dead[i % dead.len()] {
            report.set_dead(node);
        }
    }
    report
}

/// One random mutation step applied to a report: drains, deaths, deadlock
/// toggles, and revivals (dead→alive transitions — weight *decreases* the
/// repair pipeline now patches in place instead of re-running).
fn apply_diff(report: &mut SystemReport, ops: &[(u8, usize, u32)]) {
    let k = report.node_count();
    for &(kind, node, value) in ops {
        let node = NodeId::new(node % k);
        match kind % 5 {
            0 => report.set_battery_level(node, value % 16),
            1 => report.set_dead(node),
            2 if report.is_alive(node) => report.set_deadlocked(node, value % 2 == 0),
            3 if !report.is_alive(node) => report.revive(node, value % 16),
            _ => {} // no-op step: recompute with an unchanged report
        }
    }
}

/// The nodes whose battery bucket or liveness differs between two
/// reports — the dirty list an engine frame hands the router.
fn changed_nodes(old: &SystemReport, new: &SystemReport) -> Vec<NodeId> {
    (0..new.node_count())
        .map(NodeId::new)
        .filter(|&n| {
            new.battery_level(n) != old.battery_level(n) || new.is_alive(n) != old.is_alive(n)
        })
        .collect()
}

/// The minimal dirty list a report diff yields: the nodes whose phase-1
/// weights can differ between two reports — liveness always, the
/// battery bucket only under EAR (SDR weights ignore batteries).
fn report_diff(algorithm: Algorithm, old: &SystemReport, new: &SystemReport) -> Vec<NodeId> {
    (0..new.node_count())
        .map(NodeId::new)
        .filter(|&n| {
            old.is_alive(n) != new.is_alive(n)
                || (algorithm == Algorithm::Ear && old.battery_level(n) != new.battery_level(n))
        })
        .collect()
}

/// Regression: a different graph with identical node/edge *counts* (only
/// edge lengths differ) must not let the repair path reuse stale cached
/// weights — the scratch fingerprints the full edge list.
#[test]
fn swapping_same_shape_graph_invalidates_scratch_cache() {
    let router = Router::new(Algorithm::Ear).with_backend(PathBackend::DijkstraAllPairs);
    let graph_a = Mesh2D::square(4, Length::from_centimetres(2.0)).to_graph();
    let graph_b = Mesh2D::square(4, Length::from_centimetres(3.0)).to_graph();
    let k = graph_a.node_count();
    let modules = module_stripes(k);
    let report = SystemReport::fresh(k, 16);

    let mut scratch = RoutingScratch::new();
    let mut state = RoutingState::empty();
    router.recompute_dirty_into(&graph_a, &modules, &report, &[], &mut scratch, &mut state);

    // Same report (empty diff), different graph of identical shape: a
    // count-only fingerprint would skip phase 2 and keep graph A's
    // distances.
    let dirty = report_diff(Algorithm::Ear, &report, &report);
    router.recompute_dirty_into(&graph_b, &modules, &report, &dirty, &mut scratch, &mut state);
    let reference = router.compute(&graph_b, &modules, &report, None);
    assert_eq!(state.paths().distances(), reference.paths().distances());
    // The swap must run a full phase 2 (a same-graph call would repair).
    let stats = scratch.stats();
    assert_eq!(stats.full_recomputes, 2, "the swap must recompute in full: {stats:?}");
    assert_eq!(stats.repair_recomputes, 0, "repair must not engage across graphs: {stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The in-place start-up call (an empty dirty list on a freshly
    /// built graph) with one long-lived scratch/state pair — resized
    /// across differing mesh sizes, both algorithms and all backends —
    /// always equals a fresh `compute`.
    #[test]
    fn compute_into_with_reused_scratch_equals_fresh_compute(
        sides in proptest::collection::vec(2usize..9, 1..5),
        algorithm in prop_oneof![Just(Algorithm::Ear), Just(Algorithm::Sdr)],
        backend in prop_oneof![
            Just(PathBackend::FloydWarshall),
            Just(PathBackend::DijkstraAllPairs),
            Just(PathBackend::Auto),
        ],
        levels in proptest::collection::vec(0u32..16, 8),
        dead in proptest::collection::vec(any::<bool>(), 5),
    ) {
        let router = Router::new(algorithm).with_backend(backend);
        let mut scratch = RoutingScratch::new();
        let mut state = RoutingState::empty();
        for &side in &sides {
            let graph = mesh_graph(side);
            let k = graph.node_count();
            let modules = module_stripes(k);
            let report = report_from(&levels, &dead, &[false], k);
            router.recompute_dirty_into(&graph, &modules, &report, &[], &mut scratch, &mut state);
            let fresh = router.compute(&graph, &modules, &report, None);
            prop_assert_eq!(&state, &fresh, "side {} backend {:?}", side, backend);
        }
    }

    /// Delta-aware recompute over a whole chain of random report diffs
    /// stays exactly equal (distances, successors, and tables) to a full
    /// recompute at every step.
    #[test]
    fn delta_recompute_equals_full_recompute(
        side in 2usize..8,
        algorithm in prop_oneof![Just(Algorithm::Ear), Just(Algorithm::Sdr)],
        levels in proptest::collection::vec(0u32..16, 8),
        dead in proptest::collection::vec(any::<bool>(), 5),
        diffs in proptest::collection::vec(
            proptest::collection::vec((0u8..5, 0usize..64, 0u32..32), 0..4),
            1..6
        ),
    ) {
        // Explicit Dijkstra backend so the repair path engages at every
        // mesh size, not just past the Auto crossover.
        let router = Router::new(algorithm).with_backend(PathBackend::DijkstraAllPairs);
        let graph = mesh_graph(side);
        let k = graph.node_count();
        let modules = module_stripes(k);

        let mut report = report_from(&levels, &dead, &[false], k);
        let mut scratch = RoutingScratch::new();
        let mut state = RoutingState::empty();
        router.recompute_dirty_into(&graph, &modules, &report, &[], &mut scratch, &mut state);

        for ops in &diffs {
            let old_report = report.clone();
            let previous = state.clone();
            apply_diff(&mut report, ops);
            let dirty = report_diff(algorithm, &old_report, &report);
            router.recompute_dirty_into(&graph, &modules, &report, &dirty, &mut scratch, &mut state);
            // Reference: full recompute with the previous state supplied
            // for deadlock-port avoidance, exactly as `compute` would.
            let reference = router.compute(&graph, &modules, &report, Some(&previous));
            prop_assert_eq!(&state, &reference, "side {} after ops {:?}", side, ops);
        }
    }

    /// The `Auto` strategy, fed the engine's dirty list, lands in
    /// **identical** routing state — distances, chosen successors *and*
    /// the phase-3 table — over chains of random drain / churn /
    /// deadlock-raise-and-clear mutations. The reference is a
    /// `Full`-strategy recompute of each frame. The dirty list repeats
    /// some of its nodes, as a daemon ingest naming one node twice hands
    /// it to the router.
    #[test]
    fn strategies_equal_full_over_drain_and_churn(
        side in 2usize..8,
        algorithm in prop_oneof![Just(Algorithm::Sdr), Just(Algorithm::Ear)],
        levels in proptest::collection::vec(0u32..16, 8),
        diffs in proptest::collection::vec(
            proptest::collection::vec((0u8..5, 0usize..64, 0u32..32), 0..4),
            1..6
        ),
        repeats in proptest::collection::vec(0usize..64, 0..4),
    ) {
        // Explicit Dijkstra backend so the fast paths engage at every
        // mesh size, not just past the Auto crossover.
        let router = Router::new(algorithm).with_backend(PathBackend::DijkstraAllPairs);
        let reference_router = Router::new(algorithm)
            .with_backend(PathBackend::DijkstraAllPairs)
            .with_strategy(RecomputeStrategy::Full);
        let graph = mesh_graph(side);
        let k = graph.node_count();
        let modules = module_stripes(k);

        let mut report = report_from(&levels, &[false], &[false], k);
        let mut scratch = RoutingScratch::new();
        let mut state = RoutingState::empty();
        router.recompute_dirty_into(&graph, &modules, &report, &[], &mut scratch, &mut state);

        for ops in &diffs {
            let old_report = report.clone();
            let previous = state.clone();
            apply_diff(&mut report, ops);
            let mut dirty = changed_nodes(&old_report, &report);
            for &r in &repeats {
                if !dirty.is_empty() {
                    let node = dirty[r % dirty.len()];
                    dirty.insert(r % (dirty.len() + 1), node);
                }
            }
            router.recompute_dirty_into(&graph, &modules, &report, &dirty, &mut scratch, &mut state);
            let reference = reference_router.compute(&graph, &modules, &report, Some(&previous));
            prop_assert_eq!(&state, &reference, "side {} after ops {:?}", side, ops);
        }
        let stats = scratch.stats();
        prop_assert_eq!(
            stats.full_recomputes + stats.repair_recomputes,
            1 + diffs.len() as u64,
            "every frame must be counted exactly once"
        );
    }

    /// The incremental repair stays exact when consecutive reports are
    /// built *independently* — including disconnect/reconnect
    /// transitions (nodes flipping dead→alive revive edges, weight
    /// decreases the repair's improvement pass patches in place) and
    /// mass changes that trip the combined-frontier fallback — fed
    /// through the engine's dirty-list entry point.
    #[test]
    fn repair_equals_full_across_disconnect_reconnect(
        side in 2usize..8,
        algorithm in prop_oneof![Just(Algorithm::Sdr), Just(Algorithm::Ear)],
        frames in proptest::collection::vec(
            (proptest::collection::vec(0u32..16, 8), proptest::collection::vec(any::<bool>(), 5)),
            2..6
        ),
    ) {
        let router = Router::new(algorithm).with_backend(PathBackend::DijkstraAllPairs);
        let graph = mesh_graph(side);
        let k = graph.node_count();
        let modules = module_stripes(k);

        let mut scratch = RoutingScratch::new();
        let mut state = RoutingState::empty();
        let mut report = report_from(&frames[0].0, &frames[0].1, &[false], k);
        router.recompute_dirty_into(&graph, &modules, &report, &[], &mut scratch, &mut state);

        for (levels, dead) in &frames[1..] {
            let old_report = report;
            let previous = state.clone();
            report = report_from(levels, dead, &[false], k);
            let dirty = changed_nodes(&old_report, &report);
            router.recompute_dirty_into(&graph, &modules, &report, &dirty, &mut scratch, &mut state);
            let reference = router.compute(&graph, &modules, &report, Some(&previous));
            prop_assert_eq!(&state, &reference, "side {} frame levels {:?}", side, levels);
        }
    }

    /// Decrease-heavy chains — revive the dead at the ambient battery
    /// level (every restored edge exactly ties the uniform mesh around
    /// it), trickle-charge weak nodes, then disconnect again — are
    /// repaired **in place** on warm trees: bit-exact vs a `Full`
    /// reference (distances AND successors), with the decrease half
    /// engaged and zero per-source fallback re-runs. (Recharging a node
    /// that *carries* traffic strictly improves its whole shortest-path
    /// subtree, a legitimately large frontier the gate may decline —
    /// that regime rides through `strategies_equal_full_over_drain_and_churn`;
    /// this chain pins the regimes where repair must never fall back.)
    #[test]
    fn decrease_chains_repair_in_place_bit_exact(
        side in 5usize..8,
        algorithm in prop_oneof![Just(Algorithm::Ear), Just(Algorithm::Sdr)],
        victims in proptest::collection::vec(0usize..64, 1..3),
        pulses in proptest::collection::vec(0usize..64, 1..4),
    ) {
        let router = Router::new(algorithm).with_backend(PathBackend::DijkstraAllPairs);
        let reference_router = Router::new(algorithm)
            .with_backend(PathBackend::DijkstraAllPairs)
            .with_strategy(RecomputeStrategy::Full);
        let graph = mesh_graph(side);
        let k = graph.node_count();
        let modules = module_stripes(k);
        let victims: Vec<usize> = victims.iter().map(|&v| v % k).collect();
        // Trickle targets: weak cells (level 1 in a level-7 fleet) carry
        // no through-traffic, so a +1 pulse improves only their own
        // distance — the harvesting regime this PR exists for.
        let pulses: Vec<usize> =
            pulses.iter().map(|&p| p % k).filter(|p| !victims.contains(p)).collect();

        let mut report = SystemReport::fresh(k, 16);
        for i in 0..k {
            report.set_battery_level(NodeId::new(i), 7);
        }
        for &p in &pulses {
            report.set_battery_level(NodeId::new(p), 1);
        }
        for &v in &victims {
            report.set_dead(NodeId::new(v));
        }
        let mut scratch = RoutingScratch::new();
        let mut state = RoutingState::empty();
        router.recompute_dirty_into(&graph, &modules, &report, &[], &mut scratch, &mut state);

        // Warmup: the first delta frame after a full recompute re-runs
        // every source once to record trees, and the change must be
        // structural so SDR (whose weights ignore batteries) sees a
        // non-empty delta stream. Blink one bystander dead and back so
        // the chain below runs entirely on warm trees in both
        // algorithms, from the exact pre-blink report.
        let warm = (0..k).find(|i| !victims.contains(i) && !pulses.contains(i)).unwrap();
        report.set_dead(NodeId::new(warm));
        router.recompute_dirty_into(
            &graph,
            &modules,
            &report,
            &[NodeId::new(warm)],
            &mut scratch,
            &mut state,
        );
        report.revive(NodeId::new(warm), 7);
        router.recompute_dirty_into(
            &graph,
            &modules,
            &report,
            &[NodeId::new(warm)],
            &mut scratch,
            &mut state,
        );
        let baseline = scratch.stats();

        // Frame 0: revive every victim at the ambient level (exact ties).
        // Frames 1..: one +1 trickle pulse per frame (strict decreases).
        // Last frame: disconnect the first victim again (pure increase).
        let mut frames: Vec<Vec<(usize, Option<u32>)>> = Vec::new();
        frames.push(victims.iter().map(|&v| (v, Some(7))).collect());
        for &p in &pulses {
            frames.push(vec![(p, Some(2))]);
        }
        frames.push(vec![(victims[0], None)]);

        let mut decreases_after_revival = 0;
        let mut fallbacks_after_revival = 0;
        let mut fallbacks_before_disconnect = 0;
        for (fi, frame) in frames.iter().enumerate() {
            let old_report = report.clone();
            let previous = state.clone();
            for &(node, level) in frame {
                let node = NodeId::new(node);
                match level {
                    Some(level) if report.is_alive(node) => report.set_battery_level(node, level),
                    Some(level) => report.revive(node, level),
                    None => report.set_dead(node),
                }
            }
            let dirty = changed_nodes(&old_report, &report);
            router.recompute_dirty_into(&graph, &modules, &report, &dirty, &mut scratch, &mut state);
            let reference = reference_router.compute(&graph, &modules, &report, Some(&previous));
            prop_assert_eq!(&state, &reference, "frame {} of chain on side {}", fi, side);
            if fi == 0 {
                decreases_after_revival =
                    scratch.stats().decrease_repairs - baseline.decrease_repairs;
                fallbacks_after_revival = scratch.stats().fallback_sources;
                // Revival may re-run a *few* sources: the revived source
                // itself resettles its entire row, and a victim whose
                // death forced traffic through an expensive weak cell
                // reroutes a whole region on its return — in both cases
                // the frontier gate's decline is the cheap call. Repair
                // in place must still be the common case.
                let repaired_delta =
                    scratch.stats().repaired_sources - baseline.repaired_sources;
                prop_assert!(
                    repaired_delta > fallbacks_after_revival - baseline.fallback_sources,
                    "revival mostly fell back instead of repairing: {:?}",
                    scratch.stats()
                );
            }
            if fi + 2 == frames.len() {
                fallbacks_before_disconnect = scratch.stats().fallback_sources;
            }
        }
        let stats = scratch.stats();
        prop_assert!(decreases_after_revival > 0, "revival never engaged the decrease half");
        // Battery pulses only move EAR weights; under SDR the trickle
        // frames are no-op deltas by design.
        prop_assert!(
            algorithm == Algorithm::Sdr
                || pulses.is_empty()
                || stats.decrease_repairs - baseline.decrease_repairs > decreases_after_revival,
            "trickle pulses never engaged the decrease half: {:?}",
            stats
        );
        // Trickle frames must never fall back: warm trees absorb every
        // +1 pulse in place. (The final disconnect is the increase
        // half's regime — a newly dead source re-runs by design — so the
        // zero-fallback window closes just before it.)
        prop_assert_eq!(
            fallbacks_before_disconnect,
            fallbacks_after_revival,
            "warm trees must not fall back on trickle pulses: {:?}",
            stats
        );
        prop_assert_eq!(stats.repair_recomputes, (frames.len() + 2) as u64);
    }

    /// Delta recompute stays exact when consecutive reports are built
    /// *independently* — including nodes flipping dead→alive between
    /// frames — and under mass changes that trip the dirty-fraction
    /// fallback, fed the minimal report-diff dirty list
    /// (`repair_equals_full_across_disconnect_reconnect` feeds every
    /// battery or liveness change).
    #[test]
    fn delta_recompute_equals_full_across_independent_reports(
        side in 2usize..8,
        algorithm in prop_oneof![Just(Algorithm::Ear), Just(Algorithm::Sdr)],
        frames in proptest::collection::vec(
            (proptest::collection::vec(0u32..16, 8), proptest::collection::vec(any::<bool>(), 5)),
            2..6
        ),
    ) {
        let router = Router::new(algorithm).with_backend(PathBackend::DijkstraAllPairs);
        let graph = mesh_graph(side);
        let k = graph.node_count();
        let modules = module_stripes(k);

        let mut scratch = RoutingScratch::new();
        let mut state = RoutingState::empty();
        let mut report = report_from(&frames[0].0, &frames[0].1, &[false], k);
        router.recompute_dirty_into(&graph, &modules, &report, &[], &mut scratch, &mut state);

        for (levels, dead) in &frames[1..] {
            let old_report = report;
            let previous = state.clone();
            report = report_from(levels, dead, &[false], k);
            let dirty = report_diff(algorithm, &old_report, &report);
            router.recompute_dirty_into(&graph, &modules, &report, &dirty, &mut scratch, &mut state);
            let reference = router.compute(&graph, &modules, &report, Some(&previous));
            prop_assert_eq!(&state, &reference, "side {} frame levels {:?}", side, levels);
        }
    }

    /// `PathBackend::Auto` agrees with both explicit backends on
    /// distances for arbitrary battery/death patterns (successor
    /// tie-breaking may differ between algorithms, distances may not).
    #[test]
    fn auto_matches_both_backends_on_distances(
        side in 2usize..9,
        algorithm in prop_oneof![Just(Algorithm::Ear), Just(Algorithm::Sdr)],
        levels in proptest::collection::vec(0u32..16, 8),
        dead in proptest::collection::vec(any::<bool>(), 5),
    ) {
        let graph = mesh_graph(side);
        let k = graph.node_count();
        let modules = module_stripes(k);
        let report = report_from(&levels, &dead, &[false], k);
        let states: Vec<RoutingState> = [
            PathBackend::Auto,
            PathBackend::FloydWarshall,
            PathBackend::DijkstraAllPairs,
        ]
        .into_iter()
        .map(|backend| {
            Router::new(algorithm)
                .with_backend(backend)
                .compute(&graph, &modules, &report, None)
        })
        .collect();
        for i in 0..k {
            for j in 0..k {
                let (a, b) = (NodeId::new(i), NodeId::new(j));
                let auto = states[0].distance(a, b);
                let fw = states[1].distance(a, b);
                let dj = states[2].distance(a, b);
                match (auto, fw, dj) {
                    (Some(x), Some(y), Some(z)) => {
                        prop_assert!((x - y).abs() < 1e-9, "({i},{j}): auto={x} fw={y}");
                        prop_assert!((x - z).abs() < 1e-9, "({i},{j}): auto={x} dj={z}");
                    }
                    (None, None, None) => {}
                    other => {
                        return Err(TestCaseError::fail(format!(
                            "({i},{j}): reachability disagrees: {other:?}"
                        )));
                    }
                }
            }
        }
    }

    /// The deadlock-avoidance phase behaves identically whether the
    /// previous tables arrive via `compute(previous)` or in place via
    /// `recompute_dirty_into` — exercised with deadlock flags set so the
    /// blocked-port scan actually runs.
    #[test]
    fn deadlock_ports_survive_in_place_recompute(
        side in 3usize..7,
        stuck in proptest::collection::vec(any::<bool>(), 8),
    ) {
        let router = Router::new(Algorithm::Ear).with_backend(PathBackend::DijkstraAllPairs);
        let graph = mesh_graph(side);
        let k = graph.node_count();
        let modules = module_stripes(k);
        let fresh = SystemReport::fresh(k, 16);

        let mut scratch = RoutingScratch::new();
        let mut state = RoutingState::empty();
        router.recompute_dirty_into(&graph, &modules, &fresh, &[], &mut scratch, &mut state);
        let previous = state.clone();

        let mut flagged = fresh.clone();
        for i in 0..k {
            if stuck[i % stuck.len()] {
                flagged.set_deadlocked(NodeId::new(i), true);
            }
        }
        let dirty = report_diff(Algorithm::Ear, &fresh, &flagged);
        router.recompute_dirty_into(&graph, &modules, &flagged, &dirty, &mut scratch, &mut state);
        let reference = router.compute(&graph, &modules, &flagged, Some(&previous));
        prop_assert_eq!(&state, &reference);
    }
}
