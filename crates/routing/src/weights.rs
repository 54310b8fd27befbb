//! Phase 1: edge weights for SDR and EAR — the paper's dense weight
//! matrix, the router's sparse adjacency list, and the edge-delta
//! extraction the staged recompute pipeline feeds on.

use etx_graph::{AdjacencyList, DiGraph, Matrix, NodeId, WeightDelta, INFINITE_DISTANCE};

use crate::{BatteryWeighting, SystemReport};

/// The phase-1 weight of one directed edge under either algorithm:
/// `weighting = None` is SDR (plain length), `Some` is EAR (length scaled
/// by the receiver's battery weight). Edges touching dead nodes are
/// unusable under both.
#[inline]
fn edge_weight(
    report: &SystemReport,
    weighting: Option<&BatteryWeighting>,
    from: NodeId,
    to: NodeId,
    length_cm: f64,
) -> f64 {
    if !report.is_alive(from) || !report.is_alive(to) {
        return INFINITE_DISTANCE;
    }
    match weighting {
        None => length_cm,
        Some(w) => w.weight(report.battery_level(to)) * length_cm,
    }
}

fn assert_report_covers(graph: &DiGraph, report: &SystemReport) {
    let n = graph.node_count();
    assert_eq!(
        n,
        report.node_count(),
        "report covers {} nodes but the graph has {n}",
        report.node_count()
    );
}

fn weights_into(
    graph: &DiGraph,
    report: &SystemReport,
    weighting: Option<&BatteryWeighting>,
    out: &mut Matrix<f64>,
) {
    assert_report_covers(graph, report);
    let n = graph.node_count();
    out.reset(n, n, INFINITE_DISTANCE);
    for i in 0..n {
        out[(i, i)] = 0.0;
    }
    for edge in graph.edges() {
        out[(edge.from, edge.to)] =
            edge_weight(report, weighting, edge.from, edge.to, edge.length.centimetres());
    }
}

/// Fills the router's phase-1 store: the adjacency list of the weights
/// [`weights_into`] would put in a dense matrix, straight from the
/// graph's sorted out-links in `O(K + E)`. Each list holds a node's
/// usable out-links (finite weight) in ascending neighbour id — the
/// lists [`AdjacencyList::rebuild`] extracts from the dense matrix. Each
/// weight is checked as it is pushed: a NaN or negative weight panics,
/// as the dense backends' matrix validation does.
///
/// # Panics
///
/// Panics if the report covers a different number of nodes than the
/// graph, or an edge weight is NaN or negative.
pub(crate) fn adjacency_into(
    graph: &DiGraph,
    report: &SystemReport,
    weighting: Option<&BatteryWeighting>,
    out: &mut AdjacencyList,
) {
    assert_report_covers(graph, report);
    out.clear_to(graph.node_count());
    for from in graph.nodes() {
        for (to, len) in graph.neighbors(from) {
            let w = edge_weight(report, weighting, from, to, len.centimetres());
            out.push_edge(from.index(), to.index(), w);
        }
    }
}

/// Extracts the edge-weight deltas the new report implies for `node`
/// *without* mutating the list: every in/out edge of `node` whose
/// weight under the new report differs from the cached value in
/// `adjacency` (infinite where the list has no entry) is appended to
/// `deltas` (stage 1 of the recompute pipeline), in `O(degree · log
/// degree)`.
///
/// The stream walks `node`'s in-links and out-links merged by ascending
/// neighbour id and, per neighbour, emits the in-edge before the
/// out-edge — the order of a dense scan over every other node (whose
/// non-edges are infinite on both sides and never differ). `dirty`
/// marks every node being extracted this frame; an edge between two
/// dirty nodes is emitted only by the lower-indexed one, so a batch
/// never contains duplicates.
pub(crate) fn collect_node_weight_deltas(
    graph: &DiGraph,
    report: &SystemReport,
    weighting: Option<&BatteryWeighting>,
    node: NodeId,
    adjacency: &AdjacencyList,
    dirty: &[bool],
    deltas: &mut Vec<WeightDelta>,
) {
    debug_assert_eq!(adjacency.len(), graph.node_count(), "adjacency does not match the graph");
    let mut push = |from: NodeId, to: NodeId, length_cm: f64| {
        let old = adjacency.weight(from.index(), to.index());
        let new = edge_weight(report, weighting, from, to, length_cm);
        if old != new {
            deltas.push(WeightDelta { from: from.index() as u32, to: to.index() as u32, old, new });
        }
    };
    let mut ins = graph.in_neighbors(node).peekable();
    let mut outs = graph.neighbors(node).peekable();
    loop {
        let other = match (ins.peek(), outs.peek()) {
            (None, None) => break,
            (Some(&(a, _)), None) => a,
            (None, Some(&(b, _))) => b,
            (Some(&(a, _)), Some(&(b, _))) => a.min(b),
        };
        let in_len = ins.next_if(|&(id, _)| id == other).map(|(_, len)| len);
        let out_len = outs.next_if(|&(id, _)| id == other).map(|(_, len)| len);
        if dirty[other.index()] && other < node {
            continue;
        }
        if let Some(len) = in_len {
            push(other, node, len.centimetres());
        }
        if let Some(len) = out_len {
            push(node, other, len.centimetres());
        }
    }
}

/// Builds the SDR weight matrix: `W(i,j) = L(i,j)` for existing edges.
///
/// SDR is not energy-aware, but packets still cannot transit dead
/// hardware, so edges touching dead nodes get infinite weight (that is
/// connectivity information, not battery information — both algorithms
/// receive it from the same TDMA reports).
///
/// # Panics
///
/// Panics if the report covers a different number of nodes than the graph.
#[must_use]
pub fn sdr_weights(graph: &DiGraph, report: &SystemReport) -> Matrix<f64> {
    let mut w = Matrix::filled(0, 0, 0.0);
    weights_into(graph, report, None, &mut w);
    w
}

/// Builds the EAR weight matrix: `W(i,j) = f(N_B(j)) · L(i,j)`, where
/// `N_B(j)` is the reported battery level of the edge's receiving node and
/// `f` the exponential [`BatteryWeighting`].
///
/// Weighting the *receiver* is what steers traffic away from nearly-dead
/// relays: every path through node `j` pays `f(N_B(j))` on its inbound
/// edge.
///
/// # Panics
///
/// Panics if the report covers a different number of nodes than the graph.
#[must_use]
pub fn ear_weights(
    graph: &DiGraph,
    report: &SystemReport,
    weighting: &BatteryWeighting,
) -> Matrix<f64> {
    let mut w = Matrix::filled(0, 0, 0.0);
    weights_into(graph, report, Some(weighting), &mut w);
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_graph::{floyd_warshall, topology, NodeId};
    use etx_units::Length;

    fn cm(v: f64) -> Length {
        Length::from_centimetres(v)
    }

    #[test]
    fn sdr_weights_are_plain_lengths() {
        let g = topology::line(3, cm(2.0));
        let r = SystemReport::fresh(3, 16);
        let w = sdr_weights(&g, &r);
        assert_eq!(w[(0, 1)], 2.0);
        assert_eq!(w[(1, 2)], 2.0);
        assert_eq!(w[(0, 2)], INFINITE_DISTANCE);
        assert_eq!(w[(0, 0)], 0.0);
    }

    #[test]
    fn ear_weights_equal_sdr_on_fresh_system() {
        let g = topology::Mesh2D::square(4, cm(2.0)).to_graph();
        let r = SystemReport::fresh(16, 16);
        let sdr = sdr_weights(&g, &r);
        let ear = ear_weights(&g, &r, &BatteryWeighting::default());
        assert_eq!(sdr, ear);
    }

    #[test]
    fn ear_penalizes_low_battery_receivers() {
        let g = topology::line(3, cm(1.0));
        let mut r = SystemReport::fresh(3, 16);
        r.set_battery_level(NodeId::new(1), 13); // two levels down
        let w = ear_weights(&g, &r, &BatteryWeighting::new(16, 2.0));
        // Inbound edges to node 1 cost 2^2 = 4x length; others unchanged.
        assert_eq!(w[(0, 1)], 4.0);
        assert_eq!(w[(2, 1)], 4.0);
        assert_eq!(w[(1, 0)], 1.0);
        assert_eq!(w[(1, 2)], 1.0);
    }

    #[test]
    fn ear_reroutes_around_depleted_relay() {
        // Square: 0-1-3 (short) vs 0-2-3 (same length). Deplete node 1.
        let mut g = etx_graph::DiGraph::new(4);
        g.add_edge_bidirectional(NodeId::new(0), NodeId::new(1), cm(1.0)).unwrap();
        g.add_edge_bidirectional(NodeId::new(1), NodeId::new(3), cm(1.0)).unwrap();
        g.add_edge_bidirectional(NodeId::new(0), NodeId::new(2), cm(1.5)).unwrap();
        g.add_edge_bidirectional(NodeId::new(2), NodeId::new(3), cm(1.5)).unwrap();

        let mut r = SystemReport::fresh(4, 16);
        // SDR picks the 2.0 cm path through node 1 regardless of battery.
        let sdr_paths = floyd_warshall(&sdr_weights(&g, &r));
        assert_eq!(
            sdr_paths.path(NodeId::new(0), NodeId::new(3)).unwrap(),
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(3)]
        );

        // Drain node 1 to level 1: EAR switches to the 3.0 cm detour.
        r.set_battery_level(NodeId::new(1), 1);
        let ear_paths = floyd_warshall(&ear_weights(&g, &r, &BatteryWeighting::default()));
        assert_eq!(
            ear_paths.path(NodeId::new(0), NodeId::new(3)).unwrap(),
            vec![NodeId::new(0), NodeId::new(2), NodeId::new(3)]
        );
        // SDR still goes through the dying relay.
        let sdr_paths = floyd_warshall(&sdr_weights(&g, &r));
        assert_eq!(
            sdr_paths.path(NodeId::new(0), NodeId::new(3)).unwrap(),
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(3)]
        );
    }

    #[test]
    fn dead_nodes_block_both_algorithms() {
        let g = topology::line(3, cm(1.0));
        let mut r = SystemReport::fresh(3, 16);
        r.set_dead(NodeId::new(1));
        for w in [sdr_weights(&g, &r), ear_weights(&g, &r, &BatteryWeighting::default())] {
            let paths = floyd_warshall(&w);
            assert!(!paths.is_reachable(NodeId::new(0), NodeId::new(2)));
            assert!(!paths.is_reachable(NodeId::new(0), NodeId::new(1)));
        }
    }

    #[test]
    #[should_panic(expected = "report covers")]
    fn mismatched_report_panics() {
        let g = topology::line(3, cm(1.0));
        let r = SystemReport::fresh(2, 16);
        let _ = sdr_weights(&g, &r);
    }

    /// The stage-1 extraction as a dense scan over every other node —
    /// the `O(K)` reference twin of [`collect_node_weight_deltas`]'s
    /// `O(degree)` merge. Old weights come from the list, the router's
    /// only phase-1 store (infinite where it has no entry).
    fn dense_node_deltas(
        graph: &DiGraph,
        report: &SystemReport,
        weighting: Option<&BatteryWeighting>,
        node: NodeId,
        adjacency: &AdjacencyList,
        dirty: &[bool],
        deltas: &mut Vec<WeightDelta>,
    ) {
        for (other_idx, &other_dirty) in dirty.iter().enumerate() {
            let other = NodeId::new(other_idx);
            if other == node || (other_dirty && other_idx < node.index()) {
                continue;
            }
            for (from, to) in [(other, node), (node, other)] {
                let new = graph.edge_length(from, to).map_or(INFINITE_DISTANCE, |len| {
                    edge_weight(report, weighting, from, to, len.centimetres())
                });
                let old = adjacency.weight(from.index(), to.index());
                if old != new {
                    deltas.push(WeightDelta {
                        from: from.index() as u32,
                        to: to.index() as u32,
                        old,
                        new,
                    });
                }
            }
        }
    }

    /// Applies random report steps: drains, deaths and revivals.
    fn apply_steps(report: &mut SystemReport, steps: &[(u8, usize, u32)]) {
        let n = report.node_count();
        for &(kind, node, level) in steps {
            let node = NodeId::new(node % n);
            match kind {
                0 if report.is_alive(node) => report.set_battery_level(node, level),
                1 => report.set_dead(node),
                2 if !report.is_alive(node) => report.revive(node, level),
                _ => {}
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// On random digraphs (one-way edges included) and report pairs
        /// (drains, deaths, revivals), the `O(degree)` delta stream
        /// equals the dense scan element for element and in order, for
        /// dirty lists in any order with over-approximations and repeats;
        /// and applying the stream with `set_edge` lands on the full
        /// rebuild's list, which is the dense matrix's list.
        #[test]
        fn sparse_delta_stream_equals_dense_scan(
            n in 2usize..10,
            edges in proptest::collection::vec((0usize..10, 0usize..10, 1u32..6), 0..40),
            ear in proptest::prelude::any::<bool>(),
            before in proptest::collection::vec((0u8..4, 0usize..10, 0u32..16), 0..8),
            after in proptest::collection::vec((0u8..4, 0usize..10, 0u32..16), 1..10),
            extra_dirty in proptest::collection::vec(0usize..10, 0..4),
        ) {
            let mut graph = DiGraph::new(n);
            for (a, b, len) in edges {
                let (a, b) = (a % n, b % n);
                if a != b {
                    graph.add_edge(NodeId::new(a), NodeId::new(b), cm(f64::from(len))).unwrap();
                }
            }
            let levels = BatteryWeighting::default();
            let weighting = ear.then_some(&levels);
            let mut old = SystemReport::fresh(n, 16);
            apply_steps(&mut old, &before);
            let mut new = old.clone();
            apply_steps(&mut new, &after);
            let mut adjacency = AdjacencyList::new();
            adjacency_into(&graph, &old, weighting, &mut adjacency);

            // Changed nodes in descending order, then the extras.
            let mut dirty: Vec<usize> = (0..n)
                .rev()
                .filter(|&i| {
                    let node = NodeId::new(i);
                    old.is_alive(node) != new.is_alive(node)
                        || old.battery_level(node) != new.battery_level(node)
                })
                .collect();
            dirty.extend(extra_dirty.iter().map(|&i| i % n));
            let mut dirty_mark = vec![false; n];
            for &d in &dirty {
                dirty_mark[d] = true;
            }
            let (mut sparse, mut dense) = (Vec::new(), Vec::new());
            for &d in &dirty {
                let node = NodeId::new(d);
                collect_node_weight_deltas(
                    &graph, &new, weighting, node, &adjacency, &dirty_mark, &mut sparse,
                );
                dense_node_deltas(
                    &graph, &new, weighting, node, &adjacency, &dirty_mark, &mut dense,
                );
            }
            proptest::prop_assert_eq!(&sparse, &dense);

            for delta in &sparse {
                adjacency.set_edge(delta.from as usize, delta.to as usize, delta.new);
            }
            let mut fresh = AdjacencyList::new();
            adjacency_into(&graph, &new, weighting, &mut fresh);
            proptest::prop_assert_eq!(&adjacency, &fresh);
            let mut dense_fresh = Matrix::filled(0, 0, 0.0);
            weights_into(&graph, &new, weighting, &mut dense_fresh);
            let mut from_dense = AdjacencyList::new();
            from_dense.rebuild(&dense_fresh);
            proptest::prop_assert_eq!(adjacency, from_dense);
        }
    }
}
