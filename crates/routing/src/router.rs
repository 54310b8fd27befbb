//! The [`Router`]: all three phases behind one call, with a
//! strategy-selected staged recompute pipeline.

use core::fmt;

use etx_graph::{
    dijkstra_source_into, dijkstra_source_tree_into, repair_source, DiGraph, IndexPlane, NodeId,
    PathBackend, RepairOutcome, ResolvedBackend,
};
use etx_metrics::SpanId;

use crate::scratch::WeightsKey;
use crate::weights::{adjacency_into, collect_node_weight_deltas};
use crate::{BatteryWeighting, RoutingScratch, RoutingState, SystemReport};

/// Repair gate: a source whose affected frontier exceeds this fraction of
/// its settled nodes is re-run in full instead of repaired. Tuned on a
/// 32×32 one-node steady-drain loop: a repaired node pays for
/// its relaxations *plus* an achiever scan and a settle-order merge slot
/// — roughly twice a plain relaxation — so repair keeps winning to about
/// half the tree; 0.6 leaves margin because on a narrow frame the
/// affected walk is paid on the re-run path too (a wide frame walks
/// only its sample). That walk is bounded by the gate itself: it
/// is checked at every discovered node, so a re-run source walks at most
/// this fraction of its tree before giving up.
const REPAIR_MAX_AFFECTED_FRACTION: f64 = 0.6;

/// Frame-width verdict, sample size: a repair frame first runs this
/// many evenly spaced sources (`⌊j·K/16⌋`; every source when `K ≤ 16`)
/// the narrow way before it commits. Cost: nothing on a narrow frame,
/// which runs every source that way; on a wide frame, at most this many
/// affected walks and tree recordings beyond plain re-solves — 16 of
/// 1,024 sources at `K = 1024`, 16 of 144 at `K = 144`.
const VERDICT_SAMPLE: usize = 16;

/// Frame-width verdict, majority rule: the frame is wide when more than
/// this fraction of the sampled sources that had valid trees fell back
/// to a re-run. Cost of a wrong call: a frame misjudged wide re-solves
/// repairable sources and leaves them stale for the next frame to
/// re-record; one misjudged narrow walks up to 60 % of each doomed
/// tree and records every re-run.
const VERDICT_WIDE_RERUN_FRACTION: f64 = 0.5;

/// Which routing algorithm the central controller runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Shortest-distance routing: weights are physical link lengths. The
    /// paper's non-energy-aware baseline.
    Sdr,
    /// Energy-aware routing: link lengths scaled by the receiving node's
    /// reported battery level. The paper's contribution.
    Ear,
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algorithm::Sdr => write!(f, "SDR"),
            Algorithm::Ear => write!(f, "EAR"),
        }
    }
}

/// How [`Router::recompute_dirty_into`] turns a frame's weight deltas
/// into fresh all-pairs rows (phase 2 of the staged pipeline). Both
/// strategies produce **identical** routing state (property-tested,
/// distances *and* successors); they differ only in cost.
///
/// | Strategy | Phase-2 work per frame | Role |
/// |---|---|---|
/// | `Full` | `O(K·E log K)` (or `O(K³)` under Floyd–Warshall) | the correctness oracle |
/// | `Auto` | Ramalingam–Reps repair of each source's shortest-path tree, `O(changed subtree · log K)` per source with a per-source re-run gate, whenever the resolved backend is Dijkstra and the caches are warm; a frame whose sample mostly re-runs re-solves its other sources with plain Dijkstras; `Full` otherwise | the default |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RecomputeStrategy {
    /// Always re-solve all sources from scratch.
    Full,
    /// Pick per frame: incremental repair of each source's
    /// shortest-path tree against the frame's edge-delta stream when
    /// the caches and resolved backend allow it, full otherwise.
    #[default]
    Auto,
}

impl RecomputeStrategy {
    /// CLI/spec-file name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RecomputeStrategy::Full => "full",
            RecomputeStrategy::Auto => "auto",
        }
    }

    /// Parses a CLI/spec-file name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "full" => Some(RecomputeStrategy::Full),
            "auto" => Some(RecomputeStrategy::Auto),
            _ => None,
        }
    }
}

impl fmt::Display for RecomputeStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The online routing engine run by the central controller.
///
/// "For a fair comparison, the proposed energy-aware routing strategy and
/// its non-energy-aware counterpart are kept exactly the same except their
/// routing algorithms" — [`Router`] embodies that: EAR and SDR differ only
/// in the phase-1 edge weights.
///
/// The router keeps phase 1 as a sparse adjacency list (each node's
/// usable out-links), never as the paper's dense `W`; the public
/// [`sdr_weights`](crate::sdr_weights) and
/// [`ear_weights`](crate::ear_weights) build that matrix for oracles and
/// the paper's own formulation. Every `K × K` node-index plane
/// (successors, repair-tree links) is `u16` lanes, so a graph may have
/// at most [`IndexPlane::MAX_NODES`] nodes.
///
/// # The staged recompute pipeline
///
/// Between TDMA frames [`Router::recompute_dirty_into`] advances the
/// state in place through three explicit stages:
///
/// 1. **Weight-delta extraction** — the caller's dirty-node list
///    becomes an edge-delta stream against the cached adjacency list,
///    in `O(degree)` per changed node: only the changed nodes' own links
///    are read, and each delta is applied to the list in place.
/// 2. **Path repair or re-solve** — selected by [`RecomputeStrategy`]:
///    incremental tree repair or a full phase 2. A repair frame first
///    runs a fixed sample of sources; when most of them re-run, the
///    frame is wide and re-solves its other sources without repair
///    bookkeeping.
/// 3. **Table refresh** — phase 3 (nearest-duplicate selection with
///    deadlock-port avoidance) always refreshes, through the scratch's
///    table cache: changed cells in place, whole rows in one pass over
///    the source's distance row, or the whole table.
///
/// # Examples
///
/// ```
/// use etx_graph::topology;
/// use etx_routing::{Algorithm, Router, SystemReport};
/// use etx_units::Length;
///
/// let graph = topology::ring(6, Length::from_centimetres(2.0));
/// let modules = vec![vec![0.into(), 3.into()]];
/// let report = SystemReport::fresh(6, 16);
///
/// let sdr = Router::new(Algorithm::Sdr).compute(&graph, &modules, &report, None);
/// let ear = Router::new(Algorithm::Ear).compute(&graph, &modules, &report, None);
/// // On a fresh system the two agree.
/// assert_eq!(
///     sdr.route(1.into(), 0).unwrap().destination,
///     ear.route(1.into(), 0).unwrap().destination,
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Router {
    algorithm: Algorithm,
    weighting: BatteryWeighting,
    backend: PathBackend,
    strategy: RecomputeStrategy,
}

impl Router {
    /// Creates a router with the default battery weighting
    /// (`N_B = 16`, `Q = 2`; irrelevant for SDR), the
    /// [`PathBackend::Auto`] phase-2 backend and the
    /// [`RecomputeStrategy::Auto`] recompute strategy.
    #[must_use]
    pub fn new(algorithm: Algorithm) -> Self {
        Router {
            algorithm,
            weighting: BatteryWeighting::default(),
            backend: PathBackend::Auto,
            strategy: RecomputeStrategy::Auto,
        }
    }

    /// Creates a router with an explicit EAR weighting function.
    #[must_use]
    pub fn with_weighting(algorithm: Algorithm, weighting: BatteryWeighting) -> Self {
        Router {
            algorithm,
            weighting,
            backend: PathBackend::Auto,
            strategy: RecomputeStrategy::Auto,
        }
    }

    /// Selects the phase-2 all-pairs backend (default
    /// [`PathBackend::Auto`]; see its docs for the crossover heuristic).
    #[must_use]
    pub fn with_backend(mut self, backend: PathBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the recompute strategy (default
    /// [`RecomputeStrategy::Auto`]).
    #[must_use]
    pub fn with_strategy(mut self, strategy: RecomputeStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The algorithm this router runs.
    #[must_use]
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The EAR weighting function.
    #[must_use]
    pub fn weighting(&self) -> &BatteryWeighting {
        &self.weighting
    }

    /// The configured phase-2 backend.
    #[must_use]
    pub fn backend(&self) -> PathBackend {
        self.backend
    }

    /// The configured recompute strategy.
    #[must_use]
    pub fn strategy(&self) -> RecomputeStrategy {
        self.strategy
    }

    /// Runs phases 1–3 and returns the complete routing state: the
    /// allocating oracle every fast path is tested against.
    ///
    /// `module_nodes[i]` is the paper's `S_i`: the set of nodes hosting
    /// duplicates of module `i`. `previous` enables the deadlock-port
    /// avoidance of phase 3; pass the routing state of the previous
    /// controller invocation (or `None` on the first run).
    ///
    /// Always runs the full pipeline, serially, on a fresh
    /// [`RoutingScratch`], so it never takes the repair path.
    /// Callers that advance one state frame after frame use
    /// [`Router::recompute_dirty_into`] instead. Complexity is dominated
    /// by phase 2: `O(K³)` under Floyd–Warshall — matching the paper —
    /// or `O(K·E log K)` under Dijkstra.
    ///
    /// # Panics
    ///
    /// Panics if `report` covers a different node count than `graph`, or
    /// `graph` has more than [`IndexPlane::MAX_NODES`] nodes.
    #[must_use]
    pub fn compute(
        &self,
        graph: &DiGraph,
        module_nodes: &[Vec<NodeId>],
        report: &SystemReport,
        previous: Option<&RoutingState>,
    ) -> RoutingState {
        IndexPlane::assert_fits(graph.node_count());
        let mut scratch = RoutingScratch::new();
        let mut out = RoutingState::empty();
        scratch.table.snapshot(previous, graph.node_count(), module_nodes.len());
        let key = WeightsKey::new(self.algorithm, &self.weighting, graph);
        self.full_recompute(graph, module_nodes, report, key, &mut scratch, &mut out);
        out
    }

    /// Runs phases 1–3 **in place**, the router's one in-place entry
    /// point. The simulation engine calls it at start-up and on every
    /// recomputing TDMA frame, and the daemon on every telemetry
    /// ingest. Once `scratch` and `out` have seen the current
    /// dimensions, the call performs no heap allocation.
    ///
    /// `dirty` lists every node whose battery bucket or liveness changed
    /// since the call that produced `out` with this `scratch`. The
    /// router turns it into an edge-delta stream against its cached
    /// weights (stage 1), repairs or re-solves the all-pairs rows
    /// (stage 2, per [`RecomputeStrategy`]), and the scratch's table
    /// cache refreshes the table (stage 3): the changed cells and rows
    /// in place, or every row. `out`'s table is the previous table that
    /// phase 3's deadlock avoidance reads.
    ///
    /// An over-approximate list is safe (a listed node whose weights did
    /// not change contributes no deltas), and so is a node listed more
    /// than once; a *missing* dirty node is not. The caches are keyed to
    /// the graph's [`DiGraph::version_stamp`] and the router's
    /// configuration, so a `scratch` that has not seen this graph (a
    /// new one, or one recycled from another fabric) runs the full
    /// pipeline whatever `dirty` says: a first call passes an empty
    /// list.
    ///
    /// # Panics
    ///
    /// Panics if `report` covers a different node count than `graph`, a
    /// dirty index is out of range, or `graph` has more than
    /// [`IndexPlane::MAX_NODES`] nodes.
    pub fn recompute_dirty_into(
        &self,
        graph: &DiGraph,
        module_nodes: &[Vec<NodeId>],
        report: &SystemReport,
        dirty: &[NodeId],
        scratch: &mut RoutingScratch,
        out: &mut RoutingState,
    ) {
        IndexPlane::assert_fits(graph.node_count());
        let n = graph.node_count();
        scratch.dirty.clear();
        // Reserving the per-node bound up front keeps burst frames (mass
        // churn after a quiet warm-up) free of mid-flight growth: the
        // zero-allocation guarantee is keyed to the system's dimensions,
        // not to the largest dirty set seen so far.
        scratch.dirty.reserve(n.max(dirty.len()));
        scratch.dirty.extend(dirty.iter().map(|node| {
            assert!(node.index() < n, "dirty node {node} out of range");
            node.index()
        }));
        scratch.table.snapshot(Some(out), n, module_nodes.len());
        let key = WeightsKey::new(self.algorithm, &self.weighting, graph);
        self.staged_recompute(graph, module_nodes, report, key, scratch, out);
    }

    /// Stage-2 dispatch: picks the phase-2 path for this frame from the
    /// configured strategy and the cache/backend gates, then runs it.
    /// Expects `scratch.dirty` populated and the previous table's first
    /// hops snapshotted.
    fn staged_recompute(
        &self,
        graph: &DiGraph,
        module_nodes: &[Vec<NodeId>],
        report: &SystemReport,
        key: WeightsKey,
        scratch: &mut RoutingScratch,
        out: &mut RoutingState,
    ) {
        let n = graph.node_count();
        // Gate: the cached weights/adjacency/rows must all describe the
        // previous call of this very configuration, and the previous
        // phase 2 must have used the Dijkstra successor policy (kept rows
        // must be bit-identical to what a fresh run would produce).
        let cache_ok = scratch.key == Some(key)
            && out.backend == Some(ResolvedBackend::DijkstraAllPairs)
            && out.node_count() == n
            && report.node_count() == n
            && self.backend.resolve(n, graph.edge_count()) == ResolvedBackend::DijkstraAllPairs;
        if self.strategy == RecomputeStrategy::Auto && cache_ok {
            self.repair_recompute(graph, module_nodes, report, scratch, out);
        } else {
            self.full_recompute(graph, module_nodes, report, key, scratch, out);
        }
    }

    /// The incremental path-repair pipeline: edge-delta extraction, per-
    /// source Ramalingam–Reps repair (with stale-tree / gate fallbacks
    /// to re-runs), table refresh. Expects the gates of
    /// [`Router::staged_recompute`] already checked.
    ///
    /// Stage 2 first measures the frame's width on a fixed sample of
    /// [`VERDICT_SAMPLE`] evenly spaced sources, run exactly as a narrow
    /// frame runs every source. The frame is **wide** when more than
    /// [`VERDICT_WIDE_RERUN_FRACTION`] of the sampled sources that had
    /// valid trees fell back to a re-run:
    ///
    /// * **narrow** — every other source repairs as well, and a stale
    ///   source or one past the cost gate re-runs with tree recording;
    /// * **wide** — every other source is re-solved by a plain
    ///   single-source Dijkstra, with no affected walk and no tree
    ///   recording, and is marked stale;
    /// * **cold** (no source has a valid tree) — no sampled source
    ///   counts, so the frame is narrow and every source re-runs with
    ///   recording.
    ///
    /// Known cost: a narrow frame right after a wide one re-runs every
    /// stale source with recording, about one recorded all-pairs solve
    /// (~1.1× `Full`) where the frame would otherwise have repaired.
    fn repair_recompute(
        &self,
        graph: &DiGraph,
        module_nodes: &[Vec<NodeId>],
        report: &SystemReport,
        scratch: &mut RoutingScratch,
        out: &mut RoutingState,
    ) {
        let n = graph.node_count();
        let weighting = (self.algorithm == Algorithm::Ear).then_some(&self.weighting);
        // Stage spans borrow the registry, so hold the handle locally
        // (an `Arc` bump, no allocation) while the stages mutate the
        // scratch.
        let metrics = scratch.metrics.clone();

        // Stage 1 — extract the edge-delta stream against the cached
        // adjacency list (no writes yet; the old values are part of the
        // stream).
        {
            let _delta_span = metrics.span(SpanId::RoutingRepairDelta);
            scratch.dirty_mark.clear();
            scratch.dirty_mark.resize(n, false);
            for &d in &scratch.dirty {
                scratch.dirty_mark[d] = true;
            }
            scratch.deltas.clear();
            // Every delta is a directed graph edge incident to a dirty node,
            // so the edge count bounds the batch; reserving it up front
            // keeps burst frames free of mid-flight growth.
            scratch.deltas.reserve(graph.edge_count());
            for &d in &scratch.dirty {
                collect_node_weight_deltas(
                    graph,
                    report,
                    weighting,
                    NodeId::new(d),
                    &scratch.adjacency,
                    &scratch.dirty_mark,
                    &mut scratch.deltas,
                );
            }
        }

        // While any source's tree is valid, the transpose is in step with
        // the adjacency list; once none is, the next frame with deltas
        // rebuilds both (a cold frame).
        let warm = scratch.stale.len() == n
            && scratch.stale.contains(&false)
            && scratch.trees.node_count() == n
            && scratch.in_adjacency.len() == n;

        // Phase 3 decides before stage 2 whether this frame patches the
        // table in place, so each repaired source can be handed over as
        // soon as its rows are repaired (the repair scratch is reused by
        // the next source).
        scratch.table.begin_frame(module_nodes, report, &scratch.dirty, out);

        // An empty batch (deadlock-flag-only or remap-only frame) leaves
        // the rows valid as they stand and skips phase 2 entirely; stale
        // trees stay stale until a frame with actual deltas re-runs them.
        if !scratch.deltas.is_empty() {
            // One timer covers apply + repair; it lands on the decrease
            // span when any source engaged the decrease half this frame,
            // the increase span otherwise, so the two repair regimes get
            // separate latency distributions.
            let stage2_timer = metrics.timer();
            // Stage 1b — apply the stream: every changed edge in the
            // adjacency list and, while the trees are warm, its transpose
            // (`O(degree)` per changed node).
            for delta in &scratch.deltas {
                let (from, to) = (delta.from as usize, delta.to as usize);
                scratch.adjacency.set_edge(from, to, delta.new);
                if warm {
                    scratch.in_adjacency.set_edge(to, from, delta.new);
                }
            }

            // Stage 2 — the verdict sample, then every other source.
            // Sources are independent, and the table cache works row by
            // row, so the order is free.
            if !warm {
                scratch.trees.reset(n);
                scratch.in_adjacency.rebuild_transpose(&scratch.adjacency);
            }
            scratch.repair.reserve_batch(graph.edge_count());
            scratch.repair.prepare(&scratch.deltas, n);
            let decreases_before = scratch.stats.decrease_repairs;
            let sample = VERDICT_SAMPLE.min(n);
            let (mut sampled_valid, mut sampled_reruns) = (0usize, 0usize);
            for j in 0..sample {
                let s = j * n / sample;
                let valid = !scratch.stale[s];
                let outcome = repair_or_rerun(s, report, scratch, out);
                if valid {
                    sampled_valid += 1;
                    sampled_reruns += usize::from(outcome == RepairOutcome::Rerun);
                }
            }
            #[allow(clippy::cast_precision_loss)]
            let wide = sampled_reruns as f64 > VERDICT_WIDE_RERUN_FRACTION * sampled_valid as f64;
            let mut next_sampled = 0;
            for s in 0..n {
                if next_sampled < sample && s == next_sampled * n / sample {
                    next_sampled += 1;
                    continue;
                }
                if wide {
                    // A plain re-solve: no affected walk, no tree
                    // recording, so the tree row goes stale.
                    let source = NodeId::new(s);
                    let (dist_row, succ_row) = out.paths_mut().source_rows_mut(source);
                    dijkstra_source_into(
                        &scratch.adjacency,
                        source,
                        &mut scratch.dijkstra,
                        dist_row,
                        succ_row,
                    );
                    scratch.stale[s] = true;
                    scratch.table.rerun_source(s);
                    scratch.stats.fallback_sources += 1;
                } else {
                    repair_or_rerun(s, report, scratch, out);
                }
            }
            let stage2_span = if scratch.stats.decrease_repairs > decreases_before {
                SpanId::RoutingRepairDecrease
            } else {
                SpanId::RoutingRepairIncrease
            };
            metrics.observe_since(stage2_span, stage2_timer);
        }

        // Stage 3 — the table refresh the inline patches left: whole
        // rows, or the whole table.
        {
            let _table_span = metrics.span(SpanId::RoutingRepairTable);
            scratch.table.finish_frame(
                out,
                &scratch.adjacency,
                module_nodes,
                report,
                &mut scratch.stats,
            );
        }
        scratch.stats.repair_recomputes += 1;
    }

    /// Full phases 1–3 into `out`, refreshing the scratch caches.
    /// Expects the previous table's first hops to be snapshotted
    /// already.
    fn full_recompute(
        &self,
        graph: &DiGraph,
        module_nodes: &[Vec<NodeId>],
        report: &SystemReport,
        key: WeightsKey,
        scratch: &mut RoutingScratch,
        out: &mut RoutingState,
    ) {
        let n = graph.node_count();
        let weighting = (self.algorithm == Algorithm::Ear).then_some(&self.weighting);
        adjacency_into(graph, report, weighting, &mut scratch.adjacency);
        let resolved = self.backend.resolve(n, graph.edge_count());
        resolved.compute_into(&scratch.adjacency, &mut scratch.dijkstra, out.paths_mut());
        out.backend = Some(resolved);
        scratch.key = Some(key);
        // The trees describe the pre-recompute weights; a later repair
        // frame must rebuild them (recorded re-runs) before repairing.
        scratch.stale.clear();
        scratch.stale.resize(n, true);
        scratch.table.rebuild(out, &scratch.adjacency, module_nodes, report, &mut scratch.stats);
        scratch.stats.full_recomputes += 1;
    }
}

/// Stage 2 for source `s` the narrow way: a valid tree is repaired
/// against the prepared batch; a stale one, or one past the cost gate,
/// re-runs with tree recording, which clears its stale mark. Hands the
/// source's rows to the table cache and counts the outcome.
fn repair_or_rerun(
    s: usize,
    report: &SystemReport,
    scratch: &mut RoutingScratch,
    out: &mut RoutingState,
) -> RepairOutcome {
    let source = NodeId::new(s);
    let outcome = if scratch.stale[s] {
        RepairOutcome::Rerun
    } else {
        let (dist_row, succ_row) = out.paths_mut().source_rows_mut(source);
        repair_source(
            &scratch.adjacency,
            &scratch.in_adjacency,
            source,
            &mut scratch.dijkstra,
            &mut scratch.repair,
            &mut scratch.trees,
            dist_row,
            succ_row,
            REPAIR_MAX_AFFECTED_FRACTION,
        )
    };
    match outcome {
        RepairOutcome::Unchanged => {}
        RepairOutcome::Repaired { improved, .. } => {
            scratch.stats.repaired_sources += 1;
            if improved > 0 {
                scratch.stats.decrease_repairs += 1;
                scratch.stats.decrease_nodes_improved += improved as u64;
            }
            scratch.table.repaired_source(
                s,
                improved,
                &scratch.repair,
                &scratch.adjacency,
                report,
                out,
            );
        }
        RepairOutcome::Rerun => {
            let (dist_row, succ_row) = out.paths_mut().source_rows_mut(source);
            dijkstra_source_tree_into(
                &scratch.adjacency,
                source,
                &mut scratch.dijkstra,
                dist_row,
                succ_row,
                &mut scratch.trees,
            );
            scratch.stale[s] = false;
            scratch.table.rerun_source(s);
            scratch.stats.fallback_sources += 1;
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_graph::topology::{self, Mesh2D};
    use etx_units::Length;
    use proptest::prelude::*;

    fn cm(v: f64) -> Length {
        Length::from_centimetres(v)
    }

    #[test]
    fn algorithm_display() {
        assert_eq!(Algorithm::Sdr.to_string(), "SDR");
        assert_eq!(Algorithm::Ear.to_string(), "EAR");
    }

    #[test]
    fn strategy_names_roundtrip() {
        for s in [RecomputeStrategy::Full, RecomputeStrategy::Auto] {
            assert_eq!(RecomputeStrategy::parse(s.name()), Some(s));
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(RecomputeStrategy::parse(" Auto "), Some(RecomputeStrategy::Auto));
        for retired in ["affected", "incremental", "repair", "bogus"] {
            assert_eq!(RecomputeStrategy::parse(retired), None);
        }
        assert_eq!(RecomputeStrategy::default(), RecomputeStrategy::Auto);
    }

    #[test]
    fn accessors() {
        let r = Router::with_weighting(Algorithm::Ear, BatteryWeighting::new(8, 4.0))
            .with_strategy(RecomputeStrategy::Full);
        assert_eq!(r.algorithm(), Algorithm::Ear);
        assert_eq!(r.weighting().levels(), 8);
        assert_eq!(r.strategy(), RecomputeStrategy::Full);
    }

    #[test]
    fn fresh_system_ear_equals_sdr() {
        let mesh = Mesh2D::square(5, cm(2.0));
        let graph = mesh.to_graph();
        let modules: Vec<Vec<NodeId>> = vec![
            (0..25).step_by(3).map(NodeId::new).collect(),
            (1..25).step_by(3).map(NodeId::new).collect(),
            (2..25).step_by(3).map(NodeId::new).collect(),
        ];
        let report = SystemReport::fresh(25, 16);
        let sdr = Router::new(Algorithm::Sdr).compute(&graph, &modules, &report, None);
        let ear = Router::new(Algorithm::Ear).compute(&graph, &modules, &report, None);
        for n in 0..25 {
            for m in 0..3 {
                let (s, e) = (sdr.route(NodeId::new(n), m), ear.route(NodeId::new(n), m));
                assert_eq!(
                    s.map(|x| x.destination),
                    e.map(|x| x.destination),
                    "node {n} module {m}"
                );
            }
        }
    }

    #[test]
    fn ear_switches_destination_when_duplicate_drains() {
        // Ring of 6 with module hosted at 0 and 3; node 1 queries it.
        let graph = topology::ring(6, cm(1.0));
        let modules = vec![vec![NodeId::new(0), NodeId::new(3)]];
        let mut report = SystemReport::fresh(6, 16);

        let router = Router::new(Algorithm::Ear);
        let rs = router.compute(&graph, &modules, &report, None);
        assert_eq!(rs.route(NodeId::new(1), 0).unwrap().destination, NodeId::new(0));

        // Drain node 0 to the last level: the (battery-weighted) distance
        // to 0 now exceeds the two plain hops to 3.
        report.set_battery_level(NodeId::new(0), 0);
        let rs = router.compute(&graph, &modules, &report, None);
        assert_eq!(rs.route(NodeId::new(1), 0).unwrap().destination, NodeId::new(3));

        // SDR keeps hammering node 0.
        let rs = Router::new(Algorithm::Sdr).compute(&graph, &modules, &report, None);
        assert_eq!(rs.route(NodeId::new(1), 0).unwrap().destination, NodeId::new(0));
    }

    #[test]
    fn ear_rotates_load_across_duplicates_sdr_does_not() {
        // Drain-and-reroute loop on a ring with two duplicates of one
        // module: each "round" the chosen destination loses one battery
        // level. EAR spreads the work over both duplicates; SDR hammers
        // its nearest one until death.
        let graph = topology::ring(6, cm(1.0));
        let hosts = vec![vec![NodeId::new(2), NodeId::new(4)]];
        let origin = NodeId::new(0);
        let mut usage = std::collections::HashMap::new();

        for algorithm in [Algorithm::Ear, Algorithm::Sdr] {
            let router = Router::new(algorithm);
            let mut report = SystemReport::fresh(6, 16);
            let mut counts = [0u32; 6];
            for _ in 0..24 {
                let routing = router.compute(&graph, &hosts, &report, None);
                let Some(entry) = routing.route(origin, 0) else { break };
                counts[entry.destination.index()] += 1;
                let level = report.battery_level(entry.destination);
                if level == 0 {
                    report.set_dead(entry.destination);
                } else {
                    report.set_battery_level(entry.destination, level - 1);
                }
            }
            usage.insert(format!("{algorithm}"), counts);
        }

        let ear = usage["EAR"];
        let sdr = usage["SDR"];
        // EAR alternates once the gap reaches one level: both duplicates
        // carry meaningful load.
        assert!(ear[2] >= 8 && ear[4] >= 8, "EAR did not balance: {ear:?}");
        // SDR uses only the nearer duplicate until it dies.
        assert_eq!(sdr[2], 16, "SDR should exhaust n2 first: {sdr:?}");
        assert!(sdr[4] <= 8, "SDR spread load unexpectedly: {sdr:?}");
    }

    #[test]
    fn empty_dirty_list_on_an_unseen_graph_equals_compute() {
        // The engine's start-up call: an empty dirty list on a graph the
        // scratch has not seen must run the full pipeline and land bit
        // for bit on the allocating oracle. Checked on a fresh pair, and
        // on a pair left warm by a run on another graph of the same size
        // and content (what `SimPool` hands a new simulation).
        let k = 64;
        let modules: Vec<Vec<NodeId>> =
            (0..3).map(|m| (m..k).step_by(3).map(NodeId::new).collect()).collect();
        let router = Router::new(Algorithm::Ear);
        let mut report = SystemReport::fresh(k, 16);
        for i in 0..k {
            report.set_battery_level(NodeId::new(i), 8 + ((i * 5) % 8) as u32);
        }
        let start_up = |scratch: &mut RoutingScratch, state: &mut RoutingState| {
            let graph = Mesh2D::square(8, cm(2.05)).to_graph();
            let before = scratch.stats();
            router.recompute_dirty_into(&graph, &modules, &report, &[], scratch, state);
            let oracle = router.compute(&graph, &modules, &report, None);
            assert_eq!(*state, oracle);
            let bits = |s: &RoutingState| -> Vec<u64> {
                s.paths().distances().as_slice().iter().map(|d| d.to_bits()).collect()
            };
            assert_eq!(bits(state), bits(&oracle));
            let stats = scratch.stats().delta_since(&before);
            assert_eq!(stats.full_recomputes, 1, "{stats:?}");
            assert_eq!(stats.repair_recomputes, 0, "{stats:?}");
        };

        start_up(&mut RoutingScratch::new(), &mut RoutingState::empty());

        let mut scratch = RoutingScratch::new();
        let mut state = RoutingState::empty();
        let other = Mesh2D::square(8, cm(2.05)).to_graph();
        let mut drained = SystemReport::fresh(k, 16);
        router.recompute_dirty_into(&other, &modules, &drained, &[], &mut scratch, &mut state);
        for frame in 0..4 {
            let node = NodeId::new((frame * 11 + 5) % k);
            drained.set_battery_level(node, 2);
            router.recompute_dirty_into(
                &other,
                &modules,
                &drained,
                &[node],
                &mut scratch,
                &mut state,
            );
        }
        assert!(scratch.stats().repair_recomputes >= 4, "the other run must leave warm caches");
        start_up(&mut scratch, &mut state);
    }

    #[test]
    fn steady_drain_rebuilds_only_changed_table_rows() {
        // 8x8 battery-only drain: liveness/deadlock/placement never
        // change, so stage 3 must take the delta row rebuild and touch
        // far fewer rows than frames * K. A death frame then patches
        // incrementally too: the victim's own row plus the columns of
        // the modules it duplicated, not the whole table.
        let graph = Mesh2D::square(8, cm(2.05)).to_graph();
        let k = graph.node_count();
        let modules: Vec<Vec<NodeId>> =
            (0..3).map(|m| (m..k).step_by(3).map(NodeId::new).collect()).collect();
        let router = Router::new(Algorithm::Ear);

        let mut report = SystemReport::fresh(k, 16);
        let mut scratch = RoutingScratch::new();
        let mut state = RoutingState::empty();
        router.recompute_dirty_into(&graph, &modules, &report, &[], &mut scratch, &mut state);

        let frames = 12u64;
        for frame in 0..frames {
            let node = NodeId::new((frame as usize * 7 + 3) % k);
            report.set_battery_level(node, report.battery_level(node).saturating_sub(1));
            router.recompute_dirty_into(
                &graph,
                &modules,
                &report,
                &[node],
                &mut scratch,
                &mut state,
            );
            let reference = router.compute(&graph, &modules, &report, None);
            assert_eq!(state.route_planes(), reference.route_planes(), "frame {frame}");
        }
        let stats = scratch.stats();
        assert_eq!(stats.table_delta_rebuilds, frames, "drain frames must take the delta path");
        // Initial full build: k * 3 entries. Each drain frame must touch
        // far fewer than its own k * 3 — the whole point of the delta.
        let full_build = 3 * k as u64;
        assert!(
            stats.table_entries_rebuilt < full_build + frames * full_build / 4,
            "delta rebuild touched {} entries over {frames} frames on K={k}",
            stats.table_entries_rebuilt
        );

        // Churn: a node death is a liveness change — the delta path now
        // patches the victim's row plus its hosted-module columns
        // instead of gating to a full rebuild.
        let victim = NodeId::new(9);
        report.set_dead(victim);
        let entries_before = scratch.stats().table_entries_rebuilt;
        router.recompute_dirty_into(&graph, &modules, &report, &[victim], &mut scratch, &mut state);
        let reference = router.compute(&graph, &modules, &report, None);
        assert_eq!(state.route_planes(), reference.route_planes(), "death frame");
        assert_eq!(
            scratch.stats().table_delta_rebuilds,
            frames + 1,
            "death frame must take the delta path"
        );
        let death_entries = scratch.stats().table_entries_rebuilt - entries_before;
        assert!(
            death_entries < full_build,
            "death frame rebuilt {death_entries} entries, expected fewer than {full_build}"
        );

        // The frame after the death is steady again: delta path continues.
        let node = NodeId::new(12);
        report.set_battery_level(node, report.battery_level(node).saturating_sub(1));
        router.recompute_dirty_into(&graph, &modules, &report, &[node], &mut scratch, &mut state);
        let reference = router.compute(&graph, &modules, &report, None);
        assert_eq!(state.route_planes(), reference.route_planes(), "post-death frame");
        assert_eq!(scratch.stats().table_delta_rebuilds, frames + 2);
    }

    #[test]
    fn frame_width_verdict_marks_stale_trees() {
        // 12x12: K = 144, so the verdict samples 16 of the sources
        // (every ninth id) and the other 128 follow its call.
        let graph = Mesh2D::square(12, cm(2.05)).to_graph();
        let k = graph.node_count();
        let modules: Vec<Vec<NodeId>> =
            (0..3).map(|m| (m..k).step_by(3).map(NodeId::new).collect()).collect();
        let router = Router::new(Algorithm::Ear);
        let sample: Vec<usize> = (0..VERDICT_SAMPLE).map(|j| j * k / VERDICT_SAMPLE).collect();
        let unsampled: Vec<usize> = (0..k).filter(|s| !sample.contains(s)).collect();
        let stale = |scratch: &RoutingScratch| -> Vec<usize> {
            (0..k).filter(|&s| scratch.stale[s]).collect()
        };
        let bits = |s: &RoutingState| -> Vec<u64> {
            s.paths().distances().as_slice().iter().map(|d| d.to_bits()).collect()
        };
        let frame = |report: &SystemReport,
                     dirty: &[NodeId],
                     scratch: &mut RoutingScratch,
                     state: &mut RoutingState| {
            let previous = state.clone();
            router.recompute_dirty_into(&graph, &modules, report, dirty, scratch, state);
            let oracle = router.compute(&graph, &modules, report, Some(&previous));
            assert_eq!(*state, oracle);
            assert_eq!(bits(state), bits(&oracle));
        };
        let drain = |report: &mut SystemReport, nodes: &[NodeId]| {
            for &node in nodes {
                report.set_battery_level(node, report.battery_level(node) - 1);
            }
        };

        let mut report = SystemReport::fresh(k, 16);
        for i in 0..k {
            report.set_battery_level(NodeId::new(i), 4 + ((i * 7) % 12) as u32);
        }
        let (victim, revenant) = (NodeId::new(30), NodeId::new(77));
        report.set_dead(revenant);
        let mut scratch = RoutingScratch::new();
        let mut state = RoutingState::empty();

        // Start-up: a full recompute leaves every tree stale.
        frame(&report, &[], &mut scratch, &mut state);
        assert_eq!(stale(&scratch), (0..k).collect::<Vec<_>>(), "start-up");

        // Cold one-node frame: no sampled tree is valid, so every source
        // re-runs with recording.
        let one = [NodeId::new(5)];
        drain(&mut report, &one);
        frame(&report, &one, &mut scratch, &mut state);
        assert_eq!(stale(&scratch), Vec::<usize>::new(), "cold frame");

        // Wide: a fifth of the nodes drain. The sample mostly re-runs, so
        // the other sources are re-solved and left stale.
        let fifth: Vec<NodeId> = (0..k).step_by(5).map(NodeId::new).collect();
        drain(&mut report, &fifth);
        let before = scratch.stats();
        frame(&report, &fifth, &mut scratch, &mut state);
        assert_eq!(stale(&scratch), unsampled, "first wide frame");
        let wide = scratch.stats().delta_since(&before);
        assert!(wide.fallback_sources >= unsampled.len() as u64, "{wide:?}");

        // Narrow one-node frame: the stale sources re-run with recording.
        let one = [NodeId::new(40)];
        drain(&mut report, &one);
        frame(&report, &one, &mut scratch, &mut state);
        assert_eq!(stale(&scratch), Vec::<usize>::new(), "narrow frame");

        // Wide again, with a death and a revival in the batch.
        let mut dirty: Vec<NodeId> =
            (2..k).step_by(5).map(NodeId::new).filter(|&n| n != victim && n != revenant).collect();
        drain(&mut report, &dirty);
        report.set_dead(victim);
        report.revive(revenant, 9);
        dirty.extend([victim, revenant]);
        frame(&report, &dirty, &mut scratch, &mut state);
        assert_eq!(stale(&scratch), unsampled, "wide frame with churn");

        let stats = scratch.stats();
        assert_eq!((stats.full_recomputes, stats.repair_recomputes), (1, 4), "{stats:?}");
    }

    /// A graph one node past the `u16` lanes' cap: edgeless, so it
    /// builds in milliseconds, and each entry point must refuse it before
    /// its first `K × K` allocation (about 34 GB of distances alone).
    fn oversized() -> (DiGraph, SystemReport) {
        let k = IndexPlane::MAX_NODES + 1;
        (DiGraph::new(k), SystemReport::fresh(k, 16))
    }

    #[test]
    #[should_panic(expected = "65536 nodes exceed the 65535 a u16 index plane can hold")]
    fn compute_refuses_a_graph_past_the_lane_cap() {
        let (graph, report) = oversized();
        let _ = Router::new(Algorithm::Ear).compute(&graph, &[], &report, None);
    }

    #[test]
    #[should_panic(expected = "65536 nodes exceed the 65535 a u16 index plane can hold")]
    fn recompute_refuses_a_graph_past_the_lane_cap() {
        let (graph, report) = oversized();
        let (mut scratch, mut state) = (RoutingScratch::new(), RoutingState::empty());
        Router::new(Algorithm::Sdr).recompute_dirty_into(
            &graph,
            &[],
            &report,
            &[],
            &mut scratch,
            &mut state,
        );
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Over drain, death and revival chains, for SDR and EAR, the
        /// adjacency list the router maintains in place (full fills,
        /// then per-frame `set_edge` deltas) equals the list extracted
        /// from the paper's dense weight matrix for the current report,
        /// entry for entry; so does its transpose while the trees are
        /// warm.
        #[test]
        fn incremental_adjacency_equals_dense_weights_list(
            side in 7usize..9,
            ear in any::<bool>(),
            frames in proptest::collection::vec(
                proptest::collection::vec((0u8..3, 0usize..64, 0u32..16), 1..6),
                1..8,
            ),
        ) {
            let graph = Mesh2D::square(side, cm(2.05)).to_graph();
            let k = graph.node_count();
            let modules: Vec<Vec<NodeId>> =
                (0..3).map(|m| (m..k).step_by(3).map(NodeId::new).collect()).collect();
            let algorithm = if ear { Algorithm::Ear } else { Algorithm::Sdr };
            let router = Router::new(algorithm);
            let dense = |report: &SystemReport| match algorithm {
                Algorithm::Sdr => crate::sdr_weights(&graph, report),
                Algorithm::Ear => crate::ear_weights(&graph, report, router.weighting()),
            };
            let mut report = SystemReport::fresh(k, 16);
            let mut scratch = RoutingScratch::new();
            let mut state = RoutingState::empty();
            router.recompute_dirty_into(&graph, &modules, &report, &[], &mut scratch, &mut state);
            for steps in &frames {
                let old = report.clone();
                apply_steps(&mut report, steps);
                let dirty: Vec<NodeId> = (0..k)
                    .map(NodeId::new)
                    .filter(|&n| {
                        old.is_alive(n) != report.is_alive(n)
                            || old.battery_level(n) != report.battery_level(n)
                    })
                    .collect();
                router.recompute_dirty_into(
                    &graph, &modules, &report, &dirty, &mut scratch, &mut state,
                );
                let mut expected = etx_graph::AdjacencyList::new();
                expected.rebuild(&dense(&report));
                prop_assert_eq!(&scratch.adjacency, &expected);
                if scratch.stale.contains(&false) {
                    let mut transpose = etx_graph::AdjacencyList::new();
                    transpose.rebuild_transpose(&expected);
                    prop_assert_eq!(&scratch.in_adjacency, &transpose);
                }
            }
            prop_assert!(scratch.stats().repair_recomputes > 0 || frames.iter().all(|f| f.is_empty()));
        }
    }

    proptest! {
        /// Structural invariants on random meshes and battery states: every
        /// route entry's next hop is the node itself or a graph neighbour,
        /// its destination hosts the module and is alive, and the entry's
        /// distance matches the phase-2 distance to that destination.
        #[test]
        fn route_entries_are_consistent(
            side in 2usize..6,
            algorithm in prop_oneof![Just(Algorithm::Sdr), Just(Algorithm::Ear)],
            levels in proptest::collection::vec(0u32..16, 36),
            dead in proptest::collection::vec(any::<bool>(), 36),
        ) {
            let mesh = Mesh2D::square(side, cm(2.0));
            let graph = mesh.to_graph();
            let k = graph.node_count();
            let mut report = SystemReport::fresh(k, 16);
            for i in 0..k {
                report.set_battery_level(NodeId::new(i), levels[i]);
                if dead[i] {
                    report.set_dead(NodeId::new(i));
                }
            }
            // Three modules striped over the mesh.
            let modules: Vec<Vec<NodeId>> = (0..3)
                .map(|m| (m..k).step_by(3).map(NodeId::new).collect())
                .collect();
            let rs = Router::new(algorithm).compute(&graph, &modules, &report, None);
            for n in 0..k {
                let node = NodeId::new(n);
                for (m, hosts) in modules.iter().enumerate() {
                    if let Some(entry) = rs.route(node, m) {
                        prop_assert!(report.is_alive(node));
                        prop_assert!(hosts.contains(&entry.destination));
                        prop_assert!(report.is_alive(entry.destination));
                        if entry.destination == node {
                            prop_assert_eq!(entry.next_hop, node);
                            prop_assert_eq!(entry.distance, 0.0);
                        } else {
                            prop_assert!(graph.has_edge(node, entry.next_hop));
                        }
                        let d = rs.distance(node, entry.destination);
                        prop_assert_eq!(d, Some(entry.distance));
                    }
                }
            }
        }
    }
}
