//! The [`RoutingScratch`] reusable workspace for zero-allocation routing
//! recomputes, and the [`RecomputeStats`] counter snapshot.

use etx_graph::{AdjacencyList, DijkstraScratch, Matrix, NodeId, RepairScratch, SpTreeStore};
use etx_metrics::{CounterId, MetricsHandle, Registry};

use crate::{Algorithm, BatteryWeighting};

/// Identifies the inputs the scratch's cached weight matrix was built
/// from; the delta-aware recompute only engages when the fingerprint of
/// the current call matches the previous one.
///
/// The graph is identified by [`DiGraph::version_stamp`] — an `O(1)`
/// identity refreshed (globally uniquely) on every mutation — so
/// swapping in a different graph, or mutating the same graph in place
/// (even in ways that keep node/edge counts identical), can never
/// silently reuse stale cached weights.
///
/// [`DiGraph::version_stamp`]: etx_graph::DiGraph::version_stamp
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WeightsKey {
    pub algorithm: Algorithm,
    pub levels: u32,
    pub q_bits: u64,
    pub nodes: usize,
    pub graph_stamp: u64,
}

impl WeightsKey {
    pub(crate) fn new(
        algorithm: Algorithm,
        weighting: &BatteryWeighting,
        graph: &etx_graph::DiGraph,
    ) -> Self {
        WeightsKey {
            algorithm,
            levels: weighting.levels(),
            q_bits: weighting.q().to_bits(),
            nodes: graph.node_count(),
            graph_stamp: graph.version_stamp(),
        }
    }
}

/// Snapshot of a [`RoutingScratch`]'s recompute counters: how often each
/// phase-2 path ran, and how the incremental repair split its sources.
///
/// The simulation engine reports this in its final
/// [`SimReport`](../etx_sim/struct.SimReport.html) and the fleet
/// controller aggregates it fleet-wide, so the cost profile of the
/// routing pipeline is user-visible end to end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecomputeStats {
    /// Recomputes that ran a full phase 2 (all sources from scratch).
    pub full_recomputes: u64,
    /// Recomputes that took the incremental path-repair pipeline.
    pub repair_recomputes: u64,
    /// Sources repaired in place across all repair recomputes.
    pub repaired_sources: u64,
    /// Sources the repair pipeline re-ran in full. Since the
    /// decrease-half repair landed, this no longer counts weight
    /// decreases: a source falls back only when the combined
    /// increase+decrease frontier exceeds the cost-gate fraction or the
    /// shortest-path trees are cold (first frame, recycled scratch).
    pub fallback_sources: u64,
    /// Sources whose repair engaged the decrease half: a relevant
    /// weight *decrease* (revival, reconnect, recharge) repaired in
    /// place by improvement propagation instead of a full rerun.
    pub decrease_repairs: u64,
    /// Row entries the decrease half updated across all repair
    /// recomputes: distance improvements plus achiever tie flips and
    /// their re-hung subtrees.
    pub decrease_nodes_improved: u64,
    /// Recomputes whose phase 3 refreshed only the changed `(node,
    /// module)` entries instead of rebuilding the whole table.
    pub table_delta_rebuilds: u64,
    /// `(node, module)` table entries refreshed across all recomputes (a
    /// full rebuild counts every entry, `K · modules`; a delta rebuild
    /// only the entries whose distance-to-duplicate inputs changed).
    pub table_entries_rebuilt: u64,
    /// The subset of [`RecomputeStats::table_entries_rebuilt`] refreshed
    /// by the `O(1)` challenge patch — the cached winner survived (or
    /// improved) and only the repair's improved duplicates were
    /// considered — instead of the `O(|S_i|)` duplicate re-scan.
    pub table_cells_patched: u64,
    /// Node states examined across all recomputes by the table-input
    /// cache refresh: `K` per recompute.
    pub nodes_scanned: u64,
}

impl RecomputeStats {
    /// Field-wise difference against an earlier snapshot of the same
    /// counters: what happened *since* `prev`. Per-frame consumers (the
    /// frame recorder, fleet tallies, benches) diff two cumulative
    /// snapshots instead of hand-rolling ten subtractions each.
    ///
    /// Counters are monotone while a scratch lives, but a recycle zeroes
    /// them mid-stream; `wrapping_sub` keeps the helper total so a stale
    /// `prev` can't panic in release-vs-debug-divergent ways.
    #[must_use]
    pub fn delta_since(&self, prev: &RecomputeStats) -> RecomputeStats {
        RecomputeStats {
            full_recomputes: self.full_recomputes.wrapping_sub(prev.full_recomputes),
            repair_recomputes: self.repair_recomputes.wrapping_sub(prev.repair_recomputes),
            repaired_sources: self.repaired_sources.wrapping_sub(prev.repaired_sources),
            fallback_sources: self.fallback_sources.wrapping_sub(prev.fallback_sources),
            decrease_repairs: self.decrease_repairs.wrapping_sub(prev.decrease_repairs),
            decrease_nodes_improved: self
                .decrease_nodes_improved
                .wrapping_sub(prev.decrease_nodes_improved),
            table_delta_rebuilds: self.table_delta_rebuilds.wrapping_sub(prev.table_delta_rebuilds),
            table_entries_rebuilt: self
                .table_entries_rebuilt
                .wrapping_sub(prev.table_entries_rebuilt),
            table_cells_patched: self.table_cells_patched.wrapping_sub(prev.table_cells_patched),
            nodes_scanned: self.nodes_scanned.wrapping_sub(prev.nodes_scanned),
        }
    }

    /// Adds these counters into a metrics [`Registry`] under the
    /// `routing.*` cost counters — the one bridge between the scratch's
    /// plain per-run counters and the cross-layer metrics catalog.
    /// Callers feed per-frame [`RecomputeStats::delta_since`] deltas so
    /// the registry totals stay exact across scratch recycles.
    pub fn record_into(&self, registry: &Registry) {
        registry.add(CounterId::RoutingFullRecomputes, self.full_recomputes);
        registry.add(CounterId::RoutingRepairRecomputes, self.repair_recomputes);
        registry.add(CounterId::RoutingRepairedSources, self.repaired_sources);
        registry.add(CounterId::RoutingFallbackSources, self.fallback_sources);
        registry.add(CounterId::RoutingDecreaseRepairs, self.decrease_repairs);
        registry.add(CounterId::RoutingDecreaseNodesImproved, self.decrease_nodes_improved);
        registry.add(CounterId::RoutingTableDeltaRebuilds, self.table_delta_rebuilds);
        registry.add(CounterId::RoutingTableEntriesRebuilt, self.table_entries_rebuilt);
        registry.add(CounterId::RoutingTableCellsPatched, self.table_cells_patched);
        registry.add(CounterId::RoutingNodesScanned, self.nodes_scanned);
    }
}

/// Preallocated working memory for `Router::compute_into` and the
/// delta-aware `Router::recompute_*_into` entry points.
///
/// Holds everything a recompute needs between TDMA frames: the phase-1
/// weight matrix, the sparse adjacency lists (plus their transpose) and
/// Dijkstra workspace of phase 2, the per-source shortest-path trees and
/// repair scratch of the incremental pipeline, and the previous-table
/// snapshot phase 3's deadlock avoidance reads. All buffers retain
/// capacity across calls, so once the scratch has seen the system's
/// dimensions, recomputes perform **no heap allocation** (verified by
/// the `zero_alloc` integration test).
///
/// A scratch may be reused across different graphs/routers — it resizes
/// as needed — but the cached state that powers the repair path is
/// keyed to the previous call's inputs, so mixing callers simply falls
/// back to full recomputes.
#[derive(Debug, Default)]
pub struct RoutingScratch {
    /// Phase-1 weight matrix of the *previous* call (the "old" side of
    /// the frame's edge-delta stream), updated in place to the current
    /// weights.
    pub(crate) weights: Matrix<f64>,
    /// Sparse adjacency mirroring `weights`, kept in sync incrementally.
    pub(crate) adjacency: AdjacencyList,
    /// Transposed adjacency (in-edge lists) for the repair pipeline's
    /// achiever scans; valid only while `trees_valid` holds.
    pub(crate) in_adjacency: AdjacencyList,
    /// Per-source Dijkstra working memory.
    pub(crate) dijkstra: DijkstraScratch,
    /// Per-source shortest-path trees the incremental repair advances.
    pub(crate) trees: SpTreeStore,
    /// Batch-repair working memory.
    pub(crate) repair: RepairScratch,
    /// `true` while `trees`/`in_adjacency` describe the current weights
    /// (set by the repair pipeline, cleared by full recomputes).
    pub(crate) trees_valid: bool,
    /// Snapshot of the previous table's first hops (deadlock avoidance).
    pub(crate) prev_hops: Vec<Option<NodeId>>,
    /// Nodes whose battery bucket or liveness changed this frame.
    pub(crate) dirty: Vec<usize>,
    /// Dirty-membership flags (edge-delta extraction dedup).
    pub(crate) dirty_mark: Vec<bool>,
    /// The frame's extracted edge-weight deltas (phase 1 output).
    pub(crate) deltas: Vec<etx_graph::WeightDelta>,
    /// Per-source bitmasks of the modules whose table entries must be
    /// refreshed this frame (bit `m` = "source's distance to some
    /// duplicate of module `m` may have changed"); `u64::MAX` marks a
    /// whole-row rebuild (re-run sources, or > 64 modules).
    pub(crate) row_mask: Vec<u64>,
    /// Per-node bitmask of the modules hosting the node (the
    /// touched-set → changed-entries translation table, and the key of
    /// the one-pass table row fill), refreshed before every full table
    /// build; empty past 64 modules.
    pub(crate) dup_mask: Vec<u64>,
    /// Per-node liveness the current table was built against.
    pub(crate) prev_alive: Vec<bool>,
    /// Whether any node was deadlocked when the current table was built.
    pub(crate) prev_any_deadlock: bool,
    /// The module placement the current table was built against.
    pub(crate) prev_modules: Vec<Vec<NodeId>>,
    /// `true` while `prev_alive`/`prev_any_deadlock`/`prev_modules`
    /// describe the table currently held by the paired `RoutingState`.
    pub(crate) table_cache_valid: bool,
    /// What the cached `weights`/`adjacency` were built from.
    pub(crate) key: Option<WeightsKey>,
    /// Let the full Dijkstra backend fan sources out over threads.
    /// Defaults to `false`: thread spawning allocates, and the steady
    /// state of the simulator must not.
    pub(crate) parallel: bool,
    /// The per-run recompute counters, reported by
    /// [`RoutingScratch::stats`].
    pub(crate) stats: RecomputeStats,
    /// Where the repair pipeline reports its stage timings
    /// (delta-extract / increase / decrease / table spans). Defaults to
    /// the shared no-op registry: one relaxed load and branch per stage,
    /// no timing, no allocation.
    pub(crate) metrics: MetricsHandle,
}

impl RoutingScratch {
    /// An empty scratch; buffers grow on first use and are retained.
    #[must_use]
    pub fn new() -> Self {
        RoutingScratch::default()
    }

    /// Enables the scoped-thread fan-out for *full* Dijkstra recomputes.
    ///
    /// Spawning threads allocates, so leave this off (the default) on
    /// paths that rely on the zero-allocation guarantee; the delta and
    /// repair paths are always serial.
    #[must_use]
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Points the repair pipeline's stage spans (`routing.repair.*`) at
    /// a metrics registry. The default no-op handle costs one relaxed
    /// load per stage; a counters-only registry records nothing for
    /// spans; a full registry captures per-stage latency histograms.
    pub fn set_metrics(&mut self, metrics: MetricsHandle) {
        self.metrics = metrics;
    }

    /// Snapshot of every recompute counter.
    #[must_use]
    pub fn stats(&self) -> RecomputeStats {
        self.stats
    }

    /// Prepares this scratch for reuse by an unrelated caller (a new
    /// simulation instance drawing it from a pool): drops the cached
    /// weight fingerprint and shortest-path trees so the next call runs
    /// a clean full recompute, and zeroes the per-run counters. All
    /// buffer *capacity* is retained — that is the whole point of
    /// pooling — so a scratch that has seen a fleet's largest fabric
    /// never reallocates for a smaller one.
    pub fn recycle(&mut self) {
        self.key = None;
        self.trees_valid = false;
        self.table_cache_valid = false;
        self.metrics = MetricsHandle::default();
        self.stats = RecomputeStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::RecomputeStats;

    #[test]
    fn delta_since_subtracts_every_counter() {
        let prev = RecomputeStats {
            full_recomputes: 1,
            repair_recomputes: 3,
            repaired_sources: 4,
            fallback_sources: 5,
            decrease_repairs: 6,
            decrease_nodes_improved: 7,
            table_delta_rebuilds: 8,
            table_entries_rebuilt: 9,
            table_cells_patched: 10,
            nodes_scanned: 12,
        };
        let now = RecomputeStats {
            full_recomputes: 10,
            repair_recomputes: 33,
            repaired_sources: 44,
            fallback_sources: 55,
            decrease_repairs: 66,
            decrease_nodes_improved: 77,
            table_delta_rebuilds: 88,
            table_entries_rebuilt: 99,
            table_cells_patched: 110,
            nodes_scanned: 132,
        };
        let delta = now.delta_since(&prev);
        assert_eq!(
            delta,
            RecomputeStats {
                full_recomputes: 9,
                repair_recomputes: 30,
                repaired_sources: 40,
                fallback_sources: 50,
                decrease_repairs: 60,
                decrease_nodes_improved: 70,
                table_delta_rebuilds: 80,
                table_entries_rebuilt: 90,
                table_cells_patched: 100,
                nodes_scanned: 120,
            }
        );
        // Diffing against itself is zero; against Default is identity.
        assert_eq!(now.delta_since(&now), RecomputeStats::default());
        assert_eq!(now.delta_since(&RecomputeStats::default()), now);
        // A recycled (zeroed) current snapshot wraps instead of panicking.
        let wrapped = RecomputeStats::default().delta_since(&prev);
        assert_eq!(wrapped.full_recomputes, 0u64.wrapping_sub(1));
    }

    #[test]
    fn record_into_maps_every_counter() {
        use etx_metrics::{CounterId, Registry};
        let stats = RecomputeStats {
            full_recomputes: 1,
            repair_recomputes: 3,
            repaired_sources: 4,
            fallback_sources: 5,
            decrease_repairs: 6,
            decrease_nodes_improved: 7,
            table_delta_rebuilds: 8,
            table_entries_rebuilt: 9,
            table_cells_patched: 10,
            nodes_scanned: 12,
        };
        let registry = Registry::counters_only();
        stats.record_into(&registry);
        stats.record_into(&registry); // additive, like the counters themselves
        assert_eq!(registry.counter(CounterId::RoutingFullRecomputes), 2);
        assert_eq!(registry.counter(CounterId::RoutingDecreaseNodesImproved), 14);
        assert_eq!(registry.counter(CounterId::RoutingNodesScanned), 24);
    }
}
