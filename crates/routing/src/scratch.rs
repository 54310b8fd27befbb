//! The [`RoutingScratch`] reusable workspace for zero-allocation routing
//! recomputes, and the [`RecomputeStats`] counter snapshot.

use core::fmt;
use core::ops::AddAssign;

use etx_graph::{AdjacencyList, DijkstraScratch, RepairScratch, SpTreeStore};
use etx_metrics::{CounterId, MetricsHandle, Registry};

use crate::table::TableCache;
use crate::{Algorithm, BatteryWeighting};

/// Identifies the inputs the scratch's cached phase-1 adjacency list was
/// built from; the delta-aware recompute only engages when the
/// fingerprint of the current call matches the previous one.
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
    /// increase+decrease frontier exceeds the cost-gate fraction, when
    /// its shortest-path tree is stale (first frame after a full
    /// recompute, recycled scratch, a wide frame before), or when its
    /// frame's sample judged the frame wide.
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
    /// The `routing.*` metrics counter behind each field, in field order
    /// — the one ordered list of the ten counters. It is the contiguous
    /// `routing.*` block of [`CounterId::ALL`]; [`RecomputeStats::to_array`]
    /// and [`RecomputeStats::from_array`] use the same order, and so do
    /// the frame-trace record slots and the fleet JSON keys.
    pub const COUNTERS: [CounterId; 10] = [
        CounterId::RoutingFullRecomputes,
        CounterId::RoutingRepairRecomputes,
        CounterId::RoutingRepairedSources,
        CounterId::RoutingFallbackSources,
        CounterId::RoutingDecreaseRepairs,
        CounterId::RoutingDecreaseNodesImproved,
        CounterId::RoutingTableDeltaRebuilds,
        CounterId::RoutingTableEntriesRebuilt,
        CounterId::RoutingTableCellsPatched,
        CounterId::RoutingNodesScanned,
    ];

    /// The counter values in [`RecomputeStats::COUNTERS`] order.
    #[must_use]
    pub fn to_array(&self) -> [u64; 10] {
        [
            self.full_recomputes,
            self.repair_recomputes,
            self.repaired_sources,
            self.fallback_sources,
            self.decrease_repairs,
            self.decrease_nodes_improved,
            self.table_delta_rebuilds,
            self.table_entries_rebuilt,
            self.table_cells_patched,
            self.nodes_scanned,
        ]
    }

    /// The inverse of [`RecomputeStats::to_array`].
    #[must_use]
    pub fn from_array(values: [u64; 10]) -> Self {
        RecomputeStats {
            full_recomputes: values[0],
            repair_recomputes: values[1],
            repaired_sources: values[2],
            fallback_sources: values[3],
            decrease_repairs: values[4],
            decrease_nodes_improved: values[5],
            table_delta_rebuilds: values[6],
            table_entries_rebuilt: values[7],
            table_cells_patched: values[8],
            nodes_scanned: values[9],
        }
    }

    /// Field-wise difference against an earlier snapshot of the same
    /// counters: what happened *since* `prev`. Per-frame consumers (the
    /// frame recorder, metrics flush, benches) diff two cumulative
    /// snapshots.
    ///
    /// Counters are monotone while a scratch lives, but a recycle zeroes
    /// them mid-stream; `wrapping_sub` keeps the helper total so a stale
    /// `prev` can't panic in release-vs-debug-divergent ways.
    #[must_use]
    pub fn delta_since(&self, prev: &RecomputeStats) -> RecomputeStats {
        let (now, prev) = (self.to_array(), prev.to_array());
        RecomputeStats::from_array(core::array::from_fn(|i| now[i].wrapping_sub(prev[i])))
    }

    /// Adds these counters into a metrics [`Registry`] under the
    /// `routing.*` cost counters — the one bridge between the scratch's
    /// plain per-run counters and the cross-layer metrics catalog.
    /// Callers feed per-frame [`RecomputeStats::delta_since`] deltas so
    /// the registry totals stay exact across scratch recycles.
    pub fn record_into(&self, registry: &Registry) {
        for (id, value) in RecomputeStats::COUNTERS.into_iter().zip(self.to_array()) {
            registry.add(id, value);
        }
    }
}

/// Field-wise sum: how per-run counters total up fleet-wide.
impl AddAssign for RecomputeStats {
    fn add_assign(&mut self, other: RecomputeStats) {
        let (mut sum, other) = (self.to_array(), other.to_array());
        for (total, value) in sum.iter_mut().zip(other) {
            *total += value;
        }
        *self = RecomputeStats::from_array(sum);
    }
}

/// The one-line prose summary `SimReport` and the fleet aggregate
/// print after their own label.
impl fmt::Display for RecomputeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} full, {} repair ({} sources repaired, {} re-run, \
             {} decrease-repaired / {} nodes improved); \
             table: {} delta rebuilds, {} entries ({} challenge-patched); \
             {} nodes scanned",
            self.full_recomputes,
            self.repair_recomputes,
            self.repaired_sources,
            self.fallback_sources,
            self.decrease_repairs,
            self.decrease_nodes_improved,
            self.table_delta_rebuilds,
            self.table_entries_rebuilt,
            self.table_cells_patched,
            self.nodes_scanned,
        )
    }
}

/// Preallocated working memory for the in-place entry point,
/// [`Router::recompute_dirty_into`](crate::Router::recompute_dirty_into).
///
/// Holds everything a recompute needs between TDMA frames: the phase-1
/// weights as a sparse adjacency list (plus its transpose), the
/// Dijkstra workspace of phase 2, the per-source shortest-path trees
/// (`u16` link planes) and repair scratch of the incremental pipeline,
/// and phase 3's table cache (the inputs the paired table was built
/// against and the previous table's first hops).
/// No `K × K` weight matrix exists: at `K = 1024` the phase-1 store is
/// about 4 links per node instead of 8 MB. All buffers retain capacity
/// across calls, so once the scratch has seen the system's dimensions,
/// recomputes perform **no heap allocation** (verified by the
/// `zero_alloc` integration test).
///
/// A scratch may be reused across different graphs/routers — it resizes
/// as needed — but the cached state that powers the repair path is
/// keyed to the previous call's inputs, so mixing callers simply falls
/// back to full recomputes.
#[derive(Debug, Default)]
pub struct RoutingScratch {
    /// The phase-1 weights: each node's usable out-links, ascending by
    /// neighbour id. Filled from the graph and the report by a full
    /// recompute; between frames it holds the *previous* call's weights
    /// (the "old" side of the frame's edge-delta stream) until stage 1
    /// applies the deltas in place.
    pub(crate) adjacency: AdjacencyList,
    /// Transposed adjacency (in-edge lists) for the repair pipeline's
    /// achiever scans; kept in step with `adjacency` while any source's
    /// tree is valid (see `stale`).
    pub(crate) in_adjacency: AdjacencyList,
    /// Per-source Dijkstra working memory.
    pub(crate) dijkstra: DijkstraScratch,
    /// Per-source shortest-path trees the incremental repair advances;
    /// row `s` is meaningful only while `stale[s]` is clear.
    pub(crate) trees: SpTreeStore,
    /// Batch-repair working memory.
    pub(crate) repair: RepairScratch,
    /// One mark per source: `true` when the source's tree row does not
    /// describe its distance and successor rows, so the source must
    /// re-run with tree recording before it may repair. Full
    /// recomputes, recycles and a wide frame's plain re-solves set it;
    /// recorded re-runs clear it; repairs keep it clear. Sized with
    /// every full recompute (which marks every source), so repair
    /// frames never grow it.
    pub(crate) stale: Vec<bool>,
    /// Nodes whose battery bucket or liveness changed this frame.
    pub(crate) dirty: Vec<usize>,
    /// Dirty-membership flags (edge-delta extraction dedup).
    pub(crate) dirty_mark: Vec<bool>,
    /// The frame's extracted edge-weight deltas (phase 1 output).
    pub(crate) deltas: Vec<etx_graph::WeightDelta>,
    /// Phase 3's incremental state: the inputs the paired table was
    /// built against, the previous table's first hops and the frame's
    /// row marks. It decides how each frame refreshes the table.
    pub(crate) table: TableCache,
    /// What the cached `adjacency` was built from.
    pub(crate) key: Option<WeightsKey>,
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
        self.stale.fill(true);
        self.table.invalidate();
        self.metrics = MetricsHandle::default();
        self.stats = RecomputeStats::default();
    }
}

#[cfg(test)]
mod tests {
    use etx_metrics::{CounterId, Registry};

    use super::RecomputeStats;

    /// Ten distinct values, each set by field name.
    fn named() -> RecomputeStats {
        RecomputeStats {
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
        }
    }

    #[test]
    fn delta_since_subtracts_every_counter() {
        let prev = named();
        let now = RecomputeStats::from_array(prev.to_array().map(|v| 11 * v));
        assert_eq!(now.delta_since(&prev).to_array(), prev.to_array().map(|v| 10 * v));
        // Diffing against itself is zero; against Default is identity.
        assert_eq!(now.delta_since(&now), RecomputeStats::default());
        assert_eq!(now.delta_since(&RecomputeStats::default()), now);
        // A recycled (zeroed) current snapshot wraps instead of panicking.
        let wrapped = RecomputeStats::default().delta_since(&prev);
        assert_eq!(wrapped.full_recomputes, 0u64.wrapping_sub(1));
    }

    #[test]
    fn counter_list_follows_the_field_names() {
        let stats = named();
        assert_eq!(stats.to_array(), [1, 3, 4, 5, 6, 7, 8, 9, 10, 12]);
        assert_eq!(RecomputeStats::from_array(stats.to_array()), stats);
        // The list is the contiguous `routing.*` block of the catalog.
        let start = CounterId::ALL
            .iter()
            .position(|&id| id == RecomputeStats::COUNTERS[0])
            .expect("routing counters are catalogued");
        assert_eq!(CounterId::ALL[start..start + 10], RecomputeStats::COUNTERS);
        let routing: Vec<CounterId> =
            CounterId::ALL.into_iter().filter(|id| id.name().starts_with("routing.")).collect();
        assert_eq!(routing, RecomputeStats::COUNTERS);

        let mut sum = stats;
        sum += stats;
        assert_eq!(sum.to_array(), [2, 6, 8, 10, 12, 14, 16, 18, 20, 24]);
        assert_eq!(
            stats.to_string(),
            "1 full, 3 repair (4 sources repaired, 5 re-run, 6 decrease-repaired / \
             7 nodes improved); table: 8 delta rebuilds, 9 entries (10 challenge-patched); \
             12 nodes scanned"
        );
    }

    #[test]
    fn record_into_maps_every_counter() {
        let registry = Registry::counters_only();
        named().record_into(&registry);
        named().record_into(&registry); // additive, like the counters themselves
        for (id, want) in [
            (CounterId::RoutingFullRecomputes, 2),
            (CounterId::RoutingRepairRecomputes, 6),
            (CounterId::RoutingRepairedSources, 8),
            (CounterId::RoutingFallbackSources, 10),
            (CounterId::RoutingDecreaseRepairs, 12),
            (CounterId::RoutingDecreaseNodesImproved, 14),
            (CounterId::RoutingTableDeltaRebuilds, 16),
            (CounterId::RoutingTableEntriesRebuilt, 18),
            (CounterId::RoutingTableCellsPatched, 20),
            (CounterId::RoutingNodesScanned, 24),
        ] {
            assert_eq!(registry.counter(id), want, "{}", id.name());
        }
    }
}
