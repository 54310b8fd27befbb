//! The static metric catalog: every metric the workspace records has a
//! fixed ID here, assigned at compile time. IDs are plain array indices
//! — the record path never hashes, interns or looks up a name; names
//! exist only at export time.
//!
//! Each metric carries a determinism [`Class`]:
//!
//! * [`Class::Stable`] — identical across shard counts **and**
//!   recompute strategies: results-level counts. Only these
//!   appear in the deterministic export
//!   ([`MetricsSnapshot::to_json`](crate::MetricsSnapshot::to_json)),
//!   which is what keeps `fleet --metrics` byte-identical across every
//!   execution plan.
//! * [`Class::Cost`] — identical across shard counts but legitimately
//!   strategy-dependent: the routing recompute cost counters
//!   (exactly the set CI masks with `grep -v '"recompute"'`). The
//!   `net.*` wire counters also ride in this class: they are
//!   traffic-shaped rather than results-level, so they must stay out of
//!   the deterministic export, yet they are exact integers worth having
//!   in the full export (unlike the `Wall` histograms).
//! * [`Class::Wall`] — wall-clock span/latency histograms; never
//!   deterministic, never exported in deterministic snapshots.

/// Determinism class of a metric (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Identical across shard counts and strategies.
    Stable,
    /// Identical across shard counts; strategy-dependent cost.
    Cost,
    /// Wall-clock timing; nondeterministic by nature.
    Wall,
}

/// Fixed IDs of every counter in the workspace. The discriminant is the
/// counter's slot in [`Registry`](crate::Registry) and
/// [`MetricsSnapshot`](crate::MetricsSnapshot): new counters go at the
/// end, and any change to the slots — an append, or a removal that
/// renumbers the counters after it — bumps
/// [`MetricsSnapshot::VERSION`](crate::MetricsSnapshot::VERSION).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum CounterId {
    /// Fleet instances built and run (rejected samples excluded).
    FleetInstances = 0,
    /// Engine TDMA frames executed.
    SimFrames = 1,
    /// Frames whose report change triggered a routing recompute.
    SimRecomputes = 2,
    /// Frames delivered to an attached frame recorder.
    SimFramesRecorded = 3,
    /// Jobs fully completed.
    SimJobsCompleted = 4,
    /// Jobs lost to node deaths.
    SimJobsLost = 5,
    /// Query batches executed by a serve frontend.
    ServeBatches = 6,
    /// Table snapshots published through an epoch publisher.
    ServePublishes = 7,
    /// NextHop point lookups answered.
    ServeQueriesNextHop = 8,
    /// Cost lookups answered.
    ServeQueriesCost = 9,
    /// Full-path queries answered.
    ServeQueriesPath = 10,
    /// Recomputes that ran a full phase 2.
    RoutingFullRecomputes = 11,
    /// Recomputes that took the incremental repair pipeline.
    RoutingRepairRecomputes = 12,
    /// Sources repaired in place across all repair recomputes.
    RoutingRepairedSources = 13,
    /// Sources the repair pipeline re-ran in full.
    RoutingFallbackSources = 14,
    /// Sources whose repair engaged the decrease half.
    RoutingDecreaseRepairs = 15,
    /// Nodes improved across all decrease-half repairs.
    RoutingDecreaseNodesImproved = 16,
    /// Recomputes whose phase 3 took the delta-aware row rebuild.
    RoutingTableDeltaRebuilds = 17,
    /// `(node, module)` table entries refreshed.
    RoutingTableEntriesRebuilt = 18,
    /// Table entries refreshed by the `O(1)` challenge patch.
    RoutingTableCellsPatched = 19,
    /// Node states examined by per-frame bookkeeping.
    RoutingNodesScanned = 20,
    /// Daemon connections accepted.
    NetConnections = 21,
    /// Wire frames decoded off client connections.
    NetFramesIn = 22,
    /// Wire frames written back to clients.
    NetFramesOut = 23,
    /// Bytes received in whole frames (length prefix plus payload).
    NetBytesIn = 24,
    /// Bytes sent in whole frames (length prefix plus payload).
    NetBytesOut = 25,
    /// Query batches accepted off the wire.
    NetQueryRequests = 26,
    /// Telemetry-ingest frames applied to a served fabric.
    NetIngests = 27,
    /// Requests shed by a full shard queue (load-shedding responses).
    NetShedTotal = 28,
    /// Malformed/oversized/unknown frames answered with an error frame.
    NetProtocolErrors = 29,
}

impl CounterId {
    /// Number of counters in the catalog.
    pub const COUNT: usize = 30;

    /// Every counter, in export order.
    pub const ALL: [CounterId; CounterId::COUNT] = [
        CounterId::FleetInstances,
        CounterId::SimFrames,
        CounterId::SimRecomputes,
        CounterId::SimFramesRecorded,
        CounterId::SimJobsCompleted,
        CounterId::SimJobsLost,
        CounterId::ServeBatches,
        CounterId::ServePublishes,
        CounterId::ServeQueriesNextHop,
        CounterId::ServeQueriesCost,
        CounterId::ServeQueriesPath,
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
        CounterId::NetConnections,
        CounterId::NetFramesIn,
        CounterId::NetFramesOut,
        CounterId::NetBytesIn,
        CounterId::NetBytesOut,
        CounterId::NetQueryRequests,
        CounterId::NetIngests,
        CounterId::NetShedTotal,
        CounterId::NetProtocolErrors,
    ];

    /// The counter's export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CounterId::FleetInstances => "fleet.instances",
            CounterId::SimFrames => "sim.frames",
            CounterId::SimRecomputes => "sim.recomputes",
            CounterId::SimFramesRecorded => "sim.frames_recorded",
            CounterId::SimJobsCompleted => "sim.jobs_completed",
            CounterId::SimJobsLost => "sim.jobs_lost",
            CounterId::ServeBatches => "serve.batches",
            CounterId::ServePublishes => "serve.publishes",
            CounterId::ServeQueriesNextHop => "serve.queries_next_hop",
            CounterId::ServeQueriesCost => "serve.queries_cost",
            CounterId::ServeQueriesPath => "serve.queries_path",
            CounterId::RoutingFullRecomputes => "routing.full_recomputes",
            CounterId::RoutingRepairRecomputes => "routing.repair_recomputes",
            CounterId::RoutingRepairedSources => "routing.repaired_sources",
            CounterId::RoutingFallbackSources => "routing.fallback_sources",
            CounterId::RoutingDecreaseRepairs => "routing.decrease_repairs",
            CounterId::RoutingDecreaseNodesImproved => "routing.decrease_nodes_improved",
            CounterId::RoutingTableDeltaRebuilds => "routing.table_delta_rebuilds",
            CounterId::RoutingTableEntriesRebuilt => "routing.table_entries_rebuilt",
            CounterId::RoutingTableCellsPatched => "routing.table_cells_patched",
            CounterId::RoutingNodesScanned => "routing.nodes_scanned",
            CounterId::NetConnections => "net.connections",
            CounterId::NetFramesIn => "net.frames_in",
            CounterId::NetFramesOut => "net.frames_out",
            CounterId::NetBytesIn => "net.bytes_in",
            CounterId::NetBytesOut => "net.bytes_out",
            CounterId::NetQueryRequests => "net.query_requests",
            CounterId::NetIngests => "net.ingests",
            CounterId::NetShedTotal => "net.shed_total",
            CounterId::NetProtocolErrors => "net.protocol_errors",
        }
    }

    /// The counter's determinism class ([`Class::Stable`] or
    /// [`Class::Cost`]).
    #[must_use]
    pub fn class(self) -> Class {
        match self {
            CounterId::FleetInstances
            | CounterId::SimFrames
            | CounterId::SimRecomputes
            | CounterId::SimFramesRecorded
            | CounterId::SimJobsCompleted
            | CounterId::SimJobsLost
            | CounterId::ServeBatches
            | CounterId::ServePublishes
            | CounterId::ServeQueriesNextHop
            | CounterId::ServeQueriesCost
            | CounterId::ServeQueriesPath => Class::Stable,
            _ => Class::Cost,
        }
    }

    /// The counter's registry/snapshot slot.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Fixed IDs of every gauge (merged by `max`, so fleet-wide merges stay
/// order-independent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum GaugeId {
    /// Highest routing-table version any instance reached.
    SimRoutingVersion = 0,
    /// Highest snapshot epoch any publisher reached.
    ServeEpoch = 1,
    /// Deepest any bounded shard queue got (high-water occupancy).
    NetQueueDepthPeak = 2,
}

impl GaugeId {
    /// Number of gauges in the catalog.
    pub const COUNT: usize = 3;

    /// Every gauge, in export order.
    pub const ALL: [GaugeId; GaugeId::COUNT] =
        [GaugeId::SimRoutingVersion, GaugeId::ServeEpoch, GaugeId::NetQueueDepthPeak];

    /// The gauge's export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::SimRoutingVersion => "sim.routing_version",
            GaugeId::ServeEpoch => "serve.epoch",
            GaugeId::NetQueueDepthPeak => "net.queue_depth_peak",
        }
    }

    /// The gauge's registry/snapshot slot.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Fixed IDs of every span/latency histogram (all [`Class::Wall`]):
/// scoped phase timers plus the serve per-lane latency distributions,
/// in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum SpanId {
    /// Engine frame phase: battery-status upload pass.
    SimFrameUpload = 0,
    /// Engine frame phase: routing recompute.
    SimFrameRecompute = 1,
    /// Engine frame phase: table publish (`TableObserver::on_tables`).
    SimFramePublish = 2,
    /// Engine frame phase: frame-trace recorder hook.
    SimFrameRecord = 3,
    /// Repair stage 1: edge-delta extraction + weight sync.
    RoutingRepairDelta = 4,
    /// Repair stage 2, increase half (subtree-walk repairs + reruns).
    RoutingRepairIncrease = 5,
    /// Repair stage 2, decrease half (improvement propagation).
    RoutingRepairDecrease = 6,
    /// Repair stage 3: table rebuild-or-patch sweep.
    RoutingRepairTable = 7,
    /// Serve batch stage: `(fabric, source)` sort.
    ServeBatchSort = 8,
    /// Serve batch stage: per-type lane split of one fabric group.
    ServeBatchSplit = 9,
    /// Snapshot publish (epoch swap) latency.
    ServePublish = 10,
    /// Per-query latency, NextHop lane.
    ServeLatencyNextHop = 11,
    /// Per-query latency, Cost lane.
    ServeLatencyCost = 12,
    /// Per-query latency, Path lane.
    ServeLatencyPath = 13,
    /// Daemon connection handshake (accept to HELLO_ACK written).
    NetAccept = 14,
    /// Wire frame decode (length prefix stripped to work item built).
    NetDecode = 15,
    /// Shard-worker execution of one wire request.
    NetExecute = 16,
    /// Response frame encode + socket write.
    NetEncode = 17,
    /// Wire round-trip share per NextHop query (decode to response written).
    NetWireNextHop = 18,
    /// Wire round-trip share per Cost query (decode to response written).
    NetWireCost = 19,
    /// Wire round-trip share per Path query (decode to response written).
    NetWirePath = 20,
}

impl SpanId {
    /// Number of span/latency histograms in the catalog.
    pub const COUNT: usize = 21;

    /// Every span, in export order.
    pub const ALL: [SpanId; SpanId::COUNT] = [
        SpanId::SimFrameUpload,
        SpanId::SimFrameRecompute,
        SpanId::SimFramePublish,
        SpanId::SimFrameRecord,
        SpanId::RoutingRepairDelta,
        SpanId::RoutingRepairIncrease,
        SpanId::RoutingRepairDecrease,
        SpanId::RoutingRepairTable,
        SpanId::ServeBatchSort,
        SpanId::ServeBatchSplit,
        SpanId::ServePublish,
        SpanId::ServeLatencyNextHop,
        SpanId::ServeLatencyCost,
        SpanId::ServeLatencyPath,
        SpanId::NetAccept,
        SpanId::NetDecode,
        SpanId::NetExecute,
        SpanId::NetEncode,
        SpanId::NetWireNextHop,
        SpanId::NetWireCost,
        SpanId::NetWirePath,
    ];

    /// The span's export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanId::SimFrameUpload => "sim.frame.upload",
            SpanId::SimFrameRecompute => "sim.frame.recompute",
            SpanId::SimFramePublish => "sim.frame.publish",
            SpanId::SimFrameRecord => "sim.frame.record",
            SpanId::RoutingRepairDelta => "routing.repair.delta_extract",
            SpanId::RoutingRepairIncrease => "routing.repair.increase",
            SpanId::RoutingRepairDecrease => "routing.repair.decrease",
            SpanId::RoutingRepairTable => "routing.repair.table",
            SpanId::ServeBatchSort => "serve.batch.sort",
            SpanId::ServeBatchSplit => "serve.batch.split",
            SpanId::ServePublish => "serve.publish",
            SpanId::ServeLatencyNextHop => "serve.latency.next_hop",
            SpanId::ServeLatencyCost => "serve.latency.cost",
            SpanId::ServeLatencyPath => "serve.latency.path",
            SpanId::NetAccept => "net.accept",
            SpanId::NetDecode => "net.decode",
            SpanId::NetExecute => "net.execute",
            SpanId::NetEncode => "net.encode",
            SpanId::NetWireNextHop => "net.wire.next_hop",
            SpanId::NetWireCost => "net.wire.cost",
            SpanId::NetWirePath => "net.wire.path",
        }
    }

    /// The span's registry/snapshot slot.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_ids_are_dense_and_names_unique() {
        for (i, id) in CounterId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i, "counter {id:?} out of slot");
        }
        for (i, id) in GaugeId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i, "gauge {id:?} out of slot");
        }
        for (i, id) in SpanId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i, "span {id:?} out of slot");
        }
        let mut names: Vec<&str> = CounterId::ALL.iter().map(|c| c.name()).collect();
        names.extend(GaugeId::ALL.iter().map(|g| g.name()));
        names.extend(SpanId::ALL.iter().map(|s| s.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name in the catalog");
    }

    #[test]
    fn stable_counters_precede_cost_counters() {
        // The export formats group by class; keeping the catalog sorted
        // Stable-then-Cost keeps both groupings in slot order.
        let first_cost =
            CounterId::ALL.iter().position(|c| c.class() == Class::Cost).unwrap_or(usize::MAX);
        for (i, id) in CounterId::ALL.iter().enumerate() {
            match id.class() {
                Class::Stable => assert!(i < first_cost, "{id:?} after a Cost counter"),
                Class::Cost => assert!(i >= first_cost),
                Class::Wall => panic!("counters are never Wall"),
            }
        }
    }
}
