//! Batched route queries: the [`QueryBatch`] / [`QueryOutput`] pair and
//! the lane-split per-snapshot execution core.
//!
//! Queries address a `(fabric, source)` pair; batches sort themselves by
//! `(fabric, source)` before execution so all lookups against one
//! fabric's snapshot — and within it, one source's table row and
//! all-pairs rows — land back to back, amortizing cache misses across
//! the batch. The sort is a stable LSD radix sort over the low bits of
//! `fabric` and `source` up to the highest bit that varies within the
//! batch, linear in the batch length, with buffers sized by the batch,
//! not the fleet;
//! single-fabric batches skip it entirely and run in submission order,
//! as before. Each fabric's sorted group is then split into
//! per-type **lanes** — NextHop, Cost, Path — and every lane runs as a
//! tight cache-blocked loop over exactly the snapshot planes that query
//! type reads: next-hop lookups gather from the route table's two index
//! planes and its distance plane, gated by the destination lane's
//! sentinel; cost lookups touch only the phase-2 distance plane; path
//! walks ([`RoutingState::path_into`](etx_routing::RoutingState::path_into))
//! run last so the shared node arena fills in sorted order. Results
//! land in **caller-owned** buffers in the original
//! submission order (the sort is an internal permutation), and every
//! buffer is reused across batches: once warmed, the execute path
//! performs no heap allocation — the same counting-allocator discipline
//! as the routing kernel's `RoutingScratch`.

use etx_graph::NodeId;
use etx_metrics::{CounterId, Registry, SpanId};
use etx_routing::RouteEntry;

use crate::snapshot::TableSnapshot;

/// One route query against a fabric's published tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Point lookup: the full routing-table entry (destination, first
    /// hop, cost) for packets of `module` originating at `source`.
    NextHop {
        /// Fabric instance the query addresses.
        fabric: u32,
        /// Originating node.
        source: NodeId,
        /// Module whose nearest live duplicate is wanted.
        module: u32,
    },
    /// Full-path materialization: the entry plus the complete node
    /// sequence to the chosen destination.
    Path {
        /// Fabric instance the query addresses.
        fabric: u32,
        /// Originating node.
        source: NodeId,
        /// Module whose nearest live duplicate is wanted.
        module: u32,
    },
    /// Path-cost lookup between two nodes (phase-2 distance).
    Cost {
        /// Fabric instance the query addresses.
        fabric: u32,
        /// Path source.
        source: NodeId,
        /// Path target.
        target: NodeId,
    },
}

impl Query {
    /// The fabric this query addresses.
    #[must_use]
    pub fn fabric(&self) -> u32 {
        match self {
            Query::NextHop { fabric, .. }
            | Query::Path { fabric, .. }
            | Query::Cost { fabric, .. } => *fabric,
        }
    }

    /// The originating node (the second sort key).
    #[must_use]
    pub fn source(&self) -> NodeId {
        match self {
            Query::NextHop { source, .. }
            | Query::Path { source, .. }
            | Query::Cost { source, .. } => *source,
        }
    }
}

/// One query's answer. Path node sequences live in the
/// [`QueryOutput`]'s arena; resolve them with [`QueryOutput::path_nodes`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryResult {
    /// Answer to [`Query::NextHop`] (`None`: no live duplicate
    /// reachable, or the source/module is out of range).
    NextHop(Option<RouteEntry>),
    /// Answer to [`Query::Path`]: the resolved entry plus the arena
    /// range holding the node sequence (empty when `None`).
    Path {
        /// The resolved table entry, if a route exists.
        entry: Option<RouteEntry>,
        /// `[start, end)` range into the output's path arena.
        nodes: (u32, u32),
    },
    /// Answer to [`Query::Cost`] (`None`: unreachable or out of range).
    Cost(Option<f64>),
    /// The addressed fabric is not served by this frontend.
    UnknownFabric,
}

/// Lane slots per cache block of a gather pass: 512 slots touch at most
/// ~6 KiB of plane data (u16 dest + u16 next_hop + f64 distance), so a
/// block's plane segments stay L1-resident while its results scatter.
const LANE_BLOCK: usize = 512;

/// The out-of-range marker in a lane's pre-resolved flat indices: the
/// split pass bounds-checks once, so the gather loops never re-examine
/// the query.
const OUT_OF_RANGE: usize = usize::MAX;

/// Reusable lane storage for one executor: the per-type splits of a
/// fabric group's sorted order. NextHop and Cost slots carry their
/// pre-resolved flat plane index (`OUT_OF_RANGE` when the query misses
/// the fabric's dimensions), so the gather loops are pure plane reads —
/// the 16-byte `Query` is decoded exactly once, in the split pass. All
/// buffers are retained across batches (zero steady-state allocation).
#[derive(Debug, Clone, Default)]
pub struct LaneScratch {
    next_hop: Vec<(u32, usize)>,
    cost: Vec<(u32, usize)>,
    path: Vec<u32>,
}

/// Executes one fabric group of the sorted order against its pinned
/// snapshot (`None`: the fabric is unserved — every query answers
/// [`QueryResult::UnknownFabric`]), writing each answer to `results` at
/// its submission index.
///
/// The group is split into per-type lanes and each lane runs as a tight
/// loop over its planes. Lanes preserve the group's internal order, and
/// the Path lane runs **last**, appending to `arena` — since no other
/// lane touches the arena, the arena bytes (and every result's arena
/// range) are identical to a query-at-a-time dispatch over the same
/// order.
pub(crate) fn execute_group(
    metrics: &Registry,
    snapshot: Option<&TableSnapshot>,
    order: &[u32],
    queries: &[Query],
    lanes: &mut LaneScratch,
    arena: &mut Vec<NodeId>,
    results: &mut [QueryResult],
) {
    let Some(snap) = snapshot else {
        for &oi in order {
            results[oi as usize] = QueryResult::UnknownFabric;
        }
        return;
    };
    {
        let _split_span = metrics.span(SpanId::ServeBatchSplit);
        lanes.next_hop.clear();
        lanes.cost.clear();
        lanes.path.clear();
        // Reserve to the group bound, not the split sizes: lane lengths
        // vary with the batch mix, and capacity must reach its high-water
        // mark in one step for the steady state to stay allocation-free.
        lanes.next_hop.reserve(order.len());
        lanes.cost.reserve(order.len());
        lanes.path.reserve(order.len());
        let n = snap.routing().node_count();
        let modules = snap.routing().module_count();
        for &oi in order {
            match queries[oi as usize] {
                Query::NextHop { source, module, .. } => {
                    let flat = if source.index() < n && (module as usize) < modules {
                        source.index() * modules + module as usize
                    } else {
                        OUT_OF_RANGE
                    };
                    lanes.next_hop.push((oi, flat));
                }
                Query::Cost { source, target, .. } => {
                    let flat = if source.index() < n && target.index() < n {
                        source.index() * n + target.index()
                    } else {
                        OUT_OF_RANGE
                    };
                    lanes.cost.push((oi, flat));
                }
                Query::Path { .. } => lanes.path.push(oi),
            }
        }
    }
    metrics.add(CounterId::ServeQueriesNextHop, lanes.next_hop.len() as u64);
    metrics.add(CounterId::ServeQueriesCost, lanes.cost.len() as u64);
    metrics.add(CounterId::ServeQueriesPath, lanes.path.len() as u64);

    // Each lane pass is timed once and its elapsed time divided over the
    // lane's queries, so the per-type latency histograms stay exact in
    // count while the record path pays one clock read per lane, not per
    // query.
    let lane_timer = metrics.timer();
    next_hop_lane(snap, &lanes.next_hop, results);
    metrics.observe_share(SpanId::ServeLatencyNextHop, lane_timer, lanes.next_hop.len() as u64);
    let lane_timer = metrics.timer();
    cost_lane(snap, &lanes.cost, results);
    metrics.observe_share(SpanId::ServeLatencyCost, lane_timer, lanes.cost.len() as u64);
    // Path lane last: the only lane that appends to the arena.
    let lane_timer = metrics.timer();
    for &oi in &lanes.path {
        let Query::Path { source, module, .. } = queries[oi as usize] else {
            unreachable!("path lane holds only path queries")
        };
        let start = arena.len() as u32;
        let entry = snap.routing().path_into(source, module as usize, arena);
        results[oi as usize] = QueryResult::Path { entry, nodes: (start, arena.len() as u32) };
    }
    metrics.observe_share(SpanId::ServeLatencyPath, lane_timer, lanes.path.len() as u64);
}

/// The NextHop lane: a tight gather over the route table's two `u16`
/// index planes and its entry-distance plane. Flat indices were
/// pre-resolved by the split pass, so each slot is three plane reads and
/// one result write — and because the lane preserves the `(fabric,
/// source)` sort, each `LANE_BLOCK` chunk's reads land in a bounded,
/// monotonically advancing segment of every plane (the blocked schedule
/// falls out of the sort).
fn next_hop_lane(snap: &TableSnapshot, lane: &[(u32, usize)], results: &mut [QueryResult]) {
    let planes = snap.routing().route_planes();
    for block in lane.chunks(LANE_BLOCK) {
        for &(oi, flat) in block {
            // The destination lane gates the gather: the OUT_OF_RANGE
            // index misses it, and an invalid entry holds the sentinel.
            results[oi as usize] = QueryResult::NextHop(planes.entry(flat));
        }
    }
}

/// The Cost lane: a gather over the phase-2 distance plane — the only
/// plane a cost query reads (8 bytes per slot).
fn cost_lane(snap: &TableSnapshot, lane: &[(u32, usize)], results: &mut [QueryResult]) {
    let dist = snap.routing().paths().distances().as_slice();
    for block in lane.chunks(LANE_BLOCK) {
        for &(oi, flat) in block {
            let cost = (flat != OUT_OF_RANGE).then(|| dist[flat]).filter(|d| d.is_finite());
            results[oi as usize] = QueryResult::Cost(cost);
        }
    }
}

/// Key bytes one radix round sorts: a round packs four bytes of the
/// compact key above the 32-bit submission index in one `u64`, so
/// every scatter moves 8 bytes.
const ROUND_BYTES: u32 = 4;

/// A query's execution sort key: the fabric in the high half, the
/// source's low 32 bits below it.
#[inline]
fn sort_key(query: &Query) -> u64 {
    (u64::from(query.fabric()) << 32) | u64::from(query.source().index() as u32)
}

/// A reusable batch of queries plus the sort permutation the executor
/// orders them through. Submission order is preserved in the results.
#[derive(Debug, Clone, Default)]
pub struct QueryBatch {
    queries: Vec<Query>,
    /// Execution order (indices into `queries`), rebuilt per execute.
    order: Vec<u32>,
    /// The radix passes' ping-pong buffers of packed `key bytes |
    /// index` items, reused per execute.
    radix: [Vec<u64>; 2],
    /// Lane storage for the execute path.
    lanes: LaneScratch,
}

impl QueryBatch {
    /// An empty batch; buffers grow on first use and are retained.
    #[must_use]
    pub fn new() -> Self {
        QueryBatch::default()
    }

    /// Drops all queries, retaining capacity.
    pub fn clear(&mut self) {
        self.queries.clear();
    }

    /// Appends one query.
    pub fn push(&mut self, query: Query) {
        self.queries.push(query);
    }

    /// Number of queries in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// `true` when the batch holds no queries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The queries in submission order.
    #[must_use]
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Split borrow for the execute loop: the sorted order, the queries
    /// and the lane scratch, disjointly.
    pub(crate) fn exec_parts(&mut self) -> (&[u32], &[Query], &mut LaneScratch) {
        (&self.order, &self.queries, &mut self.lanes)
    }

    /// Rebuilds the execution order: stable on submission index, sorted
    /// by `(fabric, source)` so each fabric — and each source row within
    /// it — is visited exactly once per batch.
    ///
    /// **Single-fabric fast path**: when every query addresses one
    /// fabric (the per-garment common case), the whole batch is one
    /// execution group whatever the order, so the sort is skipped and
    /// the identity (submission) order emitted directly — the lane
    /// split downstream still gives each query type its streaming pass.
    ///
    /// Mixed batches run a stable LSD radix sort, one byte per pass,
    /// starting from submission order. It sorts a compact key: the low
    /// bits of `fabric` and of `source as u32` up to the highest bit
    /// that varies within the batch, the fabric's above the source's
    /// (4 fabrics of 1,024 nodes make a 12-bit key, two passes). Above
    /// those bits each half is constant, so the compact key orders the
    /// batch as `(fabric, source)` does, and the stable passes keep
    /// submission order among equal keys: the result is the `(fabric,
    /// source, index)` order in linear time. Its memory is the batch's
    /// (two `u64` buffers and one 256-bucket histogram), however many
    /// fabrics and nodes the fleet has.
    pub(crate) fn sort_for_execution(&mut self) {
        let Some(first) = self.queries.first() else {
            self.order.clear();
            return;
        };
        let fabric = first.fabric();
        if self.queries.iter().all(|q| q.fabric() == fabric) {
            self.order.clear();
            self.order.extend(0..self.queries.len() as u32);
            return;
        }
        let first = sort_key(first);
        let varying = self.queries.iter().fold(0, |acc, q| acc | (sort_key(q) ^ first));
        let source_bits = 32 - (varying as u32).leading_zeros();
        let fabric_bits = 32 - ((varying >> 32) as u32).leading_zeros();
        let low = |bits: u32| (1u64 << bits) - 1;
        let compact =
            |key: u64| (((key >> 32) & low(fabric_bits)) << source_bits) | (key & low(source_bits));
        let bytes = (fabric_bits + source_bits).div_ceil(8);
        // Every slot is written before it is read, so a batch of the
        // previous length resizes without touching memory.
        let len = self.queries.len();
        let [items, spare] = &mut self.radix;
        items.resize(len, 0);
        spare.resize(len, 0);
        self.order.resize(len, 0);
        let (mut src, mut dst) = (&mut items[..], &mut spare[..]);
        for round in (0..bytes).step_by(ROUND_BYTES as usize) {
            // The first round reads the queries in submission order;
            // later ones in the order the earlier rounds left.
            for (i, item) in src.iter_mut().enumerate() {
                let index = if round == 0 { i as u32 } else { *item as u32 };
                let window = compact(sort_key(&self.queries[index as usize])) >> (8 * round);
                *item = (window << 32) | u64::from(index);
            }
            for byte in round..bytes.min(round + ROUND_BYTES) {
                let shift = 32 + 8 * (byte - round);
                if byte + 1 == bytes {
                    // The last pass scatters the indices alone.
                    scatter_by_byte(src, &mut self.order, shift, |item| item as u32);
                } else {
                    scatter_by_byte(src, dst, shift, |item| item);
                    std::mem::swap(&mut src, &mut dst);
                }
            }
        }
    }
}

/// One stable counting pass: writes `keep(item)` for every item of
/// `src` into `dst`, ordered by the item's byte at bit `shift`.
fn scatter_by_byte<T>(src: &[u64], dst: &mut [T], shift: u32, keep: impl Fn(u64) -> T) {
    let digit = |item: u64| usize::from((item >> shift) as u8);
    let mut next = [0u32; 256];
    for &item in src {
        next[digit(item)] += 1;
    }
    let mut sum = 0;
    for slot in &mut next {
        let count = *slot;
        *slot = sum;
        sum += count;
    }
    for &item in src {
        // Read, bump, then write: a read-modify-write of the cursor
        // (`dst[*slot] = item; *slot += 1`) compiles to a memory-operand
        // increment that measured about 2x slower on a 2-vCPU Xeon host.
        let slot = digit(item);
        let at = next[slot];
        next[slot] = at + 1;
        dst[at as usize] = keep(item);
    }
}

/// Caller-owned result storage: one [`QueryResult`] per submitted query
/// (submission order) plus the shared path-node arena. Reused across
/// batches — steady-state execution allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    results: Vec<QueryResult>,
    arena: Vec<NodeId>,
}

impl QueryOutput {
    /// Empty output buffers; they grow on first use and are retained.
    #[must_use]
    pub fn new() -> Self {
        QueryOutput::default()
    }

    /// Resets for a batch of `len` queries.
    pub(crate) fn reset(&mut self, len: usize) {
        self.results.clear();
        self.results.resize(len, QueryResult::UnknownFabric);
        self.arena.clear();
    }

    /// The results, in the batch's submission order.
    #[must_use]
    pub fn results(&self) -> &[QueryResult] {
        &self.results
    }

    /// Resolves a [`QueryResult::Path`] arena range to its node
    /// sequence (empty for non-path results or unroutable paths).
    #[must_use]
    pub fn path_nodes(&self, result: &QueryResult) -> &[NodeId] {
        match result {
            QueryResult::Path { nodes: (start, end), .. } => {
                &self.arena[*start as usize..*end as usize]
            }
            _ => &[],
        }
    }

    pub(crate) fn set(&mut self, index: usize, result: QueryResult) {
        self.results[index] = result;
    }

    pub(crate) fn arena_mut(&mut self) -> &mut Vec<NodeId> {
        &mut self.arena
    }

    /// Split borrow for the execute loop: the result slots and the path
    /// arena, disjointly.
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<QueryResult>, &mut Vec<NodeId>) {
        (&mut self.results, &mut self.arena)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FleetFrontend;
    use etx_fleet::ScenarioSpec;
    use etx_graph::topology;
    use etx_routing::{Algorithm, Router, RoutingState, SystemReport};
    use etx_units::Length;

    fn q(fabric: u32, source: usize) -> Query {
        Query::NextHop { fabric, source: NodeId::new(source), module: 0 }
    }

    #[test]
    fn sort_groups_by_fabric_then_source_stably() {
        let mut batch = QueryBatch::new();
        for (f, s) in [(2, 5), (0, 9), (2, 1), (0, 9), (1, 0)] {
            batch.push(q(f, s));
        }
        batch.sort_for_execution();
        let order: Vec<u32> = batch.order.clone();
        assert_eq!(order, vec![1, 3, 4, 2, 0]);
        assert_eq!(batch.len(), 5);
        assert!(!batch.is_empty());
    }

    #[test]
    fn single_fabric_batch_skips_the_sort() {
        let mut batch = QueryBatch::new();
        for s in [5, 1, 9, 0] {
            batch.push(q(3, s));
        }
        // One fabric means one group whatever the order.
        batch.sort_for_execution();
        assert_eq!(batch.order, vec![0, 1, 2, 3], "identity order, not source-sorted");
        // A second fabric reinstates the packed sort.
        batch.push(q(1, 2));
        batch.sort_for_execution();
        assert_eq!(batch.order, vec![4, 3, 1, 0, 2]);
    }

    /// The comparison sort the radix order replaced, kept as its
    /// oracle: `(fabric, source as u32, index)` keys packed into
    /// `u128`s, with the single-fabric identity order in front.
    fn oracle_order(queries: &[Query]) -> Vec<u32> {
        let first = queries.first().map(Query::fabric);
        if queries.iter().all(|q| Some(q.fabric()) == first) {
            return (0..queries.len() as u32).collect();
        }
        let mut keys: Vec<u128> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                (u128::from(q.fabric()) << 64)
                    | (u128::from(q.source().index() as u32) << 32)
                    | i as u128
            })
            .collect();
        keys.sort_unstable();
        keys.iter().map(|&key| (key & u128::from(u32::MAX)) as u32).collect()
    }

    /// A random batch of `len` queries spread over the ids in
    /// `fabrics`, every query type, sources drawn per case from one of:
    /// the whole wire range, a few duplicates, or a narrow window
    /// straddling byte boundaries.
    fn random_batch(rng: &mut proptest::TestRng, len: usize, fabrics: &[u32]) -> Vec<Query> {
        let max = crate::net::proto::MAX_INDEX;
        let pool: Vec<u64> = (0..4).map(|_| rng.below(max)).collect();
        let window = rng.below(max - 600);
        let mode = rng.below(3);
        (0..len)
            .map(|_| {
                let fabric = fabrics[rng.below(fabrics.len() as u64) as usize];
                let source = match mode {
                    0 => rng.below(max),
                    1 => pool[rng.below(pool.len() as u64) as usize],
                    _ => window + rng.below(600),
                };
                let source = NodeId::new(source as usize);
                let target = NodeId::new(rng.below(max) as usize);
                let module = rng.below(4) as u32;
                match rng.below(3) {
                    0 => Query::NextHop { fabric, source, module },
                    1 => Query::Path { fabric, source, module },
                    _ => Query::Cost { fabric, source, target },
                }
            })
            .collect()
    }

    #[test]
    fn radix_order_equals_the_comparison_sort() {
        // Fabric ids of one, two and four significant bytes, so rounds
        // sort up to seven varying bytes (two rounds).
        let ids = [0u32, 1, 2, 3, 7, 255, 256, 70_000, 1 << 24, u32::MAX];
        let mut rng = proptest::TestRng::new(0x5eed_0a11);
        let mut batch = QueryBatch::new();
        for len in [0usize, 1, 2, 3, 4_096, 40_000] {
            for case in 0..12 {
                let fabric_count = 1 + case % 8;
                let fabrics: Vec<u32> =
                    (0..fabric_count).map(|_| ids[rng.below(ids.len() as u64) as usize]).collect();
                let queries = random_batch(&mut rng, len, &fabrics);
                batch.clear();
                queries.iter().for_each(|&q| batch.push(q));
                batch.sort_for_execution();
                assert_eq!(batch.order, oracle_order(&queries), "len {len}, fabrics {fabrics:?}");
            }
        }
        // Sources past `u32` sort by their low 32 bits, as the packed
        // keys did.
        let queries: Vec<Query> = [(1, 1usize << 32), (0, 5), (1, 3), (0, (1 << 33) + 5)]
            .into_iter()
            .map(|(fabric, source)| q(fabric, source))
            .collect();
        batch.clear();
        queries.iter().for_each(|&q| batch.push(q));
        batch.sort_for_execution();
        assert_eq!(batch.order, oracle_order(&queries));
        assert_eq!(batch.order, vec![1, 3, 0, 2]);
    }

    /// Executes `queries` group by group in `order`, the way
    /// [`FleetFrontend::execute`] walks its sorted order.
    fn execute_in_order(frontend: &FleetFrontend, queries: &[Query], order: &[u32]) -> QueryOutput {
        let mut out = QueryOutput::new();
        out.reset(queries.len());
        let mut lanes = LaneScratch::default();
        let metrics = Registry::disabled();
        let (results, arena) = out.parts_mut();
        let fabric = |i: &u32| queries[*i as usize].fabric();
        for group in order.chunk_by(|a, b| fabric(a) == fabric(b)) {
            let pinned = frontend.pin(fabric(&group[0]));
            execute_group(&metrics, pinned.as_deref(), group, queries, &mut lanes, arena, results);
        }
        out
    }

    #[test]
    fn frontend_answers_equal_the_oracle_order() {
        // Three served smoke fabrics, a rejected placeholder, and ids
        // past `fabric_count`: identical results, arena ranges included,
        // and identical arena bytes.
        let spec = ScenarioSpec { instances: 3, ..ScenarioSpec::smoke() };
        let mut frontend = FleetFrontend::from_spec(&spec, 1_000).expect("smoke spec is valid");
        frontend.register_rejected();
        let mut rng = proptest::TestRng::new(0x0dd_f00d);
        let mut batch = QueryBatch::new();
        let mut out = QueryOutput::new();
        for len in [0usize, 1, 4_096, 40_000] {
            for fabric_count in 1..=8u32 {
                let fabrics: Vec<u32> = (0..fabric_count).map(|f| (f * 5) % 9).collect();
                let mut queries = random_batch(&mut rng, len, &fabrics);
                // Most sources in range, so paths fill the arena.
                for query in &mut queries {
                    if rng.below(8) == 0 {
                        continue;
                    }
                    let nodes = frontend.node_count(query.fabric()).unwrap_or(9);
                    let source = NodeId::new(rng.below(nodes as u64) as usize);
                    match query {
                        Query::NextHop { source: s, .. }
                        | Query::Path { source: s, .. }
                        | Query::Cost { source: s, .. } => *s = source,
                    }
                }
                batch.clear();
                queries.iter().for_each(|&q| batch.push(q));
                frontend.execute(&mut batch, &mut out);
                let want = execute_in_order(&frontend, &queries, &oracle_order(&queries));
                assert_eq!(out.results(), want.results(), "len {len}, fabrics {fabrics:?}");
                assert_eq!(out.arena, want.arena, "len {len}, fabrics {fabrics:?}");
            }
        }
    }

    #[test]
    fn output_reset_preserves_capacity() {
        let mut out = QueryOutput::new();
        out.reset(4);
        assert_eq!(out.results().len(), 4);
        assert!(matches!(out.results()[0], QueryResult::UnknownFabric));
        out.arena_mut().push(NodeId::new(1));
        out.reset(2);
        assert_eq!(out.results().len(), 2);
        assert!(out.path_nodes(&QueryResult::Cost(None)).is_empty());
    }

    fn ring_state(k: usize) -> RoutingState {
        let graph = topology::ring(k, Length::from_centimetres(1.0));
        let modules = vec![vec![NodeId::new(0), NodeId::new(k / 2)]];
        let report = SystemReport::fresh(k, 16);
        Router::new(Algorithm::Ear).compute(&graph, &modules, &report, None)
    }

    /// Runs one mixed group through `execute_group` and returns the
    /// results (submission order) plus the arena.
    fn run_group(snap: &TableSnapshot) -> (Vec<QueryResult>, Vec<NodeId>) {
        let n = snap.routing().node_count();
        let mut queries = Vec::new();
        for s in 0..n {
            queries.push(Query::NextHop { fabric: 0, source: NodeId::new(s), module: 0 });
            queries.push(Query::Path { fabric: 0, source: NodeId::new(s), module: 0 });
            queries.push(Query::Cost {
                fabric: 0,
                source: NodeId::new(s),
                target: NodeId::new((s + 1) % n),
            });
        }
        // Out-of-range probes ride along in every lane.
        queries.push(Query::NextHop { fabric: 0, source: NodeId::new(n + 3), module: 9 });
        queries.push(Query::Cost { fabric: 0, source: NodeId::new(0), target: NodeId::new(n) });
        let order: Vec<u32> = (0..queries.len() as u32).collect();
        let mut lanes = LaneScratch::default();
        let mut arena = Vec::new();
        let mut results = vec![QueryResult::UnknownFabric; queries.len()];
        let metrics = Registry::disabled();
        execute_group(&metrics, Some(snap), &order, &queries, &mut lanes, &mut arena, &mut results);
        (results, arena)
    }

    #[test]
    fn group_lanes_answer_like_the_routing_state() {
        // Every lane against the routing state the snapshot came from,
        // out-of-range probes included.
        let state = ring_state(6);
        let mut snap = TableSnapshot::empty();
        snap.fill_from(1, &state);
        let (results, arena) = run_group(&snap);
        assert!(!results.contains(&QueryResult::UnknownFabric), "every query answered");
        let n = state.node_count();
        for (oi, result) in results.into_iter().enumerate() {
            // Query 3s is source s's next-hop lookup, 3s+1 its path and
            // 3s+2 its cost to s+1; the last two are out of range.
            let source = NodeId::new(oi / 3);
            match result {
                QueryResult::NextHop(entry) => {
                    let want = (oi / 3 < n).then(|| state.route(source, 0)).flatten();
                    assert_eq!(entry, want, "query {oi}");
                }
                QueryResult::Path { entry, nodes: (start, end) } => {
                    assert_eq!(entry, state.route(source, 0), "query {oi}");
                    let path = &arena[start as usize..end as usize];
                    assert_eq!(path.first(), Some(&source));
                    assert_eq!(path.last(), entry.map(|e| e.destination).as_ref());
                }
                QueryResult::Cost(cost) => {
                    let want = (oi / 3 < n)
                        .then(|| state.distance(source, NodeId::new((oi / 3 + 1) % n)))
                        .flatten();
                    assert_eq!(cost, want, "query {oi}");
                }
                QueryResult::UnknownFabric => unreachable!("checked above"),
            }
        }
    }

    #[test]
    fn unserved_group_answers_unknown_fabric() {
        let queries = vec![q(7, 0), q(7, 1)];
        let order = vec![0u32, 1];
        let mut lanes = LaneScratch::default();
        let mut arena = Vec::new();
        let mut results = vec![QueryResult::Cost(None); 2];
        let metrics = Registry::disabled();
        execute_group(&metrics, None, &order, &queries, &mut lanes, &mut arena, &mut results);
        assert_eq!(results, vec![QueryResult::UnknownFabric; 2]);
        assert!(arena.is_empty());
    }
}
