//! [`MetricsSnapshot`]: the owned, mergeable export form of a
//! [`Registry`](crate::Registry), with deterministic JSON, full JSON
//! and human-table renderers.

use core::fmt::Write as _;

use crate::catalog::{Class, CounterId, GaugeId, SpanId};
use crate::histo::Histo;

/// A point-in-time copy of a registry's contents: plain data, safe to
/// ship across shards and merge.
///
/// Merging is exact integer arithmetic — counters add, gauges take the
/// max, histograms merge bucket-wise — so it is associative and
/// commutative: per-shard snapshots merge to byte-identical JSON
/// whatever the shard count or merge order, the same structural
/// determinism argument as `etx_fleet`'s streaming aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    version: u32,
    counters: Vec<u64>,
    gauges: Vec<u64>,
    /// Empty when the source registry had no span histograms;
    /// `SpanId::COUNT` entries otherwise.
    spans: Vec<Histo>,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot::new()
    }
}

impl MetricsSnapshot {
    /// Version of the snapshot layout (bumped whenever the catalog
    /// grows or reorders; merging mixed versions is a programming
    /// error). Version 2 appended the `net.*` daemon wire metrics;
    /// version 3 removed the counter of the retired affected-sources
    /// recompute strategy; version 4 removed the `serve.batch.gather`
    /// span of the retired sharded query executor.
    pub const VERSION: u32 = 4;

    /// An empty snapshot (all counters/gauges zero, no spans).
    #[must_use]
    pub fn new() -> Self {
        MetricsSnapshot {
            version: MetricsSnapshot::VERSION,
            counters: vec![0; CounterId::COUNT],
            gauges: vec![0; GaugeId::COUNT],
            spans: Vec::new(),
        }
    }

    /// The snapshot's layout version.
    #[must_use]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The value of one counter.
    #[must_use]
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.index()]
    }

    /// The value of one gauge.
    #[must_use]
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.gauges[id.index()]
    }

    /// One span/latency histogram (`None` when the source registry
    /// recorded no spans).
    #[must_use]
    pub fn span(&self, id: SpanId) -> Option<&Histo> {
        self.spans.get(id.index())
    }

    pub(crate) fn add_counter(&mut self, id: CounterId, n: u64) {
        self.counters[id.index()] += n;
    }

    pub(crate) fn raise_gauge(&mut self, id: GaugeId, v: u64) {
        let slot = &mut self.gauges[id.index()];
        *slot = (*slot).max(v);
    }

    pub(crate) fn ensure_spans(&mut self) {
        if self.spans.is_empty() {
            self.spans = (0..SpanId::COUNT).map(|_| Histo::new()).collect();
        }
    }

    pub(crate) fn span_mut(&mut self, id: SpanId) -> Option<&mut Histo> {
        self.spans.get_mut(id.index())
    }

    /// Merges another snapshot in (exact; associative and commutative).
    ///
    /// # Panics
    ///
    /// When the snapshots' layout versions differ.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        assert_eq!(self.version, other.version, "cannot merge mixed-version metrics snapshots");
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (a, b) in self.gauges.iter_mut().zip(&other.gauges) {
            *a = (*a).max(*b);
        }
        if !other.spans.is_empty() {
            self.ensure_spans();
            for (a, b) in self.spans.iter_mut().zip(&other.spans) {
                a.merge(b);
            }
        }
    }

    /// Renders the **deterministic** export: the layout version plus
    /// every [`Class::Stable`] counter, in catalog order. This is the
    /// `fleet --metrics` payload — byte-identical across shard counts,
    /// frame feeds and recompute strategies, with no filtering needed,
    /// because cost counters and wall-clock spans are excluded by
    /// class.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"metrics_version\": {},", self.version);
        out.push_str("  \"counters\": {\n");
        let stable: Vec<CounterId> =
            CounterId::ALL.into_iter().filter(|c| c.class() == Class::Stable).collect();
        for (i, id) in stable.iter().enumerate() {
            let comma = if i + 1 == stable.len() { "" } else { "," };
            let _ = writeln!(out, "    \"{}\": {}{comma}", id.name(), self.counter(*id));
        }
        out.push_str("  }\n}");
        out
    }

    /// Renders everything: stable counters, cost counters, gauges and
    /// span/latency percentile summaries — the `metrics` block of the
    /// bench JSONs. Cost counters vary across frame feeds and the span
    /// section is wall-clock, so this form is *not* byte-stable; diff
    /// [`MetricsSnapshot::to_json`] instead.
    #[must_use]
    pub fn to_json_full(&self) -> String {
        let mut out = self.to_json();
        out.truncate(out.len() - 2); // drop "\n}" to keep appending
        out.push_str(",\n  \"cost\": {\n");
        let cost: Vec<CounterId> =
            CounterId::ALL.into_iter().filter(|c| c.class() == Class::Cost).collect();
        for (i, id) in cost.iter().enumerate() {
            let comma = if i + 1 == cost.len() { "" } else { "," };
            let _ = writeln!(out, "    \"{}\": {}{comma}", id.name(), self.counter(*id));
        }
        out.push_str("  },\n  \"gauges\": {\n");
        for (i, id) in GaugeId::ALL.iter().enumerate() {
            let comma = if i + 1 == GaugeId::ALL.len() { "" } else { "," };
            let _ = writeln!(out, "    \"{}\": {}{comma}", id.name(), self.gauge(*id));
        }
        out.push_str("  },\n  \"spans\": {\n");
        for (i, id) in SpanId::ALL.iter().enumerate() {
            let comma = if i + 1 == SpanId::ALL.len() { "" } else { "," };
            match self.span(*id) {
                Some(h) if h.count() > 0 => {
                    let _ = writeln!(
                        out,
                        "    \"{}\": {{\"count\": {}, \"mean_ns\": {:.1}, \"p50_ns\": {}, \
                         \"p90_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}{comma}",
                        id.name(),
                        h.count(),
                        h.mean_raw(),
                        h.quantile_raw(0.50),
                        h.quantile_raw(0.90),
                        h.quantile_raw(0.99),
                        h.quantile_raw(0.999),
                        h.max_raw(),
                    );
                }
                _ => {
                    let _ = writeln!(out, "    \"{}\": null{comma}", id.name());
                }
            }
        }
        out.push_str("  }\n}");
        out
    }

    /// Renders a human-readable table of everything recorded (counters
    /// with non-zero values, gauges, spans with observations).
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "metrics (v{})", self.version);
        for id in CounterId::ALL {
            let v = self.counter(id);
            if v > 0 {
                let kind = match id.class() {
                    Class::Stable => "counter",
                    _ => "cost",
                };
                let _ = writeln!(out, "  {kind:<8} {:<34} {v}", id.name());
            }
        }
        for id in GaugeId::ALL {
            let v = self.gauge(id);
            if v > 0 {
                let _ = writeln!(out, "  gauge    {:<34} {v}", id.name());
            }
        }
        for id in SpanId::ALL {
            if let Some(h) = self.span(id) {
                if h.count() > 0 {
                    let _ = writeln!(
                        out,
                        "  span     {:<34} count {:<10} mean {:>10.0} ns  p50 {:>10} ns  \
                         p99 {:>10} ns  max {:>10} ns",
                        id.name(),
                        h.count(),
                        h.mean_raw(),
                        h.quantile_raw(0.50),
                        h.quantile_raw(0.99),
                        h.max_raw(),
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for (i, id) in CounterId::ALL.into_iter().enumerate() {
            snap.add_counter(id, seed.wrapping_mul(i as u64 + 1) % 1_000);
        }
        for id in GaugeId::ALL {
            snap.raise_gauge(id, seed % 17);
        }
        snap.ensure_spans();
        for id in SpanId::ALL {
            snap.span_mut(id).unwrap().observe(seed % 4_096);
        }
        snap
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let (a, b, c) = (sample(3), sample(7_777), sample(123_456_789));
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c.to_json_full(), a_bc.to_json_full());
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_grows_spanless_snapshots() {
        let mut spanless = MetricsSnapshot::new();
        let full = sample(42);
        spanless.merge(&full);
        assert_eq!(
            spanless.span(SpanId::SimFrameUpload).map(Histo::count),
            full.span(SpanId::SimFrameUpload).map(Histo::count)
        );
        // And the other way: merging a spanless snapshot changes no span.
        let mut grown = full.clone();
        grown.merge(&MetricsSnapshot::new());
        assert_eq!(grown.span(SpanId::SimFrameUpload), full.span(SpanId::SimFrameUpload));
    }

    #[test]
    fn deterministic_json_excludes_cost_and_wall() {
        let snap = sample(99);
        let json = snap.to_json();
        assert!(json.contains("\"metrics_version\": 4"));
        assert!(json.contains("\"sim.frames\""));
        assert!(!json.contains("routing."), "cost counters leaked into the deterministic export");
        assert!(!json.contains("net."), "wire counters leaked into the deterministic export");
        assert!(!json.contains("_ns"), "wall-clock data leaked into the deterministic export");
        // Two snapshots differing only in cost/wall data export identically.
        let mut other = snap.clone();
        other.add_counter(CounterId::RoutingNodesScanned, 12_345);
        other.span_mut(SpanId::SimFrameUpload).unwrap().observe(1);
        assert_eq!(json, other.to_json());
    }

    #[test]
    fn full_json_and_table_cover_everything() {
        let snap = sample(5);
        let full = snap.to_json_full();
        assert!(full.starts_with(&snap.to_json()[..snap.to_json().len() - 2]));
        assert!(full.contains("\"routing.nodes_scanned\""));
        assert!(full.contains("\"sim.frame.upload\""));
        assert!(full.contains("\"serve.latency.path\""));
        let table = snap.render_table();
        assert!(table.contains("sim.frames"));
        assert!(table.contains("span"));
        // An empty snapshot renders valid JSON with null spans absent.
        let empty = MetricsSnapshot::new().to_json_full();
        assert!(empty.contains("\"sim.frame.upload\": null"));
    }
}
