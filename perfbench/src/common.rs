//! Measurement plumbing shared by the workloads: sample sets, the
//! in-memory span recorder, layer tables and the run outcome.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use etx_fleet::FleetRng;
use etx_metrics::{CounterId, MetricsSnapshot, SpanId};

/// Derives the seed of one independent input stream from the
/// benchmark seed, so every workload draws its inputs from `--seed`
/// alone.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    FleetRng::new(seed).fork(stream).next_u64()
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A set of observations (milliseconds unless stated otherwise). A
/// failed operation is recorded as `f64::INFINITY`, so it misses every
/// latency limit.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Nearest-rank `q`-quantile; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// `p50 … p90 (n, beyond p90)` for the notes.
    pub fn describe(&self, unit: &str) -> String {
        let p90 = self.quantile(0.9);
        let beyond = self.0.iter().filter(|&&v| v > p90).count();
        format!(
            "p50 {:.4} {unit}, p90 {:.4} {unit}, p99 {:.4} {unit}, max {:.4} {unit} \
             (n={}, {} beyond p90)",
            self.median(),
            self.quantile(0.9),
            self.quantile(0.99),
            self.quantile(1.0),
            self.len(),
            beyond
        )
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The workload-independent end-to-end figures every workload
/// reports (each workload defines its own operation and ingest path;
/// see the README).
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Latency of one operation, ms.
    pub latency: Samples,
    /// Operations' work units completed per second of the timed window.
    pub throughput_per_s: f64,
    /// New input to routes visible, ms.
    pub ingest: Samples,
    /// Set-up repetitions, seconds.
    pub setup: Samples,
}

impl EndToEnd {
    /// The bounded metrics. The medians stay in the notes only: a vCPU
    /// of a shared host switches between speed states 1.3x to 1.6x apart
    /// for seconds to minutes at a time, so the per-operation times of a
    /// run form two narrow peaks and their median jumps from one peak to
    /// the other when the slow share of the run crosses one half.
    /// Throughput moves with that share in proportion, and p90 lies in
    /// the slow peak whenever a tenth of the run is slow.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric { name: "latency_p90_ms", value: self.latency.quantile(0.9), unit: "ms" },
            Metric { name: "throughput_per_s", value: self.throughput_per_s, unit: "1/s" },
            Metric { name: "ingest_p90_ms", value: self.ingest.quantile(0.9), unit: "ms" },
            Metric { name: "setup_s", value: self.setup.median(), unit: "s" },
            Metric { name: "peak_rss_mb", value: peak_rss_mb(), unit: "MB" },
        ]
    }

    pub fn notes(&self, op: &str, ingest: &str) -> Vec<String> {
        vec![
            format!("latency ({op}): {}", self.latency.describe("ms")),
            format!("ingest ({ingest}): {}", self.ingest.describe("ms")),
            format!("throughput: {:.3}/s", self.throughput_per_s),
            format!(
                "setup: median {:.4} s over {} repetitions ({:?})",
                self.setup.median(),
                self.setup.len(),
                self.setup.values()
            ),
        ]
    }
}

/// The per-layer metrics every traced run reports, each measured on
/// every workload. All workloads recompute routes, so the recompute
/// percentiles are times; the rest are counts, ratios and shares, which
/// read 0 where a workload never reaches the layer.
#[derive(Debug, Default)]
pub struct Layers {
    /// One routing recompute, ms.
    pub recompute_p50: f64,
    pub recompute_p90: f64,
    pub repaired_sources: u64,
    pub fallback_sources: u64,
    /// Mean changed nodes fed to one recompute.
    pub changed_per_recompute: f64,
    /// Self time per layer over the traced window, ms.
    pub routing_ms: f64,
    pub sim_ms: f64,
    pub fleet_ms: f64,
    pub serve_ms: f64,
    pub net_ms: f64,
    /// Wall time the shares are taken of, ms.
    pub window_ms: f64,
    pub parallel_efficiency: f64,
    pub bytes_per_query: f64,
    pub queue_depth_peak: u64,
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        let share = |v: f64| if self.window_ms > 0.0 { 100.0 * v / self.window_ms } else { 0.0 };
        let attempted = self.repaired_sources + self.fallback_sources;
        let repair_ratio =
            if attempted == 0 { 0.0 } else { self.repaired_sources as f64 / attempted as f64 };
        vec![
            Metric { name: "routing.recompute_p50_ms", value: self.recompute_p50, unit: "ms" },
            Metric { name: "routing.recompute_p90_ms", value: self.recompute_p90, unit: "ms" },
            Metric { name: "routing.repair_ratio", value: repair_ratio, unit: "ratio" },
            Metric {
                name: "routing.changed_per_recompute",
                value: self.changed_per_recompute,
                unit: "count",
            },
            Metric { name: "routing.share_pct", value: share(self.routing_ms), unit: "%" },
            Metric { name: "sim.share_pct", value: share(self.sim_ms), unit: "%" },
            Metric { name: "fleet.share_pct", value: share(self.fleet_ms), unit: "%" },
            Metric { name: "serve.share_pct", value: share(self.serve_ms), unit: "%" },
            Metric { name: "net.share_pct", value: share(self.net_ms), unit: "%" },
            Metric {
                name: "fleet.parallel_efficiency",
                value: self.parallel_efficiency,
                unit: "ratio",
            },
            Metric { name: "net.bytes_per_query", value: self.bytes_per_query, unit: "B" },
            Metric {
                name: "net.queue_depth_peak",
                value: self.queue_depth_peak as f64,
                unit: "count",
            },
        ]
    }
}

/// Everything one invocation found out.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks and whether each held.
    pub checks: Vec<(String, bool)>,
    pub e2e: EndToEnd,
    /// Filled by traced runs only.
    pub layers: Option<Layers>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one output check; a failed check counts as a failed
    /// operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.into(), ok));
    }

    /// Every failed check is also a failed operation.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One recorded span: a call the benchmark made into a layer.
#[derive(Debug)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
    attrs: Vec<(&'static str, f64)>,
}

/// The traced run's span recorder: spans stay in memory and are
/// written out once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    /// Records a finished span and returns its id (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
            attrs: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Attaches a measured attribute (a registry delta, a count).
    pub fn attr(&mut self, span: usize, key: &'static str, value: f64) {
        self.spans[span].attrs.push((key, value));
    }

    /// Total self time per span name, ms: each span's duration minus
    /// the part of it its children cover.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: Vec<(&'static str, f64)> = Vec::new();
        for (i, span) in self.spans.iter().enumerate() {
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[i]) as f64 / 1e6;
            match totals.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, t)) => *t += own,
                None => totals.push((span.name, own)),
            }
        }
        totals
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"request\": {}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            );
            for (k, v) in &s.attrs {
                let _ = write!(out, ", \"{k}\": {}", json_num(*v));
            }
            out.push_str("}\n");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A JSON number with all its digits (non-finite values, which only a
/// failed operation produces, clamp to the largest finite double).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        format!("{}", f64::MAX)
    } else {
        "0".to_string()
    }
}

/// Sum of one span histogram in a registry snapshot, ms.
pub fn span_ms(snap: &MetricsSnapshot, id: SpanId) -> f64 {
    snap.span(id).map_or(0.0, |h| h.sum_raw() as f64 / 1e6)
}

/// Observation count of one span histogram in a registry snapshot.
pub fn span_count(snap: &MetricsSnapshot, id: SpanId) -> u64 {
    snap.span(id).map_or(0, etx_metrics::Histo::count)
}

/// A counter's growth between two snapshots.
pub fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, id: CounterId) -> u64 {
    after.counter(id) - before.counter(id)
}

/// A layer table: named parts of one operation (mean ms per
/// operation), with their closure against an untraced figure.
#[derive(Debug, Default)]
pub struct Table {
    rows: Vec<(String, f64)>,
}

impl Table {
    pub fn row(&mut self, name: impl Into<String>, mean_ms: f64) {
        self.rows.push((name.into(), mean_ms));
    }

    /// Renders the table; `reference` is the untraced end-to-end figure
    /// the parts must add up to.
    pub fn render(&self, title: &str, reference_name: &str, reference_ms: f64) -> Vec<String> {
        let total: f64 = self.rows.iter().map(|(_, v)| v).sum();
        let mut lines = vec![format!("layer table: {title}")];
        for (name, v) in &self.rows {
            lines.push(format!(
                "  {name:<34} {v:>12.4} ms  {:>6.2} %",
                if total > 0.0 { 100.0 * v / total } else { 0.0 }
            ));
        }
        lines.push(format!("  {:<34} {total:>12.4} ms", "sum of parts (traced)"));
        lines.push(format!("  {reference_name:<34} {reference_ms:>12.4} ms"));
        lines.push(format!(
            "  closure: parts / untraced = {:.4} ({:+.2} %)",
            total / reference_ms,
            100.0 * (total / reference_ms - 1.0)
        ));
        lines
    }
}
