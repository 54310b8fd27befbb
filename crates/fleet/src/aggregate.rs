//! Streaming, order-independent fleet aggregation.
//!
//! A 10k-instance fleet must not hold 10k [`SimReport`]s: each report is
//! folded into a constant-size [`FleetAggregate`] the moment its
//! instance finishes, and shard aggregates merge pairwise at the end.
//!
//! Everything here is **exact integer arithmetic** — event counts,
//! min/max, fixed-point sums and log-linear histogram buckets — so
//! aggregation is associative and commutative. That is what makes the
//! determinism guarantee structural rather than hopeful: the same spec
//! and seed produce *byte-identical* fleet aggregates whatever the shard
//! count, completion order or merge grouping, because no floating-point
//! addition ever depends on ordering.

use core::fmt;

use etx_sim::{DeathCause, RecomputeStats, SimReport};

/// The constant-memory streaming summary used for every fleet metric:
/// exact count/min/max/sum plus a log-linear histogram for percentiles.
///
/// This is now the shared [`etx_metrics::Histo`], lifted out of this
/// module so fleet aggregation, serve latency capture and the metrics
/// registry use one bucket scheme; the old name stays as a re-export so
/// existing callers keep compiling unchanged.
pub use etx_metrics::Histo as StreamingStat;

/// Death-cause tallies across a fleet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeathTally {
    /// A module lost its last live duplicate.
    pub module_extinct: u64,
    /// Every provisioned controller died.
    pub controllers_dead: u64,
    /// The job gateway died or was cut off.
    pub gateway_dead: u64,
    /// All in-flight jobs irrecoverably stalled.
    pub stalled: u64,
    /// The safety cycle limit fired.
    pub max_cycles: u64,
}

impl DeathTally {
    fn observe(&mut self, cause: DeathCause) {
        match cause {
            DeathCause::ModuleExtinct(_) => self.module_extinct += 1,
            DeathCause::ControllersDead => self.controllers_dead += 1,
            DeathCause::GatewayDead => self.gateway_dead += 1,
            DeathCause::Stalled => self.stalled += 1,
            DeathCause::MaxCycles => self.max_cycles += 1,
        }
    }

    fn merge(&mut self, other: &DeathTally) {
        self.module_extinct += other.module_extinct;
        self.controllers_dead += other.controllers_dead;
        self.gateway_dead += other.gateway_dead;
        self.stalled += other.stalled;
        self.max_cycles += other.max_cycles;
    }
}

/// Constant-memory aggregate of a whole fleet run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetAggregate {
    /// Instances folded in.
    pub instances: u64,
    /// Sampled specs the builder rejected (validation or mapping).
    pub rejected: u64,
    /// System lifetime in cycles.
    pub lifetime: StreamingStat,
    /// Fractional jobs completed (fixed point).
    pub jobs: StreamingStat,
    /// Control-overhead fraction (fixed point).
    pub overhead: StreamingStat,
    /// Jobs fully completed, fleet-wide.
    pub jobs_completed_total: u128,
    /// Jobs lost to node deaths, fleet-wide.
    pub jobs_lost_total: u128,
    /// Why instances died.
    pub deaths: DeathTally,
    /// Routing recompute counters summed fleet-wide, the values the
    /// registry's `routing.*` counters total. They describe cost, never
    /// results: fleets run with different
    /// [`RecomputeStrategy`](etx_sim::RecomputeStrategy) settings differ
    /// only here.
    pub recompute: RecomputeStats,
}

impl FleetAggregate {
    /// An empty aggregate.
    #[must_use]
    pub fn new() -> Self {
        FleetAggregate::default()
    }

    /// Folds one finished instance in; the report is dropped afterwards —
    /// this is the constant-memory property.
    pub fn observe(&mut self, report: &SimReport) {
        self.instances += 1;
        self.lifetime.observe(report.lifetime_cycles);
        self.jobs.observe_scaled(report.jobs_fractional);
        self.overhead.observe_scaled(report.energy.overhead_fraction());
        self.jobs_completed_total += u128::from(report.jobs_completed);
        self.jobs_lost_total += u128::from(report.jobs_lost);
        self.deaths.observe(report.death_cause);
        self.recompute += report.recompute;
    }

    /// Counts one rejected instance (spec sampled an invalid config).
    pub fn observe_rejection(&mut self) {
        self.rejected += 1;
    }

    /// Merges a shard's aggregate in (exact, order-independent).
    pub fn merge(&mut self, other: &FleetAggregate) {
        self.instances += other.instances;
        self.rejected += other.rejected;
        self.lifetime.merge(&other.lifetime);
        self.jobs.merge(&other.jobs);
        self.overhead.merge(&other.overhead);
        self.jobs_completed_total += other.jobs_completed_total;
        self.jobs_lost_total += other.jobs_lost_total;
        self.deaths.merge(&other.deaths);
        self.recompute += other.recompute;
    }

    /// Renders the aggregate as deterministic JSON (stable key order,
    /// fixed float formatting) — the `fleet --json` payload.
    #[must_use]
    pub fn to_json(&self) -> String {
        use core::fmt::Write as _;
        let quant = |s: &StreamingStat, q: f64| format!("{:.6}", s.quantile_scaled(q));
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"instances\": {},", self.instances);
        let _ = writeln!(out, "  \"rejected\": {},", self.rejected);
        let _ = writeln!(
            out,
            "  \"lifetime_cycles\": {{\"mean\": {:.1}, \"p10\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"min\": {}, \"max\": {}}},",
            self.lifetime.mean_raw(),
            self.lifetime.quantile_raw(0.10),
            self.lifetime.quantile_raw(0.50),
            self.lifetime.quantile_raw(0.90),
            self.lifetime.quantile_raw(0.99),
            self.lifetime.min_raw(),
            self.lifetime.max_raw(),
        );
        let _ = writeln!(
            out,
            "  \"jobs_fractional\": {{\"mean\": {:.6}, \"p10\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}},",
            self.jobs.mean_scaled(),
            quant(&self.jobs, 0.10),
            quant(&self.jobs, 0.50),
            quant(&self.jobs, 0.90),
            quant(&self.jobs, 0.99),
        );
        let _ = writeln!(
            out,
            "  \"overhead_fraction\": {{\"mean\": {:.6}, \"p50\": {}, \"p90\": {}, \"p99\": {}}},",
            self.overhead.mean_scaled(),
            quant(&self.overhead, 0.50),
            quant(&self.overhead, 0.90),
            quant(&self.overhead, 0.99),
        );
        let _ = writeln!(out, "  \"jobs_completed_total\": {},", self.jobs_completed_total);
        let _ = writeln!(out, "  \"jobs_lost_total\": {},", self.jobs_lost_total);
        // One line, so cost-only comparisons across strategies can
        // filter it out and diff the (byte-identical) rest. Keys are the
        // `routing.*` counter names without their prefix.
        out.push_str("  \"recompute\": {");
        for (i, (id, value)) in
            RecomputeStats::COUNTERS.into_iter().zip(self.recompute.to_array()).enumerate()
        {
            let key = id.name().strip_prefix("routing.").unwrap_or(id.name());
            let _ = write!(out, "{}\"{key}\": {value}", if i == 0 { "" } else { ", " });
        }
        out.push_str("},\n");
        let _ = writeln!(
            out,
            "  \"deaths\": {{\"module_extinct\": {}, \"controllers_dead\": {}, \"gateway_dead\": {}, \"stalled\": {}, \"max_cycles\": {}}}",
            self.deaths.module_extinct,
            self.deaths.controllers_dead,
            self.deaths.gateway_dead,
            self.deaths.stalled,
            self.deaths.max_cycles,
        );
        out.push('}');
        out
    }
}

impl fmt::Display for FleetAggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "instances: {} ({} rejected)", self.instances, self.rejected)?;
        writeln!(
            f,
            "lifetime cycles:  mean {:>12.1}  p50 {:>10}  p90 {:>10}  p99 {:>10}",
            self.lifetime.mean_raw(),
            self.lifetime.quantile_raw(0.50),
            self.lifetime.quantile_raw(0.90),
            self.lifetime.quantile_raw(0.99),
        )?;
        writeln!(
            f,
            "jobs fractional:  mean {:>12.2}  p50 {:>10.2}  p90 {:>10.2}  p99 {:>10.2}",
            self.jobs.mean_scaled(),
            self.jobs.quantile_scaled(0.50),
            self.jobs.quantile_scaled(0.90),
            self.jobs.quantile_scaled(0.99),
        )?;
        writeln!(
            f,
            "overhead:         mean {:>11.2}%  p50 {:>9.2}%  p90 {:>9.2}%  p99 {:>9.2}%",
            self.overhead.mean_scaled() * 100.0,
            self.overhead.quantile_scaled(0.50) * 100.0,
            self.overhead.quantile_scaled(0.90) * 100.0,
            self.overhead.quantile_scaled(0.99) * 100.0,
        )?;
        writeln!(
            f,
            "jobs: {} completed, {} lost",
            self.jobs_completed_total, self.jobs_lost_total
        )?;
        writeln!(f, "recomputes: {}", self.recompute)?;
        write!(
            f,
            "deaths: {} module-extinct, {} controllers, {} gateway, {} stalled, {} cycle-limit",
            self.deaths.module_extinct,
            self.deaths.controllers_dead,
            self.deaths.gateway_dead,
            self.deaths.stalled,
            self.deaths.max_cycles,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The histogram-level tests (bucket mapping, quantile resolution,
    // split-invariant merge, fixed-point roundtrip) moved to
    // `etx_metrics::histo` with the implementation.

    #[test]
    fn aggregate_json_is_stable() {
        let agg = FleetAggregate::new();
        let j = agg.to_json();
        assert!(j.contains("\"instances\": 0"));
        assert_eq!(j, FleetAggregate::new().to_json());
        let shown = agg.to_string();
        assert!(shown.contains("instances: 0"));
    }

    #[test]
    fn recompute_line_names_every_counter() {
        let mut agg = FleetAggregate::new();
        let stats = RecomputeStats {
            full_recomputes: 1,
            repair_recomputes: 2,
            repaired_sources: 3,
            fallback_sources: 4,
            decrease_repairs: 5,
            decrease_nodes_improved: 6,
            table_delta_rebuilds: 7,
            table_entries_rebuilt: 8,
            table_cells_patched: 9,
            nodes_scanned: 10,
        };
        agg.recompute = stats;
        agg.merge(&FleetAggregate { recompute: stats, ..FleetAggregate::new() });
        let json = agg.to_json();
        let line = json.lines().find(|l| l.contains("\"recompute\"")).expect("recompute line");
        assert_eq!(
            line,
            "  \"recompute\": {\"full_recomputes\": 2, \"repair_recomputes\": 4, \
             \"repaired_sources\": 6, \"fallback_sources\": 8, \"decrease_repairs\": 10, \
             \"decrease_nodes_improved\": 12, \"table_delta_rebuilds\": 14, \
             \"table_entries_rebuilt\": 16, \"table_cells_patched\": 18, \"nodes_scanned\": 20},"
        );
        assert!(agg.to_string().contains(
            "recomputes: 2 full, 4 repair (6 sources repaired, 8 re-run, 10 decrease-repaired"
        ));
    }
}
