//! Simulation results: [`SimReport`] and friends.

use core::fmt;

use etx_app::ModuleId;
use etx_graph::NodeId;
use etx_routing::RecomputeStats;
use etx_units::Energy;

/// Why the target system died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeathCause {
    /// Some module lost its last live duplicate — jobs can never complete
    /// again (the paper's "critical nodes become dead").
    ModuleExtinct(ModuleId),
    /// Every provisioned controller battery died (Sec 7.3).
    ControllersDead,
    /// The job gateway died or was cut off from the fabric.
    GatewayDead,
    /// Every in-flight job was stalled beyond recovery (module duplicates
    /// alive but unreachable).
    Stalled,
    /// The safety cycle limit was hit before the system died.
    MaxCycles,
}

impl fmt::Display for DeathCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeathCause::ModuleExtinct(m) => write!(f, "module {m} extinct"),
            DeathCause::ControllersDead => write!(f, "all controllers dead"),
            DeathCause::GatewayDead => write!(f, "job gateway dead or isolated"),
            DeathCause::Stalled => write!(f, "all jobs irrecoverably stalled"),
            DeathCause::MaxCycles => write!(f, "cycle limit reached"),
        }
    }
}

/// Where the platform's energy went over the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Acts of computation on application modules.
    pub compute: Energy,
    /// Data packets on textile transmission lines.
    pub data_communication: Energy,
    /// The shared TDMA control medium (uploads + downloads) — the paper's
    /// overhead numerator.
    pub control_medium: Energy,
    /// Controller computation and leakage.
    pub controller: Energy,
    /// Energy stranded in batteries at system death: wasted below the
    /// voltage cutoff in dead cells plus everything left in live cells.
    pub stranded: Energy,
}

impl EnergyBreakdown {
    /// Total energy actually consumed (excludes stranded energy).
    #[must_use]
    pub fn total_consumed(&self) -> Energy {
        self.compute + self.data_communication + self.control_medium + self.controller
    }

    /// The paper's control-overhead metric: control-medium energy over
    /// total consumed energy.
    #[must_use]
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.total_consumed();
        if total.is_positive() {
            self.control_medium / total
        } else {
            0.0
        }
    }
}

/// Per-node statistics at the end of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// The node.
    pub node: NodeId,
    /// The module it hosted.
    pub module: ModuleId,
    /// Acts of computation it performed.
    pub ops_done: u64,
    /// Packets it drove onto data lines (origin + relay).
    pub packets_sent: u64,
    /// Energy it spent computing.
    pub compute_energy: Energy,
    /// Energy it spent on data lines.
    pub comm_energy: Energy,
    /// Energy it spent on control uploads.
    pub control_energy: Energy,
    /// Whether it was still alive at system death.
    pub alive_at_end: bool,
    /// Energy delivered by its battery overall.
    pub delivered: Energy,
    /// Energy stranded in its battery (wasted + undrawn).
    pub stranded: Energy,
}

/// The complete result of one `et_sim` run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Jobs fully completed.
    pub jobs_completed: u64,
    /// Jobs completed plus the fractional progress of in-flight jobs at
    /// system death — the quantity Table 2 reports (e.g. 62.8).
    pub jobs_fractional: f64,
    /// Jobs lost to mid-flight node deaths.
    pub jobs_lost: u64,
    /// System lifetime in cycles.
    pub lifetime_cycles: u64,
    /// Why the system died.
    pub death_cause: DeathCause,
    /// Energy accounting.
    pub energy: EnergyBreakdown,
    /// Deadlock reports the controller received.
    pub deadlock_reports: u64,
    /// How many times the routing algorithm ran.
    pub routing_recomputes: u64,
    /// How the routing recomputes split across the phase-2 paths (full /
    /// incremental repair), plus the repair pipeline's per-source
    /// repaired/fallback tallies.
    pub recompute: RecomputeStats,
    /// Module remappings (code migrations) the controller performed.
    pub remaps: u64,
    /// TDMA frames elapsed.
    pub frames: u64,
    /// Per-node details.
    pub node_stats: Vec<NodeStats>,
}

impl SimReport {
    /// The control-overhead percentage (0–100), as quoted in Sec 7.1.
    #[must_use]
    pub fn overhead_percent(&self) -> f64 {
        self.energy.overhead_fraction() * 100.0
    }

    /// Number of nodes still alive at system death.
    #[must_use]
    pub fn survivors(&self) -> usize {
        self.node_stats.iter().filter(|n| n.alive_at_end).count()
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "jobs: {} completed ({:.1} fractional, {} lost)",
            self.jobs_completed, self.jobs_fractional, self.jobs_lost
        )?;
        writeln!(f, "lifetime: {} cycles ({})", self.lifetime_cycles, self.death_cause)?;
        writeln!(
            f,
            "energy: compute {:.0} pJ, data {:.0} pJ, control medium {:.0} pJ, \
             controller {:.0} pJ, stranded {:.0} pJ",
            self.energy.compute.picojoules(),
            self.energy.data_communication.picojoules(),
            self.energy.control_medium.picojoules(),
            self.energy.controller.picojoules(),
            self.energy.stranded.picojoules(),
        )?;
        writeln!(
            f,
            "overhead: {:.1} %, recomputes: {}, deadlock reports: {}, remaps: {}",
            self.overhead_percent(),
            self.routing_recomputes,
            self.deadlock_reports,
            self.remaps
        )?;
        write!(
            f,
            "recompute paths: {} full, {} repair \
             ({} sources repaired, {} re-run, {} decrease-repaired / {} nodes improved); \
             table: {} delta rebuilds, {} entries ({} challenge-patched); \
             {} nodes scanned",
            self.recompute.full_recomputes,
            self.recompute.repair_recomputes,
            self.recompute.repaired_sources,
            self.recompute.fallback_sources,
            self.recompute.decrease_repairs,
            self.recompute.decrease_nodes_improved,
            self.recompute.table_delta_rebuilds,
            self.recompute.table_entries_rebuilt,
            self.recompute.table_cells_patched,
            self.recompute.nodes_scanned,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pj(v: f64) -> Energy {
        Energy::from_picojoules(v)
    }

    #[test]
    fn breakdown_totals_and_overhead() {
        let e = EnergyBreakdown {
            compute: pj(500.0),
            data_communication: pj(400.0),
            control_medium: pj(28.0),
            controller: pj(72.0),
            stranded: pj(1000.0),
        };
        assert_eq!(e.total_consumed(), pj(1000.0));
        assert!((e.overhead_fraction() - 0.028).abs() < 1e-12);
        assert_eq!(EnergyBreakdown::default().overhead_fraction(), 0.0);
    }

    #[test]
    fn death_cause_display() {
        assert_eq!(DeathCause::ModuleExtinct(ModuleId::new(2)).to_string(), "module M3 extinct");
        assert!(DeathCause::Stalled.to_string().contains("stalled"));
        assert!(DeathCause::GatewayDead.to_string().contains("gateway"));
        assert!(DeathCause::ControllersDead.to_string().contains("controllers"));
        assert!(DeathCause::MaxCycles.to_string().contains("limit"));
    }

    #[test]
    fn report_display_and_helpers() {
        let report = SimReport {
            jobs_completed: 10,
            jobs_fractional: 10.5,
            jobs_lost: 1,
            lifetime_cycles: 5000,
            death_cause: DeathCause::Stalled,
            energy: EnergyBreakdown {
                compute: pj(900.0),
                data_communication: pj(50.0),
                control_medium: pj(50.0),
                controller: pj(0.0),
                stranded: pj(10.0),
            },
            deadlock_reports: 2,
            routing_recomputes: 7,
            recompute: RecomputeStats {
                full_recomputes: 2,
                repair_recomputes: 5,
                repaired_sources: 40,
                fallback_sources: 3,
                decrease_repairs: 6,
                decrease_nodes_improved: 18,
                table_delta_rebuilds: 4,
                table_entries_rebuilt: 60,
                table_cells_patched: 12,
                nodes_scanned: 70,
            },
            remaps: 0,
            frames: 5,
            node_stats: vec![],
        };
        assert!((report.overhead_percent() - 5.0).abs() < 1e-12);
        assert_eq!(report.survivors(), 0);
        let s = report.to_string();
        assert!(s.contains("10 completed") && s.contains("5.0 %"));
        assert!(s.contains("5 repair") && s.contains("40 sources repaired"));
        assert!(s.contains("6 decrease-repaired / 18 nodes improved"));
    }
}
