//! Shared helpers for the `etx-bench` harness.
//!
//! The real content of this crate is its binaries and benches:
//!
//! * `repro` — regenerates every table and figure of the paper
//!   (`cargo run -p etx-bench --bin repro --release -- --exp all`);
//! * `overhead_gate` — fails when metrics recording costs more than
//!   1 %, or trace recording more than 5 %, of a K=1024 steady-drain
//!   repair frame (`cargo run -p etx-bench --bin overhead_gate
//!   --release`);
//! * Criterion benches `fig7`, `table2`, `fig8`, `battery`,
//!   `routing_scaling` — timing harnesses for the same experiments plus
//!   the simulator's computational kernels.
//!
//! End-to-end performance is measured by `perfbench/`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Experiments the `repro` binary can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Fig 2: thin-film discharge curve.
    Fig2,
    /// Fig 7: EAR vs SDR + overhead percentages.
    Fig7,
    /// Table 2: EAR vs the Theorem-1 bound.
    Table2,
    /// Fig 8: controller-count sweep.
    Fig8,
    /// Theorem 1 closed form vs allocations.
    Theorem1,
    /// Concurrency / deadlock recovery.
    Concurrent,
    /// Q-exponent ablation.
    AblateQ,
    /// Mapping-strategy ablation.
    AblateMapping,
    /// Battery-model ablation.
    AblateBattery,
    /// Battery-quantization ablation.
    AblateLevels,
    /// Interconnect-topology ablation.
    AblateTopology,
    /// Remapping (code-migration) extension ablation.
    AblateRemap,
}

impl Experiment {
    /// All experiments in report order.
    pub const ALL: [Experiment; 12] = [
        Experiment::Fig2,
        Experiment::Fig7,
        Experiment::Table2,
        Experiment::Fig8,
        Experiment::Theorem1,
        Experiment::Concurrent,
        Experiment::AblateQ,
        Experiment::AblateMapping,
        Experiment::AblateBattery,
        Experiment::AblateLevels,
        Experiment::AblateTopology,
        Experiment::AblateRemap,
    ];

    /// Parses a CLI name like `fig7` or `ablate-q`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "fig2" => Some(Experiment::Fig2),
            "fig7" => Some(Experiment::Fig7),
            "table2" => Some(Experiment::Table2),
            "fig8" => Some(Experiment::Fig8),
            "theorem1" => Some(Experiment::Theorem1),
            "concurrent" => Some(Experiment::Concurrent),
            "ablate-q" => Some(Experiment::AblateQ),
            "ablate-mapping" => Some(Experiment::AblateMapping),
            "ablate-battery" => Some(Experiment::AblateBattery),
            "ablate-levels" => Some(Experiment::AblateLevels),
            "ablate-topology" => Some(Experiment::AblateTopology),
            "ablate-remap" => Some(Experiment::AblateRemap),
            _ => None,
        }
    }

    /// The CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Fig2 => "fig2",
            Experiment::Fig7 => "fig7",
            Experiment::Table2 => "table2",
            Experiment::Fig8 => "fig8",
            Experiment::Theorem1 => "theorem1",
            Experiment::Concurrent => "concurrent",
            Experiment::AblateQ => "ablate-q",
            Experiment::AblateMapping => "ablate-mapping",
            Experiment::AblateBattery => "ablate-battery",
            Experiment::AblateLevels => "ablate-levels",
            Experiment::AblateTopology => "ablate-topology",
            Experiment::AblateRemap => "ablate-remap",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips() {
        for exp in Experiment::ALL {
            assert_eq!(Experiment::parse(exp.name()), Some(exp));
        }
        assert_eq!(Experiment::parse("FIG7"), Some(Experiment::Fig7));
        assert_eq!(Experiment::parse("nope"), None);
    }
}
