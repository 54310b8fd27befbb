//! [`ScenarioSpec`]: one declarative spec that expands into N diverse,
//! reproducible [`SimConfig`]s.
//!
//! The paper evaluates EAR under fixed operating points (one mesh, one
//! battery budget, one schedule); the fleet controller instead sweeps
//! *distributions* over operating conditions — topology shape and size,
//! battery budget and heterogeneity, node churn, TDMA duty cycle and
//! traffic mix — the way a garment fleet in the field actually varies.
//! Instance `i` of a spec is sampled from a [`FleetRng`] substream forked
//! from `(spec.seed, i)` alone, so the expansion is reproducible and
//! independent of sharding.

use etx_app::{AppSpec, ModuleSpec};
use etx_routing::{Algorithm, RecomputeStrategy};
use etx_sim::{
    BatteryModel, JobSource, MappingKind, ScriptedFailure, ScriptedRevival, SimConfig,
    SimConfigBuilder, TopologyKind,
};
use etx_units::{Cycles, Energy, Voltage};

use crate::rng::FleetRng;

/// Interconnect shapes a scenario may draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyChoice {
    /// 2-D mesh (the paper's platform).
    Mesh,
    /// Mesh with wrap-around links.
    Torus,
    /// Ring of `side * side` nodes.
    Ring,
}

impl TopologyChoice {
    /// CLI/spec-file name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TopologyChoice::Mesh => "mesh",
            TopologyChoice::Torus => "torus",
            TopologyChoice::Ring => "ring",
        }
    }

    /// Parses a spec-file name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "mesh" => Some(TopologyChoice::Mesh),
            "torus" => Some(TopologyChoice::Torus),
            "ring" => Some(TopologyChoice::Ring),
            _ => None,
        }
    }
}

/// Battery models a scenario may draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatteryChoice {
    /// Constant-voltage ideal cell.
    Ideal,
    /// Li-free thin-film cell with discrete-time effects.
    ThinFilm,
    /// Linear voltage decline with a 3.0 V cutoff.
    Linear,
}

impl BatteryChoice {
    /// CLI/spec-file name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BatteryChoice::Ideal => "ideal",
            BatteryChoice::ThinFilm => "thinfilm",
            BatteryChoice::Linear => "linear",
        }
    }

    /// Parses a spec-file name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "ideal" => Some(BatteryChoice::Ideal),
            "thinfilm" | "thin-film" => Some(BatteryChoice::ThinFilm),
            "linear" => Some(BatteryChoice::Linear),
            _ => None,
        }
    }

    fn build(self) -> BatteryModel {
        match self {
            BatteryChoice::Ideal => BatteryModel::Ideal,
            BatteryChoice::ThinFilm => BatteryModel::ThinFilm,
            BatteryChoice::Linear => BatteryModel::Linear {
                v_full: Voltage::from_volts(4.1),
                v_empty: Voltage::from_volts(2.0),
                cutoff: Voltage::from_volts(3.0),
            },
        }
    }
}

/// Applications a scenario may draw (the traffic-mix dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppChoice {
    /// The paper's 3-module distributed AES (30 ops per job).
    Aes,
    /// A light 2-module sense-then-log pipeline (3 ops per job).
    SenseLog,
}

impl AppChoice {
    /// CLI/spec-file name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AppChoice::Aes => "aes",
            AppChoice::SenseLog => "senselog",
        }
    }

    /// Parses a spec-file name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "aes" => Some(AppChoice::Aes),
            "senselog" | "sense-log" => Some(AppChoice::SenseLog),
            _ => None,
        }
    }

    fn build(self) -> AppSpec {
        match self {
            AppChoice::Aes => AppSpec::aes(),
            AppChoice::SenseLog => AppSpec::builder("sense-log")
                .module(ModuleSpec::new("sense", 2, Energy::from_picojoules(50.0)))
                .module(ModuleSpec::new("store", 1, Energy::from_picojoules(90.0)))
                .op_sequence([0, 0, 1])
                .build()
                .expect("static sense-log app is well-formed"),
        }
    }
}

/// A declarative distribution over operating conditions; one spec plus a
/// seed expands into `instances` reproducible [`SimConfig`]s.
///
/// All numeric pairs are uniform sampling ranges: integer pairs are
/// inclusive of both ends, `f64` pairs are half-open `[lo, hi)`. The
/// spec-file format is one `key = value` per line (see
/// [`ScenarioSpec::parse`]); [`ScenarioSpec::to_text`] renders the
/// canonical form back.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Human-readable spec name (reported in aggregates).
    pub name: String,
    /// Root seed; instance `i` forks substream `(seed, i)`.
    pub seed: u64,
    /// How many instances the spec expands into.
    pub instances: usize,
    /// Mesh side length range (`side x side` fabrics; a ring gets
    /// `side * side` nodes).
    pub mesh_side: (usize, usize),
    /// Interconnect shapes drawn uniformly.
    pub topologies: Vec<TopologyChoice>,
    /// Routing algorithms drawn uniformly.
    pub algorithms: Vec<Algorithm>,
    /// Routing recompute strategy every instance runs (a fixed knob, not
    /// a sampled dimension: strategies change controller cost, never
    /// results, so sweeping them would only add noise to a comparison).
    pub strategy: RecomputeStrategy,
    /// Battery models drawn uniformly.
    pub battery_models: Vec<BatteryChoice>,
    /// Applications drawn uniformly.
    pub apps: Vec<AppChoice>,
    /// Per-node battery budget range in picojoules.
    pub battery_pj: (f64, f64),
    /// Battery heterogeneity `h`: per-node capacity multipliers drawn
    /// from `[max(0.05, 1-h), 1+h]`. `0` disables (uniform fleet).
    pub heterogeneity: f64,
    /// How many scripted node failures to inject per instance.
    pub churn: (usize, usize),
    /// Scripted failures land uniformly in `[1, churn_horizon]` cycles.
    pub churn_horizon: u64,
    /// Probability each scripted failure gets a matching scripted
    /// *revival* (the node reconnects up to `churn_horizon` cycles after
    /// it was ripped out). `0` disables (pure churn); a reviving fabric
    /// exercises the router's decrease-repair path.
    pub revival_fraction: f64,
    /// TDMA frame period range in cycles (the duty-cycle lever: longer
    /// frames mean rarer control traffic and staler routes).
    pub frame_period: (u64, u64),
    /// Concurrent-job count range (traffic intensity).
    pub concurrent_jobs: (usize, usize),
    /// Probability a scenario feeds jobs in via [`JobSource::Broadcast`]
    /// instead of a random fixed gateway node.
    pub broadcast_fraction: f64,
    /// Hard per-instance cycle limit.
    pub max_cycles: u64,
    /// Frame-trace retention when this spec is recorded (`fleet
    /// --record`): `0` keeps every frame (a full trace); `N > 0` keeps
    /// only the last `N` frames in a bounded ring. Cost-only — the knob
    /// never changes what a run *does*, only how much of it is kept.
    pub record_frames: u64,
    /// Serve-side warm-up: how many engine cycles each instance drains
    /// before its routing tables are served (`FleetFrontend::from_spec`
    /// and the `served` daemon). Fleet *runs* ignore it — it shapes the
    /// snapshot a query layer answers from, never a simulation outcome.
    pub warm_cycles: u64,
}

impl Default for ScenarioSpec {
    /// The `mixed` preset: every dimension open, paper-adjacent scales.
    fn default() -> Self {
        ScenarioSpec {
            name: "mixed".to_string(),
            seed: 2005,
            instances: 1000,
            mesh_side: (3, 6),
            topologies: vec![TopologyChoice::Mesh, TopologyChoice::Torus, TopologyChoice::Ring],
            algorithms: vec![Algorithm::Ear, Algorithm::Sdr],
            strategy: RecomputeStrategy::Auto,
            battery_models: vec![BatteryChoice::Ideal, BatteryChoice::ThinFilm],
            apps: vec![AppChoice::Aes, AppChoice::SenseLog],
            battery_pj: (4_000.0, 12_000.0),
            heterogeneity: 0.3,
            churn: (0, 2),
            churn_horizon: 30_000,
            revival_fraction: 0.0,
            frame_period: (512, 2_048),
            concurrent_jobs: (1, 3),
            broadcast_fraction: 0.3,
            max_cycles: 2_000_000,
            record_frames: 0,
            warm_cycles: 4_000,
        }
    }
}

impl ScenarioSpec {
    /// The tiny CI preset: a handful of small, short-lived instances that
    /// still cross every sampling dimension.
    #[must_use]
    pub fn smoke() -> Self {
        ScenarioSpec {
            name: "smoke".to_string(),
            instances: 8,
            mesh_side: (3, 4),
            battery_pj: (3_000.0, 5_000.0),
            churn: (0, 1),
            churn_horizon: 10_000,
            max_cycles: 300_000,
            ..ScenarioSpec::default()
        }
    }

    /// The churn-heavy preset: mid-size fabrics losing nodes constantly —
    /// the regime where EAR's battery-awareness and the controller's
    /// rerouting earn their keep.
    #[must_use]
    pub fn churn() -> Self {
        ScenarioSpec {
            name: "churn".to_string(),
            mesh_side: (4, 6),
            heterogeneity: 0.5,
            churn: (2, 6),
            churn_horizon: 20_000,
            ..ScenarioSpec::default()
        }
    }

    /// The reconnect preset: the churn regime, but most ripped-out nodes
    /// get re-seated later — every revival is a batch of weight
    /// *decreases*, the regime the incremental decrease-repair path (and
    /// the energy-harvesting roadmap) is built for. Fabrics start at
    /// 7×7: the smallest size whose `Auto` backend resolves to Dijkstra,
    /// so the repair pipeline (and its decrease half) actually runs
    /// instead of Floyd–Warshall full recomputes.
    ///
    /// The horizon is deliberately short and the batteries deliberately
    /// generous: a disconnect and its reconnect must *both* land well
    /// inside the system lifetime, on warm repair trees, or the revival
    /// never fires and the decrease path goes unexercised.
    #[must_use]
    pub fn reconnect() -> Self {
        ScenarioSpec {
            name: "reconnect".to_string(),
            mesh_side: (7, 9),
            battery_pj: (20_000.0, 30_000.0),
            churn_horizon: 1_500,
            revival_fraction: 0.8,
            ..ScenarioSpec::churn()
        }
    }

    /// Looks up a named preset (`mixed`, `smoke`, `churn`, `reconnect`).
    #[must_use]
    pub fn preset(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "mixed" => Some(ScenarioSpec::default()),
            "smoke" => Some(ScenarioSpec::smoke()),
            "churn" => Some(ScenarioSpec::churn()),
            "reconnect" => Some(ScenarioSpec::reconnect()),
            _ => None,
        }
    }

    /// Samples instance `index`'s configuration.
    ///
    /// The returned builder still runs full [`SimConfigBuilder`]
    /// validation at build time; a spec whose ranges produce an invalid
    /// combination yields a *rejected* instance (counted by the
    /// controller), never a panic.
    #[must_use]
    pub fn sample(&self, index: usize) -> SimConfigBuilder {
        let mut rng = FleetRng::new(self.seed).fork(index as u64);
        let side = rng.range_usize(self.mesh_side.0..=self.mesh_side.1);
        let nodes = side * side;
        let topology = match rng.pick(&self.topologies).copied().unwrap_or(TopologyChoice::Mesh) {
            TopologyChoice::Mesh => TopologyKind::Mesh,
            TopologyChoice::Torus => TopologyKind::Torus,
            TopologyChoice::Ring => TopologyKind::Ring,
        };
        let algorithm = rng.pick(&self.algorithms).copied().unwrap_or(Algorithm::Ear);
        let battery =
            rng.pick(&self.battery_models).copied().unwrap_or(BatteryChoice::Ideal).build();
        let app = rng.pick(&self.apps).copied().unwrap_or(AppChoice::Aes).build();
        let capacity = rng.range_f64(self.battery_pj.0, self.battery_pj.1);
        // Coordinate-free mappings work on every sampled topology.
        let mapping =
            if rng.chance(0.5) { MappingKind::Proportional } else { MappingKind::RoundRobin };
        let source = if rng.chance(self.broadcast_fraction) {
            JobSource::Broadcast
        } else {
            JobSource::GatewayNode { node: rng.below(nodes as u64) as usize }
        };
        let capacity_profile = if self.heterogeneity > 0.0 {
            let lo = (1.0 - self.heterogeneity).max(0.05);
            let hi = 1.0 + self.heterogeneity;
            (0..nodes).map(|_| rng.range_f64(lo, hi)).collect()
        } else {
            Vec::new()
        };
        let failures: Vec<ScriptedFailure> = (0..rng.range_usize(self.churn.0..=self.churn.1))
            .map(|_| ScriptedFailure {
                at_cycle: rng.range_u64(1..=self.churn_horizon.max(1)),
                node: rng.below(nodes as u64) as usize,
            })
            .collect();
        // Only draw revival randomness when the dimension is open, so
        // pure-churn specs sample identically with or without it.
        let mut revivals = Vec::new();
        if self.revival_fraction > 0.0 {
            for f in &failures {
                if rng.chance(self.revival_fraction) {
                    revivals.push(ScriptedRevival {
                        at_cycle: f.at_cycle + rng.range_u64(1..=self.churn_horizon.max(1)),
                        node: f.node,
                    });
                }
            }
        }
        let frame_period = rng.range_u64(self.frame_period.0..=self.frame_period.1);
        let concurrent = rng.range_usize(self.concurrent_jobs.0..=self.concurrent_jobs.1);
        SimConfig::builder()
            .mesh_square(side)
            .topology(topology)
            .algorithm(algorithm)
            .battery(battery)
            .battery_capacity_picojoules(capacity)
            .capacity_profile(capacity_profile)
            .scripted_failures(failures)
            .scripted_revivals(revivals)
            .app(app)
            .mapping(mapping)
            .source(source)
            .concurrent_jobs(concurrent)
            .recompute_strategy(self.strategy)
            .max_cycles(self.max_cycles)
            .tweak(|c| c.tdma.frame_period = Cycles::new(frame_period))
    }

    /// Parses the `key = value` spec-file format. Unknown keys and
    /// malformed values are hard errors (a silently ignored dimension
    /// would corrupt a fleet comparison). `#` starts a comment anywhere
    /// on a line; blank lines are skipped. Omitted keys keep the
    /// `mixed` defaults.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first bad line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut spec = ScenarioSpec::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |what: &str| format!("line {}: bad {what}: `{value}`", lineno + 1);
            match key {
                "name" => spec.name = value.to_string(),
                "seed" => spec.seed = value.parse().map_err(|_| bad("seed"))?,
                "instances" => spec.instances = value.parse().map_err(|_| bad("instances"))?,
                "mesh_side" => spec.mesh_side = parse_range(value).ok_or_else(|| bad("range"))?,
                "topology" => {
                    spec.topologies = parse_list(value, TopologyChoice::parse)
                        .ok_or_else(|| bad("topology list"))?;
                }
                "algorithm" => {
                    spec.algorithms = parse_list(value, |s| match s {
                        "ear" => Some(Algorithm::Ear),
                        "sdr" => Some(Algorithm::Sdr),
                        _ => None,
                    })
                    .ok_or_else(|| bad("algorithm list"))?;
                }
                "strategy" => {
                    spec.strategy = RecomputeStrategy::parse(value)
                        .ok_or_else(|| bad("strategy (full|auto)"))?;
                }
                "battery_model" => {
                    spec.battery_models = parse_list(value, BatteryChoice::parse)
                        .ok_or_else(|| bad("battery model list"))?;
                }
                "app" => {
                    spec.apps =
                        parse_list(value, AppChoice::parse).ok_or_else(|| bad("app list"))?;
                }
                "battery_pj" => {
                    let (lo, hi) = parse_range::<f64>(value).ok_or_else(|| bad("range"))?;
                    spec.battery_pj = (lo, hi);
                }
                "heterogeneity" => {
                    spec.heterogeneity = value.parse().map_err(|_| bad("fraction"))?;
                }
                "churn" => spec.churn = parse_range(value).ok_or_else(|| bad("range"))?,
                "churn_horizon" => {
                    spec.churn_horizon = value.parse().map_err(|_| bad("cycle count"))?;
                }
                "revival_fraction" => {
                    spec.revival_fraction = value.parse().map_err(|_| bad("fraction"))?;
                }
                "frame_period" => {
                    spec.frame_period = parse_range(value).ok_or_else(|| bad("range"))?;
                }
                "concurrent_jobs" => {
                    spec.concurrent_jobs = parse_range(value).ok_or_else(|| bad("range"))?;
                }
                "broadcast_fraction" => {
                    spec.broadcast_fraction = value.parse().map_err(|_| bad("fraction"))?;
                }
                "max_cycles" => spec.max_cycles = value.parse().map_err(|_| bad("cycle count"))?,
                "record_frames" => {
                    spec.record_frames = value.parse().map_err(|_| bad("frame count"))?;
                }
                "warm_cycles" => {
                    spec.warm_cycles = value.parse().map_err(|_| bad("cycle count"))?;
                }
                _ => return Err(format!("line {}: unknown key `{key}`", lineno + 1)),
            }
        }
        spec.check()?;
        Ok(spec)
    }

    /// Renders the canonical spec-file form ([`ScenarioSpec::parse`]'s
    /// inverse).
    #[must_use]
    pub fn to_text(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "name = {}", self.name);
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(out, "instances = {}", self.instances);
        let _ = writeln!(out, "mesh_side = {}..{}", self.mesh_side.0, self.mesh_side.1);
        let topos: Vec<&str> = self.topologies.iter().map(|t| t.name()).collect();
        let _ = writeln!(out, "topology = {}", topos.join(", "));
        let algos: Vec<&str> = self
            .algorithms
            .iter()
            .map(|a| if *a == Algorithm::Ear { "ear" } else { "sdr" })
            .collect();
        let _ = writeln!(out, "algorithm = {}", algos.join(", "));
        let _ = writeln!(out, "strategy = {}", self.strategy.name());
        let models: Vec<&str> = self.battery_models.iter().map(|m| m.name()).collect();
        let _ = writeln!(out, "battery_model = {}", models.join(", "));
        let apps: Vec<&str> = self.apps.iter().map(|a| a.name()).collect();
        let _ = writeln!(out, "app = {}", apps.join(", "));
        let _ = writeln!(out, "battery_pj = {}..{}", self.battery_pj.0, self.battery_pj.1);
        let _ = writeln!(out, "heterogeneity = {}", self.heterogeneity);
        let _ = writeln!(out, "churn = {}..{}", self.churn.0, self.churn.1);
        let _ = writeln!(out, "churn_horizon = {}", self.churn_horizon);
        let _ = writeln!(out, "revival_fraction = {}", self.revival_fraction);
        let _ = writeln!(out, "frame_period = {}..{}", self.frame_period.0, self.frame_period.1);
        let _ = writeln!(
            out,
            "concurrent_jobs = {}..{}",
            self.concurrent_jobs.0, self.concurrent_jobs.1
        );
        let _ = writeln!(out, "broadcast_fraction = {}", self.broadcast_fraction);
        let _ = writeln!(out, "max_cycles = {}", self.max_cycles);
        let _ = writeln!(out, "record_frames = {}", self.record_frames);
        let _ = writeln!(out, "warm_cycles = {}", self.warm_cycles);
        out
    }

    /// Structural sanity checks on the spec itself (not on sampled
    /// configs — those go through `SimConfigBuilder` validation).
    ///
    /// # Errors
    ///
    /// A description of the violated constraint.
    pub fn check(&self) -> Result<(), String> {
        if self.instances == 0 {
            return Err("spec expands into zero instances".to_string());
        }
        if self.mesh_side.0 == 0 || self.mesh_side.0 > self.mesh_side.1 {
            return Err(format!(
                "mesh_side range {}..{} is empty or zero",
                self.mesh_side.0, self.mesh_side.1
            ));
        }
        if self.topologies.is_empty()
            || self.algorithms.is_empty()
            || self.battery_models.is_empty()
            || self.apps.is_empty()
        {
            return Err("every choice list needs at least one entry".to_string());
        }
        if !(self.battery_pj.0 > 0.0 && self.battery_pj.0 <= self.battery_pj.1) {
            return Err("battery_pj range must be positive and non-empty".to_string());
        }
        if !(0.0..=1.0).contains(&self.broadcast_fraction) {
            return Err("broadcast_fraction must be in [0, 1]".to_string());
        }
        if !(0.0..1.0).contains(&self.heterogeneity) {
            return Err("heterogeneity must be in [0, 1)".to_string());
        }
        if self.frame_period.0 == 0 || self.frame_period.0 > self.frame_period.1 {
            return Err("frame_period range must be positive and non-empty".to_string());
        }
        if self.concurrent_jobs.0 == 0 || self.concurrent_jobs.0 > self.concurrent_jobs.1 {
            return Err("concurrent_jobs range must be positive and non-empty".to_string());
        }
        if self.churn.0 > self.churn.1 {
            return Err("churn range is empty".to_string());
        }
        if !(0.0..=1.0).contains(&self.revival_fraction) {
            return Err("revival_fraction must be in [0, 1]".to_string());
        }
        Ok(())
    }
}

/// Parses `lo..hi` (inclusive) or a single scalar `v` (meaning `v..v`).
fn parse_range<T: Copy + core::str::FromStr>(value: &str) -> Option<(T, T)> {
    if let Some((lo, hi)) = value.split_once("..") {
        let lo = lo.trim().parse().ok()?;
        let hi = hi.trim().parse().ok()?;
        Some((lo, hi))
    } else {
        let v: T = value.trim().parse().ok()?;
        Some((v, v))
    }
}

/// Parses a comma-separated list through `one`, requiring at least one
/// entry and no unknowns.
fn parse_list<T>(value: &str, one: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
    let items: Option<Vec<T>> =
        value.split(',').map(|s| one(s.trim().to_ascii_lowercase().as_str())).collect();
    items.filter(|v| !v.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_pass_their_own_checks() {
        for name in ["mixed", "smoke", "churn", "reconnect"] {
            let spec = ScenarioSpec::preset(name).expect("preset exists");
            spec.check().expect("preset is well-formed");
            assert_eq!(spec.name, name);
        }
        assert!(ScenarioSpec::preset("nope").is_none());
    }

    #[test]
    fn sampling_is_reproducible_and_index_sensitive() {
        let spec = ScenarioSpec::smoke();
        let a = spec.sample(3).validate().expect("sampled config is valid");
        let b = spec.sample(3).validate().expect("sampled config is valid");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // Across 8 instances at least two distinct fabric sizes appear.
        let sizes: std::collections::BTreeSet<usize> =
            (0..8).map(|i| spec.sample(i).validate().unwrap().node_count()).collect();
        assert!(sizes.len() > 1, "smoke preset collapsed to one size: {sizes:?}");
    }

    #[test]
    fn sampled_configs_build_and_run() {
        let spec = ScenarioSpec::smoke();
        for i in 0..spec.instances {
            let report = spec.sample(i).build().expect("smoke instances are valid").run();
            assert!(report.lifetime_cycles > 0, "instance {i} died at cycle 0");
        }
    }

    #[test]
    fn reconnect_preset_schedules_revivals() {
        let spec = ScenarioSpec::reconnect();
        let mut revived = 0usize;
        for i in 0..16 {
            let cfg = spec.sample(i).validate().expect("reconnect instances are valid");
            for r in &cfg.scripted_revivals {
                let failed = cfg.scripted_failures.iter().find(|f| f.node == r.node);
                let failed = failed.expect("every revival reconnects a scripted failure");
                assert!(r.at_cycle > failed.at_cycle, "revival precedes its failure");
                revived += 1;
            }
        }
        assert!(revived > 0, "reconnect preset never scheduled a revival");
        // Scheduling is not enough: a revival landing after system death
        // (or on cold trees) never reaches the router. Run a few
        // instances end-to-end and demand the decrease half actually
        // fired — this is the regime the preset exists to exercise.
        let mut decrease_repairs = 0u64;
        for i in 6..9 {
            let report = spec.sample(i).build().expect("reconnect instances are valid").run();
            decrease_repairs += report.recompute.decrease_repairs;
        }
        assert!(decrease_repairs > 0, "no reconnect instance hit the decrease-repair path");
        // The pure-churn preset must keep sampling exactly as before the
        // revival dimension existed (no extra rng draws).
        let churn = ScenarioSpec::churn();
        for i in 0..8 {
            assert!(churn.sample(i).validate().unwrap().scripted_revivals.is_empty());
        }
    }

    #[test]
    fn parse_roundtrip_and_errors() {
        for spec in [ScenarioSpec::churn(), ScenarioSpec::reconnect()] {
            let parsed = ScenarioSpec::parse(&spec.to_text()).expect("canonical text parses");
            assert_eq!(spec, parsed);
        }

        let overridden =
            ScenarioSpec::parse("instances = 5 # inline comment\nmesh_side = 4\n# comment\n")
                .expect("partial spec parses");
        assert_eq!(overridden.instances, 5);
        assert_eq!(overridden.mesh_side, (4, 4));

        let strat = ScenarioSpec::parse("strategy = full").expect("strategy key parses");
        assert_eq!(strat.strategy, RecomputeStrategy::Full);
        assert!(ScenarioSpec::parse("strategy = incremental").is_err());
        // The retired frame-feed key is an unknown key like any other.
        assert_eq!(
            ScenarioSpec::parse("feed = bitset"),
            Err("line 1: unknown key `feed`".to_string())
        );

        assert!(ScenarioSpec::parse("bogus_key = 1").is_err());
        assert!(ScenarioSpec::parse("mesh_side = banana").is_err());
        assert!(ScenarioSpec::parse("instances = 0").is_err());
        assert!(ScenarioSpec::parse("topology = klein-bottle").is_err());
        assert!(ScenarioSpec::parse("strategy = warp").is_err());
        assert!(ScenarioSpec::parse("no equals sign").is_err());
    }

    #[test]
    fn choice_names_roundtrip() {
        for t in [TopologyChoice::Mesh, TopologyChoice::Torus, TopologyChoice::Ring] {
            assert_eq!(TopologyChoice::parse(t.name()), Some(t));
        }
        for b in [BatteryChoice::Ideal, BatteryChoice::ThinFilm, BatteryChoice::Linear] {
            assert_eq!(BatteryChoice::parse(b.name()), Some(b));
        }
        for a in [AppChoice::Aes, AppChoice::SenseLog] {
            assert_eq!(AppChoice::parse(a.name()), Some(a));
        }
    }
}
