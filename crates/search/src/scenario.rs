//! Scenarios and the search space they are drawn from.
//!
//! A [`Scenario`] is one fully-resolved point the search can hand to the
//! simulator: traffic load, deployment size, experiment duration, a fixed
//! fault schedule and an optional live-reconfiguration plan. Everything
//! else (cell numerology, predictor, scheduler, profiling budget, seed)
//! comes from the base [`SimConfig`] the search was started with, so a
//! scenario is small, serializable, and — crucially for repro artifacts —
//! complete: `scenario.apply(&base)` always builds the exact same
//! experiment configuration.
//!
//! [`ScenarioSize`] is the shrinker's yardstick: a lexicographic tuple
//! ordered so that "fewer fault windows" beats "shorter run" beats "milder
//! severities". Every accepted shrink step strictly decreases it, which
//! guarantees termination and gives "minimal counterexample" a precise
//! meaning.

use concordia_core::config::SimConfig;
use concordia_core::reconfig::{ReconfigPlan, ReconfigPlanError, ReconfigStep};
use concordia_core::{ScenarioError, ScenarioSpec};
use concordia_platform::faults::{FaultKind, FaultPlan, FaultPlanError, FaultSpec};
use concordia_ran::time::Nanos;
use concordia_stats::rng::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One fully-resolved point in the adversarial search space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Traffic load fraction.
    pub load: f64,
    /// Pooled cells.
    pub n_cells: u32,
    /// vRAN pool cores.
    pub cores: u32,
    /// Online-phase duration.
    pub duration: Nanos,
    /// Fault schedule. The search only builds fully-fixed specs
    /// ([`FaultSpec::fixed`]) so a scenario leaves no randomness to the
    /// resolver, but replayed artifacts may carry ranged specs too.
    pub faults: FaultPlan,
    /// Live-reconfiguration plan, when the scenario exercises one.
    pub reconfig: Option<ReconfigPlan>,
    /// Workload scenario (traffic envelope + platform scale) the point
    /// runs under, when the space perturbs one. `None` falls back to
    /// whatever the base configuration carries, so pre-workload corpora
    /// and artifacts deserialize — and replay — unchanged.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub workload: Option<ScenarioSpec>,
}

impl Scenario {
    /// The experiment configuration this scenario denotes: `base` with the
    /// scenario's knobs substituted in. Fault windows are clamped into the
    /// (possibly shortened) run and an empty plan degrades to `None`, so
    /// shrunk scenarios stay self-consistent.
    pub fn apply(&self, base: &SimConfig) -> SimConfig {
        let reconfig = match &self.reconfig {
            Some(p) if !p.steps.is_empty() => Some(p.clone()),
            _ => None,
        };
        SimConfig {
            load: self.load,
            n_cells: self.n_cells,
            cores: self.cores,
            duration: self.duration,
            faults: self.faults.clamped_to(self.duration),
            reconfig,
            scenario: self.workload.clone().or_else(|| base.scenario.clone()),
            ..base.clone()
        }
    }

    /// Semantic validation of a scenario read from outside the program
    /// (repro artifacts and corpus files are user-editable JSON):
    /// dimensions, fault-spec ranges, plan steps, and the workload
    /// [`Scenario::apply`] will run. `base` is the workload of the
    /// configuration the scenario applies to, which runs when the
    /// scenario carries none of its own; `None` when that configuration
    /// was validated where it was loaded.
    pub fn validate(&self, base: Option<&ScenarioSpec>) -> Result<(), InvalidScenario> {
        let bad = |msg: &str| Err(InvalidScenario::Dimension(msg.to_string()));
        if self.n_cells == 0 {
            return bad("n_cells must be at least 1");
        }
        if self.cores == 0 {
            return bad("cores must be at least 1");
        }
        if self.duration.as_nanos() == 0 {
            return bad("duration must be positive");
        }
        if !self.load.is_finite() || self.load <= 0.0 {
            return bad(&format!(
                "load {} is not a positive finite fraction",
                self.load
            ));
        }
        self.faults.validate().map_err(InvalidScenario::Faults)?;
        if let Some(plan) = &self.reconfig {
            plan.validate().map_err(InvalidScenario::Plan)?;
        }
        if let Some(w) = self.workload.as_ref().or(base) {
            w.validate().map_err(InvalidScenario::Workload)?;
        }
        Ok(())
    }

    /// The scenario's position in the shrink order.
    pub fn size(&self) -> ScenarioSize {
        let fault_ns: u64 = self
            .faults
            .specs
            .iter()
            .map(|s| s.max_duration.min(self.duration).as_nanos())
            .sum();
        let severity_millis: u64 = self
            .faults
            .specs
            .iter()
            .map(|s| {
                let benign = s.kind.benign_severity();
                let span = (s.min_severity - benign)
                    .abs()
                    .max((s.max_severity - benign).abs());
                (span * 1000.0).round() as u64
            })
            .sum();
        ScenarioSize {
            fault_windows: self.faults.specs.len(),
            plan_steps: self.reconfig.as_ref().map_or(0, |p| p.steps.len()),
            duration_ns: self.duration.as_nanos(),
            fault_ns,
            cells: self.n_cells,
            load_millis: (self.load.max(0.0) * 1000.0).round() as u64,
            severity_millis,
            workload_millis: self.workload.as_ref().map_or(0, |w| w.shrink_cost()),
        }
    }

    /// The same scenario with a new duration, its fault windows clamped to
    /// fit (a shrinker move).
    pub fn with_duration(&self, duration: Nanos) -> Scenario {
        Scenario {
            duration,
            faults: self.faults.clamped_to(duration),
            ..self.clone()
        }
    }

    /// One-line human-readable summary.
    pub fn one_liner(&self) -> String {
        let faults = if self.faults.is_empty() {
            "none".to_string()
        } else {
            self.faults
                .specs
                .iter()
                .map(|s| format!("{}@{:.2}", s.kind.name(), s.max_severity))
                .collect::<Vec<_>>()
                .join("+")
        };
        let plan = self.reconfig.as_ref().map_or(0, |p| p.steps.len());
        let workload = self
            .workload
            .as_ref()
            .map_or(String::new(), |w| format!(", workload {}", w.name()));
        format!(
            "load {:.2}, {} cells x {} cores, {:.0} ms, faults [{}], {} plan steps{}",
            self.load,
            self.n_cells,
            self.cores,
            self.duration.as_millis_f64(),
            faults,
            plan,
            workload
        )
    }
}

/// Why [`Scenario::validate`] rejected a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum InvalidScenario {
    /// A dimension (cells, cores, duration, load) is out of range.
    Dimension(String),
    /// A fault spec is invalid.
    Faults(FaultPlanError),
    /// A reconfiguration step is invalid.
    Plan(ReconfigPlanError),
    /// The workload the scenario would run is invalid.
    Workload(ScenarioError),
}

impl fmt::Display for InvalidScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidScenario::Dimension(e) => write!(f, "scenario out of range: {e}"),
            InvalidScenario::Faults(e) => write!(f, "fault plan invalid: {e}"),
            InvalidScenario::Plan(e) => write!(f, "reconfiguration plan invalid: {e}"),
            InvalidScenario::Workload(e) => write!(f, "workload invalid: {e}"),
        }
    }
}

impl std::error::Error for InvalidScenario {}

/// Lexicographic shrink order over scenarios: structure first (fault
/// windows, plan steps), then time (run length, total fault exposure),
/// then scale (cells, load), then severity. The derived `Ord` compares
/// fields top to bottom, so a candidate that drops a fault window is
/// smaller than any candidate that merely shortens or softens one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ScenarioSize {
    /// Fault specs in the plan.
    pub fault_windows: usize,
    /// Reconfiguration steps.
    pub plan_steps: usize,
    /// Experiment duration in nanoseconds.
    pub duration_ns: u64,
    /// Summed (clamped) maximum fault durations in nanoseconds.
    pub fault_ns: u64,
    /// Pooled cells.
    pub cells: u32,
    /// Load fraction in millis (0.75 → 750).
    pub load_millis: u64,
    /// Summed distance-from-benign of every spec's severity, in millis.
    pub severity_millis: u64,
    /// Shrink cost of the attached workload scenario (0 = none). Last in
    /// the lexicographic order: dropping or softening the workload only
    /// wins once everything structural is already minimal. `#[serde(
    /// default)]` keeps pre-workload serialized sizes deserializing.
    #[serde(default)]
    pub workload_millis: u64,
}

/// Bounds on every scenario axis: what the strategies may draw.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchSpace {
    /// Traffic load range (lo = benign, hi = adversarial).
    pub load: (f64, f64),
    /// Cell-count range (lo = benign, hi = adversarial).
    pub cells: (u32, u32),
    /// Core-count range (lo = adversarial, hi = benign).
    pub cores: (u32, u32),
    /// Duration range (lo = benign, hi = adversarial: more exposure).
    pub duration: (Nanos, Nanos),
    /// Fault classes the search may inject.
    pub fault_kinds: Vec<FaultKind>,
    /// Most fault windows a sampled scenario carries.
    pub max_windows: usize,
    /// Fault-window duration as a fraction of the run (lo, hi).
    pub window_frac: (f64, f64),
    /// Reconfiguration steps the search may compose into plans.
    pub plan_steps: Vec<ReconfigStep>,
    /// Most plan steps a sampled scenario carries.
    pub max_plan_steps: usize,
    /// Workload scenarios sampled points may run under (empty = every
    /// point keeps the base configuration's workload). Defaulted so
    /// pre-workload serialized spaces keep deserializing.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub workloads: Vec<ScenarioSpec>,
}

impl SearchSpace {
    /// The default space around a base configuration: full load down to
    /// 40 %, one cell up to the base deployment, half the cores up to all
    /// of them, a quarter of the base duration up to all of it, every
    /// fault class, and small grow/shrink/add/rephase plans.
    pub fn around(base: &SimConfig) -> SearchSpace {
        SearchSpace {
            load: (0.4, base.load.max(0.4)),
            cells: (1, base.n_cells.max(1)),
            cores: ((base.cores / 2).max(1), base.cores.max(1)),
            duration: (
                base.duration.scale(0.25).max(Nanos::from_millis(50)),
                base.duration,
            ),
            fault_kinds: FaultKind::ALL.to_vec(),
            max_windows: 3,
            window_frac: (0.05, 0.30),
            plan_steps: vec![
                ReconfigStep::GrowPool { cores: 2 },
                ReconfigStep::ShrinkPool { cores: 2 },
                ReconfigStep::AddCell,
                ReconfigStep::Rephase { stagger: false },
            ],
            max_plan_steps: 2,
            // The base config's workload (when set) is the one scenario
            // the space perturbs; `--search` stays workload-free
            // otherwise, exactly as before the scenario library.
            workloads: base.scenario.clone().into_iter().collect(),
        }
    }

    /// The most adversarial severity of a fault class inside the chaos
    /// range: the high end, except for kinds whose benign end is high
    /// (`AccelTimeout`: a *small* budget is the aggressive one).
    pub fn adversarial_severity(kind: FaultKind) -> f64 {
        let (lo, hi) = kind.chaos_severity();
        if kind.benign_severity() >= hi {
            lo
        } else {
            hi
        }
    }

    /// Draws one scenario uniformly from the space. Pure function of the
    /// RNG state: strategies seed it per scenario index, so sample `i` is
    /// independent of how many scenarios were drawn before it.
    pub fn sample(&self, rng: &mut Rng) -> Scenario {
        let load = rng.range_f64(self.load.0, self.load.1);
        let n_cells = rng.range_u64(self.cells.0 as u64, self.cells.1 as u64) as u32;
        let cores = rng.range_u64(self.cores.0 as u64, self.cores.1 as u64) as u32;
        let duration = Nanos(rng.range_u64(self.duration.0.as_nanos(), self.duration.1.as_nanos()));
        let n_windows = if self.fault_kinds.is_empty() || self.max_windows == 0 {
            0
        } else {
            1 + rng.below(self.max_windows as u64) as usize
        };
        let mut specs = Vec::with_capacity(n_windows);
        for _ in 0..n_windows {
            let kind = self.fault_kinds[rng.below(self.fault_kinds.len() as u64) as usize];
            let start = duration.scale(rng.range_f64(0.10, 0.70));
            let dur = duration.scale(rng.range_f64(self.window_frac.0, self.window_frac.1));
            let (lo, hi) = kind.chaos_severity();
            let severity = if hi > lo { rng.range_f64(lo, hi) } else { lo };
            specs.push(FaultSpec::fixed(kind, start, dur, severity));
        }
        let reconfig = if !self.plan_steps.is_empty() && self.max_plan_steps > 0 && rng.chance(0.5)
        {
            let n = 1 + rng.below(self.max_plan_steps as u64) as usize;
            let steps = (0..n)
                .map(|_| self.plan_steps[rng.below(self.plan_steps.len() as u64) as usize])
                .collect();
            Some(ReconfigPlan::new(steps))
        } else {
            None
        };
        // Workload draws happen only for a space that carries workloads,
        // so spaces without them sample the exact pre-workload sequences.
        let workload = if self.workloads.is_empty() {
            None
        } else if rng.chance(0.5) {
            Some(self.workloads[rng.below(self.workloads.len() as u64) as usize].clone())
        } else {
            None
        };
        Scenario {
            load,
            n_cells,
            cores,
            duration,
            faults: FaultPlan { specs },
            reconfig,
            workload,
        }
    }

    /// The most adversarial corner of the space: max load, max cells, min
    /// cores, full duration, one max-severity window per fault class, the
    /// full plan. Coordinate bisection starts here.
    pub fn extreme(&self) -> Scenario {
        let duration = self.duration.1;
        let specs = self
            .fault_kinds
            .iter()
            .map(|&kind| {
                FaultSpec::fixed(
                    kind,
                    duration.scale(0.30),
                    duration.scale(self.window_frac.1),
                    Self::adversarial_severity(kind),
                )
            })
            .collect();
        let reconfig = if self.plan_steps.is_empty() || self.max_plan_steps == 0 {
            None
        } else {
            let steps: Vec<ReconfigStep> = self
                .plan_steps
                .iter()
                .copied()
                .take(self.max_plan_steps)
                .collect();
            Some(ReconfigPlan::new(steps))
        };
        Scenario {
            load: self.load.1,
            n_cells: self.cells.1,
            cores: self.cores.0,
            duration,
            faults: FaultPlan { specs },
            reconfig,
            workload: self.workloads.first().cloned(),
        }
    }

    /// The most benign corner: min load, one cell, all cores, shortest
    /// run, no faults, no plan. The "clean config" sanity probe — a search
    /// space whose baseline fails has a broken oracle, not a bug.
    pub fn baseline(&self) -> Scenario {
        Scenario {
            load: self.load.0,
            n_cells: self.cells.0,
            cores: self.cores.1,
            duration: self.duration.0,
            faults: FaultPlan::none(),
            reconfig: None,
            workload: None,
        }
    }

    /// The nominal (fault-free, full-scale) scenario the beam strategy
    /// grows adversarial components onto.
    pub fn nominal(&self, base: &SimConfig) -> Scenario {
        Scenario {
            load: base.load.clamp(self.load.0, self.load.1),
            n_cells: base.n_cells.clamp(self.cells.0, self.cells.1),
            cores: base.cores.clamp(self.cores.0, self.cores.1),
            duration: self.duration.1,
            faults: FaultPlan::none(),
            reconfig: None,
            workload: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> SearchSpace {
        SearchSpace::around(&SimConfig::paper_20mhz())
    }

    #[test]
    fn size_order_prefers_fewer_windows_over_everything() {
        let s = space();
        let big = s.extreme();
        let mut fewer = big.clone();
        fewer.faults = fewer.faults.without_spec(0);
        // Dropping a window wins even though nothing else changed.
        assert!(fewer.size() < big.size());
        // A shorter run also shrinks, but ranks after window count.
        let shorter = big.with_duration(big.duration.scale(0.5));
        assert!(shorter.size() < big.size());
        assert!(fewer.size() < shorter.size());
    }

    #[test]
    fn sample_stays_inside_the_space() {
        let s = space();
        for i in 0..50 {
            let mut rng = Rng::new(1000 + i);
            let sc = s.sample(&mut rng);
            assert!(sc.load >= s.load.0 && sc.load <= s.load.1);
            assert!(sc.n_cells >= s.cells.0 && sc.n_cells <= s.cells.1);
            assert!(sc.cores >= s.cores.0 && sc.cores <= s.cores.1);
            assert!(sc.duration >= s.duration.0 && sc.duration <= s.duration.1);
            assert!(sc.faults.specs.len() <= s.max_windows);
            assert!(!sc.faults.specs.is_empty());
            sc.faults.validate().expect("sampled specs are valid");
            if let Some(p) = &sc.reconfig {
                assert!(!p.steps.is_empty() && p.steps.len() <= s.max_plan_steps);
                p.validate().expect("sampled plans are valid");
            }
        }
    }

    #[test]
    fn sample_is_a_pure_function_of_the_rng_seed() {
        let s = space();
        let a = s.sample(&mut Rng::new(7));
        let b = s.sample(&mut Rng::new(7));
        assert_eq!(a, b);
        let c = s.sample(&mut Rng::new(8));
        assert_ne!(a, c);
    }

    #[test]
    fn apply_substitutes_and_clamps() {
        let base = SimConfig::paper_20mhz();
        let s = space();
        let mut sc = s.extreme();
        sc.duration = Nanos::from_millis(100);
        let cfg = sc.apply(&base);
        assert_eq!(cfg.load, sc.load);
        assert_eq!(cfg.n_cells, sc.n_cells);
        assert_eq!(cfg.cores, sc.cores);
        assert_eq!(cfg.duration, Nanos::from_millis(100));
        for spec in &cfg.faults.specs {
            assert!(spec.latest_start <= cfg.duration);
            assert!(spec.max_duration <= cfg.duration);
        }
        // Everything not owned by the scenario comes from the base.
        assert_eq!(cfg.seed, base.seed);
        assert_eq!(cfg.profiling_slots, base.profiling_slots);
        // An emptied plan degrades to None.
        sc.reconfig = Some(ReconfigPlan::new(Vec::new()));
        assert!(sc.apply(&base).reconfig.is_none());
    }

    #[test]
    fn extreme_and_baseline_are_the_corners() {
        let s = space();
        let hi = s.extreme();
        assert_eq!(hi.load, s.load.1);
        assert_eq!(hi.cores, s.cores.0);
        assert_eq!(hi.faults.specs.len(), s.fault_kinds.len());
        hi.faults.validate().expect("extreme severities are legal");
        let lo = s.baseline();
        assert!(lo.faults.is_empty());
        assert!(lo.reconfig.is_none());
        assert!(lo.size() < hi.size());
    }

    #[test]
    fn adversarial_severity_respects_inverted_kinds() {
        // AccelTimeout: small budget = aggressive.
        let t = SearchSpace::adversarial_severity(FaultKind::AccelTimeout);
        assert_eq!(t, FaultKind::AccelTimeout.chaos_severity().0);
        let s = SearchSpace::adversarial_severity(FaultKind::StormAmplification);
        assert_eq!(s, FaultKind::StormAmplification.chaos_severity().1);
    }

    #[test]
    fn workload_scenarios_ride_along_and_shrink_last() {
        let mut base = SimConfig::paper_20mhz();
        base.scenario = Some(ScenarioSpec::parse("stadium_flash_crowd:boost=2.5").unwrap());
        let s = SearchSpace::around(&base);
        assert_eq!(s.workloads.len(), 1);
        // The extreme corner carries the workload, and `apply` threads it
        // into the experiment configuration.
        let hi = s.extreme();
        assert_eq!(hi.workload.as_ref().unwrap().name(), "stadium_flash_crowd");
        let cfg = hi.apply(&base);
        assert_eq!(cfg.scenario.unwrap().name(), "stadium_flash_crowd");
        // Dropping the workload strictly shrinks, but ranks after
        // everything structural: dropping a fault window still wins.
        let mut dropped = hi.clone();
        dropped.workload = None;
        assert!(dropped.size() < hi.size());
        let mut fewer = hi.clone();
        fewer.faults = fewer.faults.without_spec(0);
        assert!(fewer.size() < dropped.size());
        // A workload-free point over a workload-carrying base keeps the
        // base's workload (replayed artifacts stay self-consistent).
        let lo = s.baseline();
        assert!(lo.workload.is_none());
        assert_eq!(
            lo.apply(&base).scenario.unwrap().name(),
            "stadium_flash_crowd"
        );
        // A workload-free space never draws one.
        let plain = SearchSpace::around(&SimConfig::paper_20mhz());
        assert!(plain.workloads.is_empty());
        assert!(plain.sample(&mut Rng::new(3)).workload.is_none());
    }

    #[test]
    fn scenario_serializes_round_trip() {
        let sc = space().extreme();
        let json = serde_json::to_string(&sc).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(sc, back);
        assert_eq!(sc.size(), back.size());
    }
}
