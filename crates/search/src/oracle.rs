//! Typed failure predicates over experiment reports.
//!
//! An [`Oracle`] says what "broken" means for a search: the SLA
//! reliability floor, task conservation, the misprediction-guard
//! inflation bound, the Concordia-vs-static differential, or
//! reconfiguration-plan feasibility. Oracles are serialized into repro
//! artifacts, so a replayed counterexample is judged by *exactly* the
//! predicate that found it.
//!
//! Every oracle consumes the outcome of one or more simulator *arms* (the
//! differential runs the scenario twice, once per scheduler); a panicking
//! arm is itself a counterexample — the search's whole point is to surface
//! inputs the simulator mishandles.

use crate::scenario::Scenario;
use concordia_core::config::{Colocation, SchedulerChoice, SimConfig};
use concordia_core::report::fnv1a_hex;
use concordia_core::report::ExperimentReport;
use concordia_core::runner::{BatchEval, ExperimentFailure};
use serde::{Deserialize, Serialize};

/// A typed failure predicate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Oracle {
    /// The run's overall deadline-met reliability fell below the floor.
    Sla {
        /// Reliability floor (the paper's bar is 0.99999).
        min_reliability: f64,
    },
    /// Some cell lost DAGs: injected work that never ran to completion.
    TaskLoss,
    /// The misprediction guard inflated past the bound at some point of
    /// the run (the adaptation loop overreacted or could not keep up).
    GuardInflation {
        /// Largest acceptable peak guard inflation (the guard's own hard
        /// cap is 4.0).
        bound: f64,
    },
    /// Concordia misses the SLA on a scenario that a statically-isolated
    /// FlexRAN deployment survives — the sharing machinery itself is the
    /// problem, not the scenario.
    Differential {
        /// Reliability floor both arms are held to.
        min_reliability: f64,
    },
    /// The scenario's reconfiguration plan was declared infeasible (a step
    /// exhausted its retries or the run ended mid-transition).
    ReconfigInfeasible,
}

impl Oracle {
    /// Stable display name (CLI `--search` argument and report field).
    pub fn name(&self) -> &'static str {
        match self {
            Oracle::Sla { .. } => "sla",
            Oracle::TaskLoss => "task_loss",
            Oracle::GuardInflation { .. } => "guard_inflation",
            Oracle::Differential { .. } => "differential",
            Oracle::ReconfigInfeasible => "reconfig_infeasible",
        }
    }

    /// Parses a CLI name back to an oracle with its default thresholds.
    pub fn from_name(s: &str) -> Option<Oracle> {
        match s {
            "sla" => Some(Oracle::Sla {
                min_reliability: 0.99999,
            }),
            "task_loss" => Some(Oracle::TaskLoss),
            "guard_inflation" => Some(Oracle::GuardInflation { bound: 3.5 }),
            "differential" => Some(Oracle::Differential {
                min_reliability: 0.99999,
            }),
            "reconfig_infeasible" => Some(Oracle::ReconfigInfeasible),
            _ => None,
        }
    }

    /// Simulator runs one scenario evaluation costs under this oracle.
    pub fn arms(&self) -> usize {
        match self {
            Oracle::Differential { .. } => 2,
            _ => 1,
        }
    }

    /// The experiment configurations of one scenario evaluation, in arm
    /// order. Arm 0 is always the scenario applied to the base config; the
    /// differential adds arm 1, the same scenario on a statically-isolated
    /// FlexRAN deployment.
    pub fn configs(&self, base: &SimConfig, scenario: &Scenario) -> Vec<SimConfig> {
        let primary = scenario.apply(base);
        match self {
            Oracle::Differential { .. } => {
                let static_arm = SimConfig {
                    scheduler: SchedulerChoice::FlexRan,
                    colocation: Colocation::Isolated,
                    ..primary.clone()
                };
                vec![primary, static_arm]
            }
            _ => vec![primary],
        }
    }

    /// Judges one scenario evaluation from its arm outcomes (slice length
    /// = [`Oracle::arms`]). A panicking arm always fails: the simulator
    /// crashing on a legal configuration is the strongest counterexample
    /// there is.
    pub fn judge(&self, arms: &[Result<ExperimentReport, ExperimentFailure>]) -> Verdict {
        assert_eq!(arms.len(), self.arms(), "arm count mismatch");
        for arm in arms {
            if let Err(failure) = arm {
                return Verdict {
                    failed: true,
                    detail: format!("panic: {}", failure.message),
                };
            }
        }
        let report = |i: usize| arms[i].as_ref().expect("checked above");
        match self {
            Oracle::Sla { min_reliability } => {
                let r = report(0).metrics.reliability;
                Verdict {
                    failed: r < *min_reliability,
                    detail: format!("reliability {r:.6} vs floor {min_reliability:.6}"),
                }
            }
            Oracle::TaskLoss => {
                let lost: u64 = report(0)
                    .metrics
                    .per_cell
                    .iter()
                    .map(|c| c.injected.saturating_sub(c.completed))
                    .sum();
                Verdict {
                    failed: lost > 0,
                    detail: format!("{lost} injected DAGs never completed"),
                }
            }
            Oracle::GuardInflation { bound } => {
                let peak = report(0).peak_guard_inflation;
                Verdict {
                    failed: peak > *bound,
                    detail: format!("peak guard inflation {peak:.3} vs bound {bound:.3}"),
                }
            }
            Oracle::Differential { min_reliability } => {
                let concordia = report(0).metrics.reliability;
                let flexran = report(1).metrics.reliability;
                Verdict {
                    failed: concordia < *min_reliability && flexran >= *min_reliability,
                    detail: format!(
                        "concordia {concordia:.6} vs flexran-static {flexran:.6} (floor {min_reliability:.6})"
                    ),
                }
            }
            Oracle::ReconfigInfeasible => match &report(0).reconfig {
                Some(rc) => Verdict {
                    failed: !rc.feasible,
                    detail: format!(
                        "{}/{} steps committed, {} rollbacks",
                        rc.committed_steps,
                        rc.steps.len(),
                        rc.rollbacks
                    ),
                },
                None => Verdict {
                    failed: false,
                    detail: "no reconfiguration plan ran".to_string(),
                },
            },
        }
    }

    /// Greedy-beam ranking: how close the arms are to failing (higher =
    /// more adversarial). Monotone with [`Verdict::failed`] — every failing
    /// evaluation scores at least [`Oracle::FAIL_SCORE`].
    pub fn score(&self, arms: &[Result<ExperimentReport, ExperimentFailure>]) -> f64 {
        if arms.iter().any(|a| a.is_err()) {
            return Self::FAIL_SCORE * 2.0;
        }
        let report = |i: usize| arms[i].as_ref().expect("checked above");
        let raw = match self {
            Oracle::Sla { min_reliability } => report(0).metrics.reliability - min_reliability,
            Oracle::TaskLoss => {
                let lost: u64 = report(0)
                    .metrics
                    .per_cell
                    .iter()
                    .map(|c| c.injected.saturating_sub(c.completed))
                    .sum();
                if lost > 0 {
                    -(lost as f64)
                } else {
                    1.0
                }
            }
            Oracle::GuardInflation { bound } => bound - report(0).peak_guard_inflation,
            Oracle::Differential { min_reliability } => {
                let concordia = report(0).metrics.reliability;
                let flexran = report(1).metrics.reliability;
                if flexran < *min_reliability {
                    // Both arms sick: not the differential we are after.
                    1.0
                } else {
                    concordia - min_reliability
                }
            }
            Oracle::ReconfigInfeasible => match &report(0).reconfig {
                Some(rc) if !rc.feasible => -1.0,
                Some(rc) => 1.0 / (1.0 + rc.rollbacks as f64),
                None => 1.0,
            },
        };
        if self.judge(arms).failed {
            Self::FAIL_SCORE - raw
        } else {
            -raw
        }
    }

    /// Score floor every failing evaluation clears.
    pub const FAIL_SCORE: f64 = 1.0e6;
}

/// The outcome of judging one scenario evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// `true` when the oracle's failure predicate held.
    pub failed: bool,
    /// Human-readable evidence (reliability numbers, loss counts, the
    /// panic message).
    pub detail: String,
}

/// One judged scenario: the verdict, the beam score, and a fingerprint of
/// the arm reports' canonical bytes (what repro artifacts pin).
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The oracle's verdict.
    pub verdict: Verdict,
    /// The oracle's beam score.
    pub score: f64,
    /// FNV-1a over the concatenated canonical arm reports (panicking arms
    /// contribute their message), so two evaluations fingerprint equal iff
    /// every arm's serialized outcome is byte-identical.
    pub fingerprint: String,
}

/// Evaluates a batch of scenarios under one oracle through the given
/// evaluator: one flattened `eval_batch` call (scenario-major, arm-minor),
/// then per-scenario judging. Outcomes come back in scenario order, so the
/// whole function is as jobs-invariant as the evaluator.
pub fn evaluate_scenarios(
    base: &SimConfig,
    oracle: &Oracle,
    scenarios: &[Scenario],
    eval: &mut dyn BatchEval,
) -> Vec<Outcome> {
    if scenarios.is_empty() {
        return Vec::new();
    }
    let arms = oracle.arms();
    let configs: Vec<SimConfig> = scenarios
        .iter()
        .flat_map(|sc| oracle.configs(base, sc))
        .collect();
    let results = eval.eval_batch(configs);
    assert_eq!(
        results.len(),
        scenarios.len() * arms,
        "evaluator dropped outcomes"
    );
    results
        .chunks(arms)
        .map(|chunk| {
            let mut bytes = String::new();
            for arm in chunk {
                match arm {
                    Ok(report) => bytes.push_str(&report.to_canonical_json()),
                    Err(failure) => {
                        bytes.push_str("panic: ");
                        bytes.push_str(&failure.message);
                        bytes.push('\n');
                    }
                }
            }
            Outcome {
                verdict: oracle.judge(chunk),
                score: oracle.score(chunk),
                fingerprint: fnv1a_hex(bytes.as_bytes()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use concordia_platform::metrics::{CellCounters, MetricsSummary};

    fn report(reliability: f64) -> ExperimentReport {
        ExperimentReport {
            scheduler: "concordia".into(),
            predictor: "quantile_dt".into(),
            colocation: "isolated".into(),
            n_cells: 2,
            cores: 8,
            load: 1.0,
            deadline_us: 2000.0,
            duration_s: 1.0,
            seed: 1,
            peak_guard_inflation: 1.0,
            metrics: MetricsSummary {
                dags: 1000,
                violations: 0,
                reliability,
                mean_latency_us: 100.0,
                p9999_latency_us: None,
                p99999_latency_us: None,
                reclaimed_fraction: 0.0,
                pool_utilization: 0.5,
                wake_events: 0,
                wake_tail_events: 0,
                evictions: 0,
                stall_cycles_pct: 0.0,
                tasks_executed: 1000,
                cores_failed: 0,
                offload_fallbacks: 0,
                tasks_requeued: 0,
                vran_busy_ms: 100.0,
                wake_hist_counts: Vec::new(),
                per_cell: vec![CellCounters {
                    injected: 500,
                    completed: 500,
                    violations: 0,
                }],
            },
            workload: None,
            fault: None,
            supervisor: None,
            trace: None,
            reconfig: None,
            scenario: None,
        }
    }

    fn panic_arm() -> Result<ExperimentReport, ExperimentFailure> {
        Err(ExperimentFailure {
            index: 0,
            seed: 1,
            message: "boom".into(),
        })
    }

    #[test]
    fn sla_oracle_uses_the_floor() {
        let o = Oracle::Sla {
            min_reliability: 0.99999,
        };
        assert!(!o.judge(&[Ok(report(1.0))]).failed);
        let v = o.judge(&[Ok(report(0.99))]);
        assert!(v.failed);
        assert!(v.detail.contains("0.99"), "{}", v.detail);
    }

    #[test]
    fn task_loss_counts_unfinished_dags() {
        let o = Oracle::TaskLoss;
        assert!(!o.judge(&[Ok(report(1.0))]).failed);
        let mut r = report(1.0);
        r.metrics.per_cell[0].completed = 400;
        let v = o.judge(&[Ok(r)]);
        assert!(v.failed);
        assert!(v.detail.contains("100"), "{}", v.detail);
    }

    #[test]
    fn guard_inflation_checks_the_peak() {
        let o = Oracle::GuardInflation { bound: 2.0 };
        assert!(!o.judge(&[Ok(report(1.0))]).failed);
        let mut r = report(1.0);
        r.peak_guard_inflation = 2.5;
        assert!(o.judge(&[Ok(r)]).failed);
    }

    #[test]
    fn differential_needs_the_static_arm_healthy() {
        let o = Oracle::Differential {
            min_reliability: 0.99999,
        };
        // Concordia sick, static healthy: fail.
        assert!(o.judge(&[Ok(report(0.99)), Ok(report(1.0))]).failed);
        // Both sick: the scenario is just impossible, not a sharing bug.
        assert!(!o.judge(&[Ok(report(0.99)), Ok(report(0.98))]).failed);
        // Both healthy: pass.
        assert!(!o.judge(&[Ok(report(1.0)), Ok(report(1.0))]).failed);
    }

    #[test]
    fn reconfig_oracle_reads_feasibility() {
        let o = Oracle::ReconfigInfeasible;
        assert!(!o.judge(&[Ok(report(1.0))]).failed);
        let mut r = report(1.0);
        r.reconfig = Some(concordia_core::report::ReconfigReport {
            steps: Vec::new(),
            committed_steps: 0,
            rollbacks: 3,
            invariant_checks: 10,
            feasible: false,
            final_cells: 2,
            final_cores: 8,
        });
        assert!(o.judge(&[Ok(r)]).failed);
    }

    #[test]
    fn any_panicking_arm_fails_every_oracle() {
        for o in [
            Oracle::Sla {
                min_reliability: 0.99999,
            },
            Oracle::TaskLoss,
            Oracle::GuardInflation { bound: 3.5 },
            Oracle::ReconfigInfeasible,
        ] {
            let v = o.judge(&[panic_arm()]);
            assert!(v.failed, "{}", o.name());
            assert!(v.detail.contains("boom"));
            assert!(o.score(&[panic_arm()]) >= Oracle::FAIL_SCORE);
        }
        let o = Oracle::Differential {
            min_reliability: 0.99999,
        };
        assert!(o.judge(&[Ok(report(1.0)), panic_arm()]).failed);
    }

    #[test]
    fn score_is_monotone_with_failure() {
        let o = Oracle::Sla {
            min_reliability: 0.99999,
        };
        let healthy = o.score(&[Ok(report(1.0))]);
        let close = o.score(&[Ok(report(0.999995))]);
        let failing = o.score(&[Ok(report(0.99))]);
        assert!(healthy < close, "{healthy} vs {close}");
        assert!(close < Oracle::FAIL_SCORE);
        assert!(failing >= Oracle::FAIL_SCORE);
    }

    #[test]
    fn names_round_trip() {
        for name in [
            "sla",
            "task_loss",
            "guard_inflation",
            "differential",
            "reconfig_infeasible",
        ] {
            let o = Oracle::from_name(name).expect(name);
            assert_eq!(o.name(), name);
        }
        assert!(Oracle::from_name("meteor").is_none());
    }

    #[test]
    fn arms_and_configs_agree() {
        let base = SimConfig::paper_20mhz();
        let sc = crate::scenario::SearchSpace::around(&base).baseline();
        for o in [
            Oracle::Sla {
                min_reliability: 0.99999,
            },
            Oracle::Differential {
                min_reliability: 0.99999,
            },
        ] {
            let cfgs = o.configs(&base, &sc);
            assert_eq!(cfgs.len(), o.arms());
        }
        let cfgs = Oracle::Differential {
            min_reliability: 0.99999,
        }
        .configs(&base, &sc);
        assert_eq!(cfgs[0].scheduler.name(), "concordia");
        assert_eq!(cfgs[1].scheduler.name(), "flexran");
        assert_eq!(cfgs[1].colocation.name(), "isolated");
    }

    #[test]
    fn oracle_serializes_round_trip() {
        let o = Oracle::Differential {
            min_reliability: 0.99999,
        };
        let json = serde_json::to_string(&o).unwrap();
        let back: Oracle = serde_json::from_str(&json).unwrap();
        assert_eq!(o, back);
    }
}
