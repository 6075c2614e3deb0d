//! Test-only stub evaluator: synthesizes reports from configurations
//! without running the simulator, so search/shrink logic tests are
//! instant. The stub is deterministic in the configs alone, mirroring the
//! contract real evaluators must honor.

use crate::oracle::Oracle;
use concordia_core::config::SimConfig;
use concordia_core::report::ExperimentReport;
use concordia_core::runner::{BatchEval, ExperimentFailure};
use concordia_platform::faults::FaultKind;
use concordia_platform::metrics::{CellCounters, MetricsSummary};

/// Fails the SLA exactly when the configuration's fault plan carries a
/// `StormAmplification` spec with `max_severity` above the threshold.
pub struct ThresholdEval {
    threshold: f64,
    evaluations: u64,
}

impl ThresholdEval {
    /// A stub failing on storms above `threshold`.
    pub fn storms_above(threshold: f64) -> Self {
        ThresholdEval {
            threshold,
            evaluations: 0,
        }
    }

    /// The oracle this stub is built to trip.
    pub fn oracle(&self) -> Oracle {
        Oracle::Sla {
            min_reliability: 0.99999,
        }
    }

    fn synthesize(&self, cfg: &SimConfig) -> ExperimentReport {
        let storm =
            cfg.faults.specs.iter().any(|s| {
                s.kind == FaultKind::StormAmplification && s.max_severity > self.threshold
            });
        let reliability = if storm { 0.99 } else { 1.0 };
        ExperimentReport {
            scheduler: cfg.scheduler.name().to_string(),
            predictor: cfg.predictor.name().to_string(),
            colocation: cfg.colocation.name().to_string(),
            n_cells: cfg.n_cells,
            cores: cfg.cores,
            load: cfg.load,
            deadline_us: cfg.deadline().as_micros_f64(),
            duration_s: cfg.duration.as_millis_f64() / 1000.0,
            seed: cfg.seed,
            peak_guard_inflation: 1.0,
            metrics: MetricsSummary {
                dags: 1000,
                violations: if storm { 10 } else { 0 },
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
                    violations: if storm { 10 } else { 0 },
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
}

impl BatchEval for ThresholdEval {
    fn eval_batch(
        &mut self,
        configs: Vec<SimConfig>,
    ) -> Vec<Result<ExperimentReport, ExperimentFailure>> {
        self.evaluations += configs.len() as u64;
        configs.iter().map(|c| Ok(self.synthesize(c))).collect()
    }

    fn evaluations(&self) -> u64 {
        self.evaluations
    }
}
