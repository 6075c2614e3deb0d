//! Workload-scenario awareness of the adversarial search: a search space
//! carrying a flash-crowd workload finds the planted failure, and the
//! shrinker strips every structural component while *keeping* the
//! workload that causes it.

use concordia_core::config::SimConfig;
use concordia_core::report::ExperimentReport;
use concordia_core::runner::{BatchEval, ExperimentFailure};
use concordia_core::{ScenarioKind, ScenarioSpec};
use concordia_platform::metrics::{CellCounters, MetricsSummary};
use concordia_search::{run_search, Oracle, ReproArtifact, SearchSettings, SearchSpace, Strategy};

/// Stub evaluator: the SLA fails exactly when the configuration runs a
/// stadium flash crowd with `peak_boost >= 2.0` — a planted overload only
/// the workload scenario can trigger. Deterministic in the configs alone.
struct FlashCrowdStub {
    evaluations: u64,
}

impl FlashCrowdStub {
    fn overloaded(cfg: &SimConfig) -> bool {
        match &cfg.scenario {
            Some(spec) => match &spec.kind {
                ScenarioKind::StadiumFlashCrowd(c) => c.peak_boost >= 2.0,
                _ => false,
            },
            None => false,
        }
    }

    fn synthesize(cfg: &SimConfig) -> ExperimentReport {
        let bad = Self::overloaded(cfg);
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
                violations: if bad { 25 } else { 0 },
                reliability: if bad { 0.975 } else { 1.0 },
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
                    violations: if bad { 25 } else { 0 },
                }],
            },
            workload: None,
            fault: None,
            supervisor: None,
            trace: None,
            reconfig: None,
            scenario: cfg.scenario.as_ref().map(|s| s.name().to_string()),
        }
    }
}

impl BatchEval for FlashCrowdStub {
    fn eval_batch(
        &mut self,
        configs: Vec<SimConfig>,
    ) -> Vec<Result<ExperimentReport, ExperimentFailure>> {
        self.evaluations += configs.len() as u64;
        configs.iter().map(|c| Ok(Self::synthesize(c))).collect()
    }

    fn evaluations(&self) -> u64 {
        self.evaluations
    }
}

#[test]
fn planted_flash_crowd_is_found_and_shrunk_to_the_workload_alone() {
    let base = SimConfig::paper_20mhz();
    let mut space = SearchSpace::around(&base);
    space.workloads = vec![ScenarioSpec::parse("stadium_flash_crowd:boost=2.5").unwrap()];

    let settings = SearchSettings {
        seed: 7,
        budget: 200,
        shrink_budget: 2_000,
        max_counterexamples: 1,
        corpus: Vec::new(),
    };
    let mut eval = FlashCrowdStub { evaluations: 0 };
    let report = run_search(
        &base,
        &space,
        &Oracle::Sla {
            min_reliability: 0.99999,
        },
        Strategy::Bisection { iters: 6 },
        &settings,
        &mut eval,
    );

    let ce = report
        .counterexamples
        .first()
        .expect("the planted flash crowd is found");
    let m = &ce.minimal;
    // The workload survives the shrink — it is the failure's cause…
    let w = m.workload.as_ref().expect("workload kept");
    assert_eq!(w.name(), "stadium_flash_crowd");
    match &w.kind {
        // …and the soften move (boost 2.5 → 1.75 < 2.0 passes the
        // oracle) was correctly rejected.
        ScenarioKind::StadiumFlashCrowd(c) => assert!(c.peak_boost >= 2.0, "{}", c.peak_boost),
        other => panic!("wrong workload kind: {other:?}"),
    }
    // …while everything structural was stripped away.
    assert!(m.faults.specs.is_empty(), "{}", m.one_liner());
    assert!(m.reconfig.is_none(), "{}", m.one_liner());
    assert_eq!(m.n_cells, 1, "{}", m.one_liner());

    // The artifact (workload included) round-trips through its canonical
    // JSON and validates.
    let back = ReproArtifact::from_json(&ce.artifact.to_canonical_json()).expect("valid artifact");
    assert_eq!(
        back.scenario.workload.as_ref().unwrap().name(),
        "stadium_flash_crowd"
    );

    // An artifact whose workload was hand-edited out of range is
    // rejected with a typed error.
    let mut broken = ce.artifact.clone();
    if let Some(w) = &mut broken.scenario.workload {
        if let ScenarioKind::StadiumFlashCrowd(c) = &mut w.kind {
            c.peak_boost = 100.0;
        }
    }
    let err = ReproArtifact::from_json(&broken.to_canonical_json()).expect_err("out of range");
    assert!(err.to_string().contains("workload"), "{err}");
}
