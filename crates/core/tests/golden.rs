//! Golden-report harness: fixed (seed, config) pairs whose canonical
//! [`concordia_core::ExperimentReport`] JSON is checked into
//! `tests/golden/` and byte-compared on every run.
//!
//! Any change to the simulation's event order, RNG stream layout, float
//! arithmetic or report serialization shows up here as a byte diff. When a
//! divergence is intentional (a behavior change, not an accident), bless
//! new goldens with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p concordia-core --test golden
//! ```
//!
//! and review the JSON diff like any other code change.

use concordia_core::{
    BatchEval, Colocation, ExperimentReport, InvariantConfig, ParallelEval, PredictorChoice,
    ReconfigPlan, ReconfigStep, ScenarioSpec, SchedulerChoice, SimConfig,
};
use concordia_platform::arch::PoolArchChoice;
use concordia_platform::faults::{FaultKind, FaultPlan, FaultSpec};
use concordia_platform::workloads::WorkloadKind;
use concordia_ran::time::Nanos;
use concordia_sched::SupervisorConfig;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check(name: &str, cfg: SimConfig) -> ExperimentReport {
    let report = concordia_core::run_experiment(cfg);
    let got = report.to_canonical_json();
    let path = golden_dir().join(format!("{name}.json"));
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, &got).expect("write golden");
        eprintln!("blessed {}", path.display());
        return report;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); generate it with \
             GOLDEN_BLESS=1 cargo test -p concordia-core --test golden",
            path.display()
        )
    });
    assert!(
        got == want,
        "{name}: report diverged from tests/golden/{name}.json \
         ({} vs {} bytes). If the change is intentional, regenerate with \
         GOLDEN_BLESS=1 cargo test -p concordia-core --test golden and \
         review the diff.",
        got.len(),
        want.len()
    );
    report
}

fn base(cells: u32, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_20mhz();
    cfg.n_cells = cells;
    cfg.cores = (cells + 1).min(8);
    cfg.duration = Nanos::from_millis(250);
    cfg.profiling_slots = 120;
    cfg.load = 0.5;
    cfg.seed = seed;
    cfg.colocation = Colocation::Isolated;
    cfg
}

/// Pair 1: the single-cell baseline. This and the next two C=1 goldens
/// are the bytes of the original single-clock slot loop, which the
/// multi-cell loop reproduced exactly before that loop was retired.
#[test]
fn golden_single_cell_baseline() {
    check("single_cell_baseline", base(1, 2021));
}

#[test]
fn golden_single_cell_seed42() {
    check("single_cell_seed42", base(1, 42));
}

/// `cell_stagger` is irrelevant at C=1 (cell 0 always has phase 0), so
/// turning it off must stay on the single-clock bytes too.
#[test]
fn golden_single_cell_unstaggered() {
    let mut cfg = base(1, 7);
    cfg.cell_stagger = false;
    check("single_cell_unstaggered", cfg);
}

/// Pair 2: a staggered 4-cell deployment with a colocated workload — the
/// multiplexing path (phase groups, per-cell guards, per-cell ledgers).
#[test]
fn golden_staggered_four_cells_redis() {
    let mut cfg = base(4, 7);
    cfg.colocation = Colocation::Single(WorkloadKind::Redis);
    check("staggered_four_cells_redis", cfg);
}

/// Pair 3: a faulted FlexRAN run — covers the fault timeline, requeue path
/// and the fault section of the report.
#[test]
fn golden_flexran_two_cells_core_loss() {
    let mut cfg = base(2, 42);
    cfg.scheduler = SchedulerChoice::FlexRan;
    cfg.faults = FaultPlan::chaos(&[FaultKind::CoreOffline], cfg.duration);
    check("flexran_two_cells_core_loss", cfg);
}

/// Pair 4: a three-step live reconfiguration at C=4 — pins the whole
/// transition machinery as bytes: apply/settle/commit slots, the
/// `ReconfigReport` section, and the reshaped deployment's metrics.
#[test]
fn golden_reconfig_three_step_c4() {
    let mut cfg = base(4, 13);
    let mut plan = ReconfigPlan::new(vec![
        ReconfigStep::GrowPool { cores: 2 },
        ReconfigStep::AddCell,
        ReconfigStep::DrainCell { cell: 1 },
    ]);
    plan.start_slot = 60;
    plan.settle_slots = 30;
    plan.max_retries = 1;
    plan.backoff_slots = 10;
    cfg.reconfig = Some(plan);
    check("reconfig_three_step_c4", cfg);
}

/// A live predictor swap, QDT to linear regression, that is rolled back:
/// a guard bound below 1.0 (the guard's floor) fails every settle check,
/// so each of the three attempts serves linear regression for one slot
/// and swaps back to a refitted QDT bank. Refitting from the retained
/// selections must keep the bytes of retraining from scratch. Checks
/// conservation and that the evaluator's worker count changes nothing.
#[test]
fn golden_reconfig_swap_predictor_rollback() {
    let mut cfg = base(2, 31);
    let mut plan = ReconfigPlan::new(vec![ReconfigStep::SwapPredictor {
        predictor: PredictorChoice::LinearRegression,
    }]);
    plan.start_slot = 60;
    plan.settle_slots = 30;
    plan.backoff_slots = 10;
    plan.invariants.max_guard_inflation = 0.5;
    cfg.reconfig = Some(plan);
    check("reconfig_swap_predictor_rollback", cfg.clone());

    let report = concordia_core::run_experiment(cfg.clone());
    let rc = report.reconfig.as_ref().expect("the plan ran");
    assert_eq!(
        (rc.steps[0].attempts, rc.steps[0].rollbacks, rc.feasible),
        (3, 3, false)
    );
    for (cell, ledger) in report.metrics.per_cell.iter().enumerate() {
        assert!(
            ledger.injected > 0 && ledger.completed == ledger.injected,
            "cell {cell} lost work across the swaps"
        );
    }
    // The same swap committed, and one from a pWCET start, whose
    // selections are computed on first need.
    let mut committed = cfg.clone();
    if let Some(plan) = committed.reconfig.as_mut() {
        plan.invariants = InvariantConfig::default();
    }
    let mut from_pwcet = committed.clone();
    from_pwcet.predictor = PredictorChoice::PwcetEvt;
    if let Some(plan) = from_pwcet.reconfig.as_mut() {
        plan.steps[0] = ReconfigStep::SwapPredictor {
            predictor: PredictorChoice::QuantileDt,
        };
    }
    let batch = vec![cfg, committed, from_pwcet];
    let runs = |jobs| -> Vec<String> {
        ParallelEval::new(jobs)
            .eval_batch(batch.clone())
            .into_iter()
            .map(|r| r.expect("swap runs complete").to_canonical_json())
            .collect()
    };
    let serial = runs(1);
    assert!(serial == runs(4), "swap reports depend on the worker count");
    assert_eq!(serial[0], report.to_canonical_json());
}

/// The predictor control plane under drift: seven 20 MHz cells next to
/// Redis, with a 0.9-severity drift window that opens after calibration.
/// Pins the bytes of every serving state, including the inflated linear
/// fallback that serves while a lane is Quarantined or in Shadow, so
/// the run must quarantine, retrain and readmit at least once.
#[test]
fn golden_supervised_drift_redis() {
    let mut cfg = SimConfig::paper_20mhz();
    cfg.duration = Nanos::from_secs(2);
    cfg.profiling_slots = 300;
    cfg.load = 0.5;
    cfg.seed = 11;
    cfg.colocation = Colocation::Single(WorkloadKind::Redis);
    cfg.faults = FaultPlan {
        specs: vec![FaultSpec::fixed(
            FaultKind::DriftInjection,
            Nanos::from_millis(400),
            Nanos::from_millis(1_100),
            0.9,
        )],
    };
    cfg.supervisor = Some(SupervisorConfig {
        window_slots: 25,
        calibration_windows: 2,
        min_samples: 20,
        consecutive_windows: 2,
        retrain_min_samples: 200,
        shadow_windows: 2,
        ..SupervisorConfig::default()
    });
    let report = check("supervised_drift_redis", cfg);
    let sup = report.supervisor.expect("supervised run reports");
    assert!(
        sup.quarantines >= 1 && sup.retrains >= 1 && sup.readmissions >= 1,
        "the run must cover Quarantined and Shadow serving: {sup:?}"
    );
}

/// One golden per library scenario, all on a staggered two-cell pool so
/// the per-cell RNG streams, phase groups and (for `sliced_deadlines`)
/// per-slice deadline budgets are all exercised. The trace-replay golden
/// synthesizes a short calibrated trace so the file stays small.
fn scenario_base(name_and_knobs: &str, seed: u64) -> SimConfig {
    let mut cfg = base(2, seed);
    cfg.scenario = Some(ScenarioSpec::parse(name_and_knobs).expect("library scenario parses"));
    cfg
}

#[test]
fn golden_scenario_urban_macro_burst() {
    check(
        "scenario_urban_macro_burst",
        scenario_base("urban_macro_burst:period=600", 1001),
    );
}

#[test]
fn golden_scenario_stadium_flash_crowd() {
    check(
        "scenario_stadium_flash_crowd",
        scenario_base(
            "stadium_flash_crowd:onset=0.2,ramp=120,hold=200,decay=160",
            1002,
        ),
    );
}

#[test]
fn golden_scenario_sliced_deadlines() {
    check(
        "scenario_sliced_deadlines",
        scenario_base("sliced_deadlines:urllc_deadline=0.5", 1003),
    );
}

#[test]
fn golden_scenario_mmtc_background() {
    // A short period so the device floor actually lands bytes in 250 ms.
    check(
        "scenario_mmtc_background",
        scenario_base("mmtc_background:devices=500000,period=20000", 1004),
    );
}

#[test]
fn golden_scenario_trace_replay_on_epyc() {
    // Platform knob rides along: the EPYC compute scale must be pinned in
    // the same bytes as the replayed trace.
    check(
        "scenario_trace_replay_epyc",
        scenario_base(
            "trace_replay:ttis=256,trace_seed=3,scale=1.2,platform=epyc_rome7452",
            1005,
        ),
    );
}

/// Differential: every library scenario runs byte-identically under any
/// `--jobs` worker count, and deterministically on every pluggable pool
/// architecture. The scenario envelope draws from its own RNG streams, so
/// this is the test that proves those draws are thread- and
/// pool-invariant.
#[test]
fn scenarios_are_jobs_and_pool_invariant() {
    let specs = [
        "urban_macro_burst:period=600",
        "stadium_flash_crowd:onset=0.2,ramp=120,hold=200,decay=160",
        "sliced_deadlines:urllc_deadline=0.5",
        "mmtc_background:devices=500000,period=20000",
        "trace_replay:ttis=256,trace_seed=3,scale=1.2",
    ];
    let mut solo_runs = Vec::new();
    for (i, s) in specs.iter().enumerate() {
        let cfg = scenario_base(s, 1001 + i as u64);
        let solo = concordia_core::run_experiment(cfg.clone()).to_canonical_json();
        solo_runs.push((s, cfg, solo));
    }
    // Worker count never changes a byte.
    let many = concordia_core::runner::run_parallel(
        solo_runs.iter().map(|(_, c, _)| c.clone()).collect(),
        4,
    );
    for ((s, _, solo), parallel) in solo_runs.iter().zip(&many) {
        assert!(
            *solo == parallel.to_canonical_json(),
            "{s}: report depends on --jobs"
        );
    }
    // Every pool architecture stays a pure function of (config, seed)
    // under a scenario envelope, and none of them strands a cell's work
    // while the flash crowd holds at peak.
    let (s, cfg, _) = &solo_runs[1];
    for arch in PoolArchChoice::ALL {
        let mut c = cfg.clone();
        c.pool = arch;
        let first = concordia_core::run_experiment(c.clone());
        let again = concordia_core::run_experiment(c).to_canonical_json();
        assert!(
            first.to_canonical_json() == again,
            "{s}: pool {} is not deterministic",
            arch.name()
        );
        for (cell, ledger) in first.metrics.per_cell.iter().enumerate() {
            assert!(
                ledger.injected > 0 && ledger.completed == ledger.injected,
                "{s}: pool {} cell {cell} lost work ({} of {})",
                arch.name(),
                ledger.completed,
                ledger.injected
            );
        }
    }
}

/// Differential: an *empty* reconfiguration plan must not change a single
/// byte of the report — the engine only engages for non-empty plans, so a
/// no-op plan and a plain run are the same experiment.
#[test]
fn empty_reconfig_plan_is_byte_identical_to_plain_run() {
    let plain = concordia_core::run_experiment(base(2, 7)).to_canonical_json();
    let mut cfg = base(2, 7);
    cfg.reconfig = Some(ReconfigPlan::new(Vec::new()));
    let noop = concordia_core::run_experiment(cfg).to_canonical_json();
    assert_eq!(plain, noop, "an empty plan must be a byte-level no-op");
}
