//! Integration tests for live reconfiguration: plan execution against
//! running simulations, rollback on invariant violation, drain-flush
//! safety across fault interleavings, and the jobs-invariant safe-order
//! searcher.
//!
//! Runs are kept short (a few hundred slots) — these execute in debug CI.

use concordia_core::{
    run_experiment, search_safe_order, ExperimentReport, ParallelEval, ReconfigPlan, ReconfigStep,
    SimConfig,
};
use concordia_platform::faults::{FaultKind, FaultPlan};
use concordia_ran::time::Nanos;
use proptest::prelude::*;

/// A small deployment with one core of headroom.
fn base(cells: u32, cores: u32, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_20mhz();
    cfg.n_cells = cells;
    cfg.cores = cores;
    cfg.duration = Nanos::from_millis(250);
    cfg.profiling_slots = 120;
    cfg.load = 0.5;
    cfg.seed = seed;
    cfg.colocation = concordia_core::Colocation::Isolated;
    cfg
}

/// A plan sized for 250-slot runs.
fn quick_plan(steps: Vec<ReconfigStep>) -> ReconfigPlan {
    let mut plan = ReconfigPlan::new(steps);
    plan.start_slot = 60;
    plan.settle_slots = 30;
    plan.max_retries = 1;
    plan.backoff_slots = 10;
    plan
}

/// Every cell's ledger balances and saw traffic.
fn assert_conserved(report: &ExperimentReport) {
    assert!(!report.metrics.per_cell.is_empty());
    for (cell, l) in report.metrics.per_cell.iter().enumerate() {
        assert_eq!(
            l.completed, l.injected,
            "cell {cell}: {} injected vs {} completed (task lost)",
            l.injected, l.completed
        );
    }
}

#[test]
fn committed_plan_reshapes_the_deployment() {
    let mut cfg = base(2, 3, 11);
    cfg.reconfig = Some(quick_plan(vec![
        ReconfigStep::GrowPool { cores: 1 },
        ReconfigStep::AddCell,
    ]));
    let report = run_experiment(cfg);
    let rc = report.reconfig.as_ref().expect("reconfig ran");
    assert!(rc.feasible, "both steps should commit: {:?}", rc.steps);
    assert_eq!(rc.committed_steps, 2);
    assert_eq!(rc.rollbacks, 0);
    assert_eq!(rc.final_cores, 4);
    assert_eq!(rc.final_cells, 3);
    // The added cell really joined the deployment: it injected DAGs and
    // its ledger balances like everyone else's.
    assert_eq!(report.metrics.per_cell.len(), 3);
    assert!(report.metrics.per_cell[2].injected > 0);
    assert_conserved(&report);
}

#[test]
fn starving_shrink_rolls_back_without_task_loss() {
    // Shrinking 4 cores away leaves 4 cells on one core: the settle
    // window sees deadline misses beyond baseline and rolls the shrink
    // back; with one retry the plan is declared infeasible.
    let mut cfg = base(4, 5, 2021);
    cfg.load = 0.7;
    cfg.reconfig = Some(quick_plan(vec![ReconfigStep::ShrinkPool { cores: 4 }]));
    let report = run_experiment(cfg);
    let rc = report.reconfig.as_ref().expect("reconfig ran");
    assert!(rc.rollbacks >= 1, "the shrink must be rolled back");
    assert!(!rc.feasible);
    assert_eq!(rc.committed_steps, 0);
    assert_eq!(rc.final_cores, 5, "rollback restored the pool");
    let v = rc.steps[0]
        .violation
        .as_deref()
        .expect("violation recorded");
    assert!(
        v.contains("deadline_misses") || v.contains("guard_inflation"),
        "unexpected violation: {v}"
    );
    // Rollback cycles lose no work.
    assert_conserved(&report);
}

#[test]
fn reconfig_runs_are_deterministic() {
    let mk = || {
        let mut cfg = base(3, 4, 77);
        cfg.reconfig = Some(quick_plan(vec![
            ReconfigStep::GrowPool { cores: 2 },
            ReconfigStep::DrainCell { cell: 1 },
        ]));
        cfg
    };
    let a = run_experiment(mk()).to_canonical_json();
    let b = run_experiment(mk()).to_canonical_json();
    assert_eq!(a, b, "same config + plan must reproduce byte-identically");
}

#[test]
fn searcher_finds_an_order_and_is_jobs_invariant() {
    // Naive order starves the pool (shrink to 1 core before growing);
    // the searcher must find the grow-first order, and the whole search
    // report must not depend on the worker count.
    let mut cfg = base(4, 4, 5);
    cfg.load = 0.7;
    let plan = quick_plan(vec![
        ReconfigStep::ShrinkPool { cores: 3 },
        ReconfigStep::GrowPool { cores: 2 },
    ]);
    let serial = search_safe_order(&cfg, &plan, &mut ParallelEval::new(1));
    let parallel = search_safe_order(&cfg, &plan, &mut ParallelEval::new(4));
    assert!(!serial.naive_feasible, "naive order should starve the pool");
    assert_eq!(
        serial.safe_order,
        Some(vec![1, 0]),
        "grow-first is the safe order"
    );
    assert_eq!(
        serde_json::to_string(&serial).unwrap(),
        serde_json::to_string(&parallel).unwrap(),
        "search result must be independent of --jobs"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Satellite: `DrainCell` flushes in-flight slot DAGs before the
    /// removal commits — across drain timing × fault-plan interleavings,
    /// no cell (drained or surviving) ever loses a task.
    #[test]
    fn drain_never_loses_work_across_fault_interleavings(
        seed in 1u64..500,
        cell in 0u32..3,
        start_slot in 40u64..120,
        fault_sel in 0u8..3,
    ) {
        let mut cfg = base(3, 4, seed);
        let fault = match fault_sel {
            1 => Some(FaultKind::CoreOffline),
            2 => Some(FaultKind::CoreStall),
            _ => None,
        };
        if let Some(kind) = fault {
            cfg.faults = FaultPlan::chaos(&[kind], cfg.duration);
        }
        let mut plan = quick_plan(vec![ReconfigStep::DrainCell { cell }]);
        plan.start_slot = start_slot;
        cfg.reconfig = Some(plan);
        let report = run_experiment(cfg);
        let rc = report.reconfig.as_ref().expect("reconfig ran");
        // The drain may commit or roll back depending on the fault
        // interleaving — but either way the ledgers must balance.
        assert_conserved(&report);
        if rc.feasible {
            prop_assert_eq!(rc.final_cells, 2);
        } else {
            // Rollback restored the drained cell.
            prop_assert_eq!(rc.final_cells, 3);
        }
    }
}
