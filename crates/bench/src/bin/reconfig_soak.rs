//! Reconfig soak — live reconfiguration plans against a running pool,
//! exercising the invariant monitor, the rollback controller and the
//! safe-order searcher, plus a plan executed under concurrent fault
//! timelines.
//!
//! Three properties are demonstrated:
//!
//! * **rollback safety** — a plan whose naive order shrinks the pool
//!   before growing it violates the deadline-miss invariant, is rolled
//!   back, and loses no work (per-cell conservation holds through every
//!   apply/rollback cycle);
//! * **safe-order search** — [`concordia_core::search_safe_order`] finds
//!   an order of the *same* steps under which every step commits, and the
//!   result is a pure function of the seed: `--jobs 1` and `--jobs 8`
//!   produce byte-identical JSON (CI runs both and diffs);
//! * **fault soak** — the safe order still loses no work when core-loss
//!   and core-stall fault windows overlap the transitions.
//!
//! The soak JSON also counts the offline phases its runs built (profiles
//! and Algorithm 1 passes). The soak exits 1 when any property fails.
//!
//! Example:
//! `cargo run -p concordia-bench --release --bin reconfig_soak -- --quick`

use concordia_bench::{banner, jobs_from_args, write_json, Gate, RunLength};
use concordia_core::runner::{BatchEval, ParallelEval};
use concordia_core::{search_safe_order, ExperimentReport, ReconfigPlan, ReconfigStep, SimConfig};
use concordia_platform::faults::{FaultKind, FaultPlan};
use concordia_ran::Nanos;

/// `true` when every cell's ledger balances and saw traffic: nothing the
/// run injected was lost, through every apply/rollback cycle.
fn conserved(report: &ExperimentReport) -> bool {
    !report.metrics.per_cell.is_empty()
        && report
            .metrics
            .per_cell
            .iter()
            .all(|l| l.completed == l.injected && l.injected > 0)
}

fn run_one(cfg: SimConfig, eval: &mut ParallelEval) -> ExperimentReport {
    eval.eval_batch(vec![cfg])
        .pop()
        .expect("one result")
        .expect("run completes")
}

fn main() {
    let len = RunLength::from_args();
    let seed = concordia_bench::seed_from_args();
    let jobs = jobs_from_args();
    banner(
        "Reconfig soak (live plan vs a running pool, rollback + safe-order search)",
        "a naive step order is rolled back with zero task loss; the searcher \
         finds an order that commits every step, byte-reproducibly for any --jobs",
    );

    let (secs, profiling) = match len {
        RunLength::Quick => (1, 300),
        RunLength::Standard => (2, 600),
        RunLength::Long => (6, 2_000),
    };

    // 4 cells on 5 cores: the steady state is clean, but shrinking the
    // pool to its floor of one core before growing starves it (4 cells
    // need at least 2 cores at this load).
    let mut base = SimConfig::paper_20mhz();
    base.n_cells = 4;
    base.cores = 5;
    base.load = 0.7;
    base.duration = Nanos::from_secs(secs);
    base.profiling_slots = profiling;
    base.seed = seed;

    let mut plan = ReconfigPlan::new(vec![
        ReconfigStep::ShrinkPool { cores: 4 },
        ReconfigStep::AddCell,
        ReconfigStep::GrowPool { cores: 3 },
    ]);
    plan.start_slot = 300;
    plan.settle_slots = 60;
    plan.max_retries = 2;
    plan.backoff_slots = 40;

    println!(
        "\nscenario: {} cells x {} cores, load {:.0}%, {}s online, seed {seed}, {jobs} jobs",
        base.n_cells,
        base.cores,
        base.load * 100.0,
        secs
    );
    println!(
        "plan (naive order): {:?}",
        plan.steps.iter().map(|s| s.name()).collect::<Vec<_>>()
    );

    let mut gate = Gate::default();
    // One evaluator for every run below: they all share the base's
    // offline inputs, so Algorithm 1 runs once for the whole soak.
    let mut eval = ParallelEval::new(jobs);

    // ---- 1. Naive order: must violate an invariant, roll back, lose
    //         nothing. ------------------------------------------------
    let mut naive_cfg = base.clone();
    naive_cfg.reconfig = Some(plan.clone());
    let naive_report = run_one(naive_cfg, &mut eval);
    let naive_rc = naive_report.reconfig.clone().expect("reconfig ran");
    let naive_conserved = conserved(&naive_report);
    println!(
        "\nnaive order: {}/{} steps committed, {} rollbacks, {} checks, conserved {}",
        naive_rc.committed_steps,
        naive_rc.steps.len(),
        naive_rc.rollbacks,
        naive_rc.invariant_checks,
        if naive_conserved { "yes" } else { "NO" }
    );
    for s in &naive_rc.steps {
        if let Some(v) = &s.violation {
            println!("  {}: {v}", s.step);
        }
    }
    gate.check(
        naive_rc.rollbacks > 0,
        "naive order was never rolled back (scenario too easy)",
    );
    gate.check(
        !naive_rc.feasible,
        "naive order committed every step (scenario too easy)",
    );
    gate.check(
        naive_conserved,
        "naive order lost work (conservation violated)",
    );

    // ---- 2. Safe-order search over the same steps. -------------------
    let search = search_safe_order(&base, &plan, &mut eval);
    println!(
        "\nsearch: {} evaluations, naive feasible {}, safe order {:?}",
        search.evaluations, search.naive_feasible, search.safe_order
    );
    let safe_rc = match &search.safe_order {
        Some(order) => {
            let mut safe_cfg = base.clone();
            safe_cfg.reconfig = Some(plan.with_order(order));
            let safe_report = run_one(safe_cfg, &mut eval);
            let rc = safe_report.reconfig.clone().expect("reconfig ran");
            println!(
                "safe order {:?}: {}/{} steps committed, {} rollbacks, \
                 final {} cells x {} cores, conserved {}",
                order
                    .iter()
                    .map(|&i| plan.steps[i].name())
                    .collect::<Vec<_>>(),
                rc.committed_steps,
                rc.steps.len(),
                rc.rollbacks,
                rc.final_cells,
                rc.final_cores,
                if conserved(&safe_report) { "yes" } else { "NO" }
            );
            gate.check(
                rc.feasible,
                "searched order did not commit every step on re-run",
            );
            gate.check(
                conserved(&safe_report),
                "safe order lost work (conservation violated)",
            );
            Some(rc)
        }
        None => {
            gate.check(false, "searcher found no feasible order");
            None
        }
    };

    // ---- 3. Fault soak: the safe order under concurrent core-loss and
    //         core-stall windows must still lose nothing. --------------
    let fault_order = search.safe_order.clone().unwrap_or_else(|| vec![2, 1, 0]);
    let mut fault_cfg = base.clone();
    fault_cfg.faults = FaultPlan::chaos(
        &[FaultKind::CoreOffline, FaultKind::CoreStall],
        fault_cfg.duration,
    );
    fault_cfg.reconfig = Some(plan.with_order(&fault_order));
    let fault_report = run_one(fault_cfg, &mut eval);
    let fault_rc = fault_report.reconfig.clone().expect("reconfig ran");
    let fault_conserved = conserved(&fault_report);
    println!(
        "\nfault soak: {}/{} steps committed under faults, {} rollbacks, conserved {}",
        fault_rc.committed_steps,
        fault_rc.steps.len(),
        fault_rc.rollbacks,
        if fault_conserved { "yes" } else { "NO" }
    );
    gate.check(
        fault_conserved,
        "fault soak lost work (conservation violated)",
    );

    // Deterministic soak JSON: a pure function of (seed, scenario) — CI
    // byte-compares a --jobs 1 and a --jobs 8 run.
    write_json(
        "reconfig_soak",
        &serde_json::json!({
            "seed": seed,
            "simulated_secs": secs,
            "cells": base.n_cells,
            "cores": base.cores,
            "load": base.load,
            "plan": plan,
            "naive": naive_rc,
            "search": search,
            "safe": safe_rc,
            "fault_order": fault_order,
            "fault_soak": fault_rc,
            "failures": gate.failures(),
            "offline": eval.offline_phases(),
        }),
    );
    gate.finish("reconfig soak");
}
