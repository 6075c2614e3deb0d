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
//! `--check` exits non-zero when any property fails (CI gate). Timing
//! figures (steps/sec, wall time) go to `BENCH_reconfig.json` in the
//! working directory, *separate* from the deterministic soak JSON.
//!
//! Example:
//! `cargo run -p concordia-bench --release --bin reconfig_soak -- --quick --check`

use concordia_bench::{banner, bool_flag, jobs_from_args, write_json, RunLength};
use concordia_core::runner::{BatchEval, ParallelEval};
use concordia_core::{
    search_safe_order, ExperimentReport, ReconfigPlan, ReconfigStep, SearchConfig, SimConfig,
};
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
    let check = bool_flag("--check");
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

    let started = std::time::Instant::now();
    let mut failures: Vec<String> = Vec::new();
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
    if naive_rc.rollbacks == 0 {
        failures.push("naive order was never rolled back (scenario too easy)".into());
    }
    if naive_rc.feasible {
        failures.push("naive order committed every step (scenario too easy)".into());
    }
    if !naive_conserved {
        failures.push("naive order lost work (conservation violated)".into());
    }

    // ---- 2. Safe-order search over the same steps. -------------------
    let search = search_safe_order(&base, &plan, SearchConfig::default(), &mut eval);
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
            if !rc.feasible {
                failures.push("searched order did not commit every step on re-run".into());
            }
            if !conserved(&safe_report) {
                failures.push("safe order lost work (conservation violated)".into());
            }
            Some(rc)
        }
        None => {
            failures.push("searcher found no feasible order".into());
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
    if !fault_conserved {
        failures.push("fault soak lost work (conservation violated)".into());
    }

    let wall = started.elapsed().as_secs_f64();
    let total_rollbacks =
        naive_rc.rollbacks + safe_rc.as_ref().map_or(0, |rc| rc.rollbacks) + fault_rc.rollbacks;
    let steps_attempted: u64 = [Some(&naive_rc), safe_rc.as_ref(), Some(&fault_rc)]
        .into_iter()
        .flatten()
        .flat_map(|rc| rc.steps.iter())
        .map(|s| s.attempts as u64)
        .sum();

    // Deterministic soak JSON: a pure function of (seed, scenario) — CI
    // byte-compares a --jobs 1 and a --jobs 8 run. No timing here.
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
            "failures": failures,
        }),
    );

    // Timing JSON at the repo root (the perf-trajectory artifact): wall
    // time is machine-dependent, so it stays out of the soak JSON above.
    let bench = serde_json::json!({
        "bench": "reconfig",
        "wall_s": wall,
        "steps_attempted": steps_attempted,
        "steps_per_sec": steps_attempted as f64 / wall.max(1e-9),
        "rollbacks": total_rollbacks,
        "search_evaluations": search.evaluations,
        "offline": eval.offline_phases(),
    });
    std::fs::write(
        "BENCH_reconfig.json",
        serde_json::to_string_pretty(&bench).expect("serialize bench"),
    )
    .expect("write BENCH_reconfig.json");
    println!("[timing written to BENCH_reconfig.json]");

    if failures.is_empty() {
        println!("\nreconfig soak PASSED");
    } else {
        println!("\nreconfig soak FAILED:");
        for f in &failures {
            println!("  - {f}");
        }
        if check {
            std::process::exit(1);
        }
    }
}
