//! Scale soak — C = 1..8 cells on one shared pool, under core-loss
//! faults, driven by the parallel deterministic runner.
//!
//! Two properties are exercised at every cell count:
//!
//! * **conservation** — no cell loses work: every DAG a cell injects
//!   completes, even while fault windows take cores offline mid-task and
//!   the survivors absorb the requeued work;
//! * **runner determinism** — the whole soak is a pure function of the
//!   seed: `--jobs 1` and `--jobs $(nproc)` produce byte-identical JSON
//!   (CI runs both and diffs the files).
//!
//! Each cell count runs a small seed sweep through
//! [`concordia_core::runner::run_sweep`], so the soak also covers the
//! ChaCha seed-derivation path end to end.
//!
//! The soak exits 1 if any cell count loses work.
//!
//! Example:
//! `cargo run -p concordia-bench --release --bin scale_soak -- --quick --jobs 2`

use concordia_bench::{
    banner, cells_from_args, jobs_from_args, u64_flag, write_json, Gate, RunLength,
};
use concordia_core::runner::run_sweep;
use concordia_core::SimConfig;
use concordia_platform::faults::{FaultKind, FaultPlan};
use concordia_platform::metrics::CellCounters;
use concordia_ran::Nanos;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    cells: u32,
    runs: usize,
    dags: usize,
    violations: u64,
    reliability: f64,
    cores_failed: u64,
    tasks_requeued: u64,
    per_cell: Vec<CellCounters>,
    conserved: bool,
}

fn main() {
    let len = RunLength::from_args();
    let seed = concordia_bench::seed_from_args();
    let jobs = jobs_from_args();
    let max_cells = cells_from_args(8);
    let repeats = u64_flag("--repeat", 2) as usize;
    banner(
        "Scale soak (1..C cells sharing one pool, under core-loss faults)",
        "no cell loses work as the deployment scales, and the parallel runner's \
         report bytes are independent of --jobs",
    );

    let (secs, profiling) = match len {
        RunLength::Quick => (1, 300),
        RunLength::Standard => (3, 600),
        RunLength::Long => (10, 2_000),
    };
    let dur = Nanos::from_secs(secs);

    println!(
        "\ncells 1..{max_cells}, {repeats} runs each, {secs}s simulated per run, \
         seed {seed}, {jobs} jobs"
    );
    println!(
        "\n{:>6} {:>6} {:>9} {:>11} {:>12} {:>9} {:>9} {:>10}",
        "cells", "runs", "dags", "violations", "reliability", "failed", "requeued", "conserved"
    );

    let mut rows = Vec::new();
    for cells in 1..=max_cells {
        let mut base = SimConfig::paper_20mhz();
        base.n_cells = cells;
        // Keep the pool under real pressure as cells are added: one core
        // per cell plus one to absorb the fault windows.
        base.cores = cells + 1;
        base.duration = dur;
        base.profiling_slots = profiling;
        base.load = 0.5;
        base.faults = FaultPlan::chaos(&[FaultKind::CoreOffline, FaultKind::CoreStall], dur);

        let sweep = run_sweep(&base, seed ^ u64::from(cells), repeats, jobs, None);

        // Merge the sweep's per-cell ledgers; conservation must hold in
        // every run for every cell.
        let mut per_cell = vec![CellCounters::default(); cells as usize];
        let mut dags = 0usize;
        let mut violations = 0u64;
        let mut cores_failed = 0u64;
        let mut tasks_requeued = 0u64;
        for run in &sweep.runs {
            dags += run.metrics.dags;
            violations += run.metrics.violations;
            cores_failed += run.metrics.cores_failed;
            tasks_requeued += run.metrics.tasks_requeued;
            for (c, ledger) in run.metrics.per_cell.iter().enumerate() {
                per_cell[c].injected += ledger.injected;
                per_cell[c].completed += ledger.completed;
                per_cell[c].violations += ledger.violations;
            }
        }
        let conserved = per_cell.iter().all(|l| l.completed == l.injected)
            && per_cell.iter().all(|l| l.injected > 0);
        let reliability = if dags == 0 {
            1.0
        } else {
            1.0 - violations as f64 / dags as f64
        };

        let row = Row {
            cells,
            runs: sweep.runs.len(),
            dags,
            violations,
            reliability,
            cores_failed,
            tasks_requeued,
            per_cell,
            conserved,
        };
        println!(
            "{:>6} {:>6} {:>9} {:>11} {:>12.6} {:>9} {:>9} {:>10}",
            row.cells,
            row.runs,
            row.dags,
            row.violations,
            row.reliability,
            row.cores_failed,
            row.tasks_requeued,
            if row.conserved { "yes" } else { "NO" }
        );
        rows.push(row);
    }

    let all_conserved = rows.iter().all(|r| r.conserved);
    println!(
        "\nconservation {} across {} cell counts",
        if all_conserved { "held" } else { "VIOLATED" },
        rows.len()
    );

    // Note: `jobs` is deliberately absent from the JSON — CI byte-compares
    // the files of a --jobs 1 and a --jobs $(nproc) run.
    write_json(
        "scale_soak",
        &serde_json::json!({
            "seed": seed,
            "simulated_secs": secs,
            "repeats": repeats,
            "rows": rows,
            "all_conserved": all_conserved,
        }),
    );

    let mut gate = Gate::default();
    for row in &rows {
        gate.check(
            row.conserved,
            format!("C={}: a cell lost work under core loss", row.cells),
        );
    }
    gate.finish("scale soak");
}
