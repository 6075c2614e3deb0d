//! Scheduler matrix — minimum pool cores × pool architecture × pooled
//! cells.
//!
//! PR 9 made the worker pool a pluggable [`PoolArchitecture`]: the
//! paper's centralized EDF queue against centralized FCFS, per-cell
//! dFCFS with static cell→core affinity, seeded work stealing, and a
//! FH/PHY/MAC pipeline partition. This bench reuses the Table-2 sizing
//! harness to answer the design question the refactor opens: *how many
//! cores does each discipline need to carry peak traffic reliably?* The
//! paper's argument for a centralized deadline queue predicts EDF sizes
//! smallest — partitioned disciplines strand slack behind their affinity
//! walls, so their minimum grows with C.
//!
//! `sched_matrix.json` (under `bench-results/` or
//! `CONCORDIA_RESULTS_DIR`) holds the min-cores matrix. Its bytes are
//! independent of `--jobs` (the runner merges in input order), so CI
//! diffs the file across worker counts.
//!
//! The bench exits 1 unless centralized EDF needs no more cores than
//! per-cell dFCFS at every C >= 4 (the pooling argument, stated as a
//! gate). `--pool NAME` restricts the sweep to one architecture (the
//! gate is skipped unless both edf and dfcfs are swept).
//!
//! Example:
//! `cargo run -p concordia-bench --release --bin sched_matrix -- --quick`

use concordia_bench::{banner, f64_flag, jobs_from_args, min_cores, write_json, Gate, RunLength};
use concordia_core::SimConfig;
use concordia_platform::arch::PoolArchChoice;
use concordia_ran::Nanos;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    arch: &'static str,
    cells: u32,
    min_cores: u32,
    reliability: f64,
    /// `true` when the smallest passing pool was found within the search
    /// bound; `false` means even the largest candidate missed the target
    /// and `min_cores` is that largest candidate.
    met_target: bool,
}

fn main() {
    let len = RunLength::from_args();
    let seed = concordia_bench::seed_from_args();
    let jobs = jobs_from_args();
    let load = f64_flag("--load", 1.0).clamp(0.0, 1.0);
    let arches: Vec<PoolArchChoice> = match std::env::args()
        .skip_while(|a| a != "--pool")
        .nth(1)
        .as_deref()
    {
        Some(name) => match PoolArchChoice::from_name(name) {
            Some(a) => vec![a],
            None => {
                eprintln!("unknown pool architecture '{name}'");
                std::process::exit(2);
            }
        },
        None => PoolArchChoice::ALL.to_vec(),
    };
    banner(
        "Scheduler matrix (minimum pool cores x architecture x pooled cells)",
        "a centralized deadline queue sizes the pool no larger than partitioned \
         disciplines, and the gap grows with C",
    );

    let (secs, profiling, target) = match len {
        RunLength::Quick => (1, 300, 0.999),
        RunLength::Standard => (4, 1_000, 0.9999),
        RunLength::Long => (15, 2_000, 0.9999),
    };
    let cell_counts: &[u32] = match len {
        RunLength::Quick => &[1, 2, 4],
        _ => &[1, 2, 4, 7],
    };

    let mut base = SimConfig::paper_20mhz();
    base.duration = Nanos::from_secs(secs);
    base.profiling_slots = profiling;
    base.load = load;
    base.seed = seed;
    // Like Table 2: size for peak traffic, not the bursty average.
    base.peak_provisioning = true;

    println!(
        "\n{secs}s simulated per candidate, reliability target {target}, seed {seed}, {jobs} jobs"
    );
    println!(
        "\n{:>9} {:>6} {:>10} {:>12} {:>7}",
        "arch", "cells", "min cores", "reliability", "met"
    );

    let mut rows: Vec<Row> = Vec::new();
    for &arch in &arches {
        // This architecture's single-cell slice bounds the multi-cell
        // search: C isolated slices could always mimic a partition, so no
        // discipline should need much more than C x its own slice (+2
        // headroom for partition-boundary rounding).
        let mut single = base.clone();
        single.pool = arch;
        single.n_cells = 1;
        let (per_cell, _) = min_cores(&single, 1..=6, target, jobs);
        for &cells in cell_counts {
            let mut shared = base.clone();
            shared.pool = arch;
            shared.n_cells = cells;
            let bound = per_cell * cells + 2;
            let (cores, report) = min_cores(&shared, 1..=bound, target, jobs);
            let rel = report.metrics.reliability;
            let met = rel >= target;
            println!(
                "{:>9} {:>6} {:>10} {:>12.5} {:>7}",
                arch.name(),
                cells,
                cores,
                rel,
                met
            );
            rows.push(Row {
                arch: arch.name(),
                cells,
                min_cores: cores,
                reliability: rel,
                met_target: met,
            });
        }
    }

    write_json(
        "sched_matrix",
        &serde_json::json!({
            "bench": "sched_matrix",
            "seed": seed,
            "simulated_secs": secs,
            "load": load,
            "reliability_target": target,
            "rows": rows,
        }),
    );

    let min_for = |arch: &str, cells: u32| {
        rows.iter()
            .find(|r| r.arch == arch && r.cells == cells)
            .map(|r| r.min_cores)
    };
    let mut gate = Gate::default();
    let mut compared = false;
    for &cells in cell_counts.iter().filter(|&&c| c >= 4) {
        if let (Some(edf), Some(dfcfs)) = (min_for("edf", cells), min_for("dfcfs", cells)) {
            compared = true;
            gate.check(
                edf <= dfcfs,
                format!(
                    "C={cells} edf needs {edf} cores vs dfcfs {dfcfs} \
                     (centralized EDF must never size larger)"
                ),
            );
        }
    }
    if !compared {
        println!("\ngate skipped: needs both edf and dfcfs at some C >= 4 (drop --pool)");
    }
    gate.finish("scheduler matrix");
}
