//! Table 2 scale-out — minimum pool cores vs number of pooled cells,
//! Concordia's shared pool against per-cell static partitioning.
//!
//! The paper's Table 2 sizes the pool by the minimum number of CPU cores
//! that still processes peak traffic reliably. Operators today partition
//! statically: every cell gets its own reserved slice, so the deployment
//! costs `C x (min cores of one cell)`. Concordia pools the cells on one
//! scheduler, and because co-located carriers are not slot-synchronous
//! (their boundaries interleave — `SimConfig::cell_stagger`), the cells'
//! compute peaks rarely coincide: the shared pool rides the statistical
//! multiplexing and needs strictly fewer cores, with the gap widening as
//! more cells share.
//!
//! Example:
//! `cargo run -p concordia-bench --release --bin table2_min_cores -- --quick`
//!
//! The bench exits 1 unless the shared pool beats static partitioning
//! for every C >= 4 and the saving grows with C. `--jobs N` caps the
//! worker threads (output bytes never depend on it).

use concordia_bench::{
    banner, fraction_flag, jobs_from_args, min_cores, write_json, Gate, RunLength,
};
use concordia_core::SimConfig;
use concordia_ran::Nanos;
use serde::Serialize;

/// Cell counts reported (the 20 MHz column of Table 2 scaled out).
const CELL_COUNTS: [u32; 4] = [1, 2, 4, 7];

#[derive(Serialize)]
struct Row {
    cells: u32,
    static_cores: u32,
    shared_cores: u32,
    saved_cores: i64,
    shared_reliability: f64,
}

fn main() {
    let len = RunLength::from_args();
    let seed = concordia_bench::seed_from_args();
    let jobs = jobs_from_args();
    let load = fraction_flag("--load", 1.0);
    banner(
        "Table 2 scale-out (minimum pool cores vs pooled cells)",
        "one shared Concordia pool needs fewer cores than C static per-cell partitions, \
         and the gap grows with C",
    );

    let (secs, profiling, target) = match len {
        RunLength::Quick => (1, 300, 0.999),
        RunLength::Standard => (4, 1_000, 0.9999),
        RunLength::Long => (15, 2_000, 0.9999),
    };

    let mut base = SimConfig::paper_20mhz();
    base.duration = Nanos::from_secs(secs);
    base.profiling_slots = profiling;
    base.load = load;
    base.seed = seed;
    // Table 2 sizes for peak traffic, not the bursty average.
    base.peak_provisioning = true;

    println!(
        "\n{}s simulated per candidate, reliability target {}, seed {}, {} jobs",
        secs, target, seed, jobs
    );
    println!(
        "\n{:>6} {:>14} {:>14} {:>9} {:>14}",
        "cells", "static(cores)", "shared(cores)", "saved", "shared rel."
    );

    // One cell on its own pool: the static partition's per-cell slice.
    // The single-cell deployment has nothing to multiplex, so staggering
    // is irrelevant to it.
    let mut single = base.clone();
    single.n_cells = 1;
    let (per_cell, _) = min_cores(&single, 1..=6, target, jobs);

    let mut rows = Vec::new();
    for cells in CELL_COUNTS {
        let static_cores = per_cell * cells;
        let mut shared = base.clone();
        shared.n_cells = cells;
        // The shared pool can never need more than the static partition
        // (it could always mimic it), so the partition bounds the search.
        let (shared_cores, report) =
            min_cores(&shared, 1..=static_cores.max(per_cell), target, jobs);
        let row = Row {
            cells,
            static_cores,
            shared_cores,
            saved_cores: static_cores as i64 - shared_cores as i64,
            shared_reliability: report.metrics.reliability,
        };
        println!(
            "{:>6} {:>14} {:>14} {:>9} {:>14.5}",
            row.cells, row.static_cores, row.shared_cores, row.saved_cores, row.shared_reliability
        );
        rows.push(row);
    }

    write_json(
        "table2_min_cores",
        &serde_json::json!({
            "seed": seed,
            "simulated_secs": secs,
            "load": load,
            "reliability_target": target,
            "per_cell_static_cores": per_cell,
            "rows": rows,
        }),
    );

    let mut gate = Gate::default();
    let mut last_gap = i64::MIN;
    for row in rows.iter().filter(|r| r.cells >= 4) {
        gate.check(
            row.shared_cores < row.static_cores,
            format!(
                "C={} shared {} >= static {}",
                row.cells, row.shared_cores, row.static_cores
            ),
        );
        gate.check(
            row.saved_cores > last_gap,
            format!(
                "C={} saving {} did not grow (previous {})",
                row.cells, row.saved_cores, last_gap
            ),
        );
        last_gap = row.saved_cores;
    }
    gate.finish("table 2 scale-out");
}
