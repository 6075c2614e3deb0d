//! Fig. 15a — processing overhead of the Concordia scheduler and WCET
//! predictor for a varying number of cells (§6.5).
//!
//! Unlike the simulation-driven figures, this is a *measured* claim about
//! Concordia's own code, so we measure our Rust implementation directly
//! (wall-clock over many iterations; see also the criterion benches in
//! `crates/bench/benches`).
//!
//! Paper claims reproduced here:
//! * both overheads grow linearly with the number of cells;
//! * the scheduler evaluation stays far below its 20 µs budget
//!   (paper: < 2 µs for up to 7 cells);
//! * the per-TTI WCET prediction cost is a tiny fraction of the slot
//!   (paper: 4 µs at 1 cell → 24 µs at 7 cells, < 0.2 % of pool time).

use concordia_bench::{banner, write_json, RunLength};
use concordia_core::profile::{profile, random_workload, train_bank};
use concordia_core::PredictorChoice;
use concordia_platform::sched_api::{DagProgress, PoolScheduler, PoolView};
use concordia_ran::cost::CostModel;
use concordia_ran::features::extract;
use concordia_ran::numerology::SlotDirection;
use concordia_ran::{CellConfig, Nanos};
use concordia_sched::concordia::ConcordiaScheduler;
use concordia_stats::rng::Rng;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct OverheadRow {
    cells: u32,
    scheduler_ns: f64,
    predictor_us_per_tti: f64,
    dags_in_view: usize,
    tasks_per_tti: usize,
}

fn main() {
    let len = RunLength::from_args();
    let seed = concordia_bench::seed_from_args();
    banner(
        "Fig. 15a (measured scheduler and predictor overhead vs #cells)",
        "linear growth; scheduler < 2us; predictor 4us (1 cell) -> 24us (7 cells)",
    );

    let cell = CellConfig::fdd_20mhz();
    let cost = CostModel::new();
    let dataset = profile(&cell, &cost, len.profiling_slots(), 8, seed);
    let bank = train_bank(&dataset, PredictorChoice::QuantileDt, &cost);

    let iters = match len {
        concordia_bench::RunLength::Quick => 2_000,
        concordia_bench::RunLength::Standard => 20_000,
        concordia_bench::RunLength::Long => 100_000,
    };

    let mut rows = Vec::new();
    println!(
        "\n{:>6} {:>16} {:>20} {:>10} {:>10}",
        "cells", "scheduler (ns)", "predictor (us/TTI)", "dags", "tasks/TTI"
    );
    for cells in 1..=7u32 {
        let mut rng = Rng::new(seed + cells as u64);

        // Representative per-TTI state: one UL + one DL DAG per cell.
        let mut dags: Vec<DagProgress> = Vec::new();
        let mut tti_tasks = Vec::new();
        for c in 0..cells {
            for dir in [SlotDirection::Uplink, SlotDirection::Downlink] {
                let wl = random_workload(&cell, dir, &mut rng);
                let dag = concordia_ran::dag::build_dag(&cell, c, 0, Nanos::ZERO, &wl);
                let work = dag.total_work(&cost);
                let cp = dag.critical_path(&cost);
                dags.push(DagProgress {
                    deadline: Nanos::from_millis(2),
                    remaining_work: work,
                    remaining_critical_path: cp,
                });
                for node in &dag.nodes {
                    tti_tasks.push(node.task);
                }
            }
        }

        // ---- scheduler tick cost ----
        let mut sched = ConcordiaScheduler::default_paper();
        let view = PoolView {
            now: Nanos::from_micros(100),
            total_cores: 8,
            granted_cores: 4,
            dags: &dags,
            ready_tasks: 4,
            running_tasks: 3,
            oldest_ready_wait: Nanos::from_micros(5),
            recent_utilization: 0.5,
        };
        let t0 = Instant::now();
        let mut sink = 0u64;
        for _ in 0..iters {
            sink = sink.wrapping_add(sched.target_cores(&view) as u64);
        }
        let sched_ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        std::hint::black_box(sink);

        // ---- predictor cost per TTI (predict every task of the slot) ----
        let xs: Vec<_> = tti_tasks
            .iter()
            .map(|t| (t.kind, extract(&t.params)))
            .collect();
        let t0 = Instant::now();
        let mut acc = 0.0f64;
        for _ in 0..iters.min(5_000) {
            for (kind, x) in &xs {
                if let Some(p) = bank.predict(*kind, x) {
                    acc += p.as_micros_f64();
                }
            }
        }
        let pred_us = t0.elapsed().as_micros() as f64 / iters.min(5_000) as f64;
        std::hint::black_box(acc);

        println!(
            "{cells:>6} {sched_ns:>16.0} {pred_us:>20.2} {:>10} {:>10}",
            dags.len(),
            xs.len()
        );
        rows.push(OverheadRow {
            cells,
            scheduler_ns: sched_ns,
            predictor_us_per_tti: pred_us,
            dags_in_view: dags.len(),
            tasks_per_tti: xs.len(),
        });
    }

    let s1 = rows[0].scheduler_ns;
    let s7 = rows[6].scheduler_ns;
    println!(
        "\nscheduler: {:.0}ns (1 cell) -> {:.0}ns (7 cells); budget 20us -> {:.2}% used",
        s1,
        s7,
        s7 / 20_000.0 * 100.0
    );
    println!(
        "predictor: {:.1}us (1 cell) -> {:.1}us (7 cells) per TTI",
        rows[0].predictor_us_per_tti, rows[6].predictor_us_per_tti
    );

    write_json("fig15a_overhead", &rows);
}
