//! Fig. 14 — WCET prediction accuracy of different models for the LDPC
//! decoding task (§6.4).
//!
//! Paper claims reproduced here:
//! * per-task deadline misses (runtime exceeding the predicted WCET):
//!   linear regression misses orders of magnitude more often than gradient
//!   boosting or the quantile decision tree, which are comparable
//!   (Fig. 14a);
//! * the quantile decision tree has the smallest average WCET prediction
//!   error on met deadlines (paper: ~43 µs), i.e. it is the least
//!   pessimistic of the accurate models (Fig. 14b);
//! * the full-DAG reliability under the Concordia scheduler is ~5 nines
//!   even though per-task prediction accuracy is lower, because the 20 µs
//!   re-scheduling compensates for mispredictions (the "Full DAG Quantile
//!   DT" bars).
//!
//! Scenarios: {1, 2} FDD cells × {isolated, +redis, +tpcc} on 4 cores.

use concordia_bench::{banner, prediction_accuracy, write_json, RunLength};
use concordia_core::profile::{profile, train_predictor};
use concordia_core::{run_experiment, Colocation, PredictorChoice, SimConfig};
use concordia_platform::workloads::WorkloadKind;
use concordia_ran::cost::CostModel;
use concordia_ran::task::TaskKind;
use concordia_ran::{CellConfig, Nanos};
use serde::Serialize;

#[derive(Serialize)]
struct PredictorScore {
    model: String,
    scenario: String,
    miss_pct: f64,
    avg_error_us: f64,
}

#[derive(Serialize)]
struct FullDagScore {
    scenario: String,
    deadline_miss_pct: f64,
}

fn main() {
    let len = RunLength::from_args();
    let seed = concordia_bench::seed_from_args();
    banner(
        "Fig. 14 (WCET prediction accuracy, LDPC decode)",
        "linreg misses >> gbt ~= qdt; qdt has the smallest avg error; full-DAG reliability ~5 nines",
    );

    let cell = CellConfig::fdd_20mhz();
    let cost = CostModel::new();
    let dataset = profile(&cell, &cost, len.profiling_slots() * 2, 4, seed);
    let decode = dataset.samples(TaskKind::LdpcDecode);
    println!("\noffline profiling: {} decode samples", decode.len());

    let eval_samples = match len {
        concordia_bench::RunLength::Quick => 20_000,
        concordia_bench::RunLength::Standard => 80_000,
        concordia_bench::RunLength::Long => 300_000,
    };

    let scenarios: Vec<(String, f64)> = vec![
        ("FD isolated".into(), 0.0),
        (
            "FD + redis".into(),
            WorkloadKind::Redis.profile().cache_intensity,
        ),
        (
            "FD + tpcc".into(),
            WorkloadKind::Tpcc.profile().cache_intensity,
        ),
    ];
    let models = [
        PredictorChoice::LinearRegression,
        PredictorChoice::GradientBoosting,
        PredictorChoice::QuantileDt,
    ];

    let mut scores = Vec::new();
    println!(
        "\nFig. 14a/b — per-task misses and avg error on met deadlines:\n{:<20} {:<14} {:>10} {:>14}",
        "model", "scenario", "miss %", "avg err (us)"
    );
    for m in models {
        for (scen, pressure) in &scenarios {
            let mut model = train_predictor(TaskKind::LdpcDecode, decode, m, &cost);
            let (miss, err) = prediction_accuracy(
                model.as_mut(),
                TaskKind::LdpcDecode,
                &cell,
                &cost,
                *pressure,
                eval_samples,
                seed ^ 0xF14,
            );
            println!("{:<20} {:<14} {:>10.4} {:>14.1}", m.name(), scen, miss, err);
            scores.push(PredictorScore {
                model: m.name().into(),
                scenario: scen.clone(),
                miss_pct: miss,
                avg_error_us: err,
            });
        }
        println!();
    }

    // Full-DAG reliability with the QDT under the Concordia scheduler.
    println!("Full DAG Quantile DT — deadline misses with 20us re-scheduling:");
    let mut full = Vec::new();
    for (n_cells, colo, scen) in [
        (1u32, Colocation::Isolated, "1 cell - FD"),
        (2, Colocation::Isolated, "2 cells - FD"),
        (
            1,
            Colocation::Single(WorkloadKind::Redis),
            "1 cell - FD & redis",
        ),
        (
            2,
            Colocation::Single(WorkloadKind::Redis),
            "2 cells - FD & redis",
        ),
        (
            1,
            Colocation::Single(WorkloadKind::Tpcc),
            "1 cell - FD & tpcc",
        ),
        (
            2,
            Colocation::Single(WorkloadKind::Tpcc),
            "2 cells - FD & tpcc",
        ),
    ] {
        let mut cfg = SimConfig::paper_20mhz();
        cfg.n_cells = n_cells;
        cfg.cores = 4;
        cfg.duration = Nanos::from_secs(len.online_secs());
        cfg.profiling_slots = len.profiling_slots();
        cfg.colocation = colo;
        cfg.seed = seed;
        let r = run_experiment(cfg);
        let miss_pct = (1.0 - r.metrics.reliability) * 100.0;
        println!("  {scen:<22} {miss_pct:.5}% of DAGs");
        full.push(FullDagScore {
            scenario: scen.into(),
            deadline_miss_pct: miss_pct,
        });
    }

    write_json(
        "fig14_predictors",
        &serde_json::json!({"per_task": scores, "full_dag": full}),
    );
}
