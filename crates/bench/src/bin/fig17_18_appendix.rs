//! Figs. 17 & 18 (Appendix A.2) — prediction accuracy for the other
//! computationally intensive tasks: LDPC encoding, precoding, channel
//! estimation and equalization.
//!
//! Paper claims reproduced here:
//! * the quantile decision tree consistently beats linear regression on
//!   deadline misses for every task (Fig. 17);
//! * gradient boosting is comparable on misses (channel estimation being
//!   its weak spot in the paper);
//! * the quantile decision tree has a consistently small average WCET
//!   prediction error across tasks (Fig. 18).

use concordia_bench::{banner, prediction_accuracy, write_json, RunLength};
use concordia_core::profile::{profile, train_predictor};
use concordia_core::PredictorChoice;
use concordia_platform::workloads::WorkloadKind;
use concordia_ran::cost::CostModel;
use concordia_ran::task::TaskKind;
use concordia_ran::CellConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Score {
    task: String,
    model: String,
    scenario: String,
    miss_pct: f64,
    avg_error_us: f64,
}

fn main() {
    let len = RunLength::from_args();
    let seed = concordia_bench::seed_from_args();
    banner(
        "Figs. 17/18 (appendix: predictor accuracy for encode/precode/chan-est/equalization)",
        "QDT always beats linreg on misses and keeps the smallest avg error",
    );

    let cell = CellConfig::fdd_20mhz();
    let cost = CostModel::new();
    let dataset = profile(&cell, &cost, len.profiling_slots() * 2, 4, seed);

    let tasks = [
        TaskKind::LdpcEncode,
        TaskKind::Precoding,
        TaskKind::ChannelEstimation,
        TaskKind::Equalization,
    ];
    let models = [
        PredictorChoice::LinearRegression,
        PredictorChoice::GradientBoosting,
        PredictorChoice::QuantileDt,
    ];
    let scenarios: Vec<(String, f64)> = vec![
        ("FD".into(), 0.0),
        (
            "FD & redis".into(),
            WorkloadKind::Redis.profile().cache_intensity,
        ),
        (
            "FD & tpcc".into(),
            WorkloadKind::Tpcc.profile().cache_intensity,
        ),
    ];
    let eval_samples = match len {
        concordia_bench::RunLength::Quick => 10_000,
        concordia_bench::RunLength::Standard => 40_000,
        concordia_bench::RunLength::Long => 150_000,
    };

    let mut scores = Vec::new();
    for task in tasks {
        println!(
            "\n{} — miss % / avg error (us):\n{:<20} {:>14} {:>14} {:>14}",
            task.name(),
            "model",
            scenarios[0].0,
            scenarios[1].0,
            scenarios[2].0
        );
        let samples = dataset.samples(task);
        for m in models {
            print!("{:<20}", m.name());
            for (scen, pressure) in &scenarios {
                let mut model = train_predictor(task, samples, m, &cost);
                let (miss_pct, avg_err) = prediction_accuracy(
                    model.as_mut(),
                    task,
                    &cell,
                    &cost,
                    *pressure,
                    eval_samples,
                    seed ^ (task.index() as u64) << 8,
                );
                print!(" {miss_pct:>6.3}/{avg_err:<7.1}");
                scores.push(Score {
                    task: task.name().into(),
                    model: m.name().into(),
                    scenario: scen.clone(),
                    miss_pct,
                    avg_error_us: avg_err,
                });
            }
            println!();
        }
    }

    // Ordering checks across all tasks/scenarios.
    println!("\nsummary:");
    for task in tasks {
        let avg = |model: &str, field: fn(&Score) -> f64| {
            let v: Vec<f64> = scores
                .iter()
                .filter(|s| s.task == task.name() && s.model == model)
                .map(field)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        println!(
            "  {:<14} miss%: linreg {:>7.3} vs qdt {:>7.3}; avg err: gbt {:>7.1} vs qdt {:>7.1}",
            task.name(),
            avg("linear_regression", |s| s.miss_pct),
            avg("quantile_dt", |s| s.miss_pct),
            avg("gradient_boosting", |s| s.avg_error_us),
            avg("quantile_dt", |s| s.avg_error_us),
        );
    }

    write_json("fig17_18_appendix", &scores);
}
