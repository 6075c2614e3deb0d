//! Fig. 13 — Concordia's parameterized predictor vs the conventional
//! single-value pWCET method (§6.3).
//!
//! Paper claims reproduced here:
//! * Concordia's quantile decision tree reclaims more CPU than the
//!   EVT-based single-value pWCET of \[23\] (up to ~20 % more reclaimed
//!   cycles in the paper), because the single value must be sized for the
//!   worst input and is therefore pessimistic for the typical slot;
//! * the latency benefit of the pessimistic model is marginal (~5 µs).

use concordia_bench::{banner, pct, quantile_or_nan, write_json, RunLength};
use concordia_core::{run_experiment, Colocation, PredictorChoice, SimConfig};
use concordia_platform::workloads::WorkloadKind;
use concordia_ran::Nanos;
use serde::Serialize;

#[derive(Serialize)]
struct Fig13Row {
    predictor: String,
    load: f64,
    reclaimed_pct: f64,
    p9999_us: f64,
    p99999_us: f64,
    reliability: f64,
}

fn main() {
    let len = RunLength::from_args();
    let seed = concordia_bench::seed_from_args();
    banner(
        "Fig. 13 (quantile DT vs conventional single-value pWCET, 20MHz config)",
        "Concordia reclaims up to ~20% more CPU than pWCET; pWCET's latency benefit is ~5us",
    );

    let loads = [0.05, 0.25, 0.5, 0.75, 1.0];
    let mut rows = Vec::new();
    println!(
        "\n{:<12} {:>6} {:>12} {:>12} {:>13} {:>12}",
        "predictor", "load", "reclaimed", "p99.99(us)", "p99.999(us)", "reliability"
    );
    for pred in [PredictorChoice::QuantileDt, PredictorChoice::PwcetEvt] {
        for &load in &loads {
            let mut cfg = SimConfig::paper_20mhz();
            cfg.duration = Nanos::from_secs(len.online_secs());
            cfg.profiling_slots = len.profiling_slots();
            cfg.predictor = pred;
            cfg.load = load;
            cfg.colocation = Colocation::Single(WorkloadKind::Redis);
            cfg.seed = seed;
            let r = run_experiment(cfg);
            println!(
                "{:<12} {:>5.0}% {:>12} {:>12.0} {:>13.0} {:>12.6}",
                r.predictor,
                load * 100.0,
                pct(r.metrics.reclaimed_fraction),
                quantile_or_nan(r.metrics.p9999_latency_us),
                quantile_or_nan(r.metrics.p99999_latency_us),
                r.metrics.reliability
            );
            rows.push(Fig13Row {
                predictor: r.predictor.clone(),
                load,
                reclaimed_pct: r.metrics.reclaimed_fraction * 100.0,
                p9999_us: quantile_or_nan(r.metrics.p9999_latency_us),
                p99999_us: quantile_or_nan(r.metrics.p99999_latency_us),
                reliability: r.metrics.reliability,
            });
        }
        println!();
    }

    // Summary deltas per load.
    println!("delta (QDT - pWCET):");
    for &load in &loads {
        let q = rows
            .iter()
            .find(|r| r.predictor == "quantile_dt" && r.load == load)
            .unwrap();
        let p = rows
            .iter()
            .find(|r| r.predictor == "pwcet_evt" && r.load == load)
            .unwrap();
        println!(
            "  load {:>3.0}%: +{:.1} pp reclaimed, {:+.0}us p99.99",
            load * 100.0,
            q.reclaimed_pct - p.reclaimed_pct,
            q.p9999_us - p.p9999_us
        );
    }

    write_json("fig13_pwcet", &rows);
}
