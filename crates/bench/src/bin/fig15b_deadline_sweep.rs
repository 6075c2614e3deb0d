//! Fig. 15b — effect of the TTI deadline parameter on tail latency and
//! reclaimed cores (§6.5).
//!
//! Paper claims reproduced here: for the 20 MHz × 7-cell configuration at
//! 25 % load, shortening the DAG deadline lowers the 99.999 % processing
//! latency at the expense of reclaimed CPU — the deadline is a tuning knob
//! trading vRAN reliability margin against sharing.

use concordia_bench::{banner, pct, quantile_or_nan, write_json, RunLength};
use concordia_core::{run_experiment, Colocation, SimConfig};
use concordia_platform::workloads::WorkloadKind;
use concordia_ran::Nanos;
use serde::Serialize;

#[derive(Serialize)]
struct Fig15bRow {
    deadline_us: f64,
    p99999_us: f64,
    reclaimed_pct: f64,
    reliability: f64,
}

fn main() {
    let len = RunLength::from_args();
    let seed = concordia_bench::seed_from_args();
    banner(
        "Fig. 15b (TTI deadline knob, 20MHz config at 25% load)",
        "shorter deadline => lower tail latency but fewer reclaimed cores",
    );

    let mut template = SimConfig::paper_20mhz();
    template.load = 0.25;
    template.duration = Nanos::from_secs(len.online_secs());
    template.profiling_slots = len.profiling_slots();
    template.colocation = Colocation::Single(WorkloadKind::Redis);
    template.seed = seed;

    println!(
        "\n{:>12} {:>14} {:>12} {:>12}",
        "deadline(us)", "p99.999(us)", "reclaimed", "reliability"
    );
    let mut rows = Vec::new();
    for us in [1600u64, 1700, 1800, 1900, 2000] {
        let d = Nanos::from_micros(us);
        let r = run_experiment(SimConfig {
            deadline_override: Some(d),
            ..template.clone()
        });
        println!(
            "{:>12.0} {:>14.0} {:>12} {:>12.6}",
            d.as_micros_f64(),
            quantile_or_nan(r.metrics.p99999_latency_us),
            pct(r.metrics.reclaimed_fraction),
            r.metrics.reliability
        );
        rows.push(Fig15bRow {
            deadline_us: d.as_micros_f64(),
            p99999_us: quantile_or_nan(r.metrics.p99999_latency_us),
            reclaimed_pct: r.metrics.reclaimed_fraction * 100.0,
            reliability: r.metrics.reliability,
        });
    }

    let first = &rows[0];
    let last = rows.last().unwrap();
    println!(
        "\ntrade-off: deadline {}us -> {}us changes p99.999 by {:+.0}us and reclaimed by {:+.1} pp",
        first.deadline_us,
        last.deadline_us,
        last.p99999_us - first.p99999_us,
        last.reclaimed_pct - first.reclaimed_pct
    );

    write_json("fig15b_deadline_sweep", &rows);
}
