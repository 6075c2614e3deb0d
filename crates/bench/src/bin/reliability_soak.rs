//! Long-run reliability soak — the §6 validation run.
//!
//! The paper validates the 99.999 % claim with 8-hour tests under the
//! mixed workload (1.15×10⁸–2.0×10⁸ scheduling events) and reports that
//! "no performance or reliability differences were observed between the
//! long and the short tests". This harness runs the same mixed-workload
//! soak for as long as you ask (`--secs N` simulated seconds, default 60)
//! and reports each configuration's reliability and p99.999 latency, to
//! compare against a short run of the same configuration.
//!
//! Example: `cargo run --release -p concordia-bench --bin reliability_soak -- --secs 300`

use concordia_bench::{banner, quantile_or_nan, write_json};
use concordia_core::{Colocation, SimConfig, Simulation};
use concordia_ran::Nanos;
use serde::Serialize;

#[derive(Serialize)]
struct SoakRow {
    config: String,
    simulated_secs: u64,
    dags: usize,
    violations: u64,
    reliability: f64,
    p99999_us: f64,
}

fn main() {
    let secs = concordia_bench::u64_flag("--secs", 60);
    let seed = concordia_bench::seed_from_args();
    banner(
        "Reliability soak (mixed workload, long run)",
        "no reliability drift between short and long tests (the paper's 8-hour validation)",
    );

    let mut rows = Vec::new();
    for (name, template) in [
        ("20MHz x7 / 8 cores", SimConfig::paper_20mhz()),
        ("100MHz x2 / 9 cores", {
            let mut c = SimConfig::paper_100mhz();
            c.cores = 9; // the Fig. 12 five-nines operating point
            c
        }),
    ] {
        let mut cfg = template;
        cfg.duration = Nanos::from_secs(secs);
        cfg.colocation = Colocation::Mix;
        cfg.profiling_slots = 3_000;
        cfg.seed = seed;
        println!("\n{name}: {secs}s simulated, mixed workload");
        let report = Simulation::new(cfg).run();
        println!(
            "  dags {} | violations {} | reliability {:.7} | p99.999 {:.0}us",
            report.metrics.dags,
            report.metrics.violations,
            report.metrics.reliability,
            quantile_or_nan(report.metrics.p99999_latency_us)
        );
        rows.push(SoakRow {
            config: name.into(),
            simulated_secs: secs,
            dags: report.metrics.dags,
            violations: report.metrics.violations,
            reliability: report.metrics.reliability,
            p99999_us: quantile_or_nan(report.metrics.p99999_latency_us),
        });
    }

    write_json("reliability_soak", &rows);
}
