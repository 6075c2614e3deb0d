//! Fig. 4 — vRAN CPU utilization and interference effects (§2.2/§2.3
//! motivation).
//!
//! Paper claims reproduced here:
//! * Fig. 4a: the minimum pools for the three motivation configurations
//!   (UL-only × 3 cells, TDD × 1, TDD × 2) are small, yet their average
//!   CPU utilization stays ≤ ~42 % even at peak traffic;
//! * Fig. 4b: with the vanilla (FlexRAN) stack, collocating Nginx or Redis
//!   pushes the 99.99 % slot-processing latency past the deadline, while
//!   the isolated vRAN meets it.

use concordia_bench::{banner, min_cores, pct, quantile_or_nan, write_json, RunLength};
use concordia_core::{run_experiment, Colocation, SchedulerChoice, SimConfig};
use concordia_platform::workloads::WorkloadKind;
use concordia_ran::{CellConfig, Nanos};
use serde::Serialize;

#[derive(Serialize)]
struct Fig4aRow {
    config: String,
    min_cores: u32,
    avg_cpu_util_pct: f64,
}

#[derive(Serialize)]
struct Fig4bRow {
    config: String,
    colocation: String,
    p9999_latency_us: f64,
    deadline_us: f64,
    violates: bool,
}

fn motivation_configs() -> Vec<(String, SimConfig)> {
    let mk = |cell: CellConfig, n_cells: u32| SimConfig {
        cell,
        n_cells,
        cores: 8,
        scheduler: SchedulerChoice::Dedicated,
        duration: Nanos::from_secs(2),
        profiling_slots: 300,
        // Fig. 4a sizes pools for peak traffic.
        peak_provisioning: true,
        // Isolated, full load, seed 1, QDT, no faults or extensions.
        ..SimConfig::paper_100mhz()
    };
    vec![
        (
            "UL only (3 cells)".into(),
            mk(CellConfig::ul_only_20mhz(), 3),
        ),
        ("TDD (1 cell)".into(), mk(CellConfig::tdd_100mhz(), 1)),
        ("TDD (2 cells)".into(), mk(CellConfig::tdd_100mhz(), 2)),
    ]
}

fn main() {
    let len = RunLength::from_args();
    let seed = concordia_bench::seed_from_args();
    banner(
        "Fig. 4 (vRAN CPU utilization and interference effects)",
        "min pools run at <=42% utilization; vanilla stack + Nginx/Redis breaches the 99.99% deadline",
    );

    let dur = Nanos::from_secs(len.online_secs().min(10));
    let slots = len.profiling_slots() / 2;

    // ---- Fig. 4a: minimum cores + average utilization at peak traffic ----
    println!("\nFig. 4a — minimum pool and average CPU utilization (peak traffic):");
    println!(
        "{:<20} {:>10} {:>14}  (paper: 4/42%, 5/38%, 12/33%)",
        "config", "# cores", "avg CPU util"
    );
    let mut fig4a = Vec::new();
    for (name, template) in motivation_configs() {
        let mut t = template;
        t.duration = dur;
        t.profiling_slots = slots;
        t.seed = seed;
        // Utilization is measured at the minimum pool.
        let (cores, report) = min_cores(&t, 1..=16, 0.9999, 1);
        assert!(
            report.metrics.reliability >= 0.9999,
            "{name}: no pool of up to 16 cores meets 99.99 %"
        );
        let util = report.metrics.pool_utilization;
        println!("{name:<20} {cores:>10} {:>14}", pct(util));
        fig4a.push(Fig4aRow {
            config: name,
            min_cores: cores,
            avg_cpu_util_pct: util * 100.0,
        });
    }

    // ---- Fig. 4b: vanilla-stack tail latency under colocation ----
    println!("\nFig. 4b — 99.99% slot latency, vanilla FlexRAN sharing (8 cores):");
    println!(
        "{:<20} {:<10} {:>12} {:>12} {:>9}",
        "config", "colocated", "p99.99(us)", "deadline", "violates"
    );
    let mut fig4b = Vec::new();
    for (name, template) in motivation_configs() {
        for colo in [
            Colocation::Isolated,
            Colocation::Single(WorkloadKind::Nginx),
            Colocation::Single(WorkloadKind::Redis),
        ] {
            let mut t = template.clone();
            t.duration = dur;
            t.profiling_slots = slots;
            t.seed = seed;
            t.scheduler = SchedulerChoice::FlexRan;
            t.colocation = colo;
            // The motivation experiment uses the 1.5 ms eMBB deadline.
            t.deadline_override = Some(Nanos::from_micros(1500));
            let r = run_experiment(t);
            let violates = quantile_or_nan(r.metrics.p9999_latency_us) > r.deadline_us;
            println!(
                "{name:<20} {:<10} {:>12.0} {:>12.0} {:>9}",
                r.colocation,
                quantile_or_nan(r.metrics.p9999_latency_us),
                r.deadline_us,
                if violates { "YES" } else { "no" }
            );
            fig4b.push(Fig4bRow {
                config: name.clone(),
                colocation: r.colocation.clone(),
                p9999_latency_us: quantile_or_nan(r.metrics.p9999_latency_us),
                deadline_us: r.deadline_us,
                violates,
            });
        }
    }

    write_json(
        "fig04_motivation",
        &serde_json::json!({"fig4a": fig4a, "fig4b": fig4b}),
    );
}
