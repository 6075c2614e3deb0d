//! Tables 1 & 2 — cell configurations and the minimum CPU cores required
//! to serve peak traffic (§6).
//!
//! Paper claims reproduced here:
//! * Table 1 lists the two evaluation configurations (100 MHz × 2 TDD
//!   cells with a 1.5 ms deadline; 20 MHz × 7 FDD cells with 2 ms);
//! * Table 2 lists the peak throughputs and the minimum pool sizes: 12
//!   cores for the 100 MHz configuration and 8 for the 20 MHz one.
//!
//! The minimum-core search runs the end-to-end simulator at peak traffic
//! and takes the smallest pool meeting the 99.99 %+ deadline bar.

use concordia_bench::{banner, min_cores, write_json, RunLength};
use concordia_core::{Colocation, SimConfig};
use concordia_ran::Nanos;
use serde::Serialize;

#[derive(Serialize)]
struct TableRow {
    config: String,
    n_cells: u32,
    peak_dl_mbps: f64,
    peak_ul_mbps: f64,
    deadline_ms: f64,
    min_cores: u32,
    paper_min_cores: u32,
}

fn main() {
    let len = RunLength::from_args();
    let seed = concordia_bench::seed_from_args();
    banner(
        "Tables 1/2 (cell configurations and minimum pool sizes)",
        "100MHz x2 TDD needs 12 cores; 20MHz x7 FDD needs 8 cores at peak traffic",
    );

    println!(
        "\n{:<10} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "config", "cells", "peak DL", "peak UL", "deadline", "min cores", "paper"
    );
    let mut rows = Vec::new();
    for (name, template, paper_min) in [
        ("100MHz", SimConfig::paper_100mhz(), 12u32),
        ("20MHz", SimConfig::paper_20mhz(), 8),
    ] {
        let mut t = template;
        t.load = 1.0;
        t.peak_provisioning = true;
        t.colocation = Colocation::Isolated;
        t.duration = Nanos::from_secs(len.online_secs().min(6));
        t.profiling_slots = len.profiling_slots() / 2;
        t.seed = seed;
        let (cores, report) = min_cores(&t, 2..=24, 0.9999, 1);
        assert!(
            report.metrics.reliability >= 0.9999,
            "{name}: no pool of up to 24 cores meets 99.99 %"
        );
        println!(
            "{name:<10} {:>7} {:>8.0}Mb {:>8.0}Mb {:>8.1}ms {cores:>10} {paper_min:>10}",
            t.n_cells,
            t.cell.peak_dl_mbps,
            t.cell.peak_ul_mbps,
            t.cell.deadline.as_millis_f64()
        );
        rows.push(TableRow {
            config: name.into(),
            n_cells: t.n_cells,
            peak_dl_mbps: t.cell.peak_dl_mbps,
            peak_ul_mbps: t.cell.peak_ul_mbps,
            deadline_ms: t.cell.deadline.as_millis_f64(),
            min_cores: cores,
            paper_min_cores: paper_min,
        });
    }

    write_json("table12_configs", &rows);
}
