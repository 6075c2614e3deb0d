//! Scenario soak — the measurement-driven workload library at volume.
//!
//! Runs every library scenario (urban macro bursts, stadium flash crowd,
//! sliced deadlines, mMTC background, trace replay) on a shared pool at
//! ×10–×100 the tier-1 test volume and reports, per scenario: SLA miss
//! rate, reliability and demand completed. The trace-replay arm runs on
//! the EPYC platform knob so the Pramanik compute scale is soaked too.
//!
//! `scenario_soak.json` (under `bench-results/` or
//! `CONCORDIA_RESULTS_DIR`) holds the per-scenario results — report
//! fingerprints, reliability, violations. Its bytes are independent of
//! `--jobs` (the runner merges in input order), so CI diffs the file
//! across worker counts. The soak exits 1 if any cell stranded work.
//!
//! Example:
//! `cargo run -p concordia-bench --release --bin scenario_soak -- --quick`

use concordia_bench::{banner, jobs_from_args, write_json, Gate, RunLength};
use concordia_core::runner::run_parallel;
use concordia_core::{ScenarioSpec, SimConfig};
use concordia_ran::Nanos;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    scenario: String,
    platform: &'static str,
    cells: u32,
    cores: u32,
    dags: u64,
    violations: u64,
    reliability: f64,
    sla_miss_rate: f64,
    fingerprint: String,
}

/// The soak specs: each library scenario with its envelope stretched to
/// the simulated duration (ramps and periods in slots at 1 ms/slot).
fn specs(len: RunLength) -> Vec<ScenarioSpec> {
    // Slots simulated per run (paper_20mhz: 1 ms slots).
    let slots = match len {
        RunLength::Quick => 1_000,
        RunLength::Standard => 4_000,
        RunLength::Long => 10_000,
    };
    let parse = |s: String| ScenarioSpec::parse(&s).expect("soak scenario parses");
    vec![
        parse(format!("urban_macro_burst:period={}", slots / 2)),
        parse(format!(
            "stadium_flash_crowd:onset=0.2,ramp={},hold={},decay={}",
            slots / 10,
            slots / 4,
            slots / 5
        )),
        parse("sliced_deadlines:urllc_deadline=0.5".to_string()),
        parse(format!(
            "mmtc_background:devices=2000000,period={}",
            slots * 20
        )),
        parse(format!(
            "trace_replay:ttis={},trace_seed=3,scale=1.2,platform=epyc_rome7452",
            (slots / 2).max(64)
        )),
    ]
}

fn main() {
    let len = RunLength::from_args();
    let seed = concordia_bench::seed_from_args();
    let jobs = jobs_from_args();
    banner(
        "Scenario soak (measurement-driven workload library at volume)",
        "every library scenario holds its SLA on the sized pool, and its \
         bytes are jobs-invariant",
    );

    let (secs, profiling, cells, cores) = match len {
        RunLength::Quick => (1, 300, 4, 6),
        RunLength::Standard => (4, 1_000, 7, 8),
        RunLength::Long => (10, 2_000, 7, 8),
    };

    let mut base = SimConfig::paper_20mhz();
    base.duration = Nanos::from_secs(secs);
    base.profiling_slots = profiling;
    base.n_cells = cells;
    base.cores = cores;
    base.load = 0.6;
    base.seed = seed;

    let library = specs(len);
    let configs: Vec<SimConfig> = library
        .iter()
        .map(|s| SimConfig {
            scenario: Some(s.clone()),
            ..base.clone()
        })
        .collect();

    println!(
        "\n{secs}s simulated x {} scenarios, C={cells} cells on {cores} cores, seed {seed}, {jobs} jobs",
        library.len()
    );

    // Deterministic sweep (parallel; merge order is input order).
    let reports = run_parallel(configs, jobs);

    // Conservation gate: no scenario strands a cell's work.
    let mut gate = Gate::default();
    let mut rows: Vec<Row> = Vec::new();
    println!(
        "\n{:>20} {:>16} {:>9} {:>11} {:>12}",
        "scenario", "platform", "dags", "violations", "reliability"
    );
    for (spec, r) in library.iter().zip(&reports) {
        let m = &r.metrics;
        println!(
            "{:>20} {:>16} {:>9} {:>11} {:>12.6}",
            spec.name(),
            spec.platform.name(),
            m.dags,
            m.violations,
            m.reliability
        );
        rows.push(Row {
            scenario: spec.name().to_string(),
            platform: spec.platform.name(),
            cells,
            cores,
            dags: m.dags as u64,
            violations: m.violations,
            reliability: m.reliability,
            sla_miss_rate: if m.dags > 0 {
                m.violations as f64 / m.dags as f64
            } else {
                0.0
            },
            fingerprint: r.fingerprint(),
        });
        for (c, ledger) in m.per_cell.iter().enumerate() {
            gate.check(
                ledger.injected > 0 && ledger.completed == ledger.injected,
                format!(
                    "{} cell {c} completed {} of {} DAGs",
                    spec.name(),
                    ledger.completed,
                    ledger.injected
                ),
            );
        }
    }

    write_json(
        "scenario_soak",
        &serde_json::json!({
            "bench": "scenario_soak",
            "seed": seed,
            "simulated_secs": secs,
            "cells": cells,
            "cores": cores,
            "rows": rows,
        }),
    );

    gate.finish("scenario soak");
}
