//! Trace overhead — proves the observability layer's two contracts:
//!
//! 1. **Zero perturbation** — a traced run produces a byte-identical
//!    report to the untraced run with the same seed (after stripping the
//!    report's `trace` accounting field, which only exists when tracing
//!    is on). The recorder touches no RNG, schedules no event and feeds
//!    nothing back into the simulation, so everything the paper measures
//!    is unchanged.
//! 2. **Cheap enough to leave on** — the wall-clock cost of recording is
//!    small (<5 % is the target on a release build; the bin prints the
//!    measured figure and warns above the bar).
//!
//! It also validates the Chrome trace-event export end to end: the JSON
//! parses back, `traceEvents` is non-empty, and timestamps are monotone
//! nondecreasing within every track — the structural properties Perfetto
//! and `chrome://tracing` rely on.
//!
//! The bench exits 1 when identity or export validity fail (CI gate).
//! Wall-clock overhead stays a warning there: debug/CI machines are too
//! noisy for a hard timing gate. `--enforce-overhead` upgrades the 5 %
//! bar to a failure for release-mode local runs.
//!
//! Example:
//! `cargo run -p concordia-bench --release --bin trace_overhead -- --quick`

use concordia_bench::{banner, bool_flag, write_json, Gate, RunLength};
use concordia_core::{Colocation, ExperimentReport, SimConfig, Simulation};
use concordia_platform::faults::{FaultKind, FaultPlan};
use concordia_platform::trace::{export_chrome_trace, TraceConfig};
use concordia_platform::workloads::WorkloadKind;
use concordia_sched::SupervisorConfig;
use serde::{map_get, Value};
use std::time::Instant;

/// The workout: faults, supervisor lifecycle, FPGA offloads and a
/// collocated workload, so every traced event class fires. Load stays
/// at 0.6 — at 0.7 the core-offline windows push the pool near
/// saturation and the queue backlog makes wall clock superlinear in
/// simulated time, which swamps the on/off comparison this bin exists
/// to make.
fn workout(len: RunLength, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_100mhz();
    cfg.cores = 8;
    cfg.duration = concordia_ran::Nanos::from_millis(match len {
        RunLength::Quick => 400,
        RunLength::Standard => 1_500,
        RunLength::Long => 5_000,
    });
    cfg.profiling_slots = match len {
        RunLength::Quick => 250,
        RunLength::Standard => 500,
        RunLength::Long => 1_500,
    };
    cfg.load = 0.6;
    cfg.colocation = Colocation::Single(WorkloadKind::Redis);
    cfg.fpga = true;
    cfg.supervisor = Some(SupervisorConfig::default());
    cfg.faults = FaultPlan::chaos(
        &[FaultKind::CoreOffline, FaultKind::AccelOutage],
        cfg.duration,
    );
    cfg.seed = seed;
    cfg
}

/// Structural validation of the Chrome export (see module docs).
/// Returns `(n_events, problems)`.
fn validate_chrome(trace: &Value) -> (usize, Vec<String>) {
    let mut problems = Vec::new();
    let Value::Map(top) = trace else {
        return (0, vec!["top level is not an object".into()]);
    };
    let Value::Seq(events) = map_get(top, "traceEvents") else {
        return (0, vec!["traceEvents missing or not an array".into()]);
    };
    if events.is_empty() {
        problems.push("traceEvents is empty".into());
    }
    // ts must be nondecreasing within each track (tid).
    let mut last_ts: Vec<(u64, f64)> = Vec::new();
    for ev in events {
        let Value::Map(m) = ev else {
            problems.push("event is not an object".into());
            continue;
        };
        if matches!(map_get(m, "ph"), Value::Str(s) if s == "M") {
            continue; // metadata carries no timestamp ordering contract
        }
        let tid = match map_get(m, "tid") {
            Value::U64(t) => *t,
            _ => {
                problems.push("event without a numeric tid".into());
                continue;
            }
        };
        let ts = match map_get(m, "ts") {
            Value::F64(t) => *t,
            Value::U64(t) => *t as f64,
            _ => {
                problems.push("event without a numeric ts".into());
                continue;
            }
        };
        match last_ts.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, prev)) => {
                if ts < *prev {
                    problems.push(format!("track {tid}: ts {ts} after {prev}"));
                }
                *prev = ts;
            }
            None => last_ts.push((tid, ts)),
        }
    }
    (events.len(), problems)
}

fn strip_trace(mut r: ExperimentReport) -> ExperimentReport {
    r.trace = None;
    r
}

fn main() {
    let len = RunLength::from_args();
    let seed = concordia_bench::seed_from_args();
    let enforce_overhead = bool_flag("--enforce-overhead");
    banner(
        "Trace overhead (observability layer determinism + cost)",
        "tracing on vs off: byte-identical reports, valid Chrome export, small wall-clock cost",
    );

    let t0 = Instant::now();
    let report_off = Simulation::new(workout(len, seed)).run();
    let wall_off = t0.elapsed();

    let mut traced_cfg = workout(len, seed);
    traced_cfg.trace = Some(TraceConfig::default());
    let t1 = Instant::now();
    let (report_on, recorder) = Simulation::new(traced_cfg).run_traced();
    let wall_on = t1.elapsed();
    let recorder = recorder.expect("tracing was enabled");
    let trace_summary = recorder.summary();

    // Gate 1: byte identity after stripping the trace accounting field.
    let json_off = serde_json::to_string(&report_off).expect("report");
    let json_on = serde_json::to_string(&strip_trace(report_on.clone())).expect("report");
    let identical = json_off == json_on;

    // Gate 2: the Chrome export is structurally valid.
    let chrome = export_chrome_trace(&recorder);
    let reparsed: Value = serde_json::from_str(&serde_json::to_string(&chrome).expect("trace"))
        .expect("chrome export must be valid JSON");
    let (n_events, problems) = validate_chrome(&reparsed);

    let overhead_pct = if wall_off.as_secs_f64() > 0.0 {
        (wall_on.as_secs_f64() / wall_off.as_secs_f64() - 1.0) * 100.0
    } else {
        0.0
    };

    println!(
        "\nuntraced {:.2}s | traced {:.2}s | overhead {overhead_pct:+.1}%",
        wall_off.as_secs_f64(),
        wall_on.as_secs_f64()
    );
    println!(
        "report identity (trace field stripped): {}",
        if identical {
            "byte-identical"
        } else {
            "MISMATCH"
        }
    );
    println!(
        "chrome export: {n_events} events, {} recorded / {} dropped / {} snapshots, {}",
        trace_summary.events_recorded,
        trace_summary.events_dropped,
        trace_summary.snapshots,
        if problems.is_empty() {
            "valid (monotone per-track timestamps)".to_string()
        } else {
            format!("INVALID: {}", problems.join("; "))
        }
    );
    if overhead_pct > 5.0 {
        println!("WARNING: overhead above the 5% target (noisy machine or debug build?)");
    }

    write_json(
        "trace_overhead",
        &serde_json::json!({
            "seed": seed,
            "untraced_secs": wall_off.as_secs_f64(),
            "traced_secs": wall_on.as_secs_f64(),
            "overhead_pct": overhead_pct,
            "reports_identical": identical,
            "chrome_events": n_events,
            "chrome_problems": problems,
            "events_recorded": trace_summary.events_recorded,
            "events_dropped": trace_summary.events_dropped,
            "snapshots": trace_summary.snapshots,
        }),
    );

    let mut gate = Gate::default();
    gate.check(identical, "traced report differs from the untraced one");
    gate.check(
        problems.is_empty(),
        format!("invalid chrome export: {}", problems.join("; ")),
    );
    gate.check(
        !enforce_overhead || overhead_pct <= 5.0,
        format!("overhead {overhead_pct:+.1}% above the 5% bar"),
    );
    gate.finish("trace_overhead");
}
