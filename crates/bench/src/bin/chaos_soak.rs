//! Chaos soak — deterministic fault injection across every fault class,
//! Concordia vs the FlexRAN baseline.
//!
//! Each experiment injects exactly one fault window (drawn
//! deterministically from the seed) into an otherwise healthy run and
//! reports reliability before, during and after the window plus the time
//! the pool needed to stop violating once the fault cleared. Two claims
//! are exercised:
//!
//! * **graceful degradation** — no fault class can panic the simulator:
//!   cores disappear mid-task and their work is requeued, offloads with
//!   the FPGA gone (or timing out) fall back to the CPU decode path, and a
//!   worker panic inside the parallel runner is contained to its slot;
//! * **recovery** — with the degraded-mode scheduling additions (surviving
//!   -core reallocation, queue-overload critical stage, misprediction
//!   guard), Concordia's post-window reliability returns to the pre-fault
//!   level.
//!
//! The whole run is bit-reproducible: the same `--seed` yields the same
//! fault windows, the same per-experiment outcomes and byte-identical
//! JSON.
//!
//! Example: `cargo run -p concordia-bench --release --bin chaos_soak -- --seed 1 --load 0.7`
//!
//! `--trace` turns the ring-buffer recorder on for every experiment. The
//! rows are derived from metrics only, so the JSON stays byte-identical
//! with tracing on or off — CI runs the soak both ways and compares.
//!
//! The soak exits 1 unless every fault-class run yields a report, the
//! broken configuration's panic is contained, and Concordia recovers in
//! every fault class.

use concordia_bench::{banner, bool_flag, f64_flag, write_json, Gate, RunLength};
use concordia_core::runner::run_parallel_results;
use concordia_core::{Colocation, ExperimentReport, SchedulerChoice, SimConfig};
use concordia_platform::faults::{FaultKind, FaultPlan};
use concordia_platform::trace::TraceConfig;
use concordia_platform::workloads::WorkloadKind;
use concordia_ran::Nanos;
use concordia_sched::ConcordiaConfig;
use serde::Serialize;

const CLASSES: [FaultKind; 7] = [
    FaultKind::CoreOffline,
    FaultKind::CoreStall,
    FaultKind::AccelOutage,
    FaultKind::AccelTimeout,
    FaultKind::PredictorBias,
    FaultKind::StormAmplification,
    FaultKind::TrafficSurge,
];

#[derive(Serialize)]
struct ChaosRow {
    scheduler: String,
    fault: String,
    window_start_us: f64,
    window_end_us: f64,
    severity: f64,
    dags: usize,
    reliability_before: f64,
    reliability_during: f64,
    reliability_after: f64,
    recovery_us: f64,
    recovered: bool,
    cores_failed: u64,
    offload_fallbacks: u64,
    tasks_requeued: u64,
}

fn row(report: &ExperimentReport, fault: FaultKind) -> ChaosRow {
    let w = report
        .fault
        .as_ref()
        .and_then(|f| f.windows.first())
        .expect("chaos config always resolves one fault window");
    ChaosRow {
        scheduler: report.scheduler.clone(),
        fault: fault.name().to_string(),
        window_start_us: w.start_us,
        window_end_us: w.end_us,
        severity: w.severity,
        dags: report.metrics.dags,
        reliability_before: w.reliability_before,
        reliability_during: w.reliability_during,
        reliability_after: w.reliability_after,
        recovery_us: w.recovery_us,
        recovered: w.recovered(),
        cores_failed: report.metrics.cores_failed,
        offload_fallbacks: report.metrics.offload_fallbacks,
        tasks_requeued: report.metrics.tasks_requeued,
    }
}

fn main() {
    let len = RunLength::from_args();
    let seed = concordia_bench::seed_from_args();
    let load = f64_flag("--load", 0.6).clamp(0.0, 1.0);
    let tracing = bool_flag("--trace");
    banner(
        "Chaos soak (fault injection across the pool, scheduler and accelerator path)",
        "no fault class panics the simulator; Concordia's reliability recovers once the fault clears",
    );

    let secs = match len {
        RunLength::Quick => 1,
        RunLength::Standard => 3,
        RunLength::Long => 10,
    };
    let dur = Nanos::from_secs(secs);
    let profiling = match len {
        RunLength::Quick => 300,
        RunLength::Standard => 600,
        RunLength::Long => 2_000,
    };

    // Concordia with the degraded-mode overload detector armed; FlexRAN as
    // the baseline that shares the same platform-level fallbacks but has no
    // degraded-mode scheduling.
    let concordia = SchedulerChoice::Concordia(ConcordiaConfig {
        overload_wait: Nanos::from_micros(300),
        ..ConcordiaConfig::default()
    });
    let schedulers = [
        ("concordia", concordia),
        ("flexran", SchedulerChoice::FlexRan),
    ];

    let mut configs = Vec::new();
    for (_, sched) in &schedulers {
        for kind in CLASSES {
            // The Fig. 11 stress point — 100 MHz x 2 cells on an 8-core
            // pool with Redis collocated — where FlexRAN is already at the
            // edge of 4 nines, so fault windows visibly move reliability.
            let mut cfg = SimConfig::paper_100mhz();
            cfg.cores = 8;
            cfg.scheduler = *sched;
            cfg.duration = dur;
            cfg.profiling_slots = profiling;
            cfg.load = load;
            cfg.colocation = Colocation::Single(WorkloadKind::Redis);
            // The accelerator faults need an engine to lose; for the CPU
            // -side faults the FPGA stays off so decode keeps the pool
            // loaded enough for the windows to bite.
            cfg.fpga = matches!(kind, FaultKind::AccelOutage | FaultKind::AccelTimeout);
            cfg.seed = seed;
            cfg.faults = FaultPlan::chaos(&[kind], dur);
            cfg.trace = tracing.then(TraceConfig::default);
            configs.push(cfg);
        }
    }
    // One deliberately broken configuration (an impossible pool): its
    // worker panic must be contained to its slot, not sink the sweep.
    let mut broken = configs[0].clone();
    broken.cores = 0;
    configs.push(broken);

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    println!(
        "\n{} experiments ({} fault classes x {} schedulers + 1 broken config), {}s simulated each, load {:.0}%, seed {}",
        configs.len(),
        CLASSES.len(),
        schedulers.len(),
        secs,
        load * 100.0,
        seed
    );

    // The broken config's panic is expected; keep its default-hook noise
    // out of the output.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let results = run_parallel_results(configs, workers);
    std::panic::set_hook(prev_hook);

    println!(
        "\n{:<10} {:<20} {:>14} {:>9} {:>9} {:>9} {:>11} {:>10}",
        "scheduler",
        "fault",
        "window(us)",
        "rel.pre",
        "rel.dur",
        "rel.post",
        "recover(us)",
        "recovered"
    );
    let mut gate = Gate::default();
    let mut rows = Vec::new();
    let mut concordia_recovered = 0usize;
    let mut concordia_total = 0usize;
    let mut iter = results.iter();
    for (name, _) in &schedulers {
        for kind in CLASSES {
            let outcome = iter.next().expect("one result per config");
            match outcome {
                Ok(report) => {
                    let r = row(report, kind);
                    println!(
                        "{:<10} {:<20} {:>6.0}-{:>7.0} {:>9.5} {:>9.5} {:>9.5} {:>11.0} {:>10}",
                        r.scheduler,
                        r.fault,
                        r.window_start_us,
                        r.window_end_us,
                        r.reliability_before,
                        r.reliability_during,
                        r.reliability_after,
                        r.recovery_us,
                        if r.recovered { "yes" } else { "NO" }
                    );
                    if *name == "concordia" {
                        concordia_total += 1;
                        if r.recovered {
                            concordia_recovered += 1;
                        }
                    }
                    rows.push(r);
                }
                Err(failure) => {
                    println!("{:<10} {:<20} FAILED: {}", name, kind.name(), failure);
                    gate.check(false, format!("{name} {}: {failure}", kind.name()));
                }
            }
        }
    }

    let broken_outcome = iter.next().expect("the broken config has a slot");
    let contained = broken_outcome.is_err();
    match broken_outcome {
        Err(f) => println!(
            "\nworker panic contained to its slot (seed {}): {}",
            f.seed, f.message
        ),
        Ok(_) => println!("\nWARNING: the cores=0 config unexpectedly produced a report"),
    }
    gate.check(
        contained,
        "the cores=0 config produced a report instead of a contained panic",
    );

    println!(
        "\nConcordia recovered in {concordia_recovered}/{concordia_total} fault classes \
         (post-window reliability back at the pre-fault level)"
    );

    write_json(
        "chaos_soak",
        &serde_json::json!({
            "seed": seed,
            "simulated_secs": secs,
            "load": load,
            "rows": rows,
            "worker_panic_contained": contained,
            "concordia_recovered": concordia_recovered,
            "concordia_fault_classes": concordia_total,
        }),
    );

    gate.check(
        concordia_recovered == CLASSES.len(),
        format!(
            "Concordia recovered in only {concordia_recovered}/{} fault classes",
            CLASSES.len()
        ),
    );
    gate.finish("chaos soak");
}
