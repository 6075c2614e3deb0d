//! `concordia` — command-line front end for the Concordia reproduction.
//!
//! Runs one end-to-end experiment (offline profiling → predictor training →
//! online scheduling with colocation) and prints a human summary plus,
//! optionally, the full JSON report.
//!
//! ```text
//! concordia [--config 20mhz|100mhz|lte] [--cells N] [--cores N]
//!           [--scheduler concordia|flexran|shenango:<us>|utilization:<hi>|dedicated]
//!           [--predictor qdt|linreg|gbt|pwcet|oracle]
//!           [--colocate isolated|redis|nginx|tpcc|mlperf|mix]
//!           [--load 0.0-1.0] [--secs N] [--seed N]
//!           [--deadline-us N] [--fpga] [--mac] [--peak]
//!           [--faults core_offline,accel_outage,...] [--json <path>]
//!           [--reconfig <plan.json>]
//! ```

use concordia_core::runner::{run_sweep, ParallelEval};
use concordia_core::{SimConfig, Simulation};
use concordia_platform::trace::export_chrome_trace;
use concordia_ran::CellConfig;
use concordia_search::{replay, run_search, ReproArtifact, SearchSettings, SearchSpace};
use std::process::ExitCode;

mod args;
use args::{parse, Cli, CliError, SearchArgs};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", args::USAGE);
        return ExitCode::SUCCESS;
    }
    let Cli {
        cfg,
        json: json_path,
        trace: trace_path,
        repeat,
        jobs,
        search,
        replay: replay_path,
    } = match parse(&argv) {
        Ok(v) => v,
        Err(CliError(msg)) => {
            eprintln!("error: {msg}\n");
            eprint!("{}", args::USAGE);
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = replay_path {
        return run_replay_cli(&path, jobs);
    }
    if let Some(search) = search {
        return run_search_cli(cfg, search, jobs, json_path);
    }
    if repeat > 1 {
        return run_sweep_cli(cfg, repeat, jobs, json_path);
    }

    eprintln!(
        "running: {} cells x {} ({}MHz), {} cores, scheduler={}, predictor={}, \
         colocation={}, load={:.0}%, {}s online...",
        cfg.n_cells,
        cfg.cell.generation_name(),
        cfg.cell.bandwidth_mhz,
        cfg.cores,
        cfg.scheduler.name(),
        cfg.predictor.name(),
        cfg.colocation.name(),
        cfg.load * 100.0,
        cfg.duration.as_nanos() / 1_000_000_000
    );
    if let Some(s) = &cfg.scenario {
        eprintln!("  scenario: {}", s.one_liner());
    }

    let (report, recorder) = Simulation::new(cfg).run_traced();
    let quant = |v: Option<f64>| match v {
        Some(v) => format!("{v:.0}us"),
        None => "n/a".to_string(),
    };
    println!("{}", report.one_liner());
    println!(
        "  deadline {}us | mean {:.0}us | p99.99 {} | p99.999 {}",
        report.deadline_us,
        report.metrics.mean_latency_us,
        quant(report.metrics.p9999_latency_us),
        quant(report.metrics.p99999_latency_us)
    );
    println!(
        "  reclaimed {:.1}% | pool util {:.1}% | wakes {} | stall +{:.1}%",
        report.metrics.reclaimed_fraction * 100.0,
        report.metrics.pool_utilization * 100.0,
        report.metrics.wake_events,
        report.metrics.stall_cycles_pct
    );
    if let Some(w) = &report.workload {
        println!(
            "  {}: {:.0} {} ({:.1}% of a dedicated server)",
            w.kind,
            w.achieved_ops_per_sec,
            w.unit,
            w.fraction_of_ideal * 100.0
        );
    }
    if let Some(fault) = &report.fault {
        for w in &fault.windows {
            println!(
                "  fault {} {:.0}-{:.0}us sev {:.2} | rel pre/during/post \
                 {:.6}/{:.6}/{:.6} | recovery {:.0}us ({})",
                w.kind,
                w.start_us,
                w.end_us,
                w.severity,
                w.reliability_before,
                w.reliability_during,
                w.reliability_after,
                w.recovery_us,
                if w.recovered() {
                    "recovered"
                } else {
                    "NOT recovered"
                }
            );
        }
    }
    if let Some(sup) = &report.supervisor {
        println!(
            "  supervisor: {} windows | drift {} | quarantine {} | retrain {} | \
             shadow-reject {} | readmit {} | swaps {}",
            sup.windows,
            sup.drift_detections,
            sup.quarantines,
            sup.retrains,
            sup.shadow_rejections,
            sup.readmissions,
            sup.swaps
        );
        println!(
            "  admission: shed {} windows | rejected {} DAGs | lanes on fallback {}{}",
            sup.shed_windows,
            sup.rejected_dags,
            sup.lanes_on_fallback,
            match sup.windows_to_readmission {
                Some(w) => format!(" | readmitted after {w} windows"),
                None => String::new(),
            }
        );
    }
    if let Some(rc) = &report.reconfig {
        println!(
            "  reconfig: {}/{} steps committed | rollbacks {} | checks {} | \
             final {} cells x {} cores{}",
            rc.committed_steps,
            rc.steps.len(),
            rc.rollbacks,
            rc.invariant_checks,
            rc.final_cells,
            rc.final_cores,
            if rc.feasible {
                ""
            } else {
                " | PLAN INFEASIBLE"
            }
        );
        for s in rc.steps.iter().filter(|s| !s.committed) {
            println!(
                "    step {} NOT committed after {} attempts{}",
                s.step,
                s.attempts,
                match &s.violation {
                    Some(v) => format!(": {v}"),
                    None => String::new(),
                }
            );
        }
    }
    if !report.five_nines() {
        println!("  WARNING: below 99.999% reliability");
    }

    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&report).expect("serializable report");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("report written to {path}");
    }
    if let Some(path) = trace_path {
        let Some(rec) = recorder else {
            eprintln!("error: --trace path given but tracing was not enabled");
            return ExitCode::FAILURE;
        };
        let json = serde_json::to_string(&export_chrome_trace(&rec)).expect("serializable trace");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        let s = rec.summary();
        eprintln!(
            "trace written to {path} ({} events, {} dropped, {} snapshots) — \
             open in https://ui.perfetto.dev or chrome://tracing",
            s.events_recorded, s.events_dropped, s.snapshots
        );
    }
    ExitCode::SUCCESS
}

/// `--repeat N`: run an N-run seed sweep through the parallel runner and
/// print one line per run. The sweep report is a pure function of the base
/// configuration and the master seed — `--jobs` never changes a byte.
fn run_sweep_cli(
    cfg: SimConfig,
    repeat: usize,
    jobs: usize,
    json_path: Option<String>,
) -> ExitCode {
    let master = cfg.seed;
    eprintln!(
        "sweep: {repeat} runs x {} cells ({} cores), master seed {master}, {jobs} jobs...",
        cfg.n_cells, cfg.cores
    );
    let sweep = run_sweep(
        &cfg,
        master,
        repeat,
        jobs,
        Some(Box::new(|done, total| {
            eprintln!("  run {done}/{total} complete");
        })),
    );
    for run in &sweep.runs {
        println!("{}", run.one_liner());
    }
    let below: Vec<u64> = sweep
        .runs
        .iter()
        .filter(|r| !r.five_nines())
        .map(|r| r.seed)
        .collect();
    if !below.is_empty() {
        println!(
            "  WARNING: {} of {} runs below 99.999% reliability (seeds {:?})",
            below.len(),
            sweep.runs.len(),
            below
        );
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, sweep.to_canonical_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("sweep report written to {path}");
    }
    ExitCode::SUCCESS
}

/// `--search STRAT`: adversarial scenario search around the configured
/// experiment. The report is a pure function of (config, strategy, seed);
/// `--jobs` only changes wall-clock.
fn run_search_cli(
    cfg: SimConfig,
    search: SearchArgs,
    jobs: usize,
    json_path: Option<String>,
) -> ExitCode {
    let space = SearchSpace::around(&cfg);
    // A corpus file plants last run's survivors as the first probes; a
    // missing file just means this is the first run of the loop.
    let corpus = match &search.corpus_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => match concordia_search::parse_corpus(&text) {
                Ok(scenarios) => {
                    eprintln!(
                        "corpus: seeding {} scenario(s) from {path}",
                        scenarios.len()
                    );
                    scenarios
                }
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                eprintln!("corpus: {path} not found; starting empty");
                Vec::new()
            }
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Vec::new(),
    };
    let settings = SearchSettings {
        seed: cfg.seed,
        budget: search.budget,
        shrink_budget: search.shrink_budget,
        corpus,
        ..SearchSettings::default()
    };
    eprintln!(
        "search: {} over {} cells x {} cores (oracle {}, budget {}, seed {}, {jobs} jobs)...",
        search.strategy.name(),
        cfg.n_cells,
        cfg.cores,
        search.oracle.name(),
        search.budget,
        cfg.seed
    );
    let mut eval = ParallelEval::new(jobs);
    let report = run_search(
        &cfg,
        &space,
        &search.oracle,
        search.strategy,
        &settings,
        &mut eval,
    );
    println!("{}", report.one_liner());
    let offline = eval.offline_phases();
    println!(
        "  offline: {} profiles, {} per-kind Algorithm 1 selections",
        offline.profiles, offline.selections
    );
    for (i, ce) in report.counterexamples.iter().enumerate() {
        println!(
            "  ce #{i}: found {} -> minimal {} after {} shrink rounds ({} runs)",
            ce.found.one_liner(),
            ce.minimal.one_liner(),
            ce.shrink_trace.len(),
            ce.shrink_evaluations
        );
    }
    if let Some(path) = &search.ce_path {
        match report.counterexamples.first() {
            Some(ce) => {
                if let Err(e) = std::fs::write(path, ce.artifact.to_canonical_json()) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("repro artifact written to {path} (re-run: concordia --replay {path})");
            }
            None => eprintln!("no counterexample found; {path} not written"),
        }
    }
    if let Some(path) = &search.corpus_path {
        let survivors: Vec<_> = report
            .counterexamples
            .iter()
            .map(|ce| ce.minimal.clone())
            .collect();
        if let Err(e) = std::fs::write(path, concordia_search::corpus_json(&survivors)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "corpus: {} surviving scenario(s) written to {path}",
            survivors.len()
        );
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report.to_canonical_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("search report written to {path}");
    }
    ExitCode::SUCCESS
}

/// `--replay PATH`: re-run a repro artifact. Exit codes are a contract
/// (documented in `--help`): 0 = the violation no longer reproduces,
/// 1 = confirmed, 2 = the artifact is invalid.
fn run_replay_cli(path: &str, jobs: usize) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let artifact = match ReproArtifact::from_json(&text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "replay: {} under oracle {} (recorded: {})...",
        artifact.scenario.one_liner(),
        artifact.oracle.name(),
        artifact.detail
    );
    let outcome = replay(&artifact, &mut ParallelEval::new(jobs));
    if outcome.verdict.failed {
        println!(
            "VIOLATION CONFIRMED: {} ({})",
            outcome.verdict.detail,
            if outcome.reproduced {
                "byte-identical to the recorded run"
            } else {
                "still failing, but the reports drifted from the recording"
            }
        );
        ExitCode::FAILURE
    } else {
        println!(
            "not reproduced: the scenario now passes ({})",
            outcome.verdict.detail
        );
        ExitCode::SUCCESS
    }
}

/// Small extension used by the banner above.
trait GenerationName {
    fn generation_name(&self) -> &'static str;
}
impl GenerationName for CellConfig {
    fn generation_name(&self) -> &'static str {
        match self.generation {
            concordia_ran::RanGeneration::Lte => "LTE",
            concordia_ran::RanGeneration::Nr => "5G NR",
        }
    }
}
