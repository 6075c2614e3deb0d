//! Adversarial-search soak — the end-to-end demonstration of the
//! counterexample pipeline (find → shrink → replay), plus the negative
//! control and the determinism gate.
//!
//! Four properties are demonstrated:
//!
//! * **find** — a planted kernel-storm + core-loss schedule against a
//!   4-cell 100 MHz deployment on 6 cores breaks the 99.999 % SLA, and
//!   the search (seeded with the planted scenario as its corpus) reports
//!   it as a counterexample;
//! * **shrink** — the planted 2-window, 400 ms scenario is shrunk to a
//!   strictly smaller minimal counterexample: fewer fault windows *and*
//!   a shorter run (the storm window is a red herring — the core loss
//!   alone already sinks the SLA at half the duration);
//! * **replay** — the minimal counterexample's repro artifact, round-
//!   tripped through JSON exactly as `concordia --replay` does, re-runs
//!   to byte-identical failing reports (fingerprint match);
//! * **determinism** — the whole SearchReport is a pure function of
//!   `(config, strategy, seed)`: `--jobs 1` and `--jobs 8` produce
//!   byte-identical JSON (checked in-process here; CI also runs the
//!   binary twice and diffs the soak JSON). Eight workers outnumber the
//!   offline-input keys, so several wait on one shared feature selection;
//!
//! and one negative control: the same search against a generously
//! provisioned 20 MHz deployment finds nothing.
//!
//! The soak JSON also counts the offline phases the evaluators ran
//! (profiles and Algorithm 1 passes), which pins the sharing of feature
//! selections. The soak exits 1 when any property fails.
//!
//! Example:
//! `cargo run -p concordia-bench --release --bin search_soak -- --quick`

use concordia_bench::{banner, jobs_from_args, seed_from_args, write_json, Gate, RunLength};
use concordia_core::runner::ParallelEval;
use concordia_core::SimConfig;
use concordia_platform::faults::{FaultKind, FaultPlan, FaultSpec};
use concordia_ran::Nanos;
use concordia_search::{
    replay, run_search, Oracle, ReproArtifact, Scenario, SearchReport, SearchSettings, SearchSpace,
    Strategy,
};

/// The overloaded deployment the planted counterexample breaks: 4 TDD
/// 100 MHz cells on 6 cores at full load. Clean runs pass; the planted
/// fault schedule does not.
fn planted_base(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_100mhz();
    cfg.n_cells = 4;
    cfg.cores = 6;
    cfg.load = 1.0;
    cfg.duration = Nanos::from_millis(400);
    cfg.profiling_slots = 300;
    cfg.seed = seed;
    cfg
}

/// The planted schedule: a 3x kernel-interference storm overlapping a
/// half-pool core loss. Two windows, full 400 ms run.
fn planted_scenario(base: &SimConfig) -> Scenario {
    Scenario {
        load: base.load,
        n_cells: base.n_cells,
        cores: base.cores,
        duration: base.duration,
        faults: FaultPlan {
            specs: vec![
                FaultSpec::fixed(
                    FaultKind::StormAmplification,
                    Nanos::from_millis(120),
                    Nanos::from_millis(120),
                    3.0,
                ),
                FaultSpec::fixed(
                    FaultKind::CoreOffline,
                    Nanos::from_millis(150),
                    Nanos::from_millis(100),
                    0.5,
                ),
            ],
        },
        reconfig: None,
        workload: None,
    }
}

fn sla() -> Oracle {
    Oracle::Sla {
        min_reliability: 0.99999,
    }
}

fn run_planted(
    base: &SimConfig,
    settings: &SearchSettings,
    eval: &mut ParallelEval,
) -> SearchReport {
    let space = SearchSpace::around(base);
    run_search(
        base,
        &space,
        &sla(),
        Strategy::Random { batch: 4 },
        settings,
        eval,
    )
}

fn main() {
    let len = RunLength::from_args();
    let seed = seed_from_args();
    let jobs = jobs_from_args();
    banner(
        "Adversarial search soak (find -> shrink -> replay)",
        "a planted storm+core-loss schedule breaking the SLA is found, shrunk \
         to a strictly smaller minimal counterexample, and replays \
         byte-identically for any --jobs",
    );

    // The planted scenario's physics are pinned (400 ms at C=4 on 6
    // cores), so run length scales only the negative control's budget.
    let clean_budget = match len {
        RunLength::Quick => 6,
        RunLength::Standard => 12,
        RunLength::Long => 24,
    };

    let base = planted_base(seed);
    let planted = planted_scenario(&base);
    let settings = SearchSettings {
        seed,
        budget: 8,
        shrink_budget: 64,
        max_counterexamples: 1,
        corpus: vec![planted.clone()],
    };
    println!(
        "\nplanted: {} cells x {} cores (100 MHz), seed {seed}, {jobs} jobs",
        base.n_cells, base.cores
    );
    println!("  scenario: {}", planted.one_liner());

    let mut gate = Gate::default();

    // ---- 1+2. Find and shrink the planted counterexample. ------------
    // The search, its shrinks and the replay share one evaluator, and so
    // one Algorithm 1 pass per set of offline inputs.
    let mut eval = ParallelEval::new(jobs);
    let report = run_planted(&base, &settings, &mut eval);
    println!("\n{}", report.one_liner());
    let ce = match report.counterexamples.first() {
        Some(ce) => {
            println!("  found:   {} ({})", ce.found.one_liner(), ce.found_detail);
            println!(
                "  minimal: {} ({})",
                ce.minimal.one_liner(),
                ce.minimal_detail
            );
            for step in &ce.shrink_trace {
                println!("    round {}: {}", step.round, step.action);
            }
            gate.check(
                ce.found == planted,
                "the counterexample is not the planted scenario",
            );
            let planted_windows = planted.faults.specs.len();
            gate.check(
                ce.minimal.faults.specs.len() < planted_windows,
                format!("shrink kept all {planted_windows} fault windows (wanted strictly fewer)"),
            );
            gate.check(
                ce.minimal.duration < planted.duration,
                format!(
                    "shrink kept the full {:.0} ms run (wanted strictly shorter)",
                    planted.duration.as_millis_f64()
                ),
            );
            gate.check(
                ce.minimal_size < ce.found_size,
                "minimal counterexample is not smaller than the found one",
            );
            Some(ce.clone())
        }
        None => {
            gate.check(false, "the planted counterexample was not found");
            None
        }
    };

    // ---- 3. Replay the artifact exactly as the CLI does. -------------
    let replay_outcome = ce.as_ref().map(|ce| {
        let json = ce.artifact.to_canonical_json();
        let artifact = ReproArtifact::from_json(&json).expect("own artifact is valid");
        let outcome = replay(&artifact, &mut eval);
        println!(
            "\nreplay: failed {} | reproduced {} | fingerprint {}",
            outcome.verdict.failed, outcome.reproduced, outcome.fingerprint
        );
        gate.check(
            outcome.verdict.failed,
            "replayed minimal counterexample no longer fails",
        );
        gate.check(
            outcome.reproduced,
            "replay did not reproduce the recorded fingerprint",
        );
        outcome
    });

    // ---- 4. Jobs-invariance: the report is byte-identical at 1 worker.
    let mut single_eval = ParallelEval::new(1);
    let single = run_planted(&base, &settings, &mut single_eval);
    let jobs_match = single.to_canonical_json() == report.to_canonical_json();
    println!(
        "determinism: --jobs 1 vs --jobs {jobs} report bytes {}",
        if jobs_match { "IDENTICAL" } else { "DIFFER" }
    );
    gate.check(
        jobs_match,
        format!("report bytes differ between --jobs 1 and --jobs {jobs}"),
    );

    // ---- 5. Negative control: a slack deployment yields nothing. -----
    let mut clean = SimConfig::paper_20mhz();
    clean.n_cells = 2;
    clean.cores = 8;
    clean.load = 0.5;
    clean.duration = Nanos::from_millis(300);
    clean.profiling_slots = 200;
    clean.seed = seed;
    let clean_settings = SearchSettings {
        seed,
        budget: clean_budget,
        shrink_budget: 32,
        max_counterexamples: 1,
        corpus: Vec::new(),
    };
    let mut clean_eval = ParallelEval::new(jobs);
    let clean_report = run_search(
        &clean,
        &SearchSpace::around(&clean),
        &sla(),
        Strategy::Random { batch: 4 },
        &clean_settings,
        &mut clean_eval,
    );
    println!("\nnegative control: {}", clean_report.one_liner());
    gate.check(
        !clean_report.found(),
        format!(
            "clean config produced a counterexample: {}",
            clean_report.one_liner()
        ),
    );

    // Deterministic soak JSON: a pure function of the seed and the
    // scenario — CI byte-compares a --jobs 1 and a --jobs 8 run.
    write_json(
        "search_soak",
        &serde_json::json!({
            "seed": seed,
            "planted": planted,
            "report": report,
            "replay": replay_outcome,
            "jobs_match": jobs_match,
            "clean": clean_report,
            "failures": gate.failures(),
            "offline": eval.offline_phases() + single_eval.offline_phases() + clean_eval.offline_phases(),
        }),
    );
    gate.finish("search soak");
}
