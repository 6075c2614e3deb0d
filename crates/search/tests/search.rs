//! End-to-end properties of the adversarial search:
//!
//! * shrink soundness — every reported-minimal counterexample still fails
//!   its oracle, and its artifact replays to byte-identical report
//!   fingerprints (proptest over search seeds, stub evaluator);
//! * jobs-invariance and replay byte-reproduction against the *real*
//!   simulator on a small configuration.

use concordia_core::config::SimConfig;
use concordia_core::report::ExperimentReport;
use concordia_core::runner::{BatchEval, ExperimentFailure, ParallelEval};
use concordia_platform::faults::{FaultKind, FaultPlan, FaultSpec};
use concordia_platform::metrics::{CellCounters, MetricsSummary};
use concordia_ran::time::Nanos;
use concordia_search::oracle::evaluate_scenarios;
use concordia_search::{
    corpus_json, parse_corpus, replay, run_search, Oracle, ReproArtifact, Scenario, SearchSettings,
    SearchSpace, Strategy,
};
use proptest::prelude::*;

/// Stub evaluator: fails the SLA exactly when the configuration carries a
/// `StormAmplification` window with severity above 1.0. Deterministic in
/// the configs alone, like any compliant [`BatchEval`].
struct StormStub {
    evaluations: u64,
}

impl StormStub {
    fn new() -> Self {
        StormStub { evaluations: 0 }
    }

    fn synthesize(cfg: &SimConfig) -> ExperimentReport {
        let storm = cfg
            .faults
            .specs
            .iter()
            .any(|s| s.kind == FaultKind::StormAmplification && s.max_severity > 1.0);
        let reliability = if storm { 0.99 } else { 1.0 };
        ExperimentReport {
            scheduler: cfg.scheduler.name().to_string(),
            predictor: cfg.predictor.name().to_string(),
            colocation: cfg.colocation.name().to_string(),
            n_cells: cfg.n_cells,
            cores: cfg.cores,
            load: cfg.load,
            deadline_us: cfg.deadline().as_micros_f64(),
            duration_s: cfg.duration.as_millis_f64() / 1000.0,
            seed: cfg.seed,
            peak_guard_inflation: 1.0,
            metrics: MetricsSummary {
                dags: 1000,
                violations: if storm { 10 } else { 0 },
                reliability,
                mean_latency_us: 100.0,
                p9999_latency_us: None,
                p99999_latency_us: None,
                reclaimed_fraction: 0.0,
                pool_utilization: 0.5,
                wake_events: 0,
                wake_tail_events: 0,
                evictions: 0,
                stall_cycles_pct: 0.0,
                tasks_executed: 1000,
                cores_failed: 0,
                offload_fallbacks: 0,
                tasks_requeued: 0,
                vran_busy_ms: 100.0,
                wake_hist_counts: Vec::new(),
                per_cell: vec![CellCounters {
                    injected: 500,
                    completed: 500,
                    violations: if storm { 10 } else { 0 },
                }],
            },
            workload: None,
            fault: None,
            supervisor: None,
            trace: None,
            reconfig: None,
            scenario: None,
        }
    }
}

impl BatchEval for StormStub {
    fn eval_batch(
        &mut self,
        configs: Vec<SimConfig>,
    ) -> Vec<Result<ExperimentReport, ExperimentFailure>> {
        self.evaluations += configs.len() as u64;
        configs.iter().map(|c| Ok(Self::synthesize(c))).collect()
    }

    fn evaluations(&self) -> u64 {
        self.evaluations
    }
}

fn sla() -> Oracle {
    Oracle::Sla {
        min_reliability: 0.99999,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shrink soundness: whatever a random-seeded search reports as
    /// minimal (a) still fails the oracle when re-evaluated from scratch,
    /// (b) was reached through strictly decreasing sizes, and (c) replays
    /// from its JSON artifact to byte-identical report fingerprints.
    #[test]
    fn minimal_counterexamples_still_fail_and_replay_identically(
        seed in 0u64..10_000,
        budget in 16u64..120,
    ) {
        let base = SimConfig::paper_20mhz();
        let space = SearchSpace::around(&base);
        let settings = SearchSettings {
            seed,
            budget,
            shrink_budget: 200,
            max_counterexamples: 2,
            corpus: Vec::new(),
        };
        let mut eval = StormStub::new();
        let report = run_search(
            &base,
            &space,
            &sla(),
            Strategy::Random { batch: 8 },
            &settings,
            &mut eval,
        );
        for ce in &report.counterexamples {
            // (a) minimal still fails on a fresh evaluator.
            let outcome = evaluate_scenarios(
                &base,
                &sla(),
                std::slice::from_ref(&ce.minimal),
                &mut StormStub::new(),
            )
            .remove(0);
            prop_assert!(outcome.verdict.failed, "reported minimal passes");
            // Never grew, and every accepted step strictly shrank.
            prop_assert!(ce.minimal_size <= ce.found_size);
            let mut last = ce.found_size;
            for step in &ce.shrink_trace {
                prop_assert!(step.size < last, "round {} did not shrink", step.round);
                last = step.size;
            }
            // (c) the artifact round-trips and replays byte-identically.
            let json = ce.artifact.to_canonical_json();
            let back = ReproArtifact::from_json(&json).expect("own artifact is valid");
            prop_assert_eq!(&json, &back.to_canonical_json());
            let outcome = replay(&back, &mut StormStub::new());
            prop_assert!(outcome.verdict.failed);
            prop_assert!(
                outcome.reproduced,
                "fingerprint drifted: {} vs {}",
                outcome.fingerprint,
                back.fingerprint
            );
        }
    }

    /// The search report is a pure function of (config, strategy, seed):
    /// two runs with the same inputs serialize byte-identically.
    #[test]
    fn search_bytes_are_a_pure_function_of_the_seed(seed in 0u64..10_000) {
        let base = SimConfig::paper_20mhz();
        let space = SearchSpace::around(&base);
        let settings = SearchSettings {
            seed,
            budget: 48,
            shrink_budget: 120,
            max_counterexamples: 1,
            corpus: Vec::new(),
        };
        let run = || {
            let mut eval = StormStub::new();
            run_search(
                &base,
                &space,
                &sla(),
                Strategy::Random { batch: 8 },
                &settings,
                &mut eval,
            )
            .to_canonical_json()
        };
        prop_assert_eq!(run(), run());
    }
}

/// Corpus persistence: survivors of one search, round-tripped through the
/// corpus JSON (what `--corpus` writes and reads), let the next run
/// rediscover the same minimal counterexample from its planted probes
/// alone — no search-phase budget needed.
#[test]
fn corpus_survivors_seed_the_next_search() {
    let base = SimConfig::paper_20mhz();
    let space = SearchSpace::around(&base);
    let first = run_search(
        &base,
        &space,
        &sla(),
        Strategy::Random { batch: 8 },
        &SearchSettings {
            seed: 7,
            budget: 64,
            shrink_budget: 200,
            max_counterexamples: 1,
            corpus: Vec::new(),
        },
        &mut StormStub::new(),
    );
    assert!(
        !first.counterexamples.is_empty(),
        "the stub space must yield a counterexample"
    );
    let survivors: Vec<Scenario> = first
        .counterexamples
        .iter()
        .map(|ce| ce.minimal.clone())
        .collect();
    let corpus = parse_corpus(&corpus_json(&survivors)).expect("own corpus is valid");
    assert_eq!(corpus, survivors);

    // Second run: the corpus probe alone must rediscover the failure even
    // with a budget too small for a fresh search to find anything.
    let second = run_search(
        &base,
        &space,
        &sla(),
        Strategy::Random { batch: 8 },
        &SearchSettings {
            seed: 99, // different seed: the rediscovery must not depend on luck
            budget: 1,
            shrink_budget: 200,
            max_counterexamples: 1,
            corpus,
        },
        &mut StormStub::new(),
    );
    assert!(
        !second.counterexamples.is_empty(),
        "corpus probe did not rediscover the counterexample"
    );
    assert_eq!(
        second.counterexamples[0].found, first.counterexamples[0].minimal,
        "the planted probe is the previous run's minimal scenario"
    );
}

/// A small real-simulator configuration (debug builds run this in tier-1
/// tests, so keep it tiny).
fn tiny_base() -> SimConfig {
    let mut cfg = SimConfig::paper_20mhz();
    cfg.n_cells = 1;
    cfg.duration = Nanos::from_millis(120);
    cfg.profiling_slots = 80;
    cfg.load = 0.5;
    cfg
}

fn tiny_scenario() -> Scenario {
    Scenario {
        load: 0.5,
        n_cells: 1,
        cores: 6,
        duration: Nanos::from_millis(120),
        faults: FaultPlan {
            specs: vec![FaultSpec::fixed(
                FaultKind::CoreOffline,
                Nanos::from_millis(40),
                Nanos::from_millis(40),
                0.25,
            )],
        },
        reconfig: None,
        workload: None,
    }
}

#[test]
fn real_simulator_outcomes_are_jobs_invariant() {
    let base = tiny_base();
    let scenarios = vec![tiny_scenario(), SearchSpace::around(&base).baseline()];
    let mut one = ParallelEval::new(1);
    let mut many = ParallelEval::new(8);
    let a = evaluate_scenarios(&base, &sla(), &scenarios, &mut one);
    let b = evaluate_scenarios(&base, &sla(), &scenarios, &mut many);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.fingerprint, y.fingerprint, "outcome depends on --jobs");
        assert_eq!(x.verdict, y.verdict);
    }
}

#[test]
fn real_simulator_replay_reproduces_recorded_fingerprints() {
    let base = tiny_base();
    let oracle = sla();
    let scenario = tiny_scenario();
    let recorded = evaluate_scenarios(
        &base,
        &oracle,
        std::slice::from_ref(&scenario),
        &mut ParallelEval::new(4),
    )
    .remove(0);
    let artifact = ReproArtifact::new(
        oracle,
        base,
        scenario,
        recorded.verdict.detail.clone(),
        recorded.fingerprint.clone(),
    );
    // Round-trip through JSON (what `--replay` does), then re-run.
    let back = ReproArtifact::from_json(&artifact.to_canonical_json()).expect("valid");
    let outcome = replay(&back, &mut ParallelEval::new(1));
    assert!(
        outcome.reproduced,
        "replay drifted: {} vs {}",
        outcome.fingerprint, back.fingerprint
    );
}

/// Artifact JSON field names are a public format: repro artifacts written
/// by one build must load in the next. Pin the key set.
#[test]
fn artifact_format_keys_are_stable() {
    let base = tiny_base();
    let artifact = ReproArtifact::new(
        sla(),
        base,
        tiny_scenario(),
        "detail".into(),
        "0123456789abcdef".into(),
    );
    let json = artifact.to_canonical_json();
    for key in [
        "\"format_version\"",
        "\"oracle\"",
        "\"base\"",
        "\"scenario\"",
        "\"detail\"",
        "\"fingerprint\"",
        "\"Sla\"",
        "\"min_reliability\"",
        "\"load\"",
        "\"n_cells\"",
        "\"cores\"",
        "\"duration\"",
        "\"faults\"",
        "\"reconfig\"",
        "\"specs\"",
        "\"kind\"",
        "\"earliest_start\"",
        "\"latest_start\"",
        "\"min_duration\"",
        "\"max_duration\"",
        "\"min_severity\"",
        "\"max_severity\"",
    ] {
        assert!(json.contains(key), "artifact JSON lost key {key}");
    }
}
