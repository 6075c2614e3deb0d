//! The offline cache: experiments with the same offline inputs share one
//! Algorithm 1 pass without changing a byte. Every report equals a
//! cache-free `run_experiment` at any worker count, Algorithm 1 runs once
//! per distinct set of inputs, and a panicking experiment leaves the
//! evaluator usable.

use concordia_core::runner::ExperimentFailure;
use concordia_core::{
    run_experiment, BatchEval, Colocation, ExperimentReport, OfflinePhases, ParallelEval,
    PredictorChoice, ReconfigPlan, ReconfigStep, ScenarioSpec, SchedulerChoice, SimConfig,
};
use concordia_platform::arch::PoolArchChoice;
use concordia_platform::faults::{FaultKind, FaultPlan};
use concordia_platform::workloads::WorkloadKind;
use concordia_ran::time::Nanos;
use concordia_sched::supervisor::SupervisorConfig;

fn base() -> SimConfig {
    let mut cfg = SimConfig::paper_20mhz();
    cfg.n_cells = 2;
    cfg.cores = 3;
    cfg.duration = Nanos::from_millis(200);
    cfg.profiling_slots = 150;
    cfg.load = 0.5;
    cfg.seed = 11;
    cfg.colocation = Colocation::Isolated;
    cfg
}

fn variant(edit: impl FnOnce(&mut SimConfig)) -> SimConfig {
    let mut cfg = base();
    edit(&mut cfg);
    cfg
}

/// `base()` and configs that share its offline inputs but change every
/// other field.
fn same_inputs() -> Vec<SimConfig> {
    let mut configs = vec![
        base(),
        variant(|c| c.load = 0.9),
        variant(|c| c.n_cells = 3),
        variant(|c| c.duration = Nanos::from_millis(120)),
        variant(|c| c.colocation = Colocation::Mix),
        variant(|c| c.colocation = Colocation::Single(WorkloadKind::Redis)),
        variant(|c| c.scheduler = SchedulerChoice::FlexRan),
        variant(|c| c.supervisor = Some(SupervisorConfig::default())),
        variant(|c| c.online_updates = false),
        variant(|c| c.faults = FaultPlan::chaos(&[FaultKind::CoreOffline], c.duration)),
        variant(|c| {
            let mut plan = ReconfigPlan::new(vec![ReconfigStep::GrowPool { cores: 1 }]);
            plan.start_slot = 40;
            plan.settle_slots = 20;
            c.reconfig = Some(plan);
        }),
        variant(|c| c.pool = PoolArchChoice::Steal),
    ];
    for predictor in [
        PredictorChoice::LinearRegression,
        PredictorChoice::GradientBoosting,
        PredictorChoice::PwcetEvt,
        PredictorChoice::Oracle,
    ] {
        configs.push(variant(|c| c.predictor = predictor));
    }
    configs
}

/// One config per offline input, each differing from `base()` in that
/// input alone.
fn other_inputs() -> Vec<SimConfig> {
    vec![
        variant(|c| c.cores = 4),
        variant(|c| c.seed = 12),
        variant(|c| c.profiling_slots = 160),
        variant(|c| c.deadline_override = Some(Nanos::from_micros(1_800))),
        variant(|c| {
            c.scenario = Some(
                ScenarioSpec::parse("urban_macro_burst:period=600,platform=epyc_rome7452")
                    .expect("library scenario parses"),
            )
        }),
    ]
}

fn canonical(results: Vec<Result<ExperimentReport, ExperimentFailure>>) -> Vec<String> {
    results
        .into_iter()
        .map(|r| r.expect("experiment runs").to_canonical_json())
        .collect()
}

/// Algorithm 1 runs (one per trainable task kind) for one set of offline
/// inputs: those of `base()`, built alone.
fn per_key() -> u64 {
    let mut eval = ParallelEval::new(1);
    let _ = canonical(eval.eval_batch(vec![base()]));
    let runs = eval.offline_phases().selections;
    assert!(runs > 0, "a QDT build selects features");
    runs
}

#[test]
fn shared_selections_change_no_byte_at_any_worker_count() {
    let mut configs = same_inputs();
    configs.extend(other_inputs());
    let direct: Vec<String> = configs
        .iter()
        .map(|c| run_experiment(c.clone()).to_canonical_json())
        .collect();
    let once = per_key();
    for jobs in [1, 4] {
        let mut eval = ParallelEval::new(jobs);
        let got = canonical(eval.eval_batch(configs.clone()));
        for (i, (got, want)) in got.iter().zip(&direct).enumerate() {
            assert!(
                got == want,
                "config #{i} differs from run_experiment at {jobs} workers"
            );
        }
        // Every config of the shared inputs reuses one set of
        // selections, and each changed input selects once more.
        assert_eq!(
            eval.offline_phases(),
            OfflinePhases {
                profiles: configs.len() as u64,
                selections: (1 + other_inputs().len() as u64) * once,
            },
            "at {jobs} workers"
        );
    }
}

#[test]
fn eight_configs_of_one_key_select_once_on_four_workers() {
    let once = per_key();
    let configs: Vec<SimConfig> = (0..8)
        .map(|i| variant(|c| c.load = 0.3 + 0.05 * i as f64))
        .collect();
    let mut eval = ParallelEval::new(4);
    let first = canonical(eval.eval_batch(configs.clone()));
    assert_eq!(
        eval.offline_phases(),
        OfflinePhases {
            profiles: 8,
            selections: once
        }
    );
    // The cache lives as long as the evaluator: a later batch of the same
    // inputs selects nothing new and reproduces every byte.
    assert_eq!(canonical(eval.eval_batch(configs)), first);
    assert_eq!(eval.offline_phases().selections, once);

    // Distinct inputs select once each, however many configs share them.
    let mut eval = ParallelEval::new(4);
    let keyed: Vec<SimConfig> = (0..8).map(|i| variant(|c| c.seed = 100 + i % 2)).collect();
    let _ = canonical(eval.eval_batch(keyed));
    assert_eq!(eval.offline_phases().selections, 2 * once);
}

#[test]
fn a_panicking_config_leaves_the_evaluator_usable() {
    let mut eval = ParallelEval::new(2);
    let broken = variant(|c| c.cores = 0);
    let results = eval.eval_batch(vec![base(), broken]);
    assert!(results[0].is_ok());
    assert!(results[1].is_err(), "cores = 0 must fail");
    let selected = eval.offline_phases().selections;
    let next = canonical(eval.eval_batch(vec![variant(|c| c.load = 0.7)]));
    assert_eq!(
        next[0],
        run_experiment(variant(|c| c.load = 0.7)).to_canonical_json()
    );
    assert_eq!(eval.offline_phases().selections, selected);
}
