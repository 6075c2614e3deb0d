//! Parallel experiment runner.
//!
//! The per-figure harnesses sweep dozens of independent experiment
//! configurations; each simulation is single-threaded and deterministic, so
//! they parallelize perfectly across cores. Workers claim configurations
//! from a shared atomic cursor and store outcomes by input index, so the
//! results come back in input order. Each call (and each [`ParallelEval`])
//! builds its simulations through one [`OfflineCache`], so experiments
//! with the same offline inputs run Algorithm 1 once between them.
//!
//! Every experiment runs under [`std::panic::catch_unwind`]: one faulty
//! configuration (or a bug tripped by a fault-injection scenario) yields an
//! [`ExperimentFailure`] for that slot instead of aborting the whole sweep.
//! [`run_parallel_results`] surfaces the per-experiment outcomes;
//! [`run_parallel`] keeps the infallible signature and panics with the full
//! failure list only if at least one experiment failed.

use crate::config::SimConfig;
use crate::profile::{OfflineCache, OfflinePhases};
use crate::report::ExperimentReport;
use crate::sim::Simulation;
use concordia_stats::chacha;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Progress observer: called with (completed, total) after each experiment.
pub type ProgressFn = Box<dyn Fn(usize, usize) + Send + Sync>;

/// One experiment that panicked instead of producing a report.
#[derive(Debug, Clone)]
pub struct ExperimentFailure {
    /// Position of the configuration in the input vector.
    pub index: usize,
    /// Seed of the failed configuration (for reproducing it alone).
    pub seed: u64,
    /// The panic message.
    pub message: String,
}

impl fmt::Display for ExperimentFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "experiment #{} (seed {}) panicked: {}",
            self.index, self.seed, self.message
        )
    }
}

/// Runs every configuration, in parallel across up to `workers` threads,
/// returning per-experiment outcomes in the same order as the inputs.
///
/// Each experiment is still internally deterministic (seeded), so the
/// result is identical to running them sequentially. A panicking
/// experiment produces `Err(ExperimentFailure)` in its slot; the others
/// are unaffected. The experiments share one [`OfflineCache`] for the
/// call.
pub fn run_parallel_results(
    configs: Vec<SimConfig>,
    workers: usize,
) -> Vec<Result<ExperimentReport, ExperimentFailure>> {
    run_cached(configs, workers, None, &OfflineCache::new())
}

/// The parallel runner, building every simulation through `cache`.
fn run_cached(
    configs: Vec<SimConfig>,
    workers: usize,
    progress: Option<&ProgressFn>,
    cache: &OfflineCache,
) -> Vec<Result<ExperimentReport, ExperimentFailure>> {
    let total = configs.len();
    let done = AtomicUsize::new(0);
    par_map(total, workers, |idx| {
        let cfg = configs[idx].clone();
        let seed = cfg.seed;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Simulation::with_cache(cfg, cache).run()
        }))
        .map_err(|payload| ExperimentFailure {
            index: idx,
            seed,
            message: panic_message(payload),
        });
        let completed = done.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(p) = progress {
            p(completed, total);
        }
        outcome
    })
}

/// Calls `f` on every index in `0..n` from up to `workers` scoped threads
/// (at least one when `n > 0`), which claim the indices from a shared
/// cursor, and returns the results in index order. A panic in `f` ends
/// the scope with a generic message, so a caller that must keep the
/// payload, or the other results, catches it inside `f`.
pub(crate) fn par_map<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1).min(n) {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = results.get(idx) else { break };
                let result = f(idx);
                *slot.lock().expect("a result slot is locked only to store") = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a result slot is locked only to store")
                .expect("the cursor hands out every index once")
        })
        .collect()
}

/// Batch evaluation hook: anything that can turn a batch of experiment
/// configurations into per-slot outcomes, in input order.
///
/// The adversarial scenario search drives *all* of its simulator runs
/// through this trait, which buys two things: a single place to count the
/// evaluation budget, and substitutability — tests stub it with canned
/// reports to exercise search/shrink logic without paying for real
/// simulations. The production implementation is [`ParallelEval`].
pub trait BatchEval {
    /// Evaluates every configuration, returning outcomes in input order.
    /// Implementations must be deterministic functions of the configs —
    /// never of thread count or timing.
    fn eval_batch(
        &mut self,
        configs: Vec<SimConfig>,
    ) -> Vec<Result<ExperimentReport, ExperimentFailure>>;

    /// Total configurations evaluated through this hook so far.
    fn evaluations(&self) -> u64;
}

/// The production [`BatchEval`]: evaluates batches on the parallel
/// runner, so outcomes are in input order and byte-independent of the
/// worker count. One [`OfflineCache`] serves every batch of its lifetime,
/// so a search, its shrinks and its replays select features once per
/// set of offline inputs.
#[derive(Debug)]
pub struct ParallelEval {
    jobs: usize,
    evaluations: u64,
    cache: OfflineCache,
}

impl ParallelEval {
    /// An evaluator running up to `jobs` experiments concurrently.
    pub fn new(jobs: usize) -> Self {
        ParallelEval {
            jobs: jobs.max(1),
            evaluations: 0,
            cache: OfflineCache::new(),
        }
    }

    /// The offline phases its evaluations have run so far.
    pub fn offline_phases(&self) -> OfflinePhases {
        self.cache.phases()
    }
}

impl BatchEval for ParallelEval {
    fn eval_batch(
        &mut self,
        configs: Vec<SimConfig>,
    ) -> Vec<Result<ExperimentReport, ExperimentFailure>> {
        self.evaluations += configs.len() as u64;
        run_cached(configs, self.jobs, None, &self.cache)
    }

    fn evaluations(&self) -> u64 {
        self.evaluations
    }
}

/// Runs every configuration in parallel, returning the reports in input
/// order.
///
/// Panics with the aggregated failure list if any experiment panicked; use
/// [`run_parallel_results`] to handle failures per slot instead.
pub fn run_parallel(configs: Vec<SimConfig>, workers: usize) -> Vec<ExperimentReport> {
    collect_or_panic(run_parallel_results(configs, workers))
}

fn collect_or_panic(
    results: Vec<Result<ExperimentReport, ExperimentFailure>>,
) -> Vec<ExperimentReport> {
    let total = results.len();
    let mut reports = Vec::with_capacity(total);
    let mut failures = Vec::new();
    for outcome in results {
        match outcome {
            Ok(report) => reports.push(report),
            Err(failure) => failures.push(failure),
        }
    }
    if !failures.is_empty() {
        let list = failures
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n");
        panic!("{} of {total} experiments failed:\n{list}", failures.len());
    }
    reports
}

/// The merged outcome of a seed sweep: `repeats` runs of one base
/// configuration, each under its own ChaCha-derived root seed, in seed
/// (= run-index) order.
///
/// The report is a pure function of `(base config, master seed, repeats)`:
/// the worker count only changes wall-clock time, never a byte of the
/// serialized report — which is what lets CI diff `--jobs 1` against
/// `--jobs $(nproc)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// Master seed the per-run seeds were derived from.
    pub master_seed: u64,
    /// Number of runs in the sweep.
    pub repeats: usize,
    /// Per-run reports, in run-index (derivation) order.
    pub runs: Vec<ExperimentReport>,
}

impl SweepReport {
    /// The canonical serialized form: pretty JSON with a trailing newline.
    /// Byte-compared by the golden harness and the CI determinism check,
    /// so its formatting must never depend on anything but the content.
    pub fn to_canonical_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("sweep report serializes");
        s.push('\n');
        s
    }
}

/// The configurations of an `n`-run sweep of `base`: run `i` gets root
/// seed [`chacha::derive_seed`]`(master_seed, i)`, everything else is the
/// base configuration verbatim.
pub fn sweep_configs(base: &SimConfig, master_seed: u64, repeats: usize) -> Vec<SimConfig> {
    chacha::seed_stream(master_seed, repeats)
        .into_iter()
        .map(|seed| SimConfig {
            seed,
            ..base.clone()
        })
        .collect()
}

/// Runs an `repeats`-run sweep of `base` across up to `workers` threads
/// and merges the reports in derivation order. `progress`, when given, is
/// called after each run.
///
/// Panics with the aggregated failure list if any run panicked (the same
/// policy as [`run_parallel`]).
pub fn run_sweep(
    base: &SimConfig,
    master_seed: u64,
    repeats: usize,
    workers: usize,
    progress: Option<ProgressFn>,
) -> SweepReport {
    let runs = collect_or_panic(run_cached(
        sweep_configs(base, master_seed, repeats),
        workers,
        progress.as_ref(),
        &OfflineCache::new(),
    ));
    SweepReport {
        master_seed,
        repeats,
        runs,
    }
}

/// The message a panic payload carries, which `panic!` makes a `&str` or
/// a `String`.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Colocation;
    use crate::sim::run_experiment;
    use concordia_ran::time::Nanos;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn tiny(seed: u64, load: f64) -> SimConfig {
        let mut cfg = SimConfig::paper_20mhz();
        cfg.n_cells = 2;
        cfg.duration = Nanos::from_millis(400);
        cfg.profiling_slots = 150;
        cfg.load = load;
        cfg.seed = seed;
        cfg.colocation = Colocation::Isolated;
        cfg
    }

    /// A configuration that trips the pool's `cores > 0` assertion: the
    /// runner must surface the panic, not abort the sweep.
    fn broken(seed: u64) -> SimConfig {
        let mut cfg = tiny(seed, 0.5);
        cfg.cores = 0;
        cfg
    }

    #[test]
    fn parallel_matches_sequential() {
        let configs: Vec<SimConfig> = (0..4).map(|i| tiny(i, 0.3 + 0.1 * i as f64)).collect();
        let seq: Vec<_> = configs.iter().cloned().map(run_experiment).collect();
        let par = run_parallel(configs, 4);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.metrics.dags, p.metrics.dags);
            assert_eq!(s.metrics.mean_latency_us, p.metrics.mean_latency_us);
            assert_eq!(s.seed, p.seed);
        }
    }

    #[test]
    fn results_keep_input_order() {
        let configs: Vec<SimConfig> = (0..6).map(|i| tiny(100 + i, 0.5)).collect();
        let reports = run_parallel(configs, 3);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.seed, 100 + i as u64);
        }
    }

    #[test]
    fn progress_callback_reaches_total() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let _ = run_sweep(
            &tiny(0, 0.5),
            5,
            3,
            2,
            Some(Box::new(move |done, total| {
                assert!(done <= total);
                c2.store(done, Ordering::SeqCst);
            })),
        );
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(run_parallel(Vec::new(), 4).is_empty());
    }

    #[test]
    fn par_map_returns_every_result_in_index_order() {
        assert!(par_map(0, 4, |_| -> usize { unreachable!("no index to map") }).is_empty());
        for workers in [0, 1, 3, 16] {
            assert_eq!(par_map(7, workers, |i| i * i), [0, 1, 4, 9, 16, 25, 36]);
        }
    }

    #[test]
    fn one_panicking_config_does_not_sink_the_sweep() {
        let configs = vec![tiny(7, 0.4), broken(8), tiny(9, 0.4)];
        let results = run_parallel_results(configs, 3);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(results[2].is_ok());
        let failure = results[1].as_ref().expect_err("cores=0 must fail");
        assert_eq!(failure.index, 1);
        assert_eq!(failure.seed, 8);
        assert!(!failure.message.is_empty());
    }

    #[test]
    fn sweep_seeds_come_from_the_chacha_stream() {
        let base = tiny(0, 0.4);
        let sweep = run_sweep(&base, 77, 3, 2, None);
        assert_eq!(sweep.master_seed, 77);
        assert_eq!(sweep.repeats, 3);
        assert_eq!(sweep.runs.len(), 3);
        for (i, run) in sweep.runs.iter().enumerate() {
            assert_eq!(run.seed, concordia_stats::chacha::derive_seed(77, i as u64));
        }
    }

    #[test]
    fn parallel_eval_counts_and_matches_direct_runs() {
        let mut eval = ParallelEval::new(2);
        assert_eq!(eval.evaluations(), 0);
        let configs = vec![tiny(3, 0.4), broken(4)];
        let results = eval.eval_batch(configs.clone());
        assert_eq!(eval.evaluations(), 2);
        let direct = run_parallel_results(configs, 1);
        assert_eq!(
            results[0].as_ref().unwrap().to_canonical_json(),
            direct[0].as_ref().unwrap().to_canonical_json()
        );
        assert!(results[1].is_err());
        eval.eval_batch(Vec::new());
        assert_eq!(eval.evaluations(), 2);
    }

    #[test]
    fn sweep_bytes_do_not_depend_on_worker_count() {
        let base = tiny(0, 0.5);
        let one = run_sweep(&base, 9, 4, 1, None).to_canonical_json();
        let many = run_sweep(&base, 9, 4, 4, None).to_canonical_json();
        assert_eq!(one, many);
    }

    #[test]
    fn infallible_entry_point_reports_the_failure_list() {
        let err = std::panic::catch_unwind(|| run_parallel(vec![broken(1), tiny(2, 0.4)], 2))
            .expect_err("must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("aggregated panic is a String");
        assert!(msg.contains("1 of 2 experiments failed"), "got: {msg}");
        assert!(msg.contains("seed 1"), "got: {msg}");
    }
}
