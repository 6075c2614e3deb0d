//! # concordia-bench
//!
//! The per-figure/per-table experiment harness. Every binary in `src/bin`
//! regenerates one table or figure of the paper's evaluation (see
//! DESIGN.md §3 for the index), printing the same rows/series the paper
//! reports and writing machine-readable JSON under `bench-results/`.
//!
//! Shared here: flag parsing, run-length presets, output handling, the
//! minimum-pool search, the predictor-accuracy evaluator of Figs. 14, 17
//! and 18 with its interference law, the soaks' pass/fail [`Gate`] and
//! tiny table formatting.

use concordia_core::config::MAX_CELLS;
use concordia_core::profile::random_workload;
use concordia_core::runner::{run_parallel, MAX_JOBS};
use concordia_core::{ExperimentReport, SimConfig};
use concordia_predictor::WcetPredictor;
use concordia_ran::cost::CostModel;
use concordia_ran::dag::build_dag;
use concordia_ran::features::extract;
use concordia_ran::task::TaskKind;
use concordia_ran::{CellConfig, Nanos};
use concordia_stats::rng::Rng;
use serde::Serialize;
use std::fmt::Display;
use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::str::FromStr;

/// Run-length preset parsed from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunLength {
    /// `--quick`: seconds-scale sanity runs.
    Quick,
    /// Default: runs with enough slots for 99.99 % tails.
    Standard,
    /// `--long`: the closest to the paper's 15-minute runs.
    Long,
}

impl RunLength {
    /// Parses `--quick` / `--long` from the process arguments.
    pub fn from_args() -> RunLength {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            RunLength::Quick
        } else if args.iter().any(|a| a == "--long") {
            RunLength::Long
        } else {
            RunLength::Standard
        }
    }

    /// Online-phase duration in seconds for this preset.
    pub fn online_secs(self) -> u64 {
        match self {
            RunLength::Quick => 2,
            RunLength::Standard => 10,
            RunLength::Long => 60,
        }
    }

    /// Offline profiling slots for this preset.
    pub fn profiling_slots(self) -> usize {
        match self {
            RunLength::Quick => 400,
            RunLength::Standard => 2_000,
            RunLength::Long => 4_000,
        }
    }
}

/// Parses `--seed N` (default 2021).
pub fn seed_from_args() -> u64 {
    u64_flag("--seed", 2021)
}

/// Parses a `--flag N` integer from the process arguments.
pub fn u64_flag(name: &str, default: u64) -> u64 {
    flag_value(name).unwrap_or(default)
}

/// Parses a `--flag N` count in `1..=max` from the process arguments; a
/// value outside it, or a malformed one, exits 2.
pub fn count_flag<T>(name: &str, default: T, max: T) -> T
where
    T: TryFrom<u64> + PartialOrd + Display,
{
    let args: Vec<String> = std::env::args().collect();
    bounded_count(&args, name, default, max).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

/// Parses `--cells N` (pooled cells, at most [`MAX_CELLS`]; default from
/// the scenario).
pub fn cells_from_args(default: u32) -> u32 {
    count_flag("--cells", default, MAX_CELLS)
}

/// Parses `--jobs N` (worker threads, at most [`MAX_JOBS`]; default: all
/// available cores). The runner merges results in input order, so the
/// value never changes a byte of output — only wall-clock time.
pub fn jobs_from_args() -> usize {
    let default = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(MAX_JOBS);
    count_flag("--jobs", default, MAX_JOBS)
}

/// Parses a `--flag F` fraction in `[0, 1]` from the process arguments; a
/// value outside it (NaN included), or a malformed one, exits 2.
pub fn fraction_flag(name: &str, default: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    bounded_fraction(&args, name, default).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

/// True when a bare `--flag` is present in the process arguments.
pub fn bool_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Unwraps an optional tail quantile for a numeric report row; empty
/// recorders surface as NaN, which the JSON writer renders as `null`.
pub fn quantile_or_nan(q: Option<f64>) -> f64 {
    q.unwrap_or(f64::NAN)
}

/// Looks up `name VALUE` in `args`: `Ok(None)` when the flag is absent,
/// and an error naming the flag and the value when the value is missing
/// or does not parse.
fn parse_flag<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("invalid value for {name}: '{value}'"))
}

/// `name`'s count in `args` (`default` when absent), refused with a message
/// naming the flag unless it is in `1..=max`.
fn bounded_count<T>(args: &[String], name: &str, default: T, max: T) -> Result<T, String>
where
    T: TryFrom<u64> + PartialOrd + Display,
{
    let Some(n) = parse_flag::<u64>(args, name)? else {
        return Ok(default);
    };
    match T::try_from(n) {
        Ok(t) if n > 0 && t <= max => Ok(t),
        _ => Err(format!("{name} {n} is outside 1..={max}")),
    }
}

/// `name`'s fraction in `args` (`default` when absent), refused with a
/// message naming the flag unless it is in `[0, 1]`.
fn bounded_fraction(args: &[String], name: &str, default: f64) -> Result<f64, String> {
    let Some(x) = parse_flag::<f64>(args, name)? else {
        return Ok(default);
    };
    if (0.0..=1.0).contains(&x) {
        Ok(x)
    } else {
        Err(format!("{name} {x} is outside [0, 1]"))
    }
}

/// [`parse_flag`] over the process arguments; a malformed value exits 2.
fn flag_value<T: FromStr>(name: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    parse_flag(&args, name).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

/// Directory for the JSON results (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(
        std::env::var("CONCORDIA_RESULTS_DIR").unwrap_or_else(|_| "bench-results".into()),
    );
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes one experiment's JSON next to the printed output.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize results");
    std::fs::write(&path, json).expect("write results");
    println!("\n[results written to {}]", path.display());
}

/// The smallest pool in `cores` whose run of `template` meets `target`
/// reliability, with its report. Candidates run in chunks of `jobs` on
/// the parallel runner, and the search stops at the first chunk holding
/// a pass, so the answer is the same as a linear scan's at any `jobs`.
/// When no candidate passes, the largest one comes back, so a caller
/// that needs a pass compares the report's reliability with `target`.
///
/// This is how the paper's Table 2/3 "minimum # CPU cores" columns are
/// produced.
pub fn min_cores(
    template: &SimConfig,
    cores: RangeInclusive<u32>,
    target: f64,
    jobs: usize,
) -> (u32, ExperimentReport) {
    let candidates: Vec<u32> = cores.collect();
    let mut largest = None;
    for chunk in candidates.chunks(jobs.max(1)) {
        let configs = chunk
            .iter()
            .map(|&cores| SimConfig {
                cores,
                ..template.clone()
            })
            .collect();
        for (&cores, report) in chunk.iter().zip(run_parallel(configs, jobs)) {
            if report.metrics.reliability >= target {
                return (cores, report);
            }
            largest = Some((cores, report));
        }
    }
    largest.expect("min_cores needs at least one candidate")
}

/// The harness's interference law for tasks sampled outside the pool: the
/// runtime factor under best-effort cache `pressure` on a cold-ish pool,
/// `1 + pressure · 0.18 · lognormal(0, 0.35)`, and exactly 1 (with no
/// draw) when isolated.
pub fn interference(pressure: f64, rng: &mut Rng) -> f64 {
    if pressure > 0.0 {
        1.0 + pressure * 0.18 * rng.lognormal(0.0, 0.35)
    } else {
        1.0
    }
}

/// Per-task accuracy of a WCET model (Figs. 14, 17 and 18): draws random
/// workloads of `task`'s slot direction on `cell` from `seed`, samples
/// every `task` node's runtime on a 4-core pool under `pressure` (see
/// [`interference`]), and feeds each observation back online, as the
/// paper's adapted baselines do, until `samples` tasks ran. The paper
/// measures steady-state runs with online adaptation active throughout,
/// so the first fifth is warm-up, observed but not scored, and cold leaf
/// buffers do not dominate short runs.
///
/// Returns the percentage of scored tasks whose runtime exceeded the
/// prediction, and the mean over-prediction (µs) of the others (0 when
/// every one missed).
pub fn prediction_accuracy(
    model: &mut dyn WcetPredictor,
    task: TaskKind,
    cell: &CellConfig,
    cost: &CostModel,
    pressure: f64,
    samples: usize,
    seed: u64,
) -> (f64, f64) {
    let mut rng = Rng::new(seed);
    let (mut misses, mut met, mut err_sum) = (0u64, 0u64, 0.0f64);
    let mut produced = 0usize;
    let warmup = samples / 5;
    while produced < samples {
        let wl = random_workload(cell, task.direction(), &mut rng);
        let dag = build_dag(cell, 0, 0, Nanos::ZERO, &wl);
        for node in &dag.nodes {
            if node.task.kind != task {
                continue;
            }
            let mut p = node.task.params;
            p.pool_cores = 4;
            let f = interference(pressure, &mut rng);
            let runtime = cost.sample_runtime(task, &p, f, &mut rng).as_micros_f64();
            let x = extract(&p);
            let pred = model.predict_us(&x);
            if produced >= warmup {
                if runtime > pred {
                    misses += 1;
                } else {
                    met += 1;
                    err_sum += pred - runtime;
                }
            }
            model.observe(&x, runtime);
            produced += 1;
        }
    }
    (
        misses as f64 / (misses + met) as f64 * 100.0,
        if met > 0 { err_sum / met as f64 } else { 0.0 },
    )
}

/// A soak's pass/fail verdict. The soak records each property that fails
/// as it runs, writes its JSON, and then calls [`Gate::finish`].
#[derive(Debug, Default)]
pub struct Gate {
    failures: Vec<String>,
}

impl Gate {
    /// Records `failure` unless `ok` holds.
    pub fn check(&mut self, ok: bool, failure: impl Into<String>) {
        if !ok {
            self.failures.push(failure.into());
        }
    }

    /// The failures recorded so far, in order.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The printed verdict of soak `name`: the pass line, or the failure
    /// list as the error.
    fn verdict(&self, name: &str) -> Result<String, String> {
        if self.failures.is_empty() {
            return Ok(format!("{name} PASSED"));
        }
        let list: String = self.failures.iter().map(|f| format!("\n  - {f}")).collect();
        Err(format!("{name} FAILED:{list}"))
    }

    /// Prints the verdict and exits 1 if any check failed.
    pub fn finish(self, name: &str) {
        match self.verdict(name) {
            Ok(pass) => println!("\n{pass}"),
            Err(fail) => {
                eprintln!("\n{fail}");
                std::process::exit(1);
            }
        }
    }
}

/// Prints a header banner naming the figure/table being reproduced.
pub fn banner(id: &str, claim: &str) {
    println!("{}", "=".repeat(78));
    println!("Reproducing {id}");
    println!("Paper claim: {claim}");
    println!("{}", "=".repeat(78));
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_up() {
        assert!(RunLength::Quick.online_secs() < RunLength::Standard.online_secs());
        assert!(RunLength::Standard.online_secs() < RunLength::Long.online_secs());
        assert!(RunLength::Quick.profiling_slots() < RunLength::Long.profiling_slots());
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.7), "70.0%");
        assert_eq!(pct(0.056), "5.6%");
    }

    #[test]
    fn default_seed() {
        assert_eq!(seed_from_args(), 2021);
    }

    #[test]
    fn flags_fall_back_to_defaults() {
        // The test binary's argv carries no such flags, so both helpers
        // must return the caller's default.
        assert_eq!(u64_flag("--windows", 200), 200);
        assert_eq!(fraction_flag("--load", 0.6), 0.6);
        assert!(!bool_flag("--trace"));
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_flag_reads_values_and_names_malformed_ones() {
        let argv = args(&["soak", "--quick", "--seed", "7", "--load", "0.25"]);
        assert_eq!(parse_flag::<u64>(&argv, "--seed"), Ok(Some(7)));
        assert_eq!(parse_flag::<f64>(&argv, "--load"), Ok(Some(0.25)));
        assert_eq!(parse_flag::<u64>(&argv, "--jobs"), Ok(None));

        let err = parse_flag::<u64>(&args(&["soak", "--seed", "0x7"]), "--seed").unwrap_err();
        assert!(err.contains("--seed") && err.contains("0x7"), "{err}");
        let err = parse_flag::<usize>(&args(&["soak", "--jobs", "two"]), "--jobs").unwrap_err();
        assert!(err.contains("--jobs") && err.contains("two"), "{err}");
        let err = parse_flag::<u64>(&args(&["soak", "--windows"]), "--windows").unwrap_err();
        assert!(err.contains("--windows"), "{err}");
    }

    #[test]
    fn counts_outside_their_range_are_refused_by_name() {
        let cells =
            |v: &str| bounded_count(&args(&["soak", "--cells", v]), "--cells", 8, MAX_CELLS);
        assert_eq!(
            bounded_count(&args(&["soak"]), "--cells", 8, MAX_CELLS),
            Ok(8)
        );
        assert_eq!(cells("1024"), Ok(MAX_CELLS));
        // Zero and the probes past `u32` no longer wrap or clamp to one.
        for v in ["0", "1025", "4294967295", "4294967296"] {
            assert_eq!(cells(v), Err(format!("--cells {v} is outside 1..=1024")));
        }
        let e = cells("-1").unwrap_err();
        assert!(e.contains("--cells") && e.contains("-1"), "{e}");
        let jobs = |v: &str| bounded_count(&args(&["soak", "--jobs", v]), "--jobs", 2, MAX_JOBS);
        assert_eq!(jobs("256"), Ok(256));
        assert_eq!(
            jobs("257"),
            Err("--jobs 257 is outside 1..=256".to_string())
        );
    }

    #[test]
    fn fractions_outside_the_unit_interval_are_refused_by_name() {
        let load = |v: &str| bounded_fraction(&args(&["soak", "--load", v]), "--load", 0.6);
        assert_eq!(bounded_fraction(&args(&["soak"]), "--load", 0.6), Ok(0.6));
        for (v, x) in [("0", 0.0), ("0.25", 0.25), ("1", 1.0)] {
            assert_eq!(load(v), Ok(x));
        }
        // `clamp` passed NaN through and ran 5 at 1.0.
        for v in ["NaN", "5", "-0.1", "1.0000001", "inf"] {
            let e = load(v).unwrap_err();
            assert!(
                e.starts_with("--load ") && e.ends_with("is outside [0, 1]"),
                "{e}"
            );
        }
        let e = load("most").unwrap_err();
        assert!(e.contains("--load") && e.contains("most"), "{e}");
    }

    /// A model that predicts one fixed WCET and keeps every observation.
    struct FixedWcet {
        wcet_us: f64,
        seen: Vec<f64>,
    }

    impl WcetPredictor for FixedWcet {
        fn predict_us(&self, _: &concordia_ran::features::FeatureVec) -> f64 {
            self.wcet_us
        }

        fn observe(&mut self, _: &concordia_ran::features::FeatureVec, runtime_us: f64) {
            self.seen.push(runtime_us);
        }
    }

    #[test]
    fn prediction_accuracy_scores_fixed_predictors() {
        let cell = CellConfig::fdd_20mhz();
        let cost = CostModel::new();
        let mut zero = FixedWcet {
            wcet_us: 0.0,
            seen: Vec::new(),
        };
        let score = prediction_accuracy(&mut zero, TaskKind::LdpcDecode, &cell, &cost, 0.0, 500, 1);
        assert_eq!(score, (100.0, 0.0));
        assert!(zero.seen.len() >= 500);

        let mut large = FixedWcet {
            wcet_us: 1e9,
            seen: Vec::new(),
        };
        let (miss, err) =
            prediction_accuracy(&mut large, TaskKind::Precoding, &cell, &cost, 1.1, 500, 2);
        assert_eq!(miss, 0.0);
        // The first fifth is warm-up; every later task met its deadline.
        let scored = &large.seen[100..];
        let expected = scored.iter().map(|r| 1e9 - r).sum::<f64>() / scored.len() as f64;
        assert_eq!(err, expected);
    }

    #[test]
    fn gate_fails_on_any_recorded_failure() {
        let mut gate = Gate::default();
        gate.check(true, "never recorded");
        assert!(gate.failures().is_empty());
        assert_eq!(gate.verdict("soak"), Ok("soak PASSED".to_string()));

        gate.check(false, "first");
        gate.check(true, "still not recorded");
        gate.check(false, "second");
        assert_eq!(gate.failures(), ["first", "second"]);
        assert_eq!(
            gate.verdict("soak"),
            Err("soak FAILED:\n  - first\n  - second".to_string())
        );
    }

    /// Two 20 MHz cells at peak traffic: one core misses the target, so
    /// the search has to move past its first candidate.
    fn tiny_template() -> SimConfig {
        let mut cfg = SimConfig::paper_20mhz();
        cfg.n_cells = 2;
        cfg.load = 1.0;
        cfg.peak_provisioning = true;
        cfg.duration = concordia_ran::Nanos::from_millis(200);
        cfg.profiling_slots = 100;
        cfg
    }

    /// The reference: run each candidate in turn, stop at the first pass.
    fn linear_scan(template: &SimConfig, cores: RangeInclusive<u32>, target: f64) -> (u32, String) {
        let mut last = None;
        for cores in cores {
            let report = concordia_core::run_experiment(SimConfig {
                cores,
                ..template.clone()
            });
            let passed = report.metrics.reliability >= target;
            last = Some((cores, serde_json::to_string(&report).unwrap()));
            if passed {
                break;
            }
        }
        last.expect("a candidate")
    }

    #[test]
    fn min_cores_matches_a_linear_scan_at_any_jobs() {
        let template = tiny_template();
        let (want_cores, want_bytes) = linear_scan(&template, 1..=5, 0.999);
        assert!(want_cores > 1, "the first candidate must fail");
        for jobs in [1, 4] {
            let (cores, report) = min_cores(&template, 1..=5, 0.999, jobs);
            assert!(report.metrics.reliability >= 0.999, "jobs {jobs}");
            assert_eq!(cores, want_cores, "jobs {jobs}");
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                want_bytes,
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn min_cores_falls_back_to_the_largest_candidate() {
        let template = tiny_template();
        // No run can beat a reliability above 1.
        let (want_cores, want_bytes) = linear_scan(&template, 2..=3, 1.5);
        assert_eq!(want_cores, 3);
        for jobs in [1, 2] {
            let (cores, report) = min_cores(&template, 2..=3, 1.5, jobs);
            assert!(report.metrics.reliability < 1.5, "jobs {jobs}");
            assert_eq!(cores, 3, "jobs {jobs}");
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                want_bytes,
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn quantile_unwrap_preserves_values_and_marks_empty() {
        assert_eq!(quantile_or_nan(Some(912.5)), 912.5);
        assert!(quantile_or_nan(None).is_nan());
    }
}
