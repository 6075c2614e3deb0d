//! # concordia-bench
//!
//! The per-figure/per-table experiment harness. Every binary in `src/bin`
//! regenerates one table or figure of the paper's evaluation (see
//! DESIGN.md §3 for the index), printing the same rows/series the paper
//! reports and writing machine-readable JSON under `bench-results/`.
//!
//! Shared here: flag parsing, run-length presets, output handling, the
//! minimum-pool search, the soaks' pass/fail [`Gate`] and tiny table
//! formatting.

use concordia_core::runner::run_parallel;
use concordia_core::{ExperimentReport, SimConfig};
use serde::Serialize;
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

/// Parses `--cells N` (pooled cells; default from the scenario).
pub fn cells_from_args(default: u32) -> u32 {
    (u64_flag("--cells", default as u64) as u32).max(1)
}

/// Parses `--jobs N` (worker threads; default: all available cores).
/// The runner merges results in input order, so the value never changes
/// a byte of output — only wall-clock time.
pub fn jobs_from_args() -> usize {
    let default = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    (u64_flag("--jobs", default as u64) as usize).max(1)
}

/// Parses a `--flag X.Y` float from the process arguments.
pub fn f64_flag(name: &str, default: f64) -> f64 {
    flag_value(name).unwrap_or(default)
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
        assert!((f64_flag("--load", 0.6) - 0.6).abs() < 1e-12);
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
