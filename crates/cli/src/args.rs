//! Minimal dependency-free argument parsing for the `concordia` CLI.

use concordia_core::config::{MAX_CELLS, MAX_DURATION};
use concordia_core::runner::{MAX_JOBS, MAX_REPEATS};
use concordia_core::{
    Colocation, PredictorChoice, ReconfigPlan, ScenarioSpec, SchedulerChoice, SimConfig,
};
use concordia_platform::arch::PoolArchChoice;
use concordia_platform::faults::{FaultKind, FaultPlan};
use concordia_platform::pool::MAX_CORES;
use concordia_platform::trace::TraceConfig;
use concordia_platform::workloads::WorkloadKind;
use concordia_ran::cell::MAX_DEADLINE;
use concordia_ran::{CellConfig, Nanos};
use concordia_sched::concordia::ConcordiaConfig;
use concordia_sched::supervisor::SupervisorConfig;
use concordia_search::{Oracle, Strategy};

/// Usage text printed on `--help` and parse errors.
pub const USAGE: &str = "\
concordia — run one Concordia vRAN compute-sharing experiment

USAGE:
  concordia [OPTIONS]

OPTIONS:
  --config 20mhz|100mhz|lte   cell preset (default 20mhz: 7xFDD 20MHz)
  --cells N                   number of pooled cells, 1-1024 (default: preset)
  --cores N                   vRAN pool cores, 1-4096 (default: preset)
  --scheduler S               concordia | flexran | shenango:<us> |
                              utilization:<hi> | dedicated (default concordia)
  --predictor P               qdt | linreg | gbt | pwcet | oracle (default qdt)
  --colocate W                isolated | redis | nginx | tpcc | mlperf | mix
                              (default redis)
  --load F                    traffic load fraction 0-1 (default 0.5)
  --secs N                    online duration in seconds, 1-1000000
                              (default 5)
  --seed N                    root seed (default 2021)
  --deadline-us N             override the DAG deadline, 1-1000000 us
  --fpga                      enable the FPGA LDPC offload (sec. 7)
  --mac                       run MAC schedulers in the pool (sec. 7)
  --peak                      peak-provisioning traffic (Table 2 sizing)
  --faults LIST               inject chaos faults: comma-separated classes
                              from core_offline, core_stall, accel_outage,
                              accel_timeout, predictor_bias,
                              storm_amplification, traffic_surge,
                              drift_injection
  --supervisor                enable the predictor control plane (drift
                              detection, quarantine, online retraining,
                              admission control)
  --no-stagger                align every cell's slot boundaries on one
                              global clock (default: boundaries interleave
                              evenly across one slot)
  --pool ARCH                 worker-pool architecture: edf (default, the
                              paper's centralized earliest-deadline queue) |
                              cfcfs (centralized FIFO) | dfcfs (per-cell
                              FIFO with static cell->core affinity) |
                              steal (work-stealing deques, seeded victim
                              selection) | pipeline (FH/PHY/MAC stage
                              groups on disjoint core sets)
  --scenario NAME[:k=v,..]    run a measurement-driven workload scenario:
                              urban_macro_burst | stadium_flash_crowd |
                              sliced_deadlines | mmtc_background |
                              trace_replay, each with typed knobs (e.g.
                              stadium_flash_crowd:boost=3,ramp=200); every
                              scenario accepts platform=NAME to rescale
                              task costs to another CPU (xeon8168 |
                              xeon_gold6148 | xeon_silver4216 |
                              epyc_rome7452 | ampere_altra_q80)
  --scenario-file PATH        load a full ScenarioSpec from a JSON file
                              (mutually exclusive with --scenario)
  --reconfig PATH             apply a live reconfiguration plan (JSON
                              ReconfigPlan) to the running experiment:
                              typed steps land at slot boundaries under
                              per-slot invariant checks with automatic
                              rollback (single runs only)
  --repeat N                  run an N-run seed sweep (N at most 10000)
                              instead of a single experiment: per-run seeds
                              derive from --seed via the ChaCha stream, and
                              --json writes a sweep report (byte-identical
                              for any --jobs)
  --jobs N                    worker threads for --repeat / --search /
                              --replay, 1-256 (default: all available
                              cores, at most 256)
  --search STRAT              adversarial scenario search around the
                              configured experiment: random | bisection |
                              beam (optionally random:<batch>,
                              bisection:<iters>, beam:<width>x<depth>).
                              Found counterexamples are shrunk to minimal
                              still-failing scenarios; --json writes the
                              deterministic SearchReport (byte-identical
                              for any --jobs; --seed is the search seed)
  --oracle NAME               failure oracle for --search: sla[:floor] |
                              task_loss | guard_inflation[:bound] |
                              differential[:floor] | reconfig_infeasible
                              (default sla)
  --budget N                  simulator-run budget for the --search phase
                              (default 64); shrinking spends up to
                              --shrink-budget more per counterexample
  --shrink-budget N           simulator-run budget per shrink (default 96)
  --ce PATH                   write the first counterexample's replayable
                              repro artifact (JSON) to PATH
  --corpus PATH               persistent counterexample corpus for --search:
                              surviving minimal scenarios seed the next
                              run's search and the file is rewritten with
                              this run's survivors (created if absent)
  --replay PATH               re-run a repro artifact written by --ce and
                              compare against the recorded fingerprint;
                              all experiment flags are ignored (the
                              artifact is self-contained)
  --json PATH                 write the full JSON report to PATH
  --trace PATH                record a microsecond-granularity event trace
                              and write it to PATH as Chrome trace-event
                              JSON (load in Perfetto / chrome://tracing)
  -h, --help                  this text

EXIT CODES (--replay):
  0  the artifact no longer violates its oracle (bug fixed / not reproduced)
  1  the violation is confirmed (the counterexample still fails)
  2  the artifact is invalid (unreadable, unparseable, wrong version,
     out-of-range scenario, or a base deadline above 1000000 us)
";

/// Parse error with a human message.
#[derive(Debug, PartialEq)]
pub struct CliError(pub String);

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// A duration read as `value` `unit`s of `flag`, refused by name unless it
/// is at most `max`.
fn duration(flag: &str, value: u64, unit: Nanos, max: Nanos) -> Result<Nanos, CliError> {
    match value.checked_mul(unit.as_nanos()) {
        Some(ns) if Nanos(ns) <= max => Ok(Nanos(ns)),
        _ => err(format!(
            "{flag} {value} is above the maximum of {}",
            max.as_nanos() / unit.as_nanos()
        )),
    }
}

/// The count `value` of `flag`, refused unless it is in `1..=max`.
fn count<T>(flag: &str, value: &str, max: T) -> Result<T, CliError>
where
    T: TryFrom<u64> + PartialOrd + std::fmt::Display,
{
    let n: u64 = value
        .parse()
        .map_err(|_| CliError(format!("{flag} must be an integer")))?;
    if n == 0 {
        return err(format!("{flag} must be positive"));
    }
    match T::try_from(n) {
        Ok(n) if n <= max => Ok(n),
        _ => err(format!("{flag} {n} is above the maximum of {max}")),
    }
}

/// Everything the command line resolves to: the experiment configuration,
/// output paths, and the sweep controls.
#[derive(Debug)]
pub struct Cli {
    /// The experiment (for `--repeat N`, the sweep's base configuration).
    pub cfg: SimConfig,
    /// `--json` output path.
    pub json: Option<String>,
    /// `--trace` output path (single runs only).
    pub trace: Option<String>,
    /// `--repeat`: number of sweep runs (1 = a single experiment).
    pub repeat: usize,
    /// `--jobs`: worker threads for the sweep / search / replay.
    pub jobs: usize,
    /// `--search`: run an adversarial scenario search instead of one
    /// experiment.
    pub search: Option<SearchArgs>,
    /// `--replay`: path to a repro artifact to re-run and check.
    pub replay: Option<String>,
}

/// Everything `--search` resolves to.
#[derive(Debug)]
pub struct SearchArgs {
    /// The search strategy (with its knobs).
    pub strategy: Strategy,
    /// The failure oracle (with its thresholds).
    pub oracle: Oracle,
    /// Simulator-run budget for the search phase.
    pub budget: u64,
    /// Simulator-run budget per counterexample shrink.
    pub shrink_budget: u64,
    /// `--ce`: where to write the first counterexample's artifact.
    pub ce_path: Option<String>,
    /// `--corpus`: persistent counterexample corpus (read to seed the
    /// search, rewritten with this run's survivors).
    pub corpus_path: Option<String>,
}

/// Parses the argument list.
pub fn parse(argv: &[String]) -> Result<Cli, CliError> {
    let mut cfg = SimConfig::paper_20mhz();
    cfg.duration = Nanos::from_secs(5);
    cfg.profiling_slots = 1_500;
    cfg.load = 0.5;
    cfg.seed = 2021;
    cfg.colocation = Colocation::Single(WorkloadKind::Redis);
    let mut cells_override: Option<u32> = None;
    let mut cores_override: Option<u32> = None;
    let mut fault_kinds: Option<Vec<FaultKind>> = None;
    let mut json_path = None;
    let mut trace_path = None;
    let mut repeat = 1usize;
    let mut jobs = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(MAX_JOBS);
    let mut strategy: Option<Strategy> = None;
    let mut oracle: Option<Oracle> = None;
    let mut budget = 64u64;
    let mut shrink_budget = 96u64;
    let mut ce_path: Option<String> = None;
    let mut corpus_path: Option<String> = None;
    let mut search_knob_seen: Option<&'static str> = None;
    let mut replay_path: Option<String> = None;

    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| CliError(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--config" => {
                let v = value("--config")?;
                let (cell, cells, cores) = match v.as_str() {
                    "20mhz" => (CellConfig::fdd_20mhz(), 7, 8),
                    "100mhz" => (CellConfig::tdd_100mhz(), 2, 12),
                    "lte" => (CellConfig::lte_20mhz(), 7, 6),
                    other => return err(format!("unknown config '{other}'")),
                };
                cfg.cell = cell;
                cfg.n_cells = cells;
                cfg.cores = cores;
            }
            "--cells" => {
                cells_override = Some(count("--cells", value("--cells")?, MAX_CELLS)?);
            }
            "--cores" => {
                cores_override = Some(count("--cores", value("--cores")?, MAX_CORES)?);
            }
            "--scheduler" => {
                let v = value("--scheduler")?;
                cfg.scheduler = parse_scheduler(v)?;
            }
            "--predictor" => {
                cfg.predictor = match value("--predictor")?.as_str() {
                    "qdt" => PredictorChoice::QuantileDt,
                    "linreg" => PredictorChoice::LinearRegression,
                    "gbt" => PredictorChoice::GradientBoosting,
                    "pwcet" => PredictorChoice::PwcetEvt,
                    "oracle" => PredictorChoice::Oracle,
                    other => return err(format!("unknown predictor '{other}'")),
                };
            }
            "--colocate" => {
                cfg.colocation = match value("--colocate")?.as_str() {
                    "isolated" => Colocation::Isolated,
                    "redis" => Colocation::Single(WorkloadKind::Redis),
                    "nginx" => Colocation::Single(WorkloadKind::Nginx),
                    "tpcc" => Colocation::Single(WorkloadKind::Tpcc),
                    "mlperf" => Colocation::Single(WorkloadKind::MlPerf),
                    "mix" => Colocation::Mix,
                    other => return err(format!("unknown workload '{other}'")),
                };
            }
            "--load" => {
                let load: f64 = value("--load")?
                    .parse()
                    .map_err(|_| CliError("--load must be a number".into()))?;
                if !(0.0..=1.0).contains(&load) {
                    return err("--load must be in [0, 1]");
                }
                cfg.load = load;
            }
            "--secs" => {
                let s: u64 = value("--secs")?
                    .parse()
                    .map_err(|_| CliError("--secs must be an integer".into()))?;
                if s == 0 {
                    return err("--secs must be positive");
                }
                cfg.duration = duration("--secs", s, Nanos::from_secs(1), MAX_DURATION)?;
            }
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|_| CliError("--seed must be an integer".into()))?;
            }
            "--deadline-us" => {
                let us: u64 = value("--deadline-us")?
                    .parse()
                    .map_err(|_| CliError("--deadline-us must be an integer".into()))?;
                if us == 0 {
                    return err("--deadline-us must be positive");
                }
                let deadline = duration("--deadline-us", us, Nanos::from_micros(1), MAX_DEADLINE)?;
                cfg.deadline_override = Some(deadline);
            }
            "--faults" => {
                let v = value("--faults")?;
                let mut kinds = Vec::new();
                for name in v.split(',').filter(|n| !n.is_empty()) {
                    match FaultKind::from_name(name) {
                        Some(k) => kinds.push(k),
                        None => {
                            return err(format!(
                                "unknown fault class '{name}' (valid: {})",
                                FaultKind::ALL.map(|k| k.name()).join(", ")
                            ))
                        }
                    }
                }
                if kinds.is_empty() {
                    return err("--faults needs at least one fault class");
                }
                fault_kinds = Some(kinds);
            }
            "--supervisor" => cfg.supervisor = Some(SupervisorConfig::default()),
            "--no-stagger" => cfg.cell_stagger = false,
            "--repeat" => {
                repeat = count("--repeat", value("--repeat")?, MAX_REPEATS)?;
            }
            "--jobs" => {
                jobs = count("--jobs", value("--jobs")?, MAX_JOBS)?;
            }
            "--fpga" => cfg.fpga = true,
            "--mac" => cfg.mac_in_pool = true,
            "--peak" => cfg.peak_provisioning = true,
            "--reconfig" => {
                let path = value("--reconfig")?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError(format!("--reconfig: cannot read '{path}': {e}")))?;
                let plan: ReconfigPlan = serde_json::from_str(&text)
                    .map_err(|e| CliError(format!("--reconfig: '{path}' is not a plan: {e}")))?;
                plan.validate()
                    .map_err(|e| CliError(format!("--reconfig: '{path}': {e}")))?;
                cfg.reconfig = Some(plan);
            }
            "--scenario" => {
                let v = value("--scenario")?;
                if cfg.scenario.is_some() {
                    return err("--scenario and --scenario-file are mutually exclusive");
                }
                cfg.scenario =
                    Some(ScenarioSpec::parse(v).map_err(|e| CliError(format!("--scenario: {e}")))?);
            }
            "--scenario-file" => {
                let path = value("--scenario-file")?;
                if cfg.scenario.is_some() {
                    return err("--scenario and --scenario-file are mutually exclusive");
                }
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError(format!("--scenario-file: cannot read '{path}': {e}")))?;
                let spec = ScenarioSpec::from_json(&text)
                    .map_err(|e| CliError(format!("--scenario-file: '{path}': {e}")))?;
                cfg.scenario = Some(spec);
            }
            "--search" => {
                let v = value("--search")?;
                strategy = Some(parse_strategy(v)?);
            }
            "--oracle" => {
                let v = value("--oracle")?;
                oracle = Some(parse_oracle(v)?);
                search_knob_seen.get_or_insert("--oracle");
            }
            "--budget" => {
                budget = value("--budget")?
                    .parse()
                    .map_err(|_| CliError("--budget must be an integer".into()))?;
                if budget == 0 {
                    return err("--budget must be positive");
                }
                search_knob_seen.get_or_insert("--budget");
            }
            "--shrink-budget" => {
                shrink_budget = value("--shrink-budget")?
                    .parse()
                    .map_err(|_| CliError("--shrink-budget must be an integer".into()))?;
                search_knob_seen.get_or_insert("--shrink-budget");
            }
            "--ce" => {
                ce_path = Some(value("--ce")?.clone());
                search_knob_seen.get_or_insert("--ce");
            }
            "--corpus" => {
                corpus_path = Some(value("--corpus")?.clone());
                search_knob_seen.get_or_insert("--corpus");
            }
            "--pool" => {
                let v = value("--pool")?;
                cfg.pool = PoolArchChoice::from_name(v).ok_or_else(|| {
                    CliError(format!(
                        "unknown pool architecture '{v}' (valid: {})",
                        PoolArchChoice::ALL.map(|a| a.name()).join(", ")
                    ))
                })?;
            }
            "--replay" => replay_path = Some(value("--replay")?.clone()),
            "--json" => json_path = Some(value("--json")?.clone()),
            "--trace" => {
                trace_path = Some(value("--trace")?.clone());
                cfg.trace = Some(TraceConfig::default());
            }
            other => return err(format!("unknown flag '{other}'")),
        }
    }
    if let Some(c) = cells_override {
        cfg.n_cells = c;
    }
    if let Some(c) = cores_override {
        cfg.cores = c;
    }
    // Applied after the loop so the plan scales to the final --secs value
    // regardless of flag order.
    if let Some(kinds) = fault_kinds {
        cfg.faults = FaultPlan::chaos(&kinds, cfg.duration);
    }
    if repeat > 1 && trace_path.is_some() {
        return err("--trace records a single run; drop it or use --repeat 1");
    }
    if repeat > 1 && cfg.reconfig.is_some() {
        return err("--reconfig applies to a single run; drop it or use --repeat 1");
    }
    let search = match strategy {
        Some(strategy) => Some(SearchArgs {
            strategy,
            oracle: oracle.unwrap_or(Oracle::Sla {
                min_reliability: 0.99999,
            }),
            budget,
            shrink_budget,
            ce_path,
            corpus_path,
        }),
        None => {
            if let Some(knob) = search_knob_seen {
                return err(format!("{knob} only makes sense with --search"));
            }
            None
        }
    };
    if search.is_some() && repeat > 1 {
        return err("--search and --repeat are mutually exclusive");
    }
    if search.is_some() && trace_path.is_some() {
        return err("--trace records a single run; drop it or drop --search");
    }
    if replay_path.is_some() && (search.is_some() || repeat > 1 || trace_path.is_some()) {
        return err("--replay re-runs a self-contained artifact; it cannot combine with --search, --repeat or --trace");
    }
    Ok(Cli {
        cfg,
        json: json_path,
        trace: trace_path,
        repeat,
        jobs,
        search,
        replay: replay_path,
    })
}

/// `random[:batch]` | `bisection[:iters]` | `beam[:WxD]`.
fn parse_strategy(v: &str) -> Result<Strategy, CliError> {
    let (name, knob) = match v.split_once(':') {
        Some((n, k)) => (n, Some(k)),
        None => (v, None),
    };
    let mut strategy = Strategy::from_name(name).ok_or_else(|| {
        CliError(format!(
            "unknown strategy '{name}' (random | bisection | beam)"
        ))
    })?;
    if let Some(knob) = knob {
        match &mut strategy {
            Strategy::Random { batch } => {
                *batch =
                    knob.parse().ok().filter(|b| *b > 0).ok_or_else(|| {
                        CliError("random:<batch> needs a positive integer".into())
                    })?;
            }
            Strategy::Bisection { iters } => {
                *iters =
                    knob.parse().ok().filter(|i| *i > 0).ok_or_else(|| {
                        CliError("bisection:<iters> needs a positive integer".into())
                    })?;
            }
            Strategy::Beam { width, depth } => {
                let (w, d) = knob
                    .split_once('x')
                    .ok_or_else(|| CliError("beam:<width>x<depth> (e.g. beam:4x3)".into()))?;
                *width = w
                    .parse()
                    .ok()
                    .filter(|w| *w > 0)
                    .ok_or_else(|| CliError("beam width needs a positive integer".into()))?;
                *depth = d
                    .parse()
                    .ok()
                    .filter(|d| *d > 0)
                    .ok_or_else(|| CliError("beam depth needs a positive integer".into()))?;
            }
        }
    }
    Ok(strategy)
}

/// `sla[:floor]` | `task_loss` | `guard_inflation[:bound]` |
/// `differential[:floor]` | `reconfig_infeasible`.
fn parse_oracle(v: &str) -> Result<Oracle, CliError> {
    let (name, knob) = match v.split_once(':') {
        Some((n, k)) => (n, Some(k)),
        None => (v, None),
    };
    let mut oracle = Oracle::from_name(name).ok_or_else(|| {
        CliError(format!(
            "unknown oracle '{name}' (sla | task_loss | guard_inflation | \
             differential | reconfig_infeasible)"
        ))
    })?;
    if let Some(knob) = knob {
        let threshold: f64 = knob
            .parse()
            .map_err(|_| CliError(format!("oracle threshold '{knob}' is not a number")))?;
        if !threshold.is_finite() || threshold <= 0.0 {
            return err("oracle threshold must be a positive number");
        }
        match &mut oracle {
            Oracle::Sla { min_reliability } | Oracle::Differential { min_reliability } => {
                if threshold > 1.0 {
                    return err("a reliability floor must be in (0, 1]");
                }
                *min_reliability = threshold;
            }
            Oracle::GuardInflation { bound } => *bound = threshold,
            Oracle::TaskLoss | Oracle::ReconfigInfeasible => {
                return err(format!("oracle '{name}' takes no threshold"));
            }
        }
    }
    Ok(oracle)
}

fn parse_scheduler(v: &str) -> Result<SchedulerChoice, CliError> {
    if v == "concordia" {
        return Ok(SchedulerChoice::Concordia(ConcordiaConfig::default()));
    }
    if v == "flexran" {
        return Ok(SchedulerChoice::FlexRan);
    }
    if v == "dedicated" {
        return Ok(SchedulerChoice::Dedicated);
    }
    if let Some(thr) = v.strip_prefix("shenango:") {
        let us: u64 = thr
            .parse()
            .map_err(|_| CliError("shenango:<us> needs an integer".into()))?;
        let threshold = duration(
            "--scheduler shenango:<us>",
            us,
            Nanos::from_micros(1),
            Nanos(u64::MAX),
        )?;
        return Ok(SchedulerChoice::Shenango(threshold));
    }
    if let Some(hi) = v.strip_prefix("utilization:") {
        let hi: f64 = hi
            .parse()
            .map_err(|_| CliError("utilization:<hi> needs a number".into()))?;
        if !(0.0..=1.0).contains(&hi) {
            return err("utilization watermark must be in [0, 1]");
        }
        return Ok(SchedulerChoice::Utilization(hi));
    }
    err(format!("unknown scheduler '{v}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_are_sane() {
        let Cli {
            cfg,
            json,
            trace,
            repeat,
            jobs,
            search,
            replay,
        } = parse(&[]).unwrap();
        assert_eq!(repeat, 1);
        assert!(jobs >= 1);
        assert_eq!(cfg.n_cells, 7);
        assert_eq!(cfg.cores, 8);
        assert_eq!(cfg.scheduler.name(), "concordia");
        assert_eq!(cfg.colocation.name(), "redis");
        assert!(json.is_none());
        assert!(trace.is_none());
        assert!(search.is_none());
        assert!(replay.is_none());
    }

    #[test]
    fn full_flag_set_parses() {
        let Cli {
            cfg, json, trace, ..
        } = parse(&args(
            "--config 100mhz --cells 3 --cores 10 --scheduler shenango:50 \
             --predictor gbt --colocate mix --load 0.75 --secs 9 --seed 42 \
             --deadline-us 1200 --fpga --mac --peak --json out.json",
        ))
        .unwrap();
        assert_eq!(cfg.cell.bandwidth_mhz, 100);
        assert_eq!(cfg.n_cells, 3);
        assert_eq!(cfg.cores, 10);
        assert_eq!(
            cfg.scheduler,
            SchedulerChoice::Shenango(Nanos::from_micros(50))
        );
        assert_eq!(cfg.predictor, PredictorChoice::GradientBoosting);
        assert_eq!(cfg.colocation.name(), "mix");
        assert_eq!(cfg.load, 0.75);
        assert_eq!(cfg.duration, Nanos::from_secs(9));
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.deadline_override, Some(Nanos::from_micros(1200)));
        assert!(cfg.fpga && cfg.mac_in_pool && cfg.peak_provisioning);
        assert_eq!(json.as_deref(), Some("out.json"));
        assert!(trace.is_none());
    }

    #[test]
    fn lte_preset_selects_turbo_cells() {
        let Cli { cfg, .. } = parse(&args("--config lte")).unwrap();
        assert_eq!(cfg.cell.generation, concordia_ran::RanGeneration::Lte);
    }

    #[test]
    fn utilization_scheduler_parses() {
        let Cli { cfg, .. } = parse(&args("--scheduler utilization:0.3")).unwrap();
        assert_eq!(cfg.scheduler, SchedulerChoice::Utilization(0.3));
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(parse(&args("--load 1.5")).is_err());
        assert!(parse(&args("--secs 0")).is_err());
        assert!(parse(&args("--cells 0")).is_err());
        assert!(parse(&args("--scheduler warp")).is_err());
        assert!(parse(&args("--predictor magic")).is_err());
        assert!(parse(&args("--colocate doom")).is_err());
        assert!(parse(&args("--config 5ghz")).is_err());
        assert!(parse(&args("--nonsense")).is_err());
        assert!(parse(&args("--seed")).is_err(), "missing value");
        assert!(parse(&args("--faults meteor_strike")).is_err());
        assert!(parse(&args("--faults ,,")).is_err(), "empty list");
        assert!(parse(&args("--engine wheel")).is_err(), "retired flag");
    }

    /// The first `u64` count of a unit whose nanoseconds overflow.
    const SECS_OVERFLOW: u64 = u64::MAX / 1_000_000_000 + 1;
    const MICROS_OVERFLOW: u64 = u64::MAX / 1_000 + 1;

    #[test]
    fn durations_above_their_maxima_are_refused() {
        let max_secs = MAX_DURATION.as_nanos() / 1_000_000_000;
        let max_us = MAX_DEADLINE.as_nanos() / 1_000;
        // Past each maximum, the probes: the longest duration whose
        // nanoseconds fit the clock, which a sum wrapped (the DAG builder's
        // `arrival + deadline`, the drain's `duration + deadline`), and the
        // first one whose nanoseconds overflow.
        for (flag, max, probes) in [
            ("--secs", max_secs, [SECS_OVERFLOW - 1, SECS_OVERFLOW]),
            (
                "--deadline-us",
                max_us,
                [MICROS_OVERFLOW - 1, MICROS_OVERFLOW],
            ),
        ] {
            assert!(parse(&args(&format!("{flag} {max}"))).is_ok(), "{flag}");
            for n in [max + 1, probes[0], probes[1]] {
                assert_eq!(
                    parse(&args(&format!("{flag} {n}"))).unwrap_err(),
                    CliError(format!("{flag} {n} is above the maximum of {max}"))
                );
            }
            // USAGE documents each maximum.
            assert!(USAGE.contains(&max.to_string()), "{flag}");
        }
        let Cli { cfg, .. } =
            parse(&args(&format!("--secs {max_secs} --deadline-us {max_us}"))).unwrap();
        assert_eq!(cfg.duration, MAX_DURATION);
        assert_eq!(cfg.deadline_override, Some(MAX_DEADLINE));
    }

    #[test]
    fn the_longest_deadline_runs_without_violations() {
        let max_us = MAX_DEADLINE.as_nanos() / 1_000;
        let Cli { mut cfg, .. } =
            parse(&args(&format!("--deadline-us {max_us} --cells 1"))).unwrap();
        cfg.duration = Nanos::from_millis(100);
        cfg.profiling_slots = 200;
        let report = concordia_core::Simulation::new(cfg).run();
        assert!(report.metrics.dags > 0);
        assert_eq!(report.metrics.violations, 0);
    }

    #[test]
    fn zero_deadline_is_refused() {
        let e = parse(&args("--deadline-us 0")).unwrap_err();
        assert_eq!(e, CliError("--deadline-us must be positive".into()));
    }

    #[test]
    fn shenango_threshold_past_the_clock_is_refused() {
        let e = parse(&args(&format!("--scheduler shenango:{MICROS_OVERFLOW}"))).unwrap_err();
        assert!(
            e.0.starts_with("--scheduler shenango:<us> 18446744073709552 is above the maximum"),
            "{e:?}"
        );
    }

    #[test]
    fn supervisor_flag_enables_the_control_plane() {
        let Cli { cfg, .. } = parse(&args("--supervisor")).unwrap();
        assert_eq!(cfg.supervisor, Some(SupervisorConfig::default()));
        let Cli { cfg, .. } = parse(&[]).unwrap();
        assert!(cfg.supervisor.is_none(), "default is legacy behavior");
    }

    #[test]
    fn trace_flag_enables_tracing_and_captures_the_path() {
        let Cli {
            cfg, json, trace, ..
        } = parse(&args("--trace out.trace.json")).unwrap();
        assert_eq!(cfg.trace, Some(TraceConfig::default()));
        assert!(json.is_none());
        assert_eq!(trace.as_deref(), Some("out.trace.json"));
        // Default stays off: no hot-path recording without the flag.
        let Cli { cfg, trace, .. } = parse(&[]).unwrap();
        assert!(cfg.trace.is_none());
        assert!(trace.is_none());
        assert!(parse(&args("--trace")).is_err(), "missing value");
    }

    #[test]
    fn pool_flag_selects_the_architecture() {
        for arch in PoolArchChoice::ALL {
            let Cli { cfg, .. } = parse(&["--pool".into(), arch.name().into()]).unwrap();
            assert_eq!(cfg.pool, arch);
        }
        let Cli { cfg, .. } = parse(&[]).unwrap();
        assert_eq!(cfg.pool, PoolArchChoice::Edf, "edf is the default");
        assert!(parse(&args("--pool")).is_err(), "missing value");
        assert!(parse(&args("--pool lottery")).is_err(), "unknown arch");
    }

    #[test]
    fn corpus_flag_requires_search_and_captures_the_path() {
        let Cli { search, .. } = parse(&args("--search random --corpus corpus.json")).unwrap();
        assert_eq!(search.unwrap().corpus_path.as_deref(), Some("corpus.json"));
        let Cli { search, .. } = parse(&args("--search random")).unwrap();
        assert!(search.unwrap().corpus_path.is_none());
        assert!(parse(&args("--corpus corpus.json")).is_err());
        assert!(parse(&args("--corpus")).is_err(), "missing value");
    }

    #[test]
    fn drift_injection_is_a_valid_fault_class() {
        let Cli { cfg, .. } = parse(&args("--faults drift_injection")).unwrap();
        assert_eq!(cfg.faults.specs[0].kind, FaultKind::DriftInjection);
    }

    #[test]
    fn faults_flag_builds_a_chaos_plan() {
        let Cli { cfg, .. } = parse(&args("--faults core_offline,accel_outage")).unwrap();
        assert_eq!(cfg.faults.specs.len(), 2);
        assert_eq!(cfg.faults.specs[0].kind, FaultKind::CoreOffline);
        assert_eq!(cfg.faults.specs[1].kind, FaultKind::AccelOutage);
        // Default is fault-free.
        let Cli { cfg, .. } = parse(&[]).unwrap();
        assert!(cfg.faults.specs.is_empty());
    }

    #[test]
    fn faults_plan_scales_to_final_duration() {
        // --secs after --faults must still size the windows: the plan is
        // built after the flag loop.
        let Cli { cfg, .. } = parse(&args("--faults traffic_surge --secs 10")).unwrap();
        assert_eq!(
            cfg.faults.specs[0].latest_start,
            Nanos::from_secs(10).scale(0.45)
        );
    }

    #[test]
    fn order_of_config_and_overrides() {
        // --cells after --config must win regardless of flag order.
        let Cli { cfg, .. } = parse(&args("--cells 3 --config 100mhz")).unwrap();
        assert_eq!(cfg.n_cells, 3);
    }

    #[test]
    fn stagger_defaults_on_and_no_stagger_disables() {
        let Cli { cfg, .. } = parse(&[]).unwrap();
        assert!(cfg.cell_stagger, "staggered boundaries are the default");
        let Cli { cfg, .. } = parse(&args("--no-stagger")).unwrap();
        assert!(!cfg.cell_stagger);
    }

    #[test]
    fn repeat_and_jobs_parse_and_validate() {
        let Cli { repeat, jobs, .. } = parse(&args("--repeat 5 --jobs 3")).unwrap();
        assert_eq!(repeat, 5);
        assert_eq!(jobs, 3);
        assert!(parse(&args("--repeat 0")).is_err());
        assert!(parse(&args("--jobs 0")).is_err());
        assert!(parse(&args("--repeat x")).is_err());
    }

    #[test]
    fn reconfig_flag_loads_a_plan_file() {
        use concordia_core::ReconfigStep;
        let plan = ReconfigPlan::new(vec![
            ReconfigStep::GrowPool { cores: 2 },
            ReconfigStep::AddCell,
        ]);
        let path = std::env::temp_dir().join("concordia-args-reconfig-test.json");
        std::fs::write(&path, serde_json::to_string(&plan).unwrap()).unwrap();
        let arg = path.to_str().unwrap().to_string();
        let Cli { cfg, .. } = parse(&["--reconfig".into(), arg.clone()]).unwrap();
        let loaded = cfg.reconfig.expect("plan should be loaded");
        assert_eq!(loaded.steps.len(), 2);
        assert_eq!(loaded.steps[0], ReconfigStep::GrowPool { cores: 2 });
        // A sweep cannot take a plan, and a missing file is a parse error.
        assert!(parse(&["--repeat".into(), "2".into(), "--reconfig".into(), arg]).is_err());
        assert!(parse(&args("--reconfig /nonexistent/plan.json")).is_err());
        assert!(parse(&args("--reconfig")).is_err(), "missing value");
        // A plan that parses but fails `ReconfigPlan::validate` is refused.
        let zero = ReconfigPlan::new(vec![ReconfigStep::GrowPool { cores: 0 }]);
        std::fs::write(&path, serde_json::to_string(&zero).unwrap()).unwrap();
        let e = parse(&["--reconfig".into(), path.to_str().unwrap().into()]).unwrap_err();
        assert!(e.0.contains("zero cores"), "{}", e.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn search_flags_parse_with_knobs_and_defaults() {
        let Cli { search, .. } = parse(&args(
            "--search beam:6x2 --oracle sla:0.999 --budget 32 --ce ce.json",
        ))
        .unwrap();
        let s = search.expect("search args");
        assert_eq!(s.strategy, Strategy::Beam { width: 6, depth: 2 });
        assert_eq!(
            s.oracle,
            Oracle::Sla {
                min_reliability: 0.999
            }
        );
        assert_eq!(s.budget, 32);
        assert_eq!(s.shrink_budget, 96, "default shrink budget");
        assert_eq!(s.ce_path.as_deref(), Some("ce.json"));

        // Defaults: sla oracle, budget 64.
        let Cli { search, .. } = parse(&args("--search random:16")).unwrap();
        let s = search.unwrap();
        assert_eq!(s.strategy, Strategy::Random { batch: 16 });
        assert_eq!(s.oracle.name(), "sla");
        assert_eq!(s.budget, 64);

        let Cli { search, .. } =
            parse(&args("--search bisection:7 --oracle guard_inflation:2.5")).unwrap();
        let s = search.unwrap();
        assert_eq!(s.strategy, Strategy::Bisection { iters: 7 });
        assert_eq!(s.oracle, Oracle::GuardInflation { bound: 2.5 });
    }

    #[test]
    fn search_rejects_bad_inputs() {
        assert!(parse(&args("--search annealing")).is_err());
        assert!(parse(&args("--search random:0")).is_err());
        assert!(parse(&args("--search beam:4")).is_err(), "needs WxD");
        assert!(parse(&args("--search random --oracle magic")).is_err());
        assert!(parse(&args("--search random --oracle sla:1.5")).is_err());
        assert!(parse(&args("--search random --oracle task_loss:3")).is_err());
        assert!(parse(&args("--search random --budget 0")).is_err());
        // Search knobs without --search are an error, not silently ignored.
        assert!(parse(&args("--oracle sla")).is_err());
        assert!(parse(&args("--budget 10")).is_err());
        assert!(parse(&args("--ce ce.json")).is_err());
        // Mutually exclusive modes.
        assert!(parse(&args("--search random --repeat 3")).is_err());
        assert!(parse(&args("--search random --trace t.json")).is_err());
        assert!(parse(&args("--replay ce.json --search random")).is_err());
        assert!(parse(&args("--replay ce.json --repeat 2")).is_err());
    }

    #[test]
    fn replay_parses_a_path() {
        let Cli { replay, .. } = parse(&args("--replay ce.json")).unwrap();
        assert_eq!(replay.as_deref(), Some("ce.json"));
        assert!(parse(&args("--replay")).is_err(), "missing value");
    }

    #[test]
    fn scenario_flag_parses_names_and_knobs() {
        let Cli { cfg, .. } = parse(&args("--scenario stadium_flash_crowd:boost=3")).unwrap();
        let spec = cfg.scenario.expect("scenario set");
        assert_eq!(spec.name(), "stadium_flash_crowd");
        // Default stays scenario-free: the calibrated generator runs
        // untouched without the flag.
        let Cli { cfg, .. } = parse(&[]).unwrap();
        assert!(cfg.scenario.is_none());
        assert!(
            parse(&args("--scenario black_friday")).is_err(),
            "unknown scenario"
        );
        assert!(
            parse(&args("--scenario urban_macro_burst:warp=9")).is_err(),
            "unknown knob"
        );
        assert!(parse(&args("--scenario")).is_err(), "missing value");
    }

    #[test]
    fn scenario_file_loads_a_spec_and_excludes_the_inline_flag() {
        let spec = ScenarioSpec::parse("mmtc_background:devices=500000").unwrap();
        let path = std::env::temp_dir().join("concordia-args-scenario-test.json");
        std::fs::write(&path, serde_json::to_string(&spec).unwrap()).unwrap();
        let arg = path.to_str().unwrap().to_string();
        let Cli { cfg, .. } = parse(&["--scenario-file".into(), arg.clone()]).unwrap();
        assert_eq!(cfg.scenario.unwrap().name(), "mmtc_background");
        assert!(parse(&[
            "--scenario".into(),
            "mmtc_background".into(),
            "--scenario-file".into(),
            arg,
        ])
        .is_err());
        assert!(parse(&args("--scenario-file /nonexistent/spec.json")).is_err());
        assert!(parse(&args("--scenario-file")).is_err(), "missing value");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn counts_above_their_maxima_are_refused() {
        for (flag, max) in [
            ("--cells", u64::from(MAX_CELLS)),
            ("--cores", u64::from(MAX_CORES)),
            ("--repeat", MAX_REPEATS as u64),
            ("--jobs", MAX_JOBS as u64),
        ] {
            // The maximum parses; one more, and the probes past `u32`, are
            // refused by name. Nothing is built or started.
            assert!(parse(&args(&format!("{flag} {max}"))).is_ok(), "{flag}");
            for n in [max + 1, u64::from(u32::MAX), u64::from(u32::MAX) + 1] {
                let e = parse(&args(&format!("{flag} {n}"))).unwrap_err();
                assert_eq!(
                    e,
                    CliError(format!("{flag} {n} is above the maximum of {max}"))
                );
            }
            assert_eq!(
                parse(&args(&format!("{flag} 0"))).unwrap_err(),
                CliError(format!("{flag} must be positive"))
            );
            // USAGE documents each maximum.
            assert!(USAGE.contains(&max.to_string()), "{flag}");
        }
        let Cli { cfg, .. } =
            parse(&args(&format!("--cells {MAX_CELLS} --cores {MAX_CORES}"))).unwrap();
        assert_eq!((cfg.n_cells, cfg.cores), (MAX_CELLS, MAX_CORES));
        let Cli { jobs, .. } = parse(&[]).unwrap();
        assert!((1..=MAX_JOBS).contains(&jobs), "default --jobs {jobs}");
    }

    /// Writes `text` to a scratch file named after `name` and parses `flag`
    /// pointing at it.
    fn parse_file_flag(flag: &str, name: &str, text: &str) -> Result<Cli, CliError> {
        let path = std::env::temp_dir().join(format!("concordia-args-{name}.json"));
        std::fs::write(&path, text).unwrap();
        let parsed = parse(&[flag.into(), path.to_str().unwrap().into()]);
        std::fs::remove_file(&path).ok();
        parsed
    }

    #[test]
    fn plan_errors_name_the_step_and_field() {
        use concordia_core::ReconfigStep;
        let plan = ReconfigPlan::new(vec![
            ReconfigStep::AddCell,
            ReconfigStep::GrowPool { cores: 2 },
            ReconfigStep::SetDeadline { deadline_us: 1800 },
        ]);
        let json = serde_json::to_string(&plan).unwrap();
        let missing = json.replace("\"deadline_us\":1800", "");
        let e = parse_file_flag("--reconfig", "missing-field-plan", &missing).unwrap_err();
        assert!(
            e.0.ends_with(
                "is not a plan: steps[2].deadline_us: expected unsigned integer, got Null"
            ),
            "{}",
            e.0
        );
        let huge = json.replace("\"cores\":2", &format!("\"cores\":{}", u32::MAX));
        let e = parse_file_flag("--reconfig", "huge-plan", &huge).unwrap_err();
        assert!(
            e.0.ends_with("step #1 (grow_pool): cores add up to 4294967295 over the plan, above the maximum of 4096"),
            "{}",
            e.0
        );
    }

    #[test]
    fn scenario_file_errors_name_the_field() {
        let spec = ScenarioSpec::parse("mmtc_background:devices=500000").unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let missing = json.replace("\"devices\":500000,", "");
        let e = parse_file_flag("--scenario-file", "missing-field-scenario", &missing).unwrap_err();
        assert!(
            e.0.ends_with(
                "scenario does not parse: kind.devices: expected unsigned integer, got Null"
            ),
            "{}",
            e.0
        );
    }

    #[test]
    fn trace_is_incompatible_with_a_sweep() {
        assert!(parse(&args("--repeat 2 --trace t.json")).is_err());
        assert!(parse(&args("--repeat 1 --trace t.json")).is_ok());
    }
}
