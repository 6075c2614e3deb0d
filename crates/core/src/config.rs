//! Experiment configuration.

use concordia_platform::arch::PoolArchChoice;
use concordia_platform::events::EngineChoice;
use concordia_platform::faults::FaultPlan;
use concordia_platform::trace::TraceConfig;
use concordia_platform::workloads::WorkloadKind;
use concordia_ran::cell::CellConfig;
use concordia_ran::time::Nanos;
use concordia_sched::concordia::ConcordiaConfig;
use concordia_sched::supervisor::SupervisorConfig;
use concordia_traffic::scenario::ScenarioSpec;
use serde::{Deserialize, Serialize};

/// Which pool scheduler an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SchedulerChoice {
    /// The Concordia federated mixed-criticality scheduler (§3).
    Concordia(ConcordiaConfig),
    /// Vanilla FlexRAN queue-driven baseline.
    FlexRan,
    /// Shenango variant with the given queue-delay threshold (§6.3).
    Shenango(Nanos),
    /// Utilization-based scheduler with the given high watermark (§6.3).
    Utilization(f64),
    /// Full isolation: the vRAN holds every core all the time (§2.3
    /// operator practice).
    Dedicated,
}

impl SchedulerChoice {
    /// Concordia with the paper's defaults.
    pub fn concordia() -> Self {
        SchedulerChoice::Concordia(ConcordiaConfig::default())
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerChoice::Concordia(_) => "concordia",
            SchedulerChoice::FlexRan => "flexran",
            SchedulerChoice::Shenango(_) => "shenango",
            SchedulerChoice::Utilization(_) => "utilization",
            SchedulerChoice::Dedicated => "dedicated",
        }
    }
}

/// Which WCET predictor feeds the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PredictorChoice {
    /// Quantile decision trees (the Concordia predictor, §4.2).
    QuantileDt,
    /// Linear regression + residual quantile (§6.4 baseline).
    LinearRegression,
    /// Gradient boosting + residual quantile (§6.4 baseline).
    GradientBoosting,
    /// Single-value EVT pWCET (§6.3 conventional baseline).
    PwcetEvt,
    /// Ground-truth expected cost scaled by a fixed margin (oracle
    /// ablation; not available to a real system).
    Oracle,
}

impl PredictorChoice {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PredictorChoice::QuantileDt => "quantile_dt",
            PredictorChoice::LinearRegression => "linear_regression",
            PredictorChoice::GradientBoosting => "gradient_boosting",
            PredictorChoice::PwcetEvt => "pwcet_evt",
            PredictorChoice::Oracle => "oracle",
        }
    }

    /// Whether the model is fitted on Algorithm 1's selected features;
    /// the pWCET and oracle models read none.
    pub(crate) fn reads_features(self) -> bool {
        !matches!(self, PredictorChoice::PwcetEvt | PredictorChoice::Oracle)
    }
}

/// The collocated best-effort load of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Colocation {
    /// vRAN in isolation (the recommended FlexRAN deployment).
    Isolated,
    /// A single saturating workload.
    Single(WorkloadKind),
    /// The randomized on/off mix of all workloads (§6).
    Mix,
}

impl Colocation {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Colocation::Isolated => "isolated",
            Colocation::Single(k) => k.name(),
            Colocation::Mix => "mix",
        }
    }
}

/// The most cells a configuration may pool: the CLI, scenarios and the
/// bench harness refuse more. The largest deployment any configuration in
/// the repository runs has 100 cells.
pub const MAX_CELLS: u32 = 1_024;

/// The longest online phase a configuration may run, about 11.6 days: the
/// CLI, scenarios and the bench harness refuse longer ones. The paper's own
/// validation ran 8 hours. With the longest deadline,
/// [`MAX_DEADLINE`](concordia_ran::cell::MAX_DEADLINE), taken twice, it
/// uses under a ten-thousandth of the nanosecond clock (584 years).
pub const MAX_DURATION: Nanos = Nanos::from_secs(1_000_000);

/// Full configuration of one end-to-end experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Per-cell radio configuration.
    pub cell: CellConfig,
    /// Number of pooled cells (Table 1: 2 × 100 MHz or 7 × 20 MHz).
    pub n_cells: u32,
    /// Stagger the cells' slot boundaries evenly across one slot (real
    /// co-located carriers are not slot-synchronous; interleaved
    /// boundaries are what lets the shared pool multiplex their compute
    /// peaks, §2/Table 2). Disable to force all boundaries onto one
    /// global clock — the worst case for sharing.
    pub cell_stagger: bool,
    /// vRAN pool cores.
    pub cores: u32,
    /// Scheduler under test.
    pub scheduler: SchedulerChoice,
    /// Predictor feeding the scheduler.
    pub predictor: PredictorChoice,
    /// Collocated workload.
    pub colocation: Colocation,
    /// Cell traffic load as a fraction of max average load (Fig. 8 x-axis).
    pub load: f64,
    /// Simulated duration of the online phase.
    pub duration: Nanos,
    /// Root seed; every component forks a deterministic stream from it.
    pub seed: u64,
    /// Override of the cell's DAG deadline (Fig. 15b sweep).
    pub deadline_override: Option<Nanos>,
    /// Enable the §7 FPGA LDPC offload.
    pub fpga: bool,
    /// Offline profiling slots (each yields one UL + one DL DAG of
    /// samples); §5 collects 500 K samples — ~6 K slots suffice here.
    pub profiling_slots: usize,
    /// Keep feeding online observations to the predictor (§4.2 online
    /// phase). Disable for the frozen-model ablation.
    pub online_updates: bool,
    /// §7 extension: run the MAC-layer schedulers as deadline tasks of the
    /// vRAN pool instead of on dedicated cores.
    pub mac_in_pool: bool,
    /// Provision-for-peak traffic mode: every slot carries close to the
    /// cell's peak volume (Table 2/3's "minimum # CPU cores required to
    /// process the peak traffic"), instead of the bursty average-load trace.
    pub peak_provisioning: bool,
    /// Faults injected during the online phase (empty = fault-free). The
    /// plan resolves to concrete windows from the root seed, so fault
    /// experiments stay bit-reproducible.
    pub faults: FaultPlan,
    /// The predictor control plane (drift detection, quarantine, online
    /// retraining, admission control). `None` = legacy behavior: the model
    /// bank serves directly with no lifecycle management.
    pub supervisor: Option<SupervisorConfig>,
    /// Microsecond-granularity event tracing. `None` (the default) records
    /// nothing and adds no hot-path work; `Some` turns on the ring-buffer
    /// recorder, which by contract never perturbs simulation results.
    pub trace: Option<TraceConfig>,
    /// Live reconfiguration plan applied to the running simulation at slot
    /// boundaries, under per-slot invariant checking with automatic
    /// rollback. `None` (and an empty plan) mean a static configuration
    /// for the whole run, byte-identical to the pre-reconfig behaviour.
    pub reconfig: Option<crate::reconfig::ReconfigPlan>,
    /// Event engine; the calendar queue is the only one (see
    /// [`EngineChoice`]). Never serialized, so configs carry no engine key.
    #[serde(default, skip_serializing_if = "EngineChoice::is_default")]
    pub engine: EngineChoice,
    /// Worker-pool architecture (`edf` by default: the paper's centralized
    /// earliest-deadline queue; `cfcfs`/`dfcfs`/`steal`/`pipeline` are the
    /// §6.3 design-space alternatives). Skipped when default so existing
    /// serialized configs stay byte-identical.
    #[serde(default, skip_serializing_if = "PoolArchChoice::is_default")]
    pub pool: PoolArchChoice,
    /// Workload scenario (`traffic::scenario` library): a time-varying,
    /// cross-cell-correlated demand envelope with per-slice deadlines and
    /// a per-platform compute scale. `None` (the default, skipped when
    /// serializing) is the plain calibrated generator, byte-identical to
    /// the pre-scenario behaviour.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub scenario: Option<ScenarioSpec>,
}

impl SimConfig {
    /// The paper's 100 MHz evaluation setup (Table 1/2): 2 TDD cells,
    /// 12 cores, Concordia + QDT, isolated, full load, 10 s.
    pub fn paper_100mhz() -> SimConfig {
        SimConfig {
            cell: CellConfig::tdd_100mhz(),
            n_cells: 2,
            cell_stagger: true,
            cores: 12,
            scheduler: SchedulerChoice::concordia(),
            predictor: PredictorChoice::QuantileDt,
            colocation: Colocation::Isolated,
            load: 1.0,
            duration: Nanos::from_secs(10),
            seed: 1,
            deadline_override: None,
            fpga: false,
            profiling_slots: 3_000,
            online_updates: true,
            mac_in_pool: false,
            peak_provisioning: false,
            faults: FaultPlan::none(),
            supervisor: None,
            trace: None,
            reconfig: None,
            engine: EngineChoice::default(),
            pool: PoolArchChoice::default(),
            scenario: None,
        }
    }

    /// The paper's 20 MHz evaluation setup (Table 1/2): 7 FDD cells,
    /// 8 cores.
    pub fn paper_20mhz() -> SimConfig {
        SimConfig {
            cell: CellConfig::fdd_20mhz(),
            n_cells: 7,
            cores: 8,
            ..Self::paper_100mhz()
        }
    }

    /// Effective DAG deadline (override or cell default).
    pub fn deadline(&self) -> Nanos {
        self.deadline_override.unwrap_or(self.cell.deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_tables() {
        let c = SimConfig::paper_100mhz();
        assert_eq!(c.n_cells, 2);
        assert_eq!(c.cores, 12);
        assert_eq!(c.deadline(), Nanos::from_micros(1500));
        let c = SimConfig::paper_20mhz();
        assert_eq!(c.n_cells, 7);
        assert_eq!(c.cores, 8);
        assert_eq!(c.deadline(), Nanos::from_millis(2));
    }

    #[test]
    fn deadline_override_wins() {
        let mut c = SimConfig::paper_20mhz();
        c.deadline_override = Some(Nanos::from_micros(1600));
        assert_eq!(c.deadline(), Nanos::from_micros(1600));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SchedulerChoice::concordia().name(), "concordia");
        assert_eq!(SchedulerChoice::FlexRan.name(), "flexran");
        assert_eq!(PredictorChoice::QuantileDt.name(), "quantile_dt");
        assert_eq!(Colocation::Isolated.name(), "isolated");
        assert_eq!(Colocation::Single(WorkloadKind::Redis).name(), "redis");
    }

    #[test]
    fn config_serializes() {
        let c = SimConfig::paper_100mhz();
        let json = serde_json::to_string(&c).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n_cells, 2);
        assert_eq!(back.scheduler.name(), "concordia");
    }

    #[test]
    fn engine_field_never_serializes_and_rejects_retired_engines() {
        let c = SimConfig::paper_100mhz();
        let json = serde_json::to_string(&c).unwrap();
        assert!(
            !json.contains("\"engine\""),
            "the engine must not serialize (golden bytes): {json}"
        );
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.engine, EngineChoice::Wheel);

        let wheel = json.replacen('{', "{\"engine\":\"Wheel\",", 1);
        let back: SimConfig = serde_json::from_str(&wheel).unwrap();
        assert_eq!(back.engine, EngineChoice::Wheel);
        let legacy = json.replacen('{', "{\"engine\":\"Legacy\",", 1);
        assert!(
            serde_json::from_str::<SimConfig>(&legacy).is_err(),
            "the retired binary-heap engine must fail to load"
        );
    }

    #[test]
    fn pool_field_skips_default_and_round_trips() {
        let c = SimConfig::paper_100mhz();
        let json = serde_json::to_string(&c).unwrap();
        assert!(
            !json.contains("\"pool\""),
            "default pool architecture must not serialize (golden bytes): {json}"
        );
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.pool, PoolArchChoice::Edf);

        for arch in PoolArchChoice::ALL {
            let mut cfg = SimConfig::paper_100mhz();
            cfg.pool = arch;
            let json = serde_json::to_string(&cfg).unwrap();
            let back: SimConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back.pool, arch, "{} must round-trip", arch.name());
        }
    }

    #[test]
    fn scenario_field_skips_none_and_round_trips() {
        let c = SimConfig::paper_100mhz();
        let json = serde_json::to_string(&c).unwrap();
        assert!(
            !json.contains("\"scenario\""),
            "no scenario must not serialize (golden bytes): {json}"
        );
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert!(back.scenario.is_none());

        let mut cfg = SimConfig::paper_100mhz();
        cfg.scenario = Some(ScenarioSpec::parse("stadium_flash_crowd:boost=3.0").unwrap());
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(json.contains("\"scenario\""));
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.scenario, cfg.scenario);
    }

    #[test]
    fn config_without_reconfig_key_deserializes() {
        // Pre-reconfig config files have no "reconfig" key; a missing key
        // reads as null, which an Option maps to None.
        let json = serde_json::to_string(&SimConfig::paper_100mhz()).unwrap();
        let stripped = json
            .replace(",\"reconfig\":null", "")
            .replace(", \"reconfig\": null", "");
        assert_ne!(json, stripped, "the reconfig key must have been present");
        let back: SimConfig = serde_json::from_str(&stripped).unwrap();
        assert!(back.reconfig.is_none());
    }
}
