//! # concordia-core
//!
//! The end-to-end Concordia simulation engine: composes the 5G domain
//! model, traffic generation, the compute-platform simulator, the WCET
//! predictors and the schedulers into runnable experiments that reproduce
//! the paper's evaluation.
//!
//! * [`config`] — experiment configuration (cells × cores × scheduler ×
//!   predictor × colocation × load × deadline).
//! * [`profile`] — the offline profiling phase and predictor training
//!   (§4.2, §5), and the cache that shares feature selections between
//!   experiments with the same offline inputs.
//! * [`sim`] — the online slot loop: traffic → DAGs → predictions →
//!   scheduling → execution → online adaptation.
//! * [`reconfig`] — live reconfiguration: typed step plans applied to a
//!   running simulation under per-slot invariant checking, with automatic
//!   rollback and safe-order search.
//! * [`report`] — serializable experiment reports.
//! * [`runner`] — the parallel experiment runner and seed sweeps.

pub mod config;
pub mod profile;
pub mod reconfig;
pub mod report;
pub mod runner;
pub mod sim;

pub use concordia_traffic::scenario::{
    Platform, ScenarioError, ScenarioKind, ScenarioRuntime, ScenarioSpec,
};
pub use config::{Colocation, PredictorChoice, SchedulerChoice, SimConfig};
pub use profile::{OfflineCache, OfflinePhases};
pub use reconfig::{
    search_safe_order, InvariantConfig, ReconfigPlan, ReconfigPlanError, ReconfigStep, SearchReport,
};
pub use report::{
    fnv1a_hex, ExperimentReport, FaultReport, FaultWindowReport, ReconfigReport, WorkloadReport,
};
pub use runner::{run_parallel, run_sweep, BatchEval, ParallelEval, SweepReport};
pub use sim::{run_experiment, Simulation};
