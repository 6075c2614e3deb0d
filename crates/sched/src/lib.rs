//! # concordia-sched
//!
//! vRAN pool schedulers.
//!
//! * [`concordia`] — the paper's contribution: a 20 µs federated
//!   mixed-criticality deadline scheduler driven by per-DAG WCET
//!   predictions, with a critical stage that evicts all best-effort work
//!   when slack runs out (§3, \[61\]).
//! * [`baselines`] — vanilla FlexRAN (queue-driven), the Shenango variant
//!   (queue-delay threshold) and the utilization-based scheduler (§6.3).
//! * [`guard`] — misprediction guardrail: inflates WCET predictions after
//!   a run of consecutive underestimates (fault-tolerance for a corrupted
//!   or mis-calibrated predictor).
//! * [`supervisor`] — the predictor control plane: drift detection,
//!   quarantine with generation-counted hot-swap, online retraining with a
//!   shadow-evaluation gate, and overload admission control.

pub mod baselines;
pub mod concordia;
pub mod guard;
pub mod supervisor;

pub use baselines::{FlexRanScheduler, ShenangoScheduler, UtilizationScheduler};
pub use concordia::{ConcordiaConfig, ConcordiaScheduler};
pub use guard::MispredictionGuard;
pub use supervisor::{
    AdmissionLevel, LaneState, PredictorSupervisor, SupervisorConfig, SupervisorCounters,
};
