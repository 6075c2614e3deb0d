//! # concordia-platform
//!
//! Discrete-event simulator of the compute platform the paper runs on: a
//! pool of CPU cores executing vRAN worker threads next to best-effort
//! workloads under a non-real-time OS.
//!
//! * [`events`] — deterministic event queue.
//! * [`faults`] — seed-deterministic fault injection (core loss/stall,
//!   accelerator outage/timeout, predictor bias, storms, traffic surges).
//! * [`oslat`] — Linux wake-latency model (Fig. 10 shapes).
//! * [`cache`] — LLC interference model + modeled perf counters (Fig. 9).
//! * [`workloads`] — Redis/Nginx/TPCC/MLPerf/Mix best-effort models
//!   (Fig. 8 beneficiaries and §2.3 interference sources).
//! * [`sched_api`] — the [`PoolScheduler`] decision interface.
//! * [`pool`] — the vRAN pool simulator (workers, EDF queues, DAG
//!   execution, rotation, metrics).
//! * [`metrics`] — latency/reliability/reclaimed-CPU accounting.
//! * [`trace`] — microsecond-granularity ring-buffer span recorder +
//!   Chrome-trace/snapshot exporters (the observability spine).

pub mod arch;
pub mod cache;
pub mod events;
pub mod faults;
pub mod metrics;
pub mod oslat;
pub mod pool;
pub mod sched_api;
pub mod trace;
pub mod workloads;

pub use arch::PoolArchChoice;
pub use cache::CounterAccumulator;
pub use faults::{FaultKind, FaultPlan, FaultSpec, FaultTimeline, FaultWindow};
pub use metrics::{MetricsSummary, PoolMetrics, SlotLatencyRecorder, SlotOutcome};
pub use pool::{Observation, PoolConfig, ScheduledDag, VranPool};
pub use sched_api::{
    DagProgress, DedicatedScheduler, PoolArchitecture, PoolScheduler, PoolView, ReadyTask,
};
pub use trace::{
    export_chrome_trace, export_snapshots, TraceConfig, TraceEvent, TraceRecord, TraceRecorder,
    TraceSummary, WindowSnapshot,
};
pub use workloads::{MixSchedule, WorkloadKind, WorkloadProfile};
