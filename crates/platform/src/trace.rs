//! Microsecond-granularity execution tracing.
//!
//! A deterministic, fixed-capacity ring-buffer span recorder threaded
//! through the pool's hot path (task dispatch/complete/requeue, accelerator
//! offload and fallback), the scheduler (reallocation decisions, guard
//! inflation), the predictor supervisor (lane lifecycle transitions,
//! admission-level changes and rejects) and the fault timeline
//! (activation/deactivation). The paper's own design leans on a
//! low-overhead online profiler recording per-task runtimes at microsecond
//! granularity (§5); this module is the observability spine that lets the
//! reproduction answer "*why* did this window miss its deadline" instead of
//! only "how often".
//!
//! ## Determinism contract
//!
//! Recording must never perturb the simulation: [`TraceRecorder::record`]
//! touches no RNG stream, schedules no event and allocates nothing for a
//! task-level record once the ring is warm ([`TraceEvent`] is `Copy`; the
//! buffer is preallocated at construction). A run with tracing enabled
//! therefore produces a report byte-identical to the same seed with
//! tracing disabled — the `trace_overhead` bench and CI enforce this.
//!
//! When the ring is full the *oldest* record is overwritten and a dropped
//! counter is bumped, so the ring holds the most recent `capacity` records
//! of the run, which is exactly what post-mortem debugging of a late
//! deadline miss needs. The records whose count is bounded by decision
//! windows, fault windows or plan steps rather than by tasks (lane
//! transitions, admission changes, fault start and end, pool resizes and
//! reconfiguration steps) are also kept in a side list, so the export
//! holds every one of them however long the run.
//!
//! ## Exporters
//!
//! * [`export_chrome_trace`] — Chrome trace-event JSON (the
//!   `{"traceEvents": [...]}` form), loadable in Perfetto / `chrome://tracing`.
//!   One track per core plus dedicated scheduler, supervisor, accelerator
//!   and fault-timeline tracks. Records are emitted in recording order
//!   (time order), so per-track timestamps are monotone by construction.
//! * [`export_snapshots`] — the flat per-window metrics snapshots
//!   ([`WindowSnapshot`]) as a JSON array, for spreadsheet-style analysis.

use crate::faults::FaultKind;
use concordia_ran::task::TaskKind;
use concordia_ran::time::Nanos;
use serde::{Deserialize, Serialize, Value};

/// Lifecycle state of one per-kind predictor lane of the supervisor
/// (`concordia_sched::supervisor` re-exports it). It lives here so that
/// [`TraceEvent::LaneTransition`] carries the state itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneState {
    /// The primary model serves; drift detection is armed.
    Healthy,
    /// The fallback serves; the primary awaits enough fresh replay data.
    Quarantined,
    /// The fallback serves; the re-fitted primary is shadow-evaluated.
    Shadow,
}

impl LaneState {
    /// Stable display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            LaneState::Healthy => "healthy",
            LaneState::Quarantined => "quarantined",
            LaneState::Shadow => "shadow",
        }
    }
}

/// Overload admission level of the supervisor, most permissive first
/// (`concordia_sched::supervisor` re-exports it). It lives here so that
/// [`TraceEvent::Admission`] carries the level itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AdmissionLevel {
    /// Everything is admitted.
    Normal,
    /// Best-effort work is shed (the colocated workloads are throttled).
    Shed,
    /// New slot-DAG admissions are rejected with a backpressure signal.
    Reject,
}

impl AdmissionLevel {
    /// Stable display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionLevel::Normal => "normal",
            AdmissionLevel::Shed => "shed",
            AdmissionLevel::Reject => "reject",
        }
    }
}

/// Tracing configuration, carried in `SimConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Ring capacity in records. When full, the oldest record is dropped.
    pub capacity: u64,
    /// Period, in slots, of the flat per-window metrics snapshots. 0
    /// disables snapshots.
    pub snapshot_slots: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            // ~10 MB of records — enough for the last few hundred
            // milliseconds of a fully loaded 100 MHz run.
            capacity: 262_144,
            snapshot_slots: 100,
        }
    }
}

/// One traced event. `Copy` and allocation-free by design: recording on the
/// pool's hot path must not touch the allocator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A worker started executing a node (`runtime` is the sampled
    /// duration; for `offload` starts it is the CPU submission cost).
    TaskStart {
        /// Cell the DAG belongs to.
        cell: u32,
        /// Executing core.
        core: u32,
        /// DAG slot index.
        dag: u32,
        /// Node index within the DAG.
        node: u32,
        /// Task kind.
        kind: TaskKind,
        /// Sampled runtime (submission cost for offloads).
        runtime: Nanos,
        /// The node was submitted to the accelerator.
        offload: bool,
    },
    /// A worker finished a node's CPU execution (or its offload submission).
    TaskComplete {
        /// Cell the DAG belongs to.
        cell: u32,
        /// Core that ran it.
        core: u32,
        /// DAG slot index.
        dag: u32,
        /// Node index.
        node: u32,
    },
    /// A mid-execution task was requeued because its core went offline.
    TaskRequeue {
        /// Cell the DAG belongs to.
        cell: u32,
        /// The failed core.
        core: u32,
        /// DAG slot index.
        dag: u32,
        /// Node index.
        node: u32,
    },
    /// The accelerator finished an offloaded node.
    OffloadDone {
        /// Cell the DAG belongs to.
        cell: u32,
        /// DAG slot index.
        dag: u32,
        /// Node index.
        node: u32,
    },
    /// An offload fell back to the CPU path (engine absent, parked by an
    /// outage, or past its timeout budget).
    OffloadFallback {
        /// Cell the DAG belongs to.
        cell: u32,
        /// DAG slot index.
        dag: u32,
        /// Node index.
        node: u32,
    },
    /// A slot DAG completed.
    DagComplete {
        /// Cell the DAG belongs to.
        cell: u32,
        /// DAG slot index.
        dag: u32,
        /// Arrival-to-completion latency.
        latency: Nanos,
        /// Whether the deadline was missed.
        violated: bool,
    },
    /// A released core was signalled awake (the span covers the OS wake
    /// latency).
    CoreWake {
        /// Woken core.
        core: u32,
        /// Sampled wake latency.
        latency: Nanos,
    },
    /// A core was yielded back to best-effort work.
    CoreRelease {
        /// Released core.
        core: u32,
    },
    /// Fault injection took a core offline.
    CoreFail {
        /// Failed core.
        core: u32,
    },
    /// A faulted core rejoined the pool.
    CoreRestore {
        /// Restored core.
        core: u32,
    },
    /// The scheduler's target core count changed (reallocation decision).
    Realloc {
        /// New target.
        target: u32,
        /// Cores held at decision time.
        granted: u32,
        /// Ready-queue depth at decision time.
        ready: u32,
    },
    /// The misprediction guard's WCET inflation changed.
    GuardInflation {
        /// New multiplicative inflation (≥ 1.0).
        inflation: f64,
    },
    /// A supervisor lane changed lifecycle state.
    LaneTransition {
        /// Lane (task-kind index).
        lane: u8,
        /// Previous state.
        from: LaneState,
        /// New state.
        to: LaneState,
    },
    /// The supervisor's admission level changed.
    Admission {
        /// New level.
        level: AdmissionLevel,
    },
    /// Slot DAGs were refused under reject-level admission control.
    AdmissionReject {
        /// DAGs refused at this slot boundary.
        dags: u32,
    },
    /// A fault window activated.
    FaultStart {
        /// Fault class.
        kind: FaultKind,
        /// Resolved severity.
        severity: f64,
    },
    /// A fault window cleared.
    FaultEnd {
        /// Fault class.
        kind: FaultKind,
    },
    /// The pool's worker-core capacity changed at runtime (a reconfig
    /// grow/shrink).
    PoolResize {
        /// Capacity after the change.
        capacity: u32,
        /// Cores added (positive) or retired (negative).
        delta: i32,
    },
    /// A reconfiguration step was applied at a slot boundary.
    ReconfigApply {
        /// Step name (`concordia_core::reconfig::ReconfigStep::name`).
        step: &'static str,
        /// Position of the step in the executed plan order.
        index: u32,
    },
    /// An applied reconfiguration step survived its settle window.
    ReconfigCommit {
        /// Position of the step in the executed plan order.
        index: u32,
    },
    /// An applied reconfiguration step violated an invariant and was
    /// reverted.
    ReconfigRollback {
        /// Position of the step in the executed plan order.
        index: u32,
    },
}

impl TraceEvent {
    /// `true` for the events whose count is bounded by decision windows,
    /// fault windows or plan steps, which the recorder keeps even after
    /// the ring overwrites them. The per-injection
    /// [`TraceEvent::AdmissionReject`] is not one of them.
    fn outlives_the_ring(&self) -> bool {
        matches!(
            self,
            TraceEvent::LaneTransition { .. }
                | TraceEvent::Admission { .. }
                | TraceEvent::FaultStart { .. }
                | TraceEvent::FaultEnd { .. }
                | TraceEvent::PoolResize { .. }
                | TraceEvent::ReconfigApply { .. }
                | TraceEvent::ReconfigCommit { .. }
                | TraceEvent::ReconfigRollback { .. }
        )
    }
}

/// One timestamped record in the ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Simulation time of the event.
    pub t: Nanos,
    /// The event.
    pub ev: TraceEvent,
}

/// Flat per-window metrics snapshot: cumulative pool counters sampled at a
/// snapshot boundary. Differencing consecutive snapshots yields per-window
/// rates without replaying the event stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowSnapshot {
    /// Snapshot index (0, 1, 2, …).
    pub window: u64,
    /// Simulation time of the snapshot (µs).
    pub t_us: f64,
    /// Cumulative completed DAGs.
    pub dags: u64,
    /// Cumulative deadline violations.
    pub violations: u64,
    /// Cores held by the vRAN at the snapshot.
    pub granted_cores: u32,
    /// Ready-queue depth at the snapshot.
    pub ready_tasks: u64,
    /// Cumulative tasks executed.
    pub tasks_executed: u64,
    /// Cumulative offload fallbacks.
    pub offload_fallbacks: u64,
    /// Cumulative tasks requeued by core loss.
    pub tasks_requeued: u64,
    /// The misprediction guard's inflation at the snapshot.
    pub guard_inflation: f64,
}

/// Serializable summary of a recorder, embedded in `ExperimentReport`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Total events recorded (kept + dropped).
    pub events_recorded: u64,
    /// Events overwritten after the ring filled (the side list still
    /// exports the window-, fault- and step-level ones among them).
    pub events_dropped: u64,
    /// Ring capacity.
    pub capacity: u64,
    /// Per-window snapshots taken.
    pub snapshots: u64,
}

/// Fixed-capacity ring-buffer recorder. See the module docs for the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    buf: Vec<TraceRecord>,
    /// Oldest record once the ring has wrapped (0 before).
    head: usize,
    dropped: u64,
    capacity: usize,
    /// Every record whose event outlives the ring, with its sequence
    /// number (its position among all records of the run).
    kept: Vec<(u64, TraceRecord)>,
    snapshots: Vec<WindowSnapshot>,
}

impl TraceRecorder {
    /// Creates a recorder with the ring preallocated to `cfg.capacity`.
    pub fn new(cfg: TraceConfig) -> Self {
        let capacity = (cfg.capacity as usize).max(1);
        TraceRecorder {
            buf: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
            capacity,
            kept: Vec::new(),
            snapshots: Vec::new(),
        }
    }

    /// Records one event at simulation time `t`. O(1), RNG-free, and
    /// allocation-free for task-level events (the ring was preallocated).
    #[inline]
    pub fn record(&mut self, t: Nanos, ev: TraceEvent) {
        let rec = TraceRecord { t, ev };
        if ev.outlives_the_ring() {
            self.kept.push((self.buf.len() as u64 + self.dropped, rec));
        }
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Appends a per-window metrics snapshot.
    pub fn push_snapshot(&mut self, snap: WindowSnapshot) {
        self.snapshots.push(snap);
    }

    /// Every record the recorder still holds, oldest first: the kept
    /// records the ring has overwritten, then the ring's own.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        let overwritten = self.kept.partition_point(|&(seq, _)| seq < self.dropped);
        self.kept[..overwritten]
            .iter()
            .map(|(_, rec)| rec)
            .chain(&self.buf[self.head..])
            .chain(&self.buf[..self.head])
    }

    /// Records currently in the ring.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The per-window snapshots, in order.
    pub fn snapshots(&self) -> &[WindowSnapshot] {
        &self.snapshots
    }

    /// Serializable summary for the experiment report.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            events_recorded: self.buf.len() as u64 + self.dropped,
            events_dropped: self.dropped,
            capacity: self.capacity as u64,
            snapshots: self.snapshots.len() as u64,
        }
    }
}

/// Track (tid) of the scheduler's decision stream in the Chrome export.
pub const TID_SCHEDULER: u32 = 1000;
/// Track of the supervisor lifecycle/admission stream.
pub const TID_SUPERVISOR: u32 = 1001;
/// Track of the fault timeline.
pub const TID_FAULTS: u32 = 1002;
/// Track of the accelerator offload stream.
pub const TID_ACCEL: u32 = 1003;
/// Track of the live-reconfiguration stream (step apply/commit/rollback,
/// pool capacity changes).
pub const TID_RECONFIG: u32 = 1004;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn us(t: Nanos) -> Value {
    Value::F64(t.as_nanos() as f64 / 1000.0)
}

fn meta_thread(tid: u32, name: &str) -> Value {
    obj(vec![
        ("name", Value::Str("thread_name".into())),
        ("ph", Value::Str("M".into())),
        ("pid", Value::U64(1)),
        ("tid", Value::U64(tid as u64)),
        ("args", obj(vec![("name", Value::Str(name.into()))])),
    ])
}

fn span(name: &str, tid: u32, t: Nanos, dur: Nanos, args: Value) -> Value {
    obj(vec![
        ("name", Value::Str(name.into())),
        ("ph", Value::Str("X".into())),
        ("pid", Value::U64(1)),
        ("tid", Value::U64(tid as u64)),
        ("ts", us(t)),
        ("dur", Value::F64(dur.as_nanos() as f64 / 1000.0)),
        ("args", args),
    ])
}

fn instant(name: &str, tid: u32, t: Nanos, args: Value) -> Value {
    obj(vec![
        ("name", Value::Str(name.into())),
        ("ph", Value::Str("i".into())),
        ("s", Value::Str("t".into())),
        ("pid", Value::U64(1)),
        ("tid", Value::U64(tid as u64)),
        ("ts", us(t)),
        ("args", args),
    ])
}

fn counter(name: &str, tid: u32, t: Nanos, args: Value) -> Value {
    obj(vec![
        ("name", Value::Str(name.into())),
        ("ph", Value::Str("C".into())),
        ("pid", Value::U64(1)),
        ("tid", Value::U64(tid as u64)),
        ("ts", us(t)),
        ("args", args),
    ])
}

/// Exports the recorder as Chrome trace-event JSON (a [`Value`] tree; call
/// `serde_json::to_string` on it). Loadable in Perfetto: one track per
/// core, plus scheduler / supervisor / accelerator / fault-timeline tracks.
/// Events are emitted in recording (time) order, so per-track timestamps
/// are monotone; the per-window snapshots ride along under a
/// `concordiaSnapshots` key that trace viewers ignore.
pub fn export_chrome_trace(rec: &TraceRecorder) -> Value {
    let mut events: Vec<Value> = Vec::new();

    // Thread-name metadata for every core track that appears, then the
    // fixed tracks.
    let mut max_core: Option<u32> = None;
    for r in rec.iter() {
        let core = match r.ev {
            TraceEvent::TaskStart { core, .. }
            | TraceEvent::TaskComplete { core, .. }
            | TraceEvent::TaskRequeue { core, .. }
            | TraceEvent::CoreWake { core, .. }
            | TraceEvent::CoreRelease { core }
            | TraceEvent::CoreFail { core }
            | TraceEvent::CoreRestore { core } => Some(core),
            _ => None,
        };
        if let Some(c) = core {
            max_core = Some(max_core.map_or(c, |m| m.max(c)));
        }
    }
    if let Some(m) = max_core {
        for c in 0..=m {
            events.push(meta_thread(c, &format!("core {c}")));
        }
    }
    events.push(meta_thread(TID_SCHEDULER, "scheduler"));
    events.push(meta_thread(TID_SUPERVISOR, "supervisor"));
    events.push(meta_thread(TID_FAULTS, "faults"));
    events.push(meta_thread(TID_ACCEL, "accel"));
    events.push(meta_thread(TID_RECONFIG, "reconfig"));

    for r in rec.iter() {
        let t = r.t;
        match r.ev {
            TraceEvent::TaskStart {
                cell,
                core,
                dag,
                node,
                kind,
                runtime,
                offload,
            } => events.push(span(
                kind.name(),
                core,
                t,
                runtime,
                obj(vec![
                    ("cell", Value::U64(cell as u64)),
                    ("dag", Value::U64(dag as u64)),
                    ("node", Value::U64(node as u64)),
                    ("offload", Value::Bool(offload)),
                ]),
            )),
            TraceEvent::TaskComplete {
                cell,
                core,
                dag,
                node,
            } => events.push(instant(
                "task_complete",
                core,
                t,
                obj(vec![
                    ("cell", Value::U64(cell as u64)),
                    ("dag", Value::U64(dag as u64)),
                    ("node", Value::U64(node as u64)),
                ]),
            )),
            TraceEvent::TaskRequeue {
                cell,
                core,
                dag,
                node,
            } => events.push(instant(
                "task_requeue",
                core,
                t,
                obj(vec![
                    ("cell", Value::U64(cell as u64)),
                    ("dag", Value::U64(dag as u64)),
                    ("node", Value::U64(node as u64)),
                ]),
            )),
            TraceEvent::OffloadDone { cell, dag, node } => events.push(instant(
                "offload_done",
                TID_ACCEL,
                t,
                obj(vec![
                    ("cell", Value::U64(cell as u64)),
                    ("dag", Value::U64(dag as u64)),
                    ("node", Value::U64(node as u64)),
                ]),
            )),
            TraceEvent::OffloadFallback { cell, dag, node } => events.push(instant(
                "offload_fallback",
                TID_ACCEL,
                t,
                obj(vec![
                    ("cell", Value::U64(cell as u64)),
                    ("dag", Value::U64(dag as u64)),
                    ("node", Value::U64(node as u64)),
                ]),
            )),
            TraceEvent::DagComplete {
                cell,
                dag,
                latency,
                violated,
            } => events.push(instant(
                if violated {
                    "dag_violated"
                } else {
                    "dag_complete"
                },
                TID_SCHEDULER,
                t,
                obj(vec![
                    ("cell", Value::U64(cell as u64)),
                    ("dag", Value::U64(dag as u64)),
                    ("latency_us", Value::F64(latency.as_micros_f64())),
                    ("violated", Value::Bool(violated)),
                ]),
            )),
            TraceEvent::CoreWake { core, latency } => events.push(span(
                "wake",
                core,
                t,
                latency,
                obj(vec![("latency_us", Value::F64(latency.as_micros_f64()))]),
            )),
            TraceEvent::CoreRelease { core } => {
                events.push(instant("core_release", core, t, obj(vec![])))
            }
            TraceEvent::CoreFail { core } => {
                events.push(instant("core_fail", core, t, obj(vec![])))
            }
            TraceEvent::CoreRestore { core } => {
                events.push(instant("core_restore", core, t, obj(vec![])))
            }
            TraceEvent::Realloc {
                target,
                granted,
                ready,
            } => events.push(counter(
                "cores",
                TID_SCHEDULER,
                t,
                obj(vec![
                    ("target", Value::U64(target as u64)),
                    ("granted", Value::U64(granted as u64)),
                    ("ready", Value::U64(ready as u64)),
                ]),
            )),
            TraceEvent::GuardInflation { inflation } => events.push(counter(
                "guard_inflation",
                TID_SCHEDULER,
                t,
                obj(vec![("inflation", Value::F64(inflation))]),
            )),
            TraceEvent::LaneTransition { lane, from, to } => events.push(instant(
                &format!("lane{} {}->{}", lane, from.name(), to.name()),
                TID_SUPERVISOR,
                t,
                obj(vec![
                    ("lane", Value::U64(lane as u64)),
                    ("from", Value::Str(from.name().into())),
                    ("to", Value::Str(to.name().into())),
                ]),
            )),
            TraceEvent::Admission { level } => events.push(instant(
                &format!("admission {}", level.name()),
                TID_SUPERVISOR,
                t,
                obj(vec![("level", Value::Str(level.name().into()))]),
            )),
            TraceEvent::AdmissionReject { dags } => events.push(instant(
                "admission_reject",
                TID_SUPERVISOR,
                t,
                obj(vec![("dags", Value::U64(dags as u64))]),
            )),
            TraceEvent::FaultStart { kind, severity } => events.push(instant(
                &format!("{} start", kind.name()),
                TID_FAULTS,
                t,
                obj(vec![
                    ("kind", Value::Str(kind.name().into())),
                    ("severity", Value::F64(severity)),
                ]),
            )),
            TraceEvent::FaultEnd { kind } => events.push(instant(
                &format!("{} end", kind.name()),
                TID_FAULTS,
                t,
                obj(vec![("kind", Value::Str(kind.name().into()))]),
            )),
            TraceEvent::PoolResize { capacity, delta } => events.push(counter(
                "pool_capacity",
                TID_RECONFIG,
                t,
                obj(vec![
                    ("capacity", Value::U64(capacity as u64)),
                    ("delta", Value::F64(delta as f64)),
                ]),
            )),
            TraceEvent::ReconfigApply { step, index } => events.push(instant(
                &format!("apply {step}"),
                TID_RECONFIG,
                t,
                obj(vec![
                    ("step", Value::Str(step.into())),
                    ("index", Value::U64(index as u64)),
                ]),
            )),
            TraceEvent::ReconfigCommit { index } => events.push(instant(
                "reconfig_commit",
                TID_RECONFIG,
                t,
                obj(vec![("index", Value::U64(index as u64))]),
            )),
            TraceEvent::ReconfigRollback { index } => events.push(instant(
                "reconfig_rollback",
                TID_RECONFIG,
                t,
                obj(vec![("index", Value::U64(index as u64))]),
            )),
        }
    }

    obj(vec![
        ("traceEvents", Value::Seq(events)),
        ("displayTimeUnit", Value::Str("ns".into())),
        ("concordiaDropped", Value::U64(rec.dropped())),
        ("concordiaSnapshots", rec.snapshots.serialize()),
    ])
}

/// Exports the flat per-window metrics snapshots as a [`Value`] array.
pub fn export_snapshots(rec: &TraceRecorder) -> Value {
    rec.snapshots.serialize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(core: u32) -> TraceEvent {
        TraceEvent::CoreRelease { core }
    }

    #[test]
    fn ring_keeps_the_newest_records() {
        let mut r = TraceRecorder::new(TraceConfig {
            capacity: 4,
            snapshot_slots: 0,
        });
        for i in 0..10u64 {
            let e = match i {
                0 => TraceEvent::Admission {
                    level: AdmissionLevel::Shed,
                },
                1 => TraceEvent::AdmissionReject { dags: 1 },
                9 => TraceEvent::ReconfigCommit { index: 0 },
                _ => ev(i as u32),
            };
            r.record(Nanos(i), e);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        // The overwritten admission change is still yielded, the
        // per-injection reject is not, and the commit in the ring once.
        let times: Vec<u64> = r.iter().map(|rec| rec.t.as_nanos()).collect();
        assert_eq!(times, vec![0, 6, 7, 8, 9]);
        let s = r.summary();
        assert_eq!(s.events_recorded, 10);
        assert_eq!(s.events_dropped, 6);
        assert_eq!(s.capacity, 4);
    }

    #[test]
    fn ring_below_capacity_keeps_everything_in_order() {
        let mut r = TraceRecorder::new(TraceConfig::default());
        for i in 0..100u64 {
            r.record(Nanos(i), ev(0));
        }
        assert_eq!(r.len(), 100);
        assert_eq!(r.dropped(), 0);
        let times: Vec<u64> = r.iter().map(|rec| rec.t.as_nanos()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn recording_does_not_reallocate_the_ring() {
        let mut r = TraceRecorder::new(TraceConfig {
            capacity: 8,
            snapshot_slots: 0,
        });
        let before = r.buf.capacity();
        for i in 0..1000u64 {
            r.record(Nanos(i), ev(0));
        }
        assert_eq!(r.buf.capacity(), before, "hot path must not reallocate");
    }

    #[test]
    fn chrome_export_is_wellformed_and_monotone() {
        let mut r = TraceRecorder::new(TraceConfig::default());
        r.record(
            Nanos(1_000),
            TraceEvent::TaskStart {
                cell: 0,
                core: 0,
                dag: 0,
                node: 0,
                kind: TaskKind::Fft,
                runtime: Nanos(2_000),
                offload: false,
            },
        );
        r.record(
            Nanos(3_000),
            TraceEvent::TaskComplete {
                cell: 0,
                core: 0,
                dag: 0,
                node: 0,
            },
        );
        r.record(
            Nanos(3_000),
            TraceEvent::DagComplete {
                cell: 0,
                dag: 0,
                latency: Nanos(3_000),
                violated: false,
            },
        );
        r.record(
            Nanos(4_000),
            TraceEvent::FaultStart {
                kind: FaultKind::CoreOffline,
                severity: 0.5,
            },
        );
        r.push_snapshot(WindowSnapshot {
            window: 0,
            t_us: 4.0,
            dags: 1,
            violations: 0,
            granted_cores: 1,
            ready_tasks: 0,
            tasks_executed: 1,
            offload_fallbacks: 0,
            tasks_requeued: 0,
            guard_inflation: 1.0,
        });
        let v = export_chrome_trace(&r);
        let json = serde_json::to_string(&v).unwrap();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\"") || json.contains("\"ph\":\"X\""));
        // Parse back and check per-track monotone timestamps.
        let back: Value = serde_json::from_str(&json).unwrap();
        let Value::Map(top) = &back else {
            panic!("top level must be an object")
        };
        let events = top
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .unwrap();
        let Value::Seq(events) = events else {
            panic!("traceEvents must be an array")
        };
        assert!(!events.is_empty());
        let mut last_ts: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
        for e in events {
            let Value::Map(m) = e else {
                panic!("event must be an object")
            };
            let ph = m.iter().find(|(k, _)| k == "ph").map(|(_, v)| v).unwrap();
            if matches!(ph, Value::Str(s) if s == "M") {
                continue;
            }
            let tid = match m.iter().find(|(k, _)| k == "tid").map(|(_, v)| v) {
                Some(Value::U64(t)) => *t,
                other => panic!("tid must be an integer, got {other:?}"),
            };
            let ts = match m.iter().find(|(k, _)| k == "ts").map(|(_, v)| v) {
                Some(Value::F64(t)) => *t,
                Some(Value::U64(t)) => *t as f64,
                other => panic!("ts must be a number, got {other:?}"),
            };
            if let Some(prev) = last_ts.get(&tid) {
                assert!(ts >= *prev, "track {tid} went backwards: {prev} -> {ts}");
            }
            last_ts.insert(tid, ts);
        }
    }

    #[test]
    fn a_record_is_forty_bytes() {
        // The ring preallocates `capacity` records (~10 MB at the default
        // 262,144); a wider event variant would widen every record.
        assert_eq!(std::mem::size_of::<TraceRecord>(), 40);
    }

    #[test]
    fn snapshot_export_round_trips() {
        let mut r = TraceRecorder::new(TraceConfig::default());
        r.push_snapshot(WindowSnapshot {
            window: 3,
            t_us: 1500.0,
            dags: 42,
            violations: 1,
            granted_cores: 6,
            ready_tasks: 2,
            tasks_executed: 900,
            offload_fallbacks: 0,
            tasks_requeued: 1,
            guard_inflation: 1.25,
        });
        let json = serde_json::to_string(&export_snapshots(&r)).unwrap();
        let back: Vec<WindowSnapshot> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r.snapshots);
    }
}
