//! The vRAN pool simulator.
//!
//! A discrete-event model of the queue-based worker-thread design of §2.1
//! (Fig. 2): worker threads pinned to cores pull the earliest-deadline task
//! from a priority queue, completed tasks release their DAG successors (one
//! kept locally for cache efficiency, the rest re-queued), idle workers
//! either busy-wait or yield the core to the OS, and yielded workers pay an
//! OS wake latency when signalled back (§2.3).
//!
//! A pluggable [`PoolScheduler`] chooses how many cores the vRAN holds at
//! every tick; the pool rotates the physical cores every 2 ms (§5) and
//! accounts reclaimed core-time, wake events/latencies, interference
//! counters and per-DAG slot latencies — everything the paper's evaluation
//! reads out.

use crate::accel_state::FpgaState;
use crate::arch::PoolArchChoice;
use crate::cache::{CacheModel, WARMUP};
use crate::events::{CalendarQueue, EngineChoice};
use crate::faults::{FaultKind, FaultTimeline};
use crate::metrics::PoolMetrics;
use crate::oslat::OsLatencyModel;
use crate::sched_api::{DagProgress, PoolArchitecture, PoolScheduler, PoolView, ReadyTask};
use crate::trace::{TraceConfig, TraceEvent, TraceRecorder, TraceSummary, WindowSnapshot};
use concordia_ran::accel::FpgaModel;
use concordia_ran::cost::CostModel;
use concordia_ran::dag::SlotDag;
use concordia_ran::features::{extract, FeatureVec};
use concordia_ran::task::TaskKind;
use concordia_ran::time::Nanos;
use concordia_stats::rng::Rng;
use std::sync::Arc;

mod cores;

use cores::{CoreState, Cores};

/// A DAG released to the pool together with its per-node WCET predictions
/// (what the Concordia predictor computed at the slot boundary; baselines
/// that ignore predictions pass zeros).
#[derive(Debug, Clone)]
pub struct ScheduledDag {
    /// The slot DAG.
    pub dag: SlotDag,
    /// Predicted WCET per node, aligned with `dag.nodes`.
    pub node_wcet: Vec<Nanos>,
}

/// One completed-task observation for online predictor training.
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// Cell whose DAG the task belongs to.
    pub cell: u32,
    /// Task kind.
    pub kind: TaskKind,
    /// Features at dispatch (including the pool width actually used).
    pub features: FeatureVec,
    /// Observed runtime in microseconds.
    pub runtime_us: f64,
}

/// EMA smoothing for the utilization signal.
const UTILIZATION_ALPHA: f64 = 0.05;

/// Pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Worker cores in the pool.
    pub cores: u32,
    /// Physical-core rotation period (§5: 2 ms). `None` disables rotation.
    pub rotation: Option<Nanos>,
    /// Event engine; the calendar queue is the only one (see
    /// [`EngineChoice`]).
    pub engine: EngineChoice,
    /// Worker-pool architecture: the queue discipline and task→core
    /// placement behind the dispatch loop. `Edf` (the default) is the
    /// paper's centralized earliest-deadline queue, byte-identical to the
    /// pre-refactor pool; see [`crate::arch`] for the alternatives.
    pub arch: PoolArchChoice,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            cores: 8,
            rotation: Some(Nanos::from_millis(2)),
            engine: EngineChoice::default(),
            arch: PoolArchChoice::default(),
        }
    }
}

#[derive(Debug)]
enum Event {
    /// Scheduler re-evaluation.
    Tick,
    /// Physical core rotation.
    Rotate,
    /// Worker on `core` finished waking.
    Wake { core: u32, epoch: u64 },
    /// Task on `core` finished executing.
    TaskFinish {
        core: u32,
        epoch: u64,
        runtime: Nanos,
        offload_submit: bool,
    },
    /// FPGA completed an offloaded node.
    FpgaDone { dag: u32, node: u32 },
    /// Fault window `idx` of the timeline begins.
    FaultStart { idx: usize },
    /// Fault window `idx` of the timeline clears.
    FaultEnd { idx: usize },
}

struct ActiveDag {
    sched: ScheduledDag,
    pred_left: Vec<u16>,
    done: Vec<bool>,
    remaining: usize,
    /// Longest predicted path from each node to a sink, including the node.
    tail: Vec<Nanos>,
    remaining_work: Nanos,
    /// Longest predicted path through the unfinished nodes: the largest
    /// `tail` among them. Kept current by `complete_node`.
    remaining_critical_path: Nanos,
    /// Nodes pinned to the CPU path after an offload fell back (engine
    /// absent, failed, or past its timeout budget).
    cpu_only: Vec<bool>,
}

/// The per-DAG bookkeeping vectors, salvaged from completed DAGs and
/// reused so steady-state injection allocates nothing.
#[derive(Default)]
struct DagAux {
    pred_left: Vec<u16>,
    done: Vec<bool>,
    tail: Vec<Nanos>,
    cpu_only: Vec<bool>,
}

/// Upper bound on retained spare buffers (DAG aux state, scheduled-DAG
/// shells): enough for every in-flight DAG of a C=100 deployment's phase
/// window without hoarding memory after a burst.
const SPARE_CAP: usize = 64;

/// The vRAN pool simulator.
pub struct VranPool {
    cfg: PoolConfig,
    cost: CostModel,
    scheduler: Box<dyn PoolScheduler>,
    oslat: OsLatencyModel,
    cache: CacheModel,
    /// Per-cell FPGA offload engines, lazily grown by cell id. The DE5-Net
    /// card exposes multiple decoder cores; modelling one engine per cell
    /// keeps the Table 4 single-slot wait profile while providing the
    /// aggregate throughput the Table 3 multi-cell scenario needs.
    fpga: Option<(FpgaModel, Vec<FpgaState>)>,

    now: Nanos,
    events: CalendarQueue<Event>,
    /// The worker cores, with their counts and idle set kept current.
    cores: Cores,
    /// The pluggable ready structure (queue discipline + placement).
    arch: Box<dyn PoolArchitecture>,
    ready_seq: u64,
    queue_nonempty_since: Option<Nanos>,
    /// Reused in-service mask handed to the architecture on topology
    /// changes (fault, restore, grow, shrink).
    in_service_scratch: Vec<bool>,
    dags: Vec<Option<ActiveDag>>,
    free_dags: Vec<u32>,
    active_dag_count: usize,
    running_tasks: usize,
    utilization_ema: f64,

    /// LLC pressure from collocated workloads (runtime inflation).
    cache_pressure: f64,
    /// Kernel-activity pressure (wake latency + storm rate).
    kernel_pressure: f64,
    /// Kernel-storm window: wakes issued before `storm_until` complete only
    /// after it. Storms model correlated kernel activity (interrupt storms,
    /// RCU floods, long non-preemptible paths) driven by saturating
    /// collocated workloads — the §2.3 "tens of microseconds to tens of
    /// milliseconds" scheduling-latency pathology that single-wake jitter
    /// cannot produce.
    storm_until: Nanos,
    /// Next storm arrival (rolled forward lazily).
    next_storm: Nanos,
    rng_cost: Rng,
    rng_os: Rng,
    metrics: PoolMetrics,
    observations: Vec<Observation>,

    // --- hot-path scratch state ---
    /// Newly-ready successor scratch for `complete_node`.
    scratch_ready: Vec<u32>,
    /// Source-node scratch for `inject_dag`.
    scratch_sources: Vec<u32>,
    /// Reused `DagProgress` buffer for `reallocate`.
    progress_scratch: Vec<DagProgress>,
    /// Drained observation buffer handed back via
    /// [`Self::recycle_observations`] (double-buffering).
    spare_obs: Vec<Observation>,
    /// Bookkeeping vectors salvaged from completed DAGs.
    spare_aux: Vec<DagAux>,
    /// Scheduled-DAG shells salvaged from completed DAGs, for callers that
    /// rebuild DAGs in place via [`Self::take_dag_buffer`].
    spare_scheds: Vec<ScheduledDag>,

    /// Resolved fault windows (empty for a fault-free run). Shared with
    /// the simulation that resolved them: a C=100 sweep keeps one copy of
    /// the fault plan, not one clone per pool.
    faults: Arc<FaultTimeline>,
    /// Which timeline windows are currently in effect.
    fault_active: Vec<bool>,
    /// Cores each CoreOffline window took down, for restoration at its end.
    offline_by_window: Vec<Vec<u32>>,
    /// Runtime multiplier on CPU tasks (≥ 1.0; raised by CoreStall).
    stall_factor: f64,
    /// Per-offload completion budget while an AccelTimeout window is
    /// active: projected completions beyond `now + budget` fall back to
    /// the CPU path.
    accel_timeout: Option<Nanos>,
    /// Additive kernel-pressure boost from StormAmplification windows.
    kernel_boost: f64,
    /// Asymptotic runtime inflation from DriftInjection windows: sampled
    /// CPU runtimes are scaled by `1 + severity·t/(t + 25 µs)` — the
    /// feature→runtime mapping itself shifts, not a uniform bias.
    drift_severity: f64,
    /// FPGA parked during an AccelOutage window (restored when it clears).
    parked_fpga: Option<(FpgaModel, Vec<FpgaState>)>,
    /// Microsecond-granularity event recorder (`None` = tracing off; the
    /// hot path pays one branch).
    trace: Option<TraceRecorder>,
    /// Last reallocation target recorded into the trace, so the tick-driven
    /// scheduler stream only records *decisions* (changes), not every poll.
    last_traced_target: Option<u32>,
    /// Debug builds: offloads submitted to an FPGA engine whose `FpgaDone`
    /// has not fired yet (a term of the conservation check).
    #[cfg(debug_assertions)]
    offloads_in_flight: usize,
}

impl VranPool {
    /// Creates a pool. All cores start granted (spinning) at time zero.
    pub fn new(
        cfg: PoolConfig,
        cost: CostModel,
        scheduler: Box<dyn PoolScheduler>,
        seed: u64,
    ) -> Self {
        assert!(cfg.cores > 0);
        let root = Rng::new(seed);
        let mut events = CalendarQueue::new();
        events.push(Nanos::ZERO, Event::Tick);
        if let Some(rot) = cfg.rotation {
            events.push(rot, Event::Rotate);
        }
        let mut arch = cfg.arch.build(root.fork(3));
        arch.set_in_service(&vec![true; cfg.cores as usize]);
        VranPool {
            cfg,
            cost,
            scheduler,
            oslat: OsLatencyModel::default(),
            cache: CacheModel::default(),
            fpga: None,
            now: Nanos::ZERO,
            events,
            cores: Cores::new(cfg.cores),
            arch,
            ready_seq: 0,
            queue_nonempty_since: None,
            in_service_scratch: Vec::new(),
            dags: Vec::new(),
            free_dags: Vec::new(),
            active_dag_count: 0,
            running_tasks: 0,
            utilization_ema: 0.0,
            cache_pressure: 0.0,
            kernel_pressure: 0.0,
            storm_until: Nanos::ZERO,
            next_storm: Nanos(u64::MAX),
            rng_cost: root.fork(1),
            rng_os: root.fork(2),
            metrics: PoolMetrics::new(),
            observations: Vec::new(),
            scratch_ready: Vec::new(),
            scratch_sources: Vec::new(),
            progress_scratch: Vec::new(),
            spare_obs: Vec::new(),
            spare_aux: Vec::new(),
            spare_scheds: Vec::new(),
            faults: Arc::new(FaultTimeline::empty()),
            fault_active: Vec::new(),
            offline_by_window: Vec::new(),
            stall_factor: 1.0,
            accel_timeout: None,
            kernel_boost: 0.0,
            drift_severity: 0.0,
            parked_fpga: None,
            trace: None,
            last_traced_target: None,
            #[cfg(debug_assertions)]
            offloads_in_flight: 0,
        }
    }

    /// Enables event tracing with the given ring configuration.
    pub fn enable_trace(&mut self, cfg: TraceConfig) {
        self.trace = Some(TraceRecorder::new(cfg));
    }

    /// Whether tracing is on.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Read access to the recorder, when tracing is on.
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.trace.as_ref()
    }

    /// Takes the recorder out of the pool (for export after a run).
    pub fn take_trace(&mut self) -> Option<TraceRecorder> {
        self.trace.take()
    }

    /// Serializable trace summary, when tracing is on.
    pub fn trace_summary(&self) -> Option<TraceSummary> {
        self.trace.as_ref().map(|t| t.summary())
    }

    /// Records a simulation-level event (guard inflation, supervisor
    /// lifecycle, admission control, workload-fault edges) at the current
    /// simulation time. No-op with tracing off.
    pub fn record_trace_event(&mut self, ev: TraceEvent) {
        self.trace_event(ev);
    }

    /// Appends a flat per-window metrics snapshot at the current time.
    /// `guard_inflation` comes from the slot loop (the pool cannot see the
    /// guard). No-op with tracing off.
    pub fn record_window_snapshot(&mut self, window: u64, guard_inflation: f64) {
        if self.trace.is_none() {
            return;
        }
        let snap = WindowSnapshot {
            window,
            t_us: self.now.as_micros_f64(),
            dags: self.metrics.slots.count() as u64,
            violations: self.metrics.slots.violations(),
            granted_cores: self.granted_cores(),
            ready_tasks: self.arch.len() as u64,
            tasks_executed: self.metrics.tasks_executed,
            offload_fallbacks: self.metrics.offload_fallbacks,
            tasks_requeued: self.metrics.tasks_requeued,
            guard_inflation,
        };
        if let Some(tr) = self.trace.as_mut() {
            tr.push_snapshot(snap);
        }
    }

    #[inline]
    fn trace_event(&mut self, ev: TraceEvent) {
        if let Some(tr) = self.trace.as_mut() {
            tr.record(self.now, ev);
        }
    }

    /// Enables the §7 FPGA LDPC offload.
    pub fn enable_fpga(&mut self, model: FpgaModel) {
        self.fpga = Some((model, Vec::new()));
    }

    /// Installs the resolved fault timeline and schedules start/end events
    /// for every platform-level window. Call once, before running.
    pub fn set_fault_timeline(&mut self, timeline: Arc<FaultTimeline>) {
        self.fault_active = vec![false; timeline.windows.len()];
        self.offline_by_window = vec![Vec::new(); timeline.windows.len()];
        for (idx, w) in timeline.windows.iter().enumerate() {
            if !w.kind.is_platform_fault() || w.end <= w.start {
                continue;
            }
            let start = w.start.max(self.now);
            self.events.push(start, Event::FaultStart { idx });
            self.events.push(w.end.max(start), Event::FaultEnd { idx });
        }
        self.faults = timeline;
    }

    /// Cores currently offline due to fault injection. Retired cores are
    /// already outside the capacity, so a core that is both faulted and
    /// retired is not counted twice against the pool.
    pub fn offline_cores(&self) -> u32 {
        self.cores.offline()
    }

    /// Worker cores currently in service (not retired by a runtime shrink).
    /// Equals the configured core count until the first [`Self::shrink_pool`].
    pub fn capacity(&self) -> u32 {
        self.cores.capacity()
    }

    /// Runtime reconfiguration: adds `n` worker cores. Retired non-faulted
    /// slots are revived first — index stability keeps per-core epochs,
    /// accounting spans and trace tracks meaningful — and any remainder is
    /// appended as fresh released cores. Returns the new capacity.
    pub fn grow_pool(&mut self, n: u32) -> u32 {
        let now = self.now;
        let mut left = n;
        for i in 0..self.cores.len() {
            if left == 0 {
                break;
            }
            if self.cores[i].retired() && !self.cores[i].faulted() {
                self.cores.revive(i);
                left -= 1;
            }
        }
        for _ in 0..left {
            self.cores.push_released(now);
        }
        let capacity = self.capacity();
        self.trace_event(TraceEvent::PoolResize {
            capacity,
            delta: n as i32,
        });
        self.refresh_arch_cores();
        self.reallocate();
        self.dispatch();
        capacity
    }

    /// Runtime reconfiguration: retires up to `n` cores, never shrinking
    /// below one usable core. Highest indices go first (low indices keep
    /// serving, mirroring fault injection's choice). A core that is already
    /// `Released` — including one a fault window has taken down — is
    /// retired *in place* without a second release: the degraded-mode
    /// interaction where shrinking a fault-lost core must not double-flush
    /// its accounting or double-release it. Busy cores finish their current
    /// task first through the deferred-release path. Returns how many cores
    /// were actually retired.
    pub fn shrink_pool(&mut self, n: u32) -> u32 {
        let max = self.capacity().saturating_sub(1).min(n);
        let mut retired = 0u32;
        for i in (0..self.cores.len()).rev() {
            if retired == max {
                break;
            }
            if self.cores[i].retired() {
                continue;
            }
            match self.cores[i].state() {
                // Already out of service (idle or fault-lost): no release
                // to perform, just mark the slot retired.
                CoreState::Released => {}
                CoreState::Busy { .. } => {
                    self.cores.set_release_pending(i, true);
                }
                CoreState::Spinning | CoreState::Waking => {
                    self.release_core(i as u32);
                }
            }
            self.cores.retire(i);
            retired += 1;
        }
        if retired > 0 {
            let capacity = self.capacity();
            self.trace_event(TraceEvent::PoolResize {
                capacity,
                delta: -(retired as i32),
            });
            self.refresh_arch_cores();
            self.reallocate();
            self.dispatch();
        }
        retired
    }

    /// Incomplete DAGs belonging to `cell` (drain-flush bookkeeping).
    pub fn active_dags_for_cell(&self, cell: u32) -> usize {
        self.dags
            .iter()
            .flatten()
            .filter(|d| d.sched.dag.cell_id == cell)
            .count()
    }

    /// Sets the aggregate cache and kernel pressures of the active
    /// best-effort workloads.
    pub fn set_pressure(&mut self, cache: f64, kernel: f64) {
        self.cache_pressure = cache.max(0.0);
        self.kernel_pressure = kernel.max(0.0);
    }

    /// Current (cache, kernel) pressures.
    pub fn pressure(&self) -> (f64, f64) {
        (self.cache_pressure, self.kernel_pressure)
    }

    /// Current simulation time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &PoolMetrics {
        &self.metrics
    }

    /// Cores currently held by the vRAN (not released).
    pub fn granted_cores(&self) -> u32 {
        self.cores.granted()
    }

    /// Number of incomplete DAGs.
    pub fn active_dags(&self) -> usize {
        self.active_dag_count
    }

    /// Takes the buffered task observations (for online predictor training).
    /// The caller hands the buffer back via [`Self::recycle_observations`]
    /// and the two vectors double-buffer; a caller that never recycles
    /// gets a fresh buffer each time (the spare stays empty).
    pub fn drain_observations(&mut self) -> Vec<Observation> {
        std::mem::replace(&mut self.observations, std::mem::take(&mut self.spare_obs))
    }

    /// Returns a drained observation buffer for reuse.
    pub fn recycle_observations(&mut self, mut v: Vec<Observation>) {
        v.clear();
        self.spare_obs = v;
    }

    /// Releases a DAG to the pool at the current time. The DAG's `arrival`
    /// must not be in the past.
    pub fn inject_dag(&mut self, sched: ScheduledDag) {
        debug_assert!(sched.dag.arrival >= self.now);
        debug_assert_eq!(sched.dag.nodes.len(), sched.node_wcet.len());
        let n = sched.dag.nodes.len();
        if n == 0 {
            return;
        }
        self.metrics.record_injected(sched.dag.cell_id);
        // Rebuild bookkeeping into vectors salvaged from completed DAGs.
        let mut aux = self.spare_aux.pop().unwrap_or_default();
        // Tail lengths over the topological order, reversed.
        aux.tail.clear();
        aux.tail.resize(n, Nanos::ZERO);
        for i in (0..n).rev() {
            let succ_max = sched.dag.nodes[i]
                .succs
                .iter()
                .map(|&s| aux.tail[s as usize])
                .fold(Nanos::ZERO, Nanos::max);
            aux.tail[i] = sched.node_wcet[i] + succ_max;
        }
        let remaining_critical_path = aux.tail.iter().copied().fold(Nanos::ZERO, Nanos::max);
        let remaining_work = sched.node_wcet.iter().fold(Nanos::ZERO, |a, &b| a + b);
        aux.pred_left.clear();
        aux.pred_left
            .extend(sched.dag.nodes.iter().map(|nd| nd.preds.len() as u16));
        aux.done.clear();
        aux.done.resize(n, false);
        aux.cpu_only.clear();
        aux.cpu_only.resize(n, false);
        let deadline = sched.dag.deadline;
        let DagAux {
            pred_left,
            done,
            tail,
            cpu_only,
        } = aux;
        let active = ActiveDag {
            sched,
            pred_left,
            done,
            remaining: n,
            tail,
            remaining_work,
            remaining_critical_path,
            cpu_only,
        };
        // Collect the source nodes *before* the DAG moves into its slot:
        // no re-borrow of `self.dags`, so a concurrent degraded-mode
        // shrink can never leave this read looking at a freed slot.
        let mut sources = std::mem::take(&mut self.scratch_sources);
        sources.clear();
        sources.extend((0..n as u32).filter(|&i| active.pred_left[i as usize] == 0));
        let slot = match self.free_dags.pop() {
            Some(s) => {
                debug_assert!(
                    self.dags[s as usize].is_none(),
                    "free list holds a live slot"
                );
                self.dags[s as usize] = Some(active);
                s
            }
            None => {
                self.dags.push(Some(active));
                (self.dags.len() - 1) as u32
            }
        };
        self.active_dag_count += 1;
        for &node in &sources {
            self.enqueue_ready(slot, node, deadline, None);
        }
        self.scratch_sources = sources;
        // Arrival triggers a scheduling decision (§3: predictions are sent
        // to the scheduler at the beginning of each TTI slot).
        self.reallocate();
        self.dispatch();
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Runs the simulation until `t_end` (inclusive of events at `t_end`).
    pub fn run_until(&mut self, t_end: Nanos) {
        // `pop_due` peeks and pops atomically — the old peek-then-unwrap
        // pair relied on nothing draining the queue in between.
        while let Some((t, ev)) = self.events.pop_due(t_end) {
            debug_assert!(t >= self.now);
            self.now = t;
            self.handle(ev);
        }
        self.now = self.now.max(t_end);
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    // ---- internals ----

    /// Queues a ready node with the architecture. `origin` is the worker
    /// core that produced it, `None` for injections/FPGA/fault requeues.
    fn enqueue_ready(&mut self, dag: u32, node: u32, deadline: Nanos, origin: Option<u32>) {
        let (cell, kind) = match self.dags[dag as usize].as_ref() {
            Some(d) => (
                d.sched.dag.cell_id,
                d.sched.dag.nodes[node as usize].task.kind,
            ),
            None => (0, TaskKind::MacScheduling), // unreachable: callers hold a live slot
        };
        if self.arch.is_empty() {
            self.queue_nonempty_since = Some(self.now);
        }
        let seq = self.ready_seq;
        self.ready_seq += 1;
        self.arch.push(
            ReadyTask {
                deadline,
                seq,
                dag,
                node,
                cell,
                kind,
            },
            origin,
        );
    }

    /// Rebuilds the in-service mask (neither faulted nor retired) and
    /// hands it to the architecture. Must run after every topology change
    /// and before the dispatch that follows it, so decentralized
    /// placements never strand queued work on a core that left service.
    fn refresh_arch_cores(&mut self) {
        let mut mask = std::mem::take(&mut self.in_service_scratch);
        mask.clear();
        mask.extend(self.cores.iter().map(|c| !c.faulted() && !c.retired()));
        self.arch.set_in_service(&mask);
        self.in_service_scratch = mask;
    }

    /// Cell id of an active DAG slot (0 when the slot is already freed).
    fn cell_of(&self, dag: u32) -> u32 {
        self.dags[dag as usize]
            .as_ref()
            .map_or(0, |d| d.sched.dag.cell_id)
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Tick => {
                self.update_utilization();
                self.reallocate();
                self.dispatch();
                let tick = self.scheduler.tick();
                self.events.push(self.now + tick, Event::Tick);
            }
            Event::Rotate => {
                self.rotate_cores();
                if let Some(rot) = self.cfg.rotation {
                    self.events.push(self.now + rot, Event::Rotate);
                }
            }
            Event::Wake { core, epoch } => {
                let c = &self.cores[core as usize];
                if c.epoch() != epoch || c.state() != CoreState::Waking {
                    return; // stale wake for a previous incarnation
                }
                self.cores.wake_done(core as usize);
                self.dispatch();
            }
            Event::TaskFinish {
                core,
                epoch,
                runtime,
                offload_submit,
            } => {
                let c = &self.cores[core as usize];
                if c.epoch() != epoch {
                    // The core was reset mid-task (taken offline by a
                    // fault); the task was requeued then, so this finish
                    // belongs to an abandoned incarnation.
                    return;
                }
                let (dag, node) = match c.state() {
                    CoreState::Busy { dag, node } => (dag, node),
                    _ => unreachable!("TaskFinish on a non-busy core"),
                };
                self.metrics.vran_busy_time += runtime;
                self.running_tasks -= 1;
                let cell = self.cell_of(dag);
                self.trace_event(TraceEvent::TaskComplete {
                    cell,
                    core,
                    dag,
                    node,
                });
                if offload_submit {
                    // The CPU part (submission) is done; the node itself
                    // completes when the cell's FPGA engine finishes — or
                    // falls back to the CPU path when the engine is gone
                    // or cannot meet the timeout budget.
                    self.finish_offload_submit(core, dag, node);
                } else {
                    let local = self.complete_node(dag, node, Some(core));
                    self.after_worker_free(core, local);
                }
                self.dispatch();
            }
            Event::FpgaDone { dag, node } => {
                #[cfg(debug_assertions)]
                {
                    self.offloads_in_flight -= 1;
                }
                let cell = self.cell_of(dag);
                self.trace_event(TraceEvent::OffloadDone { cell, dag, node });
                // No worker context here: a locally-kept successor would
                // have no core to run on, so queue it like the others.
                if let Some((ldag, lnode)) = self.complete_node(dag, node, None) {
                    if let Some(d) = self.dags[ldag as usize].as_ref() {
                        let deadline = d.sched.dag.deadline;
                        self.enqueue_ready(ldag, lnode, deadline, None);
                    }
                }
                self.dispatch();
            }
            Event::FaultStart { idx } => {
                self.fault_active[idx] = true;
                let w = self.faults.windows[idx];
                self.trace_event(TraceEvent::FaultStart {
                    kind: w.kind,
                    severity: w.severity,
                });
                if w.kind == FaultKind::CoreOffline {
                    self.take_cores_offline(idx, w.severity);
                }
                self.refresh_fault_state();
                self.reallocate();
                self.dispatch();
            }
            Event::FaultEnd { idx } => {
                self.fault_active[idx] = false;
                let kind = self.faults.windows[idx].kind;
                self.trace_event(TraceEvent::FaultEnd { kind });
                let restored = std::mem::take(&mut self.offline_by_window[idx]);
                for core in restored {
                    self.restore_core(core);
                }
                self.refresh_fault_state();
                self.reallocate();
                self.dispatch();
            }
        }
    }

    /// A worker finished the CPU submission of an offloaded node: hand it
    /// to the cell's FPGA engine, or fall back to the CPU path when the
    /// engine is absent (outage / never configured) or its projected
    /// completion exceeds the active timeout budget.
    fn finish_offload_submit(&mut self, core: u32, dag: u32, node: u32) {
        let info = self.dags[dag as usize].as_ref().map(|d| {
            let tnode = &d.sched.dag.nodes[node as usize];
            (
                d.sched.dag.cell_id as usize,
                tnode.task.kind,
                tnode.task.params.n_cbs,
            )
        });
        let Some((cell, kind, n_cbs)) = info else {
            // The DAG slot is gone — nothing left to complete.
            self.after_worker_free(core, None);
            return;
        };
        if let Some((model, engines)) = self.fpga.as_mut() {
            while engines.len() <= cell {
                engines.push(FpgaState::new(*model));
            }
            let projected = engines[cell].projected_completion(self.now, kind, n_cbs);
            let timed_out = self
                .accel_timeout
                .is_some_and(|budget| projected > self.now + budget);
            if !timed_out {
                let done_at = engines[cell].submit(self.now, kind, n_cbs);
                debug_assert_eq!(done_at, projected);
                self.events.push(done_at, Event::FpgaDone { dag, node });
                #[cfg(debug_assertions)]
                {
                    self.offloads_in_flight += 1;
                }
                self.after_worker_free(core, None);
                return;
            }
        }
        // Graceful degradation: no engine (or too slow) — pin the node to
        // the CPU path and requeue it. The submission cost is sunk; the
        // node re-executes as ordinary CPU work.
        self.metrics.offload_fallbacks += 1;
        self.trace_event(TraceEvent::OffloadFallback {
            cell: cell as u32,
            dag,
            node,
        });
        if let Some(d) = self.dags[dag as usize].as_mut() {
            d.cpu_only[node as usize] = true;
            let deadline = d.sched.dag.deadline;
            self.enqueue_ready(dag, node, deadline, Some(core));
        }
        self.after_worker_free(core, None);
    }

    /// Recomputes the derived fault state (stall factor, accel timeout,
    /// kernel boost, accelerator outage) from the active windows.
    fn refresh_fault_state(&mut self) {
        let mut stall = 1.0f64;
        let mut timeout: Option<Nanos> = None;
        let mut boost = 0.0f64;
        let mut outage = false;
        let mut drift = 0.0f64;
        for (i, w) in self.faults.windows.iter().enumerate() {
            if !self.fault_active[i] {
                continue;
            }
            match w.kind {
                FaultKind::CoreStall => stall = stall.max(1.0 + w.severity),
                FaultKind::AccelTimeout => {
                    let budget = Nanos::from_micros_f64(w.severity);
                    timeout = Some(timeout.map_or(budget, |t| t.min(budget)));
                }
                FaultKind::StormAmplification => boost = boost.max(w.severity),
                FaultKind::AccelOutage => outage = true,
                FaultKind::DriftInjection => drift = drift.max(w.severity),
                _ => {}
            }
        }
        self.stall_factor = stall;
        self.accel_timeout = timeout;
        self.kernel_boost = boost;
        self.drift_severity = drift;
        if outage && self.fpga.is_some() {
            self.parked_fpga = self.fpga.take();
        } else if !outage && self.parked_fpga.is_some() {
            self.fpga = self.parked_fpga.take();
        }
    }

    /// Takes `ceil(severity × pool)` cores offline (at least one, never
    /// the whole pool). Highest indices go first: every index scan in the
    /// pool prefers low indices, so the survivors keep serving.
    fn take_cores_offline(&mut self, window: usize, severity: f64) {
        let total = self.capacity() as usize;
        let online: Vec<u32> = (0..self.cores.len())
            .filter(|&i| !self.cores[i].faulted() && !self.cores[i].retired())
            .map(|i| i as u32)
            .collect();
        let want = ((severity * total as f64).ceil() as usize).max(1);
        let take = want.min(online.len().saturating_sub(1));
        for &core in online.iter().rev().take(take) {
            self.fail_core(core, window);
        }
    }

    /// One core disappears: its in-flight task (if any) is requeued — the
    /// pool never loses work — and the core becomes ungrantable until the
    /// window clears.
    fn fail_core(&mut self, core: u32, window: usize) {
        let now = self.now;
        if let CoreState::Busy { dag, node } = self.cores[core as usize].state() {
            self.running_tasks -= 1;
            self.metrics.tasks_requeued += 1;
            let cell = self.cell_of(dag);
            self.trace_event(TraceEvent::TaskRequeue {
                cell,
                core,
                dag,
                node,
            });
            if let Some(d) = self.dags[dag as usize].as_ref() {
                let deadline = d.sched.dag.deadline;
                self.enqueue_ready(dag, node, deadline, None);
            }
        }
        self.trace_event(TraceEvent::CoreFail { core });
        let (span, was_released) = self.cores.fail(core as usize, now);
        if was_released {
            self.metrics.besteffort_core_time += span;
        } else {
            self.metrics.vran_core_time += span;
        }
        self.metrics.cores_failed += 1;
        self.offline_by_window[window].push(core);
        self.refresh_arch_cores();
    }

    /// A faulted core comes back: its offline span is accounted and it
    /// rejoins the pool as released (the scheduler wakes it on demand).
    fn restore_core(&mut self, core: u32) {
        let span = self.cores.restore(core as usize, self.now);
        self.metrics.offline_core_time += span;
        self.trace_event(TraceEvent::CoreRestore { core });
        self.refresh_arch_cores();
    }

    /// Marks a node complete; queues newly-ready successors except an
    /// optional locally-kept one, which is returned for immediate dispatch.
    /// `origin` is the worker core that finished the node (`None` for FPGA
    /// completions) and routes the queued successors.
    fn complete_node(&mut self, dag: u32, node: u32, origin: Option<u32>) -> Option<(u32, u32)> {
        let mut newly_ready = std::mem::take(&mut self.scratch_ready);
        newly_ready.clear();
        let deadline;
        let finished;
        {
            let Some(d) = self.dags[dag as usize].as_mut() else {
                debug_assert!(false, "completion for a freed dag slot");
                self.scratch_ready = newly_ready;
                return None;
            };
            debug_assert!(!d.done[node as usize]);
            d.done[node as usize] = true;
            d.remaining -= 1;
            d.remaining_work = d
                .remaining_work
                .saturating_sub(d.sched.node_wcet[node as usize]);
            // A node whose tail fell short of the stored maximum leaves
            // another undone node at it; only a node at the maximum can
            // lower it, so only then is there anything to rescan.
            if d.tail[node as usize] == d.remaining_critical_path {
                d.remaining_critical_path = critical_path_left(&d.tail, &d.done);
            }
            deadline = d.sched.dag.deadline;
            // Disjoint field borrows let the successor list be walked in
            // place instead of cloned once per completed task.
            let ActiveDag {
                sched, pred_left, ..
            } = d;
            for &s in &sched.dag.nodes[node as usize].succs {
                let pl = &mut pred_left[s as usize];
                *pl -= 1;
                if *pl == 0 {
                    newly_ready.push(s);
                }
            }
            finished = d.remaining == 0;
        }

        // §2.1's cache-efficiency optimization: the finishing worker keeps
        // one successor to run locally, the one with the longest tail (most
        // critical).
        let mut local: Option<(u32, u32)> = None;
        if let Some(d) = self.dags[dag as usize].as_ref() {
            if let Some(best) = newly_ready
                .iter()
                .copied()
                .max_by_key(|&s| d.tail[s as usize])
            {
                newly_ready.retain(|&s| s != best);
                local = Some((dag, best));
            }
        }
        for &s in &newly_ready {
            self.enqueue_ready(dag, s, deadline, origin);
        }
        self.scratch_ready = newly_ready;

        if finished {
            if let Some(d) = self.dags[dag as usize].take() {
                self.free_dags.push(dag);
                self.active_dag_count -= 1;
                let latency = self.now.saturating_sub(d.sched.dag.arrival);
                let budget = d.sched.dag.deadline.saturating_sub(d.sched.dag.arrival);
                let cell = d.sched.dag.cell_id;
                let violated = latency > budget;
                self.metrics.slots.record_at(self.now, latency, budget);
                self.metrics.record_completed(cell, violated);
                self.trace_event(TraceEvent::DagComplete {
                    cell,
                    dag,
                    latency,
                    violated,
                });
                self.salvage(d);
            }
            debug_assert!(local.is_none());
        }
        local
    }

    /// Banks a completed DAG's buffers for reuse: the bookkeeping vectors
    /// feed the next `inject_dag`, the scheduled-DAG shell feeds callers
    /// that rebuild DAGs in place via [`Self::take_dag_buffer`].
    fn salvage(&mut self, d: ActiveDag) {
        let ActiveDag {
            sched,
            pred_left,
            done,
            tail,
            cpu_only,
            ..
        } = d;
        if self.spare_aux.len() < SPARE_CAP {
            self.spare_aux.push(DagAux {
                pred_left,
                done,
                tail,
                cpu_only,
            });
        }
        if self.spare_scheds.len() < SPARE_CAP {
            self.spare_scheds.push(sched);
        }
    }

    /// A salvaged scheduled-DAG shell whose vectors can be rebuilt in
    /// place, or `None` when none is banked.
    pub fn take_dag_buffer(&mut self) -> Option<ScheduledDag> {
        self.spare_scheds.pop()
    }

    /// After a worker finishes (or submits an offload): run the local
    /// successor if any, release if pending, otherwise go spinning.
    fn after_worker_free(&mut self, core: u32, local: Option<(u32, u32)>) {
        if let Some((dag, node)) = local {
            if let Some((cell, kind, deadline)) = self.dags[dag as usize].as_ref().map(|d| {
                (
                    d.sched.dag.cell_id,
                    d.sched.dag.nodes[node as usize].task.kind,
                    d.sched.dag.deadline,
                )
            }) {
                if !self.cores[core as usize].release_pending()
                    && self.arch.keeps_local(core, cell, kind)
                {
                    self.start_task(core, dag, node);
                    return;
                }
                // Release was requested, or the architecture places this
                // successor elsewhere: don't keep work locally.
                self.enqueue_ready(dag, node, deadline, Some(core));
            }
        }
        // The worker is done with its task either way; leave `Busy` before
        // a deferred release so `release_core`'s invariant holds.
        self.cores.finish(core as usize);
        if self.cores[core as usize].release_pending() {
            self.release_core(core);
        }
    }

    fn start_task(&mut self, core: u32, dag: u32, node: u32) {
        let pool_cores = self.cores.effective();
        let Some((cell, kind, mut params, cpu_only)) = self.dags[dag as usize].as_ref().map(|d| {
            let t = &d.sched.dag.nodes[node as usize].task;
            (
                d.sched.dag.cell_id,
                t.kind,
                t.params,
                d.cpu_only[node as usize],
            )
        }) else {
            debug_assert!(false, "ready task for a freed dag slot");
            self.cores.finish(core as usize);
            return;
        };
        params.pool_cores = pool_cores.max(1);

        let warm = self
            .now
            .saturating_sub(self.cores[core as usize].held_since())
            >= WARMUP;
        // Nodes that fell back after an offload failure stay on the CPU
        // path; everything else offloads when an engine is present.
        let offload_cost = match self.fpga.as_ref() {
            Some((model, _)) if !cpu_only && kind.offloadable() => Some(model.submit_cost()),
            _ => None,
        };
        let offload = offload_cost.is_some();
        if !offload && !cpu_only && kind.offloadable() && self.parked_fpga.is_some() {
            // An engine is configured but currently lost to an outage:
            // this node would have offloaded, so the CPU run is a fallback.
            self.metrics.offload_fallbacks += 1;
            self.trace_event(TraceEvent::OffloadFallback { cell, dag, node });
        }
        let (runtime, interference) = match offload_cost {
            Some(cost) => (cost, 1.0),
            None => {
                let f =
                    self.cache
                        .interference_factor(self.cache_pressure, warm, &mut self.rng_cost);
                let mut rt = self
                    .cost
                    .sample_runtime(kind, &params, f, &mut self.rng_cost)
                    .scale(self.stall_factor);
                if self.drift_severity > 0.0 {
                    // The feature→runtime mapping itself drifts: long tasks
                    // inflate by up to `severity`, short ones barely move —
                    // a shape change no scalar guard inflation can absorb.
                    let us = rt.as_micros_f64();
                    rt = rt.scale(1.0 + self.drift_severity * us / (us + 25.0));
                }
                (rt, f)
            }
        };
        self.metrics.counters.record_task(interference);
        self.metrics.tasks_executed += 1;
        if !offload {
            self.observations.push(Observation {
                cell,
                kind,
                features: extract(&params),
                runtime_us: runtime.as_micros_f64(),
            });
        }

        self.trace_event(TraceEvent::TaskStart {
            cell,
            core,
            dag,
            node,
            kind,
            runtime,
            offload,
        });
        self.cores.start(core as usize, dag, node);
        self.running_tasks += 1;
        self.events.push(
            self.now + runtime,
            Event::TaskFinish {
                core,
                epoch: self.cores[core as usize].epoch(),
                runtime,
                offload_submit: offload,
            },
        );
    }

    /// Assigns ready tasks to spinning cores through the architecture.
    ///
    /// Each pass walks the idle set (spinning cores without a pending
    /// release) in index order and offers each core to the architecture;
    /// a successful pop dispatches and restarts the walk from core 0
    /// (dispatching can change core states), a refusal moves on to the
    /// next idle core (decentralized placements may have work for a later
    /// core only). The loop ends when a full pass dispatches nothing. The
    /// order of the `pop_for` calls, restarts included, is part of every
    /// report's bytes: work stealing draws its victims from an RNG, and
    /// dFCFS and the pipeline refuse some cores. For the centralized EDF
    /// architecture `pop_for` refuses only when the queue is empty, so the
    /// walk degenerates to: first idle core, global pop, repeat.
    fn dispatch(&mut self) {
        if self.arch.is_empty() {
            // Behavior-identical early exit: with an empty ready queue the
            // loop below always clears the marker and returns without
            // touching any core, whichever branch it takes.
            self.queue_nonempty_since = None;
            return;
        }
        'pass: loop {
            let mut from = 0;
            while let Some(i) = self.cores.next_idle(from) {
                let Some(task) = self.arch.pop_for(i as u32) else {
                    if self.arch.is_empty() {
                        // Nothing queued anywhere: no later core can be
                        // served either.
                        self.queue_nonempty_since = None;
                        return;
                    }
                    // This core's share is empty; try the next.
                    from = i + 1;
                    continue;
                };
                if self.arch.is_empty() {
                    self.queue_nonempty_since = None;
                }
                self.start_task(i as u32, task.dag, task.node);
                continue 'pass;
            }
            // A full pass dispatched nothing (no spinning core, or every
            // spinning core's share is empty).
            if self.arch.is_empty() {
                self.queue_nonempty_since = None;
            }
            return;
        }
    }

    fn update_utilization(&mut self) {
        let granted = self.cores.effective().max(1);
        let inst = self.running_tasks as f64 / granted as f64;
        self.utilization_ema =
            UTILIZATION_ALPHA * inst + (1.0 - UTILIZATION_ALPHA) * self.utilization_ema;
    }

    fn fill_progress(&self, out: &mut Vec<DagProgress>) {
        out.extend(self.dags.iter().flatten().map(|d| DagProgress {
            deadline: d.sched.dag.deadline,
            remaining_work: d.remaining_work,
            remaining_critical_path: d.remaining_critical_path,
        }));
    }

    /// Consults the scheduler and applies the target core count.
    fn reallocate(&mut self) {
        // The progress snapshot reuses one buffer across calls.
        let mut dags = std::mem::take(&mut self.progress_scratch);
        dags.clear();
        self.fill_progress(&mut dags);
        // Degraded mode: advertise only surviving cores so the scheduler
        // recomputes its federated allocation over what actually exists.
        // Capacity (not the configured core count) is the baseline, so a
        // runtime grow/shrink reshapes the allocation the same way.
        let surviving = self.capacity().saturating_sub(self.offline_cores());
        let view = PoolView {
            now: self.now,
            total_cores: surviving,
            granted_cores: self.granted_cores(),
            dags: &dags,
            ready_tasks: self.arch.len(),
            running_tasks: self.running_tasks,
            oldest_ready_wait: self
                .queue_nonempty_since
                .map(|t| self.now.saturating_sub(t))
                .unwrap_or(Nanos::ZERO),
            recent_utilization: self.utilization_ema,
        };
        let target = self.scheduler.target_cores(&view).min(surviving);
        if self.trace.is_some() && self.last_traced_target != Some(target) {
            // Record *decisions*, not every 20 µs poll: the scheduler track
            // only carries target changes.
            self.last_traced_target = Some(target);
            let granted = self.granted_cores();
            let ready = self.arch.len() as u32;
            self.trace_event(TraceEvent::Realloc {
                target,
                granted,
                ready,
            });
        }
        self.progress_scratch = dags;
        self.apply_target(target);
    }

    fn apply_target(&mut self, target: u32) {
        // Each step below moves `effective` by exactly one.
        //
        // Grow: first cancel pending releases, then wake released cores.
        // Retired cores are out of service: their deferred releases stay
        // deferred and they are never woken.
        while self.cores.effective() < target {
            if let Some(i) = self.cores.iter().position(|c| {
                c.release_pending() && c.state() != CoreState::Released && !c.retired()
            }) {
                self.cores.set_release_pending(i, false);
                continue;
            }
            match self
                .cores
                .iter()
                .position(|c| c.state() == CoreState::Released && !c.faulted() && !c.retired())
            {
                Some(i) => self.wake_core(i as u32),
                None => break,
            }
        }

        // Shrink: spinning first (instant), then waking (cancel), then busy
        // (deferred until task completion).
        while self.cores.effective() > target {
            if let Some(i) = self.cores.next_idle(0) {
                self.release_core(i as u32);
                continue;
            }
            if let Some(i) = self
                .cores
                .iter()
                .position(|c| c.state() == CoreState::Waking && !c.release_pending())
            {
                self.release_core(i as u32);
                continue;
            }
            match self
                .cores
                .iter()
                .position(|c| matches!(c.state(), CoreState::Busy { .. }) && !c.release_pending())
            {
                Some(i) => self.cores.set_release_pending(i, true),
                None => break,
            }
        }
    }

    /// Rolls the kernel-storm process forward to `now` and returns the
    /// current storm end, if a storm is in progress. Storm arrivals follow
    /// a Poisson process whose rate grows with best-effort pressure;
    /// durations are 0.8-3 ms.
    fn storm_end_at(&mut self, now: Nanos) -> Option<Nanos> {
        let pressure = self.kernel_pressure + self.kernel_boost;
        if pressure <= 0.0 {
            return None;
        }
        if self.next_storm == Nanos(u64::MAX) {
            // First call under pressure: draw the initial arrival from the
            // same exponential as subsequent gaps, so a kernel-light
            // workload (MLPerf) storms proportionally rarely.
            let mean_gap_ms = 2_000.0 / pressure;
            self.next_storm =
                now + Nanos::from_micros_f64(self.rng_os.exponential(mean_gap_ms) * 1_000.0);
        }
        while self.next_storm <= now {
            let dur = Nanos::from_micros(self.rng_os.range_u64(600, 2_000));
            let end = self.next_storm + dur;
            if now < end {
                self.storm_until = end;
            }
            let mean_gap_ms = 2_000.0 / pressure;
            let gap = Nanos::from_micros_f64(self.rng_os.exponential(mean_gap_ms) * 1_000.0);
            self.next_storm = end + gap;
        }
        if now < self.storm_until {
            Some(self.storm_until)
        } else {
            None
        }
    }

    fn wake_core(&mut self, core: u32) {
        let pressure = self.kernel_pressure + self.kernel_boost;
        let mut latency = self.oslat.sample_wake(pressure, &mut self.rng_os);
        if let Some(storm_end) = self.storm_end_at(self.now) {
            // The wake cannot complete while the kernel storm holds the
            // yielded cores; it lands shortly after the storm passes.
            let deferred = storm_end.saturating_sub(self.now)
                + Nanos::from_micros_f64(1.0 + self.rng_os.f64() * 3.0);
            latency = latency.max(deferred);
        }
        self.metrics.wake_events += 1;
        self.metrics
            .wake_hist
            .record(latency.as_micros_f64() as u64);
        self.metrics.evictions += 1;
        self.trace_event(TraceEvent::CoreWake { core, latency });
        let now = self.now;
        self.metrics.besteffort_core_time += self.cores.wake(core as usize, now);
        let epoch = self.cores[core as usize].epoch();
        self.events.push(now + latency, Event::Wake { core, epoch });
    }

    fn release_core(&mut self, core: u32) {
        self.trace_event(TraceEvent::CoreRelease { core });
        self.metrics.vran_core_time += self.cores.release(core as usize, self.now);
    }

    /// Flushes the in-progress occupancy of every core into the metrics.
    /// Call before reading final reclaimed-CPU / held-time totals —
    /// otherwise time spent in the *current* (unterminated) released or
    /// held interval is invisible.
    pub fn flush_accounting(&mut self) {
        let occ = self.cores.flush(self.now);
        self.metrics.offline_core_time += occ.offline;
        self.metrics.besteffort_core_time += occ.besteffort;
        self.metrics.vran_core_time += occ.vran;
    }

    /// §5: "the scheduler changes the order of cores that are used for vRAN
    /// pools every 2 ms to avoid constantly using the same cores", so
    /// unmigratable kernel work gets CPU time on every physical core.
    fn rotate_cores(&mut self) {
        let spinning = self.cores.next_idle(0);
        let released = self
            .cores
            .iter()
            .position(|c| c.state() == CoreState::Released && !c.faulted() && !c.retired());
        if let (Some(s), Some(r)) = (spinning, released) {
            self.release_core(s as u32);
            self.wake_core(r as u32);
        }
    }

    /// Debug builds: checks the cached pool state against the scans it
    /// replaced, at the quiescent end of `run_until` and `inject_dag`.
    /// * The core counts and the idle set equal a recount over the cores.
    /// * Each active DAG's remaining critical path equals a rescan.
    /// * The ready, undone nodes of the active DAGs are exactly the queued
    ///   tasks, the tasks on cores and the offloads in flight.
    /// * Every cell's injected DAGs are completed or still active.
    #[cfg(debug_assertions)]
    fn check_invariants(&self) {
        self.cores.check();
        let mut ready = 0;
        for d in self.dags.iter().flatten() {
            assert_eq!(
                d.remaining_critical_path,
                critical_path_left(&d.tail, &d.done),
                "stale remaining critical path"
            );
            ready += (0..d.done.len())
                .filter(|&i| !d.done[i] && d.pred_left[i] == 0)
                .count();
        }
        let on_cores = self
            .cores
            .iter()
            .filter(|c| matches!(c.state(), CoreState::Busy { .. }))
            .count();
        assert_eq!(on_cores, self.running_tasks, "running-task count");
        assert_eq!(
            ready,
            self.arch.len() + on_cores + self.offloads_in_flight,
            "ready nodes = queued + running + offloaded"
        );
        for (cell, ledger) in self.metrics.per_cell.iter().enumerate() {
            let active = self.active_dags_for_cell(cell as u32) as u64;
            assert_eq!(
                ledger.injected,
                ledger.completed + active,
                "cell {cell}: injected = completed + active"
            );
        }
    }
}

/// Longest predicted path through a DAG's unfinished nodes: the largest
/// tail among them (zero once every node is done).
fn critical_path_left(tail: &[Nanos], done: &[bool]) -> Nanos {
    tail.iter()
        .zip(done)
        .filter(|&(_, &done)| !done)
        .fold(Nanos::ZERO, |cp, (&t, _)| cp.max(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched_api::DedicatedScheduler;
    use concordia_ran::cell::CellConfig;
    use concordia_ran::dag::{build_dag, SlotWorkload, UeAlloc};
    use concordia_ran::numerology::SlotDirection;

    fn test_dag(arrival: Nanos, ue_bytes: u32, n_ues: usize) -> ScheduledDag {
        cell_dag(0, arrival, ue_bytes, n_ues)
    }

    /// An uplink 100 MHz slot DAG of cell `cell_id` with `n_ues` equal UEs.
    fn cell_dag(cell_id: u32, arrival: Nanos, ue_bytes: u32, n_ues: usize) -> ScheduledDag {
        let cell = CellConfig::tdd_100mhz();
        let wl = SlotWorkload {
            direction: SlotDirection::Uplink,
            ues: (0..n_ues)
                .map(|_| UeAlloc {
                    tb_bytes: ue_bytes,
                    mcs_index: 16,
                    snr_db: 22.0,
                    layers: 2,
                    prbs: 30,
                })
                .collect(),
        };
        let dag = build_dag(&cell, cell_id, 0, arrival, &wl);
        let cost = CostModel::new();
        let node_wcet = dag
            .nodes
            .iter()
            .map(|n| cost.expected_cost(n.task.kind, &n.task.params).scale(1.3))
            .collect();
        ScheduledDag { dag, node_wcet }
    }

    fn pool_with(cores: u32) -> VranPool {
        VranPool::new(
            PoolConfig {
                cores,
                rotation: None,
                ..PoolConfig::default()
            },
            CostModel::new(),
            Box::new(DedicatedScheduler),
            7,
        )
    }

    #[test]
    fn single_dag_completes_and_is_recorded() {
        let mut pool = pool_with(4);
        pool.inject_dag(test_dag(Nanos::ZERO, 6_000, 2));
        pool.run_until(Nanos::from_millis(5));
        assert_eq!(pool.active_dags(), 0);
        assert_eq!(pool.metrics().slots.count(), 1);
        assert_eq!(pool.metrics().slots.violations(), 0);
        assert!(pool.metrics().tasks_executed > 5);
    }

    #[test]
    fn dag_latency_at_least_critical_path() {
        let mut pool = pool_with(8);
        let sd = test_dag(Nanos::ZERO, 10_000, 3);
        let cp = sd.dag.critical_path(&CostModel::new());
        pool.inject_dag(sd);
        pool.run_until(Nanos::from_millis(5));
        let lat = Nanos::from_micros_f64(pool.metrics().slots.latencies_us()[0]);
        assert!(
            lat.as_nanos() as f64 > cp.as_nanos() as f64 * 0.7,
            "latency {lat} vs critical path {cp}"
        );
    }

    #[test]
    fn more_cores_process_parallel_dag_faster() {
        let run = |cores: u32| {
            let mut pool = pool_with(cores);
            pool.inject_dag(test_dag(Nanos::ZERO, 20_000, 6));
            pool.run_until(Nanos::from_millis(20));
            assert_eq!(pool.active_dags(), 0, "{cores} cores did not finish");
            pool.metrics().slots.latencies_us()[0]
        };
        let slow = run(1);
        let fast = run(8);
        assert!(
            fast < slow * 0.55,
            "8 cores {fast}us should beat 1 core {slow}us"
        );
    }

    #[test]
    fn observations_match_executed_tasks() {
        let mut pool = pool_with(4);
        pool.inject_dag(test_dag(Nanos::ZERO, 4_000, 2));
        pool.run_until(Nanos::from_millis(5));
        let obs = pool.drain_observations();
        assert_eq!(obs.len() as u64, pool.metrics().tasks_executed);
        assert!(obs.iter().all(|o| o.runtime_us > 0.0));
        // Draining empties the buffer.
        assert!(pool.drain_observations().is_empty());
    }

    #[test]
    fn busy_time_not_more_than_core_time_bound() {
        let mut pool = pool_with(4);
        for k in 0..10 {
            let arrival = Nanos::from_micros(500 * k);
            pool.run_until(arrival);
            pool.inject_dag(test_dag(arrival, 5_000, 2));
        }
        pool.run_until(Nanos::from_millis(20));
        let m = pool.metrics();
        // Dedicated scheduler never releases: busy time <= 4 cores * 20 ms.
        assert!(m.vran_busy_time <= Nanos::from_millis(80));
        assert!(m.vran_busy_time > Nanos::ZERO);
        assert_eq!(m.besteffort_core_time, Nanos::ZERO);
    }

    /// A scheduler that holds a fixed number of cores.
    struct FixedCores(u32);
    impl PoolScheduler for FixedCores {
        fn target_cores(&mut self, _v: &PoolView<'_>) -> u32 {
            self.0
        }
        fn tick(&self) -> Nanos {
            Nanos::from_micros(20)
        }
    }

    #[test]
    fn released_cores_accumulate_besteffort_time() {
        let mut pool = VranPool::new(
            PoolConfig {
                cores: 8,
                rotation: None,
                ..PoolConfig::default()
            },
            CostModel::new(),
            Box::new(FixedCores(2)),
            9,
        );
        pool.run_until(Nanos::from_millis(10));
        let m = pool.metrics();
        // 6 of 8 cores released: once the first tick fires, ~6 * 10 ms of
        // best-effort time accumulates, but release time is only accounted
        // at wake; force accounting by growing the grant.
        assert_eq!(pool.granted_cores(), 2);
        let _ = m;
        // Grow back and check accounting.
        pool.scheduler = Box::new(FixedCores(8));
        pool.run_until(Nanos::from_millis(11));
        let m = pool.metrics();
        let be_ms = m.besteffort_core_time.as_millis_f64();
        assert!(
            (55.0..=62.0).contains(&be_ms),
            "best-effort core-ms {be_ms}"
        );
        assert!(m.wake_events >= 6);
    }

    #[test]
    fn wake_latency_recorded_per_wake() {
        let mut pool = VranPool::new(
            PoolConfig {
                cores: 4,
                rotation: None,
                ..PoolConfig::default()
            },
            CostModel::new(),
            Box::new(FixedCores(0)),
            11,
        );
        pool.run_until(Nanos::from_millis(1));
        pool.scheduler = Box::new(FixedCores(4));
        pool.run_until(Nanos::from_millis(2));
        let m = pool.metrics();
        assert_eq!(m.wake_events, 4);
        assert_eq!(m.wake_hist.total(), 4);
        assert_eq!(m.evictions, 4);
    }

    #[test]
    fn rotation_cycles_physical_cores() {
        let mut pool = VranPool::new(
            PoolConfig {
                cores: 4,
                rotation: Some(Nanos::from_millis(2)),
                ..PoolConfig::default()
            },
            CostModel::new(),
            Box::new(FixedCores(2)),
            13,
        );
        pool.run_until(Nanos::from_millis(21));
        // ~10 rotations in 21 ms, each one wake.
        let m = pool.metrics();
        assert!(
            (8..=14).contains(&(m.wake_events as i64)),
            "wake events {}",
            m.wake_events
        );
    }

    #[test]
    fn deadline_violation_detected_when_starved() {
        // One core, a heavy DAG: the deadline must be blown and recorded.
        let mut pool = pool_with(1);
        let mut sd = test_dag(Nanos::ZERO, 50_000, 8);
        // Tighten the deadline to something impossible.
        sd.dag.deadline = Nanos::from_micros(100);
        pool.inject_dag(sd);
        pool.run_until(Nanos::from_millis(50));
        assert_eq!(pool.metrics().slots.violations(), 1);
        assert!(pool.metrics().slots.reliability() < 1.0);
    }

    #[test]
    fn fpga_offload_reduces_cpu_busy_time() {
        let run = |fpga: bool| {
            let mut pool = pool_with(4);
            if fpga {
                pool.enable_fpga(concordia_ran::accel::FpgaModel::default());
            }
            pool.inject_dag(test_dag(Nanos::ZERO, 30_000, 4));
            pool.run_until(Nanos::from_millis(30));
            assert_eq!(pool.active_dags(), 0);
            pool.metrics().vran_busy_time
        };
        let cpu_only = run(false);
        let offloaded = run(true);
        assert!(
            offloaded < cpu_only.scale(0.7),
            "offloaded busy {offloaded} vs cpu {cpu_only}"
        );
    }

    #[test]
    fn interference_pressure_increases_latency() {
        let run = |pressure: f64| {
            let mut pool = pool_with(2);
            pool.set_pressure(pressure, pressure);
            let mut total = 0.0;
            for k in 0..40 {
                let t = Nanos::from_micros(500 * k);
                pool.run_until(t);
                pool.inject_dag(test_dag(t, 8_000, 2));
            }
            pool.run_until(Nanos::from_millis(60));
            for &l in pool.metrics().slots.latencies_us() {
                total += l;
            }
            total / pool.metrics().slots.count() as f64
        };
        let iso = run(0.0);
        let loaded = run(3.0);
        assert!(
            loaded > iso * 1.01,
            "interference must slow tasks: {iso} vs {loaded}"
        );
    }

    #[test]
    fn determinism_across_identical_runs() {
        let run = || {
            let mut pool = pool_with(4);
            for k in 0..20 {
                let t = Nanos::from_micros(500 * k);
                pool.run_until(t);
                pool.inject_dag(test_dag(t, 6_000, 2));
            }
            pool.run_until(Nanos::from_millis(30));
            (
                pool.metrics().slots.mean_us(),
                pool.metrics().tasks_executed,
                pool.metrics().vran_busy_time,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_dag_is_ignored() {
        let mut pool = pool_with(2);
        let sd = ScheduledDag {
            dag: SlotDag {
                cell_id: 0,
                slot_idx: 0,
                direction: SlotDirection::Uplink,
                arrival: Nanos::ZERO,
                deadline: Nanos::from_millis(1),
                nodes: vec![],
            },
            node_wcet: vec![],
        };
        pool.inject_dag(sd);
        pool.run_until(Nanos::from_millis(1));
        assert_eq!(pool.metrics().slots.count(), 0);
        assert_eq!(pool.active_dags(), 0);
    }

    use crate::faults::{FaultKind, FaultPlan, FaultSpec, FaultTimeline};

    fn fixed_timeline(
        kind: FaultKind,
        start_us: u64,
        end_us: u64,
        severity: f64,
    ) -> Arc<FaultTimeline> {
        Arc::new(fixed_timeline_inner(kind, start_us, end_us, severity))
    }

    fn fixed_timeline_inner(
        kind: FaultKind,
        start_us: u64,
        end_us: u64,
        severity: f64,
    ) -> FaultTimeline {
        FaultPlan {
            specs: vec![FaultSpec::fixed(
                kind,
                Nanos::from_micros(start_us),
                Nanos::from_micros(end_us - start_us),
                severity,
            )],
        }
        .resolve(0)
    }

    #[test]
    fn core_offline_requeues_without_losing_work() {
        let mut pool = pool_with(4);
        pool.set_fault_timeline(fixed_timeline(FaultKind::CoreOffline, 200, 4_000, 0.5));
        for k in 0..10 {
            let t = Nanos::from_micros(500 * k);
            pool.run_until(t);
            pool.inject_dag(test_dag(t, 8_000, 3));
        }
        pool.run_until(Nanos::from_millis(40));
        assert_eq!(pool.active_dags(), 0, "work lost across core failure");
        assert_eq!(pool.metrics().slots.count(), 10);
        assert!(pool.metrics().cores_failed >= 1);
        assert!(pool.metrics().offline_core_time > Nanos::ZERO);
    }

    #[test]
    fn core_offline_never_takes_the_whole_pool() {
        let mut pool = pool_with(2);
        // Severity 1.0 asks for everything; the injector must leave one.
        pool.set_fault_timeline(fixed_timeline(FaultKind::CoreOffline, 0, 20_000, 1.0));
        pool.inject_dag(test_dag(Nanos::ZERO, 6_000, 2));
        pool.run_until(Nanos::from_millis(10));
        assert!(pool.offline_cores() <= 1, "whole pool taken offline");
        pool.run_until(Nanos::from_millis(40));
        assert_eq!(pool.active_dags(), 0);
    }

    #[test]
    fn shrink_never_drops_below_one_core() {
        let mut pool = pool_with(2);
        assert_eq!(pool.shrink_pool(5), 1);
        assert_eq!(pool.capacity(), 1);
        assert_eq!(pool.shrink_pool(1), 0);
        assert_eq!(pool.capacity(), 1);
        pool.inject_dag(test_dag(Nanos::ZERO, 6_000, 2));
        pool.run_until(Nanos::from_millis(20));
        assert_eq!(pool.active_dags(), 0, "last core must still make progress");
    }

    #[test]
    fn grow_revives_retired_slots_before_appending() {
        let mut pool = pool_with(4);
        assert_eq!(pool.shrink_pool(2), 2);
        assert_eq!(pool.capacity(), 2);
        // Growing by 3 revives the two retired slots and appends one new
        // core; core indices stay stable throughout.
        assert_eq!(pool.grow_pool(3), 5);
        assert_eq!(pool.capacity(), 5);
        pool.inject_dag(test_dag(Nanos::ZERO, 10_000, 4));
        pool.run_until(Nanos::from_millis(20));
        assert_eq!(pool.active_dags(), 0);
    }

    #[test]
    fn shrink_mid_run_defers_busy_cores_and_loses_no_work() {
        let mut pool = pool_with(4);
        for k in 0..6 {
            let t = Nanos::from_micros(500 * k);
            pool.run_until(t);
            pool.inject_dag(test_dag(t, 8_000, 3));
        }
        // Mid-run: busy cores get a deferred release, not a second one.
        assert_eq!(pool.shrink_pool(2), 2);
        assert_eq!(pool.capacity(), 2);
        pool.run_until(Nanos::from_millis(40));
        assert_eq!(pool.active_dags(), 0, "work lost across runtime shrink");
        assert_eq!(pool.metrics().slots.count(), 6);
        assert!(pool.granted_cores() <= pool.capacity());
    }

    #[test]
    fn shrink_while_core_fault_lost_does_not_double_release() {
        // Regression: a core taken offline by a fault is already Released;
        // retiring it during the fault window must retire it in place
        // rather than releasing it a second time, and the later restore
        // must not bring a retired core back into service.
        let mut pool = pool_with(4);
        pool.set_fault_timeline(fixed_timeline(FaultKind::CoreOffline, 200, 30_000, 0.5));
        for k in 0..6 {
            let t = Nanos::from_micros(500 * k);
            pool.run_until(t);
            pool.inject_dag(test_dag(t, 8_000, 3));
        }
        pool.run_until(Nanos::from_micros(4_000));
        assert!(pool.metrics().cores_failed >= 1, "fault window not active");
        let retired = pool.shrink_pool(2);
        assert_eq!(retired, 2);
        assert_eq!(pool.capacity(), 2);
        // Run through the fault-end restore and drain everything.
        pool.run_until(Nanos::from_millis(80));
        assert_eq!(pool.active_dags(), 0, "work lost across shrink + fault");
        assert_eq!(pool.metrics().slots.count(), 6);
        assert!(pool.granted_cores() <= pool.capacity());
        // Growing back revives retired slots, faulted-then-restored or not.
        assert_eq!(pool.grow_pool(2), 4);
        assert_eq!(pool.capacity(), 4);
    }

    #[test]
    fn accel_timeout_falls_back_to_cpu() {
        let mut pool = pool_with(4);
        pool.enable_fpga(concordia_ran::accel::FpgaModel::default());
        // Zero-microsecond budget: every projected completion misses it.
        pool.set_fault_timeline(fixed_timeline(FaultKind::AccelTimeout, 0, 50_000, 0.0));
        pool.inject_dag(test_dag(Nanos::ZERO, 20_000, 4));
        pool.run_until(Nanos::from_millis(30));
        assert_eq!(pool.active_dags(), 0);
        assert!(
            pool.metrics().offload_fallbacks > 0,
            "timeouts must reroute"
        );
    }

    #[test]
    fn accel_outage_mid_run_survives_on_cpu() {
        let mut pool = pool_with(4);
        pool.enable_fpga(concordia_ran::accel::FpgaModel::default());
        pool.set_fault_timeline(fixed_timeline(FaultKind::AccelOutage, 100, 20_000, 1.0));
        for k in 0..8 {
            let t = Nanos::from_micros(300 * k);
            pool.run_until(t);
            pool.inject_dag(test_dag(t, 10_000, 3));
        }
        pool.run_until(Nanos::from_millis(40));
        assert_eq!(pool.active_dags(), 0, "outage must not wedge the pool");
        assert_eq!(pool.metrics().slots.count(), 8);
    }

    #[test]
    fn core_stall_inflates_runtimes() {
        let run = |stall: Option<Arc<FaultTimeline>>| {
            let mut pool = pool_with(2);
            if let Some(tl) = stall {
                pool.set_fault_timeline(tl);
            }
            pool.inject_dag(test_dag(Nanos::ZERO, 10_000, 2));
            pool.run_until(Nanos::from_millis(20));
            pool.metrics().slots.mean_us()
        };
        let healthy = run(None);
        let stalled = run(Some(fixed_timeline(FaultKind::CoreStall, 0, 20_000, 1.0)));
        assert!(
            stalled > healthy * 1.5,
            "severity-1.0 stall must roughly double latency: {healthy} vs {stalled}"
        );
    }

    #[test]
    fn drift_injection_inflates_runtimes_inside_the_window() {
        let run = |drift: Option<Arc<FaultTimeline>>| {
            let mut pool = pool_with(2);
            if let Some(tl) = drift {
                pool.set_fault_timeline(tl);
            }
            pool.inject_dag(test_dag(Nanos::ZERO, 10_000, 2));
            pool.run_until(Nanos::from_millis(20));
            pool.metrics().slots.mean_us()
        };
        let healthy = run(None);
        let drifted = run(Some(fixed_timeline(
            FaultKind::DriftInjection,
            0,
            20_000,
            1.0,
        )));
        // The multiplier is runtime-dependent (up to 1 + severity for long
        // tasks), so latency must rise, but by less than a uniform 2×.
        assert!(
            drifted > healthy * 1.05,
            "drift must inflate latency: {healthy} vs {drifted}"
        );
        // Outside the window behavior is untouched: a window that ended
        // before the work arrives changes nothing.
        let cleared = run(Some(fixed_timeline(FaultKind::DriftInjection, 0, 1, 1.0)));
        assert_eq!(cleared, healthy, "expired drift window must be inert");
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let run = || {
            let mut pool = pool_with(4);
            pool.enable_fpga(concordia_ran::accel::FpgaModel::default());
            pool.set_fault_timeline(Arc::new(
                FaultPlan::chaos(
                    &[
                        FaultKind::CoreOffline,
                        FaultKind::CoreStall,
                        FaultKind::AccelOutage,
                    ],
                    Nanos::from_millis(10),
                )
                .resolve(3),
            ));
            for k in 0..12 {
                let t = Nanos::from_micros(400 * k);
                pool.run_until(t);
                pool.inject_dag(test_dag(t, 6_000, 2));
            }
            pool.run_until(Nanos::from_millis(30));
            (
                pool.metrics().slots.mean_us(),
                pool.metrics().tasks_executed,
                pool.metrics().tasks_requeued,
                pool.metrics().cores_failed,
                pool.metrics().vran_busy_time,
            )
        };
        assert_eq!(run(), run());
    }

    use crate::trace::{TraceConfig, TraceEvent};

    #[test]
    fn tracing_never_perturbs_the_simulation() {
        let run = |traced: bool| {
            let mut pool = pool_with(4);
            pool.enable_fpga(concordia_ran::accel::FpgaModel::default());
            if traced {
                pool.enable_trace(TraceConfig::default());
            }
            pool.set_fault_timeline(Arc::new(
                FaultPlan::chaos(
                    &[FaultKind::CoreOffline, FaultKind::AccelOutage],
                    Nanos::from_millis(10),
                )
                .resolve(5),
            ));
            for k in 0..12 {
                let t = Nanos::from_micros(400 * k);
                pool.run_until(t);
                pool.inject_dag(test_dag(t, 6_000, 2));
            }
            pool.run_until(Nanos::from_millis(30));
            (
                pool.metrics().slots.mean_us(),
                pool.metrics().tasks_executed,
                pool.metrics().tasks_requeued,
                pool.metrics().vran_busy_time,
                pool.metrics().wake_events,
            )
        };
        assert_eq!(run(false), run(true), "tracing changed the outcome");
    }

    #[test]
    fn trace_captures_the_hot_path_event_classes() {
        let mut pool = pool_with(4);
        pool.enable_fpga(concordia_ran::accel::FpgaModel::default());
        pool.enable_trace(TraceConfig::default());
        pool.set_fault_timeline(fixed_timeline(FaultKind::CoreOffline, 500, 4_000, 0.5));
        for k in 0..6 {
            let t = Nanos::from_micros(500 * k);
            pool.run_until(t);
            pool.inject_dag(test_dag(t, 8_000, 3));
        }
        pool.run_until(Nanos::from_millis(40));
        let tr = pool.trace().expect("tracing enabled");
        let has = |pred: &dyn Fn(&TraceEvent) -> bool| tr.iter().any(|r| pred(&r.ev));
        assert!(has(&|e| matches!(e, TraceEvent::TaskStart { .. })));
        assert!(has(&|e| matches!(e, TraceEvent::TaskComplete { .. })));
        assert!(has(&|e| matches!(e, TraceEvent::DagComplete { .. })));
        assert!(has(&|e| matches!(e, TraceEvent::OffloadDone { .. })));
        assert!(has(&|e| matches!(e, TraceEvent::FaultStart { .. })));
        assert!(has(&|e| matches!(e, TraceEvent::FaultEnd { .. })));
        assert!(has(&|e| matches!(e, TraceEvent::CoreFail { .. })));
        assert!(has(&|e| matches!(e, TraceEvent::CoreRestore { .. })));
        // Record times arrive in nondecreasing order (ring preserves it).
        let times: Vec<u64> = tr.iter().map(|r| r.t.as_nanos()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // Requeues are traced 1:1 with the metric.
        let requeues = tr
            .iter()
            .filter(|r| matches!(r.ev, TraceEvent::TaskRequeue { .. }))
            .count() as u64;
        assert_eq!(requeues, pool.metrics().tasks_requeued);
        let summary = pool.trace_summary().unwrap();
        assert_eq!(
            summary.events_recorded,
            tr.len() as u64 + tr.dropped(),
            "summary counts kept + dropped"
        );
        // take_trace moves the recorder out.
        let taken = pool.take_trace().unwrap();
        assert!(!taken.is_empty());
        assert!(!pool.trace_enabled());
    }

    /// Random sequences of every pool transition — injections, runs, grow,
    /// shrink, core-offline, core-stall and accelerator-outage windows,
    /// pressure changes, rotation and FPGA offload — on every
    /// architecture, at widths on both sides of the idle set's 64-core
    /// word boundary. In debug builds every `inject_dag` and `run_until`
    /// checks the cached core counts, idle set and critical paths against
    /// a rescan, and checks work conservation; after the drain every
    /// injected DAG of every cell must be complete.
    mod transitions {
        use super::*;
        use proptest::prelude::*;

        /// A scheduler whose target moves on every call, so cores are
        /// woken, released, and released when their task finishes.
        struct MovingTarget(u64);

        impl PoolScheduler for MovingTarget {
            fn target_cores(&mut self, v: &PoolView<'_>) -> u32 {
                self.0 += 1;
                let demand = (v.ready_tasks + v.running_tasks) as u32;
                match self.0 % 6 {
                    0 => 0,
                    1 | 4 => v.total_cores,
                    2 => demand.min(v.total_cores),
                    3 => v.total_cores / 2,
                    _ => v.granted_cores.saturating_sub(1),
                }
            }
            fn tick(&self) -> Nanos {
                Nanos::from_micros(20)
            }
        }

        #[derive(Debug, Clone)]
        enum Op {
            Inject { cell: u32, ues: usize },
            Run { micros: u64 },
            Grow(u32),
            Shrink(u32),
            Pressure { cache: f64, kernel: f64 },
        }

        fn op() -> impl Strategy<Value = Op> {
            (0u8..11, 0u32..4, 1u64..600, 0.0f64..3.0, 0.0f64..3.0).prop_map(
                |(sel, cell, n, cache, kernel)| match sel {
                    0..=3 => Op::Inject {
                        cell,
                        ues: 1 + (n % 3) as usize,
                    },
                    4..=7 => Op::Run { micros: n },
                    8 => Op::Grow(1 + (n % 8) as u32),
                    9 => Op::Shrink(1 + (n % 8) as u32),
                    _ => Op::Pressure { cache, kernel },
                },
            )
        }

        fn window() -> impl Strategy<Value = FaultSpec> {
            const KINDS: [FaultKind; 3] = [
                FaultKind::CoreOffline,
                FaultKind::CoreStall,
                FaultKind::AccelOutage,
            ];
            (0usize..3, 0u64..4_000, 1u64..4_000, 0.1f64..1.0).prop_map(
                |(kind, start, len, severity)| {
                    FaultSpec::fixed(
                        KINDS[kind],
                        Nanos::from_micros(start),
                        Nanos::from_micros(len),
                        severity,
                    )
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]
            #[test]
            fn every_transition_keeps_the_pool_consistent(
                arch in (0usize..5).prop_map(|i| PoolArchChoice::ALL[i]),
                width in 1u32..=80,
                (rotation, fpga) in (0u8..2, 0u8..2).prop_map(|(r, f)| (r == 1, f == 1)),
                windows in proptest::collection::vec(window(), 0..4),
                ops in proptest::collection::vec(op(), 1..40),
                seed in 0u64..u64::MAX,
            ) {
                let mut pool = VranPool::new(
                    PoolConfig {
                        cores: width,
                        rotation: rotation.then(|| Nanos::from_millis(2)),
                        arch,
                        ..PoolConfig::default()
                    },
                    CostModel::new(),
                    Box::new(MovingTarget(0)),
                    seed,
                );
                if fpga {
                    pool.enable_fpga(concordia_ran::accel::FpgaModel::default());
                }
                pool.set_fault_timeline(Arc::new(FaultPlan { specs: windows }.resolve(seed)));
                let mut injected = [0u64; 4];
                for op in ops {
                    match op {
                        Op::Inject { cell, ues } => {
                            pool.inject_dag(cell_dag(cell, pool.now(), 4_000, ues));
                            injected[cell as usize] += 1;
                        }
                        Op::Run { micros } => pool.run_until(pool.now() + Nanos::from_micros(micros)),
                        Op::Grow(n) => {
                            let before = pool.capacity();
                            prop_assert_eq!(pool.grow_pool(n), before + n);
                        }
                        Op::Shrink(n) => {
                            let before = pool.capacity();
                            let retired = pool.shrink_pool(n);
                            prop_assert_eq!(pool.capacity(), before - retired);
                            prop_assert!(pool.capacity() >= 1);
                        }
                        Op::Pressure { cache, kernel } => pool.set_pressure(cache, kernel),
                    }
                    prop_assert!(pool.granted_cores() <= pool.cores.len() as u32);
                    prop_assert!(pool.offline_cores() <= pool.capacity());
                }
                // Drain: the moving target grants every core on two of
                // every six ticks, so all work completes eventually.
                let mut drained = 0;
                while pool.active_dags() > 0 && drained < 400 {
                    pool.run_until(pool.now() + Nanos::from_millis(5));
                    drained += 1;
                }
                prop_assert!(pool.active_dags() == 0, "work stranded on {}", arch.name());
                for (cell, &n) in injected.iter().enumerate() {
                    let ledger = pool.metrics().per_cell.get(cell).copied().unwrap_or_default();
                    prop_assert_eq!(ledger.injected, n);
                    prop_assert!(ledger.completed == n, "cell {} lost work", cell);
                }
            }
        }
    }
}
