//! The scheduler interface the pool simulator drives.
//!
//! Concordia (§3) and the baselines of §6.3 all reduce to one decision,
//! re-evaluated at a fine time granularity: *how many cores should the vRAN
//! hold right now?* The pool rotates which physical cores implement that
//! count (§5: rotation every 2 ms) and handles wake latency; the scheduler
//! only chooses the target count from the [`PoolView`].

use concordia_ran::task::TaskKind;
use concordia_ran::time::Nanos;

/// A runnable, unclaimed task in the pool's ready structure.
///
/// Ordering is EDF with FIFO tie-break — `(deadline, seq)` — regardless of
/// which [`PoolArchitecture`] holds the entry; `seq` is assigned by the
/// pool in push order and is unique, so the order is total. The routing
/// keys (`cell`, `kind`) do not participate in the ordering: they exist so
/// decentralized architectures can place the task without chasing the DAG
/// slot again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyTask {
    /// Absolute deadline of the owning DAG.
    pub deadline: Nanos,
    /// Pool-assigned push sequence number (FIFO tie-break, unique).
    pub seq: u64,
    /// Active-DAG slot index.
    pub dag: u32,
    /// Node index within the DAG.
    pub node: u32,
    /// Cell the owning DAG belongs to (per-cell queue routing).
    pub cell: u32,
    /// Task kind (pipeline-stage routing).
    pub kind: TaskKind,
}

impl PartialOrd for ReadyTask {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ReadyTask {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

/// A pluggable worker-pool architecture: the queue discipline and the
/// task→core placement policy behind the pool's dispatch loop.
///
/// The pool owns the core state machines, fault injection, accounting and
/// the event queue; the architecture owns only the *ready structure*:
/// where a pushed task waits and which waiting task a given spinning core
/// receives. Four contracts keep every implementation interchangeable:
///
/// * **Conservation** — a pushed task must remain poppable until popped.
///   Placement may consult the in-service mask, but queued work must never
///   be stranded on a core that can no longer exist (retirement and fault
///   windows re-issue [`PoolArchitecture::set_in_service`], after which
///   new pops must be able to reach every queued task through some
///   in-service core).
/// * **Determinism** — pop order is a pure function of the push/pop
///   sequence and the seed the architecture was built with (work stealing
///   draws its victims from a pool-forked RNG stream, never from ambient
///   state), so reports stay byte-identical across `--jobs` and repeated
///   runs.
/// * **Work accounting** — [`PoolArchitecture::len`] is the exact number
///   of queued tasks: the scheduler's [`PoolView::ready_tasks`] signal and
///   the pool's work-conservation check (ready nodes = queued + running +
///   offloaded) both read it.
/// * **Allocation freedom** — steady-state push/pop must not allocate
///   once internal buffers are warm (the pool's hot-path guarantee extends
///   to every architecture; `tests/hotpath_alloc.rs` enforces it).
pub trait PoolArchitecture: Send {
    /// Installs the in-service core mask (`true` = neither faulted nor
    /// retired). Called once at pool construction and again on every
    /// fault, restore, grow or shrink, before the next dispatch.
    fn set_in_service(&mut self, usable: &[bool]);

    /// Accepts a ready task. `origin` is the worker core that produced it
    /// (completion path) or `None` for slot-boundary injections, FPGA
    /// completions and fault requeues.
    fn push(&mut self, task: ReadyTask, origin: Option<u32>);

    /// Hands the next task for the spinning core `core`, or `None` when
    /// this core currently has nothing to run (other cores may still).
    fn pop_for(&mut self, core: u32) -> Option<ReadyTask>;

    /// Total queued tasks.
    fn len(&self) -> usize;

    /// True when no task is queued anywhere.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a worker on `core` that just finished a task may keep a
    /// newly-ready successor (of `kind`, belonging to `cell`) to run
    /// locally — §2.1's cache-efficiency optimization. Architectures with
    /// placement constraints veto successors that belong elsewhere.
    fn keeps_local(&self, core: u32, cell: u32, kind: TaskKind) -> bool;
}

/// Progress snapshot of one active (incomplete) DAG: the deadline `D`,
/// remaining work `C` and remaining critical path `L` of §3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagProgress {
    /// Absolute deadline.
    pub deadline: Nanos,
    /// Sum of predicted WCETs of unfinished nodes (the remaining `C`).
    pub remaining_work: Nanos,
    /// Longest predicted path through unfinished nodes (the remaining `L`).
    pub remaining_critical_path: Nanos,
}

/// What a scheduler sees when making its core-count decision.
#[derive(Debug, Clone)]
pub struct PoolView<'a> {
    /// Current simulation time.
    pub now: Nanos,
    /// Physical cores in the vRAN pool.
    pub total_cores: u32,
    /// Cores currently held by the vRAN (granted, waking or busy).
    pub granted_cores: u32,
    /// Active DAG progress snapshots.
    pub dags: &'a [DagProgress],
    /// Ready (runnable, unclaimed) tasks in the priority queues.
    pub ready_tasks: usize,
    /// Tasks currently executing on workers.
    pub running_tasks: usize,
    /// How long the oldest ready task has been waiting (Shenango's signal).
    pub oldest_ready_wait: Nanos,
    /// Exponentially weighted recent busy fraction of granted cores (the
    /// utilization-based scheduler's signal).
    pub recent_utilization: f64,
}

/// A vRAN pool scheduler: chooses the number of cores the vRAN holds.
pub trait PoolScheduler: Send {
    /// Target number of cores for the vRAN, in `[0, view.total_cores]`.
    /// Called every [`PoolScheduler::tick`] and on DAG arrival.
    fn target_cores(&mut self, view: &PoolView<'_>) -> u32;

    /// Re-evaluation period (Concordia: 20 µs).
    fn tick(&self) -> Nanos;
}

/// A trivial scheduler that always holds every core — the operators'
/// current best practice of full isolation (§2.3), used as the isolated
/// baseline and in tests.
#[derive(Debug, Clone, Copy)]
pub struct DedicatedScheduler;

impl PoolScheduler for DedicatedScheduler {
    fn target_cores(&mut self, view: &PoolView<'_>) -> u32 {
        view.total_cores
    }
    fn tick(&self) -> Nanos {
        Nanos::from_micros(100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedicated_scheduler_holds_everything() {
        let mut s = DedicatedScheduler;
        let view = PoolView {
            now: Nanos::ZERO,
            total_cores: 8,
            granted_cores: 2,
            dags: &[],
            ready_tasks: 0,
            running_tasks: 0,
            oldest_ready_wait: Nanos::ZERO,
            recent_utilization: 0.0,
        };
        assert_eq!(s.target_cores(&view), 8);
        assert!(s.tick() > Nanos::ZERO);
    }
}
