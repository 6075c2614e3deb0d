//! Worker-pool architectures: queue disciplines and task→core placement.
//!
//! §6.3 of the paper compares Concordia's centralized EDF queue against
//! alternative scheduler designs; this module makes that comparison a
//! first-class axis instead of a hard-coded loop. Five implementations of
//! [`PoolArchitecture`] cover the design space the vRAN literature argues
//! about (cf. the carvalhof simulator's core layouts × cFCFS/dFCFS
//! disciplines):
//!
//! * [`CentralEdf`] — today's pool, extracted verbatim: one global
//!   priority queue in `(deadline, seq)` order, any core serves any task.
//!   Byte-identical to the pre-refactor pool (goldens unchanged).
//! * [`CentralFcfs`] — the same single shared queue with the deadline
//!   ignored (cFCFS): arrival order only. Isolates the *discipline* axis
//!   from the *placement* axis.
//! * [`PerCellDfcfs`] — decentralized FCFS: one FIFO queue per cell with a
//!   static cell→core affinity over the in-service cores. A core only
//!   serves its own cells (head-of-line blocking and load imbalance
//!   included — that is the point of the baseline).
//! * [`WorkStealing`] — per-core deques: completions push to the producing
//!   core's deque (owner pops LIFO for cache locality), injections are
//!   spread by DAG slot, and an idle core steals FIFO from a victim chosen
//!   by a seeded RNG stream so runs stay byte-reproducible.
//! * [`PipelinePartition`] — phase-partitioned: FH (FFT/iFFT), PHY
//!   (channel estimation … decoding) and MAC stage groups run on disjoint
//!   in-service core sets, EDF within each stage queue.
//!
//! [`PoolArchChoice`] selects one; it threads through `SimConfig` and the
//! CLI as `--pool`.

use crate::sched_api::{PoolArchitecture, ReadyTask};
use concordia_ran::task::TaskKind;
use concordia_stats::rng::Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Which worker-pool architecture a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PoolArchChoice {
    /// Centralized EDF queue (the paper's design; the default).
    #[default]
    Edf,
    /// Centralized FCFS queue (cFCFS: shared queue, deadline-blind).
    Cfcfs,
    /// Per-cell FCFS queues with static cell→core affinity (dFCFS).
    Dfcfs,
    /// Per-core deques with seeded deterministic work stealing.
    Steal,
    /// FH→PHY→MAC stage groups on disjoint core sets.
    Pipeline,
}

impl PoolArchChoice {
    /// Every architecture, in report order.
    pub const ALL: [PoolArchChoice; 5] = [
        PoolArchChoice::Edf,
        PoolArchChoice::Cfcfs,
        PoolArchChoice::Dfcfs,
        PoolArchChoice::Steal,
        PoolArchChoice::Pipeline,
    ];

    /// True for the default architecture — lets configs skip serializing
    /// the field so existing golden bytes stay unchanged.
    pub fn is_default(v: &PoolArchChoice) -> bool {
        *v == PoolArchChoice::Edf
    }

    /// Stable lowercase name (CLI value / bench labels).
    pub fn name(&self) -> &'static str {
        match self {
            PoolArchChoice::Edf => "edf",
            PoolArchChoice::Cfcfs => "cfcfs",
            PoolArchChoice::Dfcfs => "dfcfs",
            PoolArchChoice::Steal => "steal",
            PoolArchChoice::Pipeline => "pipeline",
        }
    }

    /// Parses a CLI name. Inverse of [`Self::name`].
    pub fn from_name(s: &str) -> Option<PoolArchChoice> {
        PoolArchChoice::ALL.into_iter().find(|a| a.name() == s)
    }

    /// Builds the architecture. `rng` seeds any internal randomized
    /// policy (work stealing's victim selection); deterministic
    /// architectures simply drop it, so the pool hands every architecture
    /// the same forked stream and stays byte-stable across choices.
    pub fn build(self, rng: Rng) -> Box<dyn PoolArchitecture> {
        match self {
            PoolArchChoice::Edf => Box::new(CentralEdf::new()),
            PoolArchChoice::Cfcfs => Box::new(CentralFcfs::new()),
            PoolArchChoice::Dfcfs => Box::new(PerCellDfcfs::new()),
            PoolArchChoice::Steal => Box::new(WorkStealing::new(rng)),
            PoolArchChoice::Pipeline => Box::new(PipelinePartition::new()),
        }
    }
}

// ---------------------------------------------------------------------
// Centralized EDF (the extracted original pool queue)
// ---------------------------------------------------------------------

/// One global `(deadline, seq)`-ordered priority queue; any core serves
/// any task. This is the pre-refactor pool behavior verbatim: the heap,
/// its ordering and its pop sequence are unchanged, so reports are
/// byte-identical to the monolithic pool.
#[derive(Debug, Default)]
pub struct CentralEdf {
    heap: BinaryHeap<Reverse<ReadyTask>>,
}

impl CentralEdf {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PoolArchitecture for CentralEdf {
    fn set_in_service(&mut self, _usable: &[bool]) {}
    fn push(&mut self, task: ReadyTask, _origin: Option<u32>) {
        self.heap.push(Reverse(task));
    }
    fn pop_for(&mut self, _core: u32) -> Option<ReadyTask> {
        self.heap.pop().map(|Reverse(task)| task)
    }
    fn len(&self) -> usize {
        self.heap.len()
    }
    fn keeps_local(&self, _core: u32, _cell: u32, _kind: TaskKind) -> bool {
        true
    }
}

// ---------------------------------------------------------------------
// Centralized FCFS (cFCFS)
// ---------------------------------------------------------------------

/// One global FIFO queue: arrival order, deadline-blind. The pool pushes
/// in `seq` order, so `pop_front` is exact FCFS.
#[derive(Debug, Default)]
pub struct CentralFcfs {
    queue: VecDeque<ReadyTask>,
}

impl CentralFcfs {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PoolArchitecture for CentralFcfs {
    fn set_in_service(&mut self, _usable: &[bool]) {}
    fn push(&mut self, task: ReadyTask, _origin: Option<u32>) {
        self.queue.push_back(task);
    }
    fn pop_for(&mut self, _core: u32) -> Option<ReadyTask> {
        self.queue.pop_front()
    }
    fn len(&self) -> usize {
        self.queue.len()
    }
    fn keeps_local(&self, _core: u32, _cell: u32, _kind: TaskKind) -> bool {
        true
    }
}

// ---------------------------------------------------------------------
// Per-cell dFCFS with static cell→core affinity
// ---------------------------------------------------------------------

/// Decentralized FCFS: one FIFO queue per cell, each cell statically
/// affined to one in-service core (`in_service[cell mod k]`). A core pops
/// the globally oldest task among the cells it serves and *only* among
/// those — no stealing, so one overloaded cell's queue blocks behind its
/// core while neighbors idle. The affinity re-maps over the surviving
/// cores whenever the in-service set changes, which keeps every queue
/// reachable (conservation) without giving up the static-partition
/// character within a fault-free interval.
#[derive(Debug, Default)]
pub struct PerCellDfcfs {
    /// FIFO per cell, lazily grown by cell id.
    queues: Vec<VecDeque<ReadyTask>>,
    /// In-service core indices, ascending.
    in_service: Vec<u32>,
    total: usize,
}

impl PerCellDfcfs {
    /// Creates an empty queue set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The core affined to `cell` (any core when no mask was installed).
    fn home(&self, cell: u32) -> Option<u32> {
        if self.in_service.is_empty() {
            return None;
        }
        Some(self.in_service[cell as usize % self.in_service.len()])
    }

    fn serves(&self, core: u32, cell: u32) -> bool {
        match self.home(cell) {
            Some(h) => h == core,
            None => true,
        }
    }
}

impl PoolArchitecture for PerCellDfcfs {
    fn set_in_service(&mut self, usable: &[bool]) {
        self.in_service.clear();
        self.in_service.extend(
            usable
                .iter()
                .enumerate()
                .filter(|(_, &u)| u)
                .map(|(i, _)| i as u32),
        );
    }
    fn push(&mut self, task: ReadyTask, _origin: Option<u32>) {
        let i = task.cell as usize;
        if self.queues.len() <= i {
            self.queues.resize_with(i + 1, VecDeque::new);
        }
        self.queues[i].push_back(task);
        self.total += 1;
    }
    fn pop_for(&mut self, core: u32) -> Option<ReadyTask> {
        if self.total == 0 {
            return None;
        }
        // Oldest front (smallest seq) among the cells this core serves:
        // FCFS across the core's own cells, blind to everyone else's.
        let mut best: Option<(u64, usize)> = None;
        for (cell, q) in self.queues.iter().enumerate() {
            let Some(front) = q.front() else { continue };
            if !self.serves(core, cell as u32) {
                continue;
            }
            if best.is_none_or(|(seq, _)| front.seq < seq) {
                best = Some((front.seq, cell));
            }
        }
        let (_, cell) = best?;
        let task = self.queues[cell].pop_front()?;
        self.total -= 1;
        Some(task)
    }
    fn len(&self) -> usize {
        self.total
    }
    fn keeps_local(&self, core: u32, cell: u32, _kind: TaskKind) -> bool {
        self.serves(core, cell)
    }
}

// ---------------------------------------------------------------------
// Work-stealing deques
// ---------------------------------------------------------------------

/// Per-core deques with deterministic stealing. Completions push to the
/// producing core's deque and the owner pops LIFO (the freshest task is
/// the cache-warm one); injections without a producing core spread by DAG
/// slot over the in-service cores. An idle core steals the *oldest* entry
/// (FIFO end) of the first non-empty deque scanning from a victim drawn
/// from a pool-forked RNG stream — randomized like Chase–Lev deployments,
/// but replayable: the stream is part of the simulation seed, so reports
/// are byte-identical across `--jobs` and repeated runs.
#[derive(Debug)]
pub struct WorkStealing {
    deques: Vec<VecDeque<ReadyTask>>,
    /// In-service core indices, ascending (placement targets).
    in_service: Vec<u32>,
    rng: Rng,
    total: usize,
}

impl WorkStealing {
    /// Creates an empty deque set; `rng` drives victim selection.
    pub fn new(rng: Rng) -> Self {
        WorkStealing {
            deques: Vec::new(),
            in_service: Vec::new(),
            rng,
            total: 0,
        }
    }

    fn slot_for(&self, task: &ReadyTask, origin: Option<u32>) -> usize {
        if let Some(core) = origin {
            if (core as usize) < self.deques.len() {
                return core as usize;
            }
        }
        if self.in_service.is_empty() {
            return 0;
        }
        self.in_service[task.dag as usize % self.in_service.len()] as usize
    }
}

impl PoolArchitecture for WorkStealing {
    fn set_in_service(&mut self, usable: &[bool]) {
        if self.deques.len() < usable.len() {
            self.deques.resize_with(usable.len(), VecDeque::new);
        }
        self.in_service.clear();
        self.in_service.extend(
            usable
                .iter()
                .enumerate()
                .filter(|(_, &u)| u)
                .map(|(i, _)| i as u32),
        );
    }
    fn push(&mut self, task: ReadyTask, origin: Option<u32>) {
        let slot = self.slot_for(&task, origin);
        if self.deques.len() <= slot {
            self.deques.resize_with(slot + 1, VecDeque::new);
        }
        self.deques[slot].push_back(task);
        self.total += 1;
    }
    fn pop_for(&mut self, core: u32) -> Option<ReadyTask> {
        if self.total == 0 {
            return None;
        }
        // Owner end first (LIFO: the task this very core just made ready).
        if let Some(task) = self
            .deques
            .get_mut(core as usize)
            .and_then(VecDeque::pop_back)
        {
            self.total -= 1;
            return Some(task);
        }
        // Steal from the FIFO end of the first non-empty deque, scanning
        // circularly from a seeded victim. Retired cores' leftovers are
        // legal victims too — that is what keeps shrink conservation.
        let n = self.deques.len();
        let start = self.rng.below(n as u64) as usize;
        for k in 0..n {
            let v = (start + k) % n;
            if let Some(task) = self.deques[v].pop_front() {
                self.total -= 1;
                return Some(task);
            }
        }
        None
    }
    fn len(&self) -> usize {
        self.total
    }
    fn keeps_local(&self, _core: u32, _cell: u32, _kind: TaskKind) -> bool {
        true
    }
}

// ---------------------------------------------------------------------
// Phase-partitioned pipeline (FH → PHY → MAC)
// ---------------------------------------------------------------------

/// Number of pipeline stages.
const N_STAGES: usize = 3;

/// Stage group of a task kind: 0 = FH (OFDM symbol processing at the
/// fronthaul boundary), 1 = PHY (everything between), 2 = MAC.
fn stage_of(kind: TaskKind) -> usize {
    match kind {
        TaskKind::Fft | TaskKind::Ifft => 0,
        TaskKind::MacScheduling => 2,
        _ => 1,
    }
}

/// Disjoint stage→core-set placement, EDF within each stage queue. The
/// in-service cores split in index order: the first core takes FH, the
/// last takes MAC, the middle takes PHY (which dominates compute). Small
/// pools degenerate gracefully — two cores share FH+MAC vs PHY, one core
/// serves everything. A finishing worker keeps a successor locally only
/// when the successor's stage runs on that core, so stage boundaries force
/// a queue hop exactly like a real pipelined deployment.
#[derive(Debug)]
pub struct PipelinePartition {
    stages: [BinaryHeap<Reverse<ReadyTask>>; N_STAGES],
    /// Per core: bitmask of served stages (bit s = stage s).
    serves: Vec<u8>,
    total: usize,
}

impl Default for PipelinePartition {
    fn default() -> Self {
        Self::new()
    }
}

impl PipelinePartition {
    /// Creates an empty stage-queue set.
    pub fn new() -> Self {
        PipelinePartition {
            stages: [BinaryHeap::new(), BinaryHeap::new(), BinaryHeap::new()],
            serves: Vec::new(),
            total: 0,
        }
    }

    fn mask_of(&self, core: u32) -> u8 {
        // A core outside the recorded mask serves everything: safer to
        // over-serve than to strand work during a topology change.
        self.serves.get(core as usize).copied().unwrap_or(0b111)
    }
}

impl PoolArchitecture for PipelinePartition {
    fn set_in_service(&mut self, usable: &[bool]) {
        self.serves.clear();
        self.serves.resize(usable.len(), 0);
        let ins: Vec<usize> = (0..usable.len()).filter(|&i| usable[i]).collect();
        match ins.len() {
            0 => self.serves.iter_mut().for_each(|m| *m = 0b111),
            1 => self.serves[ins[0]] = 0b111,
            2 => {
                self.serves[ins[0]] = 0b101; // FH + MAC (light stages)
                self.serves[ins[1]] = 0b010; // PHY
            }
            n => {
                self.serves[ins[0]] = 0b001;
                for &i in &ins[1..n - 1] {
                    self.serves[i] = 0b010;
                }
                self.serves[ins[n - 1]] = 0b100;
            }
        }
    }
    fn push(&mut self, task: ReadyTask, _origin: Option<u32>) {
        self.stages[stage_of(task.kind)].push(Reverse(task));
        self.total += 1;
    }
    fn pop_for(&mut self, core: u32) -> Option<ReadyTask> {
        if self.total == 0 {
            return None;
        }
        let mask = self.mask_of(core);
        // EDF across the stages this core serves.
        let mut best: Option<(ReadyTask, usize)> = None;
        for (s, heap) in self.stages.iter().enumerate() {
            if mask & (1 << s) == 0 {
                continue;
            }
            let Some(&Reverse(front)) = heap.peek() else {
                continue;
            };
            if best.is_none_or(|(b, _)| front < b) {
                best = Some((front, s));
            }
        }
        let (_, s) = best?;
        let Reverse(task) = self.stages[s].pop()?;
        self.total -= 1;
        Some(task)
    }
    fn len(&self) -> usize {
        self.total
    }
    fn keeps_local(&self, core: u32, _cell: u32, kind: TaskKind) -> bool {
        self.mask_of(core) & (1 << stage_of(kind)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concordia_ran::time::Nanos;

    fn task(seq: u64, deadline_us: u64, cell: u32, kind: TaskKind) -> ReadyTask {
        ReadyTask {
            deadline: Nanos::from_micros(deadline_us),
            seq,
            dag: seq as u32,
            node: 0,
            cell,
            kind,
        }
    }

    fn drain_all(arch: &mut dyn PoolArchitecture, cores: &[u32]) -> Vec<u64> {
        let mut out = Vec::new();
        let mut stuck = 0;
        while !arch.is_empty() && stuck < 1_000 {
            let before = out.len();
            for &c in cores {
                if let Some(t) = arch.pop_for(c) {
                    out.push(t.seq);
                }
            }
            stuck = if out.len() == before { stuck + 1 } else { 0 };
        }
        out
    }

    #[test]
    fn choice_names_round_trip() {
        for a in PoolArchChoice::ALL {
            assert_eq!(PoolArchChoice::from_name(a.name()), Some(a));
        }
        assert_eq!(PoolArchChoice::from_name("nope"), None);
        assert!(PoolArchChoice::is_default(&PoolArchChoice::Edf));
        assert!(!PoolArchChoice::is_default(&PoolArchChoice::Steal));
    }

    #[test]
    fn central_edf_pops_in_deadline_then_fifo_order() {
        let mut a = CentralEdf::new();
        a.push(task(0, 500, 0, TaskKind::Fft), None);
        a.push(task(1, 100, 1, TaskKind::Fft), None);
        a.push(task(2, 100, 0, TaskKind::Fft), None);
        let order: Vec<u64> = std::iter::from_fn(|| a.pop_for(0).map(|t| t.seq)).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn central_fcfs_ignores_deadlines() {
        let mut a = CentralFcfs::new();
        a.push(task(0, 500, 0, TaskKind::Fft), None);
        a.push(task(1, 100, 0, TaskKind::Fft), None);
        let order: Vec<u64> = std::iter::from_fn(|| a.pop_for(0).map(|t| t.seq)).collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn dfcfs_strict_affinity_blocks_foreign_cores() {
        let mut a = PerCellDfcfs::new();
        a.set_in_service(&[true, true]);
        // Cells 0 and 2 live on core 0; cell 1 on core 1.
        a.push(task(0, 100, 0, TaskKind::Fft), None);
        a.push(task(1, 100, 1, TaskKind::Fft), None);
        a.push(task(2, 100, 2, TaskKind::Fft), None);
        assert!(a.keeps_local(0, 0, TaskKind::Fft));
        assert!(!a.keeps_local(1, 0, TaskKind::Fft));
        assert_eq!(a.pop_for(1).map(|t| t.seq), Some(1));
        assert_eq!(a.pop_for(1), None, "core 1 must not serve cell 0/2");
        assert_eq!(a.pop_for(0).map(|t| t.seq), Some(0));
        assert_eq!(a.pop_for(0).map(|t| t.seq), Some(2));
        assert!(a.is_empty());
    }

    #[test]
    fn dfcfs_remaps_affinity_when_cores_fail() {
        let mut a = PerCellDfcfs::new();
        a.set_in_service(&[true, true]);
        a.push(task(0, 100, 1, TaskKind::Fft), None);
        // Core 1 (cell 1's home) fails: the queue must remap onto core 0.
        a.set_in_service(&[true, false]);
        assert_eq!(a.pop_for(0).map(|t| t.seq), Some(0));
    }

    #[test]
    fn steal_owner_pops_lifo_and_thief_steals_fifo() {
        let mut a = WorkStealing::new(Rng::new(7));
        a.set_in_service(&[true, true]);
        a.push(task(0, 100, 0, TaskKind::Fft), Some(0));
        a.push(task(1, 100, 0, TaskKind::Fft), Some(0));
        // Owner takes its freshest task.
        assert_eq!(a.pop_for(0).map(|t| t.seq), Some(1));
        // Core 1 owns nothing: it must steal the remaining task.
        assert_eq!(a.pop_for(1).map(|t| t.seq), Some(0));
        assert!(a.is_empty());
    }

    #[test]
    fn steal_is_deterministic_per_seed_and_conserves_work() {
        let run = |seed: u64| {
            let mut a = WorkStealing::new(Rng::new(seed));
            a.set_in_service(&[true, true, true]);
            for s in 0..50u64 {
                let origin = if s % 3 == 0 {
                    None
                } else {
                    Some((s % 3) as u32)
                };
                a.push(task(s, 100 + s % 7, (s % 4) as u32, TaskKind::Fft), origin);
            }
            drain_all(&mut a, &[0, 1, 2])
        };
        let x = run(42);
        assert_eq!(x.len(), 50, "work stealing lost tasks");
        assert_eq!(x, run(42), "same seed must replay the same pop order");
    }

    #[test]
    fn pipeline_partitions_stages_onto_disjoint_cores() {
        let mut a = PipelinePartition::new();
        a.set_in_service(&[true, true, true, true]);
        a.push(task(0, 100, 0, TaskKind::Fft), None); // FH -> core 0
        a.push(task(1, 100, 0, TaskKind::LdpcDecode), None); // PHY -> middle
        a.push(task(2, 100, 0, TaskKind::MacScheduling), None); // MAC -> last
        assert_eq!(a.pop_for(3).map(|t| t.seq), Some(2), "last core is MAC");
        assert_eq!(a.pop_for(3), None);
        assert_eq!(a.pop_for(0).map(|t| t.seq), Some(0), "first core is FH");
        assert_eq!(a.pop_for(1).map(|t| t.seq), Some(1));
        assert!(a.keeps_local(1, 0, TaskKind::Equalization));
        assert!(!a.keeps_local(0, 0, TaskKind::Equalization));
    }

    #[test]
    fn pipeline_degenerates_to_shared_cores_when_small() {
        let mut a = PipelinePartition::new();
        a.set_in_service(&[true]);
        for (s, k) in [TaskKind::Fft, TaskKind::LdpcDecode, TaskKind::MacScheduling]
            .into_iter()
            .enumerate()
        {
            a.push(task(s as u64, 100, 0, k), None);
        }
        assert_eq!(drain_all(&mut a, &[0]).len(), 3);
    }

    #[test]
    fn every_architecture_conserves_pushed_work() {
        for choice in PoolArchChoice::ALL {
            let mut a = choice.build(Rng::new(9));
            a.set_in_service(&[true, true, true]);
            for s in 0..200u64 {
                let kind = TaskKind::ALL[s as usize % TaskKind::ALL.len()];
                a.push(task(s, 100 + s % 13, (s % 5) as u32, kind), None);
            }
            assert_eq!(a.len(), 200, "{}", choice.name());
            let popped = drain_all(a.as_mut(), &[0, 1, 2]);
            assert_eq!(popped.len(), 200, "{} stranded tasks", choice.name());
            assert!(a.is_empty(), "{}", choice.name());
        }
    }
}
