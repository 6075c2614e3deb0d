//! Criterion microbenches for the latency-critical paths.
//!
//! Fig. 15a of the paper is a *measured* claim about Concordia's own code:
//! the scheduler runs every 20 µs and must stay far below that; the WCET
//! predictor runs every TTI. These benches measure our implementations on
//! real hardware:
//!
//! * `scheduler_tick/N` — one `target_cores` evaluation with N cells'
//!   worth of active DAGs (paper: < 2 µs up to 7 cells);
//! * `predictor_tti/N` — predicting every task of an N-cell TTI
//!   (paper: 4 µs at 1 cell → 24 µs at 7);
//! * `qdt_predict` / `qdt_observe` — single quantile-decision-tree
//!   operations (Algorithm 2's hot path);
//! * `ring_push` — the 5 000-entry leaf ring buffer;
//! * `dag_build_uplink` — per-slot DAG construction;
//! * `cost_sample` — one task-runtime draw in the simulator;
//! * `event_queue_hot_loop/{calendar,binary_heap}/C` — one slot of a
//!   C-cell deployment's event traffic on the calendar queue, against the
//!   binary heap it replaced;
//! * `train_dcor_ranking`, `train_backwards_elimination`, `train_qdt_fit`
//!   — the three offline training stages of one task kind (Algorithm 1's
//!   distance-correlation ranking and backwards elimination, then the
//!   quantile-tree fit), all on one fixed `fdd_20mhz` profiling dataset;
//! * `train_bank` — the whole offline fit on that dataset: every task
//!   kind's selection and quantile tree, the kinds on up to
//!   `available_parallelism` workers;
//! * `pool_width/N` — one fixed stream of 100 MHz slot DAGs pushed through
//!   a `VranPool` of N cores under the Concordia scheduler, per executed
//!   task. The stream is the same at every width, so the row isolates
//!   what the pool's own bookkeeping costs as the pool widens.
//!
//! The rows run in the order of `criterion_group!` at the bottom, not the
//! order above: every row that starts no thread runs before the first
//! `train_bank` call, which starts the fit's worker threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use concordia_core::profile::{profile, random_workload, train_bank};
use concordia_core::PredictorChoice;
use concordia_platform::events::CalendarQueue;
use concordia_platform::pool::{PoolConfig, ScheduledDag, VranPool};
use concordia_platform::sched_api::{DagProgress, PoolScheduler, PoolView};
use concordia_predictor::featsel::{
    backwards_elimination, dcor_ranking, select_features, FeatSelConfig,
};
use concordia_predictor::qdt::QuantileDecisionTree;
use concordia_predictor::tree::TreeConfig;
use concordia_predictor::WcetPredictor;
use concordia_ran::cost::CostModel;
use concordia_ran::dag::build_dag;
use concordia_ran::features::{extract, handpicked};
use concordia_ran::numerology::SlotDirection;
use concordia_ran::task::TaskKind;
use concordia_ran::{CellConfig, Nanos};
use concordia_sched::concordia::ConcordiaScheduler;
use concordia_stats::ring::MaxRingBuffer;
use concordia_stats::rng::Rng;

fn dags_for_cells(cells: u32, seed: u64) -> Vec<DagProgress> {
    let cell = CellConfig::fdd_20mhz();
    let cost = CostModel::new();
    let mut rng = Rng::new(seed);
    let mut dags = Vec::new();
    for c in 0..cells {
        for dir in [SlotDirection::Uplink, SlotDirection::Downlink] {
            let wl = random_workload(&cell, dir, &mut rng);
            let dag = concordia_ran::dag::build_dag(&cell, c, 0, Nanos::ZERO, &wl);
            dags.push(DagProgress {
                deadline: Nanos::from_millis(2),
                remaining_work: dag.total_work(&cost),
                remaining_critical_path: dag.critical_path(&cost),
            });
        }
    }
    dags
}

fn bench_scheduler_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_tick");
    for cells in [1u32, 4, 7] {
        let dags = dags_for_cells(cells, 42);
        let mut sched = ConcordiaScheduler::default_paper();
        let view = PoolView {
            now: Nanos::from_micros(100),
            total_cores: 8,
            granted_cores: 4,
            dags: &dags,
            ready_tasks: 4,
            running_tasks: 3,
            oldest_ready_wait: Nanos::from_micros(5),
            recent_utilization: 0.5,
        };
        group.bench_with_input(BenchmarkId::from_parameter(cells), &cells, |b, _| {
            b.iter(|| black_box(sched.target_cores(black_box(&view))))
        });
    }
    group.finish();
}

fn bench_predictor_tti(c: &mut Criterion) {
    let cell = CellConfig::fdd_20mhz();
    let cost = CostModel::new();
    let dataset = profile(&cell, &cost, 800, 8, 7);
    let bank = train_bank(&dataset, PredictorChoice::QuantileDt, &cost);

    let mut group = c.benchmark_group("predictor_tti");
    for cells in [1u32, 4, 7] {
        let mut rng = Rng::new(100 + cells as u64);
        let mut tasks = Vec::new();
        for c_id in 0..cells {
            for dir in [SlotDirection::Uplink, SlotDirection::Downlink] {
                let wl = random_workload(&cell, dir, &mut rng);
                let dag = concordia_ran::dag::build_dag(&cell, c_id, 0, Nanos::ZERO, &wl);
                for node in &dag.nodes {
                    tasks.push((node.task.kind, extract(&node.task.params)));
                }
            }
        }
        group.bench_with_input(BenchmarkId::from_parameter(cells), &cells, |b, _| {
            b.iter(|| {
                let mut acc = 0.0;
                for (kind, x) in &tasks {
                    if let Some(p) = bank.predict(*kind, x) {
                        acc += p.as_micros_f64();
                    }
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_qdt_ops(c: &mut Criterion) {
    let cell = CellConfig::fdd_20mhz();
    let cost = CostModel::new();
    let dataset = profile(&cell, &cost, 800, 8, 9);
    let decode = dataset.samples(TaskKind::LdpcDecode);
    let feats: Vec<usize> = handpicked(TaskKind::LdpcDecode)
        .iter()
        .map(|&f| f as usize)
        .collect();
    let mut qdt = QuantileDecisionTree::fit(decode, &feats, &TreeConfig::default());
    let x = decode[decode.len() / 2].x;

    c.bench_function("qdt_predict", |b| {
        b.iter(|| black_box(qdt.predict_us(black_box(&x))))
    });
    c.bench_function("qdt_observe", |b| {
        b.iter(|| qdt.observe(black_box(&x), black_box(123.4)))
    });
}

fn bench_ring_push(c: &mut Criterion) {
    let mut ring = MaxRingBuffer::new(5_000);
    for i in 0..5_000 {
        ring.push(i as f64);
    }
    let mut v = 0.0f64;
    c.bench_function("ring_push", |b| {
        b.iter(|| {
            v += 1.0;
            ring.push(black_box(v % 400.0));
            black_box(ring.max())
        })
    });
}

fn bench_dag_build(c: &mut Criterion) {
    let cell = CellConfig::tdd_100mhz();
    let mut rng = Rng::new(11);
    let wl = random_workload(&cell, SlotDirection::Uplink, &mut rng);
    c.bench_function("dag_build_uplink", |b| {
        b.iter(|| black_box(build_dag(&cell, 0, 0, Nanos::ZERO, black_box(&wl))))
    });
}

fn bench_cost_sample(c: &mut Criterion) {
    let cost = CostModel::new();
    let mut rng = Rng::new(12);
    let p = concordia_ran::TaskParams {
        n_cbs: 6,
        cb_bits: 8448,
        tb_bits: 50_688,
        mcs_index: 16,
        modulation_order: 6,
        code_rate: 0.7,
        snr_db: 20.0,
        layers: 2,
        prbs: 60,
        pool_cores: 4,
        ..Default::default()
    };
    c.bench_function("cost_sample", |b| {
        b.iter(|| {
            black_box(cost.sample_runtime(TaskKind::LdpcDecode, black_box(&p), 1.1, &mut rng))
        })
    });
}

/// The two operations the slot loop asks of its event queue.
trait SlotQueue {
    fn push(&mut self, time: Nanos, payload: u64);
    fn pop_due(&mut self, t_end: Nanos) -> Option<(Nanos, u64)>;
}

impl SlotQueue for CalendarQueue<u64> {
    fn push(&mut self, time: Nanos, payload: u64) {
        CalendarQueue::push(self, time, payload);
    }
    fn pop_due(&mut self, t_end: Nanos) -> Option<(Nanos, u64)> {
        CalendarQueue::pop_due(self, t_end)
    }
}

/// An O(log n) binary heap with the same `(time, push order)` pop order.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<(Nanos, u64, u64)>>,
    seq: u64,
}

impl SlotQueue for HeapQueue {
    fn push(&mut self, time: Nanos, payload: u64) {
        self.heap.push(Reverse((time, self.seq, payload)));
        self.seq += 1;
    }
    fn pop_due(&mut self, t_end: Nanos) -> Option<(Nanos, u64)> {
        let Reverse((time, _, _)) = self.heap.peek()?;
        if *time > t_end {
            return None;
        }
        self.heap.pop().map(|Reverse((t, _, p))| (t, p))
    }
}

/// The slot-boundary event pattern of a staggered `cells`-cell 100 MHz
/// deployment, minus the simulation: at each cell's boundary the due
/// events drain in time order, then 40 task completions (a typical
/// load-0.5 slot pair) are pushed at jittered offsets up to three slots
/// ahead, which keeps the queue thousands of entries deep at C = 16.
struct SlotPattern<Q> {
    queue: Q,
    cells: u64,
    slot: u64,
    jitter: u64,
    payload: u64,
    checksum: u64,
}

impl<Q: SlotQueue> SlotPattern<Q> {
    const SLOT_NS: u64 = 500_000;
    const EVENTS_PER_SLOT: u64 = 40;

    fn new(queue: Q, cells: u64) -> Self {
        SlotPattern {
            queue,
            cells,
            slot: 0,
            jitter: 0x9E37_79B9_7F4A_7C15,
            payload: 0,
            checksum: 0,
        }
    }

    /// Runs one slot of every cell; returns the drain-order checksum.
    fn run_slot(&mut self) -> u64 {
        let stagger = Self::SLOT_NS / self.cells;
        for c in 0..self.cells {
            let boundary = Nanos(self.slot * Self::SLOT_NS + c * stagger);
            while let Some((t, p)) = self.queue.pop_due(boundary) {
                self.checksum = self
                    .checksum
                    .wrapping_mul(31)
                    .wrapping_add(t.as_nanos() ^ p);
            }
            for _ in 0..Self::EVENTS_PER_SLOT {
                // xorshift64: cheap, deterministic completion jitter.
                self.jitter ^= self.jitter << 13;
                self.jitter ^= self.jitter >> 7;
                self.jitter ^= self.jitter << 17;
                let offset = 10_000 + self.jitter % (3 * Self::SLOT_NS);
                self.queue.push(boundary + Nanos(offset), self.payload);
                self.payload += 1;
            }
        }
        self.slot += 1;
        self.checksum
    }
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_hot_loop");
    for cells in [1u64, 16, 100] {
        let mut calendar = SlotPattern::new(CalendarQueue::new(), cells);
        group.bench_with_input(BenchmarkId::new("calendar", cells), &cells, |b, _| {
            b.iter(|| calendar.run_slot())
        });
        let mut heap = SlotPattern::new(HeapQueue::default(), cells);
        group.bench_with_input(BenchmarkId::new("binary_heap", cells), &cells, |b, _| {
            b.iter(|| heap.run_slot())
        });
    }
    group.finish();
}

fn bench_training(c: &mut Criterion) {
    let cost = CostModel::new();
    let dataset = profile(&CellConfig::fdd_20mhz(), &cost, 800, 8, 11);
    let kind = TaskKind::LdpcDecode;
    let samples = dataset.samples(kind);
    let cfg = FeatSelConfig::default();
    let top: Vec<usize> = dcor_ranking(samples, cfg.dcor_subsample)
        .iter()
        .take(cfg.n_dcor)
        .map(|&(f, _)| f)
        .collect();
    let feats = select_features(samples, &handpicked(kind), &cfg);

    c.bench_function("train_dcor_ranking", |b| {
        b.iter(|| dcor_ranking(black_box(samples), cfg.dcor_subsample))
    });
    c.bench_function("train_backwards_elimination", |b| {
        b.iter(|| {
            backwards_elimination(
                black_box(samples),
                top.clone(),
                cfg.m_final,
                cfg.train_fraction,
            )
        })
    });
    c.bench_function("train_qdt_fit", |b| {
        b.iter(|| QuantileDecisionTree::fit(black_box(samples), &feats, &TreeConfig::default()))
    });
    // Every kind's selection and fit, with fresh selections each time.
    c.bench_function("train_bank", |b| {
        b.iter(|| train_bank(black_box(&dataset), PredictorChoice::QuantileDt, &cost))
    });
}

/// Two staggered 100 MHz TDD cells for 200 slots each (100 ms), with
/// the pool tests' WCET predictions (expected cost × 1.3).
fn slot_stream() -> Vec<ScheduledDag> {
    let cell = CellConfig::tdd_100mhz();
    let cost = CostModel::new();
    let mut rng = Rng::new(21);
    let slot = cell.slot_duration();
    let mut stream = Vec::new();
    for s in 0..200u64 {
        for c in 0..2u32 {
            let arrival = Nanos(s * slot.as_nanos() + c as u64 * slot.as_nanos() / 2);
            for &dir in cell.duplex.directions(s) {
                let wl = random_workload(&cell, dir, &mut rng);
                let dag = build_dag(&cell, c, s, arrival, &wl);
                let node_wcet = dag
                    .nodes
                    .iter()
                    .map(|n| cost.expected_cost(n.task.kind, &n.task.params).scale(1.3))
                    .collect();
                stream.push(ScheduledDag { dag, node_wcet });
            }
        }
    }
    stream
}

fn bench_pool_width(c: &mut Criterion) {
    let stream = slot_stream();
    let end = stream.last().map_or(Nanos::ZERO, |sd| sd.dag.deadline);
    let mut group = c.benchmark_group("pool_width");
    for cores in [8u32, 64, 208] {
        // Reported per executed task: each routine call replays whole
        // streams through fresh pools until `iters` tasks have run, then
        // scales the time it measured to exactly `iters` tasks.
        group.bench_with_input(BenchmarkId::from_parameter(cores), &cores, |b, &cores| {
            b.iter_custom(|iters| {
                let mut elapsed = Duration::ZERO;
                let mut tasks = 0u64;
                while tasks < iters {
                    let dags = stream.clone();
                    let mut pool = VranPool::new(
                        PoolConfig {
                            cores,
                            ..PoolConfig::default()
                        },
                        CostModel::new(),
                        Box::new(ConcordiaScheduler::default_paper()),
                        7,
                    );
                    let start = Instant::now();
                    for sd in dags {
                        pool.run_until(sd.dag.arrival);
                        pool.inject_dag(sd);
                    }
                    pool.run_until(end);
                    elapsed += start.elapsed();
                    assert_eq!(
                        pool.active_dags(),
                        0,
                        "stream must drain by its last deadline"
                    );
                    tasks += pool.metrics().counters.tasks();
                }
                elapsed.mul_f64(iters as f64 / tasks as f64)
            })
        });
    }
    group.finish();
}

// Every row that starts no thread runs first. `train_bank` fits on worker
// threads, and a row measured after any thread has existed in the process
// measures the allocator's state as well as its own code (`build_dag`
// once read 11.9 → 16.3 µs that way, unchanged). So `bench_training`
// ends with its `train_bank` row, and `bench_predictor_tti`, whose setup
// calls `train_bank`, runs last.
criterion_group!(
    benches,
    bench_scheduler_tick,
    bench_qdt_ops,
    bench_ring_push,
    bench_dag_build,
    bench_cost_sample,
    bench_event_queue,
    bench_pool_width,
    bench_training,
    bench_predictor_tti
);
criterion_main!(benches);
