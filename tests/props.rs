//! Property-based tests (proptest) over the core data structures and
//! invariants, spanning crates through the facade.

use concordia::platform::events::CalendarQueue;
use concordia::platform::pool::{PoolConfig, ScheduledDag, VranPool};
use concordia::platform::sched_api::DedicatedScheduler;
use concordia::predictor::qdt::QuantileDecisionTree;
use concordia::predictor::tree::{Tree, TreeConfig};
use concordia::predictor::{TrainingSample, WcetPredictor};
use concordia::ran::cost::CostModel;
use concordia::ran::dag::{build_dag, SlotWorkload, UeAlloc};
use concordia::ran::features::NUM_FEATURES;
use concordia::ran::numerology::SlotDirection;
use concordia::ran::{CellConfig, Nanos};
use concordia::stats::ring::MaxRingBuffer;
use concordia::stats::summary::quantile;
use proptest::prelude::*;

fn arb_ue() -> impl Strategy<Value = UeAlloc> {
    (1u32..60_000, 0u8..=27, -5.0f64..35.0, 1u32..=4, 1u32..=100).prop_map(
        |(tb_bytes, mcs_index, snr_db, layers, prbs)| UeAlloc {
            tb_bytes,
            mcs_index,
            snr_db,
            layers,
            prbs,
        },
    )
}

fn arb_workload(dir: SlotDirection) -> impl Strategy<Value = SlotWorkload> {
    proptest::collection::vec(arb_ue(), 0..10).prop_map(move |ues| SlotWorkload {
        direction: dir,
        ues,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_uplink_workload_builds_a_valid_dag(wl in arb_workload(SlotDirection::Uplink)) {
        let cell = CellConfig::tdd_100mhz();
        let dag = build_dag(&cell, 0, 0, Nanos::ZERO, &wl);
        prop_assert!(dag.validate().is_ok());
        // Critical path never exceeds total work; both positive.
        let cost = CostModel::new();
        let cp = dag.critical_path(&cost);
        let tw = dag.total_work(&cost);
        prop_assert!(cp <= tw);
        prop_assert!(cp > Nanos::ZERO);
    }

    #[test]
    fn any_downlink_workload_builds_a_valid_dag(wl in arb_workload(SlotDirection::Downlink)) {
        let cell = CellConfig::fdd_20mhz();
        let dag = build_dag(&cell, 0, 0, Nanos::ZERO, &wl);
        prop_assert!(dag.validate().is_ok());
        // Every non-empty DL DAG ends in the iFFT sink.
        let last = dag.nodes.last().unwrap();
        prop_assert!(last.succs.is_empty());
    }

    #[test]
    fn pool_executes_every_injected_node_exactly_once(
        wls in proptest::collection::vec(arb_workload(SlotDirection::Uplink), 1..6)
    ) {
        let cell = CellConfig::tdd_100mhz();
        let cost = CostModel::new();
        let mut pool = VranPool::new(
            PoolConfig { cores: 4, rotation: None, ..PoolConfig::default() },
            cost.clone(),
            Box::new(DedicatedScheduler),
            9,
        );
        let mut expected_tasks = 0u64;
        for (i, wl) in wls.iter().enumerate() {
            let arrival = Nanos::from_micros(500 * i as u64);
            pool.run_until(arrival);
            let dag = build_dag(&cell, 0, i as u64, arrival, wl);
            expected_tasks += dag.len() as u64;
            let wcet = dag.nodes.iter()
                .map(|n| cost.expected_cost(n.task.kind, &n.task.params))
                .collect();
            pool.inject_dag(ScheduledDag { dag, node_wcet: wcet });
        }
        pool.run_until(Nanos::from_millis(200));
        prop_assert_eq!(pool.active_dags(), 0);
        prop_assert_eq!(pool.metrics().counters.tasks(), expected_tasks);
        prop_assert_eq!(pool.metrics().slots.count(), wls.len());
    }

    #[test]
    fn ring_buffer_max_always_matches_naive(ops in proptest::collection::vec(0.0f64..1e6, 1..400)) {
        let mut ring = MaxRingBuffer::new(32);
        let mut shadow: Vec<f64> = Vec::new();
        for &x in &ops {
            ring.push(x);
            shadow.push(x);
            if shadow.len() > 32 { shadow.remove(0); }
            let naive = shadow.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(ring.max(), Some(naive));
            prop_assert_eq!(ring.len(), shadow.len());
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(
        mut xs in proptest::collection::vec(-1e9f64..1e9, 2..200),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&xs, lo).unwrap();
        let b = quantile(&xs, hi).unwrap();
        prop_assert!(a <= b);
        xs.sort_by(|x, y| x.partial_cmp(y).unwrap());
        prop_assert!(a >= xs[0] && b <= *xs.last().unwrap());
    }

    #[test]
    fn tree_routes_every_training_sample_to_its_leaf(
        points in proptest::collection::vec((0.0f64..100.0, 0.0f64..1000.0), 20..200)
    ) {
        let xs: Vec<[f64; NUM_FEATURES]> = points.iter().map(|(v, _)| {
            let mut x = [0.0; NUM_FEATURES];
            x[0] = *v;
            x
        }).collect();
        let ys: Vec<f64> = points.iter().map(|(_, y)| *y).collect();
        let cfg = TreeConfig { max_depth: 6, min_leaf: 5, n_thresholds: 8 };
        let (tree, leaves) = Tree::fit(&xs, &ys, &[0], &cfg);
        let total: usize = leaves.iter().map(|l| l.len()).sum();
        prop_assert_eq!(total, xs.len());
        for (leaf_id, samples) in leaves.iter().enumerate() {
            for &i in samples {
                prop_assert_eq!(tree.leaf_of(&xs[i]), leaf_id);
            }
        }
    }

    #[test]
    fn qdt_prediction_covers_all_training_samples(
        points in proptest::collection::vec((1.0f64..50.0, 1.0f64..500.0), 30..150)
    ) {
        let samples: Vec<TrainingSample> = points.iter().map(|(v, y)| {
            let mut x = [0.0; NUM_FEATURES];
            x[0] = *v;
            TrainingSample { x, runtime_us: *y }
        }).collect();
        let cfg = TreeConfig { max_depth: 4, min_leaf: 5, n_thresholds: 8 };
        let qdt = QuantileDecisionTree::fit(&samples, &[0], &cfg);
        // Max-of-leaf must upper-bound every sample the leaf was built from.
        for s in &samples {
            prop_assert!(qdt.predict_us(&s.x) >= s.runtime_us - 1e-9);
        }
    }

    #[test]
    fn nanos_arithmetic_is_consistent(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let (x, y) = (Nanos(a), Nanos(b));
        prop_assert_eq!(x + y, Nanos(a + b));
        prop_assert_eq!((x + y).saturating_sub(y), x);
        prop_assert_eq!(y.saturating_sub(x + y), Nanos::ZERO);
        prop_assert_eq!(x.max(y).min(x.min(y)), x.min(y));
    }

    #[test]
    fn cost_model_is_monotone_in_codeblocks(
        cbs1 in 1u32..20, delta in 1u32..10, cores in 1u32..8
    ) {
        let cost = CostModel::new();
        let p = |n_cbs| concordia::ran::TaskParams {
            n_cbs,
            cb_bits: 8448,
            tb_bits: n_cbs * 8448,
            pool_cores: cores,
            ..Default::default()
        };
        let small = cost.expected_cost(concordia::ran::TaskKind::LdpcDecode, &p(cbs1));
        let large = cost.expected_cost(concordia::ran::TaskKind::LdpcDecode, &p(cbs1 + delta));
        prop_assert!(large > small);
    }

    #[test]
    fn ks_test_is_symmetric(
        a in proptest::collection::vec(0.0f64..100.0, 10..80),
        b in proptest::collection::vec(0.0f64..100.0, 10..80),
    ) {
        let r1 = concordia::stats::ks_two_sample(&a, &b);
        let r2 = concordia::stats::ks_two_sample(&b, &a);
        prop_assert!((r1.statistic - r2.statistic).abs() < 1e-12);
        prop_assert!((r1.p_value - r2.p_value).abs() < 1e-9);
    }

    #[test]
    fn wasserstein_triangleish_and_nonnegative(
        a in proptest::collection::vec(0.0f64..100.0, 5..50),
        shift in 0.0f64..50.0,
    ) {
        let b: Vec<f64> = a.iter().map(|x| x + shift).collect();
        let w = concordia::stats::wasserstein1(&a, &b);
        prop_assert!((w - shift).abs() < 1e-9);
    }

    /// Determinism contract of the event queue: events at the same
    /// timestamp pop in push order (FIFO), whatever mix of duplicated and
    /// distinct times is pushed. Heap order alone doesn't give this — the
    /// sequence-number tie-breaker does, and bit-reproducible simulation
    /// depends on it.
    #[test]
    fn event_queue_is_fifo_within_a_timestamp(
        times in proptest::collection::vec(0u64..20, 1..200)
    ) {
        let mut q = CalendarQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Nanos(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        // Stable sort by time — push order preserved within equal times.
        expected.sort_by_key(|&(t, _)| t);
        for (t, i) in expected {
            prop_assert_eq!(q.pop(), Some((Nanos(t), i)));
        }
        prop_assert!(q.is_empty());
    }
}
