//! Fault-injection integration tests: determinism of the chaos layer and
//! graceful degradation of the full stack, exercised through the facade.

use concordia::core::{run_experiment, Colocation, OfflineCache, SimConfig, Simulation};
use concordia::platform::arch::PoolArchChoice;
use concordia::platform::faults::{FaultKind, FaultPlan, FaultSpec, FaultTimeline};
use concordia::platform::metrics::reliability;
use concordia::platform::pool::{PoolConfig, ScheduledDag, VranPool};
use concordia::platform::sched_api::DedicatedScheduler;
use concordia::platform::workloads::WorkloadKind;
use concordia::ran::cost::CostModel;
use concordia::ran::dag::{build_dag, SlotWorkload, UeAlloc};
use concordia::ran::numerology::SlotDirection;
use concordia::ran::{CellConfig, Nanos};
use proptest::prelude::*;

fn faulty_cfg(kinds: &[FaultKind]) -> SimConfig {
    let mut cfg = SimConfig::paper_20mhz();
    cfg.duration = Nanos::from_secs(1);
    cfg.profiling_slots = 300;
    cfg.load = 0.5;
    cfg.seed = 31;
    cfg.colocation = Colocation::Single(WorkloadKind::Redis);
    cfg.faults = FaultPlan::chaos(kinds, cfg.duration);
    cfg
}

#[test]
fn fault_experiments_are_bit_reproducible() {
    // The injector draws from forked seed streams, so a (seed, plan) pair
    // must give byte-identical reports — chaos runs are as reproducible as
    // fault-free ones.
    let kinds = [
        FaultKind::CoreOffline,
        FaultKind::AccelTimeout,
        FaultKind::PredictorBias,
        FaultKind::TrafficSurge,
    ];
    let a = run_experiment(faulty_cfg(&kinds));
    let b = run_experiment(faulty_cfg(&kinds));
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
    let fault = a.fault.expect("fault report present");
    assert_eq!(fault.windows.len(), kinds.len());
}

#[test]
fn fault_report_phases_account_for_every_dag() {
    let r = run_experiment(faulty_cfg(&[FaultKind::CoreOffline]));
    let fault = r.fault.expect("fault report present");
    let w = &fault.windows[0];
    assert_eq!(w.kind, "core_offline");
    assert!(w.start_us < w.end_us);
    // Every completed DAG lands in exactly one phase.
    assert_eq!(
        w.dags_before + w.dags_during + w.dags_after,
        r.metrics.dags as u64
    );
    assert!(w.violations_before <= w.dags_before);
    assert!(w.violations_during <= w.dags_during);
    assert!(w.violations_after <= w.dags_after);
    // The pool actually lost cores and shed their work.
    assert!(r.metrics.cores_failed >= 1, "no core went offline");
}

/// Under every pool architecture, a faulted, supervised 4-cell run
/// reports each count once: wakes and evictions are the wake histogram's
/// total, reliability is the one formula, and the per-cell and per-phase
/// ledgers add up to the aggregate.
#[test]
fn every_pool_reports_one_ledger_under_faults_and_supervision() {
    let cache = OfflineCache::new();
    for arch in PoolArchChoice::ALL {
        let mut cfg = faulty_cfg(&[FaultKind::CoreOffline, FaultKind::StormAmplification]);
        cfg.n_cells = 4;
        cfg.duration = Nanos::from_millis(400);
        cfg.faults = FaultPlan::chaos(
            &[FaultKind::CoreOffline, FaultKind::StormAmplification],
            cfg.duration,
        );
        cfg.supervisor = Some(Default::default());
        cfg.pool = arch;
        let r = Simulation::with_cache(cfg, &cache).run();
        let m = &r.metrics;
        let name = arch.name();
        assert!(m.dags > 0 && m.cores_failed > 0, "{name}: {m:?}");
        let wakes: u64 = m.wake_hist_counts.iter().sum();
        assert_eq!((m.wake_events, m.evictions), (wakes, wakes), "{name}");
        assert_eq!(
            m.reliability.to_bits(),
            reliability(m.dags as u64, m.violations).to_bits(),
            "{name}"
        );
        assert!(m.p9999_latency_us <= m.p99999_latency_us, "{name}");
        let completed: u64 = m.per_cell.iter().map(|c| c.completed).sum();
        let violations: u64 = m.per_cell.iter().map(|c| c.violations).sum();
        assert_eq!(m.per_cell.len(), 4, "{name}");
        assert_eq!(
            (completed, violations),
            (m.dags as u64, m.violations),
            "{name}"
        );
        for w in &r.fault.as_ref().expect("fault report").windows {
            assert_eq!(
                w.dags_before + w.dags_during + w.dags_after,
                m.dags as u64,
                "{name}"
            );
            assert_eq!(
                w.violations_before + w.violations_during + w.violations_after,
                m.violations,
                "{name}"
            );
            assert_eq!(
                w.reliability_during.to_bits(),
                reliability(w.dags_during, w.violations_during).to_bits(),
                "{name}"
            );
        }
        assert!(r.supervisor.is_some(), "{name}");
    }
}

#[test]
fn concordia_recovers_after_core_offline() {
    let r = run_experiment(faulty_cfg(&[FaultKind::CoreOffline]));
    let fault = r.fault.expect("fault report present");
    let w = &fault.windows[0];
    assert!(w.dags_after > 0, "nothing completed after the window");
    assert!(
        w.recovered(),
        "reliability after {} < before {}",
        w.reliability_after,
        w.reliability_before
    );
}

#[test]
fn accel_outage_falls_back_to_cpu_decode() {
    // The FPGA drops off the bus mid-run: offloads must fall back to the
    // CPU LDPC path instead of panicking, and the run must finish.
    let mut cfg = faulty_cfg(&[FaultKind::AccelOutage]);
    cfg.fpga = true;
    let r = run_experiment(cfg);
    assert!(
        r.metrics.offload_fallbacks > 0,
        "outage produced no CPU fallbacks"
    );
    assert!(r.metrics.dags > 0);
}

fn fixed_timeline(
    kind: FaultKind,
    start_us: u64,
    dur_us: u64,
    severity: f64,
) -> std::sync::Arc<FaultTimeline> {
    std::sync::Arc::new(fixed_timeline_inner(kind, start_us, dur_us, severity))
}

fn fixed_timeline_inner(
    kind: FaultKind,
    start_us: u64,
    dur_us: u64,
    severity: f64,
) -> FaultTimeline {
    FaultPlan {
        specs: vec![FaultSpec::fixed(
            kind,
            Nanos::from_micros(start_us),
            Nanos::from_micros(dur_us),
            severity,
        )],
    }
    .resolve(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The recovery invariant: a core going offline mid-slot — whatever the
    /// timing and however many cores it takes — never loses a task. Every
    /// injected DAG still runs to completion on the survivors.
    #[test]
    fn core_offline_never_loses_a_task(
        n_ues in 1usize..6,
        start_us in 0u64..3_000,
        dur_us in 100u64..5_000,
        severity in 0.1f64..1.0,
    ) {
        let cell = CellConfig::tdd_100mhz();
        let cost = CostModel::new();
        let mut pool = VranPool::new(
            PoolConfig { cores: 4, rotation: None, ..PoolConfig::default() },
            cost.clone(),
            Box::new(DedicatedScheduler),
            13,
        );
        pool.set_fault_timeline(fixed_timeline(
            FaultKind::CoreOffline, start_us, dur_us, severity,
        ));
        let n_dags = 6usize;
        for i in 0..n_dags {
            let arrival = Nanos::from_micros(500 * i as u64);
            pool.run_until(arrival);
            let wl = SlotWorkload {
                direction: SlotDirection::Uplink,
                ues: (0..n_ues).map(|u| UeAlloc {
                    tb_bytes: 4_000 + 1_000 * u as u32,
                    mcs_index: 12,
                    snr_db: 18.0,
                    layers: 2,
                    prbs: 50,
                }).collect(),
            };
            let dag = build_dag(&cell, 0, i as u64, arrival, &wl);
            let wcet = dag.nodes.iter()
                .map(|n| cost.expected_cost(n.task.kind, &n.task.params))
                .collect();
            pool.inject_dag(ScheduledDag { dag, node_wcet: wcet });
        }
        pool.run_until(Nanos::from_millis(200));
        prop_assert_eq!(pool.active_dags(), 0);
        prop_assert_eq!(pool.metrics().slots.count(), n_dags);
        // Severity 1.0 must still leave at least one survivor.
        prop_assert!(pool.offline_cores() < 4);
    }

    /// Regression for the bare-unwrap hot paths in the pool (dispatch,
    /// event loop, free-list reuse): arbitrary interleavings of core-loss
    /// windows with DAG arrivals — fault edges landing before, between and
    /// inside arrival bursts — must never panic, never lose a task, and
    /// must behave identically with the trace recorder attached.
    #[test]
    fn core_loss_interleaved_with_arrivals_is_lossless_and_trace_invariant(
        n_ues in 1usize..5,
        arrivals in proptest::collection::vec(0u64..6_000, 1..8),
        windows in proptest::collection::vec((0u64..5_000, 100u64..2_500), 1..3),
        severity in 0.1f64..1.0,
    ) {
        let cell = CellConfig::tdd_100mhz();
        let cost = CostModel::new();
        let timeline = FaultPlan {
            specs: windows.iter().map(|&(start_us, dur_us)| FaultSpec::fixed(
                FaultKind::CoreOffline,
                Nanos::from_micros(start_us),
                Nanos::from_micros(dur_us),
                severity,
            )).collect(),
        }
        .resolve(0);

        let run = |traced: bool| {
            let mut pool = VranPool::new(
                PoolConfig { cores: 4, rotation: None, ..PoolConfig::default() },
                cost.clone(),
                Box::new(DedicatedScheduler),
                17,
            );
            if traced {
                pool.enable_trace(concordia::platform::trace::TraceConfig::default());
            }
            pool.set_fault_timeline(std::sync::Arc::new(timeline.clone()));
            let mut sorted = arrivals.clone();
            sorted.sort_unstable();
            for (i, &at_us) in sorted.iter().enumerate() {
                let arrival = Nanos::from_micros(at_us);
                pool.run_until(arrival);
                let wl = SlotWorkload {
                    direction: SlotDirection::Uplink,
                    ues: (0..n_ues).map(|u| UeAlloc {
                        tb_bytes: 3_000 + 800 * u as u32,
                        mcs_index: 10,
                        snr_db: 15.0,
                        layers: 2,
                        prbs: 40,
                    }).collect(),
                };
                let dag = build_dag(&cell, 0, i as u64, arrival, &wl);
                let wcet = dag.nodes.iter()
                    .map(|n| cost.expected_cost(n.task.kind, &n.task.params))
                    .collect();
                pool.inject_dag(ScheduledDag { dag, node_wcet: wcet });
            }
            pool.run_until(Nanos::from_millis(200));
            (
                pool.active_dags(),
                pool.metrics().slots.count(),
                pool.metrics().counters.tasks(),
                pool.metrics().tasks_requeued,
                pool.metrics().cores_failed,
            )
        };

        let untraced = run(false);
        let traced = run(true);
        // No DAG may be left stuck in the pool.
        prop_assert_eq!(untraced.0, 0);
        prop_assert_eq!(untraced.1, arrivals.len());
        // The recorder must not perturb any outcome.
        prop_assert_eq!(untraced, traced);
    }
}
