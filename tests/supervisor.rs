//! Predictor control-plane integration tests: the self-healing lifecycle
//! under `drift_injection`, byte-level determinism of supervised runs,
//! the misprediction-guard reset on readmission, and the hot-swap
//! atomicity invariant, all exercised through the facade.

use concordia::core::{run_experiment, Colocation, SimConfig};
use concordia::platform::faults::{FaultKind, FaultPlan, FaultSpec};
use concordia::platform::workloads::WorkloadKind;
use concordia::predictor::{FixedPredictor, TrainingSample, WcetPredictor};
use concordia::ran::{FeatureVec, Nanos, NUM_FEATURES};
use concordia::sched::guard::MispredictionGuard;
use concordia::sched::{LaneState, PredictorSupervisor, SupervisorConfig};
use proptest::prelude::*;

/// A drift window that opens after calibration, holds for half the run
/// and leaves a tail for the readmitted model to prove itself on.
fn drift_cfg(supervised: bool) -> SimConfig {
    let mut cfg = SimConfig::paper_20mhz();
    cfg.duration = Nanos::from_secs(2);
    cfg.profiling_slots = 300;
    cfg.load = 0.5;
    cfg.seed = 11;
    cfg.colocation = Colocation::Single(WorkloadKind::Redis);
    cfg.faults = FaultPlan {
        specs: vec![FaultSpec::fixed(
            FaultKind::DriftInjection,
            Nanos::from_millis(400),
            Nanos::from_millis(1_100),
            0.9,
        )],
    };
    if supervised {
        cfg.supervisor = Some(SupervisorConfig {
            window_slots: 25,
            calibration_windows: 2,
            min_samples: 20,
            consecutive_windows: 2,
            retrain_min_samples: 200,
            shadow_windows: 2,
            ..SupervisorConfig::default()
        });
    } else {
        cfg.online_updates = false;
    }
    cfg
}

#[test]
fn supervisor_heals_drift_while_frozen_model_stays_degraded() {
    let sup_report = run_experiment(drift_cfg(true));
    let frozen_report = run_experiment(drift_cfg(false));

    let sup = sup_report
        .supervisor
        .as_ref()
        .expect("supervised run carries a supervisor report");
    assert!(sup.drift_detections >= 1, "drift never detected");
    assert!(sup.quarantines >= 1, "no lane was quarantined");
    assert!(sup.retrains >= 1, "no lane was retrained");
    assert!(sup.readmissions >= 1, "no lane was readmitted");
    assert!(
        sup.windows_to_readmission.is_some(),
        "readmission latency missing"
    );

    let w = sup_report
        .fault
        .as_ref()
        .and_then(|f| f.windows.first())
        .expect("drift window reported");
    assert!(w.dags_after > 0, "nothing completed after the window");
    assert!(
        w.recovered(),
        "post-readmission reliability {} fell below pre-fault {}",
        w.reliability_after,
        w.reliability_before
    );

    // The frozen baseline has no control plane to report and no
    // mechanism to absorb the new regime: while the drift holds it can
    // do no better than the supervised run.
    assert!(frozen_report.supervisor.is_none());
    let fw = frozen_report
        .fault
        .as_ref()
        .and_then(|f| f.windows.first())
        .expect("drift window reported");
    assert!(
        fw.reliability_during <= w.reliability_during + 1e-12,
        "frozen model ({}) outperformed the supervised one ({}) during drift",
        fw.reliability_during,
        w.reliability_during
    );
}

#[test]
fn supervised_runs_are_bit_reproducible() {
    // The control plane sits on the same forked-seed discipline as the
    // rest of the simulator: identical configs must serialize to
    // byte-identical reports, drift, retraining and all.
    let a = run_experiment(drift_cfg(true));
    let b = run_experiment(drift_cfg(true));
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}

const X: FeatureVec = [0.0; NUM_FEATURES];

/// A minimal refittable model: one leaf, constant prediction; `refit`
/// adopts the replay maximum (the shape the quantile tree's own re-fit
/// takes, reduced to a single partition).
struct OneLeaf {
    wcet_us: f64,
}

impl WcetPredictor for OneLeaf {
    fn predict_us(&self, _x: &FeatureVec) -> f64 {
        self.wcet_us
    }
    fn observe(&mut self, _x: &FeatureVec, _runtime_us: f64) {}
    fn route(&self, _x: &FeatureVec) -> Option<usize> {
        Some(0)
    }
    fn refit(&mut self, samples: &[TrainingSample]) -> bool {
        if samples.is_empty() {
            return false;
        }
        self.wcet_us = samples.iter().map(|s| s.runtime_us).fold(0.0, f64::max);
        true
    }
    fn reference_quantiles(&self, _q: f64) -> Vec<f64> {
        vec![self.wcet_us]
    }
}

fn fixed_lane_supervisor(cfg: SupervisorConfig) -> PredictorSupervisor {
    let mut sup = PredictorSupervisor::new(cfg, 1);
    sup.install(
        0,
        Box::new(FixedPredictor { wcet_us: 100.0 }),
        Box::new(FixedPredictor { wcet_us: 400.0 }),
    );
    sup
}

#[test]
fn guard_reset_fires_exactly_once_per_readmission() {
    // Readmission swaps in a retrained predictor; the misprediction
    // guard's inflation was earned against the old one and must not
    // outlive it.
    let cfg = SupervisorConfig {
        window_slots: 10,
        calibration_windows: 0,
        min_samples: 10,
        consecutive_windows: 1,
        retrain_min_samples: 10,
        shadow_windows: 1,
        online_feed: false,
        ..SupervisorConfig::default()
    };
    let mut sup = PredictorSupervisor::new(cfg, 1);
    sup.install(
        0,
        Box::new(OneLeaf { wcet_us: 100.0 }),
        Box::new(FixedPredictor { wcet_us: 400.0 }),
    );
    let mut guard = MispredictionGuard::default();
    for _ in 0..200 {
        guard.observe(100.0, 300.0);
    }
    assert!(guard.inflation() > 1.0, "guard never inflated");

    // Quarantine: a full window of gross underprediction.
    for _ in 0..15 {
        sup.record(0, &X, 300.0);
    }
    sup.end_window(15, 15);
    assert_eq!(sup.lane_state(0), Some(LaneState::Quarantined));
    assert!(!sup.take_guard_reset(), "reset before any readmission");

    // Retrain (replay refilled post-quarantine) then pass the shadow gate.
    for _ in 0..15 {
        sup.record(0, &X, 300.0);
    }
    sup.end_window(15, 0);
    assert_eq!(sup.lane_state(0), Some(LaneState::Shadow));
    for _ in 0..15 {
        sup.record(0, &X, 300.0);
    }
    sup.end_window(15, 0);
    assert_eq!(sup.lane_state(0), Some(LaneState::Healthy));

    assert!(sup.take_guard_reset(), "readmission must request a reset");
    if sup.take_guard_reset() {
        panic!("reset must be consumed on take");
    }
    guard.reset();
    assert_eq!(guard.inflation(), 1.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Hot-swap atomicity: whatever observations stream in, the serving
    /// predictor's output and the lane generation are constant between
    /// window boundaries — scheduling decisions inside a window can
    /// never see a half-swapped model.
    #[test]
    fn hot_swap_never_changes_predictions_within_a_window(
        runtimes in proptest::collection::vec(1.0f64..1_000.0, 1..120),
        windows in 1usize..6,
    ) {
        let cfg = SupervisorConfig {
            window_slots: 10,
            calibration_windows: 1,
            min_samples: 10,
            consecutive_windows: 1,
            retrain_min_samples: 20,
            shadow_windows: 1,
            online_feed: false,
            ..SupervisorConfig::default()
        };
        let mut sup = fixed_lane_supervisor(cfg);
        for _ in 0..windows {
            let served_at_open = sup.predict_us(0, &X);
            let gen_at_open = sup.generation(0);
            for rt in &runtimes {
                sup.record(0, &X, *rt);
                prop_assert_eq!(sup.predict_us(0, &X), served_at_open);
                prop_assert_eq!(sup.generation(0), gen_at_open);
            }
            sup.end_window(runtimes.len() as u64, 0);
        }
    }
}
