//! The predictor control plane: drift detection, quarantine, online
//! retraining with atomic hot-swap, and overload admission control.
//!
//! Concordia's 99.999 % reliability claim (§6) rests on the WCET predictor
//! staying valid while the online feature→runtime distribution shifts.
//! The paper validates this over long no-drift runs; this module closes
//! the loop for when the assumption breaks. Per task kind it runs the
//! lifecycle
//!
//! ```text
//! Healthy --drift detected--> Quarantined --refit from replay--> Shadow
//!    ^                            ^                                |
//!    |                            +------- gate failed ------------+
//!    +------------- shadow gate passed (readmission) --------------+
//! ```
//!
//! * **Drift detection** (Healthy): each decision window counts, per
//!   leaf, the samples routed to it, their maximum and how many exceed
//!   the leaf's reference quantile — a rolling quantile-coverage test: if
//!   the fraction of a leaf's window samples above its reference beats
//!   the trip level, the leaf (and hence the tree) has drifted. The
//!   maximum is what calibration reads. Lanes whose model has no leaves
//!   count whole-model coverage misses (observed runtime > prediction)
//!   instead.
//! * **Quarantine**: after `consecutive_windows` drifted windows the
//!   serving model is swapped for a conservative fallback (an inflated
//!   linear model). The swap is generation-counted and committed only
//!   inside [`PredictorSupervisor::end_window`] — never mid-window — so a
//!   slot's DAGs are always priced by a single model generation.
//! * **Online retraining**: the quarantined tree re-fits its leaf
//!   statistics from a bounded replay of the observations since the
//!   quarantine (structure frozen, per §4.2), recorded only while the
//!   lane is off its primary, then shadow-evaluates:
//!   the fallback keeps serving while the re-fitted model is scored
//!   against live runtimes. Only after `shadow_windows` consecutive
//!   windows within the coverage target is it re-admitted (another
//!   generation-counted swap). A failed gate sends it back to quarantine.
//! * **Admission control**: when even the fallback cannot meet deadlines
//!   (sustained overload), the supervisor first sheds best-effort work
//!   ([`AdmissionLevel::Shed`]) and past a second threshold rejects new
//!   slot-DAG admissions ([`AdmissionLevel::Reject`]) — a typed
//!   backpressure signal the runner surfaces in its fault report.
//!
//! Everything here is deterministic: no clocks, no randomness — state
//! advances only through `record` and `end_window`, so a seeded simulation
//! drives the whole lifecycle byte-reproducibly.

pub use concordia_platform::trace::{AdmissionLevel, LaneState};
use concordia_predictor::api::{TrainingSample, WcetPredictor};
use concordia_ran::features::FeatureVec;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Whole-model coverage trip: fraction of window samples exceeding the
/// serving prediction.
const MISS_RATE_TRIP: f64 = 0.25;
/// Training-time reference quantile for the per-leaf test.
const SHIFT_QUANTILE: f64 = 0.95;
/// Per-leaf trip: fraction of a leaf's window samples above its reference
/// quantile.
const SHIFT_EXCEED_TRIP: f64 = 0.5;
/// Replay capacity per lane: a refit reads the newest this many samples.
const REPLAY_CAPACITY: usize = 8_192;
/// Shadow gate: maximum miss rate (actual > predicted) per window.
const SHADOW_MISS_RATE: f64 = 0.02;
/// Window reliability below this counts toward sustained overload.
const SHED_RELIABILITY: f64 = 0.99;
/// Window reliability below this escalates shedding toward rejection.
const REJECT_RELIABILITY: f64 = 0.90;
/// Consecutive overload windows before [`AdmissionLevel::Shed`]; twice as
/// many (at reliability below [`REJECT_RELIABILITY`]) before
/// [`AdmissionLevel::Reject`].
const OVERLOAD_WINDOWS: u32 = 3;

/// Tunables of the predictor control plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// Slots per decision window (the simulation calls
    /// [`PredictorSupervisor::end_window`] on this cadence).
    pub window_slots: u64,
    /// Calibration windows at the start of the run: per-leaf references
    /// are raised to cover the healthy *online* regime (collocation
    /// interference shifts runtimes above the isolated training data)
    /// before drift detection arms.
    pub calibration_windows: u32,
    /// Safety margin applied to the calibration-time per-leaf maximum when
    /// raising references.
    pub calibration_margin: f64,
    /// Minimum observations in a window before it can be judged.
    pub min_samples: u64,
    /// Minimum samples a leaf needs in a window before its test counts.
    pub leaf_min_samples: u64,
    /// Consecutive drifted windows before quarantine.
    pub consecutive_windows: u32,
    /// Multiplicative inflation on the fallback model's predictions.
    pub fallback_inflation: f64,
    /// Fresh (post-quarantine) samples required before a re-fit.
    pub retrain_min_samples: u64,
    /// Consecutive passing shadow windows before readmission.
    pub shadow_windows: u32,
    /// Feed observations to the serving model (the §4.2 online-adaptation
    /// path). Disabled for frozen-model ablations and purity tests.
    pub online_feed: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            window_slots: 50,
            calibration_windows: 4,
            calibration_margin: 1.15,
            min_samples: 40,
            leaf_min_samples: 8,
            consecutive_windows: 2,
            fallback_inflation: 1.5,
            retrain_min_samples: 500,
            shadow_windows: 3,
            online_feed: true,
        }
    }
}

/// Monotonic event counters of the control plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorCounters {
    /// Decision windows evaluated.
    pub windows: u64,
    /// Windows in which at least one lane's drift test tripped.
    pub drift_detections: u64,
    /// Healthy → Quarantined transitions.
    pub quarantines: u64,
    /// Successful replay re-fits (Quarantined → Shadow).
    pub retrains: u64,
    /// Shadow gates failed (Shadow → Quarantined).
    pub shadow_rejections: u64,
    /// Shadow gates passed (Shadow → Healthy).
    pub readmissions: u64,
    /// Generation-counted serving swaps (quarantines + readmissions).
    pub swaps: u64,
    /// Windows spent at `Shed` or `Reject`.
    pub shed_windows: u64,
    /// Slot DAGs refused while at `Reject`.
    pub rejected_dags: u64,
}

/// One leaf's samples in the current window: what calibration and the
/// per-leaf drift test read.
#[derive(Clone, Copy)]
struct LeafWindow {
    count: u64,
    /// Largest runtime (`-inf` before the first sample).
    max: f64,
    /// Samples above the leaf's reference quantile.
    exceed: u64,
}

impl LeafWindow {
    const EMPTY: LeafWindow = LeafWindow {
        count: 0,
        max: f64::NEG_INFINITY,
        exceed: 0,
    };
}

/// One per-kind predictor lane.
struct Lane {
    primary: Box<dyn WcetPredictor>,
    fallback: Box<dyn WcetPredictor>,
    state: LaneState,
    /// Bumped on every serving swap; constant between window boundaries.
    generation: u64,
    /// Per-leaf reference quantiles (training-time, raised by calibration).
    leaf_ref: Vec<f64>,
    /// Per-leaf window samples, one entry per reference quantile.
    win_leaf: Vec<LeafWindow>,
    /// Whole-model window counters: observations, and coverage misses
    /// (counted only when the model has no leaves, the one case whose
    /// drift test reads them).
    win_total: u64,
    win_miss: u64,
    /// Consecutive drifted windows.
    drift_streak: u32,
    /// Shadow-evaluation window counters (vs the re-fitted primary).
    shadow_total: u64,
    shadow_miss: u64,
    /// Consecutive passing shadow windows.
    shadow_pass: u32,
    /// The newest [`REPLAY_CAPACITY`] samples since the last quarantine,
    /// oldest first. Recorded only while the lane is off its primary: the
    /// quarantine clears it before any refit could read a healthy sample.
    replay: VecDeque<TrainingSample>,
    /// Samples recorded since the last quarantine (exceeds the replay's
    /// length once the oldest are evicted).
    replay_pushed: u64,
}

impl Lane {
    fn reset_window(&mut self) {
        self.win_leaf.fill(LeafWindow::EMPTY);
        self.win_total = 0;
        self.win_miss = 0;
        self.shadow_total = 0;
        self.shadow_miss = 0;
    }

    fn serving(&self) -> &dyn WcetPredictor {
        match self.state {
            LaneState::Healthy => self.primary.as_ref(),
            LaneState::Quarantined | LaneState::Shadow => self.fallback.as_ref(),
        }
    }

    /// Raises per-leaf references to cover the observed healthy online
    /// regime (with margin). Training data is gathered in isolation;
    /// colocation interference sits above it, and without this step every
    /// healthy window would look drifted.
    fn calibrate(&mut self, margin: f64) {
        for (leaf, w) in self.win_leaf.iter().enumerate() {
            if w.count > 0 {
                let online_ref = w.max * margin;
                if online_ref > self.leaf_ref[leaf] {
                    self.leaf_ref[leaf] = online_ref;
                }
            }
        }
    }

    /// The rolling quantile-coverage drift test over the closing window.
    /// Returns `true` when the window shows drift.
    fn window_drifted(&self, cfg: &SupervisorConfig) -> bool {
        if self.win_total < cfg.min_samples {
            return false;
        }
        if !self.leaf_ref.is_empty() {
            // Per-leaf exceedance vs the frozen references: the primary
            // signal for leafed models, immune to the model's own online
            // adaptation (a leaf max absorbs a drifted sample instantly,
            // but the reference does not) and to the calibration offset
            // (references were raised to the healthy online regime, the
            // raw predictions were not).
            for w in &self.win_leaf {
                if w.count >= cfg.leaf_min_samples {
                    let rate = w.exceed as f64 / w.count as f64;
                    if rate > SHIFT_EXCEED_TRIP {
                        return true;
                    }
                }
            }
            false
        } else {
            // Whole-model coverage misses: the only available signal for
            // models without routable structure.
            let miss_rate = self.win_miss as f64 / self.win_total as f64;
            miss_rate > MISS_RATE_TRIP
        }
    }
}

/// The control plane over a bank of per-kind predictor lanes.
///
/// Serving swaps happen *only* inside [`PredictorSupervisor::end_window`]
/// (the single-threaded equivalent of a generation-counted `Arc` swap at a
/// window boundary): between two `end_window` calls the generation and the
/// serving model of every lane are constant, so every DAG priced within a
/// window sees one model.
pub struct PredictorSupervisor {
    cfg: SupervisorConfig,
    lanes: Vec<Option<Lane>>,
    counters: SupervisorCounters,
    admission: AdmissionLevel,
    /// Consecutive windows below [`SHED_RELIABILITY`].
    overload_streak: u32,
    /// Set by a readmission; the runner consumes it to reset the
    /// misprediction guard (the retrained model must not inherit the
    /// stale model's inflation).
    guard_reset_pending: bool,
    /// Window index of the first quarantine, if any.
    first_quarantine_window: Option<u64>,
    /// Window index of the most recent readmission, if any.
    last_readmission_window: Option<u64>,
}

impl PredictorSupervisor {
    /// An empty supervisor for `n_lanes` task kinds.
    pub fn new(cfg: SupervisorConfig, n_lanes: usize) -> Self {
        PredictorSupervisor {
            cfg,
            lanes: (0..n_lanes).map(|_| None).collect(),
            counters: SupervisorCounters::default(),
            admission: AdmissionLevel::Normal,
            overload_streak: 0,
            guard_reset_pending: false,
            first_quarantine_window: None,
            last_readmission_window: None,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// Installs a lane: `primary` serves while healthy, `fallback` (a
    /// conservative model, e.g. an inflated linear regression) serves
    /// during quarantine and shadow evaluation.
    pub fn install(
        &mut self,
        lane: usize,
        primary: Box<dyn WcetPredictor>,
        fallback: Box<dyn WcetPredictor>,
    ) {
        let leaf_ref = primary.reference_quantiles(SHIFT_QUANTILE);
        let n = leaf_ref.len();
        self.lanes[lane] = Some(Lane {
            primary,
            fallback,
            state: LaneState::Healthy,
            generation: 0,
            leaf_ref,
            win_leaf: vec![LeafWindow::EMPTY; n],
            win_total: 0,
            win_miss: 0,
            drift_streak: 0,
            shadow_total: 0,
            shadow_miss: 0,
            shadow_pass: 0,
            replay: VecDeque::new(),
            replay_pushed: 0,
        });
    }

    /// `true` when the lane exists.
    pub fn has_lane(&self, lane: usize) -> bool {
        self.lanes.get(lane).is_some_and(|l| l.is_some())
    }

    /// Number of installed lanes.
    pub fn n_lanes(&self) -> usize {
        self.lanes.iter().filter(|l| l.is_some()).count()
    }

    /// Serving prediction for the lane (µs), or `None` if uninstalled.
    pub fn predict_us(&self, lane: usize, x: &FeatureVec) -> Option<f64> {
        self.lanes[lane].as_ref().map(|l| l.serving().predict_us(x))
    }

    /// An interval that contains [`PredictorSupervisor::predict_us`]: the
    /// serving model's [`WcetPredictor::predict_bounds`].
    pub fn predict_bounds(&self, lane: usize, x: &FeatureVec) -> Option<(f64, f64)> {
        self.lanes[lane]
            .as_ref()
            .map(|l| l.serving().predict_bounds(x))
    }

    /// The lane's serving-model generation. Bumped only by `end_window`.
    pub fn generation(&self, lane: usize) -> u64 {
        self.lanes[lane].as_ref().map_or(0, |l| l.generation)
    }

    /// The lane's lifecycle state, if installed.
    pub fn lane_state(&self, lane: usize) -> Option<LaneState> {
        self.lanes[lane].as_ref().map(|l| l.state)
    }

    /// Lanes currently not serving their primary (Quarantined or Shadow).
    pub fn lanes_on_fallback(&self) -> usize {
        self.lanes
            .iter()
            .flatten()
            .filter(|l| l.state != LaneState::Healthy)
            .count()
    }

    /// The current admission level; changes only at window boundaries.
    pub fn admission(&self) -> AdmissionLevel {
        self.admission
    }

    /// The control-plane event counters.
    pub fn counters(&self) -> &SupervisorCounters {
        &self.counters
    }

    /// Consumes the pending guard-reset flag set by a readmission.
    pub fn take_guard_reset(&mut self) -> bool {
        std::mem::take(&mut self.guard_reset_pending)
    }

    /// Counts slot DAGs refused while at [`AdmissionLevel::Reject`].
    pub fn note_rejected(&mut self, n: u64) {
        self.counters.rejected_dags += n;
    }

    /// Windows from the first quarantine to the most recent readmission
    /// (the time-to-readmission metric), if both happened.
    pub fn windows_to_readmission(&self) -> Option<u64> {
        match (self.first_quarantine_window, self.last_readmission_window) {
            (Some(q), Some(r)) if r >= q => Some(r - q),
            _ => None,
        }
    }

    /// Records one observed `(features, runtime)` pair for the lane: the
    /// drift counters while healthy, the replay (and, in Shadow, the
    /// shadow score) while off the primary, and (when `online_feed`) the
    /// serving model's own online adaptation. Never swaps the serving
    /// model.
    pub fn record(&mut self, lane: usize, x: &FeatureVec, runtime_us: f64) {
        let online = self.cfg.online_feed;
        let Some(l) = self.lanes[lane].as_mut() else {
            return;
        };
        match l.state {
            LaneState::Healthy => {
                l.win_total += 1;
                if l.leaf_ref.is_empty() {
                    if runtime_us > l.primary.predict_us(x) {
                        l.win_miss += 1;
                    }
                } else if let Some(leaf) = l.primary.route(x) {
                    if let Some(w) = l.win_leaf.get_mut(leaf) {
                        w.count += 1;
                        if runtime_us > w.max {
                            w.max = runtime_us;
                        }
                        if runtime_us > l.leaf_ref[leaf] {
                            w.exceed += 1;
                        }
                    }
                }
                if online {
                    l.primary.observe(x, runtime_us);
                }
            }
            LaneState::Quarantined | LaneState::Shadow => {
                if l.state == LaneState::Shadow {
                    // Score the frozen re-fitted primary against live
                    // runtimes *before* any update, so the gate judges the
                    // re-fit itself rather than a moving target.
                    l.shadow_total += 1;
                    if runtime_us > l.primary.predict_us(x) {
                        l.shadow_miss += 1;
                    }
                }
                if l.replay.len() == REPLAY_CAPACITY {
                    l.replay.pop_front();
                }
                l.replay.push_back(TrainingSample { x: *x, runtime_us });
                l.replay_pushed += 1;
                if online {
                    l.fallback.observe(x, runtime_us);
                }
            }
        }
    }

    /// Closes a decision window: runs drift detection, quarantine swaps,
    /// replay re-fits, shadow gates and the overload admission policy.
    /// `dags` / `violations` are the slot DAGs completed (and deadline
    /// violations among them) since the previous window boundary. This is
    /// the *only* place serving models swap.
    pub fn end_window(&mut self, dags: u64, violations: u64) {
        let win = self.counters.windows;
        self.counters.windows += 1;
        let calibrating = win < u64::from(self.cfg.calibration_windows);
        let cfg = self.cfg;
        let mut drift_this_window = false;

        for l in self.lanes.iter_mut().flatten() {
            match l.state {
                LaneState::Healthy => {
                    if calibrating {
                        l.calibrate(cfg.calibration_margin);
                        l.drift_streak = 0;
                    } else if l.window_drifted(&cfg) {
                        drift_this_window = true;
                        l.drift_streak += 1;
                        if l.drift_streak >= cfg.consecutive_windows {
                            // Quarantine: generation-counted swap to the
                            // fallback; replay restarts so retraining sees
                            // only post-fault data.
                            l.state = LaneState::Quarantined;
                            l.generation += 1;
                            l.drift_streak = 0;
                            l.replay.clear();
                            l.replay_pushed = 0;
                            self.counters.quarantines += 1;
                            self.counters.swaps += 1;
                            if self.first_quarantine_window.is_none() {
                                self.first_quarantine_window = Some(win);
                            }
                        }
                    } else {
                        l.drift_streak = 0;
                    }
                }
                LaneState::Quarantined => {
                    // A refit-incapable primary stays quarantined on the
                    // fallback forever — safe, just pessimistic.
                    if l.replay_pushed >= cfg.retrain_min_samples
                        && l.primary.refit(l.replay.make_contiguous())
                    {
                        l.state = LaneState::Shadow;
                        l.shadow_pass = 0;
                        self.counters.retrains += 1;
                    }
                }
                LaneState::Shadow => {
                    if l.shadow_total >= cfg.min_samples {
                        let miss = l.shadow_miss as f64 / l.shadow_total as f64;
                        if miss <= SHADOW_MISS_RATE {
                            l.shadow_pass += 1;
                            if l.shadow_pass >= cfg.shadow_windows {
                                // Readmission: swap the re-fitted primary
                                // back in and re-snapshot its references
                                // for the next round of drift detection.
                                l.state = LaneState::Healthy;
                                l.generation += 1;
                                l.leaf_ref = l.primary.reference_quantiles(SHIFT_QUANTILE);
                                l.win_leaf = vec![LeafWindow::EMPTY; l.leaf_ref.len()];
                                l.drift_streak = 0;
                                self.counters.readmissions += 1;
                                self.counters.swaps += 1;
                                self.guard_reset_pending = true;
                                self.last_readmission_window = Some(win);
                            }
                        } else {
                            // Gate failed: back to quarantine to gather
                            // more replay before the next re-fit attempt.
                            l.state = LaneState::Quarantined;
                            l.shadow_pass = 0;
                            self.counters.shadow_rejections += 1;
                        }
                    }
                }
            }
            l.reset_window();
        }

        if drift_this_window {
            self.counters.drift_detections += 1;
        }

        // Overload admission policy, driven by window reliability.
        let reliability = if dags == 0 {
            1.0
        } else {
            1.0 - violations as f64 / dags as f64
        };
        if dags > 0 && reliability < SHED_RELIABILITY {
            self.overload_streak += 1;
        } else {
            self.overload_streak = 0;
        }
        self.admission =
            if self.overload_streak >= 2 * OVERLOAD_WINDOWS && reliability < REJECT_RELIABILITY {
                AdmissionLevel::Reject
            } else if self.overload_streak >= OVERLOAD_WINDOWS {
                AdmissionLevel::Shed
            } else {
                AdmissionLevel::Normal
            };
        if self.admission != AdmissionLevel::Normal {
            self.counters.shed_windows += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concordia_predictor::api::{FixedPredictor, InflatedPredictor, MaxObservedPredictor};
    use concordia_predictor::LinearRegression;
    use concordia_ran::features::NUM_FEATURES;
    use concordia_stats::rng::Rng;
    use std::sync::{Arc, Mutex};

    const X: FeatureVec = [0.0; NUM_FEATURES];

    /// A routable test model: one leaf, prediction = leaf reference,
    /// refit adopts the max of the samples.
    struct OneLeaf {
        wcet: f64,
    }

    impl WcetPredictor for OneLeaf {
        fn predict_us(&self, _x: &FeatureVec) -> f64 {
            self.wcet
        }
        fn observe(&mut self, _x: &FeatureVec, _runtime_us: f64) {}
        fn route(&self, _x: &FeatureVec) -> Option<usize> {
            Some(0)
        }
        fn refit(&mut self, samples: &[TrainingSample]) -> bool {
            if samples.is_empty() {
                return false;
            }
            self.wcet = samples.iter().map(|s| s.runtime_us).fold(0.0, f64::max);
            true
        }
        fn reference_quantiles(&self, _q: f64) -> Vec<f64> {
            vec![self.wcet]
        }
    }

    fn test_cfg() -> SupervisorConfig {
        SupervisorConfig {
            window_slots: 10,
            calibration_windows: 1,
            calibration_margin: 1.0,
            min_samples: 10,
            consecutive_windows: 2,
            retrain_min_samples: 30,
            shadow_windows: 2,
            leaf_min_samples: 5,
            ..SupervisorConfig::default()
        }
    }

    fn feed(sup: &mut PredictorSupervisor, lane: usize, runtime: f64, n: usize) {
        for _ in 0..n {
            sup.record(lane, &X, runtime);
        }
    }

    #[test]
    fn healthy_lane_serves_primary_and_stays_healthy() {
        let mut sup = PredictorSupervisor::new(test_cfg(), 1);
        sup.install(
            0,
            Box::new(OneLeaf { wcet: 100.0 }),
            Box::new(FixedPredictor { wcet_us: 500.0 }),
        );
        assert_eq!(sup.predict_us(0, &X), Some(100.0));
        assert_eq!(sup.lane_state(0), Some(LaneState::Healthy));
        // In-distribution samples through calibration and several windows.
        for _ in 0..5 {
            feed(&mut sup, 0, 80.0, 20);
            sup.end_window(20, 0);
        }
        assert_eq!(sup.lane_state(0), Some(LaneState::Healthy));
        assert_eq!(sup.generation(0), 0);
        assert_eq!(sup.counters().quarantines, 0);
        assert_eq!(sup.counters().drift_detections, 0);
    }

    #[test]
    fn full_lifecycle_quarantine_retrain_readmit() {
        let mut sup = PredictorSupervisor::new(test_cfg(), 1);
        sup.install(
            0,
            Box::new(OneLeaf { wcet: 100.0 }),
            Box::new(FixedPredictor { wcet_us: 500.0 }),
        );
        // Calibration window (healthy data).
        feed(&mut sup, 0, 80.0, 20);
        sup.end_window(20, 0);

        // Drifted regime: runtimes way above the leaf reference.
        feed(&mut sup, 0, 200.0, 20);
        sup.end_window(20, 0);
        assert_eq!(sup.lane_state(0), Some(LaneState::Healthy));
        assert_eq!(sup.counters().drift_detections, 1);

        feed(&mut sup, 0, 200.0, 20);
        sup.end_window(20, 0); // second drifted window → quarantine swap
        assert_eq!(sup.lane_state(0), Some(LaneState::Quarantined));
        assert_eq!(sup.generation(0), 1);
        assert_eq!(sup.predict_us(0, &X), Some(500.0)); // fallback serves
        assert_eq!(sup.counters().quarantines, 1);
        assert_eq!(sup.counters().swaps, 1);

        // Replay fills with post-fault data → refit → shadow.
        feed(&mut sup, 0, 200.0, 35);
        sup.end_window(35, 0);
        assert_eq!(sup.lane_state(0), Some(LaneState::Shadow));
        assert_eq!(sup.counters().retrains, 1);
        assert_eq!(sup.predict_us(0, &X), Some(500.0)); // still fallback

        // Two passing shadow windows (refit wcet = 200 covers the regime).
        feed(&mut sup, 0, 190.0, 20);
        sup.end_window(20, 0);
        assert_eq!(sup.lane_state(0), Some(LaneState::Shadow));
        feed(&mut sup, 0, 190.0, 20);
        sup.end_window(20, 0);
        assert_eq!(sup.lane_state(0), Some(LaneState::Healthy));
        assert_eq!(sup.generation(0), 2);
        assert_eq!(sup.predict_us(0, &X), Some(200.0)); // retrained primary
        assert_eq!(sup.counters().readmissions, 1);
        assert_eq!(sup.counters().swaps, 2);
        assert!(sup.take_guard_reset());
        assert!(!sup.take_guard_reset()); // consumed
        assert_eq!(sup.windows_to_readmission(), Some(3));
    }

    #[test]
    fn swaps_only_happen_at_window_boundaries() {
        let mut sup = PredictorSupervisor::new(test_cfg(), 1);
        sup.install(
            0,
            Box::new(OneLeaf { wcet: 100.0 }),
            Box::new(FixedPredictor { wcet_us: 500.0 }),
        );
        feed(&mut sup, 0, 80.0, 20);
        sup.end_window(20, 0); // calibration
        feed(&mut sup, 0, 200.0, 20);
        sup.end_window(20, 0); // first drifted window
        let gen = sup.generation(0);
        // Mid-window: no matter how drifted the samples, serving model and
        // generation are frozen until the boundary.
        for _ in 0..100 {
            sup.record(0, &X, 10_000.0);
            assert_eq!(sup.generation(0), gen);
            assert_eq!(sup.predict_us(0, &X), Some(100.0));
        }
        sup.end_window(100, 0);
        assert_ne!(sup.generation(0), gen); // boundary commits the swap
    }

    #[test]
    fn calibration_absorbs_interference_shift() {
        let mut cfg = test_cfg();
        cfg.calibration_windows = 2;
        cfg.calibration_margin = 1.2;
        let mut sup = PredictorSupervisor::new(cfg, 1);
        sup.install(
            0,
            Box::new(OneLeaf { wcet: 100.0 }),
            Box::new(FixedPredictor { wcet_us: 500.0 }),
        );
        // Healthy online regime sits 10–15 % above the training reference
        // (collocation interference). Calibration raises the reference.
        for _ in 0..2 {
            feed(&mut sup, 0, 115.0, 20);
            sup.end_window(20, 0);
        }
        // The same regime after calibration must not look drifted.
        for _ in 0..5 {
            feed(&mut sup, 0, 115.0, 20);
            sup.end_window(20, 0);
        }
        assert_eq!(sup.lane_state(0), Some(LaneState::Healthy));
        assert_eq!(sup.counters().drift_detections, 0);
    }

    #[test]
    fn structureless_lane_uses_coverage_misses() {
        // MaxObservedPredictor has no leaves; drift shows as coverage
        // misses against the whole-model prediction. Online feed must be
        // off, otherwise the max adapts within the first window.
        let mut cfg = test_cfg();
        cfg.online_feed = false;
        let mut sup = PredictorSupervisor::new(cfg, 1);
        let mut primary = MaxObservedPredictor::default();
        primary.observe(&X, 100.0);
        sup.install(
            0,
            Box::new(primary),
            Box::new(FixedPredictor { wcet_us: 500.0 }),
        );
        feed(&mut sup, 0, 80.0, 20);
        sup.end_window(20, 0); // calibration
        for _ in 0..2 {
            feed(&mut sup, 0, 150.0, 20);
            sup.end_window(20, 0);
        }
        assert_eq!(sup.lane_state(0), Some(LaneState::Quarantined));
        // MaxObservedPredictor cannot refit: it stays on the fallback.
        feed(&mut sup, 0, 150.0, 50);
        sup.end_window(50, 0);
        assert_eq!(sup.lane_state(0), Some(LaneState::Quarantined));
        assert_eq!(sup.counters().retrains, 0);
    }

    #[test]
    fn admission_escalates_and_recovers() {
        let windows = OVERLOAD_WINDOWS;
        let mut sup = PredictorSupervisor::new(test_cfg(), 1);
        assert_eq!(sup.admission(), AdmissionLevel::Normal);
        // Sustained mild overload → Shed.
        for _ in 0..windows {
            sup.end_window(100, 5); // reliability 0.95 < 0.99
        }
        assert_eq!(sup.admission(), AdmissionLevel::Shed);
        // Deep overload continues → Reject.
        for _ in 0..windows {
            sup.end_window(100, 20); // reliability 0.80 < 0.90
        }
        assert_eq!(sup.admission(), AdmissionLevel::Reject);
        sup.note_rejected(7);
        assert_eq!(sup.counters().rejected_dags, 7);
        assert!(sup.counters().shed_windows >= u64::from(windows));
        // One clean window restores Normal.
        sup.end_window(100, 0);
        assert_eq!(sup.admission(), AdmissionLevel::Normal);
    }

    /// Property: `predict_bounds` contains `predict_us` in every serving
    /// state, including the inflated linear fallback that serves while the
    /// lane is Quarantined or in Shadow, on a drifted runtime stream with
    /// residuals from 1e-6 to 1e6 of either sign.
    #[test]
    fn predict_bounds_contain_the_serving_prediction() {
        let mut rng = Rng::new(12);
        let mut features = || {
            let mut x = X;
            x[0] = rng.f64() * 10.0;
            x
        };
        let train: Vec<TrainingSample> = (0..300)
            .map(|i| {
                let x = features();
                TrainingSample {
                    x,
                    runtime_us: 20.0 + 5.0 * x[0] + (i % 7) as f64,
                }
            })
            .collect();
        let fallback =
            InflatedPredictor::new(Box::new(LinearRegression::fit(&train, &[0], 0.99999)), 1.5);
        let mut sup = PredictorSupervisor::new(test_cfg(), 1);
        sup.install(0, Box::new(OneLeaf { wcet: 100.0 }), Box::new(fallback));
        let mut rng = Rng::new(13);
        for window in 0..40 {
            for _ in 0..20 {
                let mut x = X;
                x[0] = rng.f64() * 10.0;
                let runtime = if window == 0 {
                    80.0
                } else {
                    let r = 10f64.powf(rng.range_f64(-6.0, 6.0));
                    200.0 + if rng.chance(0.5) { r } else { -r }
                };
                let (lo, hi) = sup.predict_bounds(0, &x).expect("installed lane");
                let p = sup.predict_us(0, &x).expect("installed lane");
                assert!(
                    lo <= p && p <= hi,
                    "{p} outside [{lo}, {hi}] in window {window}, {:?}",
                    sup.lane_state(0)
                );
                sup.record(0, &x, runtime);
            }
            sup.end_window(20, 0);
        }
        let c = sup.counters();
        assert!(c.quarantines >= 1 && c.retrains >= 1, "{c:?}");
    }

    /// [`OneLeaf`] that also logs the runtimes of every refit it gets.
    struct RefitLog {
        model: OneLeaf,
        refits: Arc<Mutex<Vec<Vec<f64>>>>,
    }

    impl WcetPredictor for RefitLog {
        fn predict_us(&self, x: &FeatureVec) -> f64 {
            self.model.predict_us(x)
        }
        fn observe(&mut self, _x: &FeatureVec, _runtime_us: f64) {}
        fn route(&self, x: &FeatureVec) -> Option<usize> {
            self.model.route(x)
        }
        fn refit(&mut self, samples: &[TrainingSample]) -> bool {
            let runtimes = samples.iter().map(|s| s.runtime_us).collect();
            self.refits.lock().unwrap().push(runtimes);
            self.model.refit(samples)
        }
        fn reference_quantiles(&self, q: f64) -> Vec<f64> {
            self.model.reference_quantiles(q)
        }
    }

    /// One window of `n` distinct runtimes rising from `from`; returns them.
    fn window(sup: &mut PredictorSupervisor, from: f64, n: usize) -> Vec<f64> {
        let runtimes: Vec<f64> = (0..n).map(|i| from + i as f64 * 0.01).collect();
        for &r in &runtimes {
            sup.record(0, &X, r);
        }
        sup.end_window(n as u64, 0);
        runtimes
    }

    #[test]
    fn a_refit_reads_the_samples_since_quarantine_and_no_healthy_one() {
        let refits = Arc::new(Mutex::new(Vec::new()));
        let mut sup = PredictorSupervisor::new(test_cfg(), 1);
        sup.install(
            0,
            Box::new(RefitLog {
                model: OneLeaf { wcet: 100.0 },
                refits: Arc::clone(&refits),
            }),
            Box::new(FixedPredictor { wcet_us: 500.0 }),
        );
        window(&mut sup, 80.0, 20); // calibration
        window(&mut sup, 200.0, 20); // first drifted window
        window(&mut sup, 210.0, 20); // drifted, closes with the quarantine
        assert_eq!(sup.lane_state(0), Some(LaneState::Quarantined));

        let quarantined = window(&mut sup, 300.0, 35);
        assert_eq!(sup.lane_state(0), Some(LaneState::Shadow));
        assert_eq!(*refits.lock().unwrap(), vec![quarantined.clone()]);

        // Above the re-fit maximum: the shadow gate fails.
        let shadow = window(&mut sup, 400.0, 20);
        assert_eq!(sup.lane_state(0), Some(LaneState::Quarantined));
        assert_eq!(sup.counters().shadow_rejections, 1);
        assert_eq!(sup.generation(0), 1); // no swap on a failed gate
        let requarantined = window(&mut sup, 410.0, 20);
        assert_eq!(sup.lane_state(0), Some(LaneState::Shadow));
        let second = [quarantined, shadow, requarantined].concat();
        assert_eq!(refits.lock().unwrap()[1], second);

        // Readmission, then a second drift: only the samples since the
        // second quarantine reach the third refit.
        window(&mut sup, 300.0, 20);
        window(&mut sup, 300.0, 20);
        assert_eq!(sup.lane_state(0), Some(LaneState::Healthy));
        window(&mut sup, 500.0, 20);
        window(&mut sup, 510.0, 20);
        assert_eq!(sup.lane_state(0), Some(LaneState::Quarantined));
        let third = window(&mut sup, 600.0, 35);
        assert_eq!(sup.counters().retrains, 3);
        assert_eq!(refits.lock().unwrap()[2], third);
    }

    #[test]
    fn empty_windows_never_trip_anything() {
        let mut sup = PredictorSupervisor::new(test_cfg(), 1);
        sup.install(
            0,
            Box::new(OneLeaf { wcet: 100.0 }),
            Box::new(FixedPredictor { wcet_us: 500.0 }),
        );
        for _ in 0..20 {
            sup.end_window(0, 0);
        }
        assert_eq!(sup.lane_state(0), Some(LaneState::Healthy));
        assert_eq!(sup.admission(), AdmissionLevel::Normal);
        assert_eq!(sup.counters().windows, 20);
        assert_eq!(sup.counters().drift_detections, 0);
    }
}
