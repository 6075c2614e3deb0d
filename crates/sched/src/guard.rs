//! Misprediction guardrail.
//!
//! The federated allocation (§3) is only as good as its WCET predictions.
//! A predictor that develops a *systematic* underestimate — a quantile
//! model fed by a corrupted profiling bank, or traffic drifting beyond the
//! calibrated range — starves every DAG a little, and the critical stage
//! ends up doing the predictor's job at full-pool cost. The guard watches
//! the prediction error stream and, after `threshold` *consecutive*
//! underestimates, starts inflating subsequent predictions. The inflation
//! grows geometrically while the streak continues and decays back toward
//! 1.0 once the predictor recovers, so a healthy predictor pays nothing.

/// Multiplicative step applied per underestimate once engaged.
const GROWTH: f64 = 1.2;
/// Hard cap on the inflation factor.
const CAP: f64 = 4.0;
/// Per-overestimate decay of the excess inflation toward 1.0.
const DECAY: f64 = 0.9;

/// Watches prediction errors; inflates predictions after a run of
/// consecutive underestimates.
#[derive(Debug, Clone)]
pub struct MispredictionGuard {
    /// Consecutive underestimates before inflation engages.
    threshold: u32,
    streak: u32,
    inflation: f64,
}

impl Default for MispredictionGuard {
    fn default() -> Self {
        MispredictionGuard::new(8)
    }
}

impl MispredictionGuard {
    /// Guard tripping after `threshold` consecutive underestimates.
    pub fn new(threshold: u32) -> Self {
        MispredictionGuard {
            threshold: threshold.max(1),
            streak: 0,
            inflation: 1.0,
        }
    }

    /// Feeds one (predicted, actual) runtime pair, in any common unit.
    pub fn observe(&mut self, predicted_us: f64, actual_us: f64) {
        self.observe_outcome(actual_us > predicted_us);
    }

    /// Feeds one comparison's outcome: `true` when the actual runtime
    /// exceeded the prediction. The guard needs no more than this, so a
    /// caller may decide it without the exact prediction.
    pub fn observe_outcome(&mut self, underestimated: bool) {
        if underestimated {
            self.streak += 1;
            if self.streak >= self.threshold {
                self.inflation = (self.inflation * GROWTH).min(CAP);
            }
        } else {
            self.streak = 0;
            // Excess inflation decays geometrically; snap once negligible.
            self.inflation = 1.0 + (self.inflation - 1.0) * DECAY;
            if self.inflation < 1.001 {
                self.inflation = 1.0;
            }
        }
    }

    /// Current inflation factor (1.0 = guard disengaged).
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    /// Consecutive underestimates seen so far.
    pub fn streak(&self) -> u32 {
        self.streak
    }

    /// Drops all accumulated state: streak and inflation return to their
    /// disengaged values. Called when the predictor control plane swaps in
    /// a retrained model — the new model must not inherit inflation earned
    /// by its drifted predecessor.
    pub fn reset(&mut self) {
        self.streak = 0;
        self.inflation = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_predictor_pays_nothing() {
        let mut g = MispredictionGuard::new(4);
        for _ in 0..100 {
            g.observe(120.0, 100.0);
        }
        assert_eq!(g.inflation(), 1.0);
    }

    #[test]
    fn isolated_underestimates_do_not_trip() {
        let mut g = MispredictionGuard::new(4);
        for _ in 0..50 {
            g.observe(100.0, 110.0); // under
            g.observe(100.0, 90.0); // over resets the streak
        }
        assert_eq!(g.inflation(), 1.0);
    }

    #[test]
    fn consecutive_underestimates_engage_inflation() {
        let mut g = MispredictionGuard::new(4);
        for _ in 0..3 {
            g.observe(100.0, 150.0);
        }
        assert_eq!(g.inflation(), 1.0, "below threshold");
        g.observe(100.0, 150.0);
        assert!(g.inflation() > 1.0, "threshold reached");
        let engaged = g.inflation();
        g.observe(100.0, 150.0);
        assert!(g.inflation() > engaged, "keeps growing while streak lasts");
    }

    #[test]
    fn inflation_is_capped() {
        let mut g = MispredictionGuard::new(1);
        for _ in 0..200 {
            g.observe(100.0, 150.0);
        }
        assert!(g.inflation() <= 4.0);
        assert!(g.inflation() > 3.9);
    }

    #[test]
    fn recovery_decays_back_to_one() {
        let mut g = MispredictionGuard::new(2);
        for _ in 0..10 {
            g.observe(100.0, 150.0);
        }
        assert!(g.inflation() > 1.0);
        for _ in 0..200 {
            g.observe(150.0, 100.0);
        }
        assert_eq!(g.inflation(), 1.0);
        assert_eq!(g.streak(), 0);
    }

    #[test]
    fn reset_clears_streak_and_inflation() {
        let mut g = MispredictionGuard::new(2);
        for _ in 0..20 {
            g.observe(100.0, 300.0);
        }
        assert!(g.inflation() > 1.0);
        assert!(g.streak() > 0);
        g.reset();
        assert_eq!(g.inflation(), 1.0);
        assert_eq!(g.streak(), 0);
        // Post-reset behavior matches a fresh guard: no residual memory.
        g.observe(100.0, 150.0);
        assert_eq!(g.inflation(), 1.0);
    }

    /// Property: `observe` is `observe_outcome` of the comparison, on
    /// random error streams long enough to engage, cap and decay.
    #[test]
    fn observe_is_observe_outcome_of_the_comparison() {
        let mut rng = concordia_stats::rng::Rng::new(3);
        let mut a = MispredictionGuard::new(3);
        let mut b = MispredictionGuard::new(3);
        for i in 0..5_000 {
            // Long runs of one sign, so the streak crosses the threshold.
            let under_bias = if (i / 40) % 2 == 0 { 0.9 } else { 0.1 };
            let predicted = 100.0 * rng.f64();
            let actual = if rng.chance(under_bias) {
                predicted + rng.f64()
            } else {
                predicted - rng.f64()
            };
            a.observe(predicted, actual);
            b.observe_outcome(actual > predicted);
            assert_eq!(a.inflation().to_bits(), b.inflation().to_bits());
            assert_eq!(a.streak(), b.streak());
        }
    }
}
