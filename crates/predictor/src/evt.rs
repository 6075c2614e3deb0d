//! Conventional single-value probabilistic WCET (pWCET) baseline — §6.3.
//!
//! Implements the measurement-based probabilistic timing-analysis recipe of
//! Cucu-Grosjean et al. [23]: fit an extreme-value (Gumbel) distribution to
//! block maxima of observed runtimes and take the quantile at the required
//! confidence (the paper uses 0.99999). One value per task, *regardless of
//! input* — which is exactly why it is pessimistic for small inputs
//! (Fig. 13: up to 20 % fewer reclaimed CPU cycles than Concordia).
//!
//! The baseline also adapts online: a ring of recent runtimes is refitted
//! periodically, so it competes fairly with Concordia's online phase.

use crate::api::{TrainingSample, WcetPredictor};
use concordia_ran::features::FeatureVec;
use concordia_stats::evt::GumbelFit;
use concordia_stats::ring::MaxRingBuffer;

/// Observation window for the online refit.
const ONLINE_BUFFER: usize = 10_000;
/// Observations between online refits.
const REFIT_EVERY: u64 = 1_000;

/// Single-value pWCET predictor via Gumbel block maxima.
pub struct PwcetEvt {
    wcet_us: f64,
    confidence: f64,
    block: usize,
    window: MaxRingBuffer,
    since_refit: u64,
}

impl PwcetEvt {
    /// Fits from offline samples at the given confidence (e.g. 0.99999)
    /// using block maxima of `block` consecutive observations.
    pub fn fit(samples: &[TrainingSample], confidence: f64, block: usize) -> Self {
        assert!(!samples.is_empty());
        let runtimes: Vec<f64> = samples.iter().map(|s| s.runtime_us).collect();
        let wcet_us = Self::estimate(&runtimes, confidence, block);
        let mut window = MaxRingBuffer::new(ONLINE_BUFFER);
        let start = runtimes.len().saturating_sub(ONLINE_BUFFER);
        for &r in &runtimes[start..] {
            window.push(r);
        }
        PwcetEvt {
            wcet_us,
            confidence,
            block,
            window,
            since_refit: 0,
        }
    }

    /// The pWCET estimate for a runtime sample: Gumbel block-maxima
    /// quantile, floored at the empirical maximum (a pWCET below an already
    /// observed runtime would be unsound).
    fn estimate(runtimes: &[f64], confidence: f64, block: usize) -> f64 {
        let emp_max = runtimes.iter().cloned().fold(0.0, f64::max);
        match GumbelFit::from_block_maxima(runtimes, block) {
            Some(fit) => fit.quantile(confidence).max(emp_max),
            None => emp_max,
        }
    }

    /// Current single-value estimate (µs).
    pub fn wcet_us(&self) -> f64 {
        self.wcet_us
    }
}

impl WcetPredictor for PwcetEvt {
    fn predict_us(&self, _x: &FeatureVec) -> f64 {
        self.wcet_us
    }

    fn observe(&mut self, _x: &FeatureVec, runtime_us: f64) {
        self.window.push(runtime_us);
        self.since_refit += 1;
        if self.since_refit >= REFIT_EVERY {
            self.since_refit = 0;
            self.wcet_us = Self::estimate(self.window.samples(), self.confidence, self.block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concordia_ran::features::NUM_FEATURES;
    use concordia_stats::rng::Rng;

    const X: FeatureVec = [0.0; NUM_FEATURES];

    fn varied_samples(n: usize, seed: u64) -> Vec<TrainingSample> {
        // Decode-like: runtime spans 40..500 µs depending on input size —
        // but pWCET ignores the input.
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| {
                let cbs = rng.range_u64(1, 16) as f64;
                TrainingSample {
                    x: X,
                    runtime_us: (10.0 + 30.0 * cbs) * rng.lognormal(0.0, 0.05),
                }
            })
            .collect()
    }

    #[test]
    fn prediction_ignores_input() {
        let p = PwcetEvt::fit(&varied_samples(10_000, 1), 0.99999, 50);
        let mut x2 = X;
        x2[0] = 123.0;
        assert_eq!(p.predict_us(&X), p.predict_us(&x2));
    }

    #[test]
    fn covers_the_empirical_maximum() {
        let samples = varied_samples(10_000, 2);
        let emp_max = samples.iter().map(|s| s.runtime_us).fold(0.0, f64::max);
        let p = PwcetEvt::fit(&samples, 0.99999, 50);
        assert!(p.wcet_us() >= emp_max);
    }

    #[test]
    fn pessimistic_for_small_inputs() {
        // The Fig. 13 effect: a 1-codeblock task runs ~40 µs but the
        // single-value pWCET sits above the 15-codeblock worst case.
        let p = PwcetEvt::fit(&varied_samples(20_000, 3), 0.99999, 50);
        assert!(
            p.wcet_us() > 450.0,
            "pWCET {} must be sized for the worst input",
            p.wcet_us()
        );
    }

    #[test]
    fn online_refit_adapts_upward() {
        let mut p = PwcetEvt::fit(&varied_samples(10_000, 4), 0.99999, 50);
        let before = p.wcet_us();
        let mut rng = Rng::new(5);
        for _ in 0..12_000 {
            let cbs = rng.range_u64(1, 16) as f64;
            p.observe(&X, (10.0 + 30.0 * cbs) * 1.4 * rng.lognormal(0.0, 0.05));
        }
        assert!(
            p.wcet_us() > before * 1.1,
            "before {before} after {}",
            p.wcet_us()
        );
    }

    #[test]
    fn degenerate_constant_samples_fall_back_to_max() {
        let samples: Vec<TrainingSample> = (0..100)
            .map(|_| TrainingSample {
                x: X,
                runtime_us: 42.0,
            })
            .collect();
        let p = PwcetEvt::fit(&samples, 0.99999, 10);
        assert_eq!(p.wcet_us(), 42.0);
    }
}
