//! Linear-regression WCET baseline (§6.4, Fig. 14).
//!
//! Ordinary least squares on the selected features plus an intercept, with
//! a probabilistic upper bound: the prediction is the regression mean plus
//! the `0.99999` quantile of the training residuals. Like the quantile
//! decision tree, the baseline adapts online — a ring buffer of recent
//! residuals replaces the offline residual quantile (the paper: "we also
//! adapted the models to take into account the online runtime samples").
//! The `residual` module keeps that bound cheap to read between
//! observations.
//!
//! The paper's finding, which this implementation reproduces: the linear
//! model misses far more deadlines than the tree models because task
//! runtimes are *not* linear in several inputs (§4.1).

use crate::api::{TrainingSample, WcetPredictor};
use crate::residual::{ResidualBound, RESIDUAL_BUFFER};
use concordia_ran::features::FeatureVec;
use concordia_stats::linalg::{least_squares, Matrix};

/// Linear-regression WCET predictor with residual-quantile upper bounding.
pub struct LinearRegression {
    feats: Vec<usize>,
    /// `weights[0]` is the intercept; `weights[1..]` align with `feats`.
    weights: Vec<f64>,
    /// Recent residuals (actual − mean prediction) and their upper bound.
    residuals: ResidualBound,
}

impl LinearRegression {
    /// Fits OLS on the samples restricted to `feats`, with the upper bound
    /// at the given confidence (the paper uses 0.99999).
    pub fn fit(samples: &[TrainingSample], feats: &[usize], confidence: f64) -> Self {
        assert!(!samples.is_empty());
        assert!((0.0..1.0).contains(&confidence) && confidence > 0.0);
        let n = samples.len();
        let p = feats.len() + 1;
        let mut data = Vec::with_capacity(n * p);
        let mut y = Vec::with_capacity(n);
        for s in samples {
            data.push(1.0);
            for &f in feats {
                data.push(s.x[f]);
            }
            y.push(s.runtime_us);
        }
        let x = Matrix::from_rows(n, p, &data);
        let weights = least_squares(&x, &y, 1e-6).expect("ridge-regularized OLS is solvable");

        let mut lr = LinearRegression {
            feats: feats.to_vec(),
            weights,
            residuals: ResidualBound::new(confidence),
        };
        // Seed the residual buffer from the training set (most recent last).
        let start = samples.len().saturating_sub(RESIDUAL_BUFFER);
        for s in &samples[start..] {
            let r = s.runtime_us - lr.mean_us(&s.x);
            lr.residuals.push(r);
        }
        lr
    }

    /// The regression mean (no upper bounding).
    pub fn mean_us(&self, x: &FeatureVec) -> f64 {
        let mut v = self.weights[0];
        for (w, &f) in self.weights[1..].iter().zip(&self.feats) {
            v += w * x[f];
        }
        v
    }
}

impl WcetPredictor for LinearRegression {
    fn predict_us(&self, x: &FeatureVec) -> f64 {
        self.residuals.predict(self.mean_us(x))
    }

    fn predict_bounds(&self, x: &FeatureVec) -> (f64, f64) {
        self.residuals.predict_bounds(self.mean_us(x))
    }

    fn observe(&mut self, x: &FeatureVec, runtime_us: f64) {
        let r = runtime_us - self.mean_us(x);
        self.residuals.push(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::InflatedPredictor;
    use concordia_ran::features::NUM_FEATURES;
    use concordia_stats::rng::Rng;

    fn fv(v0: f64) -> FeatureVec {
        let mut x = [0.0; NUM_FEATURES];
        x[0] = v0;
        x
    }

    fn linear_samples(n: usize, seed: u64) -> Vec<TrainingSample> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| {
                let v = rng.f64() * 15.0;
                TrainingSample {
                    x: fv(v),
                    runtime_us: 10.0 + 30.0 * v + rng.normal() * 2.0,
                }
            })
            .collect()
    }

    #[test]
    fn recovers_linear_relationship() {
        let samples = linear_samples(5_000, 1);
        let lr = LinearRegression::fit(&samples, &[0], 0.999);
        assert!((lr.mean_us(&fv(0.0)) - 10.0).abs() < 1.0);
        assert!((lr.mean_us(&fv(10.0)) - 310.0).abs() < 3.0);
    }

    #[test]
    fn upper_bound_covers_linear_data() {
        let samples = linear_samples(20_000, 2);
        let lr = LinearRegression::fit(&samples, &[0], 0.9999);
        let mut rng = Rng::new(3);
        let mut misses = 0;
        for _ in 0..10_000 {
            let v = rng.f64() * 15.0;
            let actual = 10.0 + 30.0 * v + rng.normal() * 2.0;
            if actual > lr.predict_us(&fv(v)) {
                misses += 1;
            }
        }
        assert!(misses < 30, "misses {misses}");
    }

    #[test]
    fn fails_on_nonlinear_data() {
        // Quadratic runtime: the linear fit underestimates the extremes —
        // the §4.1/Fig. 14 story for why Concordia uses a tree.
        let mut rng = Rng::new(4);
        let samples: Vec<TrainingSample> = (0..20_000)
            .map(|_| {
                let v = rng.f64() * 10.0;
                TrainingSample {
                    x: fv(v),
                    runtime_us: 5.0 * v * v + rng.normal().abs(),
                }
            })
            .collect();
        let lr = LinearRegression::fit(&samples, &[0], 0.999);
        // At the top of the range the true runtime is 500; the linear mean
        // underestimates badly and even the residual bound stays tight to
        // the *typical* error, so relative error at the extreme is large.
        let pred = lr.predict_us(&fv(10.0));
        let err = (500.0 - lr.mean_us(&fv(10.0))).abs();
        assert!(err > 50.0, "linear mean should be biased, err {err}");
        // The bound still covers it only by being pessimistic elsewhere.
        let pred_small = lr.predict_us(&fv(0.5));
        assert!(
            pred_small > 5.0 * 0.25 * 10.0,
            "small-input prediction {pred_small} must be very pessimistic"
        );
        let _ = pred;
    }

    #[test]
    fn online_observation_widens_bound_under_interference() {
        let samples = linear_samples(10_000, 5);
        let mut lr = LinearRegression::fit(&samples, &[0], 0.999);
        let before = lr.predict_us(&fv(5.0));
        let mut rng = Rng::new(6);
        for _ in 0..8_000 {
            let v = rng.f64() * 15.0;
            let inflated = (10.0 + 30.0 * v) * 1.4 + rng.normal() * 2.0;
            lr.observe(&fv(v), inflated);
        }
        let after = lr.predict_us(&fv(5.0));
        assert!(after > before + 20.0, "before {before} after {after}");
    }

    /// Property: after any interleaving of predictions and observations,
    /// from two training samples to a full residual ring, `predict_us`
    /// equals a prediction from a fresh residual scan.
    #[test]
    fn memoized_predictions_equal_a_fresh_scan() {
        let mut rng = Rng::new(8);
        let mut lr = LinearRegression::fit(&linear_samples(2, 9), &[0], 0.99999);
        for _ in 0..3 * RESIDUAL_BUFFER {
            let x = fv(rng.f64() * 15.0);
            if rng.chance(0.3) {
                let fresh = (lr.mean_us(&x) + lr.residuals.scan()).max(0.0);
                assert_eq!(lr.predict_us(&x).to_bits(), fresh.to_bits());
            } else {
                lr.observe(&x, 10.0 + 30.0 * x[0] + rng.normal() * 5.0);
            }
        }
    }

    /// Property: `predict_bounds` contains `predict_us`, bare and inflated,
    /// on adversarial observation streams: residuals from 1e-6 to 1e6 with
    /// random signs, constant runs, two training samples to a full ring,
    /// and a confidence below 0.5.
    #[test]
    fn predict_bounds_contain_the_prediction() {
        let mut rng = Rng::new(10);
        for &confidence in &[0.99999, 0.2] {
            let lr = LinearRegression::fit(&linear_samples(2, 11), &[0], confidence);
            let mut inflated = InflatedPredictor::new(Box::new(lr), 1.5);
            for i in 0..RESIDUAL_BUFFER + 1_500 {
                let x = fv(rng.f64() * 15.0);
                let runtime = if i % 1_000 < 100 {
                    42.0
                } else {
                    let r = 10f64.powf(rng.range_f64(-6.0, 6.0));
                    10.0 + 30.0 * x[0] + if rng.chance(0.5) { r } else { -r }
                };
                inflated.observe(&x, runtime);
                if i < 30 || i % 37 == 0 {
                    let (lo, hi) = inflated.predict_bounds(&x);
                    let p = inflated.predict_us(&x);
                    assert!(lo <= p && p <= hi, "{p} outside [{lo}, {hi}] at {i}");
                    assert_eq!(inflated.predict_bounds(&x), (p, p), "memo unused");
                }
            }
        }
    }

    #[test]
    fn collinear_features_do_not_crash() {
        // Feature 16 = bits * layers can be collinear with bits when layers
        // is constant; ridge regularization must keep the fit solvable.
        let mut rng = Rng::new(7);
        let samples: Vec<TrainingSample> = (0..2_000)
            .map(|_| {
                let v = rng.f64() * 10.0;
                let mut x = [0.0; NUM_FEATURES];
                x[0] = v;
                x[1] = v; // exact copy
                TrainingSample {
                    x,
                    runtime_us: 3.0 * v + 1.0,
                }
            })
            .collect();
        let lr = LinearRegression::fit(&samples, &[0, 1], 0.99);
        let pred = lr.mean_us(&{
            let mut x = [0.0; NUM_FEATURES];
            x[0] = 4.0;
            x[1] = 4.0;
            x
        });
        assert!((pred - 13.0).abs() < 0.5, "pred {pred}");
    }
}
