//! Gradient-boosted-trees WCET baseline (§6.4, Fig. 14).
//!
//! A standard least-squares gradient-boosting ensemble of shallow CART
//! trees predicts the runtime mean; the WCET upper bound adds the
//! `confidence` quantile of the (online-updated) residuals, mirroring the
//! linear baseline so the comparison isolates the *mean model* quality.
//!
//! The paper's finding: GBT matches the quantile decision tree on deadline
//! misses but has a larger average prediction error (Fig. 14b), i.e. it is
//! more pessimistic where it succeeds — which costs reclaimed CPU.

use crate::api::{TrainingSample, WcetPredictor};
use crate::residual::{ResidualBound, RESIDUAL_BUFFER};
use crate::tree::{Presort, Tree, TreeConfig};
use concordia_ran::features::FeatureVec;

/// Boosting rounds of [`GradientBoosting::fit`].
const ROUNDS: usize = 40;
/// Learning rate (shrinkage).
const LEARNING_RATE: f64 = 0.15;
/// Per-round tree shape.
const STAGE_TREE: TreeConfig = TreeConfig {
    max_depth: 3,
    min_leaf: 30,
    n_thresholds: 12,
};

/// One boosted stage: a tree structure plus its leaf values.
struct Stage {
    tree: Tree,
    leaf_values: Vec<f64>,
}

/// Gradient-boosted regression with residual-quantile upper bounding.
pub struct GradientBoosting {
    feats: Vec<usize>,
    base: f64,
    stages: Vec<Stage>,
    /// Recent residuals (actual − mean prediction) and their upper bound.
    residuals: ResidualBound,
}

impl GradientBoosting {
    /// Fits the ensemble on `samples` restricted to `feats`.
    pub fn fit(samples: &[TrainingSample], feats: &[usize], confidence: f64) -> Self {
        Self::fit_rounds(samples, feats, confidence, ROUNDS)
    }

    /// [`GradientBoosting::fit`] with at most `rounds` boosting rounds.
    pub(crate) fn fit_rounds(
        samples: &[TrainingSample],
        feats: &[usize],
        confidence: f64,
        rounds: usize,
    ) -> Self {
        assert!(!samples.is_empty());
        let xs: Vec<FeatureVec> = samples.iter().map(|s| s.x).collect();
        let ys: Vec<f64> = samples.iter().map(|s| s.runtime_us).collect();
        let base = ys.iter().sum::<f64>() / ys.len() as f64;
        // Every round fits the same `xs`; only the targets change.
        let presort = Presort::new(&xs, feats);

        let mut pred = vec![base; ys.len()];
        let mut stages = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            // Least-squares gradients are plain residuals.
            let resid: Vec<f64> = ys.iter().zip(&pred).map(|(y, p)| y - p).collect();
            let (tree, leaf_samples) =
                Tree::fit_presorted(&xs, &resid, feats, &STAGE_TREE, &presort);
            if tree.n_leaves() <= 1 {
                break; // residuals exhausted
            }
            let leaf_values: Vec<f64> = leaf_samples
                .iter()
                .map(|idxs| idxs.iter().map(|&i| resid[i]).sum::<f64>() / idxs.len().max(1) as f64)
                .collect();
            for (i, x) in xs.iter().enumerate() {
                pred[i] += LEARNING_RATE * leaf_values[tree.leaf_of(x)];
            }
            stages.push(Stage { tree, leaf_values });
        }

        let mut gbt = GradientBoosting {
            feats: feats.to_vec(),
            base,
            stages,
            residuals: ResidualBound::new(confidence),
        };
        let start = samples.len().saturating_sub(RESIDUAL_BUFFER);
        for s in &samples[start..] {
            let r = s.runtime_us - gbt.mean_us(&s.x);
            gbt.residuals.push(r);
        }
        gbt
    }

    /// The ensemble mean prediction.
    pub fn mean_us(&self, x: &FeatureVec) -> f64 {
        let mut v = self.base;
        for s in &self.stages {
            v += LEARNING_RATE * s.leaf_values[s.tree.leaf_of(x)];
        }
        v
    }

    /// Number of fitted boosting stages.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Features used (for introspection).
    pub fn features(&self) -> &[usize] {
        &self.feats
    }
}

impl WcetPredictor for GradientBoosting {
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
    use concordia_ran::features::NUM_FEATURES;
    use concordia_stats::rng::Rng;

    fn fv(v0: f64) -> FeatureVec {
        let mut x = [0.0; NUM_FEATURES];
        x[0] = v0;
        x
    }

    #[test]
    fn learns_nonlinear_relationship() {
        // y = 5 v^2: a linear model cannot track this; boosting can.
        let mut rng = Rng::new(1);
        let samples: Vec<TrainingSample> = (0..8_000)
            .map(|_| {
                let v = rng.f64() * 10.0;
                TrainingSample {
                    x: fv(v),
                    runtime_us: 5.0 * v * v + rng.normal(),
                }
            })
            .collect();
        let gbt = GradientBoosting::fit(&samples, &[0], 0.999);
        for v in [1.0, 5.0, 9.0] {
            let truth = 5.0 * v * v;
            let mean = gbt.mean_us(&fv(v));
            assert!(
                (mean - truth).abs() < truth.max(20.0) * 0.25,
                "v={v}: mean {mean} truth {truth}"
            );
        }
    }

    #[test]
    fn boosting_improves_over_single_stage() {
        let mut rng = Rng::new(2);
        let samples: Vec<TrainingSample> = (0..5_000)
            .map(|_| {
                let v = rng.f64() * 10.0;
                TrainingSample {
                    x: fv(v),
                    runtime_us: 30.0 * v + rng.normal(),
                }
            })
            .collect();
        let mae = |rounds| {
            let g = GradientBoosting::fit_rounds(&samples, &[0], 0.999, rounds);
            samples
                .iter()
                .map(|s| (g.mean_us(&s.x) - s.runtime_us).abs())
                .sum::<f64>()
                / samples.len() as f64
        };
        let one = mae(1);
        let forty = mae(40);
        assert!(forty < one * 0.5, "1 round {one} vs 40 rounds {forty}");
    }

    #[test]
    fn upper_bound_covers_and_online_adapts() {
        let mut rng = Rng::new(3);
        let gen = |rng: &mut Rng, scale: f64| {
            let v = rng.f64() * 10.0;
            (v, (10.0 + 20.0 * v) * scale * rng.lognormal(0.0, 0.05))
        };
        let samples: Vec<TrainingSample> = (0..10_000)
            .map(|_| {
                let (v, y) = gen(&mut rng, 1.0);
                TrainingSample {
                    x: fv(v),
                    runtime_us: y,
                }
            })
            .collect();
        let mut gbt = GradientBoosting::fit(&samples, &[0], 0.9999);
        let mut misses = 0;
        for _ in 0..5_000 {
            let (v, y) = gen(&mut rng, 1.0);
            if y > gbt.predict_us(&fv(v)) {
                misses += 1;
            }
        }
        assert!(misses < 20, "isolated misses {misses}");
        // Interference regime: observe, then re-check coverage.
        for _ in 0..8_000 {
            let (v, y) = gen(&mut rng, 1.3);
            gbt.observe(&fv(v), y);
        }
        let mut misses2 = 0;
        for _ in 0..5_000 {
            let (v, y) = gen(&mut rng, 1.3);
            if y > gbt.predict_us(&fv(v)) {
                misses2 += 1;
            }
        }
        assert!(misses2 < 40, "interfered misses {misses2}");
    }

    #[test]
    fn constant_target_uses_base_only() {
        let samples: Vec<TrainingSample> = (0..500)
            .map(|i| TrainingSample {
                x: fv(i as f64),
                runtime_us: 12.0,
            })
            .collect();
        let gbt = GradientBoosting::fit(&samples, &[0], 0.99);
        assert_eq!(gbt.n_stages(), 0);
        assert!((gbt.mean_us(&fv(3.0)) - 12.0).abs() < 1e-9);
    }
}
