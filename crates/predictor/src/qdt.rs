//! The quantile decision tree — the paper's WCET predictor (§4.2,
//! Algorithms 1 & 2).
//!
//! Offline, a CART tree is fitted to profiling samples so that leaves have
//! minimal runtime variance; each leaf holds a ring buffer (5 000 entries
//! in the reference implementation) seeded with the offline samples.
//! Online, observed runtimes replace the buffer contents *without changing
//! the tree structure* — the Fig. 7 observation that the offline grouping
//! stays valid under interference, only the within-leaf distribution
//! shifts. Prediction is the maximum over the leaf's buffer.

use crate::api::{TrainingSample, WcetPredictor};
use crate::tree::{Tree, TreeConfig};
use concordia_ran::features::FeatureVec;
use concordia_stats::ring::MaxRingBuffer;

/// Leaf ring-buffer capacity (§5: "ring buffers of the leaf nodes having
/// 5K entries").
pub const LEAF_BUFFER_CAPACITY: usize = 5_000;

/// Which statistic of the leaf buffer becomes the WCET prediction.
/// The paper uses the maximum; the quantile variant exists for the
/// leaf-statistic ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LeafStatistic {
    /// `max(B_i)` — Algorithm 2.
    Max,
    /// An upper quantile of `B_i` (e.g. 0.999).
    Quantile(f64),
}

/// Quantile-decision-tree WCET predictor for one task kind.
pub struct QuantileDecisionTree {
    tree: Tree,
    leaves: Vec<MaxRingBuffer>,
    stat: LeafStatistic,
    /// Fallback prediction for leaves that lost all their samples (never
    /// happens in practice — buffers are seeded offline — but the predictor
    /// must stay total).
    fallback_us: f64,
}

impl QuantileDecisionTree {
    /// Fits the tree offline on profiling samples restricted to the feature
    /// subset `feats` (the output of Algorithm 1), then seeds every leaf
    /// buffer with its training samples.
    pub fn fit(samples: &[TrainingSample], feats: &[usize], cfg: &TreeConfig) -> Self {
        Self::fit_with(samples, feats, cfg, LeafStatistic::Max)
    }

    /// [`QuantileDecisionTree::fit`] with an explicit leaf statistic (for
    /// ablations).
    pub fn fit_with(
        samples: &[TrainingSample],
        feats: &[usize],
        cfg: &TreeConfig,
        stat: LeafStatistic,
    ) -> Self {
        assert!(!samples.is_empty(), "offline phase needs samples");
        let xs: Vec<FeatureVec> = samples.iter().map(|s| s.x).collect();
        let ys: Vec<f64> = samples.iter().map(|s| s.runtime_us).collect();
        let (tree, leaf_samples) = Tree::fit(&xs, &ys, feats, cfg);
        let global_max = ys.iter().cloned().fold(0.0, f64::max);
        let leaves = leaf_samples
            .iter()
            .map(|idxs| {
                let mut rb = MaxRingBuffer::new(LEAF_BUFFER_CAPACITY);
                for &i in idxs {
                    rb.push(ys[i]);
                }
                rb
            })
            .collect();
        QuantileDecisionTree {
            tree,
            leaves,
            stat,
            fallback_us: global_max,
        }
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Leaf id a feature vector routes to (exposed for the Fig. 7
    /// leaf-distribution analysis).
    pub fn leaf_of(&self, x: &FeatureVec) -> usize {
        self.tree.leaf_of(x)
    }

    /// Read-only view of a leaf's current samples.
    pub fn leaf_samples(&self, leaf: usize) -> &[f64] {
        self.leaves[leaf].samples()
    }

    fn leaf_stat(&self, leaf: usize) -> f64 {
        let rb = &self.leaves[leaf];
        let v = match self.stat {
            LeafStatistic::Max => rb.max(),
            LeafStatistic::Quantile(q) => rb.quantile(q),
        };
        v.unwrap_or(self.fallback_us)
    }

    /// Upper quantile of a leaf's current samples (the fallback value for
    /// a drained leaf). Snapshotted at training time by the predictor
    /// control plane as the per-leaf drift reference.
    pub fn leaf_quantile(&self, leaf: usize, q: f64) -> f64 {
        self.leaves[leaf].quantile(q).unwrap_or(self.fallback_us)
    }

    /// Rebuilds every leaf buffer from `samples`, routing each through the
    /// *frozen* tree — the online-retraining step of the control plane:
    /// structure from the offline fit, statistics from the replay buffer.
    /// Leaves the replay never visited keep nothing and answer with the
    /// (raised) fallback, so the re-fitted tree stays total and
    /// conservative where it has no fresh evidence. Returns the number of
    /// leaves that received at least one sample.
    pub fn refit_leaves(&mut self, samples: &[TrainingSample]) -> usize {
        for l in &mut self.leaves {
            l.clear();
        }
        let mut max = 0.0f64;
        for s in samples {
            let leaf = self.tree.leaf_of(&s.x);
            self.leaves[leaf].push(s.runtime_us);
            max = max.max(s.runtime_us);
        }
        // The fallback only ever ratchets up: an empty leaf must cover the
        // worst runtime seen in either regime.
        self.fallback_us = self.fallback_us.max(max);
        self.leaves.iter().filter(|l| !l.is_empty()).count()
    }
}

impl WcetPredictor for QuantileDecisionTree {
    fn predict_us(&self, x: &FeatureVec) -> f64 {
        self.leaf_stat(self.tree.leaf_of(x))
    }

    fn observe(&mut self, x: &FeatureVec, runtime_us: f64) {
        let leaf = self.tree.leaf_of(x);
        self.leaves[leaf].push(runtime_us);
    }

    fn route(&self, x: &FeatureVec) -> Option<usize> {
        Some(self.tree.leaf_of(x))
    }

    fn refit(&mut self, samples: &[TrainingSample]) -> bool {
        if samples.is_empty() {
            return false;
        }
        self.refit_leaves(samples);
        true
    }

    fn reference_quantiles(&self, q: f64) -> Vec<f64> {
        (0..self.leaves.len())
            .map(|l| self.leaf_quantile(l, q))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concordia_ran::features::NUM_FEATURES;
    use concordia_stats::rng::Rng;

    fn fv(v0: f64, v1: f64) -> FeatureVec {
        let mut x = [0.0; NUM_FEATURES];
        x[0] = v0;
        x[1] = v1;
        x
    }

    /// Synthetic decode-like workload: runtime = 30*x0 + noise, where x0
    /// plays the codeblock-count role.
    fn synthetic(n: usize, seed: u64) -> Vec<TrainingSample> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| {
                let cbs = rng.range_u64(1, 16) as f64;
                let noise = rng.lognormal(0.0, 0.05);
                TrainingSample {
                    x: fv(cbs, rng.f64()),
                    runtime_us: (10.0 + 30.0 * cbs) * noise,
                }
            })
            .collect()
    }

    #[test]
    fn parameterized_prediction_tracks_input_size() {
        let samples = synthetic(20_000, 1);
        let qdt = QuantileDecisionTree::fit(&samples, &[0, 1], &TreeConfig::default());
        let small = qdt.predict_us(&fv(2.0, 0.5));
        let large = qdt.predict_us(&fv(14.0, 0.5));
        assert!(
            large > 3.0 * small,
            "prediction must grow with input size: {small} vs {large}"
        );
    }

    #[test]
    fn split_boundary_value_routes_with_the_left_leaf() {
        // Two clean clusters at x0 = 2 and x0 = 8: the fitter cuts between
        // the adjacent distinct values, so the threshold is their midpoint,
        // x0 <= 5 — and the tree's convention is that the boundary value
        // itself goes LEFT. A feature vector exactly on the threshold must
        // therefore predict the small cluster, and anything above it (by
        // however little) the large one.
        let samples: Vec<TrainingSample> = (0..200)
            .map(|i| {
                let (x0, y) = if i % 2 == 0 { (2.0, 10.0) } else { (8.0, 50.0) };
                TrainingSample {
                    x: fv(x0, 0.0),
                    runtime_us: y,
                }
            })
            .collect();
        let qdt = QuantileDecisionTree::fit(&samples, &[0], &TreeConfig::default());
        assert_eq!(qdt.n_leaves(), 2, "one split separates pure clusters");
        assert_eq!(
            qdt.leaf_of(&fv(5.0, 0.0)),
            qdt.leaf_of(&fv(2.0, 0.0)),
            "the boundary value belongs to the left leaf"
        );
        assert_eq!(
            qdt.leaf_of(&fv(5.0 + 1e-9, 0.0)),
            qdt.leaf_of(&fv(8.0, 0.0)),
            "just past the threshold routes right"
        );
        assert_eq!(qdt.predict_us(&fv(5.0, 0.0)), 10.0);
        assert_eq!(qdt.predict_us(&fv(5.0 + 1e-9, 0.0)), 50.0);
    }

    #[test]
    fn predictions_upper_bound_most_runtimes() {
        // The max-of-leaf statistic should cover essentially all in-leaf
        // samples (that is the design goal of Algorithm 2).
        let samples = synthetic(20_000, 2);
        let qdt = QuantileDecisionTree::fit(&samples, &[0, 1], &TreeConfig::default());
        let mut rng = Rng::new(3);
        let mut misses = 0;
        let n = 20_000;
        for _ in 0..n {
            let cbs = rng.range_u64(1, 16) as f64;
            let actual = (10.0 + 30.0 * cbs) * rng.lognormal(0.0, 0.05);
            if actual > qdt.predict_us(&fv(cbs, rng.f64())) {
                misses += 1;
            }
        }
        let miss_rate = misses as f64 / n as f64;
        assert!(miss_rate < 0.01, "miss rate {miss_rate}");
    }

    #[test]
    fn less_pessimistic_than_single_value_wcet() {
        // Fig. 13: the parameterized prediction is far tighter than one
        // global WCET for small inputs.
        let samples = synthetic(20_000, 4);
        let global_max = samples.iter().map(|s| s.runtime_us).fold(0.0, f64::max);
        let qdt = QuantileDecisionTree::fit(&samples, &[0, 1], &TreeConfig::default());
        let small_pred = qdt.predict_us(&fv(2.0, 0.5));
        assert!(
            small_pred < global_max / 3.0,
            "parameterized {small_pred} vs global {global_max}"
        );
    }

    #[test]
    fn online_observation_adapts_to_interference() {
        // Shift the runtime distribution up 30% (cache interference) and
        // verify that after online updates predictions cover the new regime
        // without refitting the tree.
        let samples = synthetic(20_000, 5);
        let mut qdt = QuantileDecisionTree::fit(&samples, &[0, 1], &TreeConfig::default());
        let before = qdt.predict_us(&fv(8.0, 0.5));
        let mut rng = Rng::new(6);
        for _ in 0..30_000 {
            let cbs = rng.range_u64(1, 16) as f64;
            let inflated = (10.0 + 30.0 * cbs) * rng.lognormal(0.0, 0.05) * 1.3;
            qdt.observe(&fv(cbs, rng.f64()), inflated);
        }
        let after = qdt.predict_us(&fv(8.0, 0.5));
        assert!(after > before * 1.1, "before {before} after {after}");
        // And new samples are covered.
        let mut misses = 0;
        for _ in 0..5_000 {
            let cbs = rng.range_u64(1, 16) as f64;
            let actual = (10.0 + 30.0 * cbs) * rng.lognormal(0.0, 0.05) * 1.3;
            if actual > qdt.predict_us(&fv(cbs, 0.5)) {
                misses += 1;
            }
        }
        assert!(misses < 50, "misses {misses}");
    }

    #[test]
    fn tree_structure_frozen_after_fit() {
        let samples = synthetic(5_000, 7);
        let mut qdt = QuantileDecisionTree::fit(&samples, &[0, 1], &TreeConfig::default());
        let leaves_before = qdt.n_leaves();
        let leaf_route_before = qdt.leaf_of(&fv(8.0, 0.5));
        for _ in 0..10_000 {
            qdt.observe(&fv(8.0, 0.5), 1e6); // extreme outliers
        }
        assert_eq!(qdt.n_leaves(), leaves_before);
        assert_eq!(qdt.leaf_of(&fv(8.0, 0.5)), leaf_route_before);
    }

    #[test]
    fn ring_buffer_forgets_old_regime() {
        // After a burst of inflated samples ages out, predictions relax
        // (the ring buffer keeps only the most recent capacity samples).
        let samples = synthetic(20_000, 8);
        let mut qdt = QuantileDecisionTree::fit(&samples, &[0, 1], &TreeConfig::default());
        let x = fv(8.0, 0.5);
        qdt.observe(&x, 5_000.0); // one pathological sample
        let spiked = qdt.predict_us(&x);
        assert!(spiked >= 5_000.0);
        // Push a full buffer of normal samples through the same leaf.
        for _ in 0..LEAF_BUFFER_CAPACITY + 1 {
            qdt.observe(&x, 250.0);
        }
        let relaxed = qdt.predict_us(&x);
        assert!(relaxed < 300.0, "relaxed {relaxed}");
    }

    #[test]
    fn refit_leaves_adopts_the_new_regime() {
        // Quarantine-and-retrain in miniature: re-fit the frozen tree from
        // a replay of 1.5x-inflated samples; predictions must cover the
        // new regime and routing must not change.
        let samples = synthetic(20_000, 20);
        let mut qdt = QuantileDecisionTree::fit(&samples, &[0, 1], &TreeConfig::default());
        let route_before = qdt.leaf_of(&fv(8.0, 0.5));
        let before = qdt.predict_us(&fv(8.0, 0.5));
        let mut rng = Rng::new(21);
        let replay: Vec<TrainingSample> = (0..8_000)
            .map(|_| {
                let cbs = rng.range_u64(1, 16) as f64;
                TrainingSample {
                    x: fv(cbs, rng.f64()),
                    runtime_us: (10.0 + 30.0 * cbs) * rng.lognormal(0.0, 0.05) * 1.5,
                }
            })
            .collect();
        let filled = qdt.refit_leaves(&replay);
        assert!(filled > 0);
        assert_eq!(qdt.leaf_of(&fv(8.0, 0.5)), route_before, "structure frozen");
        let after = qdt.predict_us(&fv(8.0, 0.5));
        assert!(after > before * 1.2, "before {before} after {after}");
        // Coverage on the new regime.
        let mut misses = 0;
        for _ in 0..5_000 {
            let cbs = rng.range_u64(1, 16) as f64;
            let actual = (10.0 + 30.0 * cbs) * rng.lognormal(0.0, 0.05) * 1.5;
            if actual > qdt.predict_us(&fv(cbs, rng.f64())) {
                misses += 1;
            }
        }
        // The replay (8 K samples) is smaller than the offline set, so the
        // per-leaf maxima cover a little less tail than a fresh fit.
        assert!(misses < 150, "misses {misses}");
    }

    #[test]
    fn refit_with_sparse_replay_stays_conservative() {
        // A replay that visits only one corner of the input space: the
        // drained leaves must answer with the ratcheted fallback (at least
        // the worst runtime ever seen), never zero.
        let samples = synthetic(10_000, 22);
        let global_max = samples.iter().map(|s| s.runtime_us).fold(0.0, f64::max);
        let mut qdt = QuantileDecisionTree::fit(&samples, &[0, 1], &TreeConfig::default());
        let replay = vec![TrainingSample {
            x: fv(2.0, 0.5),
            runtime_us: 70.0,
        }];
        qdt.refit_leaves(&replay);
        let large = qdt.predict_us(&fv(14.0, 0.5));
        assert!(large >= global_max, "large {large} vs max {global_max}");
    }

    #[test]
    fn lifecycle_trait_hooks_route_and_reference() {
        let samples = synthetic(10_000, 23);
        let mut qdt = QuantileDecisionTree::fit(&samples, &[0, 1], &TreeConfig::default());
        let x = fv(8.0, 0.5);
        assert_eq!(qdt.route(&x), Some(qdt.leaf_of(&x)));
        let refs = qdt.reference_quantiles(0.95);
        assert_eq!(refs.len(), qdt.n_leaves());
        let leaf = qdt.leaf_of(&x);
        // Reference is an upper quantile: above the mean, at most the max.
        let ys = qdt.leaf_samples(leaf);
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let max = ys.iter().cloned().fold(0.0, f64::max);
        assert!(refs[leaf] >= mean && refs[leaf] <= max);
        assert!(!qdt.refit(&[]), "empty replay refuses to refit");
        assert!(qdt.refit(&samples[..100]));
    }

    #[test]
    fn quantile_statistic_is_less_conservative_than_max() {
        let samples = synthetic(20_000, 9);
        let qmax = QuantileDecisionTree::fit(&samples, &[0, 1], &TreeConfig::default());
        let q99 = QuantileDecisionTree::fit_with(
            &samples,
            &[0, 1],
            &TreeConfig::default(),
            LeafStatistic::Quantile(0.99),
        );
        let x = fv(8.0, 0.5);
        assert!(q99.predict_us(&x) <= qmax.predict_us(&x));
    }

    #[test]
    fn low_variance_within_leaves() {
        // The Fig. 7a property: within-leaf variance is small relative to
        // the overall variance.
        let samples = synthetic(20_000, 11);
        let qdt = QuantileDecisionTree::fit(&samples, &[0, 1], &TreeConfig::default());
        let all: Vec<f64> = samples.iter().map(|s| s.runtime_us).collect();
        let gm = all.iter().sum::<f64>() / all.len() as f64;
        let gvar = all.iter().map(|y| (y - gm).powi(2)).sum::<f64>() / all.len() as f64;
        let mut within = 0.0;
        let mut n = 0usize;
        for leaf in 0..qdt.n_leaves() {
            let ys = qdt.leaf_samples(leaf);
            if ys.is_empty() {
                continue;
            }
            let m = ys.iter().sum::<f64>() / ys.len() as f64;
            within += ys.iter().map(|y| (y - m).powi(2)).sum::<f64>();
            n += ys.len();
        }
        let wvar = within / n as f64;
        assert!(
            wvar < gvar * 0.05,
            "within-leaf var {wvar} vs global {gvar}"
        );
    }
}
