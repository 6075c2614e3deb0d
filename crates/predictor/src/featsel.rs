//! Feature selection — Algorithm 1 of the paper.
//!
//! 1. Rank candidate features by distance correlation with the task runtime
//!    and keep the top `N`.
//! 2. Backwards elimination down to `M` features, scored by the validation
//!    error of a small decision tree.
//! 3. Union with the hand-picked domain-expertise features.

use crate::api::TrainingSample;
use crate::tree::{Presort, Tree, TreeConfig};
use concordia_ran::features::{Feature, FeatureVec, NUM_FEATURES};
use concordia_stats::dcor::CenteredSample;

/// Configuration of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatSelConfig {
    /// Keep the `n_dcor` most distance-correlated features.
    pub n_dcor: usize,
    /// Backwards-eliminate down to `m_final` features.
    pub m_final: usize,
    /// Subsample size for the distance-correlation ranking: O(n²) time
    /// and O(n) memory per feature at this `n`.
    pub dcor_subsample: usize,
    /// Train/validation split fraction for elimination scoring.
    pub train_fraction: f64,
}

impl Default for FeatSelConfig {
    fn default() -> Self {
        FeatSelConfig {
            n_dcor: 8,
            m_final: 4,
            dcor_subsample: 800,
            train_fraction: 0.7,
        }
    }
}

/// Ranks all features by distance correlation with the runtime, descending.
/// Returns `(feature index, dcor)` pairs.
pub fn dcor_ranking(samples: &[TrainingSample], subsample: usize) -> Vec<(usize, f64)> {
    let (ys, columns) = ranking_columns(samples, subsample);
    rank(CenteredSample::new(&ys).dcor_columns(&columns))
}

/// The ranking's subsample: its runtimes, and its feature columns end to
/// end in feature order.
fn ranking_columns(samples: &[TrainingSample], subsample: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(samples.len() >= 4, "need samples to rank features");
    let take = samples.len().min(subsample);
    // Deterministic stride subsample (samples are already i.i.d. in time).
    let stride = samples.len() / take;
    let picked: Vec<&TrainingSample> = samples.iter().step_by(stride.max(1)).take(take).collect();
    let ys = picked.iter().map(|s| s.runtime_us).collect();
    let columns = (0..NUM_FEATURES)
        .flat_map(|f| picked.iter().map(move |s| s.x[f]))
        .collect();
    (ys, columns)
}

/// Feature indices with their scores, by score descending.
fn rank(scores: Vec<f64>) -> Vec<(usize, f64)> {
    let mut ranking: Vec<(usize, f64)> = scores.into_iter().enumerate().collect();
    ranking.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("NaN dcor"));
    ranking
}

/// Validation mean-absolute-error of `tree`, predicting `means[leaf]`,
/// its leaves' mean training targets.
fn validation_mae(tree: &Tree, means: &[f64], val_x: &[FeatureVec], val_y: &[f64]) -> f64 {
    val_x
        .iter()
        .zip(val_y)
        .map(|(x, &y)| (means[tree.leaf_of(x)] - y).abs())
        .sum::<f64>()
        / val_y.len() as f64
}

/// Backwards elimination: repeatedly drops the feature whose removal hurts
/// validation error the least, until `m_final` remain. Each candidate set
/// is scored by a small tree; one walk grows a round's candidate trees.
pub fn backwards_elimination(
    samples: &[TrainingSample],
    mut feats: Vec<usize>,
    m_final: usize,
    train_fraction: f64,
) -> Vec<usize> {
    assert!(m_final >= 1);
    let split = ((samples.len() as f64) * train_fraction) as usize;
    let split = split.clamp(1, samples.len() - 1);
    let train_x: Vec<FeatureVec> = samples[..split].iter().map(|s| s.x).collect();
    let train_y: Vec<f64> = samples[..split].iter().map(|s| s.runtime_us).collect();
    let val_x: Vec<FeatureVec> = samples[split..].iter().map(|s| s.x).collect();
    let val_y: Vec<f64> = samples[split..].iter().map(|s| s.runtime_us).collect();
    let cfg = TreeConfig {
        max_depth: 6,
        min_leaf: 30,
        n_thresholds: 8,
    };
    // Every candidate set is a subset of the first: one presort serves all
    // the fits.
    let presort = Presort::new(&train_x, &feats);

    while feats.len() > m_final {
        let mut best: Option<(usize, f64)> = None; // (position to drop, mae)
        let candidates = Tree::fit_each_without(&train_x, &train_y, &feats, &cfg, &presort);
        for (pos, (tree, means)) in candidates.iter().enumerate() {
            let mae = validation_mae(tree, means, &val_x, &val_y);
            if best.is_none_or(|(_, b)| mae < b) {
                best = Some((pos, mae));
            }
        }
        let (pos, _) = best.expect("non-empty candidate set");
        feats.remove(pos);
    }
    feats
}

/// Runs the full Algorithm 1: dcor top-N → backwards elimination to M →
/// union with hand-picked features. Returns a sorted, deduplicated feature
/// index list.
pub fn select_features(
    samples: &[TrainingSample],
    handpicked: &[Feature],
    cfg: &FeatSelConfig,
) -> Vec<usize> {
    let ranking = dcor_ranking(samples, cfg.dcor_subsample);
    let top: Vec<usize> = ranking
        .iter()
        .take(cfg.n_dcor)
        .filter(|(_, d)| *d > 0.0)
        .map(|(f, _)| *f)
        .collect();
    let kept = if top.len() > cfg.m_final {
        backwards_elimination(samples, top, cfg.m_final, cfg.train_fraction)
    } else {
        top
    };
    let mut out: Vec<usize> = kept;
    out.extend(handpicked.iter().map(|&f| f as usize));
    out.sort_unstable();
    out.dedup();
    if out.is_empty() {
        // A totally uninformative task (constant runtime): any feature does.
        out.push(0);
    }
    out
}

#[cfg(test)]
mod reference {
    //! Algorithm 1 as first written: every column scored by its own
    //! pairwise distance correlation, every elimination fit by the
    //! reference CART, which sorts at every node. The pairwise estimator is
    //! itself pinned bit for bit to the matrix form by concordia-stats.
    use super::*;
    use crate::tree::reference;
    use concordia_stats::dcor::distance_correlation;

    pub(super) fn dcor_ranking(samples: &[TrainingSample], subsample: usize) -> Vec<(usize, f64)> {
        let take = samples.len().min(subsample);
        let stride = samples.len() / take;
        let picked: Vec<&TrainingSample> =
            samples.iter().step_by(stride.max(1)).take(take).collect();
        let ys: Vec<f64> = picked.iter().map(|s| s.runtime_us).collect();
        let mut ranking: Vec<(usize, f64)> = (0..NUM_FEATURES)
            .map(|f| {
                let xs: Vec<f64> = picked.iter().map(|s| s.x[f]).collect();
                (f, distance_correlation(&xs, &ys))
            })
            .collect();
        ranking.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("NaN dcor"));
        ranking
    }

    /// One round's candidates, `feats` without each of its entries in
    /// turn, each fitted alone: its tree, leaf means and validation MAE.
    pub(super) fn round(
        train_x: &[FeatureVec],
        train_y: &[f64],
        val: &[TrainingSample],
        feats: &[usize],
        cfg: &TreeConfig,
    ) -> Vec<(Tree, Vec<f64>, f64)> {
        (0..feats.len())
            .map(|pos| {
                let mut reduced = feats.to_vec();
                reduced.remove(pos);
                let (tree, leaves) = reference::fit(train_x, train_y, &reduced, cfg);
                let means: Vec<f64> = leaves
                    .iter()
                    .map(|l| l.iter().map(|&i| train_y[i]).sum::<f64>() / l.len().max(1) as f64)
                    .collect();
                let mae = val
                    .iter()
                    .map(|s| (means[tree.leaf_of(&s.x)] - s.runtime_us).abs())
                    .sum::<f64>()
                    / val.len() as f64;
                (tree, means, mae)
            })
            .collect()
    }

    fn backwards_elimination(
        samples: &[TrainingSample],
        mut feats: Vec<usize>,
        cfg: &FeatSelConfig,
    ) -> Vec<usize> {
        let split = ((samples.len() as f64) * cfg.train_fraction) as usize;
        let split = split.clamp(1, samples.len() - 1);
        let (train, val) = samples.split_at(split);
        let train_x: Vec<FeatureVec> = train.iter().map(|s| s.x).collect();
        let train_y: Vec<f64> = train.iter().map(|s| s.runtime_us).collect();
        let tree_cfg = TreeConfig {
            max_depth: 6,
            min_leaf: 30,
            n_thresholds: 8,
        };
        while feats.len() > cfg.m_final {
            let mut best: Option<(usize, f64)> = None;
            for (pos, (_, _, mae)) in round(&train_x, &train_y, val, &feats, &tree_cfg)
                .into_iter()
                .enumerate()
            {
                if best.is_none_or(|(_, b)| mae < b) {
                    best = Some((pos, mae));
                }
            }
            feats.remove(best.expect("non-empty candidate set").0);
        }
        feats
    }

    pub(super) fn select_features(
        samples: &[TrainingSample],
        handpicked: &[Feature],
        cfg: &FeatSelConfig,
    ) -> Vec<usize> {
        let top: Vec<usize> = dcor_ranking(samples, cfg.dcor_subsample)
            .iter()
            .take(cfg.n_dcor)
            .filter(|(_, d)| *d > 0.0)
            .map(|(f, _)| *f)
            .collect();
        let mut out = if top.len() > cfg.m_final {
            backwards_elimination(samples, top, cfg)
        } else {
            top
        };
        out.extend(handpicked.iter().map(|&f| f as usize));
        out.sort_unstable();
        out.dedup();
        if out.is_empty() {
            out.push(0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::tests::{bits, tie_heavy_sample};
    use concordia_stats::rng::Rng;
    use proptest::prelude::*;

    /// Runtime depends on features 0 (linear) and 7 (nonlinear); all others
    /// are noise.
    fn synthetic(n: usize, seed: u64) -> Vec<TrainingSample> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| {
                let mut x = [0.0; NUM_FEATURES];
                for slot in x.iter_mut() {
                    *slot = rng.f64() * 10.0;
                }
                let y = 20.0 * x[0] + 3.0 * (x[7] - 5.0).powi(2) + rng.normal() * 2.0;
                TrainingSample { x, runtime_us: y }
            })
            .collect()
    }

    #[test]
    fn dcor_ranks_informative_features_first() {
        let samples = synthetic(3_000, 1);
        let ranking = dcor_ranking(&samples, 600);
        let top2: Vec<usize> = ranking.iter().take(2).map(|(f, _)| *f).collect();
        assert!(top2.contains(&0), "ranking {ranking:?}");
        assert!(top2.contains(&7), "ranking {ranking:?}");
    }

    #[test]
    fn backwards_elimination_keeps_informative_features() {
        let samples = synthetic(3_000, 2);
        let kept = backwards_elimination(&samples, vec![0, 1, 2, 7, 9], 2, 0.7);
        assert_eq!(kept.len(), 2);
        assert!(kept.contains(&0), "kept {kept:?}");
        assert!(kept.contains(&7), "kept {kept:?}");
    }

    #[test]
    fn select_features_unions_handpicked() {
        let samples = synthetic(2_000, 3);
        let cfg = FeatSelConfig {
            n_dcor: 4,
            m_final: 2,
            dcor_subsample: 400,
            train_fraction: 0.7,
        };
        // Hand-pick feature 15 (pool cores) even though it is noise here —
        // Algorithm 1 always unions the domain-expertise picks.
        let out = select_features(&samples, &[Feature::PoolCores], &cfg);
        assert!(out.contains(&(Feature::PoolCores as usize)), "{out:?}");
        assert!(out.contains(&0) || out.contains(&7), "{out:?}");
        // Sorted + deduplicated.
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(out, sorted);
    }

    #[test]
    fn constant_runtime_falls_back_to_nonempty_set() {
        let mut rng = Rng::new(4);
        let samples: Vec<TrainingSample> = (0..500)
            .map(|_| {
                let mut x = [0.0; NUM_FEATURES];
                for slot in x.iter_mut() {
                    *slot = rng.f64();
                }
                TrainingSample { x, runtime_us: 5.0 }
            })
            .collect();
        let out = select_features(&samples, &[], &FeatSelConfig::default());
        assert!(!out.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn round_matches_reference_per_candidate(
            rows in proptest::collection::vec((0u8..3, 0u8..4, 0.0f64..100.0, -1.0f64..1.0, 0u8..5), 2..160),
            (min_leaf, max_depth, n_thresholds) in (1usize..40, 0u32..8, 1usize..20),
            feats in proptest::collection::vec(0usize..5, 2..7),
            near in 0usize..8,
            (at, poison) in (0usize..160, 0u8..4),
        ) {
            // Half the cases cut the data to within a few samples of
            // 2·min_leaf, where a node is just big enough to split.
            let keep = if near % 2 == 0 { (2 * min_leaf + near).saturating_sub(4).max(2) } else { rows.len() };
            let (xs, mut ys): (Vec<FeatureVec>, Vec<f64>) =
                rows.iter().take(keep).copied().map(tie_heavy_sample).unzip();
            // Three cases in four, one target is NaN or infinite.
            if let Some(&bad) = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY].get(poison as usize) {
                let i = at % ys.len();
                ys[i] = bad;
            }
            // The samples validate too, in reverse order.
            let val: Vec<TrainingSample> = xs
                .iter()
                .zip(&ys)
                .rev()
                .map(|(&x, &runtime_us)| TrainingSample { x, runtime_us })
                .collect();
            let (val_x, val_y): (Vec<FeatureVec>, Vec<f64>) = val.iter().map(|s| (s.x, s.runtime_us)).unzip();
            let cfg = TreeConfig { max_depth, min_leaf, n_thresholds };
            let grown = Tree::fit_each_without(&xs, &ys, &feats, &cfg, &Presort::new(&xs, &feats));
            let want = reference::round(&xs, &ys, &val, &feats, &cfg);
            prop_assert_eq!(grown.len(), want.len());
            for (c, ((tree, means), (want_tree, want_means, want_mae))) in grown.iter().zip(&want).enumerate() {
                prop_assert!(bits(tree) == bits(want_tree), "candidate {c}: {tree:?} != {want_tree:?}");
                let (got, want): (Vec<u64>, Vec<u64>) =
                    means.iter().zip(want_means).map(|(m, w)| (m.to_bits(), w.to_bits())).unzip();
                prop_assert!(got == want && means.len() == want_means.len(), "candidate {c}: means {means:?} != {want_means:?}");
                let mae = validation_mae(tree, means, &val_x, &val_y);
                prop_assert!(mae.to_bits() == want_mae.to_bits(), "candidate {c}: mae {mae} != {want_mae}");
            }
        }
    }

    #[test]
    fn matches_reference_pipeline_on_a_profile() {
        use concordia_core::profile::profile;
        use concordia_ran::cost::CostModel;
        use concordia_ran::CellConfig;

        // The paper's FDD cell, and a TDD 100 MHz cell at the shape of a
        // search's evaluations.
        let fdd = profile(&CellConfig::fdd_20mhz(), &CostModel::new(), 300, 8, 7);
        let kinds = matches_reference_on(&fdd);
        assert!(kinds >= 10, "only {kinds} FDD kinds profiled");
        let tdd = profile(&CellConfig::tdd_100mhz(), &CostModel::new(), 300, 6, 7);
        let kinds = matches_reference_on(&tdd);
        assert!(kinds >= 10, "only {kinds} TDD kinds profiled");
    }

    /// Checks every trained kind of `ds` against the reference pipeline;
    /// returns how many kinds were trained.
    fn matches_reference_on(ds: &concordia_core::profile::ProfilingDataset) -> usize {
        use concordia_ran::features::handpicked;
        use concordia_ran::task::TaskKind;

        let cfg = FeatSelConfig::default();
        let mut kinds = 0;
        for kind in TaskKind::ALL {
            // The profiler links this crate's library build, whose sample
            // type is not the test build's.
            let samples: Vec<TrainingSample> = ds
                .samples(kind)
                .iter()
                .map(|s| TrainingSample {
                    x: s.x,
                    runtime_us: s.runtime_us,
                })
                .collect();
            if samples.len() < 100 {
                continue; // not trained, as in `train_bank`
            }
            let bits = |r: Vec<(usize, f64)>| -> Vec<(usize, u64)> {
                r.into_iter().map(|(f, d)| (f, d.to_bits())).collect()
            };
            let want = bits(reference::dcor_ranking(&samples, cfg.dcor_subsample));
            assert_eq!(
                bits(dcor_ranking(&samples, cfg.dcor_subsample)),
                want,
                "{kind:?} ranking"
            );
            let (ys, columns) = ranking_columns(&samples, cfg.dcor_subsample);
            let tiers = CenteredSample::new(&ys).dcor_columns_each_tier(&columns);
            for (tier, scores) in tiers.into_iter().enumerate() {
                assert_eq!(bits(rank(scores)), want, "{kind:?} ranking, tier {tier}");
            }
            assert_eq!(
                select_features(&samples, &handpicked(kind), &cfg),
                reference::select_features(&samples, &handpicked(kind), &cfg),
                "{kind:?} features"
            );
            kinds += 1;
        }
        kinds
    }
}
