//! CART regression-tree construction.
//!
//! §4.2: the quantile decision tree "uses the CART algorithm to minimize
//! the variance among the samples that end up in the same leaf". This
//! module is the shared split machinery: the quantile decision tree
//! ([`crate::qdt`]) puts ring buffers in the leaves, and the
//! gradient-boosting baseline ([`crate::gbt`]) puts mean values there.
//! A fit sorts each feature once (`Presort`, shareable across fits on one
//! training set) and splits a node by stable in-place partitions, so
//! no node sorts again; the trees are bit-identical to per-node sorting.
//! Backwards elimination grows a round's candidate trees, each missing one
//! feature, in one walk that shares every node the candidates agree on
//! (`Tree::fit_each_without`); each tree is bit-identical to its own fit.
//!
//! Trees are stored flattened in a `Vec` for cache-friendly traversal — the
//! predictor runs every TTI and must be fast (§5 / Fig. 15a).

use concordia_ran::features::{FeatureVec, NUM_FEATURES};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Tree-construction hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: u32,
    /// Minimum samples per leaf; splits creating smaller leaves are
    /// rejected.
    pub min_leaf: usize,
    /// Number of candidate thresholds examined per feature (quantile grid).
    pub n_thresholds: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 8,
            min_leaf: 50,
            n_thresholds: 16,
        }
    }
}

/// A flattened tree node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// Internal split: `x[feature] <= threshold` goes left.
    Split {
        /// Feature index into the [`FeatureVec`].
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Index of the left child in the node array.
        left: u32,
        /// Index of the right child in the node array.
        right: u32,
    },
    /// Terminal node holding a dense leaf id.
    Leaf {
        /// Dense leaf index in `[0, n_leaves)`.
        leaf_id: u32,
    },
}

/// A fitted regression-tree structure (no leaf payloads — those belong to
/// the caller, keyed by leaf id).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    nodes: Vec<Node>,
    n_leaves: usize,
    features_used: Vec<usize>,
}

impl Tree {
    /// Fits a variance-minimizing tree on `(xs, ys)` restricted to the
    /// feature subset `feats`. Returns the tree and, per leaf id, the
    /// indices of the training samples that landed in it, in ascending
    /// order.
    ///
    /// Panics on empty input, mismatched lengths or a NaN feature value.
    pub fn fit(
        xs: &[FeatureVec],
        ys: &[f64],
        feats: &[usize],
        cfg: &TreeConfig,
    ) -> (Tree, Vec<Vec<usize>>) {
        Self::fit_presorted(xs, ys, feats, cfg, &Presort::new(xs, feats))
    }

    /// [`Tree::fit`] from `presort`, a [`Presort`] of `xs` that covers
    /// every feature in `feats` — for callers that fit many trees on one
    /// training set.
    pub(crate) fn fit_presorted(
        xs: &[FeatureVec],
        ys: &[f64],
        feats: &[usize],
        cfg: &TreeConfig,
        presort: &Presort,
    ) -> (Tree, Vec<Vec<usize>>) {
        let samples = |members: &[u32]| members.iter().map(|&i| i as usize).collect();
        let mut trees = grow(xs, ys, feats, &[None], cfg, presort, &samples);
        trees.pop().expect("one candidate")
    }

    /// For each position `c` of `feats`, [`Tree::fit_presorted`] on
    /// `feats` without its entry `c`, with the mean of each leaf's targets
    /// (added in sample order) in place of its samples: the candidate sets
    /// of one round of backwards elimination, grown together in one walk.
    /// Panics on fewer than 2 features.
    pub(crate) fn fit_each_without(
        xs: &[FeatureVec],
        ys: &[f64],
        feats: &[usize],
        cfg: &TreeConfig,
        presort: &Presort,
    ) -> Vec<(Tree, Vec<f64>)> {
        assert!(feats.len() >= 2, "every candidate needs a feature");
        let drops: Vec<Option<usize>> = (0..feats.len()).map(Some).collect();
        let mean = |members: &[u32]| {
            members.iter().map(|&i| ys[i as usize]).sum::<f64>() / members.len().max(1) as f64
        };
        grow(xs, ys, feats, &drops, cfg, presort, &mean)
    }

    /// Leaf id for a feature vector. O(depth).
    #[inline]
    pub fn leaf_of(&self, x: &FeatureVec) -> usize {
        let mut i = 0usize;
        loop {
            match self.nodes[i] {
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if x[feature] <= threshold {
                        left as usize
                    } else {
                        right as usize
                    };
                }
                Node::Leaf { leaf_id } => return leaf_id as usize,
            }
        }
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// Features the tree was fitted on.
    pub fn features_used(&self) -> &[usize] {
        &self.features_used
    }
}

/// Every feature's sample ids in ascending order of that feature's value.
///
/// The sort is stable, so tied values keep sample order. A stable sort of
/// any subset of the samples, taken in sample order, gives exactly that
/// subset's subsequence of the presort — so one sort per training set
/// serves every node of every tree fitted on it.
#[derive(Debug)]
pub(crate) struct Presort {
    /// `ids[f]`: the ids `0..n` by `x[f]`; empty unless `f` was requested.
    ids: Vec<Vec<u32>>,
    n: usize,
}

impl Presort {
    /// Sorts the samples `xs` by each feature in `feats`.
    ///
    /// Panics on a NaN feature value or more than `u32::MAX` samples.
    pub(crate) fn new(xs: &[FeatureVec], feats: &[usize]) -> Self {
        assert!(u32::try_from(xs.len()).is_ok(), "too many samples");
        let mut ids = vec![Vec::new(); NUM_FEATURES];
        let mut keyed: Vec<(f64, u32)> = Vec::with_capacity(xs.len());
        for &f in feats {
            if !ids[f].is_empty() {
                continue;
            }
            keyed.clear();
            keyed.extend(xs.iter().zip(0u32..).map(|(x, i)| (x[f], i)));
            keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN feature"));
            ids[f] = keyed.iter().map(|&(_, i)| i).collect();
        }
        Presort { ids, n: xs.len() }
    }
}

/// A node's split: the position in `feats` of the column it cuts, and its
/// threshold (`x <= threshold` goes left).
type Split = (usize, f64);

/// One admissible cut of a column in a node.
#[derive(Debug, Clone, Copy)]
struct Cut {
    sse: f64,
    thr: f64,
}

/// What one scan of a column finds in a node. Folding each column's
/// `first` and then its `best`, in `feats` order, keeping a cut only if
/// its SSE is strictly below the kept one's, ends where a running fold
/// over every cut of those columns ends: a NaN SSE never compares below
/// anything, so that fold keeps a NaN first cut for good and otherwise
/// ends at the first cut with the smallest SSE.
#[derive(Debug, Clone, Copy, Default)]
struct ColumnCuts {
    /// The first admissible cut.
    first: Option<Cut>,
    /// The first cut at the strictly smallest SSE, NaN SSEs aside.
    best: Option<Cut>,
}

/// Grows one tree per candidate on `(xs, ys)`: candidate `c` reads every
/// position of `feats` but `drops[c]`, and no two candidates drop the same
/// position. Returns each candidate's tree and, per leaf id, what `keep`
/// makes of the leaf's samples, given in ascending order.
///
/// The candidates walk one tree together. A node that several share is
/// scanned once: each column yields its [`ColumnCuts`], and each
/// candidate folds those of its own columns. A candidate's split differs
/// from the others' only if it dropped the column that wins for them, so
/// all but that one agree: they share the split and its in-place
/// partition, and the one that differs forks onto a copy of the node's
/// buffers and grows its subtree there alone. Each candidate's nodes are
/// numbered as a fit on its features alone numbers them: depth first,
/// right child first, both child indices taken when the parent splits.
fn grow<L>(
    xs: &[FeatureVec],
    ys: &[f64],
    feats: &[usize],
    drops: &[Option<usize>],
    cfg: &TreeConfig,
    presort: &Presort,
    keep: &dyn Fn(&[u32]) -> L,
) -> Vec<(Tree, Vec<L>)> {
    assert_eq!(xs.len(), ys.len());
    assert!(!xs.is_empty(), "cannot fit a tree on no samples");
    assert!(!feats.is_empty(), "need at least one feature");
    let n = xs.len();
    assert_eq!(presort.n, n, "presort of another training set");
    let mut shared = Buffers {
        cols: feats
            .iter()
            .map(|&f| {
                assert_eq!(presort.ids[f].len(), n, "feature {f} not presorted");
                presort.ids[f].clone()
            })
            .collect(),
        members: (0..n as u32).collect(),
    };
    // A node of one candidate never forks, so one spare set serves every
    // fork in turn.
    let mut spare = (drops.len() > 1).then(|| Buffers {
        cols: vec![vec![0; n]; feats.len()],
        members: vec![0; n],
    });
    let mut grower = Grower {
        xs,
        ys,
        feats,
        drops,
        cfg,
        keep,
        trees: (0..drops.len())
            .map(|_| (vec![Node::Leaf { leaf_id: 0 }], Vec::new()))
            .collect(),
        cuts: vec![ColumnCuts::default(); feats.len()],
        goes_left: vec![false; n],
        scratch: Vec::with_capacity(n),
    };
    let root = Open {
        range: 0..n,
        depth: 0,
        at: (0..drops.len()).map(|c| (c, 0)).collect(),
    };
    grower.walk(&mut shared, spare.as_mut(), vec![root]);
    grower
        .trees
        .into_iter()
        .zip(drops)
        .map(|((nodes, leaves), &drop)| {
            let features_used = (0..feats.len())
                .filter(|&p| Some(p) != drop)
                .map(|p| feats[p])
                .collect();
            let tree = Tree {
                nodes,
                n_leaves: leaves.len(),
                features_used,
            };
            (tree, leaves)
        })
        .collect()
}

/// The state of one [`grow`].
struct Grower<'a, L> {
    xs: &'a [FeatureVec],
    ys: &'a [f64],
    feats: &'a [usize],
    drops: &'a [Option<usize>],
    cfg: &'a TreeConfig,
    keep: &'a dyn Fn(&[u32]) -> L,
    /// Per candidate: its nodes, and per leaf id what `keep` made of it.
    trees: Vec<(Vec<Node>, Vec<L>)>,
    /// Per position of `feats`: what the current node's scan found.
    cuts: Vec<ColumnCuts>,
    /// Per sample: whether the split being applied sends it left.
    goes_left: Vec<bool>,
    scratch: Vec<u32>,
}

/// A set of node buffers. Every node owns one range of each: its members
/// by the value of `feats[p]` in `cols[p]`, and by sample id in `members`.
/// A split partitions the node's range of each buffer in place, stably,
/// so both children inherit both orders.
struct Buffers {
    cols: Vec<Vec<u32>>,
    members: Vec<u32>,
}

/// A node to fill: its range of its buffer set, its depth, and the
/// candidates that share it, each with the node's index in its own tree.
struct Open {
    range: Range<usize>,
    depth: u32,
    at: Vec<(usize, u32)>,
}

impl<L> Grower<'_, L> {
    /// Fills the nodes on `stack` and their subtrees, all on `bufs`; a
    /// candidate that forks grows on `spare`.
    fn walk(&mut self, bufs: &mut Buffers, mut spare: Option<&mut Buffers>, mut stack: Vec<Open>) {
        while let Some(open) = stack.pop() {
            let skip = self.unread(&open.at);
            let parent_sse = self.scan(bufs, &open, skip);
            let shared = parent_sse.and_then(|sse| self.winner(skip, sse));
            // Every split is decided before a fork's walk overwrites `cuts`.
            let owns: Vec<Option<Split>> = open
                .at
                .iter()
                .map(|&(c, _)| match parent_sse {
                    Some(sse) if open.at.len() > 1 => self.winner(self.drops[c], sse),
                    _ => shared,
                })
                .collect();
            let mut agree = Vec::with_capacity(open.at.len());
            for (&(c, slot), own) in open.at.iter().zip(owns) {
                match (own, shared) {
                    (None, _) => self.leaf(c, slot, &bufs.members[open.range.clone()]),
                    (Some(s), Some(w)) if self.same(s, w) => agree.push((c, slot)),
                    (Some(s), _) => {
                        let spare = spare.as_deref_mut().expect("one candidate never forks");
                        self.fork(bufs, spare, &open, (c, slot), s);
                    }
                }
            }
            if let (Some(w), false) = (shared, agree.is_empty()) {
                stack.extend(self.split(bufs, open.range, open.depth, agree, w));
            }
        }
    }

    /// The position no candidate in `at` reads: with one candidate, the one
    /// it dropped; with more, none, since no two drop the same one.
    fn unread(&self, at: &[(usize, u32)]) -> Option<usize> {
        match at {
            [(c, _)] => self.drops[*c],
            _ => None,
        }
    }

    /// Whether two splits send the same samples left.
    fn same(&self, (p, thr): Split, (q, other): Split) -> bool {
        self.feats[p] == self.feats[q] && thr.to_bits() == other.to_bits()
    }

    /// Scans every column of node `open` but `skip` into `self.cuts`, and
    /// returns the node's sum of squared errors; `None` when the node is a
    /// leaf whatever its columns hold: at the depth cap, under
    /// `2 * min_leaf` samples, or pure.
    fn scan(&mut self, bufs: &Buffers, open: &Open, skip: Option<usize>) -> Option<f64> {
        let (ys, cfg) = (self.ys, self.cfg);
        if open.depth >= cfg.max_depth || open.range.len() < 2 * cfg.min_leaf {
            return None;
        }
        let members = &bufs.members[open.range.clone()];
        let sum: f64 = members.iter().map(|&i| ys[i as usize]).sum();
        let sum_sq: f64 = members
            .iter()
            .map(|&i| ys[i as usize] * ys[i as usize])
            .sum();
        let parent_sse = sum_sq - sum * sum / members.len() as f64;
        if parent_sse <= 1e-12 {
            return None; // already pure
        }
        for (p, cuts) in self.cuts.iter_mut().enumerate() {
            if Some(p) != skip {
                let ids = &bufs.cols[p][open.range.clone()];
                *cuts = column_cuts(self.xs, ys, self.feats[p], ids, (sum, sum_sq), cfg);
            }
        }
        Some(parent_sse)
    }

    /// The split of a candidate that reads every scanned column but
    /// `skip`: the winning cut of those columns, if it lowers the node's
    /// `parent_sse` by more than 1e-9.
    fn winner(&self, skip: Option<usize>, parent_sse: f64) -> Option<Split> {
        let mut win: Option<(usize, Cut)> = None;
        for (p, cuts) in self.cuts.iter().enumerate() {
            if Some(p) == skip {
                continue;
            }
            for cut in [cuts.first, cuts.best].into_iter().flatten() {
                if win.is_none_or(|(_, w)| cut.sse < w.sse) {
                    win = Some((p, cut));
                }
            }
        }
        win.filter(|(_, w)| w.sse < parent_sse - 1e-9)
            .map(|(p, w)| (p, w.thr))
    }

    /// Makes node `slot` of candidate `c` a leaf holding `members`.
    fn leaf(&mut self, c: usize, slot: u32, members: &[u32]) {
        let (nodes, leaves) = &mut self.trees[c];
        nodes[slot as usize] = Node::Leaf {
            leaf_id: leaves.len() as u32,
        };
        leaves.push((self.keep)(members));
    }

    /// Grows the subtree of candidate `at.0` (whose node `at.1` is `open`)
    /// from node `open` of `bufs`, split at `s`, which no other candidate
    /// there shares, on a copy in `spare`.
    fn fork(
        &mut self,
        bufs: &Buffers,
        spare: &mut Buffers,
        open: &Open,
        at: (usize, u32),
        s: Split,
    ) {
        let (range, len) = (open.range.clone(), open.range.len());
        spare.members[..len].copy_from_slice(&bufs.members[range.clone()]);
        for (p, col) in spare.cols.iter_mut().enumerate() {
            if Some(p) != self.drops[at.0] {
                col[..len].copy_from_slice(&bufs.cols[p][range.clone()]);
            }
        }
        let children = self.split(spare, 0..len, open.depth, vec![at], s);
        self.walk(spare, None, children.into());
    }

    /// Splits the node that owns `range` of `bufs` at `(p, thr)` for the
    /// candidates `at`; returns its children, left then right.
    fn split(
        &mut self,
        bufs: &mut Buffers,
        range: Range<usize>,
        depth: u32,
        at: Vec<(usize, u32)>,
        (p, thr): Split,
    ) -> [Open; 2] {
        let (xs, f, cfg) = (self.xs, self.feats[p], self.cfg);
        // The split column is sorted by the value it cuts, so the left child
        // is its prefix, and it needs no partition.
        let col = &bufs.cols[p][range.clone()];
        let n_left = col.partition_point(|&i| xs[i as usize][f] <= thr);
        for (k, &i) in col.iter().enumerate() {
            self.goes_left[i as usize] = k < n_left;
        }
        let mid = range.start + n_left;
        debug_assert!(n_left >= cfg.min_leaf && range.end - mid >= cfg.min_leaf);
        partition(
            &mut bufs.members[range.clone()],
            &self.goes_left,
            &mut self.scratch,
        );
        // Only a child that splits scans the columns.
        let splits = |len: usize| depth + 1 < cfg.max_depth && len >= 2 * cfg.min_leaf;
        if splits(n_left) || splits(range.end - mid) {
            let skip = self.unread(&at);
            for (q, col) in bufs.cols.iter_mut().enumerate() {
                if q != p && Some(q) != skip {
                    partition(&mut col[range.clone()], &self.goes_left, &mut self.scratch);
                }
            }
        }
        let mut children = [range.start..mid, mid..range.end].map(|range| Open {
            range,
            depth: depth + 1,
            at: Vec::with_capacity(at.len()),
        });
        for (c, slot) in at {
            let nodes = &mut self.trees[c].0;
            let left = nodes.len() as u32;
            nodes.extend([Node::Leaf { leaf_id: 0 }; 2]); // placeholders
            nodes[slot as usize] = Node::Split {
                feature: f,
                threshold: thr,
                left,
                right: left + 1,
            };
            children[0].at.push((c, left));
            children[1].at.push((c, left + 1));
        }
        children
    }
}

/// Moves the ids that `goes_left` marks to the front of `ids` and the rest
/// behind them, each group in its previous order.
fn partition(ids: &mut [u32], goes_left: &[bool], scratch: &mut Vec<u32>) {
    scratch.clear();
    scratch.resize(ids.len(), 0);
    // Branch-free: each id is written to both sides and only the side it
    // belongs to advances. A write lands at or before the read position.
    let (mut n_left, mut n_right) = (0, 0);
    for k in 0..ids.len() {
        let i = ids[k];
        let left = usize::from(goes_left[i as usize]);
        ids[n_left] = i;
        scratch[n_right] = i;
        n_left += left;
        n_right += 1 - left;
    }
    ids[n_left..].copy_from_slice(&scratch[..n_right]);
}

/// Every admissible cut of column `f` in a node whose members are `ids`,
/// in ascending order of `x[f]`, and whose targets and their squares sum
/// to `sum` and `sum_sq`.
fn column_cuts(
    xs: &[FeatureVec],
    ys: &[f64],
    f: usize,
    ids: &[u32],
    (sum, sum_sq): (f64, f64),
    cfg: &TreeConfig,
) -> ColumnCuts {
    let n = ids.len();
    let x = |k: usize| xs[ids[k] as usize][f];
    let mut cuts = ColumnCuts::default();
    if x(0) == x(n - 1) {
        return cuts; // constant feature in this node
    }
    // Prefix sums of y in feature order over `ids[..at]`, advanced to each
    // admissible cut position as the scan reaches it.
    let (mut sl, mut ql, mut at) = (0.0f64, 0.0f64, 0usize);
    // Candidate cut positions: an evenly spaced grid, snapped forward so the
    // threshold falls between distinct feature values.
    let step = (n / (cfg.n_thresholds + 1)).max(1);
    let mut k = step;
    while k < n {
        // Snap to the last index sharing x(k - 1).
        let v = x(k - 1);
        while k < n && x(k) == v {
            k += 1;
        }
        if k >= n {
            break;
        }
        let (nl, nr) = (k, n - k);
        if nl >= cfg.min_leaf && nr >= cfg.min_leaf {
            for &i in &ids[at..k] {
                let y = ys[i as usize];
                sl += y;
                ql += y * y;
            }
            at = k;
            let sse_l = ql - sl * sl / nl as f64;
            let sr = sum - sl;
            let qr = sum_sq - ql;
            let sse_r = qr - sr * sr / nr as f64;
            let sse = sse_l + sse_r;
            let cut = Cut {
                sse,
                thr: (v + x(k)) / 2.0,
            };
            cuts.first.get_or_insert(cut);
            if cuts.best.map_or(!sse.is_nan(), |b| sse < b.sse) {
                cuts.best = Some(cut);
            }
        }
        k += step;
    }
    cuts
}

/// CART as first written: a fresh stable sort of the node's members and
/// fresh prefix-sum vectors per node and feature. The bit-identity
/// reference for the presorted fit.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Node, Tree, TreeConfig};
    use concordia_ran::features::FeatureVec;

    pub(crate) fn fit(
        xs: &[FeatureVec],
        ys: &[f64],
        feats: &[usize],
        cfg: &TreeConfig,
    ) -> (Tree, Vec<Vec<usize>>) {
        assert_eq!(xs.len(), ys.len());
        assert!(!xs.is_empty(), "cannot fit a tree on no samples");
        assert!(!feats.is_empty(), "need at least one feature");

        let mut nodes: Vec<Node> = Vec::new();
        let mut leaf_samples: Vec<Vec<usize>> = Vec::new();
        let all: Vec<usize> = (0..xs.len()).collect();
        // Stack of (node index to fill, samples, depth).
        nodes.push(Node::Leaf { leaf_id: 0 }); // placeholder for root
        let mut stack = vec![(0usize, all, 0u32)];

        while let Some((slot, samples, depth)) = stack.pop() {
            let split = if depth < cfg.max_depth && samples.len() >= 2 * cfg.min_leaf {
                best_split(xs, ys, &samples, feats, cfg)
            } else {
                None
            };
            match split {
                Some((feature, threshold)) => {
                    let (l, r): (Vec<usize>, Vec<usize>) =
                        samples.iter().partition(|&&i| xs[i][feature] <= threshold);
                    let left = nodes.len() as u32;
                    let right = left + 1;
                    nodes.push(Node::Leaf { leaf_id: 0 }); // placeholders
                    nodes.push(Node::Leaf { leaf_id: 0 });
                    nodes[slot] = Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    };
                    stack.push((left as usize, l, depth + 1));
                    stack.push((right as usize, r, depth + 1));
                }
                None => {
                    let leaf_id = leaf_samples.len() as u32;
                    nodes[slot] = Node::Leaf { leaf_id };
                    leaf_samples.push(samples);
                }
            }
        }

        (
            Tree {
                nodes,
                n_leaves: leaf_samples.len(),
                features_used: feats.to_vec(),
            },
            leaf_samples,
        )
    }

    fn best_split(
        xs: &[FeatureVec],
        ys: &[f64],
        samples: &[usize],
        feats: &[usize],
        cfg: &TreeConfig,
    ) -> Option<(usize, f64)> {
        let n = samples.len();
        let sum: f64 = samples.iter().map(|&i| ys[i]).sum();
        let sum_sq: f64 = samples.iter().map(|&i| ys[i] * ys[i]).sum();
        let parent_sse = sum_sq - sum * sum / n as f64;
        if parent_sse <= 1e-12 {
            return None; // already pure
        }

        let mut best: Option<(usize, f64, f64)> = None; // (feat, thr, sse)
        let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(n);
        for &f in feats {
            pairs.clear();
            pairs.extend(samples.iter().map(|&i| (xs[i][f], ys[i])));
            pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN feature"));
            if pairs[0].0 == pairs[n - 1].0 {
                continue; // constant feature in this node
            }
            // Prefix sums for O(1) SSE at each cut position.
            let mut pre_s = vec![0.0f64; n + 1];
            let mut pre_q = vec![0.0f64; n + 1];
            for (k, &(_, y)) in pairs.iter().enumerate() {
                pre_s[k + 1] = pre_s[k] + y;
                pre_q[k + 1] = pre_q[k] + y * y;
            }
            let step = (n / (cfg.n_thresholds + 1)).max(1);
            let mut k = step;
            while k < n {
                let v = pairs[k - 1].0;
                while k < n && pairs[k].0 == v {
                    k += 1;
                }
                if k >= n {
                    break;
                }
                let (nl, nr) = (k, n - k);
                if nl >= cfg.min_leaf && nr >= cfg.min_leaf {
                    let sl = pre_s[k];
                    let ql = pre_q[k];
                    let sse_l = ql - sl * sl / nl as f64;
                    let sr = sum - sl;
                    let qr = sum_sq - ql;
                    let sse_r = qr - sr * sr / nr as f64;
                    let sse = sse_l + sse_r;
                    if best.is_none_or(|(_, _, b)| sse < b) {
                        let thr = (v + pairs[k].0) / 2.0;
                        best = Some((f, thr, sse));
                    }
                }
                k += step;
            }
        }

        best.and_then(|(f, thr, sse)| {
            if sse < parent_sse - 1e-9 {
                Some((f, thr))
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use concordia_stats::rng::Rng;
    use proptest::prelude::*;

    fn fv(vals: &[(usize, f64)]) -> FeatureVec {
        let mut x = [0.0; NUM_FEATURES];
        for &(i, v) in vals {
            x[i] = v;
        }
        x
    }

    #[test]
    fn splits_a_step_function_perfectly() {
        // y = 10 for x0 < 5, y = 50 for x0 >= 5 — one split suffices.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..200 {
            let v = i as f64 / 20.0; // 0..10
            xs.push(fv(&[(0, v)]));
            ys.push(if v < 5.0 { 10.0 } else { 50.0 });
        }
        // 19 thresholds over 200 samples puts a candidate cut exactly at
        // the class boundary (position 100).
        let cfg = TreeConfig {
            max_depth: 4,
            min_leaf: 10,
            n_thresholds: 19,
        };
        let (tree, leaves) = Tree::fit(&xs, &ys, &[0], &cfg);
        assert!(tree.n_leaves() >= 2);
        // Every leaf must be pure.
        for leaf in &leaves {
            let vals: Vec<f64> = leaf.iter().map(|&i| ys[i]).collect();
            let first = vals[0];
            assert!(vals.iter().all(|&v| v == first), "impure leaf {vals:?}");
        }
        // Routing agrees with training assignment.
        assert_ne!(
            tree.leaf_of(&fv(&[(0, 1.0)])),
            tree.leaf_of(&fv(&[(0, 9.0)]))
        );
    }

    #[test]
    fn respects_min_leaf() {
        let mut rng = Rng::new(1);
        let xs: Vec<FeatureVec> = (0..300).map(|_| fv(&[(0, rng.f64())])).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 100.0).collect();
        let cfg = TreeConfig {
            max_depth: 10,
            min_leaf: 40,
            n_thresholds: 16,
        };
        let (_, leaves) = Tree::fit(&xs, &ys, &[0], &cfg);
        for leaf in &leaves {
            assert!(leaf.len() >= 40, "leaf of size {}", leaf.len());
        }
    }

    #[test]
    fn respects_max_depth() {
        let mut rng = Rng::new(2);
        let xs: Vec<FeatureVec> = (0..4000).map(|_| fv(&[(0, rng.f64())])).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 100.0).collect();
        let cfg = TreeConfig {
            max_depth: 3,
            min_leaf: 2,
            n_thresholds: 16,
        };
        let (tree, _) = Tree::fit(&xs, &ys, &[0], &cfg);
        assert!(
            tree.n_leaves() <= 8,
            "2^3 leaves max, got {}",
            tree.n_leaves()
        );
    }

    #[test]
    fn picks_the_informative_feature() {
        // y depends on feature 3 only; features 0-2 are noise.
        let mut rng = Rng::new(3);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..500 {
            let x = fv(&[
                (0, rng.f64()),
                (1, rng.f64()),
                (2, rng.f64()),
                (3, rng.f64() * 10.0),
            ]);
            ys.push(if x[3] > 5.0 { 100.0 } else { 0.0 });
            xs.push(x);
        }
        let (tree, _) = Tree::fit(&xs, &ys, &[0, 1, 2, 3], &TreeConfig::default());
        // The root split must use feature 3.
        match tree.nodes[0] {
            Node::Split { feature, .. } => assert_eq!(feature, 3),
            Node::Leaf { .. } => panic!("expected a split at the root"),
        }
    }

    #[test]
    fn leaf_partition_covers_all_samples_once() {
        let mut rng = Rng::new(4);
        let xs: Vec<FeatureVec> = (0..800)
            .map(|_| fv(&[(0, rng.f64()), (1, rng.f64())]))
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 10.0 + x[1]).collect();
        let (tree, leaves) = Tree::fit(&xs, &ys, &[0, 1], &TreeConfig::default());
        let total: usize = leaves.iter().map(|l| l.len()).sum();
        assert_eq!(total, xs.len());
        // leaf_of must agree with the training partition.
        for (leaf_id, samples) in leaves.iter().enumerate() {
            for &i in samples {
                assert_eq!(tree.leaf_of(&xs[i]), leaf_id);
            }
        }
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let xs: Vec<FeatureVec> = (0..100).map(|i| fv(&[(0, i as f64)])).collect();
        let ys = vec![7.0; 100];
        let (tree, leaves) = Tree::fit(&xs, &ys, &[0], &TreeConfig::default());
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(leaves[0].len(), 100);
    }

    #[test]
    fn variance_reduction_monotone_with_depth() {
        // Deeper trees must not have higher within-leaf SSE.
        let mut rng = Rng::new(5);
        let xs: Vec<FeatureVec> = (0..2000).map(|_| fv(&[(0, rng.f64() * 10.0)])).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0].powi(2) + rng.normal()).collect();
        let sse_at = |depth: u32| {
            let cfg = TreeConfig {
                max_depth: depth,
                min_leaf: 20,
                n_thresholds: 16,
            };
            let (_, leaves) = Tree::fit(&xs, &ys, &[0], &cfg);
            leaves
                .iter()
                .map(|l| {
                    let m = l.iter().map(|&i| ys[i]).sum::<f64>() / l.len() as f64;
                    l.iter().map(|&i| (ys[i] - m).powi(2)).sum::<f64>()
                })
                .sum::<f64>()
        };
        let s1 = sse_at(1);
        let s3 = sse_at(3);
        let s6 = sse_at(6);
        assert!(s1 >= s3 && s3 >= s6, "{s1} {s3} {s6}");
        assert!(s6 < s1 * 0.2, "depth 6 should explain most variance");
    }

    /// A sample with five candidate columns: 0 a 3-value grid (heavy
    /// ties), 1 signed zeros among small values, 2 a duplicate of 0, 3
    /// constant, 4 a continuous draw. The target is tied and zero-signed
    /// too, or large enough that its sums depend on the order of addition.
    pub(crate) fn tie_heavy_sample(
        (grid, zsel, raw, noise, ysel): (u8, u8, f64, f64, u8),
    ) -> (FeatureVec, f64) {
        let g = (grid % 3) as f64;
        let z = match zsel {
            0 => 0.0,
            1 => -0.0,
            2 => raw.fract(),
            _ => -raw.fract(),
        };
        let x = fv(&[(0, g), (1, z), (2, g), (3, 4.0), (4, raw)]);
        let y = match ysel {
            0 => 0.0,
            1 => -0.0,
            2 => g,
            3 => 10.0 * g + z + noise,
            // Large and nearly equal: sums that depend on addition order.
            _ => 1e9 * (g + 1.0) + noise,
        };
        (x, y)
    }

    /// Tree fields compared bit for bit: `Debug` prints each threshold in
    /// its shortest round-trip form, so `-0.0` and `0.0` differ.
    pub(crate) fn bits(tree: &Tree) -> String {
        format!("{tree:?}")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn presorted_fit_matches_reference(
            rows in proptest::collection::vec((0u8..3, 0u8..4, 0.0f64..100.0, -1.0f64..1.0, 0u8..5), 1..120),
            min_leaf in 1usize..40,
            max_depth in 0u32..8,
            n_thresholds in 1usize..20,
            feats in proptest::collection::vec(0usize..5, 1..6),
            near in 0usize..8,
        ) {
            // Half the cases cut the data to within a few samples of
            // 2·min_leaf, where a node is just big enough to split.
            let keep = if near % 2 == 0 { (2 * min_leaf + near).saturating_sub(4).max(1) } else { rows.len() };
            let (xs, ys): (Vec<FeatureVec>, Vec<f64>) =
                rows.iter().take(keep).copied().map(tie_heavy_sample).unzip();
            let cfg = TreeConfig { max_depth, min_leaf, n_thresholds };
            let (want, want_leaves) = reference::fit(&xs, &ys, &feats, &cfg);
            let (got, got_leaves) = Tree::fit(&xs, &ys, &feats, &cfg);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(&got_leaves, &want_leaves);
            // A presort of every column, as backwards elimination and
            // boosting share one across fits, gives the same tree.
            let presort = Presort::new(&xs, &[0, 1, 2, 3, 4]);
            // Ties keep sample order, the order a per-node stable sort sees.
            for (f, ids) in presort.ids.iter().enumerate().take(5) {
                for w in ids.windows(2) {
                    let (a, b) = (xs[w[0] as usize][f], xs[w[1] as usize][f]);
                    prop_assert!(a < b || (a == b && w[0] < w[1]), "feature {} order {:?}", f, w);
                }
            }
            let (shared, shared_leaves) = Tree::fit_presorted(&xs, &ys, &feats, &cfg, &presort);
            prop_assert_eq!(bits(&shared), bits(&want));
            prop_assert_eq!(&shared_leaves, &want_leaves);
        }
    }
}
