//! # concordia-predictor
//!
//! WCET predictors for vRAN signal-processing tasks.
//!
//! * [`api`] — the [`WcetPredictor`] trait, the per-task [`ModelBank`],
//!   and trivial constant baselines.
//! * [`tree`] — shared CART variance-minimizing tree construction.
//! * [`qdt`] — the paper's contribution: quantile decision trees with
//!   ring-buffer leaves (§4.2, Algorithms 1–2).
//! * [`featsel`] — Algorithm 1 feature selection (distance correlation +
//!   backwards elimination + hand-picked union).
//! * [`linreg`] — linear-regression baseline (§6.4).
//! * [`gbt`] — gradient-boosting baseline (§6.4).
//! * `residual` — the two baselines' online residual bound: exact and
//!   memoized, with an O(1) enclosing interval.
//! * [`evt`] — conventional single-value pWCET via Gumbel block maxima
//!   (§6.3, \[23\]).

pub mod api;
pub mod evt;
pub mod featsel;
pub mod gbt;
pub mod linreg;
pub mod qdt;
mod residual;
pub mod tree;

pub use api::{
    FixedPredictor, InflatedPredictor, MaxObservedPredictor, ModelBank, TrainingSample,
    WcetPredictor,
};
pub use evt::PwcetEvt;
pub use featsel::{select_features, FeatSelConfig};
pub use gbt::GradientBoosting;
pub use linreg::LinearRegression;
pub use qdt::{LeafStatistic, QuantileDecisionTree, LEAF_BUFFER_CAPACITY};
pub use tree::{Tree, TreeConfig};
