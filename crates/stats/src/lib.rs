//! # concordia-stats
//!
//! Deterministic, dependency-light statistics toolkit backing the Concordia
//! reproduction. Everything here is driven by an explicit seed so that every
//! experiment in the repository is bit-reproducible.
//!
//! The modules map one-to-one onto the statistical machinery the paper uses:
//!
//! * [`rng`] — seedable PRNG and the distributions the simulators draw from
//!   (uniform, normal, lognormal, exponential, Pareto).
//! * [`summary`] — exact quantiles, empirical CDFs, the normal quantile.
//! * [`hist`] — the log2-bucketed histogram (Fig. 10 of the paper reports
//!   scheduling latency in 0–1/2–3/4–7/… µs buckets).
//! * [`tests`] — two-sample Kolmogorov–Smirnov test (used in §4.1 to show
//!   interference changes runtime distributions) and the Wasserstein-1
//!   distance (used in Fig. 7b to rank distorted leaves).
//! * [`dcor`] — distance correlation (Székely–Rizzo), the feature-ranking
//!   metric of Algorithm 1.
//! * [`evt`] — block-maxima extreme-value fitting (Gumbel) for the
//!   conventional single-value pWCET baseline of §6.3.
//! * [`linalg`] — small dense matrices and a Gaussian-elimination solver for
//!   the linear-regression predictor baseline.
//! * [`ring`] — the fixed-capacity ring buffer with O(1) amortized maximum
//!   used for the 5 000-entry leaf sample buffers of Algorithm 2.
//! * [`chacha`] — ChaCha-block seed derivation for the parallel experiment
//!   runner (per-run root seeds as a pure function of master seed × index).

pub mod chacha;
pub mod dcor;
pub mod evt;
pub mod hist;
pub mod linalg;
pub mod ring;
pub mod rng;
pub mod summary;
pub mod tests;

pub use dcor::distance_correlation;
pub use evt::GumbelFit;
pub use hist::Log2Histogram;
pub use linalg::Matrix;
pub use ring::MaxRingBuffer;
pub use rng::Rng;
pub use summary::{quantile, Ecdf};
pub use tests::{ks_two_sample, wasserstein1};
