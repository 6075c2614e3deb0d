//! The residual upper bound of the regression baselines (§6.4, Fig. 14).
//!
//! [`crate::linreg::LinearRegression`] and
//! [`crate::gbt::GradientBoosting`] both predict `mean + bound`, where
//! the bound is the Gaussian prediction-interval term
//! `mean(r) + z(confidence) · sd(r)` over a ring of the most recent
//! residuals `r`, updated online. Both predict once per task at injection,
//! and the predictor supervisor serves the inflated linear model as its
//! fallback, so the bound sits on the slot loop's hot path. A scan of the
//! 5,000 residuals on every prediction would dominate that loop.
//!
//! [`ResidualBound`] keeps the scan's exact value and makes it cheap:
//!
//! * [`ResidualBound::predict`] uses the scan's result, bit for bit. It
//!   is computed on the first call after a [`ResidualBound::push`] and
//!   memoized until the next one, so every task priced between two
//!   observations shares one scan.
//! * [`ResidualBound::predict_bounds`] costs O(1) and always contains
//!   `predict`. It comes from running sums Σr, Σr² and Σ|r|, kept current
//!   from the sample the ring evicts, each with a tracked bound on its
//!   rounding error. Callers that only compare a runtime against the
//!   prediction (the misprediction guard) decide from the interval and
//!   fall back to `predict` when the runtime lies inside it.

use concordia_stats::ring::MaxRingBuffer;
use concordia_stats::summary::normal_quantile;
use std::cell::Cell;

/// Residual ring-buffer capacity for online adaptation.
pub(crate) const RESIDUAL_BUFFER: usize = 5_000;

/// A running sum with a bound on its distance from the exact sum of the
/// terms it was given: `|sum − Σ terms| ≤ err`.
#[derive(Debug, Clone, Copy, Default)]
struct TrackedSum {
    sum: f64,
    err: f64,
}

impl TrackedSum {
    /// Adds a term whose computed value `x` lies within `x_err` of it.
    /// `fl(s + x)` lies within `u·|fl(s + x)|` of `s + x` (u = 2⁻⁵³);
    /// charging `EPSILON = 2u` leaves a factor of two that absorbs the
    /// rounding of `err`'s own additions.
    fn add(&mut self, x: f64, x_err: f64) {
        self.sum += x;
        self.err += x_err + f64::EPSILON * self.sum.abs();
    }
}

/// Σr, Σr² and Σ|r| over the ring's residuals.
#[derive(Debug, Clone, Copy, Default)]
struct Sums {
    r: TrackedSum,
    sq: TrackedSum,
    abs: TrackedSum,
}

impl Sums {
    /// Adds (`sign` = 1) or removes (`sign` = −1) one residual.
    fn add(&mut self, r: f64, sign: f64) {
        let sq = r * r;
        self.r.add(sign * r, 0.0);
        // `r * r` is within u·r² of r², plus at most half the smallest
        // subnormal if it underflows.
        self.sq
            .add(sign * sq, f64::EPSILON * sq + f64::MIN_POSITIVE);
        self.abs.add(sign * r.abs(), 0.0);
    }

    /// The sums of `xs` from one pass.
    fn of(xs: &[f64]) -> Self {
        let mut s = Sums::default();
        for &r in xs {
            s.add(r, 1.0);
        }
        s
    }
}

/// `mean + z(confidence) · sd` of the most recent residuals, with an
/// exact memoized value and an O(1) enclosing interval.
#[derive(Debug, Clone)]
pub(crate) struct ResidualBound {
    /// `normal_quantile(confidence)`, computed once.
    z: f64,
    /// Recent residuals (actual − mean prediction), online-updated.
    ring: MaxRingBuffer,
    /// Running sums over `ring`, updated on every push.
    sums: Sums,
    /// Pushes since `sums` were last recomputed by a full pass. Each
    /// push adds its rounding error to the allowances, so every
    /// `RESIDUAL_BUFFER` pushes the sums are re-anchored: the allowances
    /// then cover the current residuals only, not ones long evicted.
    since_anchor: usize,
    /// The exact bound of the current residuals, once computed.
    memo: Cell<Option<f64>>,
}

impl ResidualBound {
    /// An empty ring with the bound at the given confidence.
    pub(crate) fn new(confidence: f64) -> Self {
        ResidualBound {
            z: normal_quantile(confidence),
            ring: MaxRingBuffer::new(RESIDUAL_BUFFER),
            sums: Sums::default(),
            since_anchor: 0,
            memo: Cell::new(None),
        }
    }

    /// Records one residual, evicting the oldest at capacity.
    pub(crate) fn push(&mut self, r: f64) {
        let evicted = self.ring.push(r);
        self.since_anchor += 1;
        if self.since_anchor == RESIDUAL_BUFFER {
            self.sums = Sums::of(self.ring.samples());
            self.since_anchor = 0;
        } else {
            self.sums.add(r, 1.0);
            if let Some(e) = evicted {
                self.sums.add(e, -1.0);
            }
        }
        self.memo.set(None);
    }

    /// The prediction for a regression mean: `max(0, mean + bound)`.
    pub(crate) fn predict(&self, mean: f64) -> f64 {
        (mean + self.value()).max(0.0)
    }

    /// An interval that contains `predict(mean)`, in O(1). Rounded
    /// addition and `max` are monotone, so the bound's interval carries
    /// over.
    pub(crate) fn predict_bounds(&self, mean: f64) -> (f64, f64) {
        let (lo, hi) = self.interval();
        ((mean + lo).max(0.0), (mean + hi).max(0.0))
    }

    /// The bound: `mean + z · sd` of the residuals, 0 with fewer than two.
    fn value(&self) -> f64 {
        if let Some(b) = self.memo.get() {
            return b;
        }
        let b = self.scan();
        self.memo.set(Some(b));
        b
    }

    /// Gaussian prediction-interval bound: `mean + z(confidence) * sd` of
    /// the recent residuals — the standard "prediction interval" recipe the
    /// paper applies to its regression baselines (§6.4). A single global
    /// interval under-covers the large-input regime when the noise is
    /// multiplicative, which is exactly the Fig. 14 failure mode.
    /// Recomputed from every residual; `value` memoizes it.
    pub(crate) fn scan(&self) -> f64 {
        let xs = self.ring.samples();
        if xs.len() < 2 {
            return 0.0;
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / (n - 1.0);
        mean + self.z * var.sqrt()
    }

    /// An interval `(lo, hi)` that contains `value()`, in O(1): the memo
    /// at both ends when it is current, else from the running sums.
    ///
    /// With `n` residuals, `scan` sums `n` terms twice and rounds a few
    /// more times; every one of its roundings, and every rounding below,
    /// is covered by the relative allowance `g = (n + 16)·EPSILON`, which
    /// exceeds the recursive-summation factor γₙ₊₁₆ = (n + 16)u/(1 − (n +
    /// 16)u). So scan's mean lies within `(e₁ + g·(Σ|r| + |s₁|))/n` of
    /// `s₁/n`, where `s₁ ± e₁` encloses Σr. Its sum of squared deviations
    /// lies in `Σr² − (Σr)²/n` widened by `2g·(Σr² + (Σr)²/n)`, which
    /// also covers centring on its rounded mean instead of the exact one.
    fn interval(&self) -> (f64, f64) {
        if let Some(b) = self.memo.get() {
            return (b, b);
        }
        let n = self.ring.len();
        if n < 2 {
            return (0.0, 0.0);
        }
        let nf = n as f64;
        let g = (nf + 16.0) * f64::EPSILON;
        let Sums { r, sq, abs } = self.sums;

        let mean = r.sum / nf;
        let mean_err = (r.err + g * (abs.sum + abs.err + r.sum.abs())) / nf;

        // |Σr| lies in [lo1, hi1], Σr² within sq.err of sq.sum.
        let hi1 = r.sum.abs() + r.err;
        let lo1 = (r.sum.abs() - r.err).max(0.0);
        let slack = 2.0 * g * (sq.sum + sq.err + hi1 * hi1 / nf) + nf * f64::MIN_POSITIVE;
        let dev_lo = (sq.sum - sq.err - hi1 * hi1 / nf - slack).max(0.0);
        let dev_hi = sq.sum + sq.err - lo1 * lo1 / nf + slack;
        let sd_lo = (dev_lo / (nf - 1.0)).sqrt() * (1.0 - g);
        let sd_hi = (dev_hi / (nf - 1.0)).sqrt() * (1.0 + g);
        // A confidence below 0.5 makes z negative: the smaller deviation
        // then bounds the sum from above.
        let (t_lo, t_hi) = if self.z >= 0.0 {
            (self.z * sd_lo, self.z * sd_hi)
        } else {
            (self.z * sd_hi, self.z * sd_lo)
        };
        let pad = g * (mean.abs() + mean_err + t_lo.abs().max(t_hi.abs())) + f64::MIN_POSITIVE;
        (mean - mean_err + t_lo - pad, mean + mean_err + t_hi + pad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concordia_stats::rng::Rng;

    /// Checks `interval` against a fresh scan without touching the memo.
    fn assert_encloses(b: &ResidualBound, what: &str) {
        let (lo, hi) = b.interval();
        let exact = b.scan();
        assert!(
            lo <= exact && exact <= hi,
            "{what}: {exact} outside [{lo}, {hi}] with {} residuals",
            b.ring.len()
        );
    }

    /// One adversarial residual: magnitudes from 1e-6 to 1e6 with random
    /// signs.
    fn wild(rng: &mut Rng) -> f64 {
        let magnitude = 10f64.powf(rng.range_f64(-6.0, 6.0));
        if rng.chance(0.5) {
            -magnitude
        } else {
            magnitude
        }
    }

    /// Property: the interval contains the exact bound on adversarial
    /// streams: wild magnitudes and sign flips, constant runs (zero
    /// variance), a switch from 1e6 to 1e-6 residuals that evicts the
    /// largest first, buffers from 2 residuals to full, and confidences
    /// on both sides of 0.5.
    #[test]
    fn interval_contains_the_exact_bound_on_adversarial_streams() {
        let mut rng = Rng::new(2024);
        for (case, &confidence) in [0.99999, 0.9, 0.5, 0.3, 1e-5].iter().enumerate() {
            // Wild magnitudes through fill, eviction and re-anchoring.
            let mut b = ResidualBound::new(confidence);
            for i in 0..2 * RESIDUAL_BUFFER + 700 {
                b.push(wild(&mut rng));
                if i < 50 || i % 97 == case {
                    assert_encloses(&b, "wild");
                }
            }

            // Constant runs: zero variance, with and without an offset.
            for &c in &[0.0, 1e-6, -3.5, 1e6] {
                let mut b = ResidualBound::new(confidence);
                for i in 0..RESIDUAL_BUFFER + 300 {
                    b.push(c);
                    if i < 20 || i % 211 == 0 {
                        assert_encloses(&b, "constant");
                    }
                }
            }

            // A regime switch from 1e6 to 1e-6 residuals that starts at a
            // re-anchor: the large ones, the largest first, leave the ring
            // one eviction at a time, and the sums carry their rounding
            // until the next re-anchor, when none of them is left.
            let mut b = ResidualBound::new(confidence);
            b.push(1e7);
            for _ in 2..RESIDUAL_BUFFER {
                b.push(1e6 * rng.normal());
            }
            b.push(1e-6 * rng.normal());
            for i in 0..RESIDUAL_BUFFER - 1 {
                b.push(1e-6 * rng.normal());
                if i < 10 || i % 53 == case || i >= RESIDUAL_BUFFER - 200 {
                    assert_encloses(&b, "regime switch");
                }
            }

            // Short buffers: two residuals upwards, sign-flipping.
            for len in 2..40 {
                let mut b = ResidualBound::new(confidence);
                let scale = wild(&mut rng);
                for i in 0..len {
                    b.push(if i % 2 == 0 {
                        scale
                    } else {
                        -scale * rng.f64()
                    });
                }
                assert_encloses(&b, "short");
            }
        }
    }

    /// Property: the relative allowance g alone covers `scan`'s own
    /// rounding. Integer residuals below 2²⁰ in magnitude make every r²
    /// and every running sum of up to 5,000 of them exact, so the sums'
    /// tracked allowances can be zeroed; what is left of the interval's
    /// width is g's, and it must still contain a fresh scan.
    #[test]
    fn interval_covers_the_scans_rounding_when_the_sums_are_exact() {
        let mut rng = Rng::new(2020);
        for case in 0..400 {
            let confidence = [0.99999, 0.9, 0.3][case % 3];
            let len = rng.range_u64(2, RESIDUAL_BUFFER as u64) as usize;
            // Magnitudes up to 2²⁰ − 1, spread over every power of two.
            let bits = rng.range_u64(1, 20);
            let scale = rng.range_u64(1, (1 << bits) - 1);
            let mut b = ResidualBound::new(confidence);
            for _ in 0..len {
                b.push(rng.range_u64(0, 2 * scale) as f64 - scale as f64);
            }
            b.sums.r.err = 0.0;
            b.sums.sq.err = 0.0;
            b.sums.abs.err = 0.0;
            assert_encloses(&b, "exact sums");
        }
    }

    /// Property: after any interleaving of reads and pushes, the memoized
    /// value equals a fresh scan, and the interval collapses to it.
    #[test]
    fn memoized_value_equals_a_fresh_scan() {
        let mut rng = Rng::new(7);
        let mut b = ResidualBound::new(0.99999);
        assert_eq!(b.value(), 0.0);
        for _ in 0..3 * RESIDUAL_BUFFER {
            match rng.below(8) {
                0 => {
                    let v = b.value();
                    assert_eq!(v.to_bits(), b.scan().to_bits());
                    assert_eq!(b.interval(), (v, v));
                }
                1 => assert_encloses(&b, "between pushes"),
                _ => b.push(50.0 + 10.0 * rng.normal()),
            }
        }
    }
}
