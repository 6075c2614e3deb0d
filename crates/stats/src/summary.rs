//! Exact quantiles, empirical CDFs and the normal quantile.
//!
//! The paper reports 99.99 % and 99.999 % latency percentiles throughout its
//! evaluation (Figs. 4b, 11, 12, 13b, 15b); [`quantile`] and [`Ecdf`] are the
//! primitives those reports are computed with.

/// Exact quantile of a sample via sorting, with linear interpolation between
/// order statistics (type-7 estimator, the numpy/R default).
///
/// `q` must be in `[0, 1]`. Returns `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0,1]");
    let mut xs: Vec<f64> = samples.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    Some(quantile_sorted(&xs, q))
}

/// Quantile of an already-sorted slice (ascending). See [`quantile`].
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = h - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// An empirical cumulative distribution function over a frozen sample.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF; `samples` may be in any order. Panics on NaN.
    pub fn new(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in ECDF input"));
        Ecdf { sorted }
    }

    /// `F(x)` — fraction of samples `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point gives the count of elements <= x.
        let cnt = self.sorted.partition_point(|&v| v <= x);
        cnt as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF (quantile function).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(quantile_sorted(&self.sorted, q))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_median_and_extremes() {
        let xs = [3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(quantile(&xs, 0.5), Some(3.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(quantile(&xs, 0.25), Some(2.5));
        assert_eq!(quantile(&xs, 0.75), Some(7.5));
    }

    #[test]
    fn quantile_empty_is_none() {
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_sorted_extremes_and_singleton() {
        // q=0 and q=1 must return the exact min/max with no interpolation
        // drift, at any length.
        let xs = [1.5, 2.5, 7.0, 9.25];
        assert_eq!(quantile_sorted(&xs, 0.0), 1.5);
        assert_eq!(quantile_sorted(&xs, 1.0), 9.25);
        // A single-element sample answers that element for every q.
        let one = [42.0];
        for q in [0.0, 0.25, 0.5, 0.9999, 1.0] {
            assert_eq!(quantile_sorted(&one, q), 42.0);
        }
        // Two elements: endpoints exact, midpoint interpolated.
        let two = [10.0, 20.0];
        assert_eq!(quantile_sorted(&two, 0.0), 10.0);
        assert_eq!(quantile_sorted(&two, 1.0), 20.0);
        assert_eq!(quantile_sorted(&two, 0.5), 15.0);
    }

    #[test]
    fn ecdf_eval_and_inverse() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(2.0), 0.5);
        assert_eq!(e.eval(10.0), 1.0);
        assert_eq!(e.quantile(0.0), Some(1.0));
        assert_eq!(e.quantile(1.0), Some(4.0));
    }

    #[test]
    fn ecdf_tail_quantile_on_large_sample() {
        let xs: Vec<f64> = (0..100_000).map(|i| i as f64).collect();
        let e = Ecdf::new(&xs);
        let p9999 = e.quantile(0.9999).unwrap();
        assert!((p9999 - 99_989.0).abs() < 2.0, "p9999 {p9999}");
    }
}

/// Inverse standard-normal CDF (Acklam's rational approximation, ~1e-9
/// absolute error). Used for Gaussian prediction intervals (e.g. the
/// z-value of a 0.99999 one-sided bound).
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal_quantile needs p in (0,1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

#[cfg(test)]
mod normal_quantile_tests {
    use super::normal_quantile;

    #[test]
    fn known_values() {
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.99999) - 4.264891).abs() < 1e-3);
        assert!((normal_quantile(0.025) + 1.959964).abs() < 1e-4);
    }

    #[test]
    fn monotone() {
        let mut prev = f64::NEG_INFINITY;
        for i in 1..100 {
            let v = normal_quantile(i as f64 / 100.0);
            assert!(v > prev);
            prev = v;
        }
    }
}
