//! Extreme-value theory: block maxima and Gumbel fitting.
//!
//! The conventional probabilistic-WCET baseline the paper compares against in
//! §6.3 (\[23\], measurement-based probabilistic timing analysis) predicts a
//! *single* WCET per task — regardless of input — at a confidence such as
//! 0.99999, by fitting an extreme-value distribution to block maxima of
//! observed runtimes. `GumbelFit` implements that estimator.

/// A fitted Gumbel (type-I extreme value) distribution
/// `F(x) = exp(-exp(-(x - mu)/beta))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GumbelFit {
    /// Location parameter.
    pub mu: f64,
    /// Scale parameter (> 0).
    pub beta: f64,
}

/// Euler–Mascheroni constant.
const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

impl GumbelFit {
    /// Fits a Gumbel distribution to the given sample by the method of
    /// moments: `beta = s * sqrt(6)/pi`, `mu = mean - gamma * beta`.
    ///
    /// Returns `None` for samples with fewer than 2 points or zero variance.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.len() < 2 {
            return None;
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        if var <= 0.0 {
            return None;
        }
        let beta = var.sqrt() * (6.0f64).sqrt() / std::f64::consts::PI;
        let mu = mean - EULER_GAMMA * beta;
        Some(GumbelFit { mu, beta })
    }

    /// Fits block maxima: partitions the sample into consecutive blocks of
    /// `block` observations, takes each block's maximum, and fits a Gumbel to
    /// those maxima (the classical MBPTA recipe). Trailing partial blocks are
    /// dropped. Returns `None` if fewer than 2 complete blocks exist.
    pub fn from_block_maxima(samples: &[f64], block: usize) -> Option<Self> {
        assert!(block > 0);
        let maxima: Vec<f64> = samples
            .chunks_exact(block)
            .map(|c| c.iter().cloned().fold(f64::NEG_INFINITY, f64::max))
            .collect();
        Self::from_samples(&maxima)
    }

    /// CDF `F(x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        (-(-(x - self.mu) / self.beta).exp()).exp()
    }

    /// Inverse CDF: the value exceeded with probability `1 - p`.
    ///
    /// `quantile(0.99999)` is the paper's pWCET at 5-nines confidence.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p) && p > 0.0, "p must be in (0,1)");
        self.mu - self.beta * (-p.ln()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn gumbel_sample(rng: &mut Rng, mu: f64, beta: f64) -> f64 {
        let u = rng.f64().max(1e-12);
        mu - beta * (-u.ln()).ln()
    }

    #[test]
    fn recovers_parameters_from_gumbel_data() {
        let mut rng = Rng::new(41);
        let xs: Vec<f64> = (0..200_000)
            .map(|_| gumbel_sample(&mut rng, 100.0, 10.0))
            .collect();
        let fit = GumbelFit::from_samples(&xs).unwrap();
        assert!((fit.mu - 100.0).abs() < 1.0, "mu={}", fit.mu);
        assert!((fit.beta - 10.0).abs() < 1.0, "beta={}", fit.beta);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let fit = GumbelFit {
            mu: 50.0,
            beta: 5.0,
        };
        for p in [0.5, 0.9, 0.99, 0.99999] {
            let x = fit.quantile(p);
            assert!((fit.cdf(x) - p).abs() < 1e-9);
        }
    }

    #[test]
    fn five_nines_quantile_bounds_almost_all_samples() {
        let mut rng = Rng::new(42);
        let xs: Vec<f64> = (0..100_000).map(|_| rng.lognormal(4.0, 0.2)).collect();
        let fit = GumbelFit::from_block_maxima(&xs, 50).unwrap();
        let wcet = fit.quantile(0.99999);
        let exceed = xs.iter().filter(|&&x| x > wcet).count();
        // Block-maxima pWCET should be pessimistic: essentially nothing above.
        assert_eq!(exceed, 0, "wcet={wcet} exceedances={exceed}");
    }

    #[test]
    fn pwcet_is_pessimistic_relative_to_empirical_quantile() {
        // The paper's Fig. 13 point: single-value EVT prediction is more
        // pessimistic than a parameterized model — its bound sits well above
        // the typical runtime.
        let mut rng = Rng::new(43);
        let xs: Vec<f64> = (0..50_000).map(|_| rng.lognormal(4.0, 0.3)).collect();
        let fit = GumbelFit::from_block_maxima(&xs, 100).unwrap();
        let wcet = fit.quantile(0.99999);
        let median = crate::summary::quantile(&xs, 0.5).unwrap();
        assert!(wcet > 1.5 * median, "wcet={wcet} median={median}");
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(GumbelFit::from_samples(&[1.0]).is_none());
        assert!(GumbelFit::from_samples(&[2.0; 100]).is_none());
        assert!(GumbelFit::from_block_maxima(&[1.0; 10], 10).is_none());
    }

    #[test]
    fn block_maxima_drops_partial_blocks() {
        // 25 samples with block 10 -> 2 maxima -> fit succeeds only if the
        // two maxima differ.
        let xs: Vec<f64> = (0..25).map(|i| i as f64).collect();
        let fit = GumbelFit::from_block_maxima(&xs, 10).unwrap();
        // Maxima are 9 and 19.
        assert!(fit.mu > 9.0 && fit.mu < 19.0);
    }
}
