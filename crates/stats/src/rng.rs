//! Seedable pseudo-random number generation and the distributions used by
//! the traffic, cost and platform simulators.
//!
//! The generator is xoshiro256++ seeded through SplitMix64, the standard
//! construction recommended by its authors. We implement it locally (rather
//! than pulling `rand` into the hot simulation path) so that simulation
//! results are stable across dependency upgrades: a given seed will produce
//! the same experiment output forever.

/// A deterministic xoshiro256++ pseudo-random number generator.
///
/// Cheap to fork: [`Rng::fork`] derives an independent child stream, which
/// the simulators use to give every cell / worker / workload its own stream
/// so that adding one component never perturbs the draws of another.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derives an independent child generator, keyed by `stream` so that the
    /// same parent seed plus the same stream id always yields the same child.
    pub fn fork(&self, stream: u64) -> Self {
        // Mix the current state with the stream id through SplitMix64 to
        // decorrelate the child from both the parent and sibling streams.
        let mut sm = self.s[0]
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream ^ 0xD1B5_4A32_D192_ED03);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let low = m as u64;
            if low >= n {
                return (m >> 64) as u64;
            }
            // Rejection zone: only entered when low < n.
            let threshold = n.wrapping_neg() % n;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli draw with success probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal via Box–Muller (the cache-free branch; we discard the
    /// paired deviate to keep the generator stateless between draws).
    pub fn normal(&mut self) -> f64 {
        loop {
            let u = self.f64();
            if u > 0.0 {
                let v = self.f64();
                return (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos();
            }
        }
    }

    /// Normal with explicit mean and standard deviation.
    #[inline]
    pub fn normal_ms(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.normal()
    }

    /// Lognormal with the given parameters of the *underlying* normal.
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Exponential with the given mean (not rate).
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        loop {
            let u = self.f64();
            if u > 0.0 {
                return -mean * u.ln();
            }
        }
    }

    /// Pareto (type I) with scale `xm > 0` and shape `alpha > 0`.
    ///
    /// Heavy-tailed burst sizes in the traffic model and the rare long OS
    /// wake stalls both use this.
    #[inline]
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        loop {
            let u = self.f64();
            if u > 0.0 {
                return xm / u.powf(1.0 / alpha);
            }
        }
    }

    /// Samples an index according to the (unnormalized, non-negative)
    /// weights. Panics if all weights are zero or the slice is empty.
    pub fn categorical(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "categorical needs a positive total weight");
        let mut target = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "seeds 1 and 2 should produce distinct streams");
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let parent = Rng::new(7);
        let mut c1 = parent.fork(0);
        let mut c1b = parent.fork(0);
        let mut c2 = parent.fork(1);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        let overlap = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(overlap < 4);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_unbiased_small_range() {
        let mut r = Rng::new(9);
        let mut counts = [0usize; 5];
        let n = 100_000;
        for _ in 0..n {
            counts[r.below(5) as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.2).abs() < 0.01, "bucket fraction {frac}");
        }
    }

    #[test]
    fn range_u64_inclusive_bounds_hit() {
        let mut r = Rng::new(11);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let x = r.range_u64(3, 6);
            assert!((3..=6).contains(&x));
            saw_lo |= x == 3;
            saw_hi |= x == 6;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(5);
        let n = 200_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.normal();
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = Rng::new(6);
        let n = 200_000;
        let mean = (0..n).map(|_| r.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn pareto_lower_bound_respected() {
        let mut r = Rng::new(8);
        for _ in 0..10_000 {
            assert!(r.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn pareto_heavy_tail() {
        // alpha=1.2 Pareto should show values >10x the scale reasonably often.
        let mut r = Rng::new(10);
        let big = (0..100_000).filter(|_| r.pareto(1.0, 1.2) > 10.0).count();
        assert!(big > 3000, "tail count {big}");
    }

    #[test]
    fn categorical_respects_weights() {
        let mut r = Rng::new(12);
        let mut c = [0usize; 3];
        for _ in 0..90_000 {
            c[r.categorical(&[1.0, 2.0, 6.0])] += 1;
        }
        assert!(c[2] > c[1] && c[1] > c[0]);
        let frac2 = c[2] as f64 / 90_000.0;
        assert!((frac2 - 6.0 / 9.0).abs() < 0.02);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(13);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
