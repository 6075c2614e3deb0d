//! Distance correlation (Székely, Rizzo, Bakirov 2007).
//!
//! Algorithm 1 of the paper ranks candidate features by their distance
//! correlation with the task runtime (via R's `Rfast::dcor` in the original
//! pipeline). Unlike Pearson correlation, distance correlation detects
//! *non-linear* dependence — which matters because §4.1 shows task runtimes
//! depend non-linearly on several inputs (core count, SNR, link adaptation).
//!
//! This is the direct estimator, in O(n²) time and O(n) memory: no distance
//! matrix is ever stored. The double-centered distance
//! `|xi - xj| - ((ri + rj) - g)` is rebuilt from the sample, its distance
//! row means `r` and their grand mean `g` at the point of use, with the
//! floating-point operations of the textbook matrix form in the same order,
//! so the result is bit-identical to it for finite inputs.
//! [`CenteredSample`] holds one side's row means, and
//! [`CenteredSample::dcor_columns`] scores many columns against it in one
//! pass. The columns sit side by side in the lanes of a block: the pass
//! computes the fixed side's distance once per pair `(i, j)`, in row-major
//! order, and each lane adds its own column's products to its own sums.
//! Every lane thus performs the one-column loop's operations in its order,
//! and vector lanes neither reassociate nor fuse a multiply into an add, so
//! each score keeps the bits of the matrix form. The fixed side's own
//! distance variance is summed in the same pass, beside the first block's
//! lanes, in the same order. A score computed from a non-finite value is 0,
//! as a constant column's is: a NaN or infinite value in either sample
//! detects no dependence. The pass runs on AVX2 where the host has it,
//! checked at run time, and on the target's baseline vectors everywhere
//! else.

/// Columns scored side by side in one pass: two AVX2 registers, or four
/// SSE2 ones, per running sum.
const LANES: usize = 8;

/// A sample prepared as the fixed side of repeated distance correlations:
/// the row means of its distance matrix and their grand mean.
#[derive(Debug)]
pub struct CenteredSample<'a> {
    values: &'a [f64],
    row_means: Vec<f64>,
    grand: f64,
}

impl<'a> CenteredSample<'a> {
    /// Centers `values`. Panics on fewer than 2 elements.
    pub fn new(values: &'a [f64]) -> Self {
        assert!(values.len() >= 2, "dcor needs at least 2 observations");
        let (row_means, grand) = distance_row_means(values);
        CenteredSample {
            values,
            row_means,
            grand,
        }
    }

    /// Distance correlation between `x` and this sample, in `[0, 1]`: one
    /// column of [`Self::dcor_columns`]. Panics if `x` has a different
    /// length.
    pub fn dcor(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.values.len(), "dcor needs paired samples");
        self.dcor_columns(x)[0]
    }

    /// Distance correlation, in `[0, 1]`, between this sample and each
    /// column of `columns`, which holds them end to end, each as long as
    /// this sample.
    ///
    /// A constant column scores 0 (no dependence detectable) in O(n). A
    /// column holding a NaN or an infinity scores 0, and so does every
    /// column if this sample holds one. Panics if `columns` does not split
    /// into whole columns.
    pub fn dcor_columns(&self, columns: &[f64]) -> Vec<f64> {
        self.score(columns, true)
    }

    /// [`Self::dcor_columns`] on every vector tier this host runs, the
    /// baseline first: the entry point of the tests that pin each tier to
    /// the reference estimator, in this crate and in its dependents.
    #[doc(hidden)]
    pub fn dcor_columns_each_tier(&self, columns: &[f64]) -> Vec<Vec<f64>> {
        let baseline = self.score(columns, false);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return vec![baseline, self.score(columns, true)];
        }
        vec![baseline]
    }

    /// Scores `columns`, on AVX2 if `avx2` and the host has it.
    fn score(&self, columns: &[f64], avx2: bool) -> Vec<f64> {
        let n = self.values.len();
        assert_eq!(columns.len() % n, 0, "dcor needs paired samples");
        let mut scores = vec![0.0; columns.len() / n];
        // Every centered distance of a finite constant column is exactly +0,
        // so the full pass would score it 0; a non-finite one scores 0 too.
        let (index, live): (Vec<usize>, Vec<&[f64]>) = columns
            .chunks_exact(n)
            .enumerate()
            .filter(|(_, x)| !x.iter().all(|&v| v == x[0]))
            .unzip();
        let n2 = (n * n) as f64;
        let mut dvar = None;
        for (lanes, block) in index.chunks(LANES).zip(live.chunks(LANES)) {
            let (ab, aa, bb) = block_sums(avx2, self, block);
            // Every block sums the same `b·b`; the first block's serves all.
            let dvar = *dvar.get_or_insert(bb / n2);
            for (lane, &k) in lanes.iter().enumerate() {
                scores[k] = correlation(ab[lane] / n2, aa[lane] / n2, dvar);
            }
        }
        scores
    }
}

/// Distance correlation from the distance covariance `dcov2` and the two
/// distance variances; 0 if any of them is not finite.
fn correlation(dcov2: f64, dvarx: f64, dvary: f64) -> f64 {
    if !(dcov2.is_finite() && dvarx.is_finite() && dvary.is_finite()) {
        return 0.0;
    }
    let denom = (dvarx * dvary).sqrt();
    if denom <= 1e-300 {
        0.0
    } else {
        (dcov2.max(0.0) / denom).sqrt().min(1.0)
    }
}

/// Distance correlation between two equal-length samples, in `[0, 1]`.
///
/// Returns 0 when either sample is constant (no dependence detectable).
/// Panics if the slices have different lengths or fewer than 2 elements.
pub fn distance_correlation(x: &[f64], y: &[f64]) -> f64 {
    CenteredSample::new(y).dcor(x)
}

/// Per lane, the sums of `a·b` and `a·a` over every pair `(i, j)` in
/// row-major order, where `b` is `y`'s centered distance and `a` that of
/// the lane's column, for up to `LANES` columns, and the sum of `b·b` in
/// the same order; on AVX2 if `avx2` and the host has it.
fn block_sums(avx2: bool, y: &CenteredSample, columns: &[&[f64]]) -> BlockSums {
    #[cfg(target_arch = "x86_64")]
    if avx2 && is_x86_feature_detected!("avx2") {
        // SAFETY: the host supports AVX2, as checked just above.
        return unsafe { block_sums_avx2(y, columns) };
    }
    let _ = avx2; // Other targets have one tier.
    block_sums_body(y, columns)
}

/// [`block_sums_body`] compiled for AVX2: callable only where the host
/// has it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn block_sums_avx2(y: &CenteredSample, columns: &[&[f64]]) -> BlockSums {
    block_sums_body(y, columns)
}

/// Per lane the sums of `a·b` and `a·a`, and the sum of `b·b`.
type BlockSums = ([f64; LANES], [f64; LANES], f64);

/// The kernel, written once and inlined into each tier.
#[inline(always)]
fn block_sums_body(y: &CenteredSample, columns: &[&[f64]]) -> BlockSums {
    // The block transposed: row `i` holds every lane's value and row mean.
    // Lanes without a column hold zeros, and their sums are discarded.
    let n = y.values.len();
    let mut x = vec![[0.0; LANES]; n];
    let mut r = vec![[0.0; LANES]; n];
    let mut g = [0.0; LANES];
    for (lane, column) in columns.iter().enumerate() {
        let (means, grand) = distance_row_means(column);
        for ((xi, ri), (&v, m)) in x.iter_mut().zip(&mut r).zip(column.iter().zip(means)) {
            xi[lane] = v;
            ri[lane] = m;
        }
        g[lane] = grand;
    }
    let mut ab = [0.0; LANES];
    let mut aa = [0.0; LANES];
    let mut bb = 0.0;
    let mut b_row = vec![0.0; n];
    let y_rows = || y.values.iter().zip(&y.row_means);
    for ((&yi, &ryi), (xi, ri)) in y_rows().zip(x.iter().zip(&r)) {
        for (b, (&yj, &ryj)) in b_row.iter_mut().zip(y_rows()) {
            *b = centered(yi, yj, ryi, ryj, y.grand);
        }
        for (&b, (xj, rj)) in b_row.iter().zip(x.iter().zip(&r)) {
            bb += b * b;
            for lane in 0..LANES {
                let a = centered(xi[lane], xj[lane], ri[lane], rj[lane], g[lane]);
                ab[lane] += a * b;
                aa[lane] += a * a;
            }
        }
    }
    (ab, aa, bb)
}

/// Row means of the pairwise `|xi - xj|` matrix (which, the matrix being
/// symmetric, are also its column means) and their grand mean. Each row
/// adds its distances in `j` order, as its own `Iterator::sum` would (the
/// distances are at least +0, so the sum's signed-zero start does not
/// matter); looping over `j` outside lets the rows advance side by side in
/// vector lanes.
#[inline(always)]
fn distance_row_means(x: &[f64]) -> (Vec<f64>, f64) {
    let n = x.len() as f64;
    let mut row_means = vec![0.0; x.len()];
    for &xj in x {
        for (sum, &xi) in row_means.iter_mut().zip(x) {
            *sum += (xi - xj).abs();
        }
    }
    for mean in &mut row_means {
        *mean /= n;
    }
    let grand = row_means.iter().sum::<f64>() / n;
    (row_means, grand)
}

/// Entry `(i, j)` of a double-centered distance matrix, from the sample's
/// values and row means at `i` and `j` and its grand mean.
#[inline(always)]
fn centered(xi: f64, xj: f64, ri: f64, rj: f64, grand: f64) -> f64 {
    (xi - xj).abs() - (ri + rj - grand)
}

/// The estimator as first written: both double-centered distance matrices
/// materialized. The bit-identity reference for the matrix-free one.
#[cfg(test)]
mod reference {
    pub fn distance_correlation(x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dcor needs paired samples");
        let n = x.len();
        assert!(n >= 2, "dcor needs at least 2 observations");

        let a = centered_distance_matrix(x);
        let b = centered_distance_matrix(y);

        let n2 = (n * n) as f64;
        let mut dcov2 = 0.0;
        let mut dvarx = 0.0;
        let mut dvary = 0.0;
        for i in 0..n {
            for j in 0..n {
                let (aij, bij) = (a[i * n + j], b[i * n + j]);
                dcov2 += aij * bij;
                dvarx += aij * aij;
                dvary += bij * bij;
            }
        }
        dcov2 /= n2;
        dvarx /= n2;
        dvary /= n2;

        if !(dcov2.is_finite() && dvarx.is_finite() && dvary.is_finite()) {
            return 0.0; // computed from a non-finite value
        }
        let denom = (dvarx * dvary).sqrt();
        if denom <= 1e-300 {
            0.0
        } else {
            (dcov2.max(0.0) / denom).sqrt().min(1.0)
        }
    }

    /// Pairwise |xi - xj| matrix, double-centered (row mean, column mean and
    /// grand mean subtracted).
    fn centered_distance_matrix(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        let mut d = vec![0.0f64; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = (x[i] - x[j]).abs();
                d[i * n + j] = v;
                d[j * n + i] = v;
            }
        }
        let mut row_means = vec![0.0f64; n];
        for i in 0..n {
            row_means[i] = d[i * n..(i + 1) * n].iter().sum::<f64>() / n as f64;
        }
        let grand = row_means.iter().sum::<f64>() / n as f64;
        for i in 0..n {
            for j in 0..n {
                // Symmetric matrix: column mean of j == row mean of j.
                d[i * n + j] -= row_means[i] + row_means[j] - grand;
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use proptest::prelude::*;

    #[test]
    fn perfect_linear_dependence_is_one() {
        let x: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        let d = distance_correlation(&x, &y);
        assert!(d > 0.999, "dcor={d}");
    }

    #[test]
    fn detects_nonlinear_dependence_pearson_misses() {
        // y = x^2 on symmetric x has ~zero Pearson correlation but strong
        // distance correlation — exactly why Algorithm 1 uses dcor.
        let x: Vec<f64> = (-100..=100).map(|i| i as f64 / 10.0).collect();
        let y: Vec<f64> = x.iter().map(|v| v * v).collect();
        // Pearson:
        let mx = x.iter().sum::<f64>() / x.len() as f64;
        let my = y.iter().sum::<f64>() / y.len() as f64;
        let cov: f64 = x.iter().zip(&y).map(|(a, b)| (a - mx) * (b - my)).sum();
        let vx: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
        let vy: f64 = y.iter().map(|b| (b - my) * (b - my)).sum();
        let pearson = cov / (vx * vy).sqrt();
        assert!(pearson.abs() < 0.05, "pearson={pearson}");
        let d = distance_correlation(&x, &y);
        assert!(d > 0.4, "dcor={d}");
    }

    #[test]
    fn independent_samples_near_zero() {
        let mut rng = Rng::new(31);
        let x: Vec<f64> = (0..400).map(|_| rng.normal()).collect();
        let y: Vec<f64> = (0..400).map(|_| rng.normal()).collect();
        let d = distance_correlation(&x, &y);
        assert!(d < 0.2, "dcor={d}");
    }

    #[test]
    fn constant_input_is_zero() {
        let x = vec![5.0; 50];
        let y: Vec<f64> = (0..50).map(|i| i as f64).collect();
        assert_eq!(distance_correlation(&x, &y), 0.0);
        assert_eq!(distance_correlation(&y, &x), 0.0);
    }

    #[test]
    fn non_finite_values_score_zero() {
        let y: Vec<f64> = (0..50).map(|i| i as f64).collect();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut x = y.clone();
            x[7] = bad;
            assert_eq!(distance_correlation(&x, &y).to_bits(), 0.0f64.to_bits());
            // A non-finite fixed side scores every column 0, constant or not.
            let scores = CenteredSample::new(&x).dcor_columns(&[y.clone(), vec![3.0; 50]].concat());
            assert_eq!(scores, vec![0.0, 0.0]);
        }
    }

    #[test]
    fn symmetric_in_arguments() {
        let mut rng = Rng::new(32);
        let x: Vec<f64> = (0..150).map(|_| rng.f64()).collect();
        let y: Vec<f64> = x.iter().map(|v| v.sin() + 0.05 * rng.normal()).collect();
        let d1 = distance_correlation(&x, &y);
        let d2 = distance_correlation(&y, &x);
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn stronger_dependence_scores_higher() {
        let mut rng = Rng::new(33);
        let x: Vec<f64> = (0..300).map(|_| rng.f64() * 10.0).collect();
        let tight: Vec<f64> = x.iter().map(|v| v + 0.1 * rng.normal()).collect();
        let loose: Vec<f64> = x.iter().map(|v| v + 5.0 * rng.normal()).collect();
        assert!(distance_correlation(&x, &tight) > distance_correlation(&x, &loose));
    }

    /// One sample value: `sel` picks a regime — a 3-value grid (heavy
    /// ties), a signed zero, a wide draw, or a draw near zero.
    fn value((sel, raw): (u8, f64)) -> f64 {
        match sel {
            0 | 1 => raw.rem_euclid(3.0).floor(),
            2 => 0.0,
            3 => -0.0,
            4 => raw,
            _ => raw * 1e-9,
        }
    }

    fn column() -> impl Strategy<Value = Vec<(u8, f64)>> {
        proptest::collection::vec((0u8..6, -1.0e3f64..1.0e3), 2..64)
    }

    /// `n` draws of [`value`].
    fn draw(rng: &mut Rng, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| value((rng.below(6) as u8, rng.range_f64(-1.0e3, 1.0e3))))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pairwise_matches_reference_bits(x in column(), y in column()) {
            let n = x.len().min(y.len());
            let x: Vec<f64> = x[..n].iter().copied().map(value).collect();
            let y: Vec<f64> = y[..n].iter().copied().map(value).collect();
            let want = reference::distance_correlation(&x, &y).to_bits();
            prop_assert_eq!(distance_correlation(&x, &y).to_bits(), want);
            for scores in CenteredSample::new(&y).dcor_columns_each_tier(&x) {
                prop_assert_eq!(scores[0].to_bits(), want);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(320))]

        #[test]
        fn centered_sample_matches_reference_bits(
            len in (0u8..5, 2usize..64, 64usize..801),
            free in 1usize..LANES + 4,
            fill in (0u8..6, -1.0e3f64..1.0e3),
            with_nan in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            // One case in five is long, up to 800 like the ranking's
            // subsample.
            let n = if len.0 == 0 { len.2 } else { len.1 };
            let mut rng = Rng::new(seed);
            let y = draw(&mut rng, n);
            // Free columns; a constant column, the same one with its sign
            // alternating, and zeros of random sign; a duplicate of the
            // target; in half the cases a column with one NaN and one with
            // one infinity. Shuffled, they make calls of 1 to LANES + 7
            // live columns.
            let c = value(fill);
            let mut columns: Vec<Vec<f64>> = (0..free).map(|_| draw(&mut rng, n)).collect();
            columns.push(vec![c; n]);
            columns.push((0..n).map(|i| if i % 2 == 0 { c } else { -c }).collect());
            columns.push((0..n).map(|_| if rng.chance(0.5) { 0.0 } else { -0.0 }).collect());
            columns.push(y.clone());
            if with_nan == 1 {
                for bad in [f64::NAN, f64::INFINITY * c.signum()] {
                    let mut x = draw(&mut rng, n);
                    x[rng.below(n as u64) as usize] = bad;
                    columns.push(x);
                }
            }
            rng.shuffle(&mut columns);
            // The reference scores each column alone, so no lane's score
            // may depend on its neighbours, the non-finite ones' included.
            let want: Vec<u64> = columns
                .iter()
                .map(|x| reference::distance_correlation(x, &y).to_bits())
                .collect();
            for (x, &score) in columns.iter().zip(&want) {
                if x.iter().any(|v| !v.is_finite()) {
                    prop_assert_eq!(score, 0.0f64.to_bits());
                }
            }
            let target = CenteredSample::new(&y);
            for (tier, scores) in target.dcor_columns_each_tier(&columns.concat()).iter().enumerate() {
                let got: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
                prop_assert!(got == want, "tier {tier}, n {n}: {got:x?} != {want:x?}");
            }
        }
    }
}
