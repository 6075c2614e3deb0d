//! The power-of-two histogram.
//!
//! [`Log2Histogram`] reproduces the bucket layout of the paper's Fig. 10
//! (scheduling latency in 0–1, 2–3, 4–7, 8–15, … µs buckets — i.e. powers of
//! two).

/// Power-of-two bucketed histogram over non-negative integers, matching the
/// `runqlat`-style output the paper shows in Fig. 10: bucket `k` covers
/// `[2^k - ... ]` — concretely bucket 0 is `0–1`, bucket 1 is `2–3`,
/// bucket 2 is `4–7`, bucket 3 is `8–15`, and so on.
#[derive(Debug, Clone, Default)]
pub struct Log2Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a value: 0 for 0–1, 1 for 2–3, 2 for 4–7, …
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            (63 - value.leading_zeros()) as usize
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let b = Self::bucket_of(value);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
    }

    /// Per-bucket counts (bucket 0 first). Trailing zero buckets are absent.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Inclusive `(lo, hi)` value range of bucket `i`, e.g. `(4, 7)` for 2.
    pub fn bucket_range(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 1)
        } else if i >= 63 {
            // Top bucket: `(1 << 64) - 1` would overflow u64; everything
            // from 2^63 up (including u64::MAX) lands here.
            (1 << 63, u64::MAX)
        } else {
            (1 << i, (1 << (i + 1)) - 1)
        }
    }

    /// Human-readable label like `"4-7"`.
    pub fn bucket_label(i: usize) -> String {
        let (lo, hi) = Self::bucket_range(i);
        format!("{lo}-{hi}")
    }

    /// Count of values in buckets whose lower bound is `>= threshold`.
    pub fn count_at_or_above(&self, threshold: u64) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .filter(|(i, _)| Self::bucket_range(*i).0 >= threshold)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_bucket_of_matches_runqlat_layout() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 0);
        assert_eq!(Log2Histogram::bucket_of(2), 1);
        assert_eq!(Log2Histogram::bucket_of(3), 1);
        assert_eq!(Log2Histogram::bucket_of(4), 2);
        assert_eq!(Log2Histogram::bucket_of(7), 2);
        assert_eq!(Log2Histogram::bucket_of(8), 3);
        assert_eq!(Log2Histogram::bucket_of(15), 3);
        assert_eq!(Log2Histogram::bucket_of(63), 5);
        assert_eq!(Log2Histogram::bucket_of(64), 6);
    }

    #[test]
    fn log2_bucket_ranges_and_labels() {
        assert_eq!(Log2Histogram::bucket_range(0), (0, 1));
        assert_eq!(Log2Histogram::bucket_range(3), (8, 15));
        assert_eq!(Log2Histogram::bucket_label(2), "4-7");
    }

    #[test]
    fn log2_bucket_of_boundary_values() {
        // Degenerate low end: 0, 1 share bucket 0; 2 opens bucket 1.
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 0);
        assert_eq!(Log2Histogram::bucket_of(2), 1);
        // 2^k - 1 closes bucket k-1; 2^k opens bucket k, at every width.
        for k in 2..64u32 {
            let lo = 1u64 << k;
            assert_eq!(Log2Histogram::bucket_of(lo - 1), (k - 1) as usize);
            assert_eq!(Log2Histogram::bucket_of(lo), k as usize);
        }
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn log2_top_bucket_does_not_overflow() {
        // bucket_of(u64::MAX) = 63; the old bucket_range(63) computed
        // (1 << 64) - 1 and panicked in debug builds.
        assert_eq!(Log2Histogram::bucket_range(63), (1 << 63, u64::MAX));
        let mut h = Log2Histogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.total(), 2);
        assert_eq!(h.count_at_or_above(1 << 63), 1);
        // The label must render, not panic.
        assert!(Log2Histogram::bucket_label(63).ends_with(&u64::MAX.to_string()));
    }

    #[test]
    fn log2_record_and_tail_count() {
        let mut h = Log2Histogram::new();
        for v in [0, 1, 3, 5, 70, 200] {
            h.record(v);
        }
        assert_eq!(h.total(), 6);
        // Values >= 64: 70 (bucket 6) and 200 (bucket 7).
        assert_eq!(h.count_at_or_above(64), 2);
        assert_eq!(h.count_at_or_above(0), 6);
    }

    #[test]
    fn log2_merge() {
        let mut a = Log2Histogram::new();
        a.record(1);
        a.record(100);
        let mut b = Log2Histogram::new();
        b.record(5);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count_at_or_above(64), 1);
    }
}
