//! Fixed-capacity ring buffer with cheap maximum queries.
//!
//! Algorithm 2 of the paper keeps, for every leaf node of a quantile decision
//! tree, a ring buffer `B_i` of the most recent observed runtimes (5 000
//! entries in the reference implementation) and predicts
//! `WCET = max(B_i)`. The predictor runs every TTI and must be fast, so the
//! maximum is maintained incrementally: pushes are O(1) except when the
//! evicted element *was* the maximum, in which case a rescan is needed —
//! rare for runtime data, and bounded by the capacity.

/// Ring buffer of `f64` values with tracked maximum and quantile support.
#[derive(Debug, Clone)]
pub struct MaxRingBuffer {
    buf: Vec<f64>,
    capacity: usize,
    /// Next write position once the buffer has wrapped.
    head: usize,
    /// Cached index of the maximum element, or `usize::MAX` when empty.
    max_idx: usize,
}

impl MaxRingBuffer {
    /// Creates an empty buffer holding at most `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        MaxRingBuffer {
            buf: Vec::with_capacity(capacity.min(4096)),
            capacity,
            head: 0,
            max_idx: usize::MAX,
        }
    }

    /// Maximum number of retained samples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of retained samples.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no samples have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pushes a sample, evicting the oldest one if at capacity. Returns
    /// the evicted sample, so a caller can keep running sums current.
    pub fn push(&mut self, x: f64) -> Option<f64> {
        debug_assert!(!x.is_nan(), "NaN runtime sample");
        if self.buf.len() < self.capacity {
            self.buf.push(x);
            let idx = self.buf.len() - 1;
            if self.max_idx == usize::MAX || x >= self.buf[self.max_idx] {
                self.max_idx = idx;
            }
            None
        } else {
            let evict = self.head;
            let old = std::mem::replace(&mut self.buf[evict], x);
            self.head = (self.head + 1) % self.capacity;
            if evict == self.max_idx {
                // The maximum was evicted: rescan.
                self.max_idx = self.rescan_max();
            } else if x >= self.buf[self.max_idx] {
                self.max_idx = evict;
            }
            Some(old)
        }
    }

    fn rescan_max(&self) -> usize {
        let mut best = 0;
        for (i, &v) in self.buf.iter().enumerate() {
            if v > self.buf[best] {
                best = i;
            }
        }
        best
    }

    /// Current maximum, or `None` when empty. O(1).
    pub fn max(&self) -> Option<f64> {
        if self.buf.is_empty() {
            None
        } else {
            Some(self.buf[self.max_idx])
        }
    }

    /// Quantile of the retained samples (sorts a copy — use sparingly on the
    /// hot path; the predictor's default statistic is [`MaxRingBuffer::max`]).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        crate::summary::quantile(&self.buf, q)
    }

    /// Mean of the retained samples.
    pub fn mean(&self) -> Option<f64> {
        if self.buf.is_empty() {
            None
        } else {
            Some(self.buf.iter().sum::<f64>() / self.buf.len() as f64)
        }
    }

    /// Read-only view of the retained samples (unordered).
    pub fn samples(&self) -> &[f64] {
        &self.buf
    }

    /// Drops all samples.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.max_idx = usize::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn max_tracks_pushes_below_capacity() {
        let mut r = MaxRingBuffer::new(10);
        assert_eq!(r.max(), None);
        r.push(3.0);
        r.push(7.0);
        r.push(5.0);
        assert_eq!(r.max(), Some(7.0));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn eviction_of_max_triggers_rescan() {
        let mut r = MaxRingBuffer::new(3);
        r.push(9.0); // will be evicted first
        r.push(1.0);
        r.push(2.0);
        assert_eq!(r.max(), Some(9.0));
        r.push(4.0); // evicts 9.0
        assert_eq!(r.max(), Some(4.0));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn wraparound_keeps_only_last_capacity() {
        let mut r = MaxRingBuffer::new(4);
        for i in 0..10 {
            r.push(i as f64);
        }
        assert_eq!(r.len(), 4);
        // Last four pushed: 6,7,8,9.
        assert_eq!(r.max(), Some(9.0));
        let mut s: Vec<f64> = r.samples().to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(s, vec![6.0, 7.0, 8.0, 9.0]);
    }

    /// Property: over random capacities and streams, continuous or with
    /// ties and repeated maxima, `push` returns exactly what a `VecDeque`
    /// shadow evicts, and `max` equals a rescan of the retained samples.
    #[test]
    fn push_returns_the_evicted_sample_and_max_matches_a_rescan() {
        let mut rng = Rng::new(56);
        for case in 0..200 {
            let capacity = 1 + rng.below(50) as usize;
            let mut r = MaxRingBuffer::new(capacity);
            let mut shadow = std::collections::VecDeque::new();
            // One case in eight draws continuous values; the others draw
            // from 1–7 distinct values, which make ties, and evictions of
            // a tied maximum, common.
            let distinct = case % 8;
            for _ in 0..(3 * capacity + rng.below(100) as usize) {
                let x = if distinct == 0 {
                    rng.f64() * 100.0
                } else {
                    rng.below(distinct as u64) as f64 - 2.0
                };
                shadow.push_back(x);
                let expect = (shadow.len() > capacity).then(|| shadow.pop_front().unwrap());
                assert_eq!(r.push(x), expect);
                let rescan = shadow.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(r.max(), Some(rescan));
                assert_eq!(r.len(), shadow.len());
            }
        }
    }

    #[test]
    fn quantile_and_mean() {
        let mut r = MaxRingBuffer::new(5);
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            r.push(x);
        }
        assert_eq!(r.quantile(0.5), Some(3.0));
        assert_eq!(r.mean(), Some(3.0));
    }

    #[test]
    fn clear_resets() {
        let mut r = MaxRingBuffer::new(3);
        r.push(1.0);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.max(), None);
        r.push(2.0);
        assert_eq!(r.max(), Some(2.0));
    }
}
