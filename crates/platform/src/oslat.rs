//! OS scheduling (wake-up) latency model.
//!
//! §2.3: "The Linux kernel can introduce latencies that … vary from tens of
//! microseconds to tens of milliseconds … parts of the kernel are
//! non-preemptible (even with real-time patches). Therefore, the high
//! priority vRAN worker threads can be delayed from reclaiming a CPU core
//! once they yield."
//!
//! Fig. 10 (a `runqlat` histogram) shows the shape this module reproduces:
//! in isolation almost all wakes land in the 0–7 µs buckets with a thin
//! tail to 32–63 µs; with a collocated workload (Redis) mass appears in
//! the 64–255 µs buckets because the yielded core may be held by a kernel
//! thread in a non-preemptible section, queued interrupts, or RCU work.

use concordia_ran::time::Nanos;
use concordia_stats::rng::Rng;

/// Probability of a fast wake (scheduler IPI, idle core): 1–4 µs.
const FAST_PROB: f64 = 0.86;
/// Probability of a medium wake (runqueue contention): 4–16 µs.
const MEDIUM_PROB: f64 = 0.10;
/// Baseline probability of a kernel-stall wake (non-preemptible section):
/// 64–255 µs, in isolation.
const STALL_PROB_ISOLATED: f64 = 0.0008;
/// Additional stall probability per unit of best-effort cache/kernel
/// pressure (collocated workloads issue syscalls and interrupts).
const STALL_PROB_PER_PRESSURE: f64 = 0.004;
/// Baseline probability of an *extreme* hold-off (long non-preemptible
/// kernel path, §2.3: "tens of microseconds to tens of milliseconds"):
/// 0.3–6 ms.
const EXTREME_PROB_ISOLATED: f64 = 0.000_002;
/// Additional extreme-hold-off probability per unit of pressure
/// (syscall-heavy collocated workloads drive the kernel into long
/// non-preemptible sections far more often).
const EXTREME_PROB_PER_PRESSURE: f64 = 0.000_25;

/// Samples the latency between signalling a yielded worker and the worker
/// actually running, under the given best-effort `pressure` (0 = isolated
/// vRAN).
pub fn sample_wake(pressure: f64, rng: &mut Rng) -> Nanos {
    let stall_p = STALL_PROB_ISOLATED + STALL_PROB_PER_PRESSURE * pressure;
    let extreme_p = EXTREME_PROB_ISOLATED + EXTREME_PROB_PER_PRESSURE * pressure;
    let u = rng.f64();
    let us = if u < extreme_p {
        // Long non-preemptible kernel path: 0.3-6 ms.
        rng.pareto(300.0, 1.6).min(6_000.0)
    } else if u < extreme_p + stall_p {
        // Non-preemptible kernel section: 64–255 µs, Pareto-shaped.
        rng.pareto(64.0, 2.5).min(255.0)
    } else if u < extreme_p + stall_p + FAST_PROB {
        1.0 + rng.f64() * 3.0
    } else if u < extreme_p + stall_p + FAST_PROB + MEDIUM_PROB {
        4.0 + rng.f64() * 12.0
    } else {
        16.0 + rng.f64() * 48.0
    };
    Nanos::from_micros_f64(us)
}

#[cfg(test)]
mod tests {
    use super::*;
    use concordia_stats::hist::Log2Histogram;

    fn histogram(pressure: f64, n: usize, seed: u64) -> Log2Histogram {
        let mut rng = Rng::new(seed);
        let mut h = Log2Histogram::new();
        for _ in 0..n {
            h.record(sample_wake(pressure, &mut rng).as_micros_f64() as u64);
        }
        h
    }

    #[test]
    fn isolated_wakes_mostly_fast() {
        let h = histogram(0.0, 100_000, 1);
        // >= 85% in the 0-3 µs buckets (bucket 0 and 1).
        let fast: u64 = h.counts().iter().take(2).sum();
        assert!(fast as f64 / h.total() as f64 > 0.80, "fast {fast}");
        // Almost nothing at or above 64 µs.
        let tail = h.count_at_or_above(64) as f64 / h.total() as f64;
        assert!(tail < 0.002, "isolated tail {tail}");
    }

    #[test]
    fn colocation_grows_the_64us_tail() {
        // The Fig. 10b effect: with a Redis-like pressure, a visible share
        // of wakes lands in 64-255 µs.
        let iso = histogram(0.0, 200_000, 2);
        let loaded = histogram(1.5, 200_000, 3);
        let iso_tail = iso.count_at_or_above(64) as f64 / iso.total() as f64;
        let loaded_tail = loaded.count_at_or_above(64) as f64 / loaded.total() as f64;
        assert!(
            loaded_tail > 4.0 * iso_tail,
            "iso {iso_tail} loaded {loaded_tail}"
        );
        assert!(
            loaded_tail > 0.003 && loaded_tail < 0.05,
            "loaded {loaded_tail}"
        );
    }

    #[test]
    fn latencies_bounded_to_6ms() {
        let mut rng = Rng::new(4);
        let mut extremes = 0u64;
        for _ in 0..1_000_000 {
            let l = sample_wake(3.0, &mut rng);
            assert!(l <= Nanos::from_micros(6_000));
            assert!(l >= Nanos::from_micros(1));
            if l > Nanos::from_micros(255) {
                extremes += 1;
            }
        }
        // ~7.5e-4 extreme probability at pressure 3.
        assert!(
            (300..=1_800).contains(&extremes),
            "extreme hold-offs {extremes}"
        );
    }

    #[test]
    fn extreme_holdoffs_essentially_absent_in_isolation() {
        let mut rng = Rng::new(6);
        let extremes = (0..500_000)
            .filter(|_| sample_wake(0.0, &mut rng) > Nanos::from_micros(255))
            .count();
        assert!(extremes < 10, "isolated extremes {extremes}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        for _ in 0..1000 {
            assert_eq!(sample_wake(0.7, &mut a), sample_wake(0.7, &mut b));
        }
    }
}
