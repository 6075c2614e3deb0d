//! Hardware-accelerator (FPGA) offload model — the §7 Concordia extension.
//!
//! The paper extends its testbed with a Terasic DE5-Net FPGA that offloads
//! LDPC encoding/decoding. Table 4 reports the resulting split for a
//! 100 MHz cell: an uplink slot totals ~1414 µs of which only ~515 µs is
//! CPU work (the worker blocks ~2.7× its own compute waiting for the
//! offload), and a downlink slot totals ~366 µs of which ~196 µs is CPU
//! work. This module models the accelerator as a pipelined FIFO with an
//! affine per-request latency calibrated to those ratios.
//!
//! The latencies are calibrated to Table 4's *ratios* (UL total ≈ 2.5x its
//! CPU time, DL ≈ 1.9x) while leaving engine capacity for the 3-cell
//! Table 3 scenario: a peak-ish UL slot (~45 CBs in ~8 groups) waits
//! ~690 µs on decode; a DL slot (~112 CBs in ~19 groups) waits ~160 µs.

use crate::task::TaskKind;
use crate::time::Nanos;

/// Fixed DMA/setup latency per decode request (µs).
const DECODE_BASE_US: f64 = 8.0;
/// Per-codeblock decode latency (µs).
const DECODE_PER_CB_US: f64 = 13.0;
/// Fixed DMA/setup latency per encode request (µs).
const ENCODE_BASE_US: f64 = 3.0;
/// Per-codeblock encode latency (µs).
const ENCODE_PER_CB_US: f64 = 0.9;

/// CPU time a worker spends preparing and submitting one request.
pub const SUBMIT_COST: Nanos = Nanos::from_micros(2);

/// Accelerator service latency for one offloaded request of `n_cbs`
/// codeblocks (a request carries at least one).
///
/// Panics if `kind` is not offloadable.
pub fn service_latency(kind: TaskKind, n_cbs: u32) -> Nanos {
    let n_cbs = n_cbs.max(1);
    let us = match kind {
        TaskKind::LdpcDecode => DECODE_BASE_US + DECODE_PER_CB_US * n_cbs as f64,
        TaskKind::LdpcEncode => ENCODE_BASE_US + ENCODE_PER_CB_US * n_cbs as f64,
        other => panic!("{other:?} is not offloadable"),
    };
    Nanos::from_micros_f64(us)
}

/// One engine's FIFO: requests are served in order, one at a time (a
/// single pipelined engine), so the engine is the instant it next falls
/// idle.
#[derive(Debug, Clone, Copy, Default)]
pub struct FpgaQueue {
    busy_until: Nanos,
}

impl FpgaQueue {
    /// Completion time a request arriving at `now` with the given service
    /// latency *would* get, without enqueueing it. The fault layer's
    /// per-offload timeout check peeks before committing, so a timed-out
    /// request never occupies the engine.
    pub fn completion(&self, now: Nanos, service: Nanos) -> Nanos {
        self.busy_until.max(now) + service
    }

    /// Enqueues a request arriving at `now` with the given service latency;
    /// returns its completion time.
    pub fn enqueue(&mut self, now: Nanos, service: Nanos) -> Nanos {
        self.busy_until = self.completion(now, service);
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_latency_affine_in_cbs() {
        let l6 = service_latency(TaskKind::LdpcDecode, 6).as_micros_f64();
        let l12 = service_latency(TaskKind::LdpcDecode, 12).as_micros_f64();
        assert!((l12 - l6 - 6.0 * DECODE_PER_CB_US).abs() < 1e-9);
    }

    #[test]
    fn table4_uplink_wait_ratio() {
        // ~45 CBs in 8 groups: total decode offload ≈ 900 µs, which is
        // ~1.75x the 515 µs of CPU work — giving the ~2.7x total/CPU ratio
        // Table 4 reports (515 + 900 ≈ 1415 ≈ 1414).
        let groups = [6u32, 6, 6, 6, 6, 6, 6, 3];
        let total: f64 = groups
            .iter()
            .map(|&g| service_latency(TaskKind::LdpcDecode, g).as_micros_f64())
            .sum();
        assert!((550.0..800.0).contains(&total), "decode wait {total}");
    }

    #[test]
    fn table4_downlink_wait_ratio() {
        // ~112 CBs in 19 groups: encode offload ≈ 170-210 µs.
        let mut total = 0.0;
        let mut left = 112u32;
        while left > 0 {
            let g = left.min(6);
            total += service_latency(TaskKind::LdpcEncode, g).as_micros_f64();
            left -= g;
        }
        assert!((100.0..220.0).contains(&total), "encode wait {total}");
    }

    #[test]
    #[should_panic(expected = "not offloadable")]
    fn non_offloadable_kind_panics() {
        service_latency(TaskKind::Fft, 1);
    }

    #[test]
    fn fifo_queue_serializes_requests() {
        let mut q = FpgaQueue::default();
        let c1 = q.enqueue(Nanos::ZERO, Nanos::from_micros(100));
        assert_eq!(c1, Nanos::from_micros(100));
        // Second request arrives while busy: queued behind.
        let c2 = q.enqueue(Nanos::from_micros(50), Nanos::from_micros(100));
        assert_eq!(c2, Nanos::from_micros(200));
        // Third arrives after idle: starts immediately.
        let c3 = q.enqueue(Nanos::from_micros(500), Nanos::from_micros(10));
        assert_eq!(c3, Nanos::from_micros(510));
    }

    #[test]
    fn submissions_serialize_on_the_engine() {
        let mut q = FpgaQueue::default();
        let service = service_latency(TaskKind::LdpcDecode, 6);
        let c1 = q.enqueue(Nanos::ZERO, service);
        let c2 = q.enqueue(Nanos::ZERO, service);
        assert!(c2 > c1);
    }

    #[test]
    fn projection_matches_submit_and_does_not_mutate() {
        let mut q = FpgaQueue::default();
        let service = service_latency(TaskKind::LdpcDecode, 6);
        q.enqueue(Nanos::ZERO, service);
        let p1 = q.completion(Nanos::ZERO, service);
        let p2 = q.completion(Nanos::ZERO, service);
        assert_eq!(p1, p2, "peeking must not occupy the engine");
        assert_eq!(q.enqueue(Nanos::ZERO, service), p1);
    }

    #[test]
    fn zero_cb_requests_are_clamped() {
        let mut q = FpgaQueue::default();
        let c = q.enqueue(Nanos::ZERO, service_latency(TaskKind::LdpcEncode, 0));
        assert!(c > Nanos::ZERO);
        assert_eq!(
            service_latency(TaskKind::LdpcEncode, 0),
            service_latency(TaskKind::LdpcEncode, 1)
        );
    }
}
