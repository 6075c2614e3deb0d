//! Experiment metrics: slot latency percentiles, deadline reliability,
//! reclaimed CPU, scheduling-event histograms.
//!
//! The ledger keeps each fact once. A completed DAG is recorded by one
//! call ([`PoolMetrics::record_completed`]), which decides its deadline
//! outcome and updates both the aggregate recorder and the cell's
//! ledger. A wake is counted once, in [`PoolMetrics::wake_hist`], and a
//! task once, in [`PoolMetrics::counters`]; the summary derives its
//! counts from them. Reliability is one formula ([`reliability`]).

use concordia_ran::time::Nanos;
use concordia_stats::hist::Log2Histogram;
use concordia_stats::summary::Ecdf;
use serde::{Deserialize, Serialize};

/// Fraction of `dags` that met their deadline, given `violations` among
/// them (the reliability readout; the paper requires ≥ 0.99999). 1.0 when
/// no DAG completed.
pub fn reliability(dags: u64, violations: u64) -> f64 {
    if dags == 0 {
        1.0
    } else {
        1.0 - violations as f64 / dags as f64
    }
}

/// Records per-slot (per-DAG) processing latencies and deadline outcomes.
#[derive(Debug, Clone, Default)]
pub struct SlotLatencyRecorder {
    latencies_us: Vec<f64>,
    violations: u64,
    /// Completion time and deadline outcome of every DAG, in completion
    /// order — the raw material for per-fault-window reliability
    /// accounting (violations before/during/after each window).
    outcomes: Vec<SlotOutcome>,
}

/// One completed DAG's timing outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotOutcome {
    /// When the DAG completed.
    pub completed_at: Nanos,
    /// Whether it missed its deadline.
    pub violated: bool,
}

impl SlotLatencyRecorder {
    /// Records one completed DAG with its completion time, so fault-window
    /// accounting can attribute it to a timeline phase.
    fn record_at(&mut self, completed_at: Nanos, latency: Nanos, violated: bool) {
        self.latencies_us.push(latency.as_micros_f64());
        if violated {
            self.violations += 1;
        }
        self.outcomes.push(SlotOutcome {
            completed_at,
            violated,
        });
    }

    /// Number of completed DAGs.
    pub fn count(&self) -> usize {
        self.latencies_us.len()
    }

    /// Number of deadline violations.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Mean latency in µs.
    pub fn mean_us(&self) -> f64 {
        if self.latencies_us.is_empty() {
            0.0
        } else {
            self.latencies_us.iter().sum::<f64>() / self.latencies_us.len() as f64
        }
    }

    /// Raw latencies (µs) for downstream analysis.
    pub fn latencies_us(&self) -> &[f64] {
        &self.latencies_us
    }

    /// Per-DAG completion outcomes in completion order.
    pub fn outcomes(&self) -> &[SlotOutcome] {
        &self.outcomes
    }
}

/// Per-cell DAG accounting: with several cells multiplexed onto one pool,
/// aggregate reliability can hide a single starving cell. These counters
/// keep the per-cell ledger (and feed the cross-cell conservation checks:
/// every injected DAG must eventually complete, per cell).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellCounters {
    /// DAGs released to the pool by this cell.
    pub injected: u64,
    /// DAGs of this cell that ran to completion.
    pub completed: u64,
    /// Completed DAGs of this cell that missed their deadline.
    pub violations: u64,
}

/// Aggregate platform metrics for one experiment run.
#[derive(Debug, Clone, Default)]
pub struct PoolMetrics {
    /// Per-DAG latency recorder.
    pub slots: SlotLatencyRecorder,
    /// Wake-latency histogram in µs buckets (Fig. 10), one entry per
    /// worker wake. Its total is the run's wake count, and, since every
    /// wake takes a core back from best-effort work, its eviction count.
    pub wake_hist: Log2Histogram,
    /// Total core-time granted to best-effort work.
    pub besteffort_core_time: Nanos,
    /// Total core-time the vRAN held cores (granted, whether busy or
    /// spinning).
    pub vran_core_time: Nanos,
    /// Total core-time vRAN workers were actually executing tasks.
    pub vran_busy_time: Nanos,
    /// Interference counters (Fig. 9), one entry per executed task.
    pub counters: crate::cache::CounterAccumulator,
    /// Core-time spent offline due to injected core faults (counted toward
    /// neither the vRAN nor best-effort work).
    pub offline_core_time: Nanos,
    /// Cores taken offline by fault injection (cumulative events).
    pub cores_failed: u64,
    /// Offloaded tasks re-routed to the CPU path (accelerator absent,
    /// failed, or past its timeout budget).
    pub offload_fallbacks: u64,
    /// Tasks requeued after their core went offline mid-execution.
    pub tasks_requeued: u64,
    /// Per-cell DAG ledger, indexed by cell id (grown on first use).
    pub per_cell: Vec<CellCounters>,
}

impl PoolMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one DAG released by `cell`.
    pub fn record_injected(&mut self, cell: u32) {
        self.cell_mut(cell).injected += 1;
    }

    /// Records one DAG of `cell` completing at `completed_at` after
    /// `latency`, in the aggregate recorder and in the cell's ledger.
    /// Returns whether it missed its deadline (`latency` above
    /// `deadline_budget`).
    pub fn record_completed(
        &mut self,
        cell: u32,
        completed_at: Nanos,
        latency: Nanos,
        deadline_budget: Nanos,
    ) -> bool {
        let violated = latency > deadline_budget;
        self.slots.record_at(completed_at, latency, violated);
        let c = self.cell_mut(cell);
        c.completed += 1;
        if violated {
            c.violations += 1;
        }
        violated
    }

    fn cell_mut(&mut self, cell: u32) -> &mut CellCounters {
        let idx = cell as usize;
        if idx >= self.per_cell.len() {
            self.per_cell.resize(idx + 1, CellCounters::default());
        }
        &mut self.per_cell[idx]
    }

    /// Fraction of total core-time reclaimed for best-effort work
    /// (Fig. 8a's y-axis), given the pool size and the observed duration.
    pub fn reclaimed_fraction(&self, cores: u32, duration: Nanos) -> f64 {
        share_of_pool(self.besteffort_core_time, cores, duration)
    }

    /// vRAN CPU utilization over the whole pool (busy core-time over
    /// `cores × duration`) — the Fig. 4a "Avg CPU util" column.
    pub fn utilization_of_pool(&self, cores: u32, duration: Nanos) -> f64 {
        share_of_pool(self.vran_busy_time, cores, duration)
    }
}

/// `core_time` over the pool's `cores × duration` (0 for an empty pool or
/// run): the one denominator of the pool-share readouts.
fn share_of_pool(core_time: Nanos, cores: u32, duration: Nanos) -> f64 {
    let total = cores as f64 * duration.as_nanos() as f64;
    if total <= 0.0 {
        0.0
    } else {
        core_time.as_nanos() as f64 / total
    }
}

/// Serializable summary of [`PoolMetrics`] for experiment reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsSummary {
    /// Completed DAGs.
    pub dags: usize,
    /// Deadline violations.
    pub violations: u64,
    /// Deadline reliability.
    pub reliability: f64,
    /// Mean slot latency (µs).
    pub mean_latency_us: f64,
    /// 99.99th-percentile slot latency (µs; `None` when no DAG completed —
    /// NaN would serialize as `null` and break report round-trips).
    pub p9999_latency_us: Option<f64>,
    /// 99.999th-percentile slot latency (µs; `None` when no DAG completed).
    pub p99999_latency_us: Option<f64>,
    /// Reclaimed CPU fraction.
    pub reclaimed_fraction: f64,
    /// vRAN pool utilization (busy over pool).
    pub pool_utilization: f64,
    /// Worker wake events.
    pub wake_events: u64,
    /// Wake events at or above 64 µs.
    pub wake_tail_events: u64,
    /// Best-effort evictions (one per wake, so equal to `wake_events`).
    pub evictions: u64,
    /// Stall-cycle increase (%) vs isolated.
    pub stall_cycles_pct: f64,
    /// Tasks executed.
    pub tasks_executed: u64,
    /// Cores taken offline by fault injection.
    pub cores_failed: u64,
    /// Offloads re-routed to the CPU path (accelerator absent/failed/slow).
    pub offload_fallbacks: u64,
    /// Tasks requeued after losing their core mid-execution.
    pub tasks_requeued: u64,
    /// Total vRAN busy core-time in milliseconds.
    pub vran_busy_ms: f64,
    /// Wake-latency log2 histogram counts (bucket 0 = 0-1 µs, 1 = 2-3 µs,
    /// 2 = 4-7 µs, … — the Fig. 10 `runqlat` layout).
    pub wake_hist_counts: Vec<u64>,
    /// Per-cell DAG ledger, indexed by cell id.
    pub per_cell: Vec<CellCounters>,
}

impl PoolMetrics {
    /// Produces the serializable summary.
    pub fn summary(&self, cores: u32, duration: Nanos) -> MetricsSummary {
        let dags = self.slots.count();
        let violations = self.slots.violations();
        // One sort answers both tail quantiles.
        let tail = Ecdf::new(self.slots.latencies_us());
        let wakes = self.wake_hist.total();
        MetricsSummary {
            dags,
            violations,
            reliability: reliability(dags as u64, violations),
            mean_latency_us: self.slots.mean_us(),
            p9999_latency_us: tail.quantile(0.9999),
            p99999_latency_us: tail.quantile(0.99999),
            reclaimed_fraction: self.reclaimed_fraction(cores, duration),
            pool_utilization: self.utilization_of_pool(cores, duration),
            wake_events: wakes,
            wake_tail_events: self.wake_hist.count_at_or_above(64),
            evictions: wakes,
            stall_cycles_pct: self.counters.stall_cycles_pct(),
            tasks_executed: self.counters.tasks(),
            cores_failed: self.cores_failed,
            offload_fallbacks: self.offload_fallbacks,
            tasks_requeued: self.tasks_requeued,
            vran_busy_ms: self.vran_busy_time.as_millis_f64(),
            wake_hist_counts: self.wake_hist.counts().to_vec(),
            per_cell: self.per_cell.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliability_counts_violations() {
        let mut m = PoolMetrics::new();
        let budget = Nanos::from_millis(1);
        for i in 0..1000 {
            let lat = if i < 3 {
                Nanos::from_millis(2)
            } else {
                Nanos::from_micros(500)
            };
            m.record_completed(0, Nanos::ZERO, lat, budget);
        }
        assert_eq!(m.slots.violations(), 3);
        let s = m.summary(4, Nanos::from_secs(1));
        assert!((s.reliability - 0.997).abs() < 1e-12);
        assert_eq!(s.reliability, reliability(1000, 3));
    }

    #[test]
    fn empty_recorder_is_fully_reliable() {
        assert_eq!(reliability(0, 0), 1.0);
        assert_eq!(PoolMetrics::new().slots.mean_us(), 0.0);
    }

    #[test]
    fn empty_quantile_surfaces_as_none_in_summary() {
        let m = PoolMetrics::new();
        let s = m.summary(4, Nanos::from_secs(1));
        // The tail of zero samples is unknown, not zero.
        assert_eq!(s.p9999_latency_us, None);
        assert_eq!(s.p99999_latency_us, None);
        // The empty summary must survive a serde round trip: the old
        // `f64::NAN` encoding serialized as `null` and failed to parse
        // back into an `f64`.
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.p9999_latency_us, None);
        assert_eq!(back.p99999_latency_us, None);
    }

    #[test]
    fn summary_quantiles_match_direct_computation() {
        let mut m = PoolMetrics::new();
        let budget = Nanos::from_millis(10);
        // Descending insertion order exercises the sort.
        for i in (0..1000).rev() {
            m.record_completed(0, Nanos::ZERO, Nanos::from_micros(i), budget);
        }
        let s = m.summary(4, Nanos::from_secs(1));
        let lat = m.slots.latencies_us();
        let direct = |q| concordia_stats::summary::quantile(lat, q).map(f64::to_bits);
        assert_eq!(s.p9999_latency_us.map(f64::to_bits), direct(0.9999));
        assert_eq!(s.p99999_latency_us.map(f64::to_bits), direct(0.99999));
    }

    #[test]
    fn quantiles_reflect_tail() {
        let mut m = PoolMetrics::new();
        let budget = Nanos::from_millis(10);
        for _ in 0..9999 {
            m.record_completed(0, Nanos::ZERO, Nanos::from_micros(100), budget);
        }
        m.record_completed(0, Nanos::ZERO, Nanos::from_micros(5_000), budget);
        let s = m.summary(4, Nanos::from_secs(1));
        assert!(s.p9999_latency_us.unwrap() < 150.0);
        assert!(s.p99999_latency_us.unwrap() > 1_000.0);
    }

    #[test]
    fn outcomes_carry_completion_times() {
        let mut m = PoolMetrics::new();
        let budget = Nanos::from_millis(1);
        assert!(!m.record_completed(0, Nanos::from_millis(3), Nanos::from_micros(500), budget));
        assert!(m.record_completed(0, Nanos::from_millis(5), Nanos::from_millis(2), budget));
        let o = m.slots.outcomes();
        assert_eq!(o.len(), 2);
        assert_eq!(o[0].completed_at, Nanos::from_millis(3));
        assert!(!o[0].violated);
        assert!(o[1].violated);
    }

    #[test]
    fn reclaimed_fraction_arithmetic() {
        let mut m = PoolMetrics::new();
        m.besteffort_core_time = Nanos::from_secs(6);
        let f = m.reclaimed_fraction(8, Nanos::from_secs(1));
        assert!((f - 0.75).abs() < 1e-12);
    }

    #[test]
    fn utilization_arithmetic() {
        let mut m = PoolMetrics::new();
        m.vran_core_time = Nanos::from_secs(4);
        m.vran_busy_time = Nanos::from_secs(1);
        assert!((m.utilization_of_pool(8, Nanos::from_secs(1)) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn per_cell_ledger_tracks_each_cell_independently() {
        let mut m = PoolMetrics::new();
        let budget = Nanos::from_millis(1);
        m.record_injected(0);
        m.record_injected(2);
        m.record_injected(2);
        m.record_completed(0, Nanos::ZERO, Nanos::from_micros(500), budget);
        m.record_completed(2, Nanos::ZERO, Nanos::from_millis(2), budget);
        // Cell 1 never appeared but the vector is dense up to the max id.
        assert_eq!(m.per_cell.len(), 3);
        assert_eq!(m.per_cell[0].injected, 1);
        assert_eq!(m.per_cell[0].completed, 1);
        assert_eq!(m.per_cell[0].violations, 0);
        assert_eq!(m.per_cell[1], CellCounters::default());
        assert_eq!(m.per_cell[2].injected, 2);
        assert_eq!(m.per_cell[2].violations, 1);
        let s = m.summary(4, Nanos::from_secs(1));
        assert_eq!(s.per_cell, m.per_cell);
        assert_eq!((s.dags, s.violations), (2, 1));
        // And it survives the report round trip.
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.per_cell, m.per_cell);
    }

    #[test]
    fn summary_is_consistent() {
        let mut m = PoolMetrics::new();
        m.record_completed(
            0,
            Nanos::ZERO,
            Nanos::from_micros(100),
            Nanos::from_millis(1),
        );
        m.wake_hist.record(80);
        m.counters.record_task(1.0);
        let s = m.summary(4, Nanos::from_secs(1));
        assert_eq!(s.dags, 1);
        assert_eq!(s.wake_events, 1);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.wake_tail_events, 1);
        assert_eq!(s.tasks_executed, 1);
        assert_eq!(s.reliability, 1.0);
    }
}
