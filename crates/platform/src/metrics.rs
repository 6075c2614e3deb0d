//! Experiment metrics: slot latency percentiles, deadline reliability,
//! reclaimed CPU, scheduling-event histograms.

use concordia_ran::time::Nanos;
use concordia_stats::hist::Log2Histogram;
use concordia_stats::summary::quantile_sorted;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};

/// Records per-slot (per-DAG) processing latencies and deadline outcomes.
#[derive(Debug, Clone, Default)]
pub struct SlotLatencyRecorder {
    latencies_us: Vec<f64>,
    violations: u64,
    /// Completion time and deadline outcome of every DAG, in completion
    /// order — the raw material for per-fault-window reliability
    /// accounting (violations before/during/after each window).
    outcomes: Vec<SlotOutcome>,
    /// Lazily rebuilt ascending copy of `latencies_us`, shared by every
    /// quantile query until the next `record_at` invalidates it. Interior
    /// mutability keeps `quantile_us` callable through `&self` (summaries
    /// are read-only); the recorder is only ever owned by one pool, never
    /// shared across threads.
    sorted: RefCell<Vec<f64>>,
    sorted_valid: Cell<bool>,
    /// Full sorts performed — the regression guard that the summary path
    /// sorts at most once per batch of recordings.
    sorts: Cell<u64>,
    /// NaN latency samples seen. A NaN is counted here and *excluded* from
    /// the latency series (it has no place in a quantile or a mean) instead
    /// of aborting the run — a multi-minute soak must not die on one
    /// poisoned sample.
    nan_samples: u64,
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
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed DAG (completion time unknown / irrelevant).
    pub fn record(&mut self, latency: Nanos, deadline_budget: Nanos) {
        self.record_at(Nanos::ZERO, latency, deadline_budget);
    }

    /// Records one completed DAG together with its completion time, so
    /// fault-window accounting can attribute it to a timeline phase.
    pub fn record_at(&mut self, completed_at: Nanos, latency: Nanos, deadline_budget: Nanos) {
        self.record_sample(
            completed_at,
            latency.as_micros_f64(),
            latency > deadline_budget,
        );
    }

    /// Raw-µs entry point for external recorders. A NaN latency is counted
    /// in [`Self::nan_samples`] and otherwise dropped (no outcome, no
    /// violation): it carries no ordering information, and the historical
    /// behaviour — a `partial_cmp().expect()` panic on the next quantile
    /// query — turned one bad sample into a dead soak.
    pub fn record_sample(&mut self, completed_at: Nanos, latency_us: f64, violated: bool) {
        if latency_us.is_nan() {
            self.nan_samples += 1;
            return;
        }
        self.latencies_us.push(latency_us);
        self.sorted_valid.set(false);
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

    /// Fraction of DAGs that met their deadline (the reliability readout;
    /// the paper requires ≥ 0.99999). Returns 1.0 for an empty recorder.
    pub fn reliability(&self) -> f64 {
        if self.latencies_us.is_empty() {
            1.0
        } else {
            1.0 - self.violations as f64 / self.latencies_us.len() as f64
        }
    }

    /// Mean latency in µs.
    pub fn mean_us(&self) -> f64 {
        if self.latencies_us.is_empty() {
            0.0
        } else {
            self.latencies_us.iter().sum::<f64>() / self.latencies_us.len() as f64
        }
    }

    /// Latency quantile in µs (e.g. 0.9999 and 0.99999 for Fig. 11).
    /// `None` when no DAG has completed — an empty tail is *unknown*, not
    /// zero, and reporting 0 µs silently passed for perfect.
    ///
    /// The ascending view is cached: a summary requesting several
    /// quantiles sorts once, not once per call (report generation used to
    /// be O(k·n log n) at hundreds of thousands of samples).
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        if self.latencies_us.is_empty() {
            return None;
        }
        if !self.sorted_valid.get() {
            let mut s = self.sorted.borrow_mut();
            s.clear();
            s.extend_from_slice(&self.latencies_us);
            // total_cmp: NaN can no longer reach this series (record_sample
            // filters it), but a total order keeps the sort panic-free even
            // if a future caller slips one through.
            s.sort_by(f64::total_cmp);
            drop(s);
            self.sorted_valid.set(true);
            self.sorts.set(self.sorts.get() + 1);
        }
        Some(quantile_sorted(&self.sorted.borrow(), q))
    }

    /// Full sorts performed so far (regression guard for the cached view).
    pub fn sorts_performed(&self) -> u64 {
        self.sorts.get()
    }

    /// NaN latency samples counted (and excluded) so far.
    pub fn nan_samples(&self) -> u64 {
        self.nan_samples
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

impl CellCounters {
    /// Fraction of this cell's completed DAGs that met their deadline.
    pub fn reliability(&self) -> f64 {
        if self.completed == 0 {
            1.0
        } else {
            1.0 - self.violations as f64 / self.completed as f64
        }
    }
}

/// Aggregate platform metrics for one experiment run.
#[derive(Debug, Clone, Default)]
pub struct PoolMetrics {
    /// Per-DAG latency recorder.
    pub slots: SlotLatencyRecorder,
    /// Wake-latency histogram in µs buckets (Fig. 10).
    pub wake_hist: Log2Histogram,
    /// Number of worker wake (scheduling) events.
    pub wake_events: u64,
    /// Number of vRAN-induced evictions of best-effort work (core taken
    /// back from the OS).
    pub evictions: u64,
    /// Total core-time granted to best-effort work.
    pub besteffort_core_time: Nanos,
    /// Total core-time the vRAN held cores (granted, whether busy or
    /// spinning).
    pub vran_core_time: Nanos,
    /// Total core-time vRAN workers were actually executing tasks.
    pub vran_busy_time: Nanos,
    /// Interference counters (Fig. 9).
    pub counters: crate::cache::CounterAccumulator,
    /// Tasks executed.
    pub tasks_executed: u64,
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

    /// Counts one DAG of `cell` running to completion.
    pub fn record_completed(&mut self, cell: u32, violated: bool) {
        let c = self.cell_mut(cell);
        c.completed += 1;
        if violated {
            c.violations += 1;
        }
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
        let total = cores as f64 * duration.as_nanos() as f64;
        if total <= 0.0 {
            0.0
        } else {
            self.besteffort_core_time.as_nanos() as f64 / total
        }
    }

    /// vRAN CPU utilization over the whole pool (busy core-time over
    /// `cores × duration`) — the Fig. 4a "Avg CPU util" column.
    pub fn utilization_of_pool(&self, cores: u32, duration: Nanos) -> f64 {
        let total = cores as f64 * duration.as_nanos() as f64;
        if total <= 0.0 {
            0.0
        } else {
            self.vran_busy_time.as_nanos() as f64 / total
        }
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
    /// Best-effort evictions.
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
    /// NaN latency samples counted (and excluded from the latency series)
    /// instead of aborting the run. Skipped when zero so reports from
    /// NaN-free runs — every golden — keep their exact historical bytes.
    #[serde(default, skip_serializing_if = "u64_is_zero")]
    pub nan_samples: u64,
}

fn u64_is_zero(v: &u64) -> bool {
    *v == 0
}

impl PoolMetrics {
    /// Produces the serializable summary.
    pub fn summary(&self, cores: u32, duration: Nanos) -> MetricsSummary {
        MetricsSummary {
            dags: self.slots.count(),
            violations: self.slots.violations(),
            reliability: self.slots.reliability(),
            mean_latency_us: self.slots.mean_us(),
            p9999_latency_us: self.slots.quantile_us(0.9999),
            p99999_latency_us: self.slots.quantile_us(0.99999),
            reclaimed_fraction: self.reclaimed_fraction(cores, duration),
            pool_utilization: self.utilization_of_pool(cores, duration),
            wake_events: self.wake_events,
            wake_tail_events: self.wake_hist.count_at_or_above(64),
            evictions: self.evictions,
            stall_cycles_pct: self.counters.deltas().stall_cycles_pct,
            tasks_executed: self.tasks_executed,
            cores_failed: self.cores_failed,
            offload_fallbacks: self.offload_fallbacks,
            tasks_requeued: self.tasks_requeued,
            vran_busy_ms: self.vran_busy_time.as_millis_f64(),
            wake_hist_counts: self.wake_hist.counts().to_vec(),
            per_cell: self.per_cell.clone(),
            nan_samples: self.slots.nan_samples(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliability_counts_violations() {
        let mut r = SlotLatencyRecorder::new();
        let budget = Nanos::from_millis(1);
        for i in 0..1000 {
            let lat = if i < 3 {
                Nanos::from_millis(2)
            } else {
                Nanos::from_micros(500)
            };
            r.record(lat, budget);
        }
        assert_eq!(r.violations(), 3);
        assert!((r.reliability() - 0.997).abs() < 1e-12);
    }

    #[test]
    fn empty_recorder_is_fully_reliable() {
        let r = SlotLatencyRecorder::new();
        assert_eq!(r.reliability(), 1.0);
        assert_eq!(r.mean_us(), 0.0);
        // The tail of zero samples is unknown, not zero.
        assert_eq!(r.quantile_us(0.9999), None);
    }

    #[test]
    fn empty_quantile_surfaces_as_none_in_summary() {
        let m = PoolMetrics::new();
        let s = m.summary(4, Nanos::from_secs(1));
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
    fn summary_path_sorts_at_most_once_per_recorder() {
        let mut m = PoolMetrics::new();
        let budget = Nanos::from_millis(1);
        for i in 0..500 {
            m.slots.record(Nanos::from_micros(100 + i), budget);
        }
        assert_eq!(m.slots.sorts_performed(), 0);
        // A full summary asks for two quantiles; several summaries and
        // direct quantile queries still share one sort.
        let s1 = m.summary(4, Nanos::from_secs(1));
        let s2 = m.summary(4, Nanos::from_secs(1));
        let _ = m.slots.quantile_us(0.5);
        assert_eq!(m.slots.sorts_performed(), 1, "cached view must be reused");
        assert_eq!(s1.p9999_latency_us, s2.p9999_latency_us);
        // New samples invalidate the cache exactly once.
        m.slots.record(Nanos::from_micros(9_000), budget);
        assert_eq!(m.slots.quantile_us(1.0), Some(9_000.0));
        let _ = m.slots.quantile_us(0.9999);
        assert_eq!(m.slots.sorts_performed(), 2);
    }

    #[test]
    fn cached_quantiles_match_direct_computation() {
        let mut r = SlotLatencyRecorder::new();
        let budget = Nanos::from_millis(10);
        // Descending insertion order exercises the sort.
        for i in (0..1000).rev() {
            r.record(Nanos::from_micros(i), budget);
        }
        let direct = concordia_stats::summary::quantile(r.latencies_us(), 0.9999);
        assert_eq!(r.quantile_us(0.9999), direct);
        assert_eq!(r.quantile_us(0.0), Some(0.0));
        assert_eq!(r.quantile_us(1.0), Some(999.0));
    }

    #[test]
    fn quantiles_reflect_tail() {
        let mut r = SlotLatencyRecorder::new();
        let budget = Nanos::from_millis(10);
        for _ in 0..9999 {
            r.record(Nanos::from_micros(100), budget);
        }
        r.record(Nanos::from_micros(5_000), budget);
        assert!(r.quantile_us(0.5).unwrap() < 150.0);
        assert!(r.quantile_us(0.99999).unwrap() > 1_000.0);
        assert!(r.quantile_us(1.0).unwrap() == 5_000.0);
    }

    #[test]
    fn nan_latency_is_counted_not_fatal() {
        let mut r = SlotLatencyRecorder::new();
        let budget = Nanos::from_millis(1);
        for i in 0..100 {
            r.record(Nanos::from_micros(100 + i), budget);
        }
        r.record_sample(Nanos::from_millis(1), f64::NAN, false);
        // The poisoned sample is ledgered, not stored: quantiles stay
        // panic-free and finite, and the series length is unchanged.
        assert_eq!(r.nan_samples(), 1);
        assert_eq!(r.count(), 100);
        assert_eq!(r.outcomes().len(), 100);
        let q = r.quantile_us(0.9999).unwrap();
        assert!(q.is_finite(), "quantile over NaN-free series: {q}");
        assert_eq!(r.quantile_us(1.0), Some(199.0));
    }

    #[test]
    fn nan_counter_surfaces_in_summary_only_when_nonzero() {
        let mut m = PoolMetrics::new();
        m.slots
            .record(Nanos::from_micros(100), Nanos::from_millis(1));
        let clean = serde_json::to_string(&m.summary(4, Nanos::from_secs(1))).unwrap();
        assert!(
            !clean.contains("nan_samples"),
            "a NaN-free run must keep its historical report bytes: {clean}"
        );
        // The key appears once a NaN was seen, and old reports without the
        // key still deserialize (defaulting to zero).
        m.slots.record_sample(Nanos::ZERO, f64::NAN, false);
        let s = m.summary(4, Nanos::from_secs(1));
        assert_eq!(s.nan_samples, 1);
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"nan_samples\""));
        let back: MetricsSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.nan_samples, 1);
        let old: MetricsSummary = serde_json::from_str(&clean).unwrap();
        assert_eq!(old.nan_samples, 0);
    }

    #[test]
    fn outcomes_carry_completion_times() {
        let mut r = SlotLatencyRecorder::new();
        let budget = Nanos::from_millis(1);
        r.record_at(Nanos::from_millis(3), Nanos::from_micros(500), budget);
        r.record_at(Nanos::from_millis(5), Nanos::from_millis(2), budget);
        let o = r.outcomes();
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
        m.record_injected(0);
        m.record_injected(2);
        m.record_injected(2);
        m.record_completed(0, false);
        m.record_completed(2, true);
        // Cell 1 never appeared but the vector is dense up to the max id.
        assert_eq!(m.per_cell.len(), 3);
        assert_eq!(m.per_cell[0].injected, 1);
        assert_eq!(m.per_cell[0].completed, 1);
        assert_eq!(m.per_cell[0].violations, 0);
        assert_eq!(m.per_cell[1], CellCounters::default());
        assert_eq!(m.per_cell[2].injected, 2);
        assert_eq!(m.per_cell[2].violations, 1);
        assert_eq!(m.per_cell[2].reliability(), 0.0);
        assert_eq!(m.per_cell[1].reliability(), 1.0);
        let s = m.summary(4, Nanos::from_secs(1));
        assert_eq!(s.per_cell, m.per_cell);
        // And it survives the report round trip.
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.per_cell, m.per_cell);
    }

    #[test]
    fn summary_is_consistent() {
        let mut m = PoolMetrics::new();
        m.slots
            .record(Nanos::from_micros(100), Nanos::from_millis(1));
        m.wake_hist.record(80);
        m.wake_events = 1;
        let s = m.summary(4, Nanos::from_secs(1));
        assert_eq!(s.dags, 1);
        assert_eq!(s.wake_tail_events, 1);
        assert_eq!(s.reliability, 1.0);
    }
}
