//! Baseline schedulers the paper compares against.
//!
//! * [`FlexRanScheduler`] — the vanilla FlexRAN queue-driven design (§6):
//!   "It acquires more cores when there are tasks waiting in the queues and
//!   relinquishes them when the queues are empty."
//! * [`ShenangoScheduler`] — the §6.3 Shenango/Snap variant: adds one core
//!   whenever a task has queued longer than a threshold.
//! * [`UtilizationScheduler`] — the §6.3 utilization-based scheduler: adds
//!   a worker when trailing utilization exceeds a threshold, removes one
//!   when it falls far below.

use concordia_platform::sched_api::{PoolScheduler, PoolView};
use concordia_ran::time::Nanos;

/// Re-evaluation period of the FlexRAN and Shenango baselines; small, to
/// emulate the immediate yield/signal behaviour of queue-driven designs.
const REACTIVE_TICK: Nanos = Nanos::from_micros(5);

/// Re-evaluation period of the utilization scheduler (the paper adjusts
/// per a few TTIs).
const UTILIZATION_TICK: Nanos = Nanos::from_micros(500);

/// The utilization scheduler removes a worker below this share of its
/// high watermark.
const LOW_WATERMARK_SHARE: f64 = 0.4;

/// The vanilla FlexRAN work-conserving scheduler.
///
/// The effective core target is the number of runnable tasks (running plus
/// ready), capped by the pool size: workers yield as soon as there is
/// nothing to run and are re-acquired the moment work appears — which is
/// exactly what produces its ~230 % higher scheduling-event count (Fig. 10)
/// and its cold-cache interference exposure (Fig. 9).
#[derive(Debug, Clone, Copy, Default)]
pub struct FlexRanScheduler;

impl PoolScheduler for FlexRanScheduler {
    fn target_cores(&mut self, view: &PoolView<'_>) -> u32 {
        ((view.running_tasks + view.ready_tasks) as u32).min(view.total_cores)
    }

    fn tick(&self) -> Nanos {
        REACTIVE_TICK
    }
}

/// The Shenango-variant scheduler of §6.3.
#[derive(Debug, Clone, Copy)]
pub struct ShenangoScheduler {
    /// Queueing-delay threshold after which a core is added (the paper
    /// sweeps 5–200 µs and finds no value that both meets deadlines and
    /// shares cores).
    pub queue_threshold: Nanos,
}

impl ShenangoScheduler {
    /// Creates the scheduler with the given queueing-delay threshold.
    pub fn new(queue_threshold: Nanos) -> Self {
        ShenangoScheduler { queue_threshold }
    }
}

impl PoolScheduler for ShenangoScheduler {
    fn target_cores(&mut self, view: &PoolView<'_>) -> u32 {
        // Never hold more cores than there is runnable work; add one when
        // the oldest ready task has waited past the threshold.
        let runnable = (view.running_tasks + view.ready_tasks.min(1)) as u32;
        let mut target = view
            .granted_cores
            .min(runnable.max(view.running_tasks as u32));
        if view.ready_tasks > 0 && view.oldest_ready_wait > self.queue_threshold {
            target = (view.granted_cores + 1).min(view.total_cores);
        }
        if view.ready_tasks == 0 && view.running_tasks == 0 {
            target = 0;
        }
        target.min(view.total_cores)
    }

    fn tick(&self) -> Nanos {
        REACTIVE_TICK
    }
}

/// The utilization-based scheduler of §6.3.
#[derive(Debug, Clone, Copy)]
pub struct UtilizationScheduler {
    /// Add a worker when trailing utilization exceeds this; remove one
    /// when it falls below 40 % of it.
    pub high_watermark: f64,
}

impl UtilizationScheduler {
    /// The paper's thresholds: 60 % (20 MHz config) or 30 % (100 MHz).
    pub fn new(high_watermark: f64) -> Self {
        UtilizationScheduler { high_watermark }
    }
}

impl PoolScheduler for UtilizationScheduler {
    fn target_cores(&mut self, view: &PoolView<'_>) -> u32 {
        if view.dags.is_empty() && view.ready_tasks == 0 && view.running_tasks == 0 {
            return 0;
        }
        let granted = view.granted_cores.max(1);
        if view.recent_utilization > self.high_watermark {
            (granted + 1).min(view.total_cores)
        } else if view.recent_utilization < self.high_watermark * LOW_WATERMARK_SHARE && granted > 1
        {
            granted - 1
        } else {
            granted
        }
    }

    fn tick(&self) -> Nanos {
        UTILIZATION_TICK
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concordia_platform::sched_api::DagProgress;

    fn view(
        ready: usize,
        running: usize,
        granted: u32,
        wait_us: u64,
        util: f64,
        dags: &[DagProgress],
    ) -> PoolView<'_> {
        PoolView {
            now: Nanos::from_millis(1),
            total_cores: 8,
            granted_cores: granted,
            dags,
            ready_tasks: ready,
            running_tasks: running,
            oldest_ready_wait: Nanos::from_micros(wait_us),
            recent_utilization: util,
        }
    }

    #[test]
    fn flexran_is_work_conserving() {
        let mut s = FlexRanScheduler;
        assert_eq!(s.target_cores(&view(0, 0, 8, 0, 0.0, &[])), 0);
        assert_eq!(s.target_cores(&view(3, 2, 2, 0, 0.5, &[])), 5);
        assert_eq!(s.target_cores(&view(20, 4, 8, 0, 1.0, &[])), 8);
    }

    #[test]
    fn shenango_adds_core_after_threshold() {
        let mut s = ShenangoScheduler::new(Nanos::from_micros(50));
        // Below the threshold: no growth.
        let t = s.target_cores(&view(2, 3, 3, 10, 0.9, &[]));
        assert!(t <= 3, "no growth below threshold, got {t}");
        // Above the threshold: one more core.
        assert_eq!(s.target_cores(&view(2, 3, 3, 60, 0.9, &[])), 4);
        // Caps at the pool size.
        assert_eq!(s.target_cores(&view(2, 8, 8, 500, 1.0, &[])), 8);
    }

    #[test]
    fn shenango_releases_when_idle() {
        let mut s = ShenangoScheduler::new(Nanos::from_micros(50));
        assert_eq!(s.target_cores(&view(0, 0, 5, 0, 0.1, &[])), 0);
    }

    #[test]
    fn utilization_scheduler_tracks_watermarks() {
        let mut s = UtilizationScheduler::new(0.6);
        let d = [DagProgress {
            deadline: Nanos::from_millis(2),
            remaining_work: Nanos::from_micros(100),
            remaining_critical_path: Nanos::from_micros(50),
        }];
        // High utilization: grow.
        assert_eq!(s.target_cores(&view(1, 3, 3, 0, 0.8, &d)), 4);
        // Mid utilization: hold.
        assert_eq!(s.target_cores(&view(1, 3, 3, 0, 0.4, &d)), 3);
        // Low utilization: shrink.
        assert_eq!(s.target_cores(&view(0, 1, 3, 0, 0.1, &d)), 2);
        // Fully idle: release everything.
        assert_eq!(s.target_cores(&view(0, 0, 3, 0, 0.0, &[])), 0);
    }

    #[test]
    fn utilization_scheduler_is_reactive_not_predictive() {
        // The §6.3 flaw: utilization history says nothing about the burst
        // that just arrived — a fresh burst with low trailing utilization
        // does not grow the pool.
        let mut s = UtilizationScheduler::new(0.6);
        let d = [DagProgress {
            deadline: Nanos::from_millis(3),
            remaining_work: Nanos::from_millis(2), // a huge burst
            remaining_critical_path: Nanos::from_micros(200),
        }];
        let t = s.target_cores(&view(30, 1, 1, 0, 0.05, &d));
        assert!(t <= 1, "trailing-utilization scheduler ignores the burst");
    }
}
