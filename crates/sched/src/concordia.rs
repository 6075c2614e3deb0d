//! The Concordia scheduler: federated mixed-criticality scheduling of
//! parallel DAG tasks (§3, building on Li et al. [61]).
//!
//! Every 20 µs the scheduler recomputes, for each active DAG, the minimum
//! number of cores that suffices to finish its remaining predicted work by
//! its deadline. The federated rule for a parallel task with total work
//! `C`, critical path `L` and time-to-deadline `D` is
//!
//! ```text
//! n = ceil((C − L) / (D − L))
//! ```
//!
//! — `L` of the work is inherently sequential; the remaining `C − L` must
//! be spread over the `D − L` slack. When the slack is gone (the remaining
//! time barely covers the critical path), the DAG enters the **critical
//! stage**: Concordia allocates *all* pool cores and evicts every
//! best-effort workload, which is also how mispredictions and slow core
//! wake-ups are compensated (§3: "if the remaining time until the DAG
//! deadline is too small, the algorithm … allocates all cores to the RAN").

use concordia_platform::sched_api::{PoolScheduler, PoolView};
use concordia_ran::time::Nanos;
use serde::{Deserialize, Serialize};

/// Expected worst-case core wake latency budgeted when sizing the
/// remaining time (newly granted cores do not run instantly, §2.3).
const WAKE_MARGIN: Nanos = Nanos::from_micros(60);
/// Critical-stage trigger: all cores are taken when the remaining time
/// drops below `CRITICAL_FACTOR × remaining critical path + WAKE_MARGIN`.
const CRITICAL_FACTOR: f64 = 2.0;
/// Shrink hysteresis: once raised, the target is held for this long
/// before it may shrink (§6.2: "the proactive allocation of cores …
/// does not allow worker threads to yield while more signal processing
/// tasks are expected during a TTI slot"). Keeps scheduling-event
/// counts low (Fig. 10) and caches warm (Fig. 9).
const SHRINK_HYSTERESIS: Nanos = Nanos::from_micros(1_100);

/// Tunables of the Concordia scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConcordiaConfig {
    /// Re-evaluation period (§3: 20 µs).
    pub tick: Nanos,
    /// Multiplicative safety margin on the per-DAG core count.
    pub core_margin: f64,
    /// Degraded-mode overload detector: when ready tasks have been queuing
    /// continuously for at least this long the pool is visibly overloaded
    /// (a fault took cores away, runtimes are stalled, or the predictions
    /// are off) and the scheduler enters the critical stage regardless of
    /// what the per-DAG demands claim. `ZERO` (the default) disables the
    /// detector: the federated allocation *intends* short queues, so a
    /// threshold that never misfires must be chosen per deployment —
    /// fault-tolerant configurations use a few hundred µs.
    pub overload_wait: Nanos,
}

impl Default for ConcordiaConfig {
    fn default() -> Self {
        ConcordiaConfig {
            tick: Nanos::from_micros(20),
            core_margin: 1.6,
            overload_wait: Nanos::ZERO,
        }
    }
}

/// The Concordia federated mixed-criticality scheduler.
#[derive(Debug, Clone)]
pub struct ConcordiaScheduler {
    cfg: ConcordiaConfig,
    held_target: u32,
    held_since: Nanos,
}

impl ConcordiaScheduler {
    /// Creates the scheduler with the given tunables.
    pub fn new(cfg: ConcordiaConfig) -> Self {
        ConcordiaScheduler {
            cfg,
            held_target: 0,
            held_since: Nanos::ZERO,
        }
    }

    /// Creates the scheduler with the paper's defaults (20 µs tick).
    pub fn default_paper() -> Self {
        Self::new(ConcordiaConfig::default())
    }

    /// The federated core demand for one DAG as a fraction of a core;
    /// `None` signals the critical stage.
    ///
    /// Following [61], *heavy* DAGs — those whose parallel surplus
    /// `(C − L)/(D − L)` reaches a full core — get dedicated cores
    /// (`(C − L)/(D − L) + 1`, the `+1` carrying the critical path), while
    /// *light* DAGs are packed onto shared cores by summing their
    /// utilizations `C/D` (they run under EDF on the shared workers).
    fn demand_for_dag(
        &self,
        now: Nanos,
        deadline: Nanos,
        remaining_work: Nanos,
        remaining_cp: Nanos,
    ) -> Option<f64> {
        let d = deadline.saturating_sub(now).saturating_sub(WAKE_MARGIN);
        let critical_bar = remaining_cp.scale(CRITICAL_FACTOR) + WAKE_MARGIN;
        if d <= critical_bar {
            return None; // critical stage
        }
        if remaining_work == Nanos::ZERO {
            return Some(0.0);
        }
        let c = remaining_work.as_nanos() as f64;
        let l = remaining_cp.as_nanos() as f64;
        let slack = d.as_nanos() as f64 - l;
        debug_assert!(slack > 0.0);
        let surplus = (c - l) / slack;
        let demand = if surplus >= 1.0 {
            // Heavy: dedicated cores for the surplus plus the critical path.
            surplus + 1.0
        } else {
            // Light: shares a core; its demand is its utilization.
            c / d.as_nanos() as f64
        };
        Some(demand * self.cfg.core_margin)
    }
}

impl PoolScheduler for ConcordiaScheduler {
    fn target_cores(&mut self, view: &PoolView<'_>) -> u32 {
        let mut total: f64 = 0.0;
        // Detected overload (ready tasks stuck in queue) is treated exactly
        // like computed criticality: take everything. This is what makes
        // degraded mode (cores lost to faults, stalled runtimes) converge —
        // demands computed from stale WCETs under-allocate, but the queue
        // wait is ground truth.
        let mut critical = self.cfg.overload_wait > Nanos::ZERO
            && view.oldest_ready_wait >= self.cfg.overload_wait;
        for d in view.dags {
            match self.demand_for_dag(
                view.now,
                d.deadline,
                d.remaining_work,
                d.remaining_critical_path,
            ) {
                Some(demand) => total += demand,
                None => {
                    critical = true;
                    break;
                }
            }
        }
        let want = if critical {
            view.total_cores
        } else {
            (total.ceil() as u32).min(view.total_cores)
        };
        // The held envelope can never exceed what exists: a live pool
        // shrink (or a fault window) lowers `total_cores` under us, and
        // without this clamp the envelope would bleed down one core per
        // hysteresis window while the pool caps the actual grant anyway,
        // leaving target and grant disagreeing for tens of slots after
        // the capacity change.
        if self.held_target > view.total_cores {
            self.held_target = view.total_cores;
            self.held_since = view.now;
        }
        // Proactive hold: raising is immediate; shrinking releases at most
        // one core per hysteresis window. Under steady periodic slot load
        // the held envelope stays flat across slot boundaries, so workers
        // neither yield mid-slot nor pay a wake latency every slot — the
        // §6.2 proactive-allocation behaviour with its low event count.
        if want >= self.held_target {
            self.held_target = want;
            self.held_since = view.now;
            want
        } else if view.now.saturating_sub(self.held_since) >= SHRINK_HYSTERESIS {
            self.held_target -= 1;
            self.held_since = view.now;
            self.held_target
        } else {
            self.held_target
        }
    }

    fn tick(&self) -> Nanos {
        self.cfg.tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concordia_platform::sched_api::DagProgress;

    fn view<'a>(now_us: u64, dags: &'a [DagProgress], total: u32) -> PoolView<'a> {
        PoolView {
            now: Nanos::from_micros(now_us),
            total_cores: total,
            granted_cores: total,
            dags,
            ready_tasks: 0,
            running_tasks: 0,
            oldest_ready_wait: Nanos::ZERO,
            recent_utilization: 0.5,
        }
    }

    fn dag(deadline_us: u64, work_us: u64, cp_us: u64) -> DagProgress {
        DagProgress {
            deadline: Nanos::from_micros(deadline_us),
            remaining_work: Nanos::from_micros(work_us),
            remaining_critical_path: Nanos::from_micros(cp_us),
        }
    }

    #[test]
    fn idle_pool_releases_every_core() {
        let mut s = ConcordiaScheduler::default_paper();
        assert_eq!(s.target_cores(&view(0, &[], 8)), 0);
    }

    #[test]
    fn ample_slack_needs_few_cores() {
        // 400 µs of parallel work, 100 µs critical path, 1500 µs deadline:
        // (400-100)/(1460-100) < 1 -> 1 surplus core + 1 = 2 at most.
        let mut s = ConcordiaScheduler::default_paper();
        let d = [dag(1500, 400, 100)];
        let n = s.target_cores(&view(0, &d, 8));
        assert!((1..=2).contains(&n), "cores {n}");
    }

    #[test]
    fn tight_slack_needs_more_cores() {
        // Same DAG with only 200 µs left: (400-100)/(160-100)=5 -> 6 cores.
        let mut s = ConcordiaScheduler::default_paper();
        let d = [dag(1500, 400, 100)];
        let n = s.target_cores(&view(1300, &d, 8));
        assert!(n >= 5, "cores {n}");
    }

    #[test]
    fn held_target_clamps_to_shrunk_pool_immediately() {
        // Build up a high held envelope against an 8-core pool, then shrink
        // the pool to 3: the target must drop to 3 on the very next call,
        // not bleed down one core per hysteresis window.
        let mut s = ConcordiaScheduler::default_paper();
        let d = [dag(1500, 400, 300)];
        assert_eq!(s.target_cores(&view(1100, &d, 8)), 8);
        let n = s.target_cores(&view(1101, &[], 3));
        assert!(n <= 3, "target {n} must not exceed the shrunk pool");
        // And the envelope can grow right back after a re-grow.
        assert_eq!(s.target_cores(&view(1102, &d, 8)), 8);
    }

    #[test]
    fn critical_stage_takes_everything() {
        // Remaining time barely covers the critical path.
        let mut s = ConcordiaScheduler::default_paper();
        let d = [dag(1500, 400, 300)];
        let n = s.target_cores(&view(1100, &d, 8));
        assert_eq!(n, 8);
    }

    #[test]
    fn past_deadline_is_critical() {
        let mut s = ConcordiaScheduler::default_paper();
        let d = [dag(1000, 100, 50)];
        assert_eq!(s.target_cores(&view(2000, &d, 8)), 8);
    }

    #[test]
    fn heavy_dag_demands_sum_over_dags() {
        // Heavy DAGs ((C-L)/(D-L) >= 1) get dedicated cores that add up.
        let mut s1 = ConcordiaScheduler::default_paper();
        let mut s2 = ConcordiaScheduler::default_paper();
        let d1 = [dag(1500, 3000, 100)];
        let d2 = [dag(1500, 3000, 100), dag(1500, 3000, 100)];
        let n1 = s1.target_cores(&view(0, &d1, 32));
        let n2 = s2.target_cores(&view(0, &d2, 32));
        assert!(n1 >= 3, "n1 {n1}");
        assert!((2 * n1 - 1..=2 * n1 + 1).contains(&n2), "n1 {n1} n2 {n2}");
    }

    #[test]
    fn light_dags_share_cores() {
        // Fourteen light DAGs (utilization ~0.07 each) pack onto one core
        // instead of each demanding its own — the [61] low-utilization rule
        // that makes sharing possible at low traffic loads.
        let mut s = ConcordiaScheduler::default_paper();
        let dags: Vec<DagProgress> = (0..14).map(|_| dag(2000, 100, 60)).collect();
        let n = s.target_cores(&view(0, &dags, 8));
        assert!(n <= 2, "light DAGs must share: {n}");
    }

    #[test]
    fn total_cores_is_a_hard_cap() {
        let mut s = ConcordiaScheduler::default_paper();
        let dags: Vec<DagProgress> = (0..20).map(|_| dag(1500, 2000, 100)).collect();
        assert_eq!(s.target_cores(&view(0, &dags, 8)), 8);
    }

    #[test]
    fn core_margin_scales_allocation() {
        let mut base = ConcordiaScheduler::new(ConcordiaConfig {
            core_margin: 1.0,
            ..ConcordiaConfig::default()
        });
        let mut wide = ConcordiaScheduler::new(ConcordiaConfig {
            core_margin: 2.0,
            ..ConcordiaConfig::default()
        });
        let d = [dag(1000, 1600, 100)];
        let nb = base.target_cores(&view(0, &d, 32));
        let nw = wide.target_cores(&view(0, &d, 32));
        assert!(nw >= 2 * nb - 2, "base {nb} wide {nw}");
        assert!(nw > nb);
    }

    #[test]
    fn shrink_is_hysteretic_and_gradual() {
        let mut s = ConcordiaScheduler::default_paper();
        let heavy = [dag(10_000, 50_000, 100)];
        let n = s.target_cores(&view(0, &heavy, 16));
        assert!(n >= 2);
        // Demand vanishes: within the hysteresis window the target holds…
        assert_eq!(s.target_cores(&view(10, &[], 16)), n);
        // …after one window it drops by exactly one core per window.
        assert_eq!(s.target_cores(&view(1_110, &[], 16)), n - 1);
        assert_eq!(s.target_cores(&view(1_120, &[], 16)), n - 1);
        assert_eq!(s.target_cores(&view(2_220, &[], 16)), n - 2);
    }

    #[test]
    fn more_remaining_work_never_needs_fewer_cores() {
        let mut s = ConcordiaScheduler::default_paper();
        let mut prev = 0;
        for work in [200u64, 400, 800, 1600, 3200] {
            let d = [dag(1500, work, 100)];
            let n = s.target_cores(&view(0, &d, 64));
            assert!(n >= prev, "work {work}: {n} < {prev}");
            prev = n;
        }
    }

    #[test]
    fn queue_overload_forces_critical_stage() {
        let mut s = ConcordiaScheduler::new(ConcordiaConfig {
            overload_wait: Nanos::from_micros(150),
            ..ConcordiaConfig::default()
        });
        // One light DAG with ample slack: normally one core suffices…
        let d = [dag(2000, 100, 60)];
        assert!(s.target_cores(&view(0, &d, 8)) <= 2);
        // …but ready tasks stuck past the overload threshold mean the
        // allocation is wrong on the ground: take the whole pool.
        let mut v = view(0, &d, 8);
        v.oldest_ready_wait = Nanos::from_micros(200);
        assert_eq!(s.target_cores(&v), 8);
    }

    #[test]
    fn overload_detector_is_disabled_by_default() {
        let mut s = ConcordiaScheduler::default_paper();
        let d = [dag(2000, 100, 60)];
        let mut v = view(0, &d, 8);
        v.oldest_ready_wait = Nanos::from_millis(5);
        assert!(s.target_cores(&v) <= 2, "disabled detector must not trip");
    }

    #[test]
    fn target_is_the_ceiling_of_the_summed_demands() {
        // Two heavy DAGs and a light one share one pool-level demand.
        let dags = [
            dag(1500, 3000, 100),
            dag(1500, 3000, 100),
            dag(2000, 100, 60),
        ];
        let s = ConcordiaScheduler::default_paper();
        let total: f64 = dags
            .iter()
            .map(|d| {
                s.demand_for_dag(
                    Nanos::ZERO,
                    d.deadline,
                    d.remaining_work,
                    d.remaining_critical_path,
                )
                .expect("no critical stage")
            })
            .sum();
        let mut sched = ConcordiaScheduler::default_paper();
        assert_eq!(sched.target_cores(&view(0, &dags, 32)), total.ceil() as u32);
    }

    #[test]
    fn staggered_cells_need_fewer_cores_than_aligned() {
        // Four cells whose slot boundaries coincide all hit their
        // tight-slack phase together; staggered cells spread it, so at any
        // instant most of them still have ample slack. This is the
        // statistical-multiplexing effect Table 2 measures end to end.
        let mut aligned = ConcordiaScheduler::default_paper();
        let a: Vec<DagProgress> = (0..4).map(|_| dag(700, 1200, 100)).collect();
        let n_aligned = aligned.target_cores(&view(0, &a, 64));

        let mut staggered = ConcordiaScheduler::default_paper();
        let s: Vec<DagProgress> = (0..4).map(|c| dag(700 + 375 * c, 1200, 100)).collect();
        let n_staggered = staggered.target_cores(&view(0, &s, 64));
        assert!(
            n_staggered < n_aligned,
            "staggered {n_staggered} vs aligned {n_aligned}"
        );
    }

    #[test]
    fn twenty_microsecond_tick_by_default() {
        assert_eq!(
            ConcordiaScheduler::default_paper().tick(),
            Nanos::from_micros(20)
        );
    }
}
