//! Live reconfiguration: typed step plans applied to a *running*
//! simulation at slot boundaries, with per-slot invariant checking,
//! automatic rollback, and safe-order search.
//!
//! A production vRAN changes shape while serving traffic — cells are added
//! and drained, the worker pool grows and shrinks, predictors are swapped,
//! frame timing is re-phased. Each such step is a transaction here:
//!
//! 1. **Apply** at a slot boundary, capturing the inverse (`StepUndo`) and
//!    a snapshot of the per-cell misprediction guards.
//! 2. **Settle** for a configured number of slots, during which hard
//!    invariants ([`InvariantConfig`]) are checked every slot: no deadline
//!    misses beyond the pre-step baseline rate, per-cell task conservation
//!    (nothing lost), and bounded guard inflation.
//! 3. **Commit** when the settle window passes clean — or **roll back** on
//!    the first violated invariant, restoring the captured state and
//!    retrying after a backoff until the retry budget is exhausted, at
//!    which point the plan is declared infeasible in this order.
//!
//! Step order matters: shrinking before growing starves the pool mid-
//! transition even when the end state is fine. [`search_safe_order`]
//! searches the permutation space (greedy move-later repair of the first
//! failing step, then seeded random shuffles) for an order that commits
//! every step, evaluating candidates through a jobs-invariant
//! [`BatchEval`] so the result is byte-reproducible and independent of
//! worker count.

use std::collections::HashSet;
use std::collections::VecDeque;

use crate::config::{PredictorChoice, SimConfig};
use crate::report::{ReconfigReport, StepOutcome};
use crate::runner::BatchEval;
use crate::sim::Simulation;
use concordia_platform::pool::MAX_CORES;
use concordia_platform::trace::TraceEvent;
use concordia_ran::cell::MAX_DEADLINE;
use concordia_ran::time::Nanos;
use concordia_sched::guard::MispredictionGuard;
use concordia_stats::chacha::derive_seed;
use concordia_stats::rng::Rng;
use serde::{Deserialize, Serialize};

/// One typed reconfiguration step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReconfigStep {
    /// Bring one more cell into the deployment. The new cell takes the
    /// next free id, a phase distinct from every existing cell's, and a
    /// deterministic traffic stream derived from the root seed.
    AddCell,
    /// Stop releasing new slot DAGs for `cell`, flush its in-flight DAGs,
    /// then commit the removal. The cell keeps its id and metric buckets
    /// and can be re-activated by a rollback (or a later `AddCell`).
    DrainCell { cell: u32 },
    /// Add `cores` worker cores to the pool at runtime.
    GrowPool { cores: u32 },
    /// Retire `cores` worker cores at runtime (never below one). Busy
    /// cores get a deferred release; fault-lost cores are retired in
    /// place without a second release.
    ShrinkPool { cores: u32 },
    /// Hot-swap the serving WCET predictor, retraining the bank from the
    /// retained profiling dataset. Unsupported (and rolled back) when the
    /// supervisor control plane owns the models.
    SwapPredictor { predictor: PredictorChoice },
    /// Recompute every active cell's slot phase: staggered evenly across
    /// one slot, or aligned onto the epoch.
    Rephase { stagger: bool },
    /// Change the slot-DAG deadline for every subsequently released DAG.
    SetDeadline { deadline_us: u64 },
}

impl ReconfigStep {
    /// Stable display name (used in reports and trace events).
    pub fn name(&self) -> &'static str {
        match self {
            ReconfigStep::AddCell => "add_cell",
            ReconfigStep::DrainCell { .. } => "drain_cell",
            ReconfigStep::GrowPool { .. } => "grow_pool",
            ReconfigStep::ShrinkPool { .. } => "shrink_pool",
            ReconfigStep::SwapPredictor { .. } => "swap_predictor",
            ReconfigStep::Rephase { .. } => "rephase",
            ReconfigStep::SetDeadline { .. } => "set_deadline",
        }
    }
}

/// Hard invariants checked every slot while a step settles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InvariantConfig {
    /// Slots of pre-step observation feeding the baseline violation rate.
    pub baseline_slots: u64,
    /// New deadline misses tolerated per settle window *beyond* the
    /// baseline-rate extrapolation. 0 = a transition may not miss a single
    /// deadline more than the steady state already does.
    pub max_new_violations: u64,
    /// Hard cap on any cell's misprediction-guard inflation during a
    /// transition; a transition that drives a guard past this is treated
    /// as destabilizing and rolled back.
    pub max_guard_inflation: f64,
}

impl Default for InvariantConfig {
    fn default() -> Self {
        InvariantConfig {
            baseline_slots: 200,
            max_new_violations: 0,
            // The guard's own inflation cap is 4.0; flag transitions well
            // before the guard saturates.
            max_guard_inflation: 2.5,
        }
    }
}

/// An ordered list of reconfiguration steps plus transition policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconfigPlan {
    /// First global slot at which a step may be applied (leaves warm-up
    /// slots to establish the violation baseline).
    pub start_slot: u64,
    /// Slots an applied step is watched before it commits.
    pub settle_slots: u64,
    /// Rollbacks tolerated per step before the plan is declared
    /// infeasible (attempts = 1 first try + `max_retries` retries).
    pub max_retries: u32,
    /// Slots to back off after a rollback before retrying, scaled
    /// linearly with the attempt number.
    pub backoff_slots: u64,
    /// Invariant bounds enforced during settle windows.
    pub invariants: InvariantConfig,
    /// The steps, applied strictly in order (step k+1 is not attempted
    /// until step k commits).
    pub steps: Vec<ReconfigStep>,
}

impl ReconfigPlan {
    /// A plan over `steps` with default transition policy.
    pub fn new(steps: Vec<ReconfigStep>) -> Self {
        ReconfigPlan {
            start_slot: 50,
            settle_slots: 40,
            max_retries: 2,
            backoff_slots: 20,
            invariants: InvariantConfig::default(),
            steps,
        }
    }

    /// The same plan with its steps permuted: `order[k]` is the index in
    /// `self.steps` of the step to run k-th.
    pub fn with_order(&self, order: &[usize]) -> ReconfigPlan {
        let mut p = self.clone();
        p.steps = order.iter().map(|&i| self.steps[i]).collect();
        p
    }

    /// The plan minus step `index` (a shrinker move). Out-of-range
    /// indices return the plan unchanged.
    pub fn without_step(&self, index: usize) -> ReconfigPlan {
        let mut p = self.clone();
        if index < p.steps.len() {
            p.steps.remove(index);
        }
        p
    }

    /// Rejects plans whose steps are nonsense regardless of the running
    /// configuration (zero-core resizes, growth past [`MAX_CORES`], a zero
    /// deadline or one above [`MAX_DEADLINE`]). Plan files and
    /// repro artifacts are user-editable JSON, so this runs on every
    /// externally-loaded plan; configuration-dependent problems (draining
    /// a cell that does not exist) still surface as apply-time rollbacks.
    pub fn validate(&self) -> Result<(), ReconfigPlanError> {
        let mut growth = 0u64;
        for (index, step) in self.steps.iter().enumerate() {
            if let &ReconfigStep::GrowPool { cores } = step {
                growth += u64::from(cores);
                if growth > u64::from(MAX_CORES) {
                    return Err(ReconfigPlanError::GrowthTooLarge {
                        index,
                        total: growth,
                    });
                }
            }
            match step {
                ReconfigStep::GrowPool { cores: 0 } | ReconfigStep::ShrinkPool { cores: 0 } => {
                    return Err(ReconfigPlanError::ZeroCores {
                        index,
                        step: step.name().to_string(),
                    });
                }
                ReconfigStep::SetDeadline { deadline_us: 0 } => {
                    return Err(ReconfigPlanError::ZeroDeadline { index });
                }
                &ReconfigStep::SetDeadline { deadline_us }
                    if deadline_us > MAX_DEADLINE.as_nanos() / 1_000 =>
                {
                    return Err(ReconfigPlanError::DeadlineTooLong { index, deadline_us });
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Why an externally-supplied [`ReconfigPlan`] is invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum ReconfigPlanError {
    /// A pool resize of zero cores is a no-op that would still burn a
    /// settle window; reject it as a typo.
    ZeroCores { index: usize, step: String },
    /// A zero deadline fails every DAG unconditionally.
    ZeroDeadline { index: usize },
    /// A deadline above [`MAX_DEADLINE`].
    DeadlineTooLong { index: usize, deadline_us: u64 },
    /// The plan's `GrowPool` steps, up to this one, add more than
    /// [`MAX_CORES`] cores in total.
    GrowthTooLarge { index: usize, total: u64 },
}

impl std::fmt::Display for ReconfigPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconfigPlanError::ZeroCores { index, step } => {
                write!(f, "step #{index} ({step}): resizing by zero cores")
            }
            ReconfigPlanError::ZeroDeadline { index } => {
                write!(
                    f,
                    "step #{index} (set_deadline): deadline_us must be positive"
                )
            }
            ReconfigPlanError::DeadlineTooLong { index, deadline_us } => {
                write!(
                    f,
                    "step #{index} (set_deadline): deadline_us {deadline_us} is above the \
                     maximum of {}",
                    MAX_DEADLINE.as_nanos() / 1_000
                )
            }
            ReconfigPlanError::GrowthTooLarge { index, total } => {
                write!(
                    f,
                    "step #{index} (grow_pool): cores add up to {total} over the plan, above \
                     the maximum of {MAX_CORES}"
                )
            }
        }
    }
}

impl std::error::Error for ReconfigPlanError {}

/// The inverse of an applied step, captured at apply time.
#[derive(Debug, Clone)]
pub(crate) enum StepUndo {
    /// Undo `AddCell`: drain the cell that was added. Its in-flight DAGs
    /// flush naturally, so the rollback itself never loses work.
    DrainAdded { cell: u32 },
    /// Undo `DrainCell`: re-activate the cell.
    Resume { cell: u32 },
    /// Undo `GrowPool`: retire the cores that were added.
    ShrinkBack { cores: u32 },
    /// Undo `ShrinkPool`: revive the cores that were actually retired.
    GrowBack { cores: u32 },
    /// Undo `SwapPredictor`: retrain and reinstall the previous choice.
    SwapBack { predictor: PredictorChoice },
    /// Undo `Rephase`: restore every cell's previous phase (and the
    /// config's stagger flag).
    RestorePhases {
        stagger: bool,
        phases: Vec<(u32, Nanos)>,
    },
    /// Undo `SetDeadline`: restore the previous deadline (and override).
    RestoreDeadline {
        deadline: Nanos,
        override_prev: Option<Nanos>,
    },
}

/// What the sim exposes to the invariant monitor at each slot boundary.
pub(crate) struct SlotObservables {
    /// Cumulative deadline violations since the start of the run.
    pub violations: u64,
    /// Worst per-cell guard inflation right now.
    pub max_guard_inflation: f64,
    /// First cell whose ledger fails `injected == completed + in_flight`,
    /// if any — a conservation (task-loss) violation.
    pub conservation_violation: Option<u32>,
}

/// Sliding window of cumulative violation counts, one sample per slot
/// boundary, from which the pre-step baseline miss rate is derived.
#[derive(Debug, Clone)]
struct BaselineTracker {
    window: u64,
    samples: VecDeque<u64>,
}

impl BaselineTracker {
    fn new(window: u64) -> Self {
        BaselineTracker {
            window: window.max(1),
            samples: VecDeque::new(),
        }
    }

    fn push(&mut self, cum_violations: u64) {
        self.samples.push_back(cum_violations);
        while self.samples.len() as u64 > self.window {
            self.samples.pop_front();
        }
    }

    /// Violations per slot over the tracked window.
    fn rate(&self) -> f64 {
        match (self.samples.front(), self.samples.back()) {
            (Some(&first), Some(&latest)) if self.samples.len() > 1 => {
                (latest - first) as f64 / (self.samples.len() - 1) as f64
            }
            _ => 0.0,
        }
    }

    /// The latest sample, 0 before the first: the window holds at least
    /// one, so after a push its back is that push.
    fn last(&self) -> u64 {
        self.samples.back().copied().unwrap_or(0)
    }
}

/// A step that has been applied and is being watched until commit.
struct Inflight {
    /// Index into `plan.steps`.
    step: usize,
    applied_slot: u64,
    /// First slot at which the step may commit.
    commit_slot: u64,
    undo: StepUndo,
    /// Cumulative violations when the step was applied.
    violations_at_apply: u64,
    /// Baseline violations-per-slot rate captured at apply time.
    baseline_rate: f64,
    /// Pre-step guard state, restored wholesale on rollback.
    guards: Vec<MispredictionGuard>,
    /// For `DrainCell`: the cell whose in-flight DAGs must flush before
    /// the commit is allowed.
    drain_cell: Option<u32>,
}

/// Executes a [`ReconfigPlan`] against a running [`Simulation`]: the
/// invariant monitor and rollback controller in one state machine, driven
/// once per global slot from the sim's slot loop.
pub(crate) struct ReconfigEngine {
    plan: ReconfigPlan,
    /// Index of the next step to apply (all steps before it committed).
    cursor: usize,
    outcomes: Vec<StepOutcome>,
    /// Slot at/after which the cursor step may be (re)applied.
    next_apply_slot: u64,
    inflight: Option<Inflight>,
    /// A step exhausted its retries: remaining steps are skipped and the
    /// simulation continues in its last consistent configuration.
    infeasible: bool,
    invariant_checks: u64,
    baseline: BaselineTracker,
}

impl ReconfigEngine {
    pub fn new(plan: ReconfigPlan) -> Self {
        let outcomes = plan
            .steps
            .iter()
            .map(|s| StepOutcome {
                step: s.name().to_string(),
                attempts: 0,
                rollbacks: 0,
                committed: false,
                applied_slot: 0,
                committed_slot: None,
                violation: None,
            })
            .collect();
        let next_apply_slot = plan.start_slot;
        let baseline = BaselineTracker::new(plan.invariants.baseline_slots);
        ReconfigEngine {
            plan,
            cursor: 0,
            outcomes,
            next_apply_slot,
            inflight: None,
            infeasible: false,
            invariant_checks: 0,
            baseline,
        }
    }

    /// Drives the transition state machine at the end of global slot
    /// `slot`: track the baseline, check invariants on the in-flight step
    /// (rolling back on violation, committing after a clean settle), or
    /// apply the next step once its apply slot is reached.
    pub fn on_slot_end(&mut self, sim: &mut Simulation, slot: u64) {
        let obs = sim.reconfig_observe();
        self.baseline.push(obs.violations);

        if self.infeasible || self.cursor >= self.plan.steps.len() {
            return;
        }

        if self.inflight.is_some() {
            self.invariant_checks += 1;
            if let Some(reason) = self.check_invariants(&obs, slot) {
                self.rollback(sim, slot, reason);
                return;
            }
            let fl = self.inflight.as_ref().expect("inflight step");
            if slot < fl.commit_slot {
                return;
            }
            // DrainCell commits only once the cell's in-flight DAGs have
            // flushed; the commit point extends while they drain, bounded
            // by one extra settle window.
            if let Some(cell) = fl.drain_cell {
                if sim.cell_in_flight(cell) > 0 {
                    if slot >= fl.commit_slot + self.plan.settle_slots.max(1) {
                        self.rollback(
                            sim,
                            slot,
                            format!("drain: cell {cell} still has in-flight DAGs"),
                        );
                    }
                    return;
                }
            }
            self.commit(sim, slot);
            return;
        }

        if slot >= self.next_apply_slot {
            self.apply_next(sim, slot);
        }
    }

    /// Evaluates the hard invariants against the in-flight step. Returns
    /// the violation description, or `None` when the transition is clean.
    fn check_invariants(&self, obs: &SlotObservables, slot: u64) -> Option<String> {
        let fl = self.inflight.as_ref()?;
        let inv = &self.plan.invariants;
        if let Some(cell) = obs.conservation_violation {
            return Some(format!(
                "conservation: cell {cell} ledger does not balance (task lost)"
            ));
        }
        if obs.max_guard_inflation > inv.max_guard_inflation {
            return Some(format!(
                "guard_inflation: {:.3} exceeds bound {:.3}",
                obs.max_guard_inflation, inv.max_guard_inflation
            ));
        }
        let new = obs.violations.saturating_sub(fl.violations_at_apply);
        let slots = slot.saturating_sub(fl.applied_slot).max(1);
        let allowed = (fl.baseline_rate * slots as f64).ceil() as u64 + inv.max_new_violations;
        if new > allowed {
            return Some(format!(
                "deadline_misses: {new} new in {slots} slots (baseline allows {allowed})"
            ));
        }
        None
    }

    fn apply_next(&mut self, sim: &mut Simulation, slot: u64) {
        let idx = self.cursor;
        let step = self.plan.steps[idx];
        self.outcomes[idx].attempts += 1;
        self.outcomes[idx].applied_slot = slot;
        let guards = sim.guards_snapshot();
        let baseline_rate = self.baseline.rate();
        let violations_at_apply = self.baseline.last();
        match sim.reconfig_apply(&step) {
            Ok(undo) => {
                sim.trace_reconfig(TraceEvent::ReconfigApply {
                    step: step.name(),
                    index: idx as u32,
                });
                self.inflight = Some(Inflight {
                    step: idx,
                    applied_slot: slot,
                    commit_slot: slot + self.plan.settle_slots,
                    undo,
                    violations_at_apply,
                    baseline_rate,
                    guards,
                    drain_cell: match step {
                        ReconfigStep::DrainCell { cell } => Some(cell),
                        _ => None,
                    },
                });
            }
            Err(msg) => {
                // Nothing changed, so there is nothing to revert — but a
                // deterministic apply error consumes the same retry budget
                // a rollback would.
                self.outcomes[idx].violation = Some(msg);
                self.after_failed_attempt(idx, slot);
            }
        }
    }

    fn rollback(&mut self, sim: &mut Simulation, slot: u64, reason: String) {
        let fl = self.inflight.take().expect("rollback without inflight");
        sim.reconfig_undo(fl.undo);
        sim.restore_guards(fl.guards);
        sim.trace_reconfig(TraceEvent::ReconfigRollback {
            index: fl.step as u32,
        });
        self.outcomes[fl.step].rollbacks += 1;
        self.outcomes[fl.step].violation = Some(reason);
        self.after_failed_attempt(fl.step, slot);
    }

    fn after_failed_attempt(&mut self, idx: usize, slot: u64) {
        let attempts = self.outcomes[idx].attempts;
        if attempts > self.plan.max_retries {
            self.infeasible = true;
        } else {
            // Linear backoff: attempt k waits k backoff windows before
            // the retry, giving the pool time to re-settle.
            self.next_apply_slot = slot + self.plan.backoff_slots.max(1) * attempts as u64;
        }
    }

    fn commit(&mut self, sim: &mut Simulation, slot: u64) {
        let fl = self.inflight.take().expect("commit without inflight");
        sim.trace_reconfig(TraceEvent::ReconfigCommit {
            index: fl.step as u32,
        });
        self.outcomes[fl.step].committed = true;
        self.outcomes[fl.step].committed_slot = Some(slot);
        self.cursor += 1;
        self.next_apply_slot = slot + 1;
    }

    /// Called once after the slot loop: a step still settling when the
    /// run ends never committed.
    pub fn finalize(&mut self) {
        if let Some(fl) = self.inflight.take() {
            self.outcomes[fl.step].violation =
                Some("run ended during the settle window".to_string());
        }
    }

    pub fn report(&self, final_cells: u32, final_cores: u32) -> ReconfigReport {
        let committed_steps = self.outcomes.iter().filter(|o| o.committed).count() as u64;
        ReconfigReport {
            steps: self.outcomes.clone(),
            committed_steps,
            rollbacks: self.outcomes.iter().map(|o| u64::from(o.rollbacks)).sum(),
            invariant_checks: self.invariant_checks,
            feasible: committed_steps == self.plan.steps.len() as u64,
            final_cells,
            final_cores,
        }
    }
}

/// Greedy repair rounds of [`search_safe_order`]: each round moves the
/// first failing step to every later position and keeps the best candidate.
const GREEDY_ROUNDS: usize = 4;
/// Seeded random permutations tried after greedy repair fails.
const RANDOM_TRIES: usize = 8;
/// Seed for the random-permutation phase (independent of the simulation
/// seed).
const SEARCH_SEED: u64 = 0x5EA2C;

/// One evaluated step order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OrderOutcome {
    /// Permutation evaluated: `order[k]` = index of the original plan's
    /// step run k-th.
    pub order: Vec<usize>,
    /// Whether every step committed.
    pub feasible: bool,
    /// Steps that committed under this order.
    pub committed_steps: u64,
    /// Rollbacks this order suffered.
    pub rollbacks: u64,
}

/// Result of [`search_safe_order`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchReport {
    /// Simulations run (= orders evaluated).
    pub evaluations: u64,
    /// Whether the plan's own (naive) order already commits every step.
    pub naive_feasible: bool,
    /// The first feasible order found, if any. Deterministic per seed and
    /// independent of the worker count.
    pub safe_order: Option<Vec<usize>>,
    /// Every evaluated order, in evaluation order.
    pub tried: Vec<OrderOutcome>,
}

/// Searches for a step order under which `plan` commits every step when
/// run against `base`.
///
/// Strategy: evaluate the naive order; while it fails, greedily move the
/// first failing step to each later position (all candidates of a round
/// evaluated in one parallel batch, earliest passing position wins — a
/// flattened bisection over insertion points); if greedy repair dries up,
/// fall back to seeded random permutations. Candidates are evaluated via
/// `eval`, which returns results in input order regardless of its worker
/// count, so the outcome is a pure function of `(base, plan)`. Every
/// candidate shares the base's offline inputs, so a [`ParallelEval`]
/// selects features once for the whole search.
///
/// [`ParallelEval`]: crate::runner::ParallelEval
pub fn search_safe_order(
    base: &SimConfig,
    plan: &ReconfigPlan,
    eval: &mut dyn BatchEval,
) -> SearchReport {
    let n = plan.steps.len();
    let mut report = SearchReport {
        evaluations: 0,
        naive_feasible: false,
        safe_order: None,
        tried: Vec::new(),
    };
    if n == 0 {
        report.naive_feasible = true;
        report.safe_order = Some(Vec::new());
        return report;
    }

    let mut evaluate = |orders: &[Vec<usize>], report: &mut SearchReport| -> Vec<OrderOutcome> {
        let configs: Vec<SimConfig> = orders
            .iter()
            .map(|o| SimConfig {
                reconfig: Some(plan.with_order(o)),
                ..base.clone()
            })
            .collect();
        let results = eval.eval_batch(configs);
        let outcomes: Vec<OrderOutcome> = orders
            .iter()
            .zip(&results)
            .map(|(order, res)| {
                let rc = res.as_ref().ok().and_then(|r| r.reconfig.as_ref());
                OrderOutcome {
                    order: order.clone(),
                    feasible: rc.is_some_and(|rc| rc.feasible),
                    committed_steps: rc.map_or(0, |rc| rc.committed_steps),
                    rollbacks: rc.map_or(0, |rc| rc.rollbacks),
                }
            })
            .collect();
        report.evaluations += outcomes.len() as u64;
        report.tried.extend(outcomes.iter().cloned());
        outcomes
    };

    let mut seen: HashSet<Vec<usize>> = HashSet::new();
    let naive: Vec<usize> = (0..n).collect();
    seen.insert(naive.clone());
    let mut current = evaluate(std::slice::from_ref(&naive), &mut report)
        .into_iter()
        .next()
        .expect("naive order evaluated");
    report.naive_feasible = current.feasible;
    if current.feasible {
        report.safe_order = Some(naive);
        return report;
    }

    // Greedy repair: the first step that failed to commit is the earliest
    // trouble spot; try deferring it to every later position.
    for _ in 0..GREEDY_ROUNDS {
        let fail_pos = (current.committed_steps as usize).min(n - 1);
        let mut candidates: Vec<Vec<usize>> = Vec::new();
        for target in fail_pos + 1..n {
            let mut order = current.order.clone();
            let step = order.remove(fail_pos);
            order.insert(target, step);
            if seen.insert(order.clone()) {
                candidates.push(order);
            }
        }
        if candidates.is_empty() {
            break;
        }
        let outcomes = evaluate(&candidates, &mut report);
        if let Some(win) = outcomes.iter().find(|o| o.feasible) {
            report.safe_order = Some(win.order.clone());
            return report;
        }
        // No candidate passed: continue from the one that got furthest
        // (ties broken by evaluation order, i.e. earliest target).
        if let Some(best) = outcomes
            .into_iter()
            .max_by_key(|o| (o.committed_steps, std::cmp::Reverse(o.rollbacks)))
        {
            if best.committed_steps > current.committed_steps {
                current = best;
            } else {
                break;
            }
        }
    }

    // Random phase: seeded Fisher–Yates shuffles, evaluated in one batch.
    let mut candidates: Vec<Vec<usize>> = Vec::new();
    for i in 0..RANDOM_TRIES {
        let mut rng = Rng::new(derive_seed(SEARCH_SEED, i as u64));
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        if seen.insert(order.clone()) {
            candidates.push(order);
        }
    }
    if !candidates.is_empty() {
        let outcomes = evaluate(&candidates, &mut report);
        if let Some(win) = outcomes.iter().find(|o| o.feasible) {
            report.safe_order = Some(win.order.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_round_trips_through_json() {
        let plan = ReconfigPlan::new(vec![
            ReconfigStep::GrowPool { cores: 2 },
            ReconfigStep::AddCell,
            ReconfigStep::DrainCell { cell: 1 },
            ReconfigStep::SetDeadline { deadline_us: 1800 },
        ]);
        let json = serde_json::to_string(&plan).unwrap();
        let back: ReconfigPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn with_order_permutes_steps() {
        let plan = ReconfigPlan::new(vec![
            ReconfigStep::AddCell,
            ReconfigStep::GrowPool { cores: 2 },
            ReconfigStep::ShrinkPool { cores: 1 },
        ]);
        let p = plan.with_order(&[1, 2, 0]);
        assert_eq!(p.steps[0], ReconfigStep::GrowPool { cores: 2 });
        assert_eq!(p.steps[2], ReconfigStep::AddCell);
        assert_eq!(p.settle_slots, plan.settle_slots);
    }

    #[test]
    fn baseline_tracker_rate() {
        let mut b = BaselineTracker::new(4);
        assert_eq!(b.rate(), 0.0);
        for v in [0, 2, 4, 6, 8] {
            b.push(v);
        }
        // Window holds [2, 4, 6, 8]: 6 violations over 3 slots.
        assert_eq!(b.rate(), 2.0);
        assert_eq!(b.last(), 8);
    }

    #[test]
    fn validate_rejects_zero_resizes_and_deadlines() {
        let ok = ReconfigPlan::new(vec![
            ReconfigStep::GrowPool { cores: 2 },
            ReconfigStep::SetDeadline { deadline_us: 1800 },
        ]);
        assert!(ok.validate().is_ok());
        let bad = ReconfigPlan::new(vec![
            ReconfigStep::AddCell,
            ReconfigStep::ShrinkPool { cores: 0 },
        ]);
        let err = bad.validate().expect_err("zero-core shrink");
        assert_eq!(
            err,
            ReconfigPlanError::ZeroCores {
                index: 1,
                step: "shrink_pool".into()
            }
        );
        assert!(err.to_string().contains("step #1"), "{err}");
        let bad = ReconfigPlan::new(vec![ReconfigStep::SetDeadline { deadline_us: 0 }]);
        assert!(matches!(
            bad.validate(),
            Err(ReconfigPlanError::ZeroDeadline { index: 0 })
        ));
        // The longest deadline passes. One more is refused, and so are the
        // probes: the most microseconds the clock holds, which wrapped the
        // DAG builder's `arrival + deadline`, and one more.
        let max_us = MAX_DEADLINE.as_nanos() / 1_000;
        let ok = ReconfigPlan::new(vec![ReconfigStep::SetDeadline {
            deadline_us: max_us,
        }]);
        assert!(ok.validate().is_ok());
        for deadline_us in [max_us + 1, u64::MAX / 1_000, u64::MAX / 1_000 + 1] {
            let bad = ReconfigPlan::new(vec![
                ReconfigStep::AddCell,
                ReconfigStep::SetDeadline { deadline_us },
            ]);
            let err = bad.validate().expect_err("deadline above the maximum");
            assert_eq!(
                err,
                ReconfigPlanError::DeadlineTooLong {
                    index: 1,
                    deadline_us
                }
            );
            assert!(err.to_string().contains("step #1"), "{err}");
            assert!(err.to_string().contains("maximum of 1000000"), "{err}");
        }
    }

    #[test]
    fn validate_refuses_growth_past_the_pool_maximum() {
        let ok = ReconfigPlan::new(vec![
            ReconfigStep::GrowPool {
                cores: MAX_CORES - 1,
            },
            ReconfigStep::ShrinkPool { cores: 3 },
            ReconfigStep::GrowPool { cores: 1 },
        ]);
        assert!(ok.validate().is_ok());
        // Growth adds up over the plan, whatever the shrinks between.
        let bad = ReconfigPlan::new(vec![
            ReconfigStep::GrowPool { cores: MAX_CORES },
            ReconfigStep::ShrinkPool { cores: 3 },
            ReconfigStep::GrowPool { cores: 1 },
        ]);
        let err = bad.validate().expect_err("growth past the maximum");
        assert_eq!(
            err,
            ReconfigPlanError::GrowthTooLarge {
                index: 2,
                total: u64::from(MAX_CORES) + 1
            }
        );
        assert!(err.to_string().starts_with("step #2 (grow_pool)"), "{err}");
        let huge = ReconfigPlan::new(vec![ReconfigStep::GrowPool { cores: u32::MAX }]);
        assert!(matches!(
            huge.validate(),
            Err(ReconfigPlanError::GrowthTooLarge { index: 0, .. })
        ));
    }

    #[test]
    fn without_step_drops_exactly_one() {
        let plan = ReconfigPlan::new(vec![
            ReconfigStep::AddCell,
            ReconfigStep::GrowPool { cores: 2 },
            ReconfigStep::ShrinkPool { cores: 1 },
        ]);
        let p = plan.without_step(1);
        assert_eq!(
            p.steps,
            vec![ReconfigStep::AddCell, ReconfigStep::ShrinkPool { cores: 1 }]
        );
        assert_eq!(plan.without_step(9), plan);
    }

    #[test]
    fn empty_plan_searches_trivially() {
        let base = SimConfig::paper_20mhz();
        let plan = ReconfigPlan::new(Vec::new());
        let mut eval = crate::runner::ParallelEval::new(1);
        let r = search_safe_order(&base, &plan, &mut eval);
        assert!(r.naive_feasible);
        assert_eq!(r.safe_order, Some(Vec::new()));
        assert_eq!(r.evaluations, 0);
    }
}
