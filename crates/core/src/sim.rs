//! The end-to-end Concordia simulation: offline profiling → predictor
//! training → online multi-cell slot loop with scheduling, colocation and
//! online adaptation.
//!
//! The deployment runs `n_cells` independent slot clocks over one shared
//! worker pool. With [`crate::config::SimConfig::cell_stagger`] on (the
//! default), cell `c`'s slot boundaries are offset by `c / n_cells` of a
//! slot, so the cells' compute peaks interleave instead of landing on one
//! global tick — the statistical-multiplexing effect that Table 2 of the
//! paper quantifies. Cells sharing a boundary instant form one *phase
//! group* and are injected together in cell-id order; with stagger off (or
//! a single cell) all cells collapse into one group on one global slot
//! clock, whose bytes the single-cell goldens pin.

use crate::config::{Colocation, PredictorChoice, SchedulerChoice, SimConfig};
use crate::profile::{
    fit_bank, fit_supervisor, OfflineCache, OfflineInputs, ProfilingDataset, Selections,
};
use crate::reconfig::{ReconfigEngine, ReconfigStep, SlotObservables, StepUndo};
use crate::report::{
    BackpressureReport, ExperimentReport, FaultReport, FaultWindowReport, SupervisorReport,
    WorkloadReport,
};
use concordia_platform::faults::{FaultKind, FaultTimeline};
use concordia_platform::pool::{PoolConfig, ScheduledDag, VranPool};
use concordia_platform::sched_api::{DedicatedScheduler, PoolScheduler};
use concordia_platform::trace::{TraceEvent, TraceRecorder};
use concordia_platform::workloads::{MixSchedule, WorkloadKind};
use concordia_predictor::api::ModelBank;
use concordia_ran::cell::CellInstance;
use concordia_ran::cost::CostModel;
use concordia_ran::dag::{build_dag_into, DagScratch, SlotWorkload};
use concordia_ran::features::{extract, FeatureVec};
use concordia_ran::numerology::SlotDirection;
use concordia_ran::task::{TaskInstance, TaskKind};
use concordia_ran::time::Nanos;
use concordia_sched::baselines::{FlexRanScheduler, ShenangoScheduler, UtilizationScheduler};
use concordia_sched::concordia::ConcordiaScheduler;
use concordia_sched::guard::MispredictionGuard;
use concordia_sched::supervisor::{AdmissionLevel, LaneState, PredictorSupervisor};
use concordia_stats::rng::Rng;
use concordia_traffic::gen5g::{CellTraffic, TrafficConfig};
use concordia_traffic::scenario::ScenarioRuntime;
use std::sync::Arc;

/// A fully assembled simulation, ready to run.
pub struct Simulation {
    cfg: SimConfig,
    cost: CostModel,
    pool: VranPool,
    bank: ModelBank,
    /// The deployment's cells, in id order.
    cells: Vec<CellInstance>,
    /// Cells grouped by slot-boundary phase, ascending phase. Each entry
    /// is one injection instant per slot; staggered cells get one group
    /// each, aligned cells share a single group at phase 0.
    boundary_groups: Vec<(Nanos, Vec<u32>)>,
    /// Configuration epoch of `boundary_groups`: bumped only when a
    /// reconfiguration step changes membership or phases. The slot loop
    /// iterates the cached groups by index — they are stable within a
    /// slot because rebuilds only happen at slot end — so steady state
    /// touches no heap at all.
    boundary_epoch: u64,
    traffic: Vec<CellTraffic>,
    mix: Option<MixSchedule>,
    static_pressure: (f64, f64),
    faults: Arc<FaultTimeline>,
    /// One misprediction guard per cell: a cell whose channel turns
    /// pathological inflates only its own WCETs instead of taxing every
    /// cell in the pool.
    guards: Vec<MispredictionGuard>,
    /// The predictor control plane; when present it replaces the bare
    /// model bank as the prediction source.
    supervisor: Option<PredictorSupervisor>,
    /// Best-effort pressure currently withdrawn by admission control.
    shedding: bool,
    /// Slot DAGs / violations already attributed to closed windows.
    win_dags: u64,
    win_viols: u64,
    slot: u64,
    /// Last guard inflation the trace saw (change-detected so the trace
    /// carries one counter sample per change, not one per slot).
    last_traced_inflation: f64,
    /// Worst guard inflation observed at any slot boundary (survives
    /// guard resets and reconfig rollbacks; reported for the search
    /// oracle).
    peak_guard_inflation: f64,
    /// Last admission level the trace saw.
    last_traced_admission: AdmissionLevel,
    /// Which workload-level fault kinds (predictor bias, traffic surge —
    /// the ones that never reach the pool's own timeline) are currently
    /// inside an active window, for edge-detected trace events.
    workload_fault_active: [bool; 2],
    /// The profiling dataset and its Algorithm 1 selections, retained
    /// only when a reconfiguration plan may hot-swap the predictor
    /// (`SwapPredictor` refits from them, selecting any kind the starting
    /// model never needed).
    swap_inputs: Option<(ProfilingDataset, Arc<Selections>)>,
    /// The live-reconfiguration engine; present only for a non-empty
    /// plan, so plain runs skip the hook entirely.
    reconfig: Option<ReconfigEngine>,
    /// Cells configured at start; cells with ids at or above this were
    /// added at runtime by `AddCell`.
    initial_cells: u32,
    /// Slot-workload scratch reused across injections.
    wl_scratch: SlotWorkload,
    /// DAG-builder index scratch, reused across every built DAG.
    dag_scratch: DagScratch,
    /// Workload-scenario envelope (diurnal ramps, flash crowds, slice
    /// classes, mMTC floors, trace replay). `None` runs the calibrated
    /// generator untouched — that path draws exactly the historical RNG
    /// stream, so scenario-free reports keep their bytes.
    scenario: Option<ScenarioRuntime>,
}

/// Workload-level fault kinds the sim (not the pool) traces, paired with
/// their slot in [`Simulation::workload_fault_active`].
const WORKLOAD_FAULTS: [FaultKind; 2] = [FaultKind::PredictorBias, FaultKind::TrafficSurge];

fn make_scheduler(choice: SchedulerChoice) -> Box<dyn PoolScheduler> {
    match choice {
        SchedulerChoice::Concordia(cfg) => Box::new(ConcordiaScheduler::new(cfg)),
        SchedulerChoice::FlexRan => Box::new(FlexRanScheduler::default()),
        SchedulerChoice::Shenango(thr) => Box::new(ShenangoScheduler::new(thr)),
        SchedulerChoice::Utilization(hi) => Box::new(UtilizationScheduler::new(hi)),
        SchedulerChoice::Dedicated => Box::new(DedicatedScheduler),
    }
}

/// Cell `cell`'s traffic source, on its own stream forked from `root`.
fn cell_traffic(cfg: &SimConfig, cell: u32, root: &Rng) -> CellTraffic {
    CellTraffic::for_cell(
        cfg.cell,
        TrafficConfig {
            load: cfg.load,
            // Peak provisioning drives near-peak volume into every slot
            // (the Table 2/3 sizing criterion).
            mean_at_full: if cfg.peak_provisioning { 0.95 } else { 0.5 },
        },
        cell,
        root,
    )
}

/// Groups `cells` by slot-boundary phase, ascending phase, each group in
/// the cells' order.
fn phase_groups<'a>(cells: impl Iterator<Item = &'a CellInstance>) -> Vec<(Nanos, Vec<u32>)> {
    let mut groups: Vec<(Nanos, Vec<u32>)> = Vec::new();
    for cell in cells {
        match groups.iter_mut().find(|(p, _)| *p == cell.phase) {
            Some((_, group)) => group.push(cell.id),
            None => groups.push((cell.phase, vec![cell.id])),
        }
    }
    groups.sort_by_key(|(p, _)| *p);
    groups
}

/// The generator's payload draw for one slot direction. The special slot
/// carries a reduced DL volume.
fn draw_bytes(traffic: &mut CellTraffic, dir: SlotDirection) -> f64 {
    match dir {
        SlotDirection::Uplink => traffic.next_ul_bytes(),
        SlotDirection::Downlink => traffic.next_dl_bytes(),
        SlotDirection::Special => traffic.next_dl_bytes() * 0.6,
    }
}

impl Simulation {
    /// Builds the simulation: runs the offline profiling phase, trains the
    /// predictor bank, and sets up the pool, per-cell traffic sources and
    /// colocation.
    pub fn new(cfg: SimConfig) -> Self {
        Simulation::with_cache(cfg, &OfflineCache::new())
    }

    /// [`Simulation::new`], taking Algorithm 1's feature selections from
    /// `cache` when another simulation built through it had the same
    /// offline inputs. The models are bit-identical to a cache-free build:
    /// the selections are a pure function of those inputs, and every fit
    /// runs here.
    pub fn with_cache(cfg: SimConfig, cache: &OfflineCache) -> Self {
        let mut cell = cfg.cell;
        if let Some(d) = cfg.deadline_override {
            cell.deadline = d;
        }
        let cfg = SimConfig { cell, ..cfg };
        // A scenario's platform knob rescales every task cost (the
        // Pramanik-style compute-scale sweep); the reference platform
        // resolves to `None` inside `for_platform_scale`, which is the
        // bit-identical unscaled code path.
        let cost = match cfg.scenario.as_ref() {
            Some(spec) => CostModel::for_platform_scale(spec.compute_scale()),
            None => CostModel::new(),
        };
        let root = Rng::new(cfg.seed);

        // Offline phase (§4.2): isolated vRAN, randomized inputs. The
        // cells share one radio configuration, so one profile serves all.
        let offline = OfflineInputs {
            cell: cfg.cell,
            cost: cost.clone(),
            profiling_slots: cfg.profiling_slots,
            cores: cfg.cores,
            seed: cfg.seed ^ 0x0FF_11FE,
        };
        let dataset = cache.profile(&offline);
        let selections = cache.selections(&offline);
        // With a supervisor, the control plane owns the models (one
        // primary + one fallback per lane) and the bank stays empty;
        // training the same primaries twice would double the setup cost.
        let (bank, supervisor) = match cfg.supervisor {
            Some(mut sup_cfg) => {
                // The supervisor's online feed mirrors the experiment's
                // online-updates switch (frozen ablations stay frozen).
                sup_cfg.online_feed = sup_cfg.online_feed && cfg.online_updates;
                (
                    ModelBank::new(),
                    Some(fit_supervisor(
                        &dataset,
                        &selections,
                        cfg.predictor,
                        &cost,
                        sup_cfg,
                    )),
                )
            }
            None => (fit_bank(&dataset, &selections, cfg.predictor, &cost), None),
        };

        let pool = VranPool::new(
            PoolConfig {
                cores: cfg.cores,
                arch: cfg.pool,
                ..PoolConfig::default()
            },
            cost.clone(),
            make_scheduler(cfg.scheduler),
            cfg.seed ^ 0x9001,
        );

        let cells: Vec<CellInstance> = (0..cfg.n_cells)
            .map(|c| {
                if cfg.cell_stagger {
                    cfg.cell.instance(c, cfg.n_cells)
                } else {
                    CellInstance::aligned(c, cfg.cell)
                }
            })
            .collect();
        let boundary_groups = phase_groups(cells.iter());
        let traffic = (0..cfg.n_cells)
            .map(|c| cell_traffic(&cfg, c, &root))
            .collect();

        let (mix, static_pressure) = match cfg.colocation {
            Colocation::Isolated => (None, (0.0, 0.0)),
            Colocation::Single(kind) => {
                let p = kind.profile();
                (None, (p.cache_intensity, p.kernel_intensity))
            }
            Colocation::Mix => {
                let mut rng = root.fork(999);
                (
                    Some(MixSchedule::generate(cfg.duration, &mut rng)),
                    (0.0, 0.0),
                )
            }
        };

        // Resolve the fault plan on its own seed stream: the same (seed,
        // plan) always yields the same windows, and a fault-free plan
        // leaves every other stream untouched.
        let faults = Arc::new(cfg.faults.resolve(cfg.seed ^ 0xFA17));

        let guards = (0..cfg.n_cells.max(1))
            .map(|_| MispredictionGuard::default())
            .collect();
        // A non-empty reconfiguration plan arms the engine and keeps the
        // profiling dataset and its selections alive for predictor
        // hot-swaps; otherwise both stay `None` and the slot loop is
        // exactly the static one.
        let reconfig = cfg
            .reconfig
            .clone()
            .filter(|p| !p.steps.is_empty())
            .map(ReconfigEngine::new);
        let swap_inputs = reconfig.is_some().then_some((dataset, selections));
        let initial_cells = cfg.n_cells;
        // Scenario envelope state lives on its own seed stream; all of
        // its randomness is drawn inside `begin_slot`, so a scenario-free
        // run draws nothing extra anywhere.
        let scenario = cfg.scenario.clone().map(|spec| {
            let slots = cfg.duration.as_nanos() / cfg.cell.slot_duration().as_nanos();
            ScenarioRuntime::new(spec, cfg.n_cells, slots, cfg.seed ^ 0x5CE0)
        });
        let mut sim = Simulation {
            cfg,
            cost,
            pool,
            bank,
            cells,
            boundary_groups,
            boundary_epoch: 0,
            traffic,
            mix,
            static_pressure,
            faults,
            guards,
            supervisor,
            shedding: false,
            win_dags: 0,
            win_viols: 0,
            slot: 0,
            last_traced_inflation: 1.0,
            peak_guard_inflation: 1.0,
            last_traced_admission: AdmissionLevel::Normal,
            workload_fault_active: [false; 2],
            swap_inputs,
            reconfig,
            initial_cells,
            wl_scratch: SlotWorkload {
                direction: SlotDirection::Uplink,
                ues: Vec::new(),
            },
            dag_scratch: DagScratch::default(),
            scenario,
        };
        if let Some(tc) = sim.cfg.trace {
            sim.pool.enable_trace(tc);
        }
        if sim.cfg.fpga {
            sim.pool
                .enable_fpga(concordia_ran::accel::FpgaModel::default());
        }
        if !sim.faults.is_empty() {
            sim.pool.set_fault_timeline(Arc::clone(&sim.faults));
        }
        let (c0, k0) = sim.pressure_at(Nanos::ZERO);
        sim.pool.set_pressure(c0, k0);
        sim
    }

    /// The deployment's cells, in id order.
    pub fn cells(&self) -> &[CellInstance] {
        &self.cells
    }

    fn pressure_at(&self, t: Nanos) -> (f64, f64) {
        match &self.mix {
            Some(m) => m.pressure_at(t),
            None => self.static_pressure,
        }
    }

    /// The serving WCET prediction (µs) for a task: the supervisor's
    /// current-generation model when the control plane runs, the bare
    /// bank otherwise.
    fn predict_us(&self, kind: TaskKind, x: &FeatureVec) -> Option<f64> {
        match &self.supervisor {
            Some(sup) => sup.predict_us(kind.index(), x),
            None => self.bank.predict(kind, x).map(|p| p.as_micros_f64()),
        }
    }

    /// An interval that contains [`Simulation::predict_us`], from the
    /// serving model's `WcetPredictor::predict_bounds`. The bank path
    /// rounds both ends to whole nanoseconds, as `ModelBank::predict`
    /// rounds the prediction; that rounding is monotone.
    fn predict_bounds(&self, kind: TaskKind, x: &FeatureVec) -> Option<(f64, f64)> {
        match &self.supervisor {
            Some(sup) => sup.predict_bounds(kind.index(), x),
            None => self.bank.get(kind).map(|m| {
                let (lo, hi) = m.predict_bounds(x);
                let ns = |us| Nanos::from_micros_f64(us).as_micros_f64();
                (ns(lo), ns(hi))
            }),
        }
    }

    /// The misprediction guard's test for one observation: did the
    /// runtime exceed the serving prediction over `bias`? `None` where no
    /// model covers the kind. Rounded division by a positive `bias` is
    /// monotone, so a runtime outside [`Simulation::predict_bounds`]
    /// decides the test; only one inside it needs the exact prediction,
    /// which for a linear fallback costs a scan of its residuals.
    fn underestimated(
        &self,
        kind: TaskKind,
        x: &FeatureVec,
        runtime_us: f64,
        bias: f64,
    ) -> Option<bool> {
        let (lo, hi) = self.predict_bounds(kind, x)?;
        let exact = || self.predict_us(kind, x).map(|p| runtime_us > p / bias);
        let above = runtime_us > hi / bias;
        if bias > 0.0 && (above || runtime_us <= lo / bias) {
            debug_assert_eq!(Some(above), exact(), "interval decision for {kind:?}");
            return Some(above);
        }
        exact()
    }

    /// The WCET budget of a task dispatched on a pool of `granted` cores:
    /// the serving prediction, or 1.5× the expected cost where no model
    /// covers the kind, scaled by `wcet_factor` (the cell's guard
    /// inflation over any injected predictor bias).
    fn node_wcet(&self, task: &TaskInstance, granted: u32, wcet_factor: f64) -> Nanos {
        let mut params = task.params;
        params.pool_cores = granted;
        self.predict_us(task.kind, &extract(&params))
            .map(Nanos::from_micros_f64)
            .unwrap_or_else(|| {
                self.cost
                    .expected_cost_on_pool(task.kind, &params)
                    .scale(1.5)
            })
            .scale(wcet_factor)
    }

    /// The worst current guard inflation across cells — what the trace and
    /// snapshots report, since any one inflated cell throttles reclaim.
    fn max_guard_inflation(&self) -> f64 {
        self.guards
            .iter()
            .map(|g| g.inflation())
            .fold(1.0, f64::max)
    }

    /// Closes one supervisor decision window at slot boundary `t`:
    /// feeds the window's slot-DAG reliability in, lets the control plane
    /// run its lifecycle transitions, then applies the side effects —
    /// guard reset on readmission and admission-level changes.
    fn end_supervisor_window(&mut self, t: Nanos) {
        let total_dags = self.pool.metrics().slots.count() as u64;
        let total_viols = self.pool.metrics().slots.violations();
        let dags = total_dags.saturating_sub(self.win_dags);
        let viols = total_viols.saturating_sub(self.win_viols);
        self.win_dags = total_dags;
        self.win_viols = total_viols;

        let Some(sup) = self.supervisor.as_mut() else {
            return;
        };
        let tracing = self.pool.trace_enabled();
        // Snapshot lane states around the window close so the trace carries
        // every Healthy → Quarantined → Shadow → Healthy transition.
        let before: Vec<LaneState> = if tracing {
            (0..sup.n_lanes())
                .map(|l| sup.lane_state(l).unwrap_or(LaneState::Healthy))
                .collect()
        } else {
            Vec::new()
        };
        sup.end_window(dags, viols);
        if sup.take_guard_reset() {
            // A retrained model was just swapped in; it must not inherit
            // the inflation the guards earned against its predecessor.
            for g in &mut self.guards {
                g.reset();
            }
        }
        if tracing {
            for (l, &was) in before.iter().enumerate() {
                let now = sup.lane_state(l).unwrap_or(was);
                if now != was {
                    self.pool.record_trace_event(TraceEvent::LaneTransition {
                        lane: l as u8,
                        from: was,
                        to: now,
                    });
                }
            }
        }
        let admission = sup.admission();
        if tracing && admission != self.last_traced_admission {
            self.last_traced_admission = admission;
            self.pool
                .record_trace_event(TraceEvent::Admission { level: admission });
        }
        match admission {
            AdmissionLevel::Shed | AdmissionLevel::Reject => {
                if !self.shedding {
                    self.shedding = true;
                    self.pool.set_pressure(0.0, 0.0);
                }
            }
            AdmissionLevel::Normal => {
                if self.shedding {
                    self.shedding = false;
                    let (c, k) = self.pressure_at(t);
                    self.pool.set_pressure(c, k);
                }
            }
        }
    }

    /// Runs the online phase to completion and produces the report.
    pub fn run(mut self) -> ExperimentReport {
        self.run_to_completion();
        self.report()
    }

    /// Like [`Self::run`], but also hands back the trace recorder (when
    /// [`SimConfig::trace`] was set) for exporting. The report is built
    /// before the recorder is detached, so its `trace` summary is filled.
    pub fn run_traced(mut self) -> (ExperimentReport, Option<TraceRecorder>) {
        self.run_to_completion();
        let report = self.report();
        (report, self.pool.take_trace())
    }

    fn run_to_completion(&mut self) {
        let slot_dur = self.cfg.cell.slot_duration();
        let n_slots = self.cfg.duration.as_nanos() / slot_dur.as_nanos();

        for slot in 0..n_slots {
            let t0 = Nanos(slot * slot_dur.as_nanos());
            // Within one global slot the pool advances boundary by
            // boundary: each phase group gets the full event cycle
            // (execute → pressure → inject → adapt) at its own instant.
            // The cached groups are iterated by index instead of cloned:
            // reconfiguration (the only thing that rebuilds them) runs
            // strictly at slot end, so membership is stable in here.
            let mut t_last = t0;
            for gi in 0..self.boundary_groups.len() {
                let phase = self.boundary_groups[gi].0;
                let t = t0 + phase;
                t_last = t;
                self.pool.run_until(t);
                self.slot = slot;

                // Colocation pressure follows the mix schedule — unless
                // admission control is shedding, which overrides it.
                if self.mix.is_some() && !self.shedding {
                    let (c, k) = self.pressure_at(t);
                    let (oc, ok) = self.pool.pressure();
                    if (c - oc).abs() > 1e-9 || (k - ok).abs() > 1e-9 {
                        self.pool.set_pressure(c, k);
                    }
                }

                self.trace_workload_fault_edges(t);
                self.inject_cells(t, slot, gi);

                // Online adaptation (§4.2): feed observed runtimes back.
                // Each cell's misprediction guard watches the error stream
                // of its own DAGs — including any injected predictor bias —
                // and arms its inflation after a run of underestimates.
                let bias = 1.0
                    + self
                        .faults
                        .severity_at(FaultKind::PredictorBias, t)
                        .unwrap_or(0.0);
                let drained = self.pool.drain_observations();
                for obs in &drained {
                    let cell = obs.cell as usize;
                    if cell < self.guards.len() {
                        if let Some(under) =
                            self.underestimated(obs.kind, &obs.features, obs.runtime_us, bias)
                        {
                            self.guards[cell].observe_outcome(under);
                        }
                    }
                    match self.supervisor.as_mut() {
                        // The supervisor records every observation: drift
                        // counters while healthy, replay and shadow scoring
                        // while off the primary, and (when its online feed
                        // is on) the serving model's adaptation.
                        Some(sup) => sup.record(obs.kind.index(), &obs.features, obs.runtime_us),
                        None if self.cfg.online_updates => {
                            self.bank.observe(obs.kind, &obs.features, obs.runtime_us);
                        }
                        None => {}
                    }
                }
                // Double-buffer: the drained vector becomes the pool's next
                // observation buffer instead of a fresh allocation.
                self.pool.recycle_observations(drained);

                self.trace_guard_inflation();
            }

            // Per-slot bookkeeping closes at the slot's last boundary so
            // every cell's DAGs of slot k are inside window k's ledger.
            //
            // Decision-window boundary: the only place the control plane
            // may swap serving models or change the admission level.
            if let Some(window_slots) = self.supervisor.as_ref().map(|s| s.config().window_slots) {
                if (slot + 1) % window_slots.max(1) == 0 {
                    self.end_supervisor_window(t_last);
                }
            }

            // Periodic flat snapshot for the metrics exporter (a period of
            // 0 disables it).
            let every = self.cfg.trace.map_or(0, |tc| tc.snapshot_slots);
            if every > 0 && (slot + 1) % every == 0 {
                self.pool
                    .record_window_snapshot((slot + 1) / every, self.max_guard_inflation());
            }

            // Live reconfiguration: the engine observes the finished slot,
            // checks the in-flight step's invariants (rolling back on a
            // violation) and applies/commits steps at slot boundaries.
            if self.reconfig.is_some() {
                self.reconfig_slot_end(slot);
            }
        }
        // Drain the tail of the last slots.
        self.pool
            .run_until(self.cfg.duration + self.cfg.cell.deadline);
        self.pool.flush_accounting();
        if let Some(eng) = self.reconfig.as_mut() {
            eng.finalize();
        }
    }

    /// Take/put dance around the engine so it can borrow the sim mutably.
    fn reconfig_slot_end(&mut self, slot: u64) {
        if let Some(mut eng) = self.reconfig.take() {
            eng.on_slot_end(self, slot);
            self.reconfig = Some(eng);
        }
    }

    /// Edge-detects workload-level fault windows (predictor bias, traffic
    /// surge). The pool's own timeline only delivers platform faults, so
    /// the sim emits start/end instants for the rest of the taxonomy.
    fn trace_workload_fault_edges(&mut self, t: Nanos) {
        if !self.pool.trace_enabled() {
            return;
        }
        for (i, kind) in WORKLOAD_FAULTS.into_iter().enumerate() {
            match self.faults.severity_at(kind, t) {
                Some(severity) if !self.workload_fault_active[i] => {
                    self.workload_fault_active[i] = true;
                    self.pool
                        .record_trace_event(TraceEvent::FaultStart { kind, severity });
                }
                None if self.workload_fault_active[i] => {
                    self.workload_fault_active[i] = false;
                    self.pool.record_trace_event(TraceEvent::FaultEnd { kind });
                }
                _ => {}
            }
        }
    }

    /// Records the worst guard inflation as a trace counter whenever it
    /// moves.
    fn trace_guard_inflation(&mut self) {
        let inflation = self.max_guard_inflation();
        if inflation > self.peak_guard_inflation {
            self.peak_guard_inflation = inflation;
        }
        if !self.pool.trace_enabled() {
            return;
        }
        if inflation != self.last_traced_inflation {
            self.last_traced_inflation = inflation;
            self.pool
                .record_trace_event(TraceEvent::GuardInflation { inflation });
        }
    }

    /// Injects the slot-`slot` DAGs of phase group `gi`'s cells (in
    /// cell-id order) at their shared boundary instant `t`. The group is
    /// addressed by index into the epoch-cached `boundary_groups` so the
    /// hot path never clones the membership table.
    fn inject_cells(&mut self, t: Nanos, slot: u64, gi: usize) {
        // Advance the scenario envelope once per slot. `begin_slot` is
        // idempotent, which matters here: staggered phase groups re-enter
        // the same slot several times, and every group must see the same
        // burst gates and mMTC floors.
        if let Some(env) = self.scenario.as_mut() {
            env.begin_slot(slot);
        }
        let granted = self.pool.granted_cores().max(1);
        // Workload-level faults land here: a predictor-bias window divides
        // every prediction (a corrupted model systematically
        // underestimates), a traffic-surge window inflates every slot's
        // volume beyond the calibrated load. Each cell's guard inflation
        // pushes back against the bias once it has seen enough
        // underestimates from that cell.
        let bias = 1.0
            + self
                .faults
                .severity_at(FaultKind::PredictorBias, t)
                .unwrap_or(0.0);
        let surge = 1.0
            + self
                .faults
                .severity_at(FaultKind::TrafficSurge, t)
                .unwrap_or(0.0);
        // Reject-level admission control: stop admitting new slot DAGs.
        // Traffic volumes are still drawn (the RNG streams stay aligned
        // with an admitting run), but nothing reaches the pool; every
        // refusal is counted as typed backpressure.
        let rejecting = self
            .supervisor
            .as_ref()
            .is_some_and(|s| s.admission() == AdmissionLevel::Reject);
        let mut rejected = 0u64;
        for k in 0..self.boundary_groups[gi].1.len() {
            let cell_id = self.boundary_groups[gi].1[k];
            let c = cell_id as usize;
            let wcet_factor = self.guards[c].inflation() / bias;
            // Per-slice deadline budgets (`sliced_deadlines`): the cell's
            // slot DAGs are built from a value copy of the cell config
            // with a scaled deadline, leaving the shared config — and the
            // MAC DAG's one-slot budget — untouched. A `SetDeadline`
            // reconfiguration step composes naturally: the scale applies
            // to whatever the live deadline is.
            let mut cell_cfg = self.cfg.cell;
            if let Some(env) = self.scenario.as_ref() {
                let ds = env.deadline_scale(cell_id);
                if ds != 1.0 {
                    cell_cfg.deadline = cell_cfg.deadline.scale(ds);
                }
            }
            // §7 extension: MAC scheduling for the *next* slot runs in the
            // pool, with a one-slot deadline.
            if self.cfg.mac_in_pool {
                let n_ues = (self.cfg.cell.max_ues / 2).max(1);
                let mac =
                    concordia_ran::dag::build_mac_dag(&self.cfg.cell, cell_id, slot, t, n_ues);
                if rejecting {
                    rejected += 1;
                } else {
                    let node_wcet = mac
                        .nodes
                        .iter()
                        .map(|n| self.node_wcet(&n.task, granted, wcet_factor))
                        .collect();
                    self.pool.inject_dag(ScheduledDag {
                        dag: mac,
                        node_wcet,
                    });
                }
            }
            let dirs = self.cfg.cell.duplex.directions(slot);
            for &dir in dirs {
                let bytes = match self.scenario.as_ref() {
                    None => draw_bytes(&mut self.traffic[c], dir),
                    Some(env) => {
                        // Replay scenarios source volumes from the frozen
                        // trace and skip the generator entirely. Envelope
                        // scenarios shape the generator's draw instead.
                        let drawn = if env.is_replay() {
                            0.0
                        } else {
                            draw_bytes(&mut self.traffic[c], dir)
                        };
                        let uplink = dir == SlotDirection::Uplink;
                        let peak = if uplink {
                            self.cfg.cell.peak_ul_bytes_per_slot()
                        } else {
                            self.cfg.cell.peak_dl_bytes_per_slot()
                        };
                        let shaped = env.demand_bytes(cell_id, slot, uplink, drawn, peak);
                        // The replay path never saw the generator's 0.6
                        // special-slot reduction, so it applies its own.
                        if env.is_replay() && dir == SlotDirection::Special {
                            shaped * 0.6
                        } else {
                            shaped
                        }
                    }
                } * surge;
                // The whole injection recycles: the workload expands into a
                // persistent scratch, and the DAG is rebuilt into the node
                // buffer of a previously completed one (salvaged by the
                // pool), so its `preds`/`succs`/WCET allocations survive
                // from slot to slot.
                self.traffic[c].workload_into(dir, bytes, &mut self.wl_scratch);
                let (buf, mut node_wcet) = match self.pool.take_dag_buffer() {
                    Some(s) => (s.dag.nodes, s.node_wcet),
                    None => (Vec::new(), Vec::new()),
                };
                let dag = build_dag_into(
                    &cell_cfg,
                    cell_id,
                    slot,
                    t,
                    &self.wl_scratch,
                    buf,
                    &mut self.dag_scratch,
                );
                if dag.is_empty() {
                    continue;
                }
                if rejecting {
                    rejected += 1;
                    continue;
                }
                node_wcet.clear();
                node_wcet.extend(
                    dag.nodes
                        .iter()
                        .map(|n| self.node_wcet(&n.task, granted, wcet_factor)),
                );
                self.pool.inject_dag(ScheduledDag { dag, node_wcet });
            }
        }
        if rejected > 0 {
            if let Some(sup) = self.supervisor.as_mut() {
                sup.note_rejected(rejected);
            }
            if self.pool.trace_enabled() {
                self.pool.record_trace_event(TraceEvent::AdmissionReject {
                    dags: rejected.min(u32::MAX as u64) as u32,
                });
            }
        }
    }

    // --- live-reconfiguration hooks (driven by `reconfig::ReconfigEngine`,
    // one call per global slot boundary) ---

    /// What the invariant monitor sees at a slot boundary.
    pub(crate) fn reconfig_observe(&self) -> SlotObservables {
        let m = self.pool.metrics();
        let mut conservation_violation = None;
        for (c, ledger) in m.per_cell.iter().enumerate() {
            let in_flight = self.pool.active_dags_for_cell(c as u32) as u64;
            if ledger.injected != ledger.completed + in_flight {
                conservation_violation = Some(c as u32);
                break;
            }
        }
        SlotObservables {
            violations: m.slots.violations(),
            max_guard_inflation: self.max_guard_inflation(),
            conservation_violation,
        }
    }

    /// In-flight slot DAGs of one cell (gates a `DrainCell` commit).
    pub(crate) fn cell_in_flight(&self, cell: u32) -> usize {
        self.pool.active_dags_for_cell(cell)
    }

    /// Pre-step guard snapshot (guards are plain value types).
    pub(crate) fn guards_snapshot(&self) -> Vec<MispredictionGuard> {
        self.guards.clone()
    }

    /// Restores a guard snapshot after a rollback. A guard pushed since
    /// the snapshot (a rolled-back `AddCell`) keeps its fresh state — it
    /// belongs to the now-draining cell and starts disengaged anyway.
    pub(crate) fn restore_guards(&mut self, snapshot: Vec<MispredictionGuard>) {
        for (i, g) in snapshot.into_iter().enumerate() {
            if let Some(slot) = self.guards.get_mut(i) {
                *slot = g;
            }
        }
    }

    pub(crate) fn trace_reconfig(&mut self, ev: TraceEvent) {
        if self.pool.trace_enabled() {
            self.pool.record_trace_event(ev);
        }
    }

    /// Applies one reconfiguration step, returning its inverse. An `Err`
    /// means nothing changed (validation failed or the step is
    /// unsupported in this configuration).
    pub(crate) fn reconfig_apply(&mut self, step: &ReconfigStep) -> Result<StepUndo, String> {
        match *step {
            ReconfigStep::AddCell => {
                let cell = self.add_cell();
                Ok(StepUndo::DrainAdded { cell })
            }
            ReconfigStep::DrainCell { cell } => {
                self.drain_cell(cell)?;
                Ok(StepUndo::Resume { cell })
            }
            ReconfigStep::GrowPool { cores } => {
                if cores == 0 {
                    return Err("grow_pool: zero cores".to_string());
                }
                self.pool.grow_pool(cores);
                Ok(StepUndo::ShrinkBack { cores })
            }
            ReconfigStep::ShrinkPool { cores } => {
                if cores == 0 {
                    return Err("shrink_pool: zero cores".to_string());
                }
                let retired = self.pool.shrink_pool(cores);
                if retired == 0 {
                    return Err("shrink_pool: cannot shrink below one core".to_string());
                }
                Ok(StepUndo::GrowBack { cores: retired })
            }
            ReconfigStep::SwapPredictor { predictor } => {
                let prev = self.swap_predictor(predictor)?;
                Ok(StepUndo::SwapBack { predictor: prev })
            }
            ReconfigStep::Rephase { stagger } => {
                let (prev_stagger, phases) = self.rephase(stagger);
                Ok(StepUndo::RestorePhases {
                    stagger: prev_stagger,
                    phases,
                })
            }
            ReconfigStep::SetDeadline { deadline_us } => {
                if deadline_us == 0 {
                    return Err("set_deadline: zero deadline".to_string());
                }
                let Some(deadline) = Nanos::checked_from_micros(deadline_us) else {
                    return Err("set_deadline: deadline overflows the clock".to_string());
                };
                let (deadline, override_prev) = self.set_deadline(deadline);
                Ok(StepUndo::RestoreDeadline {
                    deadline,
                    override_prev,
                })
            }
        }
    }

    /// Reverts an applied step (rollback path).
    pub(crate) fn reconfig_undo(&mut self, undo: StepUndo) {
        match undo {
            // The added cell drains; its in-flight DAGs flush naturally,
            // so the rollback itself cannot lose work.
            StepUndo::DrainAdded { cell } => {
                let _ = self.drain_cell(cell);
            }
            StepUndo::Resume { cell } => self.resume_cell(cell),
            StepUndo::ShrinkBack { cores } => {
                self.pool.shrink_pool(cores);
            }
            StepUndo::GrowBack { cores } => {
                self.pool.grow_pool(cores);
            }
            StepUndo::SwapBack { predictor } => {
                let _ = self.swap_predictor(predictor);
            }
            StepUndo::RestorePhases { stagger, phases } => {
                self.cfg.cell_stagger = stagger;
                for (id, phase) in phases {
                    if let Some(c) = self.cells.iter_mut().find(|c| c.id == id) {
                        c.phase = phase;
                    }
                }
                self.rebuild_boundary_groups();
            }
            StepUndo::RestoreDeadline {
                deadline,
                override_prev,
            } => {
                self.cfg.cell.deadline = deadline;
                self.cfg.deadline_override = override_prev;
            }
        }
    }

    /// Recomputes the phase groups from the currently *active* cells.
    /// Draining cells drop out (no new DAGs); everything else keeps the
    /// id-ordered injection the groups were built with.
    fn rebuild_boundary_groups(&mut self) {
        self.boundary_groups = phase_groups(self.cells.iter().filter(|c| c.is_active()));
        self.boundary_epoch += 1;
    }

    /// Configuration epoch of the cached boundary groups: 0 for the
    /// initial deployment, bumped once per reconfiguration-driven
    /// rebuild. A steady-state run ends at epoch 0 — the regression
    /// guard against re-cloning the table per slot.
    pub fn boundary_epoch(&self) -> u64 {
        self.boundary_epoch
    }

    /// Brings one more cell into the deployment and returns its id. A
    /// previously added-then-drained cell is re-activated in place (a
    /// rolled-back `AddCell` retried later); otherwise a new cell takes
    /// the next id, a phase strictly between the existing stagger points
    /// and the next slot boundary, and a traffic stream derived from the
    /// root seed exactly as an initial cell's would be.
    fn add_cell(&mut self) -> u32 {
        if let Some(pos) = (0..self.cells.len())
            .find(|&i| !self.cells[i].is_active() && self.cells[i].id >= self.initial_cells)
        {
            let id = self.cells[pos].id;
            self.cells[pos].resume();
            self.rebuild_boundary_groups();
            return id;
        }
        let id = self.cells.len() as u32;
        let inst = if self.cfg.cell_stagger {
            // Phase id/(id+1) of a slot: strictly later than every initial
            // cell's k/n_cells phase, still inside one slot.
            CellInstance::staggered(id, id + 1, self.cfg.cell)
        } else {
            CellInstance::aligned(id, self.cfg.cell)
        };
        self.cells.push(inst);
        self.guards.push(MispredictionGuard::default());
        self.traffic
            .push(cell_traffic(&self.cfg, id, &Rng::new(self.cfg.seed)));
        if let Some(env) = self.scenario.as_mut() {
            env.ensure_cells(id + 1);
        }
        self.rebuild_boundary_groups();
        id
    }

    /// Stops releasing new DAGs for `cell`. In-flight DAGs keep running;
    /// the engine gates the step's commit on them flushing.
    fn drain_cell(&mut self, cell: u32) -> Result<(), String> {
        let Some(pos) = self.cells.iter().position(|c| c.id == cell) else {
            return Err(format!("drain_cell: cell {cell} does not exist"));
        };
        if !self.cells[pos].is_active() {
            return Err(format!("drain_cell: cell {cell} is already draining"));
        }
        if self.cells.iter().filter(|c| c.is_active()).count() <= 1 {
            return Err("drain_cell: cannot drain the last active cell".to_string());
        }
        self.cells[pos].begin_drain();
        self.rebuild_boundary_groups();
        Ok(())
    }

    fn resume_cell(&mut self, cell: u32) {
        if let Some(c) = self.cells.iter_mut().find(|c| c.id == cell) {
            c.resume();
        }
        self.rebuild_boundary_groups();
    }

    /// Hot-swaps the serving predictor by refitting the bank on the
    /// retained profiling dataset and selections. Returns the previous
    /// choice for undo.
    fn swap_predictor(&mut self, choice: PredictorChoice) -> Result<PredictorChoice, String> {
        if self.supervisor.is_some() {
            return Err(
                "swap_predictor: the supervisor control plane owns the serving models".to_string(),
            );
        }
        let Some((ds, selections)) = self.swap_inputs.as_ref() else {
            return Err("swap_predictor: profiling dataset not retained".to_string());
        };
        let prev = self.cfg.predictor;
        self.bank = fit_bank(ds, selections, choice, &self.cost);
        self.cfg.predictor = choice;
        // A freshly trained bank must not inherit inflation the guards
        // earned against its predecessor (same contract as a supervisor
        // swap).
        for g in &mut self.guards {
            g.reset();
        }
        Ok(prev)
    }

    /// Recomputes every active cell's phase: staggered evenly over one
    /// slot by active rank, or all aligned on the epoch. Returns the
    /// previous stagger flag and phases for undo.
    fn rephase(&mut self, stagger: bool) -> (bool, Vec<(u32, Nanos)>) {
        let prev_stagger = self.cfg.cell_stagger;
        let prev: Vec<(u32, Nanos)> = self.cells.iter().map(|c| (c.id, c.phase)).collect();
        let slot = self.cfg.cell.slot_duration().as_nanos();
        let active: Vec<usize> = (0..self.cells.len())
            .filter(|&i| self.cells[i].is_active())
            .collect();
        let n = active.len().max(1) as u64;
        for (rank, &i) in active.iter().enumerate() {
            self.cells[i].phase = if stagger {
                Nanos(slot * (rank as u64 % n) / n)
            } else {
                Nanos::ZERO
            };
        }
        self.cfg.cell_stagger = stagger;
        self.rebuild_boundary_groups();
        (prev_stagger, prev)
    }

    /// Changes the DAG deadline for every subsequently released DAG.
    /// Returns the previous cell deadline and override for undo.
    fn set_deadline(&mut self, deadline: Nanos) -> (Nanos, Option<Nanos>) {
        let prev = self.cfg.cell.deadline;
        let override_prev = self.cfg.deadline_override;
        self.cfg.cell.deadline = deadline;
        // Keep `SimConfig::deadline()` — what the report prints — in step
        // with the live value.
        self.cfg.deadline_override = Some(deadline);
        (prev, override_prev)
    }

    fn report(&self) -> ExperimentReport {
        let summary = self
            .pool
            .metrics()
            .summary(self.cfg.cores, self.cfg.duration);
        let workload = match self.cfg.colocation {
            Colocation::Single(kind) => Some(self.workload_report(kind)),
            _ => None,
        };
        ExperimentReport {
            scheduler: self.cfg.scheduler.name().to_string(),
            predictor: self.cfg.predictor.name().to_string(),
            colocation: self.cfg.colocation.name().to_string(),
            n_cells: self.cfg.n_cells,
            cores: self.cfg.cores,
            load: self.cfg.load,
            deadline_us: self.cfg.deadline().as_micros_f64(),
            duration_s: self.cfg.duration.as_nanos() as f64 / 1e9,
            seed: self.cfg.seed,
            peak_guard_inflation: self.peak_guard_inflation,
            metrics: summary,
            workload,
            fault: self.fault_report(),
            supervisor: self.supervisor_report(),
            trace: self.pool.trace_summary(),
            reconfig: self.reconfig.as_ref().map(|e| {
                e.report(
                    self.cells.iter().filter(|c| c.is_active()).count() as u32,
                    self.pool.capacity(),
                )
            }),
            scenario: self.cfg.scenario.as_ref().map(|s| s.name().to_string()),
        }
    }

    fn supervisor_report(&self) -> Option<SupervisorReport> {
        let sup = self.supervisor.as_ref()?;
        let c = sup.counters();
        Some(SupervisorReport {
            windows: c.windows,
            drift_detections: c.drift_detections,
            quarantines: c.quarantines,
            retrains: c.retrains,
            shadow_rejections: c.shadow_rejections,
            readmissions: c.readmissions,
            swaps: c.swaps,
            shed_windows: c.shed_windows,
            rejected_dags: c.rejected_dags,
            windows_to_readmission: sup.windows_to_readmission(),
            lanes_on_fallback: sup.lanes_on_fallback() as u64,
        })
    }

    /// Per-fault-window reliability accounting: violations before, during
    /// and after each window, plus the time it took the pool to stop
    /// violating once the fault cleared.
    fn fault_report(&self) -> Option<FaultReport> {
        if self.faults.is_empty() {
            return None;
        }
        let outcomes = self.pool.metrics().slots.outcomes();
        let rel = |dags: u64, viols: u64| {
            if dags == 0 {
                1.0
            } else {
                1.0 - viols as f64 / dags as f64
            }
        };
        let windows = self
            .faults
            .windows
            .iter()
            .map(|w| {
                // phase 0 = before, 1 = during, 2 = after; [dags, violations]
                let mut counts = [[0u64; 2]; 3];
                let mut last_bad_after = None;
                for o in outcomes {
                    let phase = if o.completed_at < w.start {
                        0
                    } else if o.completed_at < w.end {
                        1
                    } else {
                        2
                    };
                    counts[phase][0] += 1;
                    if o.violated {
                        counts[phase][1] += 1;
                        if phase == 2 {
                            last_bad_after = Some(o.completed_at);
                        }
                    }
                }
                FaultWindowReport {
                    kind: w.kind.name().to_string(),
                    start_us: w.start.as_micros_f64(),
                    end_us: w.end.as_micros_f64(),
                    severity: w.severity,
                    dags_before: counts[0][0],
                    violations_before: counts[0][1],
                    reliability_before: rel(counts[0][0], counts[0][1]),
                    dags_during: counts[1][0],
                    violations_during: counts[1][1],
                    reliability_during: rel(counts[1][0], counts[1][1]),
                    dags_after: counts[2][0],
                    violations_after: counts[2][1],
                    reliability_after: rel(counts[2][0], counts[2][1]),
                    recovery_us: last_bad_after
                        .map_or(0.0, |t| t.saturating_sub(w.end).as_micros_f64()),
                }
            })
            .collect();
        let backpressure = self.supervisor.as_ref().map(|s| BackpressureReport {
            shed_windows: s.counters().shed_windows,
            rejected_dags: s.counters().rejected_dags,
        });
        Some(FaultReport {
            windows,
            backpressure,
        })
    }

    fn workload_report(&self, kind: WorkloadKind) -> WorkloadReport {
        let m = self.pool.metrics();
        let p = kind.profile();
        let achieved = p.achieved_ops(m.besteffort_core_time, m.evictions);
        let ideal = p.ideal_ops(self.cfg.cores, self.cfg.duration);
        WorkloadReport {
            kind: kind.name().to_string(),
            unit: p.unit.to_string(),
            achieved_ops_per_sec: achieved / (self.cfg.duration.as_nanos() as f64 / 1e9),
            ideal_ops_per_sec: ideal / (self.cfg.duration.as_nanos() as f64 / 1e9),
            fraction_of_ideal: p.achieved_fraction(
                self.cfg.cores,
                self.cfg.duration,
                m.besteffort_core_time,
                m.evictions,
            ),
        }
    }

    /// Read-only access to the pool metrics mid-experiment (tests).
    pub fn metrics(&self) -> &concordia_platform::metrics::PoolMetrics {
        self.pool.metrics()
    }
}

/// Convenience: build and run in one call.
pub fn run_experiment(cfg: SimConfig) -> ExperimentReport {
    Simulation::new(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cfg_mut: impl FnOnce(&mut SimConfig)) -> ExperimentReport {
        let mut cfg = SimConfig::paper_20mhz();
        cfg.duration = Nanos::from_secs(2);
        cfg.profiling_slots = 400;
        cfg.load = 0.25;
        cfg_mut(&mut cfg);
        run_experiment(cfg)
    }

    #[test]
    fn concordia_isolated_meets_deadlines() {
        let r = quick(|_| {});
        assert!(r.metrics.dags > 10_000, "dags {}", r.metrics.dags);
        assert_eq!(
            r.metrics.violations, 0,
            "violations {}",
            r.metrics.violations
        );
        assert!(
            r.metrics.reclaimed_fraction > 0.3,
            "reclaimed {}",
            r.metrics.reclaimed_fraction
        );
    }

    #[test]
    fn concordia_under_redis_keeps_reliability_and_reclaims() {
        let r = quick(|c| {
            c.colocation = Colocation::Single(WorkloadKind::Redis);
        });
        assert_eq!(
            r.metrics.violations, 0,
            "violations {}",
            r.metrics.violations
        );
        assert!(r.metrics.reclaimed_fraction > 0.2);
        let w = r.workload.as_ref().unwrap();
        assert!(
            w.fraction_of_ideal > 0.1,
            "workload got {}",
            w.fraction_of_ideal
        );
    }

    #[test]
    fn flexran_under_redis_violates_more_than_concordia() {
        // Aligned boundaries (the worst case for sharing) are where the
        // schedulers separate: staggering softens the synchronized peak
        // enough that even FlexRan's tail looks acceptable at this load.
        let conc = quick(|c| {
            c.colocation = Colocation::Single(WorkloadKind::Redis);
            c.load = 0.75;
            c.cell_stagger = false;
        });
        let flex = quick(|c| {
            c.colocation = Colocation::Single(WorkloadKind::Redis);
            c.load = 0.75;
            c.cell_stagger = false;
            c.scheduler = SchedulerChoice::FlexRan;
        });
        let flex_p = flex.metrics.p9999_latency_us.expect("flexran p9999");
        let conc_p = conc.metrics.p9999_latency_us.expect("concordia p9999");
        assert!(
            flex_p > conc_p,
            "flexran p9999 {flex_p} vs concordia {conc_p}"
        );
    }

    #[test]
    fn dedicated_reclaims_nothing() {
        let r = quick(|c| {
            c.scheduler = SchedulerChoice::Dedicated;
        });
        assert!(r.metrics.reclaimed_fraction < 0.01);
        assert_eq!(r.metrics.violations, 0);
    }

    #[test]
    fn reports_are_deterministic() {
        let a = quick(|c| c.seed = 42);
        let b = quick(|c| c.seed = 42);
        assert_eq!(a.metrics.dags, b.metrics.dags);
        assert_eq!(a.metrics.mean_latency_us, b.metrics.mean_latency_us);
        assert_eq!(a.metrics.reclaimed_fraction, b.metrics.reclaimed_fraction);
    }

    #[test]
    fn higher_load_reclaims_less() {
        let lo = quick(|c| c.load = 0.05);
        let hi = quick(|c| c.load = 1.0);
        assert!(
            lo.metrics.reclaimed_fraction > hi.metrics.reclaimed_fraction + 0.05,
            "lo {} hi {}",
            lo.metrics.reclaimed_fraction,
            hi.metrics.reclaimed_fraction
        );
    }

    #[test]
    fn per_cell_ledgers_cover_every_cell() {
        let r = quick(|_| {});
        assert_eq!(r.metrics.per_cell.len(), 7);
        for (c, ledger) in r.metrics.per_cell.iter().enumerate() {
            assert!(
                ledger.injected > 1000,
                "cell {c} injected {}",
                ledger.injected
            );
            assert_eq!(
                ledger.completed,
                ledger.injected,
                "cell {c} lost {} DAGs",
                ledger.injected - ledger.completed
            );
        }
    }

    #[test]
    fn stagger_toggle_preserves_totals_and_changes_interleave() {
        let on = quick(|_| {});
        let off = quick(|c| c.cell_stagger = false);
        // Same number of slots × cells × directions either way.
        assert_eq!(on.metrics.dags, off.metrics.dags);
        // Aligned boundaries pile all 7 cells onto one instant; the pool's
        // peak demand there can only be >= the staggered deployment's.
        assert!(on.metrics.violations <= off.metrics.violations);
    }

    #[test]
    fn boundary_groups_stay_epoch_cached_across_slots() {
        // Regression for the per-slot `boundary_groups.clone()`: a plain
        // run must never rebuild (or even reallocate) the group table.
        let mut sim = Simulation::new({
            let mut cfg = SimConfig::paper_20mhz();
            cfg.duration = Nanos::from_millis(50);
            cfg.profiling_slots = 50;
            cfg.load = 0.25;
            cfg
        });
        let ptr_before = sim.boundary_groups.as_ptr();
        let inner_ptrs: Vec<_> = sim
            .boundary_groups
            .iter()
            .map(|(_, g)| g.as_ptr())
            .collect();
        assert_eq!(sim.boundary_epoch(), 0);
        sim.run_to_completion();
        assert_eq!(sim.boundary_epoch(), 0, "plain run must not rebuild groups");
        assert_eq!(
            sim.boundary_groups.as_ptr(),
            ptr_before,
            "group table was reallocated during the slot loop"
        );
        let inner_after: Vec<_> = sim
            .boundary_groups
            .iter()
            .map(|(_, g)| g.as_ptr())
            .collect();
        assert_eq!(inner_ptrs, inner_after, "a phase group was reallocated");
    }

    #[test]
    fn boundary_epoch_bumps_only_on_membership_change() {
        let mut sim = Simulation::new({
            let mut cfg = SimConfig::paper_20mhz();
            cfg.duration = Nanos::from_millis(10);
            cfg.profiling_slots = 50;
            cfg
        });
        assert_eq!(sim.boundary_epoch(), 0);
        let added = sim.add_cell();
        assert_eq!(sim.boundary_epoch(), 1);
        sim.drain_cell(added).expect("drain the added cell");
        assert_eq!(sim.boundary_epoch(), 2);
        assert!(
            !sim.boundary_groups.iter().any(|(_, g)| g.contains(&added)),
            "drained cell must drop out of the cached groups"
        );
    }

    #[test]
    fn staggered_cells_release_on_distinct_phases() {
        let sim = Simulation::new({
            let mut cfg = SimConfig::paper_20mhz();
            cfg.duration = Nanos::from_millis(10);
            cfg.profiling_slots = 50;
            cfg
        });
        let phases: Vec<_> = sim.cells().iter().map(|c| c.phase).collect();
        assert_eq!(phases.len(), 7);
        let mut uniq = phases.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 7, "each cell gets its own boundary phase");
        assert_eq!(phases[0], Nanos::ZERO, "cell 0 stays on the epoch");
    }
}
