//! Offline profiling and predictor training (§4.2, §5).
//!
//! "The decision trees are trained offline, using a dataset with samples
//! collected by profiling the vRAN in the absence of collocated workloads.
//! … the profiling is performed using a set of transmission parameters
//! that vary for each TTI (e.g. 0 to 16 transmitting UEs, varying
//! transport block sizes, modulation and coding schemes etc)."
//!
//! The profiling pass generates randomized slot workloads spanning the
//! input space, executes their DAG tasks against the cost model in
//! isolation (varying the pool width, which matters per §4.1), and trains
//! one predictor per task kind via Algorithm 1 feature selection, the
//! kinds on concurrent workers. An
//! [`OfflineCache`] shares those selections between simulations of one
//! sweep or evaluator whose offline inputs are the same.

use crate::config::PredictorChoice;
use crate::runner::par_map;
use concordia_predictor::api::{InflatedPredictor, ModelBank, TrainingSample, WcetPredictor};
use concordia_predictor::evt::PwcetEvt;
use concordia_predictor::featsel::{select_features, FeatSelConfig};
use concordia_predictor::gbt::GradientBoosting;
use concordia_predictor::linreg::LinearRegression;
use concordia_predictor::qdt::QuantileDecisionTree;
use concordia_predictor::tree::TreeConfig;
use concordia_ran::cell::CellConfig;
use concordia_ran::cost::CostModel;
use concordia_ran::dag::{build_dag_into, DagScratch, SlotWorkload, UeAlloc};
use concordia_ran::features::{extract, handpicked};
use concordia_ran::numerology::SlotDirection;
use concordia_ran::task::TaskKind;
use concordia_ran::time::Nanos;
use concordia_sched::supervisor::{PredictorSupervisor, SupervisorConfig};
use concordia_stats::rng::Rng;
use serde::Serialize;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread;

/// Offline profiling dataset: per-kind training samples.
pub struct ProfilingDataset {
    per_kind: Vec<Vec<TrainingSample>>,
}

impl ProfilingDataset {
    /// Samples collected for `kind`.
    pub fn samples(&self, kind: TaskKind) -> &[TrainingSample] {
        &self.per_kind[kind.index()]
    }

    /// Total samples across kinds.
    pub fn total(&self) -> usize {
        self.per_kind.iter().map(|v| v.len()).sum()
    }
}

/// Generates one randomized profiling workload (0–16 UEs, random sizes,
/// MCS, SNR, layers — maximum coverage of the input space).
pub fn random_workload(cell: &CellConfig, direction: SlotDirection, rng: &mut Rng) -> SlotWorkload {
    let n_ues = rng.range_u64(0, cell.max_ues as u64) as usize;
    let peak = match direction {
        SlotDirection::Uplink => cell.peak_ul_bytes_per_slot(),
        _ => cell.peak_dl_bytes_per_slot(),
    };
    let mut prb_budget = cell.prbs;
    let ues = (0..n_ues)
        .filter_map(|_| {
            if prb_budget < 2 {
                return None;
            }
            // Log-uniform sizes to cover both tiny and peak transfers.
            let frac = (-3.0 * rng.f64()).exp(); // ~0.05..1
            let tb_bytes = ((peak / n_ues.max(1) as f64) * frac).max(64.0) as u32;
            let mcs_index = rng.range_u64(0, 27) as u8;
            let mcs = concordia_ran::transport::Mcs::from_index(mcs_index);
            let snr_db = mcs.required_snr_db() + rng.normal_ms(4.0, 4.0);
            let layers = rng.range_u64(1, cell.max_layers as u64) as u32;
            let prbs = concordia_ran::transport::prbs_for_payload(
                tb_bytes * 8,
                cell.numerology.symbols_per_slot(),
                mcs,
                layers,
            )
            .min(prb_budget);
            prb_budget -= prbs;
            Some(UeAlloc {
                tb_bytes,
                mcs_index,
                snr_db,
                layers,
                prbs,
            })
        })
        .collect();
    SlotWorkload { direction, ues }
}

/// Runs the offline profiling phase: `slots` randomized UL+DL slots per
/// direction, with runtimes sampled in isolation at randomized pool widths.
pub fn profile(
    cell: &CellConfig,
    cost: &CostModel,
    slots: usize,
    max_cores: u32,
    seed: u64,
) -> ProfilingDataset {
    let mut rng = Rng::new(seed);
    let mut per_kind: Vec<Vec<TrainingSample>> =
        (0..TaskKind::ALL.len()).map(|_| Vec::new()).collect();
    // Each slot's DAG is rebuilt into the previous one's node buffer, as
    // the slot loop does.
    let mut nodes = Vec::new();
    let mut scratch = DagScratch::default();

    for slot in 0..slots {
        for direction in [SlotDirection::Uplink, SlotDirection::Downlink] {
            let wl = random_workload(cell, direction, &mut rng);
            let buf = std::mem::take(&mut nodes);
            let dag = build_dag_into(cell, 0, slot as u64, Nanos::ZERO, &wl, buf, &mut scratch);
            let pool_cores = rng.range_u64(1, max_cores.max(1) as u64) as u32;
            for node in &dag.nodes {
                let mut params = node.task.params;
                params.pool_cores = pool_cores;
                let runtime = cost.sample_runtime(node.task.kind, &params, 1.0, &mut rng);
                per_kind[node.task.kind.index()].push(TrainingSample {
                    x: extract(&params),
                    runtime_us: runtime.as_micros_f64(),
                });
            }
            nodes = dag.nodes;
        }
        // §7 extension: profile the MAC schedulers too, so the predictor
        // bank covers them when `mac_in_pool` is enabled.
        let mac = concordia_ran::dag::build_mac_dag(
            cell,
            0,
            slot as u64,
            Nanos::ZERO,
            rng.range_u64(0, cell.max_ues as u64) as u32,
        );
        let pool_cores = rng.range_u64(1, max_cores.max(1) as u64) as u32;
        for node in &mac.nodes {
            let mut params = node.task.params;
            params.pool_cores = pool_cores;
            let runtime = cost.sample_runtime(node.task.kind, &params, 1.0, &mut rng);
            per_kind[node.task.kind.index()].push(TrainingSample {
                x: extract(&params),
                runtime_us: runtime.as_micros_f64(),
            });
        }
    }
    ProfilingDataset { per_kind }
}

/// Kinds with fewer profiled samples get no model (e.g. DL tasks on a
/// UL-only cell, Turbo tasks on an NR cell).
const MIN_SAMPLES: usize = 100;

/// Algorithm 1 feature selection for one kind's samples.
fn select_kind(kind: TaskKind, samples: &[TrainingSample]) -> Vec<usize> {
    select_features(samples, &handpicked(kind), &FeatSelConfig::default())
}

/// Builds one trained predictor for `kind` from its profiling samples.
pub fn train_predictor(
    kind: TaskKind,
    samples: &[TrainingSample],
    choice: PredictorChoice,
    cost: &CostModel,
) -> Box<dyn WcetPredictor> {
    debug_assert!(!samples.is_empty());
    let feats = if choice.reads_features() {
        select_kind(kind, samples)
    } else {
        Vec::new()
    };
    fit_predictor(kind, samples, &feats, choice, cost)
}

/// Fits `choice` for `kind` on `feats`, the output of Algorithm 1 feature
/// selection (which the pWCET and oracle models ignore).
fn fit_predictor(
    kind: TaskKind,
    samples: &[TrainingSample],
    feats: &[usize],
    choice: PredictorChoice,
    cost: &CostModel,
) -> Box<dyn WcetPredictor> {
    match choice {
        PredictorChoice::QuantileDt => Box::new(QuantileDecisionTree::fit(
            samples,
            feats,
            &TreeConfig::default(),
        )),
        PredictorChoice::LinearRegression => {
            Box::new(LinearRegression::fit(samples, feats, 0.99999))
        }
        PredictorChoice::GradientBoosting => {
            Box::new(GradientBoosting::fit(samples, feats, 0.99999))
        }
        PredictorChoice::PwcetEvt => Box::new(PwcetEvt::fit(samples, 0.99999, 50)),
        PredictorChoice::Oracle => Box::new(OraclePredictor {
            cost: cost.clone(),
            margin: 1.3,
            kind,
        }),
    }
}

/// Algorithm 1's output for one profiling dataset: the selected feature
/// indices per task kind, each selected on first need and kept. Selection
/// reads only the kind's samples, never the predictor choice, so one
/// `Selections` serves every model fitted on that dataset. Each kind has
/// its own `OnceLock`, so a fit worker selects a kind just before it fits
/// it. Builds of one dataset that run at once claim the kinds in the same
/// order, so they do not split them: at each kind, all but one wait on
/// that one's selection.
#[derive(Debug)]
pub(crate) struct Selections {
    per_kind: Vec<OnceLock<Vec<usize>>>,
    /// Algorithm 1 runs so far, one per kind selected.
    runs: AtomicU64,
}

impl Selections {
    /// Nothing selected yet.
    pub fn new() -> Selections {
        Selections {
            per_kind: TaskKind::ALL.iter().map(|_| OnceLock::new()).collect(),
            runs: AtomicU64::new(0),
        }
    }

    /// The features selected for `kind` of `dataset`, running Algorithm 1
    /// on the first call; later calls must pass the same dataset.
    fn features(&self, kind: TaskKind, dataset: &ProfilingDataset) -> &[usize] {
        self.per_kind[kind.index()].get_or_init(|| {
            self.runs.fetch_add(1, Ordering::Relaxed);
            select_kind(kind, dataset.samples(kind))
        })
    }
}

/// Runs `fit` on every kind with enough samples to train, returning the
/// results in `TaskKind::ALL` order.
///
/// Each kind's fit reads only its own samples and selection, so the kinds
/// run on up to `available_parallelism` scoped workers (the runner's
/// `par_map`), and every result is the one a serial loop computes. A
/// fit that panics is caught in its worker and re-raised here with its
/// own payload, the first in `TaskKind::ALL` order, as the serial loop
/// would raise it.
fn fit_trainable<M: Send>(
    dataset: &ProfilingDataset,
    fit: impl Fn(TaskKind, &[TrainingSample]) -> M + Sync,
) -> Vec<(TaskKind, M)> {
    let kinds: Vec<TaskKind> = TaskKind::ALL
        .into_iter()
        // Kinds never profiled (e.g. DL tasks on a UL-only cell) get no model.
        .filter(|&kind| dataset.samples(kind).len() >= MIN_SAMPLES)
        .collect();
    let workers = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let fitted = par_map(kinds.len(), workers, |i| {
        let kind = kinds[i];
        catch_unwind(AssertUnwindSafe(|| fit(kind, dataset.samples(kind))))
    });
    kinds
        .into_iter()
        .zip(fitted)
        .map(|(kind, fit)| (kind, fit.unwrap_or_else(|payload| resume_unwind(payload))))
        .collect()
}

/// Fits `choice` for every kind with enough samples to train, taking its
/// features from `selections`.
pub(crate) fn fit_bank(
    dataset: &ProfilingDataset,
    selections: &Selections,
    choice: PredictorChoice,
    cost: &CostModel,
) -> ModelBank {
    let models = fit_trainable(dataset, |kind, samples| {
        // The pWCET and oracle models read no selected features.
        let feats = if choice.reads_features() {
            selections.features(kind, dataset)
        } else {
            &[]
        };
        fit_predictor(kind, samples, feats, choice, cost)
    });
    let mut bank = ModelBank::new();
    for (kind, model) in models {
        bank.insert(kind, model);
    }
    bank
}

/// [`train_supervisor`], taking the features from `selections`.
pub(crate) fn fit_supervisor(
    dataset: &ProfilingDataset,
    selections: &Selections,
    choice: PredictorChoice,
    cost: &CostModel,
    cfg: SupervisorConfig,
) -> PredictorSupervisor {
    let lanes = fit_trainable(dataset, |kind, samples| {
        // One selection serves the primary and its fallback.
        let feats = selections.features(kind, dataset);
        let primary = fit_predictor(kind, samples, feats, choice, cost);
        let fallback = Box::new(InflatedPredictor::new(
            Box::new(LinearRegression::fit(samples, feats, 0.99999)),
            cfg.fallback_inflation,
        ));
        (primary, fallback)
    });
    let mut sup = PredictorSupervisor::new(cfg, TaskKind::ALL.len());
    for (kind, (primary, fallback)) in lanes {
        sup.install(kind.index(), primary, fallback);
    }
    sup
}

/// Trains the full per-kind model bank.
pub fn train_bank(
    dataset: &ProfilingDataset,
    choice: PredictorChoice,
    cost: &CostModel,
) -> ModelBank {
    fit_bank(dataset, &Selections::new(), choice, cost)
}

/// Builds the predictor control plane from the profiling dataset: per
/// task kind, a lane with the configured primary model plus a conservative
/// fallback — an inflated linear model, whose residual-quantile bound and
/// extra inflation keep it safe across regimes the tree never saw.
pub fn train_supervisor(
    dataset: &ProfilingDataset,
    choice: PredictorChoice,
    cost: &CostModel,
    cfg: SupervisorConfig,
) -> PredictorSupervisor {
    fit_supervisor(dataset, &Selections::new(), choice, cost, cfg)
}

/// Everything the offline phase reads: the arguments of [`profile`], and
/// so the key under which an [`OfflineCache`] shares selections.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OfflineInputs {
    /// The effective cell: any deadline override already applied.
    pub cell: CellConfig,
    /// The cost model, scaled to the scenario's platform.
    pub cost: CostModel,
    /// Randomized slots per direction.
    pub profiling_slots: usize,
    /// Pool width: profiling draws its widths from `1..=cores`.
    pub cores: u32,
    /// Seed of the profiling stream.
    pub seed: u64,
}

/// How often the offline phases ran through one [`OfflineCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct OfflinePhases {
    /// Profiling passes: one per simulation built.
    pub profiles: u64,
    /// Algorithm 1 runs: one per trainable task kind of each distinct
    /// set of offline inputs whose models read selected features.
    pub selections: u64,
}

impl std::ops::Add for OfflinePhases {
    type Output = OfflinePhases;
    fn add(self, other: OfflinePhases) -> OfflinePhases {
        OfflinePhases {
            profiles: self.profiles + other.profiles,
            selections: self.selections + other.selections,
        }
    }
}

/// Shares Algorithm 1's selections between simulations with the same
/// offline inputs (the arguments of [`profile`]), for the lifetime of one
/// sweep or evaluator.
///
/// Each simulation still draws its own profile (8–80 ms) and fits its own
/// models, so everything it trains is bit-identical to a cache-free
/// build; only the selection, a pure function of the profile and most of
/// the training time, is shared. The map lock is held only to find or
/// insert an entry, never while Algorithm 1 runs.
#[derive(Debug, Default)]
pub struct OfflineCache {
    entries: Mutex<Vec<(OfflineInputs, Arc<Selections>)>>,
    // A statistic only (`Relaxed`): the runner reads it after joining its
    // workers.
    profiles: AtomicU64,
}

impl OfflineCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The offline phases run through this cache so far.
    pub fn phases(&self) -> OfflinePhases {
        let entries = self.entries();
        OfflinePhases {
            profiles: self.profiles.load(Ordering::Relaxed),
            selections: entries
                .iter()
                .map(|(_, sel)| sel.runs.load(Ordering::Relaxed))
                .sum(),
        }
    }

    /// Draws the profiling dataset for `inputs`. Never cached: a dataset
    /// is megabytes, and drawing it costs a fraction of selecting on it.
    pub(crate) fn profile(&self, inputs: &OfflineInputs) -> ProfilingDataset {
        self.profiles.fetch_add(1, Ordering::Relaxed);
        profile(
            &inputs.cell,
            &inputs.cost,
            inputs.profiling_slots,
            inputs.cores,
            inputs.seed,
        )
    }

    /// The selections shared by every simulation with these `inputs`.
    pub(crate) fn selections(&self, inputs: &OfflineInputs) -> Arc<Selections> {
        let mut entries = self.entries();
        if let Some((_, sel)) = entries.iter().find(|(key, _)| key == inputs) {
            return Arc::clone(sel);
        }
        let sel = Arc::new(Selections::new());
        entries.push((inputs.clone(), Arc::clone(&sel)));
        sel
    }

    fn entries(&self) -> MutexGuard<'_, Vec<(OfflineInputs, Arc<Selections>)>> {
        self.entries
            .lock()
            .expect("nothing panics while the offline cache is locked")
    }
}

/// Ground-truth oracle predictor (ablation only): the cost model's
/// expected value times a safety margin. A real deployment cannot have
/// this — it is the "how much does prediction error cost us" yardstick.
struct OraclePredictor {
    cost: CostModel,
    margin: f64,
    kind: TaskKind,
}

impl WcetPredictor for OraclePredictor {
    fn predict_us(&self, x: &concordia_ran::features::FeatureVec) -> f64 {
        // Rebuild the parameters the cost model needs from the features.
        use concordia_ran::features::Feature as F;
        let params = concordia_ran::task::TaskParams {
            n_cbs: x[F::NCbs as usize] as u32,
            cb_bits: x[F::CbBits as usize] as u32,
            tb_bits: x[F::TbBits as usize] as u32,
            mcs_index: x[F::McsIndex as usize] as u8,
            modulation_order: x[F::ModulationOrder as usize] as u8,
            code_rate: x[F::CodeRate as usize],
            snr_db: x[F::SnrDb as usize],
            layers: x[F::Layers as usize] as u32,
            prbs: x[F::Prbs as usize] as u32,
            symbols: x[F::Symbols as usize] as u32,
            antennas: x[F::Antennas as usize] as u32,
            n_ues_slot: x[F::NUesSlot as usize] as u32,
            slot_cbs: x[F::SlotCbs as usize] as u32,
            slot_bytes: x[F::SlotBytes as usize] as u32,
            pool_cores: x[F::PoolCores as usize] as u32,
        };
        self.cost
            .expected_cost_on_pool(self.kind, &params)
            .as_micros_f64()
            * self.margin
    }
    fn observe(&mut self, _x: &concordia_ran::features::FeatureVec, _r: f64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use concordia_ran::dag::build_dag;
    use concordia_ran::features::{Feature, FeatureVec};

    #[test]
    fn profiling_covers_all_nr_kinds_and_mac() {
        let cell = CellConfig::tdd_100mhz();
        let cost = CostModel::new();
        let ds = profile(&cell, &cost, 400, 8, 42);
        for kind in TaskKind::ALL {
            // Turbo kinds only appear for LTE cells.
            if matches!(kind, TaskKind::TurboDecode | TaskKind::TurboEncode) {
                assert!(ds.samples(kind).is_empty());
                continue;
            }
            assert!(
                ds.samples(kind).len() > 100,
                "{kind:?} has only {} samples",
                ds.samples(kind).len()
            );
        }
        assert!(ds.total() > 5_000);
    }

    #[test]
    fn lte_profiling_covers_turbo_kinds() {
        let cell = CellConfig::lte_20mhz();
        let cost = CostModel::new();
        let ds = profile(&cell, &cost, 300, 8, 48);
        assert!(ds.samples(TaskKind::TurboDecode).len() > 100);
        assert!(ds.samples(TaskKind::TurboEncode).len() > 100);
        assert!(ds.samples(TaskKind::LdpcDecode).is_empty());
    }

    #[test]
    fn profiling_spans_the_input_space() {
        let cell = CellConfig::tdd_100mhz();
        let cost = CostModel::new();
        let ds = profile(&cell, &cost, 400, 8, 43);
        let decode = ds.samples(TaskKind::LdpcDecode);
        let cbs: Vec<f64> = decode
            .iter()
            .map(|s| s.x[concordia_ran::features::Feature::NCbs as usize])
            .collect();
        let max = cbs.iter().cloned().fold(0.0, f64::max);
        let min = cbs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min <= 2.0, "min cbs {min}");
        assert!(max >= 5.0, "max cbs {max}");
        // Pool width varies too (§4.1 multicore effect must be learnable).
        let cores: std::collections::HashSet<u64> = decode
            .iter()
            .map(|s| s.x[concordia_ran::features::Feature::PoolCores as usize] as u64)
            .collect();
        assert!(cores.len() >= 4, "pool widths {cores:?}");
    }

    #[test]
    fn trained_qdt_bank_covers_runtimes() {
        let cell = CellConfig::fdd_20mhz();
        let cost = CostModel::new();
        let ds = profile(&cell, &cost, 500, 8, 44);
        let bank = train_bank(&ds, PredictorChoice::QuantileDt, &cost);
        assert!(bank.len() >= 15, "models {}", bank.len());
        // Fresh samples from the same distribution must rarely exceed the
        // predictions.
        let mut rng = Rng::new(45);
        let mut total = 0u64;
        let mut misses = 0u64;
        for _ in 0..300 {
            let wl = random_workload(&cell, SlotDirection::Uplink, &mut rng);
            let dag = build_dag(&cell, 0, 0, Nanos::ZERO, &wl);
            for node in &dag.nodes {
                let mut params = node.task.params;
                params.pool_cores = 4;
                let runtime = cost
                    .sample_runtime(node.task.kind, &params, 1.0, &mut rng)
                    .as_micros_f64();
                if let Some(pred) = bank.predict(node.task.kind, &extract(&params)) {
                    total += 1;
                    if runtime > pred.as_micros_f64() {
                        misses += 1;
                    }
                }
            }
        }
        let rate = misses as f64 / total as f64;
        assert!(rate < 0.02, "miss rate {rate} over {total} tasks");
    }

    #[test]
    fn trained_supervisor_has_lanes_with_fallbacks() {
        let cell = CellConfig::fdd_20mhz();
        let cost = CostModel::new();
        let ds = profile(&cell, &cost, 400, 8, 49);
        let sup = train_supervisor(
            &ds,
            PredictorChoice::QuantileDt,
            &cost,
            SupervisorConfig::default(),
        );
        assert!(sup.n_lanes() >= 15, "lanes {}", sup.n_lanes());
        let lane = TaskKind::LdpcDecode.index();
        assert!(sup.has_lane(lane));
        // The lane serves its primary from generation zero.
        assert_eq!(sup.generation(lane), 0);
        let x = extract(&concordia_ran::task::TaskParams {
            n_cbs: 2,
            cb_bits: 8448,
            pool_cores: 4,
            ..Default::default()
        });
        assert!(sup.predict_us(lane, &x).unwrap() > 0.0);
    }

    /// A serial fit, built kind by kind from Algorithm 1 and the models'
    /// own `fit`: each trainable kind with its quantile tree and its
    /// linear model.
    fn serial_fits(
        ds: &ProfilingDataset,
    ) -> Vec<(TaskKind, QuantileDecisionTree, LinearRegression)> {
        TaskKind::ALL
            .into_iter()
            .filter(|&kind| ds.samples(kind).len() >= MIN_SAMPLES)
            .map(|kind| {
                let samples = ds.samples(kind);
                let feats = select_features(samples, &handpicked(kind), &FeatSelConfig::default());
                let qdt = QuantileDecisionTree::fit(samples, &feats, &TreeConfig::default());
                let linear = LinearRegression::fit(samples, &feats, 0.99999);
                (kind, qdt, linear)
            })
            .collect()
    }

    /// Asserts that `predict` gives the bits of the serial `choice` model
    /// on every sample of every trainable kind.
    fn assert_serial_predictions(
        ds: &ProfilingDataset,
        serial: &[(TaskKind, QuantileDecisionTree, LinearRegression)],
        choice: PredictorChoice,
        predict: impl Fn(TaskKind, &FeatureVec) -> Option<f64>,
    ) {
        for (kind, qdt, linear) in serial {
            let want: &dyn WcetPredictor = match choice {
                PredictorChoice::QuantileDt => qdt,
                PredictorChoice::LinearRegression => linear,
                _ => unreachable!("no serial {choice:?} model"),
            };
            for (i, sample) in ds.samples(*kind).iter().enumerate() {
                let got = predict(*kind, &sample.x).expect("every trainable kind has a model");
                assert_eq!(
                    got.to_bits(),
                    want.predict_us(&sample.x).to_bits(),
                    "{choice:?} {kind:?} sample {i}"
                );
            }
        }
    }

    /// The worker fits equal a serial fit, model by model, on every
    /// sample; four builds of one dataset released together select each
    /// kind once.
    #[test]
    fn concurrent_fits_select_each_kind_once() {
        let cell = CellConfig::fdd_20mhz();
        let cost = CostModel::new();
        let ds = profile(&cell, &cost, 300, 8, 51);
        let serial = serial_fits(&ds);
        let trainable = serial.len();
        assert!(trainable >= 15, "trainable kinds {trainable}");
        let bank_matches = |bank: &ModelBank, choice| {
            assert_eq!(bank.len(), trainable);
            assert_serial_predictions(&ds, &serial, choice, |kind, x| {
                bank.get(kind).map(|model| model.predict_us(x))
            });
        };

        let sel = Selections::new();
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let fits: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        fit_bank(&ds, &sel, PredictorChoice::QuantileDt, &cost)
                    })
                })
                .collect();
            for fit in fits {
                bank_matches(
                    &fit.join().expect("fit thread"),
                    PredictorChoice::QuantileDt,
                );
            }
        });
        assert_eq!(sel.runs.load(Ordering::Relaxed), trainable as u64);

        // Every later fit on the dataset reuses those selections, and the
        // supervisor's lanes serve the same models.
        for choice in [
            PredictorChoice::QuantileDt,
            PredictorChoice::LinearRegression,
        ] {
            bank_matches(&fit_bank(&ds, &sel, choice, &cost), choice);
            let sup = fit_supervisor(&ds, &sel, choice, &cost, SupervisorConfig::default());
            assert_eq!(sup.n_lanes(), trainable);
            assert_serial_predictions(&ds, &serial, choice, |kind, x| {
                sup.predict_us(kind.index(), x)
            });
        }
        assert_eq!(sel.runs.load(Ordering::Relaxed), trainable as u64);

        // Models that read no features select nothing.
        let sel = Selections::new();
        let _ = fit_bank(&ds, &sel, PredictorChoice::PwcetEvt, &cost);
        assert_eq!(sel.runs.load(Ordering::Relaxed), 0);
    }

    /// A fit that panics on a worker re-raises its own payload, which is
    /// what `ExperimentFailure` reports, not the scope's generic "a scoped
    /// thread panicked".
    #[test]
    fn a_panicking_fit_keeps_its_message() {
        let cell = CellConfig::fdd_20mhz();
        let cost = CostModel::new();
        let mut ds = profile(&cell, &cost, 300, 8, 52);
        let kind = TaskKind::LdpcDecode;
        assert!(ds.samples(kind).len() >= MIN_SAMPLES);
        ds.per_kind[kind.index()][0].x[Feature::NCbs as usize] = f64::NAN;
        let fit = catch_unwind(AssertUnwindSafe(|| {
            fit_bank(&ds, &Selections::new(), PredictorChoice::QuantileDt, &cost)
        }));
        let Err(payload) = fit else {
            panic!("a NaN feature value must not fit");
        };
        let message = crate::runner::panic_message(payload);
        assert!(
            message == "NaN dcor" || message == "NaN feature",
            "payload {message:?}"
        );
    }

    #[test]
    fn pwcet_bank_is_input_insensitive() {
        let cell = CellConfig::fdd_20mhz();
        let cost = CostModel::new();
        let ds = profile(&cell, &cost, 300, 8, 46);
        let bank = train_bank(&ds, PredictorChoice::PwcetEvt, &cost);
        let small = extract(&concordia_ran::task::TaskParams {
            n_cbs: 1,
            ..Default::default()
        });
        let large = extract(&concordia_ran::task::TaskParams {
            n_cbs: 15,
            ..Default::default()
        });
        assert_eq!(
            bank.predict(TaskKind::LdpcDecode, &small),
            bank.predict(TaskKind::LdpcDecode, &large)
        );
    }

    #[test]
    fn qdt_tighter_than_pwcet_for_small_inputs() {
        // The Fig. 13 mechanism in miniature.
        let cell = CellConfig::fdd_20mhz();
        let cost = CostModel::new();
        let ds = profile(&cell, &cost, 500, 8, 47);
        let qdt = train_bank(&ds, PredictorChoice::QuantileDt, &cost);
        let pwcet = train_bank(&ds, PredictorChoice::PwcetEvt, &cost);
        let small = {
            let p = concordia_ran::task::TaskParams {
                n_cbs: 1,
                cb_bits: 8448,
                tb_bits: 8448,
                mcs_index: 20,
                snr_db: 30.0,
                pool_cores: 2,
                ..Default::default()
            };
            extract(&p)
        };
        let q = qdt.predict(TaskKind::LdpcDecode, &small).unwrap();
        let p = pwcet.predict(TaskKind::LdpcDecode, &small).unwrap();
        assert!(
            q.as_micros_f64() < p.as_micros_f64() * 0.5,
            "qdt {q} should be much tighter than pwcet {p}"
        );
    }
}
