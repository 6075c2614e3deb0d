//! Property tests for the multi-cell scale-out.
//!
//! * No cell may lose work while fault windows take cores offline: per
//!   -cell conservation (`completed == injected`) over randomized
//!   deployments.
//! * The parallel runner's sweep reports are a pure function of the seed:
//!   `--jobs 1` and `--jobs 8` yield the same bytes for random configs.
//! * City-scale pools (up to 100 cells on 320 cores) complete every
//!   cell's work.
//!
//! The single-cell deployment's bytes are pinned by the C=1 goldens in
//! `tests/golden.rs`.

use concordia_core::runner::run_sweep;
use concordia_core::{run_experiment, Colocation, SimConfig};
use concordia_platform::arch::PoolArchChoice;
use concordia_platform::faults::{FaultKind, FaultPlan};
use concordia_ran::time::Nanos;
use proptest::prelude::*;

fn small(cells: u32, seed: u64, load: f64) -> SimConfig {
    let mut cfg = SimConfig::paper_20mhz();
    cfg.n_cells = cells;
    cfg.cores = (cells + 1).min(8);
    cfg.duration = Nanos::from_millis(250);
    cfg.profiling_slots = 120;
    cfg.load = load;
    cfg.seed = seed;
    cfg.colocation = Colocation::Isolated;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Per-cell conservation is part of the `PoolArchitecture` contract:
    /// no matter which queue discipline dispatches (centralized EDF/FCFS,
    /// strict per-cell affinity, work stealing, stage pipeline), chaos
    /// core loss must never strand a cell's work.
    #[test]
    fn no_cell_loses_work_under_core_loss(
        cells in 2u32..6,
        seed in 0u64..1_000,
        load in 0.2f64..0.8,
        arch_idx in 0usize..PoolArchChoice::ALL.len(),
    ) {
        let arch = PoolArchChoice::ALL[arch_idx];
        let mut cfg = small(cells, seed, load);
        cfg.pool = arch;
        cfg.faults = FaultPlan::chaos(
            &[FaultKind::CoreOffline, FaultKind::CoreStall],
            cfg.duration,
        );
        let r = run_experiment(cfg);
        prop_assert_eq!(r.metrics.per_cell.len(), cells as usize);
        for (c, ledger) in r.metrics.per_cell.iter().enumerate() {
            prop_assert!(ledger.injected > 0, "cell {} injected nothing", c);
            prop_assert!(
                ledger.completed == ledger.injected,
                "[{}] cell {} lost {} DAGs under core loss",
                arch.name(),
                c,
                ledger.injected - ledger.completed
            );
        }
    }

    #[test]
    fn sweep_reports_are_jobs_invariant(
        cells in 1u32..4,
        master in 0u64..1_000,
    ) {
        let base = small(cells, 0, 0.4);
        let serial = run_sweep(&base, master, 2, 1, None).to_canonical_json();
        let threaded = run_sweep(&base, master, 2, 8, None).to_canonical_json();
        prop_assert_eq!(serial, threaded);
    }
}

/// Deterministic coverage of every architecture x core-loss combination
/// (the proptest above samples; this pins all five disciplines on one
/// fixed deployment so a conservation regression names its architecture).
#[test]
fn every_architecture_conserves_work_under_core_loss() {
    for arch in PoolArchChoice::ALL {
        let mut cfg = small(4, 2021, 0.5);
        cfg.pool = arch;
        cfg.faults = FaultPlan::chaos(
            &[FaultKind::CoreOffline, FaultKind::CoreStall],
            cfg.duration,
        );
        let r = run_experiment(cfg);
        for (c, ledger) in r.metrics.per_cell.iter().enumerate() {
            assert!(
                ledger.injected > 0,
                "[{}] cell {c} injected nothing",
                arch.name()
            );
            assert_eq!(
                ledger.completed,
                ledger.injected,
                "[{}] cell {c} lost work under core loss",
                arch.name()
            );
        }
    }
}

/// The city-scale pools: 16 and 100 staggered 100 MHz cells at half load
/// on about 3.2 cores per cell. Every cell must inject work and complete
/// all of it.
#[test]
fn city_scale_pools_conserve_every_cells_work() {
    for (cells, cores) in [(16u32, 52u32), (100, 320)] {
        let mut cfg = SimConfig::paper_100mhz();
        cfg.n_cells = cells;
        cfg.cores = cores;
        cfg.load = 0.5;
        cfg.duration = Nanos::from_millis(50);
        cfg.profiling_slots = 200;
        cfg.seed = 2021;
        cfg.colocation = Colocation::Isolated;
        let r = run_experiment(cfg);
        assert_eq!(r.metrics.per_cell.len(), cells as usize);
        for (c, ledger) in r.metrics.per_cell.iter().enumerate() {
            assert!(ledger.injected > 0, "C={cells}: cell {c} injected nothing");
            assert_eq!(
                ledger.completed, ledger.injected,
                "C={cells}: cell {c} lost work"
            );
        }
    }
}
