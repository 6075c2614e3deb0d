//! Drift soak — the self-healing predictor control plane under a
//! long-lived `drift_injection` window, supervised vs frozen.
//!
//! One sustained fault window perturbs the feature→runtime mapping (long
//! tasks inflate by up to `1 + severity`, short ones barely move) at a
//! tightened Fig. 11 stress point: 100 MHz x 2 cells on a six-core pool
//! with Redis collocated at high load, where the drift's runtime
//! inflation visibly moves reliability. Two runs share the seed and
//! traffic:
//!
//! * **supervised** — the predictor supervisor detects the drift,
//!   quarantines the affected lanes onto the inflated-linear fallback,
//!   retrains from the replay buffer and readmits through the shadow
//!   gate. Post-readmission reliability must return to the pre-fault
//!   level.
//! * **frozen** — the same models with no supervisor and no online
//!   updates: the paper's "train once, never adapt" strawman. It has no
//!   mechanism to absorb the new regime, so its reliability stays
//!   degraded for as long as the drift lasts.
//!
//! The drift holds for most of the run, injected as two back-to-back
//! windows of equal severity so the report carves it into an *early*
//! phase (detection, quarantine, retraining happen here) and a *late*
//! phase (the retrained models serve), with a healthy tail after. The
//! claims: the supervised run walks the whole lifecycle and its
//! post-fault reliability returns to the pre-fault level, while the
//! frozen model runs degraded for as long as the drift is active.
//!
//! The run length is phrased in supervisor windows so the lifecycle is
//! visible: `--windows N` simulates `N x window_slots` slots. Everything
//! is bit-reproducible: the same `--seed` yields byte-identical JSON.
//!
//! Example:
//! `cargo run -p concordia-bench --release --bin drift_soak -- --seed 7 --windows 200`
//!
//! `--trace` turns the ring-buffer recorder on for both runs. The rows are
//! metric-derived only, so the JSON stays byte-identical with tracing on
//! or off — CI runs the soak both ways and compares.
//!
//! The soak exits 1 unless the supervised run heals and the frozen one
//! stays degraded.

use concordia_bench::{banner, bool_flag, f64_flag, u64_flag, write_json, Gate};
use concordia_core::{run_experiment, Colocation, ExperimentReport, SimConfig};
use concordia_platform::faults::{FaultKind, FaultPlan, FaultSpec};
use concordia_platform::trace::TraceConfig;
use concordia_platform::workloads::WorkloadKind;
use concordia_sched::SupervisorConfig;
use serde::Serialize;

const SEVERITY: f64 = 2.5;

#[derive(Serialize)]
struct DriftRow {
    mode: String,
    /// Reliability before the drift opens.
    reliability_pre: f64,
    /// Reliability while the control plane is detecting/retraining.
    reliability_early_drift: f64,
    /// Reliability once the retrained models serve (drift still active).
    reliability_late_drift: f64,
    /// Reliability after the drift clears.
    reliability_post: f64,
    /// Post-fault reliability back at (or above) the pre-fault level.
    recovered: bool,
    /// Reliability visibly below the pre-fault level while drifting.
    degraded_during_drift: bool,
    drift_detections: u64,
    quarantines: u64,
    retrains: u64,
    shadow_rejections: u64,
    readmissions: u64,
    swaps: u64,
    shed_windows: u64,
    rejected_dags: u64,
    windows_to_readmission: Option<u64>,
    lanes_on_fallback: u64,
}

fn row(mode: &str, report: &ExperimentReport) -> DriftRow {
    let f = report.fault.as_ref().expect("drift_soak injects faults");
    let (early, late) = match f.windows.as_slice() {
        [e, l] => (e, l),
        _ => panic!("drift_soak always injects exactly two windows"),
    };
    let sup = report.supervisor.clone().unwrap_or_default();
    let pre = early.reliability_before;
    // The drift as a whole: completions while either window was active.
    let drift_dags = early.dags_during + late.dags_during;
    let drift_viols = early.violations_during + late.violations_during;
    let during = if drift_dags == 0 {
        1.0
    } else {
        1.0 - drift_viols as f64 / drift_dags as f64
    };
    DriftRow {
        mode: mode.to_string(),
        reliability_pre: pre,
        reliability_early_drift: early.reliability_during,
        reliability_late_drift: late.reliability_during,
        reliability_post: late.reliability_after,
        recovered: late.reliability_after >= pre - 1e-12,
        degraded_during_drift: during < pre - 1e-12,
        drift_detections: sup.drift_detections,
        quarantines: sup.quarantines,
        retrains: sup.retrains,
        shadow_rejections: sup.shadow_rejections,
        readmissions: sup.readmissions,
        swaps: sup.swaps,
        shed_windows: sup.shed_windows,
        rejected_dags: sup.rejected_dags,
        windows_to_readmission: sup.windows_to_readmission,
        lanes_on_fallback: sup.lanes_on_fallback,
    }
}

fn main() {
    let seed = concordia_bench::seed_from_args();
    let load = f64_flag("--load", 0.85).clamp(0.0, 1.0);
    let windows = u64_flag("--windows", 200).max(10);
    banner(
        "Drift soak (predictor control plane under a sustained feature-runtime drift)",
        "the supervisor detects, quarantines, retrains and readmits while a frozen model stays degraded",
    );

    let sup_cfg = SupervisorConfig::default();
    let mut base = SimConfig::paper_100mhz();
    let slot = base.cell.slot_duration();
    let dur = slot.scale((windows * sup_cfg.window_slots) as f64);
    // The drift opens after calibration plus a healthy baseline stretch
    // and holds for 60% of the run. The early phase (30-60%) is where
    // detection, quarantine and retraining happen; the late phase
    // (60-90%) is where the readmitted models serve; the last 10% is the
    // healthy tail the recovery claim is judged on.
    let start = dur.scale(0.30);
    let split = dur.scale(0.60);
    let end = dur.scale(0.90);

    base.cores = 6;
    base.duration = dur;
    base.profiling_slots = 600;
    base.load = load;
    base.colocation = Colocation::Single(WorkloadKind::Redis);
    base.seed = seed;
    base.trace = bool_flag("--trace").then(TraceConfig::default);
    base.faults = FaultPlan {
        specs: vec![
            FaultSpec::fixed(FaultKind::DriftInjection, start, split - start, SEVERITY),
            FaultSpec::fixed(FaultKind::DriftInjection, split, end - split, SEVERITY),
        ],
    };

    let mut supervised = base.clone();
    supervised.supervisor = Some(sup_cfg);

    let mut frozen = base.clone();
    frozen.supervisor = None;
    frozen.online_updates = false;

    println!(
        "\n{} supervisor windows ({} slots each, {:.1}s simulated), load {:.0}%, \
         drift sev {:.2} over {:.0}-{:.0}us (early/late split at {:.0}us), seed {}",
        windows,
        sup_cfg.window_slots,
        dur.as_nanos() as f64 / 1e9,
        load * 100.0,
        SEVERITY,
        start.as_micros_f64(),
        end.as_micros_f64(),
        split.as_micros_f64(),
        seed
    );

    let sup_report = run_experiment(supervised);
    let frozen_report = run_experiment(frozen);
    let rows = vec![
        row("supervised", &sup_report),
        row("frozen", &frozen_report),
    ];

    println!(
        "\n{:<12} {:>9} {:>10} {:>10} {:>9} {:>10} {:>8} {:>8} {:>8}",
        "mode",
        "rel.pre",
        "rel.early",
        "rel.late",
        "rel.post",
        "recovered",
        "quaran",
        "retrain",
        "readmit"
    );
    for r in &rows {
        println!(
            "{:<12} {:>9.5} {:>10.5} {:>10.5} {:>9.5} {:>10} {:>8} {:>8} {:>8}",
            r.mode,
            r.reliability_pre,
            r.reliability_early_drift,
            r.reliability_late_drift,
            r.reliability_post,
            if r.recovered { "yes" } else { "NO" },
            r.quarantines,
            r.retrains,
            r.readmissions
        );
    }
    if let Some(w) = rows[0].windows_to_readmission {
        println!("\nsupervised: last lane readmitted {w} windows after the first quarantine");
    }

    let supervised_healed = rows[0].recovered && rows[0].readmissions > 0;
    let frozen_degraded = rows[1].degraded_during_drift;
    println!(
        "\nsupervised healed (readmitted; post-fault reliability at pre-fault level): {} | \
         frozen degraded while the drift lasted: {}",
        if supervised_healed { "yes" } else { "NO" },
        if frozen_degraded { "yes" } else { "NO" }
    );

    write_json(
        "drift_soak",
        &serde_json::json!({
            "seed": seed,
            "load": load,
            "windows": windows,
            "severity": SEVERITY,
            "rows": rows,
            "supervised_healed": supervised_healed,
            "frozen_degraded": frozen_degraded,
        }),
    );

    let mut gate = Gate::default();
    gate.check(
        supervised_healed,
        "the supervised run did not heal (no readmission, or post-fault reliability below pre-fault)",
    );
    gate.check(
        frozen_degraded,
        "the frozen model was not degraded while the drift lasted",
    );
    gate.finish("drift soak");
}
