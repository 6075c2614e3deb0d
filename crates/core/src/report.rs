//! Serializable experiment reports.

use concordia_platform::metrics::MetricsSummary;
use concordia_platform::trace::TraceSummary;
use serde::{Deserialize, Serialize};

/// Throughput outcome of the collocated best-effort workload (Fig. 8b–d).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Workload name.
    pub kind: String,
    /// Throughput unit.
    pub unit: String,
    /// Achieved throughput per second.
    pub achieved_ops_per_sec: f64,
    /// Ideal (no vRAN, all cores) throughput per second.
    pub ideal_ops_per_sec: f64,
    /// Achieved / ideal.
    pub fraction_of_ideal: f64,
}

/// Reliability accounting around one resolved fault window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultWindowReport {
    /// Fault class name (`FaultKind::name`).
    pub kind: String,
    /// Window start (µs into the online phase).
    pub start_us: f64,
    /// Window end (µs).
    pub end_us: f64,
    /// Resolved severity.
    pub severity: f64,
    /// DAGs completed before the window opened.
    pub dags_before: u64,
    /// Deadline violations before the window.
    pub violations_before: u64,
    /// Reliability before the window (1.0 when nothing completed yet).
    pub reliability_before: f64,
    /// DAGs completed while the fault was active.
    pub dags_during: u64,
    /// Violations while the fault was active.
    pub violations_during: u64,
    /// Reliability during the fault.
    pub reliability_during: f64,
    /// DAGs completed after the fault cleared.
    pub dags_after: u64,
    /// Violations after the fault cleared.
    pub violations_after: u64,
    /// Reliability after the fault cleared.
    pub reliability_after: f64,
    /// Time from the fault clearing to the *last* post-window violation
    /// (µs); 0 when the pool recovers instantly.
    pub recovery_us: f64,
}

impl FaultWindowReport {
    /// `true` when post-fault reliability returned to (at least) the
    /// pre-fault level.
    pub fn recovered(&self) -> bool {
        self.reliability_after >= self.reliability_before - 1e-12
    }
}

/// Typed backpressure accounting from the supervisor's admission control.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BackpressureReport {
    /// Decision windows spent shedding best-effort work or rejecting
    /// admissions.
    pub shed_windows: u64,
    /// Slot DAGs refused while admission was at the reject level.
    pub rejected_dags: u64,
}

/// Fault-injection outcome of one experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultReport {
    /// Per-window reliability accounting, in timeline order.
    pub windows: Vec<FaultWindowReport>,
    /// Admission-control backpressure, when a supervisor ran.
    pub backpressure: Option<BackpressureReport>,
}

/// Predictor-control-plane outcome of one experiment.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SupervisorReport {
    /// Decision windows evaluated.
    pub windows: u64,
    /// Windows in which a lane's drift test tripped.
    pub drift_detections: u64,
    /// Healthy → Quarantined transitions (fallback swapped in).
    pub quarantines: u64,
    /// Successful replay re-fits (Quarantined → Shadow).
    pub retrains: u64,
    /// Shadow gates failed (back to Quarantined).
    pub shadow_rejections: u64,
    /// Shadow gates passed (retrained model swapped back in).
    pub readmissions: u64,
    /// Generation-counted serving swaps.
    pub swaps: u64,
    /// Windows spent shedding or rejecting under overload.
    pub shed_windows: u64,
    /// Slot DAGs refused under reject-level admission control.
    pub rejected_dags: u64,
    /// Windows from the first quarantine to the last readmission (the
    /// time-to-readmission metric), when both happened.
    pub windows_to_readmission: Option<u64>,
    /// Lanes still serving their fallback at the end of the run.
    pub lanes_on_fallback: u64,
}

/// Per-step outcome of a live reconfiguration plan, in plan order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StepOutcome {
    /// Step name (`ReconfigStep::name`).
    pub step: String,
    /// Apply attempts (first try + retries after rollback).
    pub attempts: u32,
    /// Rollbacks of this step (invariant violations during its settle
    /// window).
    pub rollbacks: u32,
    /// Whether the step ultimately committed.
    pub committed: bool,
    /// Global slot of the last apply attempt (0 when never applied).
    pub applied_slot: u64,
    /// Global slot at which the step committed, when it did.
    pub committed_slot: Option<u64>,
    /// Last invariant violated (or apply error) that rolled the step back.
    pub violation: Option<String>,
}

/// Outcome of a live reconfiguration plan executed against a running
/// simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReconfigReport {
    /// Per-step accounting, in plan order.
    pub steps: Vec<StepOutcome>,
    /// Steps that committed.
    pub committed_steps: u64,
    /// Total rollbacks across the plan.
    pub rollbacks: u64,
    /// Per-slot invariant evaluations performed during settle windows.
    pub invariant_checks: u64,
    /// `true` when every step committed; `false` when a step exhausted its
    /// retries (the plan is infeasible in this order) or the run ended
    /// mid-transition.
    pub feasible: bool,
    /// Active cells when the run ended.
    pub final_cells: u32,
    /// Pool core capacity when the run ended.
    pub final_cores: u32,
}

/// Outcome of one end-to-end experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Scheduler name.
    pub scheduler: String,
    /// Predictor name.
    pub predictor: String,
    /// Colocation name.
    pub colocation: String,
    /// Pooled cells.
    pub n_cells: u32,
    /// Pool cores.
    pub cores: u32,
    /// Traffic load fraction.
    pub load: f64,
    /// DAG deadline (µs).
    pub deadline_us: f64,
    /// Online-phase duration (s).
    pub duration_s: f64,
    /// Root seed.
    pub seed: u64,
    /// Worst misprediction-guard inflation observed at any slot boundary
    /// of the run (1.0 = the guard never inflated). Unlike the guard's
    /// final value this survives resets and rollbacks, which is what the
    /// guard-inflation search oracle needs.
    pub peak_guard_inflation: f64,
    /// Platform metrics.
    pub metrics: MetricsSummary,
    /// Best-effort workload outcome, when a single workload was collocated.
    pub workload: Option<WorkloadReport>,
    /// Fault-injection outcome, when the experiment injected faults.
    pub fault: Option<FaultReport>,
    /// Predictor-control-plane outcome, when a supervisor ran.
    pub supervisor: Option<SupervisorReport>,
    /// Trace-recorder accounting, when tracing was enabled. Stripping this
    /// field is the only edit needed to compare a traced report against an
    /// untraced one — the metrics themselves are identical by contract.
    pub trace: Option<TraceSummary>,
    /// Live-reconfiguration outcome, when the run executed a non-empty
    /// [`crate::reconfig::ReconfigPlan`]. An empty (or absent) plan leaves
    /// this `None`, which keeps such a run byte-identical to a plain one.
    pub reconfig: Option<ReconfigReport>,
    /// Workload-scenario name when the run executed a `traffic::scenario`
    /// spec. Skipped when absent, so scenario-free reports keep their
    /// pre-scenario bytes.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub scenario: Option<String>,
}

impl ExperimentReport {
    /// `true` when the run met the paper's 99.999 % reliability bar.
    pub fn five_nines(&self) -> bool {
        self.metrics.reliability >= 0.99999
    }

    /// The canonical serialized form: pretty JSON with a trailing newline.
    /// The golden-report harness byte-compares this, so its formatting must
    /// never depend on anything but the report's content.
    pub fn to_canonical_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serializes");
        s.push('\n');
        s
    }

    /// Stable fingerprint of the canonical JSON bytes. Two reports have
    /// the same fingerprint iff their canonical serializations are
    /// byte-identical — what repro artifacts store to prove a replay
    /// reproduced the *exact* failing run, not just a similar one.
    pub fn fingerprint(&self) -> String {
        fnv1a_hex(self.to_canonical_json().as_bytes())
    }

    /// One-line human-readable summary. Tail quantiles print as `n/a`
    /// when the run completed no DAGs (empty latency recorder).
    pub fn one_liner(&self) -> String {
        let q = |v: Option<f64>| match v {
            Some(v) => format!("{v:.0}us"),
            None => "n/a".to_string(),
        };
        format!(
            "{}/{} {}: {} dags, reliability {:.6}, p99.99 {}, p99.999 {}, reclaimed {:.1}%",
            self.scheduler,
            self.predictor,
            self.colocation,
            self.metrics.dags,
            self.metrics.reliability,
            q(self.metrics.p9999_latency_us),
            q(self.metrics.p99999_latency_us),
            self.metrics.reclaimed_fraction * 100.0
        )
    }
}

/// FNV-1a 64-bit hash of `bytes`, as a 16-digit lowercase hex string.
/// Dependency-free and stable across platforms; used to fingerprint
/// canonical report JSON in repro artifacts and search reports.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> ExperimentReport {
        ExperimentReport {
            scheduler: "concordia".into(),
            predictor: "quantile_dt".into(),
            colocation: "redis".into(),
            n_cells: 2,
            cores: 8,
            load: 0.5,
            deadline_us: 1500.0,
            duration_s: 10.0,
            seed: 1,
            peak_guard_inflation: 1.0,
            metrics: MetricsSummary {
                dags: 100_000,
                violations: 0,
                reliability: 1.0,
                mean_latency_us: 200.0,
                p9999_latency_us: Some(900.0),
                p99999_latency_us: Some(1100.0),
                reclaimed_fraction: 0.55,
                pool_utilization: 0.3,
                wake_events: 5000,
                wake_tail_events: 3,
                evictions: 5000,
                stall_cycles_pct: 1.5,
                tasks_executed: 2_000_000,
                cores_failed: 0,
                offload_fallbacks: 0,
                tasks_requeued: 0,
                vran_busy_ms: 24_000.0,
                wake_hist_counts: vec![10, 5, 1],
                per_cell: Vec::new(),
            },
            workload: None,
            fault: None,
            supervisor: None,
            trace: None,
            reconfig: None,
            scenario: None,
        }
    }

    #[test]
    fn five_nines_threshold() {
        let mut r = dummy();
        assert!(r.five_nines());
        r.metrics.reliability = 0.9999;
        assert!(!r.five_nines());
        r.metrics.reliability = 0.99999;
        assert!(r.five_nines());
    }

    #[test]
    fn serializes_round_trip() {
        let r = dummy();
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: ExperimentReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.metrics.dags, 100_000);
        assert_eq!(back.scheduler, "concordia");
    }

    #[test]
    fn fingerprint_tracks_canonical_bytes() {
        let a = dummy();
        let mut b = dummy();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.metrics.violations = 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint().len(), 16);
        // Known FNV-1a vectors keep the hash stable across refactors.
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn one_liner_contains_key_fields() {
        let s = dummy().one_liner();
        assert!(s.contains("concordia"));
        assert!(s.contains("reclaimed"));
    }

    #[test]
    fn fault_window_recovery_predicate() {
        let mut w = FaultWindowReport {
            kind: "core_offline".into(),
            start_us: 1_000.0,
            end_us: 2_000.0,
            severity: 0.5,
            dags_before: 1_000,
            violations_before: 0,
            reliability_before: 1.0,
            dags_during: 500,
            violations_during: 40,
            reliability_during: 0.92,
            dags_after: 1_000,
            violations_after: 0,
            reliability_after: 1.0,
            recovery_us: 150.0,
        };
        assert!(w.recovered());
        w.reliability_after = 0.99;
        assert!(!w.recovered());
    }

    #[test]
    fn reconfig_report_serializes() {
        let mut r = dummy();
        r.reconfig = Some(ReconfigReport {
            steps: vec![StepOutcome {
                step: "grow_pool".into(),
                attempts: 2,
                rollbacks: 1,
                committed: true,
                applied_slot: 120,
                committed_slot: Some(160),
                violation: Some("deadline_misses: 3 new in 10 slots".into()),
            }],
            committed_steps: 1,
            rollbacks: 1,
            invariant_checks: 80,
            feasible: true,
            final_cells: 5,
            final_cores: 6,
        });
        let json = serde_json::to_string(&r).unwrap();
        let back: ExperimentReport = serde_json::from_str(&json).unwrap();
        let rc = back.reconfig.expect("reconfig report survives");
        assert_eq!(rc.steps.len(), 1);
        assert!(rc.feasible);
        assert_eq!(rc.steps[0].committed_slot, Some(160));
        assert_eq!(rc.steps[0].rollbacks, 1);
    }

    #[test]
    fn fault_report_serializes() {
        let mut r = dummy();
        r.fault = Some(FaultReport {
            windows: vec![FaultWindowReport {
                kind: "accel_outage".into(),
                start_us: 10.0,
                end_us: 20.0,
                severity: 1.0,
                dags_before: 1,
                violations_before: 0,
                reliability_before: 1.0,
                dags_during: 1,
                violations_during: 1,
                reliability_during: 0.0,
                dags_after: 1,
                violations_after: 0,
                reliability_after: 1.0,
                recovery_us: 0.0,
            }],
            backpressure: Some(BackpressureReport {
                shed_windows: 4,
                rejected_dags: 12,
            }),
        });
        r.supervisor = Some(SupervisorReport {
            windows: 200,
            drift_detections: 3,
            quarantines: 1,
            retrains: 1,
            shadow_rejections: 0,
            readmissions: 1,
            swaps: 2,
            shed_windows: 4,
            rejected_dags: 12,
            windows_to_readmission: Some(9),
            lanes_on_fallback: 0,
        });
        let json = serde_json::to_string(&r).unwrap();
        let back: ExperimentReport = serde_json::from_str(&json).unwrap();
        let f = back.fault.expect("fault report survives the round trip");
        assert_eq!(f.windows.len(), 1);
        assert_eq!(f.windows[0].kind, "accel_outage");
        assert_eq!(f.backpressure.expect("backpressure").rejected_dags, 12);
        let s = back.supervisor.expect("supervisor report");
        assert_eq!(s.readmissions, 1);
        assert_eq!(s.windows_to_readmission, Some(9));
    }
}
