//! End-to-end tests of the observability layer: the trace recorder's
//! zero-perturbation contract, the Chrome trace-event export's structural
//! validity, determinism of traced runs, and the lifecycle and plan events
//! an overflowing ring must still export — all through the facade.

use concordia::core::{
    Colocation, InvariantConfig, ReconfigPlan, ReconfigStep, SimConfig, Simulation,
};
use concordia::platform::faults::{FaultKind, FaultPlan};
use concordia::platform::trace::{
    export_chrome_trace, export_snapshots, TraceConfig, TID_RECONFIG, TID_SUPERVISOR,
};
use concordia::platform::workloads::WorkloadKind;
use concordia::ran::Nanos;
use concordia::sched::SupervisorConfig;
use serde::{map_get, Value};

/// A short run that still exercises every traced event class: platform
/// faults (core loss, accelerator outage), workload faults (predictor
/// bias), FPGA offloads, a supervisor, and a collocated workload. Kept
/// to 250 ms so the whole file stays cheap on a single-core CI box —
/// at 100 MHz that is still ~500 slots and tens of thousands of events.
fn workout(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_100mhz();
    cfg.cores = 8;
    cfg.duration = Nanos::from_millis(250);
    cfg.profiling_slots = 200;
    cfg.load = 0.6;
    cfg.colocation = Colocation::Single(WorkloadKind::Redis);
    cfg.fpga = true;
    cfg.supervisor = Some(SupervisorConfig::default());
    cfg.faults = FaultPlan::chaos(
        &[
            FaultKind::CoreOffline,
            FaultKind::AccelOutage,
            FaultKind::PredictorBias,
        ],
        cfg.duration,
    );
    cfg.seed = seed;
    cfg
}

#[test]
fn tracing_does_not_perturb_the_report() {
    let untraced = Simulation::new(workout(5)).run();

    let mut traced_cfg = workout(5);
    traced_cfg.trace = Some(TraceConfig::default());
    let (mut traced, recorder) = Simulation::new(traced_cfg).run_traced();

    // The only allowed difference is the trace accounting field itself.
    assert!(untraced.trace.is_none());
    assert!(traced.trace.is_some());
    traced.trace = None;
    assert_eq!(
        serde_json::to_string(&untraced).unwrap(),
        serde_json::to_string(&traced).unwrap(),
        "a traced run must be byte-identical to the untraced run"
    );

    let recorder = recorder.expect("tracing was on");
    assert!(!recorder.is_empty(), "the workout must record events");
    assert!(
        !recorder.snapshots().is_empty(),
        "periodic snapshots must be taken"
    );
}

#[test]
fn traced_runs_are_deterministic() {
    let mk = || {
        let mut cfg = workout(9);
        cfg.trace = Some(TraceConfig::default());
        let (report, rec) = Simulation::new(cfg).run_traced();
        let chrome = serde_json::to_string(&export_chrome_trace(&rec.unwrap())).unwrap();
        (serde_json::to_string(&report).unwrap(), chrome)
    };
    let (report_a, chrome_a) = mk();
    let (report_b, chrome_b) = mk();
    assert_eq!(report_a, report_b);
    assert_eq!(chrome_a, chrome_b, "the export itself must be byte-stable");
}

#[test]
fn chrome_export_is_valid_and_monotone_per_track() {
    let mut cfg = workout(11);
    cfg.trace = Some(TraceConfig::default());
    let (_, rec) = Simulation::new(cfg).run_traced();
    let rec = rec.unwrap();

    let json = serde_json::to_string(&export_chrome_trace(&rec)).unwrap();
    let parsed: Value = serde_json::from_str(&json).expect("export must be valid JSON");
    let Value::Map(top) = &parsed else {
        panic!("top level must be an object");
    };
    let Value::Seq(events) = map_get(top, "traceEvents") else {
        panic!("traceEvents must be an array");
    };
    assert!(!events.is_empty(), "export must carry events");

    let mut last_ts: Vec<(u64, f64)> = Vec::new();
    let mut spans = 0usize;
    for ev in events {
        let Value::Map(m) = ev else {
            panic!("every event is an object");
        };
        let Value::Str(ph) = map_get(m, "ph") else {
            panic!("every event has a phase");
        };
        if ph == "M" {
            continue;
        }
        if ph == "X" {
            spans += 1;
        }
        let Value::U64(tid) = map_get(m, "tid") else {
            panic!("every event has a numeric tid");
        };
        let ts = match map_get(m, "ts") {
            Value::F64(t) => *t,
            Value::U64(t) => *t as f64,
            other => panic!("ts must be numeric, got {other:?}"),
        };
        match last_ts.iter_mut().find(|(t, _)| t == tid) {
            Some((_, prev)) => {
                assert!(*prev <= ts, "track {tid}: ts {ts} after {prev}");
                *prev = ts;
            }
            None => last_ts.push((*tid, ts)),
        }
    }
    assert!(spans > 0, "task executions must appear as complete spans");

    // The snapshot exporter round-trips through JSON as well.
    let snap_json = serde_json::to_string(&export_snapshots(&rec)).unwrap();
    let snap: Value = serde_json::from_str(&snap_json).unwrap();
    assert!(matches!(snap, Value::Map(_) | Value::Seq(_)));
}

#[test]
fn report_trace_summary_matches_the_recorder() {
    // 500 slots of 0.5 ms: one snapshot per 50 slots, none at period 0.
    for (snapshot_slots, snapshots) in [(50, 10), (0, 0)] {
        let mut cfg = workout(3);
        cfg.trace = Some(TraceConfig {
            capacity: 4096, // small ring: force drops so the counter is live
            snapshot_slots,
        });
        let (report, rec) = Simulation::new(cfg).run_traced();
        let rec = rec.unwrap();
        let summary = report.trace.expect("traced run reports a summary");
        assert_eq!(summary, rec.summary());
        assert_eq!(summary.capacity, 4096);
        assert_eq!(summary.snapshots, snapshots, "period {snapshot_slots}");
        assert_eq!(
            summary.events_recorded,
            rec.len() as u64 + summary.events_dropped
        );
    }
}

/// The events a supervisor, a fault timeline and a reconfiguration plan
/// record a handful of times per run must survive a ring that task
/// events overflow many times over: the export holds one lane-transition
/// instant per lifecycle change and one commit instant per committed step.
#[test]
fn an_overflowing_ring_keeps_every_lane_transition_and_commit() {
    let mut cfg = SimConfig::paper_20mhz();
    cfg.n_cells = 1;
    cfg.cores = 1;
    cfg.load = 1.0;
    cfg.deadline_override = Some(Nanos::from_micros(700));
    cfg.duration = Nanos::from_secs(2);
    cfg.faults = FaultPlan::chaos(&[FaultKind::DriftInjection], cfg.duration);
    cfg.supervisor = Some(SupervisorConfig::default());
    cfg.reconfig = Some(ReconfigPlan {
        start_slot: 400,
        settle_slots: 60,
        max_retries: 1,
        backoff_slots: 40,
        invariants: InvariantConfig {
            baseline_slots: 200,
            max_new_violations: 1000,
            max_guard_inflation: 4.0,
        },
        steps: vec![
            ReconfigStep::GrowPool { cores: 2 },
            ReconfigStep::AddCell,
            ReconfigStep::DrainCell { cell: 1 },
            ReconfigStep::ShrinkPool { cores: 1 },
            ReconfigStep::Rephase { stagger: true },
            ReconfigStep::SetDeadline { deadline_us: 1800 },
        ],
    });
    cfg.trace = Some(TraceConfig {
        capacity: 4096,
        snapshot_slots: 0,
    });
    let (report, rec) = Simulation::new(cfg).run_traced();
    let rec = rec.unwrap();
    assert!(
        report.trace.as_ref().unwrap().events_dropped > 100_000,
        "the ring must overflow many times over"
    );
    let sup = report.supervisor.expect("supervised run");
    let transitions = sup.quarantines + sup.retrains + sup.shadow_rejections + sup.readmissions;
    let committed = report.reconfig.expect("plan ran").committed_steps;
    assert!(transitions > 0 && committed > 0, "{sup:?}");

    let Value::Map(top) = export_chrome_trace(&rec) else {
        panic!("top level must be an object");
    };
    let Value::Seq(events) = map_get(&top, "traceEvents") else {
        panic!("traceEvents must be an array");
    };
    // Instants named `prefix…` on one track.
    let count = |tid: u32, prefix: &str| {
        let on_track = |m: &[(String, Value)]| {
            matches!(map_get(m, "ph"), Value::Str(ph) if ph == "i")
                && matches!(map_get(m, "tid"), Value::U64(t) if *t == u64::from(tid))
                && matches!(map_get(m, "name"), Value::Str(n) if n.starts_with(prefix))
        };
        events
            .iter()
            .filter(|e| matches!(e, Value::Map(m) if on_track(m)))
            .count() as u64
    };
    assert_eq!(count(TID_SUPERVISOR, "lane"), transitions);
    assert_eq!(count(TID_RECONFIG, "reconfig_commit"), committed);
}
