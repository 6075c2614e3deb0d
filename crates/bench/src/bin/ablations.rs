//! Ablations of Concordia's design choices (DESIGN.md §4).
//!
//! 1. Leaf statistic: max-of-buffer (Algorithm 2) vs an upper quantile —
//!    the miss-rate / pessimism trade-off.
//! 2. Scheduler tick: 5/20/100/500 µs — why the paper's 20 µs is the sweet
//!    spot between reaction time and overhead-free stability.
//! 3. Online leaf updates on vs frozen offline model — the §4.2 online
//!    phase's value under interference.
//! 4. Tree shape: depth/min-leaf sweep — prediction tightness vs
//!    generalization.

use concordia_bench::{banner, pct, write_json, RunLength};
use concordia_core::profile::profile;
use concordia_core::{run_experiment, Colocation, SchedulerChoice, SimConfig};
use concordia_platform::workloads::WorkloadKind;
use concordia_predictor::qdt::{LeafStatistic, QuantileDecisionTree};
use concordia_predictor::tree::TreeConfig;
use concordia_predictor::WcetPredictor;
use concordia_ran::cost::CostModel;
use concordia_ran::features::{extract, handpicked};
use concordia_ran::task::TaskKind;
use concordia_ran::transport::Mcs;
use concordia_ran::{CellConfig, Nanos, TaskParams};
use concordia_sched::concordia::ConcordiaConfig;
use concordia_stats::rng::Rng;
use serde::Serialize;

#[derive(Serialize, Default)]
struct AblationResults {
    leaf_stat: Vec<(String, f64, f64)>, // (stat, miss%, avg pred us)
    tick: Vec<(u64, f64, f64)>,         // (tick us, reliability, reclaimed%)
    online: Vec<(String, f64)>,         // (mode, miss%)
    tree_shape: Vec<(u32, usize, f64, f64)>, // (depth, min_leaf, miss%, avg pred us)
}

fn decode_eval(
    model: &mut dyn WcetPredictor,
    cost: &CostModel,
    inflate: f64,
    observe: bool,
    n: usize,
    seed: u64,
) -> (f64, f64) {
    let mut rng = Rng::new(seed);
    let (mut misses, mut preds) = (0u64, 0.0f64);
    for _ in 0..n {
        let n_cbs = rng.range_u64(1, 15) as u32;
        let mcs = Mcs::from_index(rng.range_u64(4, 27) as u8);
        let p = TaskParams {
            n_cbs,
            cb_bits: 8448,
            tb_bits: n_cbs * 8448,
            mcs_index: mcs.index,
            modulation_order: mcs.modulation_order,
            code_rate: mcs.code_rate,
            snr_db: mcs.required_snr_db() + rng.range_f64(-2.0, 10.0),
            layers: 2,
            prbs: 60,
            pool_cores: rng.range_u64(1, 8) as u32,
            ..TaskParams::default()
        };
        let runtime = cost
            .sample_runtime(TaskKind::LdpcDecode, &p, inflate, &mut rng)
            .as_micros_f64();
        let x = extract(&p);
        let pred = model.predict_us(&x);
        preds += pred;
        if runtime > pred {
            misses += 1;
        }
        if observe {
            model.observe(&x, runtime);
        }
    }
    (misses as f64 / n as f64 * 100.0, preds / n as f64)
}

fn main() {
    let len = RunLength::from_args();
    let seed = concordia_bench::seed_from_args();
    banner(
        "Ablations (leaf statistic, tick, online updates, tree shape)",
        "why max-of-buffer leaves, a 20us tick and frozen-tree online buffers are the right choices",
    );
    let mut results = AblationResults::default();

    let cell = CellConfig::fdd_20mhz();
    let cost = CostModel::new();
    let dataset = profile(&cell, &cost, len.profiling_slots() * 2, 8, seed);
    let decode = dataset.samples(TaskKind::LdpcDecode);
    let feats: Vec<usize> = handpicked(TaskKind::LdpcDecode)
        .iter()
        .map(|&f| f as usize)
        .collect();
    let eval_n = match len {
        concordia_bench::RunLength::Quick => 20_000,
        _ => 100_000,
    };

    // ---- 1. leaf statistic ----
    println!("\n[1] leaf statistic (decode task, isolated):");
    println!(
        "{:<16} {:>10} {:>14}",
        "statistic", "miss %", "avg pred (us)"
    );
    for (name, stat) in [
        ("max".to_string(), LeafStatistic::Max),
        ("q0.999".to_string(), LeafStatistic::Quantile(0.999)),
        ("q0.99".to_string(), LeafStatistic::Quantile(0.99)),
        ("q0.9".to_string(), LeafStatistic::Quantile(0.9)),
    ] {
        let mut m = QuantileDecisionTree::fit_with(decode, &feats, &TreeConfig::default(), stat);
        let (miss, avg) = decode_eval(&mut m, &cost, 1.0, true, eval_n, seed ^ 1);
        println!("{name:<16} {miss:>10.4} {avg:>14.1}");
        results.leaf_stat.push((name, miss, avg));
    }
    println!("(max pays pessimism for coverage — the Algorithm 2 choice)");

    // ---- 2. scheduler tick ----
    println!("\n[2] scheduler tick (20MHz config + Redis, 75% load):");
    println!(
        "{:<10} {:>12} {:>12}",
        "tick(us)", "reliability", "reclaimed"
    );
    for tick_us in [5u64, 20, 100, 500] {
        let mut cfg = SimConfig::paper_20mhz();
        cfg.duration = Nanos::from_secs(len.online_secs().min(6));
        cfg.profiling_slots = len.profiling_slots();
        cfg.load = 0.75;
        cfg.colocation = Colocation::Single(WorkloadKind::Redis);
        cfg.scheduler = SchedulerChoice::Concordia(ConcordiaConfig {
            tick: Nanos::from_micros(tick_us),
            ..ConcordiaConfig::default()
        });
        cfg.seed = seed;
        let r = run_experiment(cfg);
        println!(
            "{tick_us:<10} {:>12.6} {:>12}",
            r.metrics.reliability,
            pct(r.metrics.reclaimed_fraction)
        );
        results.tick.push((
            tick_us,
            r.metrics.reliability,
            r.metrics.reclaimed_fraction * 100.0,
        ));
    }

    // ---- 3. online updates ----
    println!("\n[3] online leaf updates under interference (factor ~1.3):");
    for (name, observe) in [("online", true), ("frozen", false)] {
        let mut m = QuantileDecisionTree::fit(decode, &feats, &TreeConfig::default());
        let (miss, _) = decode_eval(&mut m, &cost, 1.3, observe, eval_n, seed ^ 2);
        println!("  {name:<8} miss {miss:.4}%");
        results.online.push((name.to_string(), miss));
    }
    println!("(the online phase absorbs the interference shift — §4.2)");

    // ---- 4. tree shape ----
    println!("\n[4] tree shape (depth x min-leaf):");
    println!(
        "{:>6} {:>9} {:>10} {:>14}",
        "depth", "min_leaf", "miss %", "avg pred (us)"
    );
    for (depth, min_leaf) in [(2u32, 200usize), (4, 100), (8, 50), (12, 20)] {
        let cfgt = TreeConfig {
            max_depth: depth,
            min_leaf,
            n_thresholds: 16,
        };
        let mut m = QuantileDecisionTree::fit(decode, &feats, &cfgt);
        let (miss, avg) = decode_eval(&mut m, &cost, 1.0, true, eval_n, seed ^ 3);
        println!("{depth:>6} {min_leaf:>9} {miss:>10.4} {avg:>14.1}");
        results.tree_shape.push((depth, min_leaf, miss, avg));
    }
    println!("(shallow trees are pessimistic; very deep ones overfit leaves with\n few samples — the default depth-8/min-50 balances both)");

    write_json("ablations", &results);
}
