//! Fig. 7 — mapping of runtime samples to decision-tree leaves and the
//! effect of interference on their distributions (§4.2).
//!
//! Paper claims reproduced here:
//! * the offline-trained quantile decision tree groups runtime samples so
//!   that within-leaf variance is small relative to the global variance
//!   (Fig. 7a top);
//! * with a collocated workload (TPCC/Redis) the *grouping stays valid*:
//!   online samples land in the same leaves with visually similar
//!   distributions (Fig. 7a bottom);
//! * the most distorted leaves (largest Wasserstein distance) show a
//!   heavier tail but runtimes "still located in the same region"
//!   (Fig. 7b);
//! * the KS test rejects equality of isolated vs interfered runtime
//!   distributions with p << 0.001 (§4.1 challenge 2).

use concordia_bench::{banner, write_json, RunLength};
use concordia_core::profile::{profile, random_workload};
use concordia_core::PredictorChoice;
use concordia_predictor::qdt::QuantileDecisionTree;
use concordia_predictor::tree::TreeConfig;
use concordia_ran::cost::CostModel;
use concordia_ran::features::{extract, handpicked};
use concordia_ran::numerology::SlotDirection;
use concordia_ran::task::TaskKind;
use concordia_ran::CellConfig;
use concordia_stats::rng::Rng;
use concordia_stats::tests::{ks_two_sample, wasserstein1};
use serde::Serialize;

#[derive(Serialize)]
struct LeafStat {
    leaf: usize,
    samples_isolated: usize,
    samples_interfered: usize,
    mean_isolated: f64,
    mean_interfered: f64,
    wasserstein: f64,
}

#[derive(Serialize)]
struct Fig7Results {
    n_leaves: usize,
    global_variance: f64,
    within_leaf_variance: f64,
    ks_statistic: f64,
    ks_p_value: f64,
    leaves: Vec<LeafStat>,
    most_distorted_leaf: usize,
}

fn main() {
    let len = RunLength::from_args();
    let seed = concordia_bench::seed_from_args();
    banner(
        "Fig. 7 (leaf-node runtime distributions under interference)",
        "offline tree grouping stays valid online; interference => heavier tail, same region; KS p << 0.001",
    );

    let cell = CellConfig::fdd_20mhz();
    let cost = CostModel::new();
    let slots = len.profiling_slots() * 2;

    // Offline phase: train the decode tree in isolation (Algorithm 1 uses
    // the hand-picked features; the full pipeline is exercised in the
    // fig14 harness — here we keep the tree small enough to tabulate).
    let dataset = profile(&cell, &cost, slots, 8, seed);
    let decode = dataset.samples(TaskKind::LdpcDecode);
    let feats: Vec<usize> = handpicked(TaskKind::LdpcDecode)
        .iter()
        .map(|&f| f as usize)
        .collect();
    let tree = QuantileDecisionTree::fit(
        decode,
        &feats,
        &TreeConfig {
            max_depth: 5,
            min_leaf: 100,
            n_thresholds: 16,
        },
    );
    println!(
        "\ntrained decode tree: {} leaves ({} samples)",
        tree.n_leaves(),
        decode.len()
    );
    let _ = PredictorChoice::QuantileDt; // the trained variant under study

    // Collect fresh isolated + interfered samples per leaf (TPCC-like
    // pressure 1.1 on a cold-ish pool => interference factor ~1.15-1.3).
    let mut rng = Rng::new(seed ^ 0xF167);
    let n_leaves = tree.n_leaves();
    let mut iso: Vec<Vec<f64>> = vec![Vec::new(); n_leaves];
    let mut intf: Vec<Vec<f64>> = vec![Vec::new(); n_leaves];
    let runs = slots * 2;
    for _ in 0..runs {
        let wl = random_workload(&cell, SlotDirection::Uplink, &mut rng);
        let dag = concordia_ran::dag::build_dag(&cell, 0, 0, concordia_ran::Nanos::ZERO, &wl);
        for node in &dag.nodes {
            if node.task.kind != TaskKind::LdpcDecode {
                continue;
            }
            let mut p = node.task.params;
            p.pool_cores = 4;
            let x = extract(&p);
            let leaf = tree.leaf_of(&x);
            iso[leaf].push(
                cost.sample_runtime(TaskKind::LdpcDecode, &p, 1.0, &mut rng)
                    .as_micros_f64(),
            );
            // TPCC-like interference factor distribution.
            let f = 1.0 + 1.1 * 0.18 * rng.lognormal(0.0, 0.35);
            intf[leaf].push(
                cost.sample_runtime(TaskKind::LdpcDecode, &p, f, &mut rng)
                    .as_micros_f64(),
            );
        }
    }

    // Fig. 7a: per-leaf stats + variance decomposition.
    let all_iso: Vec<f64> = iso.iter().flatten().copied().collect();
    let gm = all_iso.iter().sum::<f64>() / all_iso.len() as f64;
    let gvar = all_iso.iter().map(|x| (x - gm).powi(2)).sum::<f64>() / all_iso.len() as f64;
    let mut within = 0.0;
    let mut leaves = Vec::new();
    println!(
        "\n{:>5} {:>8} {:>12} {:>12} {:>12}",
        "leaf", "samples", "mean iso", "mean tpcc", "wasserstein"
    );
    for l in 0..n_leaves {
        if iso[l].len() < 30 || intf[l].len() < 30 {
            continue;
        }
        let mi = iso[l].iter().sum::<f64>() / iso[l].len() as f64;
        let mt = intf[l].iter().sum::<f64>() / intf[l].len() as f64;
        within += iso[l].iter().map(|x| (x - mi).powi(2)).sum::<f64>();
        let w = wasserstein1(&iso[l], &intf[l]);
        println!("{l:>5} {:>8} {mi:>12.1} {mt:>12.1} {w:>12.2}", iso[l].len());
        leaves.push(LeafStat {
            leaf: l,
            samples_isolated: iso[l].len(),
            samples_interfered: intf[l].len(),
            mean_isolated: mi,
            mean_interfered: mt,
            wasserstein: w,
        });
    }
    let wvar = within / all_iso.len() as f64;
    println!(
        "\nvariance: global {gvar:.0} vs within-leaf {wvar:.0} ({:.1}% of global) — Fig. 7a grouping",
        wvar / gvar * 100.0
    );

    // §4.1: KS test on pooled isolated vs interfered samples.
    let all_intf: Vec<f64> = intf.iter().flatten().copied().collect();
    let ks = ks_two_sample(&all_iso, &all_intf);
    println!(
        "KS test isolated vs TPCC-interfered: D={:.4}, p={:.2e} (paper: p << 0.001)",
        ks.statistic, ks.p_value
    );

    // Fig. 7b: zoom into the most distorted leaf.
    let worst = leaves
        .iter()
        .max_by(|a, b| a.wasserstein.partial_cmp(&b.wasserstein).unwrap())
        .expect("at least one populated leaf");
    println!(
        "\nmost distorted leaf {} (W1={:.2}): tail comparison",
        worst.leaf, worst.wasserstein
    );
    for q in [0.5, 0.9, 0.99, 0.999] {
        let qi = concordia_stats::summary::quantile(&iso[worst.leaf], q).unwrap();
        let qt = concordia_stats::summary::quantile(&intf[worst.leaf], q).unwrap();
        println!(
            "  q{:<6} isolated {qi:>8.1}us  interfered {qt:>8.1}us  (+{:.1}%)",
            q * 100.0,
            (qt / qi - 1.0) * 100.0
        );
    }
    println!("(heavier tail, same region — the Fig. 7b observation that lets\n Concordia keep the offline tree and only refresh leaf buffers online)");

    let most_distorted_leaf = worst.leaf;
    write_json(
        "fig07_leaf_distributions",
        &Fig7Results {
            n_leaves,
            global_variance: gvar,
            within_leaf_variance: wvar,
            ks_statistic: ks.statistic,
            ks_p_value: ks.p_value,
            leaves,
            most_distorted_leaf,
        },
    );
}
