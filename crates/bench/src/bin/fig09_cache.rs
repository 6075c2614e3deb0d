//! Fig. 9 — latency effects of cache interference from a collocated
//! workload (Redis) for 2 × 100 MHz cells (§6.2).
//!
//! Paper claims reproduced here: vanilla FlexRAN suffers ~+25 % stall
//! cycles per instruction (and ~+15 % L1 misses, ~+20 % LLC loads) under
//! Redis relative to the isolated baseline, while Concordia limits the
//! increase to < 2 % — because it holds a small stable core set whose
//! caches stay warm, instead of churning cores through yield/reacquire.

use concordia_bench::{banner, write_json, RunLength};
use concordia_core::{run_experiment, Colocation, SchedulerChoice, SimConfig};
use concordia_platform::cache::{L1_MISS_PER_STALL, LLC_LOADS_PER_STALL};
use concordia_platform::workloads::WorkloadKind;
use concordia_ran::Nanos;
use serde::Serialize;

#[derive(Serialize)]
struct Fig9Row {
    scheduler: String,
    stall_cycles_pct: f64,
    l1_miss_pct: f64,
    llc_loads_pct: f64,
    wake_events: u64,
}

fn main() {
    let len = RunLength::from_args();
    let seed = concordia_bench::seed_from_args();
    banner(
        "Fig. 9 (cache-interference counters, 2x100MHz cells + Redis)",
        "FlexRAN: ~+25% stall cycles/instr under Redis; Concordia: <+2% (stable warm cores)",
    );

    let mut rows = Vec::new();
    println!(
        "\n{:<12} {:>16} {:>16} {:>16} {:>10}",
        "scheduler", "stalls/instr +%", "L1 miss +%", "LLC loads +%", "wakes"
    );
    for sched in [SchedulerChoice::concordia(), SchedulerChoice::FlexRan] {
        let mut cfg = SimConfig::paper_100mhz();
        cfg.cores = 8; // the paper's Fig. 9/10 experiments use 8 pool cores
        cfg.duration = Nanos::from_secs(len.online_secs());
        cfg.profiling_slots = len.profiling_slots();
        cfg.scheduler = sched;
        cfg.colocation = Colocation::Single(WorkloadKind::Redis);
        cfg.seed = seed;
        let r = run_experiment(cfg);
        // The counter model reports the stall increase; L1/LLC move
        // proportionally.
        let stall = r.metrics.stall_cycles_pct;
        let row = Fig9Row {
            scheduler: r.scheduler.clone(),
            stall_cycles_pct: stall,
            l1_miss_pct: stall * L1_MISS_PER_STALL,
            llc_loads_pct: stall * LLC_LOADS_PER_STALL,
            wake_events: r.metrics.wake_events,
        };
        println!(
            "{:<12} {:>16.1} {:>16.1} {:>16.1} {:>10}",
            row.scheduler,
            row.stall_cycles_pct,
            row.l1_miss_pct,
            row.llc_loads_pct,
            row.wake_events
        );
        rows.push(row);
    }

    let flex = rows.iter().find(|r| r.scheduler == "flexran").unwrap();
    let conc = rows.iter().find(|r| r.scheduler == "concordia").unwrap();
    println!(
        "\nratio: FlexRAN suffers {:.1}x the stall-cycle increase of Concordia",
        flex.stall_cycles_pct / conc.stall_cycles_pct.max(0.01)
    );

    write_json("fig09_cache", &rows);
}
