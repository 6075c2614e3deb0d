//! Cell configuration: the two evaluation deployments of the paper plus the
//! motivation-scenario configs of Fig. 4a.

use crate::numerology::{Duplex, Numerology};
use crate::time::Nanos;
use serde::{Deserialize, Serialize};

/// RAN generation: selects the channel-coding family (Appendix A.1 — 4G
/// uses Turbo codes, 5G uses LDPC for data and Polar for control).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RanGeneration {
    /// 4G LTE (Turbo coding).
    Lte,
    /// 5G NR (LDPC + Polar).
    Nr,
}

/// The longest DAG deadline a cell may have: the CLI, reconfiguration
/// plans and repro artifacts refuse longer ones. The longest deadline any
/// configuration in the repository runs is 2 ms. A sliced scenario scales
/// a deadline by up to 2, and the simulation drains for one deadline past
/// its run, so a run of `concordia_core::config::MAX_DURATION` plus twice
/// this still fits the nanosecond clock with room to spare.
pub const MAX_DEADLINE: Nanos = Nanos::from_secs(1);

/// Static configuration of one vRAN cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellConfig {
    /// Channel bandwidth in MHz.
    pub bandwidth_mhz: u32,
    /// 5G NR numerology (sets slot duration).
    pub numerology: Numerology,
    /// Duplexing scheme / slot pattern.
    pub duplex: Duplex,
    /// Physical resource blocks available per slot (from TS 38.101 tables).
    pub prbs: u32,
    /// Number of receive/transmit antenna ports.
    pub antennas: u32,
    /// Maximum MIMO layers per UE.
    pub max_layers: u32,
    /// Maximum simultaneously scheduled UEs per slot.
    pub max_ues: u32,
    /// Peak downlink cell throughput in Mbps (Table 2 of the paper).
    pub peak_dl_mbps: f64,
    /// Peak uplink cell throughput in Mbps (Table 2 of the paper).
    pub peak_ul_mbps: f64,
    /// Slot-processing (DAG) deadline for this configuration.
    pub deadline: Nanos,
    /// RAN generation (4G Turbo vs 5G LDPC coding).
    pub generation: RanGeneration,
}

impl CellConfig {
    /// The paper's 100 MHz TDD configuration (Table 1/2): 2 cells,
    /// numerology 1, 1.5 Gbps peak DL / 160 Mbps peak UL, 1.5 ms deadline.
    pub fn tdd_100mhz() -> CellConfig {
        CellConfig {
            bandwidth_mhz: 100,
            numerology: Numerology::MU1,
            duplex: Duplex::TddDddsu,
            prbs: 273,
            antennas: 4,
            max_layers: 4,
            max_ues: 16,
            peak_dl_mbps: 1500.0,
            peak_ul_mbps: 160.0,
            deadline: Nanos::from_micros(1500),
            generation: RanGeneration::Nr,
        }
    }

    /// The paper's 20 MHz FDD configuration (Table 1/2): 7 cells,
    /// numerology 0, 380 Mbps peak DL / 160 Mbps peak UL, 2 ms deadline.
    pub fn fdd_20mhz() -> CellConfig {
        CellConfig {
            bandwidth_mhz: 20,
            numerology: Numerology::MU0,
            duplex: Duplex::Fdd,
            prbs: 106,
            antennas: 4,
            max_layers: 4,
            max_ues: 16,
            peak_dl_mbps: 380.0,
            peak_ul_mbps: 160.0,
            deadline: Nanos::from_millis(2),
            generation: RanGeneration::Nr,
        }
    }

    /// The "UL only (3 cells)" motivation configuration of Fig. 4a: the
    /// §2.2 measurements are LTE cells, so these use Turbo coding.
    pub fn ul_only_20mhz() -> CellConfig {
        CellConfig {
            duplex: Duplex::UplinkOnly,
            peak_dl_mbps: 0.0,
            generation: RanGeneration::Lte,
            ..Self::fdd_20mhz()
        }
    }

    /// A full LTE 20 MHz FDD cell (Turbo coding, 1 ms TTIs) — the 4G side
    /// of the FlexRAN reference implementation the paper builds on.
    pub fn lte_20mhz() -> CellConfig {
        CellConfig {
            generation: RanGeneration::Lte,
            peak_dl_mbps: 150.0,
            peak_ul_mbps: 75.0,
            max_layers: 2,
            antennas: 2,
            prbs: 100,
            ..Self::fdd_20mhz()
        }
    }

    /// Slot (TTI) duration for this cell.
    pub fn slot_duration(&self) -> Nanos {
        self.numerology.slot_duration()
    }

    /// Instantiates this configuration as cell `id` of a pooled deployment
    /// of `n_cells`, with the deployment's default phase stagger.
    pub fn instance(&self, id: u32, n_cells: u32) -> CellInstance {
        CellInstance::staggered(id, n_cells, *self)
    }

    /// Peak bytes deliverable in one downlink slot.
    pub fn peak_dl_bytes_per_slot(&self) -> f64 {
        let slot_s = self.slot_duration().as_nanos() as f64 / 1e9;
        // TDD concentrates the advertised cell throughput into the DL slots.
        let dl_frac = self.duplex.downlink_slot_fraction();
        if dl_frac == 0.0 {
            0.0
        } else {
            self.peak_dl_mbps * 1e6 / 8.0 * slot_s / dl_frac
        }
    }

    /// Peak bytes deliverable in one uplink slot.
    pub fn peak_ul_bytes_per_slot(&self) -> f64 {
        let slot_s = self.slot_duration().as_nanos() as f64 / 1e9;
        let ul_frac = self.duplex.uplink_slot_fraction();
        if ul_frac == 0.0 {
            0.0
        } else {
            self.peak_ul_mbps * 1e6 / 8.0 * slot_s / ul_frac
        }
    }
}

/// One concrete cell of a pooled deployment: a [`CellConfig`] plus the
/// per-cell identity the multi-cell simulator needs — a stable `id` (the
/// `cell_id` every DAG, observation, metric bucket and trace record is
/// tagged with) and a slot-phase offset.
///
/// Real co-located cells are not slot-synchronous: their frame timing is
/// set per carrier, so their slot boundaries (and hence their compute
/// bursts) interleave rather than coincide. The staggered constructor
/// spreads the `C` cells' boundaries evenly across one slot, which is what
/// lets a shared worker pool absorb the per-slot peaks of many cells with
/// fewer cores than `C` aligned copies would need (paper §2, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellInstance {
    /// Stable cell identity within the deployment.
    pub id: u32,
    /// Radio configuration of this cell.
    pub config: CellConfig,
    /// Offset of this cell's slot boundaries from the deployment epoch;
    /// always less than the cell's slot duration.
    pub phase: Nanos,
    /// Runtime lifecycle state (live reconfiguration).
    pub lifecycle: CellLifecycle,
}

/// Runtime lifecycle of a pooled cell. Cells are added to and removed from
/// a live deployment by the reconfiguration engine; removal is a two-step
/// drain (stop releasing new slot DAGs, let in-flight work finish) so no
/// task is ever lost at the transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CellLifecycle {
    /// Releasing a slot DAG at every slot boundary.
    #[default]
    Active,
    /// No longer releasing new DAGs; in-flight DAGs are flushing. The cell
    /// keeps its id (and metric buckets) and can be resumed.
    Draining,
}

impl CellInstance {
    /// A cell whose slot boundaries sit exactly on the deployment epoch
    /// (phase 0) — the legacy single-clock behaviour.
    pub fn aligned(id: u32, config: CellConfig) -> CellInstance {
        CellInstance {
            id,
            config,
            phase: Nanos::ZERO,
            lifecycle: CellLifecycle::Active,
        }
    }

    /// Cell `id` of `n_cells`, with its slot boundaries offset by
    /// `id / n_cells` of a slot so the deployment's boundaries interleave
    /// evenly. Cell 0 always has phase 0.
    pub fn staggered(id: u32, n_cells: u32, config: CellConfig) -> CellInstance {
        let n = n_cells.max(1) as u64;
        let phase = Nanos(config.slot_duration().as_nanos() * (id as u64 % n) / n);
        CellInstance {
            id,
            config,
            phase,
            lifecycle: CellLifecycle::Active,
        }
    }

    /// Stop releasing new slot DAGs; in-flight DAGs keep running.
    pub fn begin_drain(&mut self) {
        self.lifecycle = CellLifecycle::Draining;
    }

    /// Re-activate a draining cell (rollback of a `DrainCell` step, or
    /// re-use of a previously drained slot by `AddCell`).
    pub fn resume(&mut self) {
        self.lifecycle = CellLifecycle::Active;
    }

    /// Whether this cell releases a DAG at its next slot boundary.
    pub fn is_active(&self) -> bool {
        self.lifecycle == CellLifecycle::Active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_table1() {
        let c100 = CellConfig::tdd_100mhz();
        assert_eq!(c100.bandwidth_mhz, 100);
        assert_eq!(c100.deadline, Nanos::from_micros(1500));
        assert_eq!(c100.slot_duration(), Nanos::from_micros(500));

        let c20 = CellConfig::fdd_20mhz();
        assert_eq!(c20.bandwidth_mhz, 20);
        assert_eq!(c20.deadline, Nanos::from_millis(2));
        assert_eq!(c20.slot_duration(), Nanos::from_millis(1));
    }

    #[test]
    fn peak_slot_bytes_are_consistent_with_throughput() {
        let c20 = CellConfig::fdd_20mhz();
        // 160 Mbps UL over 1 ms slots, FDD: 20 KB per slot.
        let ul = c20.peak_ul_bytes_per_slot();
        assert!((ul - 20_000.0).abs() < 1.0, "ul={ul}");

        let c100 = CellConfig::tdd_100mhz();
        // 160 Mbps UL over 0.5 ms slots with only 20% UL slots:
        // 160e6/8 * 0.0005 / 0.2 = 50 KB per UL slot.
        let ul100 = c100.peak_ul_bytes_per_slot();
        assert!((ul100 - 50_000.0).abs() < 1.0, "ul100={ul100}");
        // 1.5 Gbps DL over 0.5 ms with 80% DL slots: ~117 KB per DL slot.
        let dl100 = c100.peak_dl_bytes_per_slot();
        assert!((dl100 - 117_187.5).abs() < 1.0, "dl100={dl100}");
    }

    #[test]
    fn lte_cell_uses_turbo_generation() {
        assert_eq!(CellConfig::lte_20mhz().generation, RanGeneration::Lte);
        assert_eq!(CellConfig::ul_only_20mhz().generation, RanGeneration::Lte);
        assert_eq!(CellConfig::fdd_20mhz().generation, RanGeneration::Nr);
    }

    #[test]
    fn ul_only_has_no_downlink() {
        let c = CellConfig::ul_only_20mhz();
        assert_eq!(c.peak_dl_bytes_per_slot(), 0.0);
        assert!(c.peak_ul_bytes_per_slot() > 0.0);
    }

    #[test]
    fn cell_zero_has_zero_phase() {
        let cfg = CellConfig::fdd_20mhz();
        for n in 1..=8 {
            assert_eq!(cfg.instance(0, n).phase, Nanos::ZERO);
        }
    }

    #[test]
    fn staggered_phases_interleave_within_one_slot() {
        let cfg = CellConfig::tdd_100mhz();
        let slot = cfg.slot_duration();
        let n = 4;
        let phases: Vec<Nanos> = (0..n).map(|id| cfg.instance(id, n).phase).collect();
        for w in phases.windows(2) {
            assert!(w[0] < w[1], "phases must be strictly increasing");
        }
        for p in &phases {
            assert!(*p < slot, "phase {p} must stay inside one slot ({slot})");
        }
        // Even spread: cell k sits at k/n of a slot.
        assert_eq!(phases[2], Nanos(slot.as_nanos() / 2));
    }

    #[test]
    fn single_cell_stagger_is_aligned() {
        let cfg = CellConfig::fdd_20mhz();
        assert_eq!(
            CellInstance::staggered(0, 1, cfg),
            CellInstance::aligned(0, cfg)
        );
    }

    #[test]
    fn lifecycle_drain_and_resume() {
        let mut cell = CellConfig::fdd_20mhz().instance(1, 4);
        assert!(cell.is_active());
        cell.begin_drain();
        assert_eq!(cell.lifecycle, CellLifecycle::Draining);
        assert!(!cell.is_active());
        cell.resume();
        assert!(cell.is_active());
    }
}
