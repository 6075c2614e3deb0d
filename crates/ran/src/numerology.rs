//! 5G NR numerology and duplexing patterns.
//!
//! In 5G NR (3GPP TS 38.211), the subcarrier spacing is `15 kHz × 2^µ` and
//! a slot lasts `1 ms / 2^µ`. The paper's two evaluation configurations
//! (Table 1) use:
//!
//! * 20 MHz FDD cells — numerology 0 (15 kHz SCS, 1 ms slots);
//! * 100 MHz TDD cells — numerology 1 (30 kHz SCS, 0.5 ms slots) with a
//!   DDDSU-style slot pattern, which is the common mid-band deployment.

use crate::time::Nanos;
use serde::{Deserialize, Serialize};

/// 5G NR numerology µ ∈ {0, 1, 2, 3}.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Numerology(pub u8);

impl Numerology {
    /// 15 kHz SCS, 1 ms slots (LTE-compatible; used for 20 MHz FDD).
    pub const MU0: Numerology = Numerology(0);
    /// 30 kHz SCS, 0.5 ms slots (typical 100 MHz mid-band TDD).
    pub const MU1: Numerology = Numerology(1);
    /// 60 kHz SCS, 0.25 ms slots.
    pub const MU2: Numerology = Numerology(2);
    /// 120 kHz SCS, 125 µs slots (mmWave).
    pub const MU3: Numerology = Numerology(3);

    /// Subcarrier spacing in kHz.
    pub fn scs_khz(self) -> u32 {
        15 << self.0
    }

    /// Slot (TTI) duration.
    pub fn slot_duration(self) -> Nanos {
        Nanos(1_000_000 >> self.0)
    }

    /// OFDM symbols per slot (normal cyclic prefix).
    pub fn symbols_per_slot(self) -> u32 {
        14
    }
}

/// Direction of a transmission slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SlotDirection {
    /// Downlink slot (gNB → UE).
    Downlink,
    /// Uplink slot (UE → gNB).
    Uplink,
    /// Special/flexible slot: mostly DL symbols plus guard and a few UL.
    Special,
}

/// Duplexing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Duplex {
    /// Frequency-division duplex: every slot carries both UL and DL.
    Fdd,
    /// Time-division duplex with the standard 5-slot DDDSU pattern
    /// (3 downlink, 1 special, 1 uplink).
    TddDddsu,
    /// Uplink-only processing (the paper's "UL only (3 cells)" motivation
    /// scenario of Fig. 4a processes only uplink workloads).
    UplinkOnly,
}

impl Duplex {
    /// Directions active in slot number `slot_idx` (0-based, pattern-cyclic).
    ///
    /// FDD returns both `Downlink` and `Uplink`; TDD returns the single
    /// direction the pattern assigns.
    pub fn directions(self, slot_idx: u64) -> &'static [SlotDirection] {
        match self {
            Duplex::Fdd => &[SlotDirection::Downlink, SlotDirection::Uplink],
            Duplex::UplinkOnly => &[SlotDirection::Uplink],
            Duplex::TddDddsu => match slot_idx % 5 {
                0..=2 => &[SlotDirection::Downlink],
                3 => &[SlotDirection::Special],
                _ => &[SlotDirection::Uplink],
            },
        }
    }

    /// Fraction of slots carrying uplink data (special slots count as a
    /// small uplink fraction in DDDSU; we treat special as DL-dominated and
    /// exclude it here).
    pub fn uplink_slot_fraction(self) -> f64 {
        match self {
            Duplex::Fdd => 1.0,
            Duplex::UplinkOnly => 1.0,
            Duplex::TddDddsu => 0.2,
        }
    }

    /// Fraction of slots carrying downlink data.
    pub fn downlink_slot_fraction(self) -> f64 {
        match self {
            Duplex::Fdd => 1.0,
            Duplex::UplinkOnly => 0.0,
            // 3 full DL slots + the DL-dominated special slot.
            Duplex::TddDddsu => 0.8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scs_and_slot_durations_match_38211() {
        assert_eq!(Numerology::MU0.scs_khz(), 15);
        assert_eq!(Numerology::MU1.scs_khz(), 30);
        assert_eq!(Numerology::MU2.scs_khz(), 60);
        assert_eq!(Numerology::MU3.scs_khz(), 120);
        assert_eq!(Numerology::MU0.slot_duration(), Nanos::from_millis(1));
        assert_eq!(Numerology::MU1.slot_duration(), Nanos::from_micros(500));
        assert_eq!(Numerology::MU3.slot_duration(), Nanos::from_micros(125));
    }

    #[test]
    fn slot_duration_range_matches_paper_claim() {
        // §2.1: "a slot can last between 62.5us and 1ms". MU3 is 125 µs;
        // 62.5 µs would be µ=4 which NR defines for SSB only — our supported
        // range covers the evaluation configs (1 ms and 0.5 ms).
        assert!(Numerology::MU0.slot_duration() <= Nanos::from_millis(1));
        assert!(Numerology::MU3.slot_duration() >= Nanos::from_micros(62));
    }

    #[test]
    fn dddsu_pattern_cycles() {
        let d = Duplex::TddDddsu;
        assert_eq!(d.directions(0), &[SlotDirection::Downlink]);
        assert_eq!(d.directions(2), &[SlotDirection::Downlink]);
        assert_eq!(d.directions(3), &[SlotDirection::Special]);
        assert_eq!(d.directions(4), &[SlotDirection::Uplink]);
        assert_eq!(d.directions(5), &[SlotDirection::Downlink]);
        assert_eq!(d.directions(9), &[SlotDirection::Uplink]);
    }

    #[test]
    fn fdd_has_both_directions_every_slot() {
        for i in 0..10 {
            let dirs = Duplex::Fdd.directions(i);
            assert!(dirs.contains(&SlotDirection::Downlink));
            assert!(dirs.contains(&SlotDirection::Uplink));
        }
    }

    #[test]
    fn slot_fractions_sum_sensibly() {
        assert_eq!(Duplex::TddDddsu.uplink_slot_fraction(), 0.2);
        assert_eq!(Duplex::TddDddsu.downlink_slot_fraction(), 0.8);
        assert_eq!(Duplex::UplinkOnly.downlink_slot_fraction(), 0.0);
    }

    #[test]
    fn symbols_per_slot_is_fourteen() {
        assert_eq!(Numerology::MU1.symbols_per_slot(), 14);
    }
}
