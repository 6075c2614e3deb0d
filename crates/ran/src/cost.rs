//! Calibrated task-runtime cost model.
//!
//! This module stands in for FlexRAN's actual signal-processing kernels: for
//! every [`TaskKind`] it produces runtimes whose dependence on the task
//! parameters reproduces the paper's measurements:
//!
//! * runtime grows **linearly with codeblock count** (Fig. 6a);
//! * spreading work over more pool cores inflates runtimes **non-linearly,
//!   by up to ~25 %**, through memory stalls (Fig. 6a/6b, §4.1 challenge 1);
//! * decode cost depends **piecewise-linearly on the SNR margin** over the
//!   MCS requirement, through the LDPC iteration count (§4.1, [5, 12, 89]);
//! * the per-task share of slot processing time matches **Table 5**
//!   (decode > 60 % of UL, encode > 40 % of DL, …);
//! * execution noise is lognormal-bodied; *interference* from collocated
//!   workloads stretches the memory-bound fraction of each task
//!   (heavier-tailed, same-region distributions — Fig. 7b), driven by an
//!   explicit interference factor supplied by the platform simulator.
//!
//! Absolute microsecond values are calibrated so that the paper's deployment
//! envelopes hold in the end-to-end simulator (e.g. the Table 2 minimum core
//! counts); they are not claimed to match the authors' Xeon 8168 cycle-for-
//! cycle (see DESIGN.md §1).

use crate::task::{TaskKind, TaskParams};
use crate::time::Nanos;
use concordia_stats::rng::Rng;
use serde::{Deserialize, Serialize};

/// LDPC iteration bounds.
pub const MIN_DECODE_ITERS: f64 = 3.0;
/// Maximum LDPC iterations before the decoder gives up (§A.1: iterative
/// decoding stops at success or at a threshold).
pub const MAX_DECODE_ITERS: f64 = 12.0;

// Calibration constants of the cost model. All `*_US` values are
// microseconds; `PER_BIT` values are microseconds per bit.

/// Fixed dispatch/setup cost added to every task.
const TASK_BASE_US: f64 = 1.0;
/// LDPC decode: cost per codeblock per iteration at 8448 bits.
const DECODE_PER_CB_ITER_US: f64 = 2.3;
/// LDPC decode: per-codeblock setup cost.
const DECODE_CB_BASE_US: f64 = 2.6;
/// LDPC encode: per-codeblock cost.
const ENCODE_PER_CB_US: f64 = 3.0;
/// Channel estimation: per PRB per antenna.
const CHANEST_PER_PRB_ANT_US: f64 = 0.08;
/// Equalization: per PRB per layer².
const EQUALIZATION_PER_PRB_LAYER2_US: f64 = 0.012;
/// Demodulation: per transport bit (scaled by modulation order / 6).
const DEMOD_PER_BIT_US: f64 = 0.000_16;
/// Descrambling: per transport bit.
const DESCRAMBLE_PER_BIT_US: f64 = 0.000_05;
/// Rate dematching: per *coded* bit (transport bits / code rate).
const DEMATCH_PER_CODED_BIT_US: f64 = 0.000_08;
/// CRC check/attach: per transport bit.
const CRC_PER_BIT_US: f64 = 0.000_02;
/// FFT/iFFT: per symbol per PRB per antenna.
const FFT_PER_SYM_PRB_ANT_US: f64 = 0.005;
/// Polar code control processing: fixed.
const POLAR_FIXED_US: f64 = 7.0;
/// Rate matching (DL): per transport bit.
const RATEMATCH_PER_BIT_US: f64 = 0.000_05;
/// Scrambling (DL): per transport bit.
const SCRAMBLE_PER_BIT_US: f64 = 0.000_03;
/// Modulation mapping: per transport bit (scaled by mod order / 6).
const MODULATION_PER_BIT_US: f64 = 0.000_10;
/// Precoding: per PRB per layer per antenna.
const PRECODING_PER_PRB_LAYER_ANT_US: f64 = 0.030;
/// Turbo decode (LTE): per-codeblock per-iteration cost at 6144 bits.
/// Turbo decoding is costlier per bit than LDPC (§A.1; serial MAP
/// half-iterations).
const TURBO_PER_CB_ITER_US: f64 = 2.9;
/// Turbo decode: per-codeblock setup cost.
const TURBO_CB_BASE_US: f64 = 2.0;
/// Turbo encode (LTE): per-codeblock cost.
const TURBO_ENCODE_PER_CB_US: f64 = 2.2;
/// MAC scheduling: cost per UE per antenna-normalized PRB log factor
/// (§7: Massive MIMO makes the user-to-antenna mapping expensive).
const MAC_PER_UE_US: f64 = 1.1;
/// MAC scheduling: fixed slot cost.
const MAC_BASE_US: f64 = 3.0;
/// Multi-core memory-stall coefficient: as the pool widens, inflation
/// approaches `1 + MULTICORE_STALL_COEFF` (Fig. 6a shows up to ~25 %).
const MULTICORE_STALL_COEFF: f64 = 0.27;
/// Lognormal sigma of the execution-noise body.
const NOISE_SIGMA: f64 = 0.045;
/// Probability of an intrinsic tail event (TLB miss burst, SMI, …) even
/// in isolation.
const TAIL_PROB: f64 = 0.002;
/// Multiplier range of intrinsic tail events.
const TAIL_SCALE: f64 = 0.6;

/// The task cost model: deterministic expected costs plus stochastic
/// sampling with interference.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Pramanik-style per-platform compute scale: every task cost is
    /// multiplied by this factor. `None` is the calibration platform (the
    /// paper's Xeon 8168, scale 1.0) and leaves costs bit-identical —
    /// existing goldens and serialized models are unaffected.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub platform_scale: Option<f64>,
}

impl CostModel {
    /// Creates the model of the calibration platform.
    pub fn new() -> Self {
        Self::default()
    }

    /// A model whose task costs are scaled by `scale` relative to the
    /// Xeon 8168 calibration (Pramanik-style platform transfer). A scale
    /// of exactly 1.0 degrades to the unscaled reference model.
    pub fn for_platform_scale(scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "bad platform scale {scale}"
        );
        CostModel {
            platform_scale: if scale == 1.0 { None } else { Some(scale) },
        }
    }

    /// Expected LDPC iteration count given the SNR margin over the MCS
    /// requirement — the piecewise-linear link-adaptation effect of §4.1.
    ///
    /// * margin ≥ 6 dB: floor of ~4.5 iterations;
    /// * 0–6 dB: rises linearly as the channel tightens;
    /// * < 0 dB (operating below requirement): climbs steeply toward the
    ///   iteration cap.
    pub fn expected_decode_iters(&self, snr_db: f64, required_snr_db: f64) -> f64 {
        let margin = snr_db - required_snr_db;
        let iters = if margin >= 6.0 {
            4.5
        } else if margin >= 0.0 {
            4.5 + (6.0 - margin) * 0.55
        } else {
            7.8 + (-margin) * 1.4
        };
        iters.clamp(MIN_DECODE_ITERS, MAX_DECODE_ITERS)
    }

    /// Multi-core memory-stall inflation factor for a pool of `cores`
    /// workers: 1.0 on a single core, saturating toward
    /// `1 + MULTICORE_STALL_COEFF` for wide pools (Fig. 6a/6b).
    ///
    /// Only memory-bound task kinds are affected (see
    /// [`CostModel::memory_bound_fraction`]); the caller applies the factor
    /// to that fraction of the cost.
    pub fn multicore_factor(&self, cores: u32) -> f64 {
        let c = cores.max(1) as f64;
        1.0 + MULTICORE_STALL_COEFF * (1.0 - 1.0 / c)
    }

    /// Fraction of a task's cost that is memory-bound — the share that
    /// interference (cache pollution from collocated workloads) and
    /// multi-core spreading can stretch.
    pub fn memory_bound_fraction(&self, kind: TaskKind) -> f64 {
        match kind {
            TaskKind::LdpcDecode => 0.45,
            TaskKind::LdpcEncode => 0.35,
            TaskKind::RateDematch | TaskKind::RateMatch => 0.50,
            TaskKind::ChannelEstimation => 0.40,
            TaskKind::Equalization => 0.35,
            TaskKind::Demodulation | TaskKind::Modulation => 0.30,
            TaskKind::Fft | TaskKind::Ifft => 0.30,
            TaskKind::Descrambling | TaskKind::Scrambling => 0.45,
            TaskKind::CrcCheck | TaskKind::CrcAttach => 0.25,
            TaskKind::PolarDecode | TaskKind::PolarEncode => 0.25,
            TaskKind::Precoding => 0.35,
            TaskKind::TurboDecode => 0.45,
            TaskKind::TurboEncode => 0.35,
            TaskKind::MacScheduling => 0.30,
        }
    }

    /// Deterministic *expected* cost of a task on an otherwise idle single
    /// core (no noise, no interference, expected iteration count).
    pub fn expected_cost(&self, kind: TaskKind, p: &TaskParams) -> Nanos {
        Nanos::from_micros_f64(self.base_cost_us(kind, p, None))
    }

    /// Base cost in µs. When `rng` is provided, the decode iteration count
    /// is sampled (geometric-ish spread around the expectation) instead of
    /// using the expectation, capturing per-codeword decoding variance.
    fn base_cost_us(&self, kind: TaskKind, p: &TaskParams, rng: Option<&mut Rng>) -> f64 {
        let mod_factor = p.modulation_order as f64 / 6.0;
        let us = match kind {
            TaskKind::LdpcDecode => {
                let req = crate::transport::Mcs::from_index(p.mcs_index).required_snr_db();
                let mut iters = self.expected_decode_iters(p.snr_db, req);
                if let Some(rng) = rng {
                    // Per-codeword spread: some codewords converge early,
                    // some hit the cap. Skewed right.
                    let jitter = rng.normal() * 0.9 + rng.exponential(0.5);
                    iters = (iters + jitter).clamp(MIN_DECODE_ITERS, MAX_DECODE_ITERS);
                }
                let bits_scale = p.cb_bits as f64 / crate::transport::BG1_MAX_CB_BITS as f64;
                p.n_cbs as f64
                    * (DECODE_CB_BASE_US + DECODE_PER_CB_ITER_US * iters)
                    * bits_scale.max(0.1)
            }
            TaskKind::LdpcEncode => {
                let bits_scale = p.cb_bits as f64 / crate::transport::BG1_MAX_CB_BITS as f64;
                p.n_cbs as f64 * ENCODE_PER_CB_US * bits_scale.max(0.1)
            }
            TaskKind::ChannelEstimation => {
                CHANEST_PER_PRB_ANT_US * p.prbs as f64 * p.antennas as f64
            }
            TaskKind::Equalization => {
                EQUALIZATION_PER_PRB_LAYER2_US * p.prbs as f64 * (p.layers as f64).powi(2).max(1.0)
            }
            TaskKind::Demodulation => DEMOD_PER_BIT_US * p.tb_bits as f64 * mod_factor,
            TaskKind::Descrambling => DESCRAMBLE_PER_BIT_US * p.tb_bits as f64,
            TaskKind::RateDematch => {
                let coded_bits = p.tb_bits as f64 / p.code_rate.max(0.05);
                DEMATCH_PER_CODED_BIT_US * coded_bits
            }
            TaskKind::CrcCheck | TaskKind::CrcAttach => CRC_PER_BIT_US * p.tb_bits as f64,
            TaskKind::Fft | TaskKind::Ifft => {
                FFT_PER_SYM_PRB_ANT_US * p.symbols as f64 * p.prbs as f64 * p.antennas as f64
            }
            TaskKind::PolarDecode | TaskKind::PolarEncode => POLAR_FIXED_US,
            TaskKind::RateMatch => RATEMATCH_PER_BIT_US * p.tb_bits as f64,
            TaskKind::Scrambling => SCRAMBLE_PER_BIT_US * p.tb_bits as f64,
            TaskKind::Modulation => MODULATION_PER_BIT_US * p.tb_bits as f64 * mod_factor,
            TaskKind::Precoding => {
                PRECODING_PER_PRB_LAYER_ANT_US * p.prbs as f64 * p.layers as f64 * p.antennas as f64
            }
            TaskKind::TurboDecode => {
                let req = crate::transport::Mcs::from_index(p.mcs_index).required_snr_db();
                let mut iters = self.expected_decode_iters(p.snr_db, req);
                if let Some(rng) = rng {
                    let jitter = rng.normal() * 0.9 + rng.exponential(0.5);
                    iters = (iters + jitter).clamp(MIN_DECODE_ITERS, MAX_DECODE_ITERS);
                }
                let bits_scale = p.cb_bits as f64 / crate::transport::LTE_MAX_CB_BITS as f64;
                p.n_cbs as f64
                    * (TURBO_CB_BASE_US + TURBO_PER_CB_ITER_US * iters)
                    * bits_scale.max(0.1)
            }
            TaskKind::TurboEncode => {
                let bits_scale = p.cb_bits as f64 / crate::transport::LTE_MAX_CB_BITS as f64;
                p.n_cbs as f64 * TURBO_ENCODE_PER_CB_US * bits_scale.max(0.1)
            }
            TaskKind::MacScheduling => {
                // §7: scheduling complexity fluctuates with scheduled users
                // and the antenna mapping (Massive MIMO).
                let antenna_factor = (p.antennas as f64 / 4.0).max(0.5);
                let prb_log = (p.prbs.max(2) as f64).log2();
                MAC_BASE_US + MAC_PER_UE_US * p.n_ues_slot as f64 * antenna_factor * prb_log / 6.0
            }
        };
        let us = TASK_BASE_US + us;
        // Platform transfer multiplies at the very end so every kind scales
        // uniformly; the reference platform takes the untouched path.
        match self.platform_scale {
            Some(s) => us * s,
            None => us,
        }
    }

    /// Samples a runtime for `kind` with parameters `p`.
    ///
    /// `interference` is the cache-pressure inflation factor from the
    /// platform (`1.0` in isolation, `> 1.0` with collocated workloads); it
    /// stretches only the memory-bound fraction of the cost, as does the
    /// multi-core factor derived from `p.pool_cores`.
    pub fn sample_runtime(
        &self,
        kind: TaskKind,
        p: &TaskParams,
        interference: f64,
        rng: &mut Rng,
    ) -> Nanos {
        let base = self.base_cost_us(kind, p, Some(rng));
        let mem_frac = self.memory_bound_fraction(kind);
        let mem_factor = self.multicore_factor(p.pool_cores) * interference.max(1.0);
        let stretched = base * (1.0 - mem_frac) + base * mem_frac * mem_factor;
        // Lognormal body noise.
        let mut us = stretched * rng.lognormal(0.0, NOISE_SIGMA);
        // Rare intrinsic tail events.
        if rng.chance(TAIL_PROB) {
            us *= 1.0 + rng.f64() * TAIL_SCALE;
        }
        Nanos::from_micros_f64(us)
    }

    /// Expected cost including the multi-core factor but no noise or
    /// interference — what an oracle scheduler would budget for the task.
    pub fn expected_cost_on_pool(&self, kind: TaskKind, p: &TaskParams) -> Nanos {
        let base = self.base_cost_us(kind, p, None);
        let mem_frac = self.memory_bound_fraction(kind);
        let f = self.multicore_factor(p.pool_cores);
        Nanos::from_micros_f64(base * (1.0 - mem_frac) + base * mem_frac * f)
    }

    /// Modeled memory stalls per cycle for an LDPC decode workload — the
    /// Fig. 6b companion metric: grows with pool width and codeblock count.
    pub fn memory_stalls_per_cycle(&self, n_cbs: u32, cores: u32) -> f64 {
        let spread = 1.0 - 1.0 / cores.max(1) as f64;
        let cb_load = (n_cbs as f64 / 15.0).min(1.0);
        0.02 + 0.28 * spread * (0.3 + 0.7 * cb_load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Mcs;

    fn decode_params(n_cbs: u32, pool_cores: u32, snr_db: f64, mcs: u8) -> TaskParams {
        TaskParams {
            n_cbs,
            cb_bits: 8448,
            tb_bits: n_cbs * 8448,
            mcs_index: mcs,
            modulation_order: Mcs::from_index(mcs).modulation_order,
            code_rate: Mcs::from_index(mcs).code_rate,
            snr_db,
            layers: 2,
            prbs: 100,
            pool_cores,
            ..TaskParams::default()
        }
    }

    #[test]
    fn decode_cost_linear_in_codeblocks() {
        // Fig. 6a: runtime depends linearly on the number of codeblocks.
        let m = CostModel::new();
        let c3 = m.expected_cost(TaskKind::LdpcDecode, &decode_params(3, 1, 15.0, 16));
        let c15 = m.expected_cost(TaskKind::LdpcDecode, &decode_params(15, 1, 15.0, 16));
        let per_cb3 = (c3.as_micros_f64() - 1.0) / 3.0;
        let per_cb15 = (c15.as_micros_f64() - 1.0) / 15.0;
        assert!(
            (per_cb3 - per_cb15).abs() / per_cb3 < 0.02,
            "per-CB cost must be constant: {per_cb3} vs {per_cb15}"
        );
    }

    #[test]
    fn multicore_inflation_bounded_at_25_percent() {
        // Fig. 6a: spreading across 4-6 cores can increase WCET by up to 25%.
        let m = CostModel::new();
        let f1 = m.multicore_factor(1);
        let f4 = m.multicore_factor(4);
        let f6 = m.multicore_factor(6);
        assert_eq!(f1, 1.0);
        assert!(f4 > 1.15 && f4 < 1.25, "f4={f4}");
        assert!(f6 > f4 && f6 < 1.27, "f6={f6}");
    }

    #[test]
    fn multicore_effect_is_nonlinear() {
        let m = CostModel::new();
        let d12 = m.multicore_factor(2) - m.multicore_factor(1);
        let d46 = m.multicore_factor(6) - m.multicore_factor(4);
        assert!(d12 > 3.0 * d46, "saturating curve expected");
    }

    #[test]
    fn decode_iterations_piecewise_in_snr_margin() {
        let m = CostModel::new();
        let req = 10.0;
        let comfortable = m.expected_decode_iters(20.0, req);
        let tight = m.expected_decode_iters(11.0, req);
        let below = m.expected_decode_iters(7.0, req);
        assert!(comfortable < tight && tight < below);
        assert_eq!(comfortable, 4.5);
        assert!(below <= MAX_DECODE_ITERS);
        // Steeper below the requirement than above it.
        let slope_above = m.expected_decode_iters(10.0, req) - m.expected_decode_iters(12.0, req);
        let slope_below = m.expected_decode_iters(8.0, req) - m.expected_decode_iters(10.0, req);
        assert!(slope_below > slope_above);
    }

    #[test]
    fn table5_uplink_shares_hold_at_peak() {
        // 100 MHz peak UL slot: ~50 KB => 400k bits => 48 CBs, 8 UEs, 273
        // PRBs, 4 antennas. Decode must be > 60 % of UL time, channel
        // estimation > 8 %, equalization > 5 %, demodulation > 6 %.
        let m = CostModel::new();
        let tb_bits = 400_000u32;
        let mcs = 24u8;
        let mcs_row = Mcs::from_index(mcs);
        let shared = TaskParams {
            tb_bits,
            mcs_index: mcs,
            modulation_order: mcs_row.modulation_order,
            code_rate: mcs_row.code_rate,
            snr_db: mcs_row.required_snr_db() + 8.0,
            layers: 4,
            prbs: 273,
            antennas: 4,
            symbols: 14,
            pool_cores: 1,
            ..TaskParams::default()
        };
        let decode = m
            .expected_cost(
                TaskKind::LdpcDecode,
                &TaskParams {
                    n_cbs: 48,
                    cb_bits: 8448,
                    ..shared
                },
            )
            .as_micros_f64();
        let us = |kind| m.expected_cost(kind, &shared).as_micros_f64();
        let chanest = us(TaskKind::ChannelEstimation);
        let eq = us(TaskKind::Equalization);
        let demod = us(TaskKind::Demodulation);
        let rest = us(TaskKind::Fft)
            + us(TaskKind::Descrambling)
            + us(TaskKind::RateDematch)
            + us(TaskKind::CrcCheck)
            + us(TaskKind::PolarDecode);
        let total = decode + chanest + eq + demod + rest;
        assert!(decode / total > 0.60, "decode share {}", decode / total);
        assert!(chanest / total > 0.08, "chanest share {}", chanest / total);
        assert!(eq / total > 0.04, "eq share {}", eq / total);
        assert!(demod / total > 0.06, "demod share {}", demod / total);
    }

    #[test]
    fn table5_downlink_shares_hold_at_peak() {
        // 100 MHz peak DL slot: ~117 KB => 937k bits => 112 CBs. Encode
        // > 40 %, precoding > 15 %, modulation > 10 %.
        let m = CostModel::new();
        let tb_bits = 937_500u32;
        let mcs = 27u8;
        let row = Mcs::from_index(mcs);
        let shared = TaskParams {
            tb_bits,
            mcs_index: mcs,
            modulation_order: row.modulation_order,
            code_rate: row.code_rate,
            layers: 4,
            prbs: 273,
            antennas: 4,
            symbols: 14,
            pool_cores: 1,
            ..TaskParams::default()
        };
        let encode = m
            .expected_cost(
                TaskKind::LdpcEncode,
                &TaskParams {
                    n_cbs: 112,
                    cb_bits: 8448,
                    ..shared
                },
            )
            .as_micros_f64();
        let us = |kind| m.expected_cost(kind, &shared).as_micros_f64();
        let precode = us(TaskKind::Precoding);
        let modu = us(TaskKind::Modulation);
        let rest = us(TaskKind::CrcAttach)
            + us(TaskKind::RateMatch)
            + us(TaskKind::Scrambling)
            + us(TaskKind::Ifft)
            + us(TaskKind::PolarEncode);
        let total = encode + precode + modu + rest;
        assert!(encode / total > 0.40, "encode share {}", encode / total);
        assert!(precode / total > 0.15, "precode share {}", precode / total);
        assert!(modu / total > 0.10, "mod share {}", modu / total);
    }

    #[test]
    fn interference_stretches_only_memory_bound_share() {
        let m = CostModel::new();
        let p = decode_params(6, 1, 25.0, 16);
        let base = m.expected_cost(TaskKind::LdpcDecode, &p).as_micros_f64();
        // With interference factor 1.5, only ~45% of decode cost stretches:
        // expect ~1 + 0.45*0.5 = 1.225x on average.
        let mut rng = Rng::new(77);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| {
                m.sample_runtime(TaskKind::LdpcDecode, &p, 1.5, &mut rng)
                    .as_micros_f64()
            })
            .sum::<f64>()
            / n as f64;
        let ratio = mean / base;
        assert!(ratio > 1.12 && ratio < 1.35, "ratio {ratio}");
    }

    #[test]
    fn isolated_samples_center_on_expected_cost() {
        let m = CostModel::new();
        let p = decode_params(10, 1, 25.0, 16);
        let exp = m.expected_cost(TaskKind::LdpcDecode, &p).as_micros_f64();
        let mut rng = Rng::new(78);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| {
                m.sample_runtime(TaskKind::LdpcDecode, &p, 1.0, &mut rng)
                    .as_micros_f64()
            })
            .sum::<f64>()
            / n as f64;
        assert!((mean / exp - 1.0).abs() < 0.10, "mean {mean} exp {exp}");
    }

    #[test]
    fn interference_makes_distribution_ks_distinguishable() {
        // §4.1 challenge 2: KS test on isolated vs interfered runtimes gives
        // p << 0.001.
        let m = CostModel::new();
        let p = decode_params(6, 4, 18.0, 16);
        let mut rng = Rng::new(79);
        let iso: Vec<f64> = (0..3000)
            .map(|_| {
                m.sample_runtime(TaskKind::LdpcDecode, &p, 1.0, &mut rng)
                    .as_micros_f64()
            })
            .collect();
        let interfered: Vec<f64> = (0..3000)
            .map(|_| {
                m.sample_runtime(TaskKind::LdpcDecode, &p, 1.25, &mut rng)
                    .as_micros_f64()
            })
            .collect();
        let ks = concordia_stats::ks_two_sample(&iso, &interfered);
        assert!(ks.p_value < 0.001, "p={}", ks.p_value);
    }

    #[test]
    fn memory_stalls_grow_with_cores_and_load() {
        // Fig. 6b: stalls/cycle grow with pool width and codeblock count.
        let m = CostModel::new();
        assert!(m.memory_stalls_per_cycle(15, 6) > m.memory_stalls_per_cycle(15, 4));
        assert!(m.memory_stalls_per_cycle(15, 4) > m.memory_stalls_per_cycle(15, 1));
        assert!(m.memory_stalls_per_cycle(15, 6) > m.memory_stalls_per_cycle(3, 6));
        assert!(m.memory_stalls_per_cycle(15, 6) < 0.35);
    }

    #[test]
    fn every_kind_has_positive_cost_and_valid_mem_fraction() {
        let m = CostModel::new();
        let p = TaskParams {
            n_cbs: 2,
            cb_bits: 8448,
            tb_bits: 16_000,
            prbs: 50,
            ..TaskParams::default()
        };
        for kind in TaskKind::ALL {
            assert!(m.expected_cost(kind, &p) > Nanos::ZERO, "{kind:?}");
            let f = m.memory_bound_fraction(kind);
            assert!((0.0..=1.0).contains(&f), "{kind:?}");
        }
    }

    #[test]
    fn sampled_runtime_deterministic_per_seed() {
        let m = CostModel::new();
        let p = decode_params(5, 2, 20.0, 12);
        let mut a = Rng::new(99);
        let mut b = Rng::new(99);
        for _ in 0..100 {
            assert_eq!(
                m.sample_runtime(TaskKind::LdpcDecode, &p, 1.1, &mut a),
                m.sample_runtime(TaskKind::LdpcDecode, &p, 1.1, &mut b)
            );
        }
    }

    #[test]
    fn platform_scale_multiplies_every_kind_uniformly() {
        let reference = CostModel::new();
        let scaled = CostModel::for_platform_scale(1.5);
        let p = TaskParams {
            n_cbs: 2,
            cb_bits: 8448,
            tb_bits: 16_000,
            prbs: 50,
            ..TaskParams::default()
        };
        for kind in TaskKind::ALL {
            let base = reference.expected_cost(kind, &p).as_micros_f64();
            let x = scaled.expected_cost(kind, &p).as_micros_f64();
            // Nanos round to integer nanoseconds, so compare at ns grain.
            assert!((x - base * 1.5).abs() < 2e-3, "{kind:?}: {x} vs {base}");
        }
    }

    #[test]
    fn unit_platform_scale_is_the_reference_model_exactly() {
        // Scale 1.0 must take the untouched code path (bit-identical
        // costs), and must not serialize a scale field at all.
        let m = CostModel::for_platform_scale(1.0);
        assert_eq!(m.platform_scale, None);
        let p = decode_params(5, 2, 20.0, 12);
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let reference = CostModel::new();
        for _ in 0..200 {
            assert_eq!(
                m.sample_runtime(TaskKind::LdpcDecode, &p, 1.0, &mut a),
                reference.sample_runtime(TaskKind::LdpcDecode, &p, 1.0, &mut b)
            );
        }
    }
}
