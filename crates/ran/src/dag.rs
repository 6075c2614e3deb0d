//! Per-slot signal-processing DAG construction.
//!
//! Fig. 1 of the paper shows the (simplified) 5G NR uplink DAG and Fig. 16
//! the downlink one. This module builds those DAGs from a slot's scheduled
//! UE allocations: the node set and edge structure depend on the input
//! parameters (number of UEs, transport-block sizes → codeblock groups),
//! exactly as §2.1 describes ("the exact DAG structure depends on various
//! input parameters"). Tasks from the same DAG can run in parallel (e.g.
//! multiple LDPC decoding operations on different cores).

use crate::cell::{CellConfig, RanGeneration};
use crate::cost::CostModel;
use crate::numerology::SlotDirection;
use crate::task::{TaskInstance, TaskKind, TaskParams};
use crate::time::Nanos;
use crate::transport::{segment_codeblocks, segment_codeblocks_lte, Mcs};
use serde::{Deserialize, Serialize};

/// Maximum codeblocks handled by one decode/encode task instance: large
/// transport blocks are split into codeblock groups so that LDPC work can be
/// spread across worker cores (FlexRAN-style segment granularity).
pub const CB_GROUP: u32 = 6;

/// One UE's scheduled allocation within a slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UeAlloc {
    /// Transport-block payload in bytes.
    pub tb_bytes: u32,
    /// Modulation-and-coding scheme index (0–27).
    pub mcs_index: u8,
    /// Post-equalization SNR in dB.
    pub snr_db: f64,
    /// MIMO layers (1–4).
    pub layers: u32,
    /// PRBs allocated to this UE.
    pub prbs: u32,
}

impl UeAlloc {
    /// Transport-block size in bits.
    pub fn tb_bits(&self) -> u32 {
        self.tb_bytes * 8
    }
}

/// The scheduled contents of one slot in one direction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotWorkload {
    /// Direction of the slot.
    pub direction: SlotDirection,
    /// Scheduled UE allocations (may be empty for an idle slot).
    pub ues: Vec<UeAlloc>,
}

impl SlotWorkload {
    /// Total payload bytes across UEs.
    pub fn total_bytes(&self) -> u32 {
        self.ues.iter().map(|u| u.tb_bytes).sum()
    }

    /// Total codeblocks across UEs (5G LDPC segmentation).
    pub fn total_cbs(&self) -> u32 {
        self.ues
            .iter()
            .map(|u| segment_codeblocks(u.tb_bits()).1)
            .sum()
    }
}

/// A node of a slot DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagNode {
    /// The task this node executes.
    pub task: TaskInstance,
    /// Indices of predecessor nodes.
    pub preds: Vec<u32>,
    /// Indices of successor nodes.
    pub succs: Vec<u32>,
}

/// A slot-processing DAG with its deadline.
///
/// Nodes are stored in a topological order (construction builds them
/// layer by layer), which downstream consumers rely on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotDag {
    /// Cell this DAG belongs to.
    pub cell_id: u32,
    /// Slot counter at arrival.
    pub slot_idx: u64,
    /// Direction (one DAG per direction per slot).
    pub direction: SlotDirection,
    /// Time the DAG was released to the pool.
    pub arrival: Nanos,
    /// Absolute completion deadline.
    pub deadline: Nanos,
    /// Task nodes in topological order.
    pub nodes: Vec<DagNode>,
}

impl SlotDag {
    /// Number of task nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Source nodes (no predecessors).
    pub fn sources(&self) -> impl Iterator<Item = usize> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.preds.is_empty())
            .map(|(i, _)| i)
    }

    /// Sum of expected single-core costs of all nodes — the `C` (total
    /// work) term of the federated scheduling rule.
    pub fn total_work(&self, cost: &CostModel) -> Nanos {
        self.nodes
            .iter()
            .map(|n| cost.expected_cost(n.task.kind, &n.task.params))
            .fold(Nanos::ZERO, |a, b| a + b)
    }

    /// Length of the longest expected-cost path — the `L` (critical path)
    /// term of the federated scheduling rule. O(V + E) over the topological
    /// order.
    pub fn critical_path(&self, cost: &CostModel) -> Nanos {
        let mut finish = vec![Nanos::ZERO; self.nodes.len()];
        let mut best = Nanos::ZERO;
        for (i, n) in self.nodes.iter().enumerate() {
            let start = n
                .preds
                .iter()
                .map(|&p| finish[p as usize])
                .fold(Nanos::ZERO, Nanos::max);
            let c = cost.expected_cost(n.task.kind, &n.task.params);
            finish[i] = start + c;
            best = best.max(finish[i]);
        }
        best
    }

    /// Verifies the topological-order invariant (preds always point to
    /// earlier indices, succs to later) and pred/succ symmetry. Used by
    /// tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        for (i, n) in self.nodes.iter().enumerate() {
            for &p in &n.preds {
                if p as usize >= i {
                    return Err(format!("node {i} has pred {p} not before it"));
                }
                if !self.nodes[p as usize].succs.contains(&(i as u32)) {
                    return Err(format!("pred {p} of {i} missing succ backlink"));
                }
            }
            for &s in &n.succs {
                if (s as usize) <= i {
                    return Err(format!("node {i} has succ {s} not after it"));
                }
                if !self.nodes[s as usize].preds.contains(&(i as u32)) {
                    return Err(format!("succ {s} of {i} missing pred backlink"));
                }
            }
        }
        Ok(())
    }
}

/// Incremental DAG builder maintaining the topological invariant.
///
/// The builder can run over a recycled node buffer (see
/// [`DagBuilder::reuse`]): node slots left over from a completed DAG are
/// overwritten in place, so their `preds`/`succs` heap blocks survive
/// from slot to slot instead of being freed and reallocated. With an
/// empty buffer the builder degenerates to plain pushes — byte-for-byte
/// the pre-reuse behaviour.
struct DagBuilder<'a> {
    nodes: Vec<DagNode>,
    /// Number of nodes built so far; `nodes[len..]` are recycled slots
    /// not yet overwritten (drained into `spare` by
    /// [`DagBuilder::finish`]).
    len: usize,
    /// Overflow node pool shared across builds (see [`DagScratch`]).
    spare: &'a mut Vec<DagNode>,
}

impl<'a> DagBuilder<'a> {
    fn reuse(nodes: Vec<DagNode>, spare: &'a mut Vec<DagNode>) -> Self {
        DagBuilder {
            nodes,
            len: 0,
            spare,
        }
    }

    fn add(&mut self, task: TaskInstance, preds: &[u32]) -> u32 {
        let id = self.len as u32;
        for &p in preds {
            debug_assert!((p as usize) < self.len);
            self.nodes[p as usize].succs.push(id);
        }
        if self.len < self.nodes.len() {
            let n = &mut self.nodes[self.len];
            n.task = task;
            n.preds.clear();
            n.preds.extend_from_slice(preds);
            n.succs.clear();
        } else if let Some(mut n) = self.spare.pop() {
            n.task = task;
            n.preds.clear();
            n.preds.extend_from_slice(preds);
            n.succs.clear();
            self.nodes.push(n);
        } else {
            self.nodes.push(DagNode {
                task,
                preds: preds.to_vec(),
                succs: Vec::new(),
            });
        }
        self.len += 1;
        id
    }

    fn finish(mut self) -> Vec<DagNode> {
        while self.nodes.len() > self.len && self.spare.len() < SPARE_NODES {
            self.spare.push(self.nodes.pop().expect("excess node"));
        }
        self.nodes.truncate(self.len);
        self.nodes
    }
}

/// Reusable builder scratch: the short-lived index vectors the DAG
/// builders need (per-UE decode/rate-match groups, the iFFT predecessor
/// accumulator). Callers on a hot path keep one `DagScratch` alive across
/// slots so these vectors stop churning the heap; a fresh `::default()`
/// reproduces the historical per-call allocation pattern.
#[derive(Default)]
pub struct DagScratch {
    /// Per-UE node-id accumulator (decode ids on uplink, rate-match ids
    /// on downlink). Cleared at every UE.
    ids: Vec<u32>,
    /// Whole-DAG accumulator (the iFFT's predecessor list). Cleared at
    /// every DAG.
    acc: Vec<u32>,
    /// Node slots recovered from oversized recycled buffers. Slot DAGs
    /// vary in shape, so a salvaged buffer rarely matches the next DAG's
    /// node count exactly; without this pool every mismatch leaks — an
    /// undersized buffer fresh-allocates its tail nodes and an oversized
    /// one drops its excess on truncation. `DagBuilder` drains excess
    /// nodes here and draws from here before touching the allocator, so
    /// `preds`/`succs` capacity survives the churn.
    spare: Vec<DagNode>,
}

/// Cap on [`DagScratch::spare`]: enough to absorb the largest DAG-shape
/// swing without letting a one-off giant DAG pin memory forever.
const SPARE_NODES: usize = 256;

/// Shared slot-level context folded into every task's parameters.
fn slot_context(wl: &SlotWorkload) -> (u32, u32, u32) {
    (wl.ues.len() as u32, wl.total_cbs(), wl.total_bytes())
}

fn ue_params(cell: &CellConfig, wl: &SlotWorkload, ue: &UeAlloc) -> TaskParams {
    let (n_ues, slot_cbs, slot_bytes) = slot_context(wl);
    let mcs = Mcs::from_index(ue.mcs_index);
    let n_cbs = match cell.generation {
        RanGeneration::Nr => segment_codeblocks(ue.tb_bits()).1,
        RanGeneration::Lte => segment_codeblocks_lte(ue.tb_bits()),
    };
    let cb_bits = ue.tb_bits().checked_div(n_cbs).unwrap_or(0);
    TaskParams {
        n_cbs,
        cb_bits,
        tb_bits: ue.tb_bits(),
        mcs_index: ue.mcs_index,
        modulation_order: mcs.modulation_order,
        code_rate: mcs.code_rate,
        snr_db: ue.snr_db,
        layers: ue.layers,
        prbs: ue.prbs,
        symbols: cell.numerology.symbols_per_slot(),
        antennas: cell.antennas,
        n_ues_slot: n_ues,
        slot_cbs,
        slot_bytes,
        pool_cores: 1,
    }
}

fn slot_params(cell: &CellConfig, wl: &SlotWorkload) -> TaskParams {
    let (n_ues, slot_cbs, slot_bytes) = slot_context(wl);
    TaskParams {
        prbs: cell.prbs,
        symbols: cell.numerology.symbols_per_slot(),
        antennas: cell.antennas,
        n_ues_slot: n_ues,
        slot_cbs,
        slot_bytes,
        layers: cell.max_layers,
        ..TaskParams::default()
    }
}

/// Iterates the codeblock groups of `n_cbs` codeblocks — `CB_GROUP`-sized
/// chunks followed by the remainder — without allocating.
fn cb_groups(n_cbs: u32) -> impl Iterator<Item = u32> {
    let full = (n_cbs / CB_GROUP) as usize;
    let rem = n_cbs % CB_GROUP;
    std::iter::repeat_n(CB_GROUP, full).chain((rem > 0).then_some(rem))
}

/// Builds the uplink slot DAG of Fig. 1 (see [`build_dag_into`] for the
/// buffers).
///
/// Structure: FFT → {per UE: channel estimation → equalization →
/// demodulation → descrambling → {per codeblock group: rate dematch → LDPC
/// decode} → CRC check}, plus PUCCH polar decoding off the FFT. An idle
/// slot still carries the always-on receive work (FFT + control decode).
fn build_uplink(
    cell: &CellConfig,
    cell_id: u32,
    slot_idx: u64,
    arrival: Nanos,
    wl: &SlotWorkload,
    buf: Vec<DagNode>,
    scratch: &mut DagScratch,
) -> SlotDag {
    debug_assert_eq!(wl.direction, SlotDirection::Uplink);
    let DagScratch { ids, spare, .. } = scratch;
    let mut b = DagBuilder::reuse(buf, spare);
    let sp = slot_params(cell, wl);

    let fft = b.add(
        TaskInstance {
            kind: TaskKind::Fft,
            params: sp,
        },
        &[],
    );
    b.add(
        TaskInstance {
            kind: TaskKind::PolarDecode,
            params: sp,
        },
        &[fft],
    );

    for ue in &wl.ues {
        let p = ue_params(cell, wl, ue);
        let ce = b.add(
            TaskInstance {
                kind: TaskKind::ChannelEstimation,
                params: p,
            },
            &[fft],
        );
        let eq = b.add(
            TaskInstance {
                kind: TaskKind::Equalization,
                params: p,
            },
            &[ce],
        );
        let dm = b.add(
            TaskInstance {
                kind: TaskKind::Demodulation,
                params: p,
            },
            &[eq],
        );
        let ds = b.add(
            TaskInstance {
                kind: TaskKind::Descrambling,
                params: p,
            },
            &[dm],
        );
        let decode_kind = match cell.generation {
            RanGeneration::Nr => TaskKind::LdpcDecode,
            RanGeneration::Lte => TaskKind::TurboDecode,
        };
        ids.clear();
        for g in cb_groups(p.n_cbs) {
            let gp = TaskParams { n_cbs: g, ..p };
            let rd = b.add(
                TaskInstance {
                    kind: TaskKind::RateDematch,
                    params: gp,
                },
                &[ds],
            );
            let de = b.add(
                TaskInstance {
                    kind: decode_kind,
                    params: gp,
                },
                &[rd],
            );
            ids.push(de);
        }
        if !ids.is_empty() {
            b.add(
                TaskInstance {
                    kind: TaskKind::CrcCheck,
                    params: p,
                },
                ids,
            );
        }
    }

    let dag = SlotDag {
        cell_id,
        slot_idx,
        direction: SlotDirection::Uplink,
        arrival,
        deadline: arrival + cell.deadline,
        nodes: b.finish(),
    };
    debug_assert!(dag.validate().is_ok());
    dag
}

/// Builds the downlink slot DAG of Fig. 16 (see [`build_dag_into`] for
/// the buffers).
///
/// Structure: {per UE: CRC attach → {per codeblock group: LDPC encode →
/// rate match} → scrambling → modulation → precoding} → iFFT, with PDCCH
/// polar encoding also feeding the iFFT. An idle slot still carries the
/// always-on transmit work (control encode + iFFT).
fn build_downlink(
    cell: &CellConfig,
    cell_id: u32,
    slot_idx: u64,
    arrival: Nanos,
    wl: &SlotWorkload,
    buf: Vec<DagNode>,
    scratch: &mut DagScratch,
) -> SlotDag {
    debug_assert!(matches!(
        wl.direction,
        SlotDirection::Downlink | SlotDirection::Special
    ));
    let DagScratch { ids, acc, spare } = scratch;
    let mut b = DagBuilder::reuse(buf, spare);
    let sp = slot_params(cell, wl);

    let pe = b.add(
        TaskInstance {
            kind: TaskKind::PolarEncode,
            params: sp,
        },
        &[],
    );
    acc.clear();
    acc.push(pe);

    for ue in &wl.ues {
        let p = ue_params(cell, wl, ue);
        let crc = b.add(
            TaskInstance {
                kind: TaskKind::CrcAttach,
                params: p,
            },
            &[],
        );
        let encode_kind = match cell.generation {
            RanGeneration::Nr => TaskKind::LdpcEncode,
            RanGeneration::Lte => TaskKind::TurboEncode,
        };
        ids.clear();
        for g in cb_groups(p.n_cbs) {
            let gp = TaskParams { n_cbs: g, ..p };
            let en = b.add(
                TaskInstance {
                    kind: encode_kind,
                    params: gp,
                },
                &[crc],
            );
            let rm = b.add(
                TaskInstance {
                    kind: TaskKind::RateMatch,
                    params: gp,
                },
                &[en],
            );
            ids.push(rm);
        }
        // Zero codeblock groups (a tiny TB) scramble straight off the CRC.
        let scr_preds: &[u32] = if ids.is_empty() { &[crc] } else { ids };
        let sc = b.add(
            TaskInstance {
                kind: TaskKind::Scrambling,
                params: p,
            },
            scr_preds,
        );
        let md = b.add(
            TaskInstance {
                kind: TaskKind::Modulation,
                params: p,
            },
            &[sc],
        );
        let pc = b.add(
            TaskInstance {
                kind: TaskKind::Precoding,
                params: p,
            },
            &[md],
        );
        acc.push(pc);
    }

    b.add(
        TaskInstance {
            kind: TaskKind::Ifft,
            params: sp,
        },
        acc,
    );

    let dag = SlotDag {
        cell_id,
        slot_idx,
        direction: wl.direction,
        arrival,
        deadline: arrival + cell.deadline,
        nodes: b.finish(),
    };
    debug_assert!(dag.validate().is_ok());
    dag
}

/// Builds the §7-extension MAC-scheduling DAG for a slot: the uplink and
/// downlink radio-resource schedulers run as deadline tasks of the pool
/// (sequential: the DL allocation depends on the UL grant decisions).
pub fn build_mac_dag(
    cell: &CellConfig,
    cell_id: u32,
    slot_idx: u64,
    arrival: Nanos,
    n_ues: u32,
) -> SlotDag {
    let mut spare = Vec::new();
    let mut b = DagBuilder::reuse(Vec::new(), &mut spare);
    let params = TaskParams {
        prbs: cell.prbs,
        antennas: cell.antennas,
        layers: cell.max_layers,
        n_ues_slot: n_ues,
        symbols: cell.numerology.symbols_per_slot(),
        ..TaskParams::default()
    };
    let ul = b.add(
        TaskInstance {
            kind: TaskKind::MacScheduling,
            params,
        },
        &[],
    );
    b.add(
        TaskInstance {
            kind: TaskKind::MacScheduling,
            params,
        },
        &[ul],
    );
    let dag = SlotDag {
        cell_id,
        slot_idx,
        direction: SlotDirection::Downlink,
        arrival,
        // MAC decisions must be ready for the next slot.
        deadline: arrival + cell.slot_duration(),
        nodes: b.finish(),
    };
    debug_assert!(dag.validate().is_ok());
    dag
}

/// Builds the DAG for a slot in the workload's direction: the uplink DAG
/// of Fig. 1, or the downlink DAG of Fig. 16 for downlink and special
/// slots.
pub fn build_dag(
    cell: &CellConfig,
    cell_id: u32,
    slot_idx: u64,
    arrival: Nanos,
    wl: &SlotWorkload,
) -> SlotDag {
    build_dag_into(
        cell,
        cell_id,
        slot_idx,
        arrival,
        wl,
        Vec::new(),
        &mut DagScratch::default(),
    )
}

/// [`build_dag`] over a recycled node buffer and builder scratch: `buf`
/// is the `nodes` vector of a dropped [`SlotDag`], whose per-node
/// `preds`/`succs` allocations are overwritten in place instead of freed
/// and reallocated, and `scratch` holds the builder's transient index
/// vectors across calls. Passing `Vec::new()` and a fresh scratch
/// reproduces [`build_dag`] exactly — same nodes, same order, same bytes
/// — so callers can thread buffers only on their hot path and fall back
/// to the allocating form everywhere else.
pub fn build_dag_into(
    cell: &CellConfig,
    cell_id: u32,
    slot_idx: u64,
    arrival: Nanos,
    wl: &SlotWorkload,
    buf: Vec<DagNode>,
    scratch: &mut DagScratch,
) -> SlotDag {
    match wl.direction {
        SlotDirection::Uplink => build_uplink(cell, cell_id, slot_idx, arrival, wl, buf, scratch),
        SlotDirection::Downlink | SlotDirection::Special => {
            build_downlink(cell, cell_id, slot_idx, arrival, wl, buf, scratch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ue(bytes: u32) -> UeAlloc {
        UeAlloc {
            tb_bytes: bytes,
            mcs_index: 16,
            snr_db: 20.0,
            layers: 2,
            prbs: 50,
        }
    }

    fn ul_workload(ues: Vec<UeAlloc>) -> SlotWorkload {
        SlotWorkload {
            direction: SlotDirection::Uplink,
            ues,
        }
    }

    #[test]
    fn idle_uplink_slot_has_only_receive_baseline() {
        let cell = CellConfig::tdd_100mhz();
        let dag = build_dag(&cell, 0, 0, Nanos::ZERO, &ul_workload(vec![]));
        assert_eq!(dag.len(), 2); // FFT + polar decode
        assert!(dag.validate().is_ok());
    }

    #[test]
    fn uplink_dag_node_count_scales_with_ues_and_cbs() {
        let cell = CellConfig::tdd_100mhz();
        // 10 KB => 80k bits => 10 CBs => 2 groups of (6,4).
        let one = build_dag(&cell, 0, 0, Nanos::ZERO, &ul_workload(vec![ue(10_000)]));
        // FFT + polar + (ce, eq, demod, descr) + 2*(rd, dec) + crc = 2+4+4+1 = 11
        assert_eq!(one.len(), 11);
        let two = build_dag(
            &cell,
            0,
            0,
            Nanos::ZERO,
            &ul_workload(vec![ue(10_000), ue(10_000)]),
        );
        assert_eq!(two.len(), 20);
        assert!(two.validate().is_ok());
    }

    #[test]
    fn decode_tasks_parallelizable_within_ue() {
        // §2.1: "multiple LDPC decoding operations on different cores".
        // Decode groups of the same UE must not depend on each other.
        let cell = CellConfig::tdd_100mhz();
        let dag = build_dag(&cell, 0, 0, Nanos::ZERO, &ul_workload(vec![ue(20_000)]));
        let decode_ids: Vec<usize> = dag
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.task.kind == TaskKind::LdpcDecode)
            .map(|(i, _)| i)
            .collect();
        assert!(decode_ids.len() >= 3, "expect several decode groups");
        for &a in &decode_ids {
            for &b in &decode_ids {
                assert!(!dag.nodes[a].preds.contains(&(b as u32)));
            }
        }
    }

    #[test]
    fn deadline_is_arrival_plus_cell_deadline() {
        let cell = CellConfig::fdd_20mhz();
        let arrival = Nanos::from_millis(5);
        let dag = build_dag(&cell, 3, 7, arrival, &ul_workload(vec![ue(500)]));
        assert_eq!(dag.deadline, arrival + Nanos::from_millis(2));
        assert_eq!(dag.cell_id, 3);
        assert_eq!(dag.slot_idx, 7);
    }

    #[test]
    fn downlink_dag_structure() {
        let cell = CellConfig::tdd_100mhz();
        let wl = SlotWorkload {
            direction: SlotDirection::Downlink,
            ues: vec![ue(10_000)],
        };
        let dag = build_dag(&cell, 0, 0, Nanos::ZERO, &wl);
        // polar + crc + 2*(enc, rm) + scr + mod + prec + ifft = 10
        assert_eq!(dag.len(), 10);
        assert!(dag.validate().is_ok());
        // iFFT must be the sink: last node with no succs, with >= 2 preds.
        let last = dag.nodes.last().unwrap();
        assert_eq!(last.task.kind, TaskKind::Ifft);
        assert!(last.succs.is_empty());
        assert!(last.preds.len() >= 2);
    }

    #[test]
    fn critical_path_at_most_total_work() {
        let cell = CellConfig::tdd_100mhz();
        let cost = CostModel::new();
        let dag = build_dag(
            &cell,
            0,
            0,
            Nanos::ZERO,
            &ul_workload(vec![ue(20_000), ue(8_000), ue(3_000)]),
        );
        let cp = dag.critical_path(&cost);
        let tw = dag.total_work(&cost);
        assert!(cp <= tw);
        assert!(cp > Nanos::ZERO);
    }

    #[test]
    fn critical_path_fits_deadline_at_peak() {
        // The peak uplink slot's critical path must fit comfortably inside
        // the 1.5 ms deadline, otherwise no scheduler could ever succeed.
        let cell = CellConfig::tdd_100mhz();
        let cost = CostModel::new();
        // Peak: ~50 KB over 8 UEs.
        let ues: Vec<UeAlloc> = (0..8).map(|_| ue(6_250)).collect();
        let dag = build_dag(&cell, 0, 0, Nanos::ZERO, &ul_workload(ues));
        let cp = dag.critical_path(&cost);
        assert!(
            cp < Nanos::from_micros(600),
            "critical path {cp} too long for the 1.5 ms deadline"
        );
    }

    #[test]
    fn parallelism_helps_at_peak() {
        // Total work should be several times the critical path at peak —
        // that is the parallelism the federated scheduler exploits.
        let cell = CellConfig::tdd_100mhz();
        let cost = CostModel::new();
        let ues: Vec<UeAlloc> = (0..8).map(|_| ue(6_250)).collect();
        let dag = build_dag(&cell, 0, 0, Nanos::ZERO, &ul_workload(ues));
        let ratio =
            dag.total_work(&cost).as_nanos() as f64 / dag.critical_path(&cost).as_nanos() as f64;
        assert!(ratio > 2.5, "parallelism ratio {ratio}");
    }

    #[test]
    fn cb_groups_partition() {
        let groups = |n: u32| cb_groups(n).collect::<Vec<u32>>();
        assert_eq!(groups(0), Vec::<u32>::new());
        assert_eq!(groups(5), vec![5]);
        assert_eq!(groups(6), vec![6]);
        assert_eq!(groups(13), vec![6, 6, 1]);
        assert_eq!(cb_groups(13).sum::<u32>(), 13);
    }

    #[test]
    fn workload_totals() {
        let wl = ul_workload(vec![ue(1_000), ue(2_000)]);
        assert_eq!(wl.total_bytes(), 3_000);
        assert!(wl.total_cbs() >= 3);
    }

    #[test]
    fn lte_cell_builds_turbo_dags() {
        let cell = CellConfig::lte_20mhz();
        let wl = ul_workload(vec![ue(10_000)]);
        let dag = build_dag(&cell, 0, 0, Nanos::ZERO, &wl);
        assert!(dag
            .nodes
            .iter()
            .any(|n| n.task.kind == TaskKind::TurboDecode));
        assert!(!dag
            .nodes
            .iter()
            .any(|n| n.task.kind == TaskKind::LdpcDecode));
        let dl = SlotWorkload {
            direction: SlotDirection::Downlink,
            ues: vec![ue(10_000)],
        };
        let dag = build_dag(&cell, 0, 0, Nanos::ZERO, &dl);
        assert!(dag
            .nodes
            .iter()
            .any(|n| n.task.kind == TaskKind::TurboEncode));
    }

    #[test]
    fn mac_dag_is_sequential_with_slot_deadline() {
        let cell = CellConfig::tdd_100mhz();
        let dag = build_mac_dag(&cell, 1, 5, Nanos::from_millis(3), 8);
        assert_eq!(dag.len(), 2);
        assert!(dag.validate().is_ok());
        assert_eq!(dag.deadline, Nanos::from_millis(3) + cell.slot_duration());
        assert!(dag
            .nodes
            .iter()
            .all(|n| n.task.kind == TaskKind::MacScheduling));
        // Strictly sequential: second depends on first.
        assert_eq!(dag.nodes[1].preds, vec![0]);
    }

    #[test]
    fn special_slot_builds_downlink_dag() {
        let cell = CellConfig::tdd_100mhz();
        let wl = SlotWorkload {
            direction: SlotDirection::Special,
            ues: vec![ue(1_000)],
        };
        let dag = build_dag(&cell, 0, 3, Nanos::ZERO, &wl);
        assert_eq!(dag.direction, SlotDirection::Special);
        assert!(dag
            .nodes
            .iter()
            .any(|n| n.task.kind == TaskKind::LdpcEncode));
    }
}
