//! Trace generators: byte-exact per-step traffic for every exchange
//! `bruck-core` can run, computed from block-size sources without moving
//! payloads.
//!
//! [`nonuniform_trace`] is keyed by [`EngineConfig`] — the one identity of an
//! exchange — and walks the same decision tree as the engine
//! (`engine.rs::direct_or_bruck`): sizing allreduce ← padding rule; padded →
//! uniform slots (+ a scan on `Direct`, stripped on delivery on `Bruck`);
//! `Direct` → one pairwise phase; unpadded `Bruck` →
//! one radix-`r` step loop whose direction comes from the layout and whose
//! metadata/data split — and whether the metadata's latency is exposed —
//! comes from the coupling. Every config,
//! named point or not, therefore has a trace, and
//! `CommTrace::time(&MachineModel)` of it is the repo's only cost function.
//!
//! What is shared with `bruck-core` is the *schedule* (`alltoall_plan`, whose
//! steps carry their tags, and the padding predicate). What is derived here
//! independently — and is what makes the byte-exact gate a differential test
//! — is the per-step **block identity**: store-and-forward keeps a block in
//! its slot, and the plan moves slot `i` by each step's `shift`, so just
//! before step `k` the block in slot `i` of rank `q` is the original `(s, d)`
//! block with `s = q − moved[i]` and `d = s + total[i]` (mod `P`), where
//! `moved[i]` sums the shifts of the steps before `k` that hold slot `i` and
//! `total[i]` sums them all. Summing `size(s, d)` over the step's slots gives
//! the exact bytes on the wire — which integration tests verify against
//! `MeteredComm` per-tag counters of the real implementations.

use bruck_core::common::{add_mod, ceil_log2, sub_mod};
use bruck_core::{
    alltoall_plan, AlltoallAlgorithm, EngineConfig, EngineTopology, IntermediateLayout,
    PaddingRule,
};

use crate::source::SizeSource;
use crate::trace::{CommTrace, RankLoad, Step, StepKind};

/// Which ranks a trace covers. Exact per-rank loads are computed for each
/// covered rank; step time is the max over them. For i.i.d. workloads a
/// 64-rank deterministic sample estimates the true max closely at a tiny
/// fraction of the cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankSample {
    ranks: Vec<usize>,
}

impl RankSample {
    /// Threshold below which `auto` covers every rank.
    pub const FULL_THRESHOLD: usize = 256;
    /// Sample size above the threshold.
    pub const SAMPLE: usize = 64;

    /// Cover every rank.
    pub fn all(p: usize) -> Self {
        RankSample { ranks: (0..p).collect() }
    }

    /// Every rank for small `p`, else [`RankSample::SAMPLE`] evenly spaced
    /// ranks (deterministic).
    pub fn auto(p: usize) -> Self {
        if p <= Self::FULL_THRESHOLD {
            Self::all(p)
        } else {
            RankSample { ranks: (0..Self::SAMPLE).map(|i| i * p / Self::SAMPLE).collect() }
        }
    }

    /// The covered ranks, ascending.
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }
}

/// One step in which every covered rank carries the same load.
fn even_step(kind: StepKind, load: RankLoad, sample: &RankSample) -> Step {
    Step { kind, loads: sample.ranks().iter().map(|&r| (r, load)).collect() }
}

fn local_step(load: impl Fn(usize) -> RankLoad, sample: &RankSample) -> Step {
    Step { kind: StepKind::Local, loads: sample.ranks().iter().map(|&r| (r, load(r))).collect() }
}

fn copy_step(copy_bytes: impl Fn(usize) -> u64, sample: &RankSample) -> Step {
    local_step(|r| RankLoad { copy_bytes: copy_bytes(r), ..Default::default() }, sample)
}

/// The allreduce prologue of every config with a padding rule (global
/// maximum block size): a `Max` dissemination, ⌈log₂ P⌉ rounds in which
/// every rank sends and receives one `u64`, at any `P`.
fn collective_step(p: usize, sample: &RankSample) -> Step {
    let rounds = ceil_log2(p);
    let load = RankLoad {
        seq_msgs: rounds,
        bytes_out: 8 * u64::from(rounds),
        bytes_in: 8 * u64::from(rounds),
        ..Default::default()
    };
    even_step(StepKind::Collective, load, sample)
}

/// How a rank issues the `P − 1` messages of an all-pairs phase.
#[derive(Clone, Copy)]
enum Issue {
    /// Sendrecv rounds: every latency serializes (the pairwise oracles).
    Blocking,
    /// One latency is exposed and the rest overlap, each paying the windowed
    /// (`throttled`) or the all-pairs-in-flight injection overhead.
    Overlapped { throttled: bool },
}

/// One all-pairs phase of `P − 1` messages per rank.
fn pairwise_step(
    p: usize,
    issue: Issue,
    bytes: impl Fn(usize) -> (u64, u64),
    sample: &RankSample,
) -> Step {
    let peers = (p - 1) as u32;
    let (seq_msgs, ov_msgs, throttled) = match issue {
        Issue::Blocking => (peers, 0, false),
        Issue::Overlapped { throttled } => (1, peers - 1, throttled),
    };
    let loads = sample
        .ranks()
        .iter()
        .map(|&q| {
            let (bytes_out, bytes_in) = bytes(q);
            (q, RankLoad { seq_msgs, ov_msgs, bytes_out, bytes_in, ..Default::default() })
        })
        .collect();
    Step { kind: StepKind::Pairwise { throttled }, loads }
}

/// The radix-`r` uniform Bruck steps over `n`-byte blocks: every rank ships
/// the same `count · n` bytes per sub-step. `dt_per_block` is the datatype
/// engine's descriptor work per block (`0` for explicit packing).
///
/// A step copies its pack and then, with a working buffer, every block it
/// receives (`2 × bytes`). With `forward_from_regions` (Zero Rotation Bruck) a
/// block that hops again is re-sent from the region it arrived in, so only
/// the blocks the step finishes — the last step holding their slot — are
/// copied out of it. Both directions move the same slots, so the downward
/// plan prices the upward kernels too.
fn uniform_bruck_steps(
    p: usize,
    n: usize,
    radix: usize,
    dt_per_block: u32,
    forward_from_regions: bool,
    sample: &RankSample,
    steps: &mut Vec<Step>,
) {
    let plan = alltoall_plan(p, radix, true);
    let last = plan.last_hops();
    for (k, step) in plan.steps.iter().enumerate() {
        let blocks = step.offsets.len();
        let bytes = (blocks * n) as u64;
        let unpacked = if forward_from_regions {
            (step.offsets.iter().filter(|&&i| last[i] == k).count() * n) as u64
        } else {
            bytes
        };
        let load = RankLoad {
            seq_msgs: 1,
            bytes_out: bytes,
            bytes_in: bytes,
            copy_bytes: bytes + unpacked,
            dt_blocks: dt_per_block * blocks as u32,
            ..Default::default()
        };
        steps.push(even_step(StepKind::UniformData(k as u32), load, sample));
    }
}

/// Trace of the radix-`r` Zero Rotation Bruck (uniform, `n`-byte blocks):
/// an O(P) index array (8 bytes per entry, no data rotation at all), then
/// the steps. `radix = 2` is [`AlltoallAlgorithm::ZeroRotationBruck`].
pub fn zero_rotation_radix_trace(
    p: usize,
    n: usize,
    radix: usize,
    sample: &RankSample,
) -> CommTrace {
    let mut steps = vec![copy_step(|_| 8 * p as u64, sample)];
    uniform_bruck_steps(p, n, radix, 0, true, sample, &mut steps);
    CommTrace { p, steps }
}

/// Trace of a uniform all-to-all with `P` ranks and `n`-byte blocks.
pub fn uniform_trace(algo: AlltoallAlgorithm, p: usize, n: usize, sample: &RankSample) -> CommTrace {
    let uniform_pairwise = |issue: Issue| {
        let mut steps = Vec::new();
        if p > 1 {
            let bytes = ((p - 1) * n) as u64;
            steps.push(pairwise_step(p, issue, |_| (bytes, bytes), sample));
        }
        CommTrace { p, steps }
    };
    // (rotations before, datatype descriptors per block, rotations after).
    let (rot_in, dt_per_block, rot_out) = match algo {
        AlltoallAlgorithm::BasicBruck => (true, 0, true),
        AlltoallAlgorithm::BasicBruckDt => (true, 2, true),
        AlltoallAlgorithm::ModifiedBruck => (true, 0, false),
        AlltoallAlgorithm::ModifiedBruckDt => (true, 2, false),
        // Initial split placement, per-step struct datatypes over two
        // buffers (2× descriptor complexity), final copy-out of R.
        AlltoallAlgorithm::ZeroCopyBruckDt => (true, 4, true),
        AlltoallAlgorithm::ZeroRotationBruck => return zero_rotation_radix_trace(p, n, 2, sample),
        AlltoallAlgorithm::SpreadOut => return uniform_pairwise(Issue::Overlapped { throttled: false }),
        AlltoallAlgorithm::Reference => return uniform_pairwise(Issue::Blocking),
    };
    let rotation = || copy_step(|_| (p * n) as u64, sample);
    let mut steps = Vec::new();
    if rot_in {
        steps.push(rotation());
    }
    uniform_bruck_steps(p, n, 2, dt_per_block, false, sample, &mut steps);
    if rot_out {
        steps.push(rotation());
    }
    CommTrace { p, steps }
}

/// Trace of the non-uniform all-to-all `cfg` describes — an [`EngineConfig`]
/// or an `AlltoallvAlgorithm` (its named point) — over the given size source.
pub fn nonuniform_trace<S: SizeSource + ?Sized>(
    cfg: impl Into<EngineConfig>,
    source: &S,
    sample: &RankSample,
) -> CommTrace {
    let cfg: EngineConfig = cfg.into();
    let p = source.p();
    let mut steps = Vec::new();
    if p <= 1 {
        return CommTrace { p, steps };
    }
    // Everything a rank sends / receives except its self block.
    let off_diagonal = |q: usize| {
        let own = source.size(q, q) as u64;
        (source.row_sum(q) - own, source.col_sum(q) - own)
    };

    match cfg.topology {
        EngineTopology::Oracle => {
            steps.push(pairwise_step(p, Issue::Blocking, off_diagonal, sample));
        }
        EngineTopology::Leader { group } => hierarchical_steps(source, group, sample, &mut steps),
        EngineTopology::Direct | EngineTopology::Bruck => {
            let bruck = cfg.topology == EngineTopology::Bruck;
            let n_max = source.n_max();
            let pads = cfg.padding.fires(n_max);
            // Any padding rule but `Never` asks for `N`; nothing else does.
            if cfg.padding != PaddingRule::Never {
                steps.push(collective_step(p, sample));
            }
            let issue = Issue::Overlapped { throttled: cfg.throttle_window.is_some() };
            if pads {
                if n_max == 0 {
                    return CommTrace { p, steps }; // nothing anywhere: no slot is sent
                }
                if bruck {
                    // The first pack of each block pads it on the wire (the
                    // packs are priced as wire bytes), and each finished slot
                    // is stripped as it is delivered: no image, no scan.
                    steps.extend(zero_rotation_radix_trace(p, n_max, cfg.radix, sample).steps);
                } else {
                    // Padding: write the P·N uniform buffer (reading row_sum bytes).
                    steps.push(copy_step(|q| (p * n_max) as u64 + source.row_sum(q), sample));
                    let bytes = ((p - 1) * n_max) as u64;
                    steps.push(pairwise_step(p, issue, |_| (bytes, bytes), sample));
                    // Scan the real bytes out of the padded receive buffer.
                    steps.push(copy_step(|q| source.col_sum(q), sample));
                }
            } else if bruck {
                bruck_steps(&cfg, source, sample, &mut steps);
            } else {
                steps.push(pairwise_step(p, issue, off_diagonal, sample));
            }
        }
    }
    CommTrace { p, steps }
}

/// The unpadded radix-`r` Bruck loop in all four layout × coupling
/// combinations (two-phase and SLOAV are two of them).
///
/// * Layout → direction. The monolithic layout routes like Zero Rotation
///   Bruck, *downward* (`q → q − d·w`); block views route like basic Bruck,
///   *upward*, and end with a scan that copies every received block home
///   through the pointer array. Either way the plan's shifts name each
///   block: the one in slot `i` of rank `q` before step `k` is `(s, d)` with
///   `s = q − moved[i]` and `d = s + total[i]` (module docs).
/// * Coupling → metadata/data split. Split: a `4·count`-byte size array and
///   the payload; the engine sends the size array of step `k ≥ 1` beside the
///   payload of step `k − 1`, so only the first one's latency is exposed and
///   the rest are overlapped messages. Combined: an 8-byte length
///   announcement, then `[sizes][payload]` in one buffer — walked once more
///   when it is packed and parsed block by block on arrival (§6.1) — and
///   both latencies every step, because the announced length depends on
///   sizes inside the previous body.
fn bruck_steps<S: SizeSource + ?Sized>(
    cfg: &EngineConfig,
    source: &S,
    sample: &RankSample,
    steps: &mut Vec<Step>,
) {
    let p = source.p();
    let downward = cfg.layout == IntermediateLayout::Monolithic;
    let plan = alltoall_plan(p, cfg.radix, downward);
    // How far each slot's block travels in all, and has travelled so far.
    let mut total = vec![0usize; p];
    for step in &plan.steps {
        for &i in &step.offsets {
            total[i] = add_mod(total[i], step.shift, p);
        }
    }
    let mut moved = vec![0usize; p];
    // Per transmitted block, as forward offsets mod P: where its source rank
    // sits relative to the sender, and its destination relative to the source.
    let mut blocks: Vec<(usize, usize)> = Vec::new();
    for (k, step) in plan.steps.iter().enumerate() {
        blocks.clear();
        blocks.extend(step.offsets.iter().map(|&i| (sub_mod(0, moved[i], p), total[i])));
        for &i in &step.offsets {
            moved[i] = add_mod(moved[i], step.shift, p);
        }
        let count = blocks.len() as u64;
        let payload = |q: usize| -> u64 {
            blocks
                .iter()
                .map(|&(to_src, to_dst)| {
                    let src = add_mod(q, to_src, p);
                    source.size(src, add_mod(src, to_dst, p)) as u64
                })
                .sum()
        };
        let (meta_bytes, header) = if cfg.two_phase_split { (4 * count, 0) } else { (8, 4 * count) };
        let runs_ahead = cfg.two_phase_split && k > 0;
        let meta = RankLoad {
            seq_msgs: u32::from(!runs_ahead),
            ov_msgs: u32::from(runs_ahead),
            bytes_out: meta_bytes,
            bytes_in: meta_bytes,
            ..Default::default()
        };
        steps.push(even_step(StepKind::Meta(k as u32), meta, sample));

        let sent: Vec<u64> = sample.ranks().iter().map(|&q| payload(q)).collect();
        let loads = sample
            .ranks()
            .iter()
            .zip(&sent)
            .map(|(&q, &sent_q)| {
                // What arrives is what the peer sends: already known when the
                // peer is covered too (always, unless the ranks are sampled).
                let from = sub_mod(q, step.shift, p);
                let arriving = match sample.ranks().binary_search(&from) {
                    Ok(at) => sent[at],
                    Err(_) => payload(from),
                };
                let out = header + sent_q;
                let inb = header + arriving;
                let mut load = RankLoad {
                    seq_msgs: 1,
                    bytes_out: out,
                    bytes_in: inb,
                    copy_bytes: out + inb,
                    ..Default::default()
                };
                if !cfg.two_phase_split {
                    load.copy_bytes += out;
                    load.dt_blocks = count as u32;
                }
                (q, load)
            })
            .collect();
        steps.push(Step { kind: StepKind::Data(k as u32), loads });
    }
    if !downward {
        // Final scan: every received block is copied to its destination, one
        // view of the pointer array at a time.
        let scan = |q| RankLoad {
            copy_bytes: source.col_sum(q),
            dt_blocks: p as u32,
            ..Default::default()
        };
        steps.push(local_step(scan, sample));
    }
}

/// Steps of the hierarchical (leader-based) exchange with the given group
/// size: member→leader gather, leader↔leader exchange, leader→member scatter.
fn hierarchical_steps<S: SizeSource + ?Sized>(
    source: &S,
    group: usize,
    sample: &RankSample,
    steps: &mut Vec<Step>,
) {
    let p = source.p();
    let n_groups = p.div_ceil(group);
    let (mut gather, mut exchange, mut scatter) = (Vec::new(), Vec::new(), Vec::new());
    for &q in sample.ranks() {
        let members = (q / group * group)..((q / group + 1) * group).min(p);
        if q != members.start {
            // A member ships its 8P-byte counts row and its send image up,
            // sits out the leader exchange, and gets its receive image back.
            let up = 8 * p as u64 + source.row_sum(q);
            gather.push((q, RankLoad { seq_msgs: 1, bytes_out: up, ..Default::default() }));
            exchange.push((q, RankLoad::default()));
            scatter.push((q, RankLoad { bytes_in: source.col_sum(q), ..Default::default() }));
            continue;
        }
        // A leader handles the whole group's rows and columns.
        let g_size = members.len() as u64;
        let rows: u64 = members.clone().map(|s| source.row_sum(s)).sum();
        let cols: u64 = members.clone().map(|d| source.col_sum(d)).sum();
        let (own_row, own_col) = (source.row_sum(q), source.col_sum(q));
        let inbound = 8 * p as u64 * (g_size - 1) + rows - own_row;
        gather.push((q, RankLoad { bytes_in: inbound, ..Default::default() }));
        if n_groups > 1 {
            // Per other group h: a 4-byte size matrix plus all blocks
            // (s in g, d in h) — everything but the group's own traffic.
            let intra: u64 = members
                .clone()
                .flat_map(|s| members.clone().map(move |d| (s, d)))
                .map(|(s, d)| source.size(s, d) as u64)
                .sum();
            let header = 4 * g_size * (p as u64 - g_size);
            let load = RankLoad {
                seq_msgs: 1,
                ov_msgs: (n_groups - 2) as u32,
                bytes_out: header + rows - intra,
                bytes_in: header + cols - intra,
                ..Default::default()
            };
            exchange.push((q, load));
        }
        // Scatter: flatten each other member's column and send it, one
        // message per member (the first pays the latency, the rest overlap
        // it); deliver its own.
        let load = RankLoad {
            seq_msgs: u32::from(g_size > 1),
            ov_msgs: g_size.saturating_sub(2) as u32,
            bytes_out: cols - own_col,
            copy_bytes: own_col,
            ..Default::default()
        };
        scatter.push((q, load));
    }
    steps.push(Step { kind: StepKind::HierGather, loads: gather });
    if n_groups > 1 {
        steps.push(Step { kind: StepKind::HierLeader, loads: exchange });
    }
    steps.push(Step { kind: StepKind::HierScatter, loads: scatter });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::DistSource;
    use crate::MachineModel;
    use bruck_core::AlltoallvAlgorithm;
    use bruck_workload::Distribution;

    fn src(p: usize, n: usize) -> DistSource {
        DistSource::new(Distribution::Uniform, 42, p, n)
    }

    fn two_phase_radix(radix: usize) -> EngineConfig {
        EngineConfig { radix, ..EngineConfig::as_two_phase() }
    }

    fn data_bytes_out(trace: &CommTrace) -> u64 {
        trace
            .steps
            .iter()
            .filter(|st| matches!(st.kind, StepKind::Data(_)))
            .flat_map(|st| st.loads.iter().map(|(_, l)| l.bytes_out))
            .sum()
    }

    #[test]
    fn rank_sample_auto_switches_modes() {
        assert_eq!(RankSample::auto(64).ranks().len(), 64);
        assert_eq!(RankSample::auto(256).ranks().len(), 256);
        let s = RankSample::auto(4096);
        assert_eq!(s.ranks().len(), RankSample::SAMPLE);
        assert!(s.ranks().windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        assert!(*s.ranks().last().unwrap() < 4096);
    }

    #[test]
    fn two_phase_trace_conserves_bytes_across_steps() {
        // Over all log P steps, the total data bytes leaving all ranks must
        // equal sum over blocks of size · popcount(offset): each block hops
        // once per set bit of its offset.
        let p = 16;
        let s = src(p, 100);
        let trace = nonuniform_trace(AlltoallvAlgorithm::TwoPhaseBruck, &s, &RankSample::all(p));
        let mut expect = 0u64;
        for srk in 0..p {
            for dst in 0..p {
                let offset = (srk + p - dst) % p; // modified direction: d = s − i
                expect += (s.size(srk, dst) as u64) * offset.count_ones() as u64;
            }
        }
        assert_eq!(data_bytes_out(&trace), expect);
    }

    #[test]
    fn sloav_trace_conserves_bytes_across_steps() {
        let p = 12;
        let s = src(p, 64);
        let trace = nonuniform_trace(AlltoallvAlgorithm::Sloav, &s, &RankSample::all(p));
        let mut expect = 0u64;
        let meta_total: u64 = (0..ceil_log2(p))
            .map(|k| (1..p).filter(|i| i & (1 << k) != 0).count() as u64 * 4 * p as u64)
            .sum();
        for srk in 0..p {
            for dst in 0..p {
                let offset = (dst + p - srk) % p; // basic direction: d = s + i
                expect += (s.size(srk, dst) as u64) * offset.count_ones() as u64;
            }
        }
        assert_eq!(data_bytes_out(&trace), expect + meta_total);
    }

    #[test]
    fn padded_trace_moves_n_max_blocks() {
        let p = 8;
        let s = src(p, 50);
        let trace = nonuniform_trace(AlltoallvAlgorithm::PaddedBruck, &s, &RankSample::all(p));
        for step in &trace.steps {
            if let StepKind::UniformData(k) = step.kind {
                let count = (1..p).filter(|i| i & (1 << k) != 0).count() as u64;
                for (_, l) in &step.loads {
                    assert_eq!(l.bytes_out, count * s.n_max() as u64, "step {k}");
                }
            }
        }
    }

    #[test]
    fn spread_out_trace_is_row_and_col_sums() {
        let p = 10;
        let s = src(p, 30);
        let trace = nonuniform_trace(AlltoallvAlgorithm::SpreadOut, &s, &RankSample::all(p));
        assert_eq!(trace.steps.len(), 1);
        for (q, l) in &trace.steps[0].loads {
            assert_eq!(l.bytes_out, s.row_sum(*q) - s.size(*q, *q) as u64);
            assert_eq!(l.bytes_in, s.col_sum(*q) - s.size(*q, *q) as u64);
        }
    }

    #[test]
    fn uniform_traces_have_expected_step_structure() {
        let p = 16;
        let sample = RankSample::all(p);
        let basic = uniform_trace(AlltoallAlgorithm::BasicBruck, p, 32, &sample);
        // rotation + 4 steps + rotation
        assert_eq!(basic.steps.len(), 6);
        let zero_rot = uniform_trace(AlltoallAlgorithm::ZeroRotationBruck, p, 32, &sample);
        assert_eq!(zero_rot.steps.len(), 5);
        // Zero-rotation moves the same wire bytes but copies far less.
        let wire = |t: &CommTrace| t.total_wire_bytes();
        assert_eq!(wire(&basic), wire(&zero_rot));
        let copies = |t: &CommTrace| -> u64 {
            t.steps.iter().flat_map(|s| s.loads.iter().map(|(_, l)| l.copy_bytes)).sum()
        };
        assert!(copies(&zero_rot) < copies(&basic));
    }

    #[test]
    fn single_rank_traces_are_trivial() {
        let s = src(1, 64);
        for algo in AlltoallvAlgorithm::ALL {
            let t = nonuniform_trace(algo, &s, &RankSample::all(1));
            assert!(t.steps.is_empty(), "{}", algo.name());
        }
    }

    #[test]
    fn trace_times_are_positive_and_finite() {
        let m = MachineModel::theta_like();
        let s = src(64, 256);
        for algo in AlltoallvAlgorithm::ALL {
            let t = nonuniform_trace(algo, &s, &RankSample::auto(64)).time(&m);
            assert!(t.is_finite() && t > 0.0, "{}: {t}", algo.name());
        }
    }

    #[test]
    fn the_sizing_allreduce_is_priced_at_most_once() {
        // Only a padding rule asks for `N`: a threshold that does not fire
        // has paid one allreduce, and no unpadded Bruck layout adds another
        // (the engine's `threshold_that_does_not_fire_pays_one_sizing_allreduce`).
        let s = src(16, 100);
        let sample = RankSample::all(16);
        let prologues = |cfg: EngineConfig| {
            nonuniform_trace(cfg, &s, &sample)
                .steps
                .iter()
                .filter(|st| st.kind == StepKind::Collective)
                .count()
        };
        let unfired = EngineConfig {
            padding: PaddingRule::Threshold(1),
            ..EngineConfig::as_two_phase()
        };
        assert_eq!(prologues(unfired), 1);
        assert_eq!(prologues(EngineConfig::as_two_phase()), 0);
        assert_eq!(prologues(EngineConfig::as_sloav()), 0);
        assert_eq!(prologues(EngineConfig { padding: PaddingRule::Threshold(1), ..EngineConfig::as_sloav() }), 1);
        // Fired, the rule's trace is the padded point's.
        let fired = EngineConfig {
            padding: PaddingRule::Threshold(100),
            ..EngineConfig::as_two_phase()
        };
        assert_eq!(
            nonuniform_trace(fired, &s, &sample),
            nonuniform_trace(AlltoallvAlgorithm::PaddedBruck, &s, &sample)
        );
    }

    #[test]
    fn the_sizing_allreduce_is_one_message_per_rank_per_round() {
        // The one-way dissemination has no fold round: P·⌈log₂ P⌉ messages a
        // world (recursive doubling with a fold sent 4, 12 and 32 at P = 3, 6
        // and 12), and unchanged at a power of two.
        for (p, world_msgs) in [(3usize, 6u32), (6, 18), (12, 48), (8, 24)] {
            let sample = RankSample::all(p);
            let trace = nonuniform_trace(AlltoallvAlgorithm::PaddedBruck, &src(p, 40), &sample);
            let sizing = &trace.steps[0];
            assert_eq!(sizing.kind, StepKind::Collective);
            let sent: u32 = sizing.loads.iter().map(|(_, l)| l.seq_msgs).sum();
            assert_eq!(sent, world_msgs, "P = {p}");
        }
    }

    #[test]
    fn the_coupling_only_relabels_header_bytes() {
        // In either layout the combined coupling routes the same payload as
        // the split one; it moves the 4·count size array from the metadata
        // message into the data message and announces 8 bytes instead.
        let p = 12;
        let s = src(p, 80);
        let sample = RankSample::all(p);
        for radix in [2usize, 3] {
            for layout in [IntermediateLayout::Monolithic, IntermediateLayout::BlockViews] {
                let point = |two_phase_split| {
                    let cfg = EngineConfig { layout, two_phase_split, ..two_phase_radix(radix) };
                    nonuniform_trace(cfg, &s, &sample)
                };
                let (split, combined) = (point(true), point(false));
                let steps = alltoall_plan(p, radix, true).steps.len() as u64;
                assert_eq!(
                    combined.total_wire_bytes(),
                    split.total_wire_bytes() + 8 * steps * p as u64,
                    "radix {radix} {layout:?}"
                );
                let headers: u64 = (1..p)
                    .map(|i| {
                        let mut digits = 0u64;
                        let mut i = i;
                        while i > 0 {
                            digits += u64::from(i % radix != 0);
                            i /= radix;
                        }
                        4 * digits
                    })
                    .sum();
                assert_eq!(
                    data_bytes_out(&combined),
                    data_bytes_out(&split) + headers * p as u64,
                    "radix {radix} {layout:?}"
                );
            }
        }
    }

    #[test]
    fn zero_rotation_copies_its_packs_and_each_block_out_once() {
        // Forwarded blocks are re-sent from their receive regions: beyond the
        // packs (= the wire bytes) and the index array, each of the P − 1
        // travelling blocks is copied out exactly once, whatever the radix.
        // The padded Bruck trace is that loop: its packs pad, and there is
        // no pad image and no scan.
        let (p, n) = (27, 32);
        let sample = RankSample::all(p);
        let copies = |t: &CommTrace| -> u64 {
            t.steps.iter().map(|s| s.loads[0].1.copy_bytes).sum()
        };
        for radix in [2usize, 3, 4, 7, 16] {
            let t = zero_rotation_radix_trace(p, n, radix, &sample);
            let packs = t.total_wire_bytes() / p as u64;
            assert_eq!(copies(&t), 8 * p as u64 + packs + ((p - 1) * n) as u64, "radix {radix}");
        }
        let s = src(p, n);
        let padded = nonuniform_trace(AlltoallvAlgorithm::PaddedBruck, &s, &sample);
        let uniform = zero_rotation_radix_trace(p, s.n_max(), 2, &sample);
        assert_eq!(copies(&padded), copies(&uniform));
    }

    #[test]
    fn radix_two_uniform_trace_is_the_zero_rotation_trace() {
        let p = 16;
        let sample = RankSample::all(p);
        let r2 = zero_rotation_radix_trace(p, 32, 2, &sample);
        let bin = uniform_trace(AlltoallAlgorithm::ZeroRotationBruck, p, 32, &sample);
        assert_eq!(r2, bin);
    }

    #[test]
    fn radix_conserves_total_data_bytes() {
        // Over all sub-steps, a block is transmitted once per non-zero digit
        // of its offset, whatever the radix.
        let p = 27;
        let s = DistSource::new(Distribution::Uniform, 5, p, 80);
        for radix in [2usize, 3, 4, 9] {
            let t = nonuniform_trace(two_phase_radix(radix), &s, &RankSample::all(p));
            let mut expect = 0u64;
            for src in 0..p {
                for dst in 0..p {
                    let mut i = (src + p - dst) % p;
                    let mut hops = 0u64;
                    while i > 0 {
                        if i % radix != 0 {
                            hops += 1;
                        }
                        i /= radix;
                    }
                    expect += (s.size(src, dst) as u64) * hops;
                }
            }
            assert_eq!(data_bytes_out(&t), expect, "radix {radix}");
        }
    }

    #[test]
    fn higher_radix_trades_latency_for_bandwidth() {
        // More sub-steps (latency), less forwarded data (bandwidth).
        let p = 4096;
        let sample = RankSample::auto(p);
        let at = |n: usize, radix: usize| {
            let s = DistSource::new(Distribution::Uniform, 7, p, n);
            nonuniform_trace(two_phase_radix(radix), &s, &sample)
        };
        let (t2, t8) = (at(512, 2), at(512, 8));
        let msgs = |t: &CommTrace| t.steps.iter().filter(|s| s.kind.tag().is_some()).count();
        assert!(msgs(&t8) > msgs(&t2), "radix 8 must have more message rounds");
        assert!(
            t8.total_wire_bytes() < t2.total_wire_bytes(),
            "radix 8 must forward less data"
        );
        // Under a latency-heavy machine, radix 2 wins; the bandwidth saving
        // must show up for large blocks.
        let m = MachineModel::theta_like();
        let (big2, big8) = (at(4096, 2).time(&m), at(4096, 8).time(&m));
        assert!(big8 < big2, "radix 8 should win at N=4096: {big8} vs {big2}");
        let (small2, small8) = (at(16, 2).time(&m), at(16, 8).time(&m));
        assert!(small2 < small8, "radix 2 should win at N=16: {small2} vs {small8}");
    }
}
