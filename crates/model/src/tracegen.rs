//! Trace generators: byte-exact per-step traffic for every algorithm in
//! `bruck-core`, computed from block-size sources without moving payloads.
//!
//! The generators replicate each algorithm's *routing*. For the Bruck family
//! the key fact is store-and-forward identity: the block with relative index
//! `i` hops at exactly the set bits of `i`, so just before step `k` the block
//! at relative index `i` of rank `q` is the original `(s, d)` block with
//! `s = q ± (i & (2^k − 1))` and `d = s ∓ i` (sign by schedule direction).
//! Summing `size(s, d)` over the step's indices gives the exact bytes on the
//! wire — which integration tests verify against `MeteredComm` per-tag counters of the
//! real implementations.

use crate::source::SizeSource;
use crate::trace::{CommTrace, RankLoad, Step, StepKind};

/// Uniform algorithms (paper §2 / Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UniformAlgo {
    /// Rotation + log(P) steps + rotation, explicit packing.
    BasicBruck,
    /// Basic Bruck via the datatype engine.
    BasicBruckDt,
    /// No final rotation, explicit packing.
    ModifiedBruck,
    /// Modified Bruck via the datatype engine.
    ModifiedBruckDt,
    /// Alternating-buffer datatype variant.
    ZeroCopyBruckDt,
    /// Neither rotation (the paper's synthesis).
    ZeroRotationBruck,
    /// Linear non-blocking baseline.
    SpreadOut,
}

impl UniformAlgo {
    /// All uniform algorithms in Figure 2 order (plus the baseline).
    pub const ALL: [UniformAlgo; 7] = [
        UniformAlgo::BasicBruck,
        UniformAlgo::BasicBruckDt,
        UniformAlgo::ModifiedBruck,
        UniformAlgo::ModifiedBruckDt,
        UniformAlgo::ZeroCopyBruckDt,
        UniformAlgo::ZeroRotationBruck,
        UniformAlgo::SpreadOut,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            UniformAlgo::BasicBruck => "BasicBruck",
            UniformAlgo::BasicBruckDt => "BasicBruck-dt",
            UniformAlgo::ModifiedBruck => "ModifiedBruck",
            UniformAlgo::ModifiedBruckDt => "ModifiedBruck-dt",
            UniformAlgo::ZeroCopyBruckDt => "ZeroCopyBruck-dt",
            UniformAlgo::ZeroRotationBruck => "ZeroRotationBruck",
            UniformAlgo::SpreadOut => "SpreadOut",
        }
    }
}

/// Non-uniform algorithms (paper §3–4 / Figures 6–13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NonuniformAlgo {
    /// All-pairs non-blocking, unthrottled.
    SpreadOut,
    /// Throttled all-pairs: the vendor `MPI_Alltoallv` stand-in.
    Vendor,
    /// Pad → uniform Bruck → scan.
    PaddedBruck,
    /// Pad → vendor uniform all-to-all → scan.
    PaddedAlltoall,
    /// Coupled metadata/data Bruck over a monolithic working buffer.
    TwoPhaseBruck,
    /// SLOAV prior art (combined buffers, pointer array, final scan).
    Sloav,
    /// Leader-based hierarchical exchange (related work, §6), groups of 8.
    Hierarchical,
    /// Ranka et al.'s balanced two-stage decomposition (related work, §6).
    RankaTwoStage,
}

impl NonuniformAlgo {
    /// All non-uniform algorithms.
    pub const ALL: [NonuniformAlgo; 8] = [
        NonuniformAlgo::SpreadOut,
        NonuniformAlgo::Vendor,
        NonuniformAlgo::PaddedBruck,
        NonuniformAlgo::PaddedAlltoall,
        NonuniformAlgo::TwoPhaseBruck,
        NonuniformAlgo::Sloav,
        NonuniformAlgo::Hierarchical,
        NonuniformAlgo::RankaTwoStage,
    ];

    /// The group size [`NonuniformAlgo::Hierarchical`] uses (mirrors
    /// `bruck_core::DEFAULT_GROUP_SIZE`).
    pub const HIER_GROUP: usize = 8;

    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            NonuniformAlgo::SpreadOut => "Spread-out",
            NonuniformAlgo::Vendor => "MPI_Alltoallv",
            NonuniformAlgo::PaddedBruck => "Padded Bruck",
            NonuniformAlgo::PaddedAlltoall => "PaddedAlltoall",
            NonuniformAlgo::TwoPhaseBruck => "Two-phase Bruck",
            NonuniformAlgo::Sloav => "SLOAV",
            NonuniformAlgo::Hierarchical => "Hierarchical",
            NonuniformAlgo::RankaTwoStage => "Ranka two-stage",
        }
    }
}

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

    /// The covered ranks.
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }
}

#[inline]
fn ceil_log2(p: usize) -> u32 {
    usize::BITS - (p - 1).leading_zeros()
}

#[inline]
fn step_indices(p: usize, k: u32) -> impl Iterator<Item = usize> {
    let mask = 1usize << k;
    (1..p).filter(move |i| i & mask != 0)
}

fn step_block_count(p: usize, k: u32) -> u64 {
    step_indices(p, k).count() as u64
}

/// Exact bytes rank `q` sends at step `k` under the *modified/zero-rotation*
/// schedule (blocks hop downward): before step `k`, relative index `i` at
/// rank `q` holds the original block `(s, d)` with `s = (q + (i & (2^k−1)))
/// mod P`, `d = (s − i) mod P`.
fn modified_dir_step_bytes<S: SizeSource + ?Sized>(s: &S, q: usize, k: u32) -> u64 {
    let p = s.p();
    let low = (1usize << k) - 1;
    let mut total = 0u64;
    for i in step_indices(p, k) {
        let src = (q + (i & low)) % p;
        let dst = (src + p - i) % p;
        total += s.size(src, dst) as u64;
    }
    total
}

/// Exact bytes rank `q` sends at step `k` under the *basic/SLOAV* schedule
/// (blocks hop upward): `s = (q − (i & (2^k−1))) mod P`, `d = (s + i) mod P`.
fn basic_dir_step_bytes<S: SizeSource + ?Sized>(s: &S, q: usize, k: u32) -> u64 {
    let p = s.p();
    let low = (1usize << k) - 1;
    let mut total = 0u64;
    for i in step_indices(p, k) {
        let src = (q + p - (i & low)) % p;
        let dst = (src + i) % p;
        total += s.size(src, dst) as u64;
    }
    total
}

/// The allreduce prologue shared by the padding-based and two-phase
/// algorithms (global maximum block size).
pub(crate) fn collective_step(p: usize, sample: &RankSample) -> Step {
    let rounds = ceil_log2(p) + u32::from(!p.is_power_of_two());
    let load = RankLoad {
        seq_msgs: rounds,
        bytes_out: 8 * u64::from(rounds),
        bytes_in: 8 * u64::from(rounds),
        ..Default::default()
    };
    Step { kind: StepKind::Collective, loads: sample.ranks().iter().map(|&r| (r, load)).collect() }
}

fn local_step(copy_bytes: impl Fn(usize) -> u64, sample: &RankSample) -> Step {
    Step {
        kind: StepKind::Local,
        loads: sample
            .ranks()
            .iter()
            .map(|&r| (r, RankLoad { copy_bytes: copy_bytes(r), ..Default::default() }))
            .collect(),
    }
}

/// Trace of a uniform all-to-all with `P` ranks and `n`-byte blocks.
pub fn uniform_trace(algo: UniformAlgo, p: usize, n: usize, sample: &RankSample) -> CommTrace {
    let mut steps = Vec::new();
    let rot = |sample: &RankSample| local_step(|_| (p * n) as u64, sample);
    let bruck_steps = |steps: &mut Vec<Step>, dt_per_block: u32| {
        for k in 0..ceil_log2(p) {
            let count = step_block_count(p, k);
            let bytes = count * n as u64;
            let load = RankLoad {
                seq_msgs: 1,
                bytes_out: bytes,
                bytes_in: bytes,
                copy_bytes: 2 * bytes,
                dt_blocks: dt_per_block * count as u32,
                ..Default::default()
            };
            steps.push(Step {
                kind: StepKind::UniformData(k),
                loads: sample.ranks().iter().map(|&r| (r, load)).collect(),
            });
        }
    };
    match algo {
        UniformAlgo::BasicBruck => {
            steps.push(rot(sample));
            bruck_steps(&mut steps, 0);
            steps.push(rot(sample));
        }
        UniformAlgo::BasicBruckDt => {
            steps.push(rot(sample));
            bruck_steps(&mut steps, 2);
            steps.push(rot(sample));
        }
        UniformAlgo::ModifiedBruck => {
            steps.push(rot(sample));
            bruck_steps(&mut steps, 0);
        }
        UniformAlgo::ModifiedBruckDt => {
            steps.push(rot(sample));
            bruck_steps(&mut steps, 2);
        }
        UniformAlgo::ZeroCopyBruckDt => {
            // Initial split placement, per-step struct datatypes over two
            // buffers (2× descriptor complexity), final copy-out of R.
            steps.push(rot(sample));
            bruck_steps(&mut steps, 4);
            steps.push(rot(sample));
        }
        UniformAlgo::ZeroRotationBruck => {
            // O(P) index array: 8 bytes per entry, no data rotation at all.
            steps.push(local_step(|_| 8 * p as u64, sample));
            bruck_steps(&mut steps, 0);
        }
        UniformAlgo::SpreadOut => {
            if p > 1 {
                let bytes = ((p - 1) * n) as u64;
                let load = RankLoad {
                    seq_msgs: 1,
                    ov_msgs: (p - 2) as u32,
                    bytes_out: bytes,
                    bytes_in: bytes,
                    ..Default::default()
                };
                steps.push(Step {
                    kind: StepKind::Pairwise { throttled: false },
                    loads: sample.ranks().iter().map(|&r| (r, load)).collect(),
                });
            }
        }
    }
    CommTrace { p, steps }
}

/// Trace of a non-uniform all-to-all over the given size source.
pub fn nonuniform_trace<S: SizeSource + ?Sized>(
    algo: NonuniformAlgo,
    source: &S,
    sample: &RankSample,
) -> CommTrace {
    let p = source.p();
    let mut steps = Vec::new();
    if p <= 1 {
        return CommTrace { p, steps };
    }

    let pairwise = |throttled: bool| -> Step {
        let loads = sample
            .ranks()
            .iter()
            .map(|&q| {
                let self_block = source.size(q, q) as u64;
                (
                    q,
                    RankLoad {
                        seq_msgs: 1,
                        ov_msgs: (p - 2) as u32,
                        bytes_out: source.row_sum(q) - self_block,
                        bytes_in: source.col_sum(q) - self_block,
                        ..Default::default()
                    },
                )
            })
            .collect();
        Step { kind: StepKind::Pairwise { throttled }, loads }
    };

    match algo {
        NonuniformAlgo::SpreadOut => steps.push(pairwise(false)),
        NonuniformAlgo::Vendor => steps.push(pairwise(true)),
        NonuniformAlgo::Hierarchical => {
            hierarchical_steps(source, NonuniformAlgo::HIER_GROUP, sample, &mut steps)
        }
        NonuniformAlgo::RankaTwoStage => ranka_steps(source, sample, &mut steps),
        NonuniformAlgo::TwoPhaseBruck => {
            steps.push(collective_step(p, sample));
            for k in 0..ceil_log2(p) {
                let count = step_block_count(p, k);
                let meta = RankLoad {
                    seq_msgs: 1,
                    bytes_out: 4 * count,
                    bytes_in: 4 * count,
                    ..Default::default()
                };
                steps.push(Step {
                    kind: StepKind::Meta(k),
                    loads: sample.ranks().iter().map(|&r| (r, meta)).collect(),
                });
                let loads = sample
                    .ranks()
                    .iter()
                    .map(|&q| {
                        let out = modified_dir_step_bytes(source, q, k);
                        let peer = (q + (1 << k)) % p;
                        let inb = modified_dir_step_bytes(source, peer, k);
                        (
                            q,
                            RankLoad {
                                seq_msgs: 1,
                                bytes_out: out,
                                bytes_in: inb,
                                copy_bytes: out + inb,
                                ..Default::default()
                            },
                        )
                    })
                    .collect();
                steps.push(Step { kind: StepKind::Data(k), loads });
            }
        }
        NonuniformAlgo::Sloav => {
            for k in 0..ceil_log2(p) {
                let count = step_block_count(p, k);
                let meta = RankLoad {
                    seq_msgs: 1,
                    bytes_out: 8,
                    bytes_in: 8,
                    ..Default::default()
                };
                steps.push(Step {
                    kind: StepKind::Meta(k),
                    loads: sample.ranks().iter().map(|&r| (r, meta)).collect(),
                });
                let loads = sample
                    .ranks()
                    .iter()
                    .map(|&q| {
                        let out = 4 * count + basic_dir_step_bytes(source, q, k);
                        let peer = (q + p - (1 << k) % p) % p;
                        let inb = 4 * count + basic_dir_step_bytes(source, peer, k);
                        (
                            q,
                            RankLoad {
                                seq_msgs: 1,
                                bytes_out: out,
                                bytes_in: inb,
                                copy_bytes: out + inb,
                                ..Default::default()
                            },
                        )
                    })
                    .collect();
                steps.push(Step { kind: StepKind::Data(k), loads });
            }
            // Final scan: every received block is copied to its destination.
            steps.push(local_step(|q| source.col_sum(q), sample));
        }
        NonuniformAlgo::PaddedBruck | NonuniformAlgo::PaddedAlltoall => {
            let n_max = source.n_max();
            steps.push(collective_step(p, sample));
            // Padding: write the P·N uniform buffer (reading row_sum bytes).
            steps.push(local_step(|q| (p * n_max) as u64 + source.row_sum(q), sample));
            if algo == NonuniformAlgo::PaddedBruck {
                // Zero Rotation Bruck over N-byte blocks.
                steps.push(local_step(|_| 8 * p as u64, sample));
                for k in 0..ceil_log2(p) {
                    let bytes = step_block_count(p, k) * n_max as u64;
                    let load = RankLoad {
                        seq_msgs: 1,
                        bytes_out: bytes,
                        bytes_in: bytes,
                        copy_bytes: 2 * bytes,
                        ..Default::default()
                    };
                    steps.push(Step {
                        kind: StepKind::UniformData(k),
                        loads: sample.ranks().iter().map(|&r| (r, load)).collect(),
                    });
                }
            } else {
                let bytes = ((p - 1) * n_max) as u64;
                let load = RankLoad {
                    seq_msgs: 1,
                    ov_msgs: (p - 2) as u32,
                    bytes_out: bytes,
                    bytes_in: bytes,
                    ..Default::default()
                };
                steps.push(Step {
                    kind: StepKind::Pairwise { throttled: true },
                    loads: sample.ranks().iter().map(|&r| (r, load)).collect(),
                });
            }
            // Scan the real bytes out of the padded receive buffer.
            steps.push(local_step(|q| source.col_sum(q), sample));
        }
    }
    CommTrace { p, steps }
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
    let leader_of = |q: usize| (q / group) * group;
    let members_of = |g: usize| (g * group)..((g + 1) * group).min(p);

    // Gather: members send (8P counts header + their row); leaders receive
    // every member's payload.
    let gather_loads = sample
        .ranks()
        .iter()
        .map(|&q| {
            let load = if q == leader_of(q) {
                let inbound: u64 = members_of(q / group)
                    .filter(|&m| m != q)
                    .map(|m| 8 * p as u64 + source.row_sum(m))
                    .sum();
                RankLoad { bytes_in: inbound, ..Default::default() }
            } else {
                RankLoad {
                    seq_msgs: 1,
                    bytes_out: 8 * p as u64 + source.row_sum(q),
                    ..Default::default()
                }
            };
            (q, load)
        })
        .collect();
    steps.push(Step { kind: StepKind::HierGather, loads: gather_loads });

    // Leader exchange: each leader ships, per other group h, a 4-byte size
    // matrix plus all blocks (s in g, d in h).
    if n_groups > 1 {
        let leader_loads = sample
            .ranks()
            .iter()
            .map(|&q| {
                if q != leader_of(q) {
                    return (q, RankLoad::default());
                }
                let g = q / group;
                let g_size = members_of(g).len() as u64;
                let intra: u64 = members_of(g)
                    .flat_map(|s| members_of(g).map(move |d| (s, d)))
                    .map(|(s, d)| source.size(s, d) as u64)
                    .sum();
                let row_total: u64 = members_of(g).map(|s| source.row_sum(s)).sum();
                let col_total: u64 = members_of(g).map(|d| source.col_sum(d)).sum();
                let header = 4 * g_size * (p as u64 - g_size);
                let load = RankLoad {
                    seq_msgs: 1,
                    ov_msgs: (n_groups - 2) as u32,
                    bytes_out: header + row_total - intra,
                    bytes_in: header + col_total - intra,
                    ..Default::default()
                };
                (q, load)
            })
            .collect();
        steps.push(Step { kind: StepKind::HierLeader, loads: leader_loads });
    }

    // Scatter: leaders flatten each non-leader member's column.
    let scatter_loads = sample
        .ranks()
        .iter()
        .map(|&q| {
            let load = if q == leader_of(q) {
                let outbound: u64 =
                    members_of(q / group).filter(|&d| d != q).map(|d| source.col_sum(d)).sum();
                RankLoad {
                    seq_msgs: 1,
                    bytes_out: outbound,
                    copy_bytes: source.col_sum(q),
                    ..Default::default()
                }
            } else {
                RankLoad { bytes_in: source.col_sum(q), ..Default::default() }
            };
            (q, load)
        })
        .collect();
    steps.push(Step { kind: StepKind::HierScatter, loads: scatter_loads });
}

/// Bytes of piece `i` (of `p`) of a `len`-byte block (mirrors
/// `bruck_core::piece_len`).
#[inline]
fn piece_len(len: usize, i: usize, p: usize) -> usize {
    len / p + usize::from(i < len % p)
}

/// P above which Ranka per-rank loads are estimated statistically (exact
/// computation is O(P²) per covered rank).
const RANKA_EXACT_LIMIT: usize = 1024;

/// Steps of the Ranka two-stage exchange.
fn ranka_steps<S: SizeSource + ?Sized>(source: &S, sample: &RankSample, steps: &mut Vec<Step>) {
    let p = source.p();
    // Σ_d piece_i(size(s, d)): piece `i` of every block in row `s`.
    let pieces_row = |s: usize, i: usize| -> u64 {
        (0..p).map(|d| piece_len(source.size(s, d), i, p) as u64).sum()
    };
    let header = 4 * (p as u64) * (p as u64 - 1);

    if p <= RANKA_EXACT_LIMIT {
        let stage1 = sample
            .ranks()
            .iter()
            .map(|&q| {
                let out = header + source.row_sum(q) - pieces_row(q, q);
                let inb = header
                    + (0..p).filter(|&s| s != q).map(|s| pieces_row(s, q)).sum::<u64>();
                (
                    q,
                    RankLoad {
                        seq_msgs: 1,
                        ov_msgs: (p.saturating_sub(2)) as u32,
                        bytes_out: out,
                        bytes_in: inb,
                        ..Default::default()
                    },
                )
            })
            .collect();
        steps.push(Step { kind: StepKind::RankaStage1, loads: stage1 });
        let stage2 = sample
            .ranks()
            .iter()
            .map(|&q| {
                // out: piece q of every (s, d ≠ q) block.
                let all: u64 = (0..p).map(|s| pieces_row(s, q)).sum();
                let own: u64 =
                    (0..p).map(|s| piece_len(source.size(s, q), q, p) as u64).sum();
                let out = all - own;
                // in: from each intermediate i ≠ q, piece i of column q —
                // i.e. everything destined to q except the pieces q already
                // holds itself: col_sum(q) − own.
                let inb = source.col_sum(q) - own;
                (
                    q,
                    RankLoad {
                        seq_msgs: 1,
                        ov_msgs: (p.saturating_sub(2)) as u32,
                        bytes_out: out,
                        bytes_in: inb,
                        ..Default::default()
                    },
                )
            })
            .collect();
        steps.push(Step { kind: StepKind::RankaStage2, loads: stage2 });
    } else {
        // Statistical estimate: total volume from a 32-column sample.
        let cols = 32.min(p);
        let est_total: u64 =
            (0..cols).map(|i| source.col_sum(i * p / cols)).sum::<u64>() / cols as u64
                * p as u64;
        let per_rank = est_total / p as u64 + (p as u64 - 1) / 2;
        let load = RankLoad {
            seq_msgs: 1,
            ov_msgs: (p - 2) as u32,
            bytes_out: header + per_rank,
            bytes_in: header + per_rank,
            ..Default::default()
        };
        for kind in [StepKind::RankaStage1, StepKind::RankaStage2] {
            let mut l = load;
            if kind == StepKind::RankaStage2 {
                l.bytes_out = per_rank;
                l.bytes_in = per_rank;
            }
            steps.push(Step {
                kind,
                loads: sample.ranks().iter().map(|&r| (r, l)).collect(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::DistSource;
    use bruck_workload::Distribution;

    fn src(p: usize, n: usize) -> DistSource {
        DistSource::new(Distribution::Uniform, 42, p, n)
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
        let trace = nonuniform_trace(NonuniformAlgo::TwoPhaseBruck, &s, &RankSample::all(p));
        let data_bytes: u64 = trace
            .steps
            .iter()
            .filter(|st| matches!(st.kind, StepKind::Data(_)))
            .flat_map(|st| st.loads.iter().map(|(_, l)| l.bytes_out))
            .sum();
        let mut expect = 0u64;
        for srk in 0..p {
            for dst in 0..p {
                let offset = (srk + p - dst) % p; // modified direction: d = s − i
                expect += (s.size(srk, dst) as u64) * offset.count_ones() as u64;
            }
        }
        assert_eq!(data_bytes, expect);
    }

    #[test]
    fn sloav_trace_conserves_bytes_across_steps() {
        let p = 12;
        let s = src(p, 64);
        let trace = nonuniform_trace(NonuniformAlgo::Sloav, &s, &RankSample::all(p));
        let data_bytes: u64 = trace
            .steps
            .iter()
            .filter(|st| matches!(st.kind, StepKind::Data(_)))
            .flat_map(|st| st.loads.iter().map(|(_, l)| l.bytes_out))
            .sum();
        let mut expect = 0u64;
        let meta_total: u64 =
            (0..ceil_log2(p)).map(|k| step_block_count(p, k) * 4 * p as u64).sum();
        for srk in 0..p {
            for dst in 0..p {
                let offset = (dst + p - srk) % p; // basic direction: d = s + i
                expect += (s.size(srk, dst) as u64) * offset.count_ones() as u64;
            }
        }
        assert_eq!(data_bytes, expect + meta_total);
    }

    #[test]
    fn padded_trace_moves_n_max_blocks() {
        let p = 8;
        let s = src(p, 50);
        let trace = nonuniform_trace(NonuniformAlgo::PaddedBruck, &s, &RankSample::all(p));
        for step in &trace.steps {
            if let StepKind::UniformData(k) = step.kind {
                let expect = step_block_count(p, k) * s.n_max() as u64;
                for (_, l) in &step.loads {
                    assert_eq!(l.bytes_out, expect, "step {k}");
                }
            }
        }
    }

    #[test]
    fn spread_out_trace_is_row_and_col_sums() {
        let p = 10;
        let s = src(p, 30);
        let trace = nonuniform_trace(NonuniformAlgo::SpreadOut, &s, &RankSample::all(p));
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
        let basic = uniform_trace(UniformAlgo::BasicBruck, p, 32, &sample);
        // rotation + 4 steps + rotation
        assert_eq!(basic.steps.len(), 6);
        let zero_rot = uniform_trace(UniformAlgo::ZeroRotationBruck, p, 32, &sample);
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
        for algo in NonuniformAlgo::ALL {
            let t = nonuniform_trace(algo, &s, &RankSample::all(1));
            assert!(t.steps.is_empty(), "{}", algo.name());
        }
    }

    #[test]
    fn trace_times_are_positive_and_finite() {
        let m = crate::MachineModel::theta_like();
        let s = src(64, 256);
        for algo in NonuniformAlgo::ALL {
            let t = nonuniform_trace(algo, &s, &RankSample::auto(64)).time(&m);
            assert!(t.is_finite() && t > 0.0, "{}: {t}", algo.name());
        }
    }
}
