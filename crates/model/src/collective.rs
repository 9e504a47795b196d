//! Closed-form communication traces for the collective family
//! (`bruck_core::collectives`): non-uniform allgatherv, vector
//! reduce_scatter, vector allreduce, and the PAT schedules.
//!
//! Each generator replicates the exact loop arithmetic of its `bruck-core`
//! counterpart — same step order, same per-rank byte sums — without moving
//! payload. The collective gauntlet runs the real schedules under
//! `MeteredComm` and asserts every per-tag message and byte count matches
//! these traces exactly, so any drift between model and implementation
//! fails CI.
//!
//! The generators are keyed by `bruck-core`'s own algorithm enums and tag
//! their steps with `bruck_core::common`'s tag functions: which schedule and
//! which tag are shared facts; which bytes travel at each step is derived
//! here independently.

use bruck_core::common::{
    add_mod, agv_bruck_tag, agv_ring_tag, ar_doubling_tag, ceil_log2, pat_ag_tag, pat_rs_tag,
    rs_halving_tag, sub_mod, AR_FOLD_TAG, AR_UNFOLD_TAG, RS_FOLD_TAG, RS_PAIRWISE_TAG,
    RS_UNFOLD_TAG,
};
use bruck_core::{piece_len, AllgathervAlgorithm, AllreduceAlgorithm, ReduceScatterAlgorithm};

use crate::trace::{CommTrace, RankLoad, Step, StepKind};
use crate::tracegen::RankSample;

/// The power-of-two core size for halving/doubling: largest `2ᵏ ≤ p`.
#[inline]
fn pow2_core(p: usize) -> usize {
    if p.is_power_of_two() {
        p
    } else {
        p.next_power_of_two() / 2
    }
}

/// PAT holder offsets scheduled to send at phase `k` — must match
/// `bruck_core::collectives`' `pat_sender_offsets`.
fn pat_sender_offsets(p: usize, k: u32) -> impl Iterator<Item = usize> {
    let h = 1usize << k;
    (0..p).step_by(2 * h).take_while(move |j| j + h < p)
}

fn coll_step<F: Fn(usize) -> RankLoad>(
    tag: u32,
    pairwise: bool,
    sample: &RankSample,
    load: F,
) -> Step {
    Step {
        kind: StepKind::Coll { tag, pairwise },
        loads: sample.ranks().iter().map(|&q| (q, load(q))).collect(),
    }
}

/// Byte-exact trace of one allgatherv schedule over per-rank byte `counts`.
pub fn allgatherv_trace(
    algo: AllgathervAlgorithm,
    counts: &[usize],
    sample: &RankSample,
) -> CommTrace {
    let p = counts.len();
    let mut steps = Vec::new();
    if p <= 1 {
        return CommTrace { p, steps };
    }
    match algo {
        AllgathervAlgorithm::Ring => {
            // Step s: forward the block received at step s − 1; one hop.
            for s in 0..p - 1 {
                steps.push(coll_step(agv_ring_tag(s as u32), false, sample, |q| {
                    let out = counts[sub_mod(q, s, p)] as u64;
                    let inc = counts[sub_mod(q, s + 1, p)] as u64;
                    RankLoad {
                        seq_msgs: 1,
                        bytes_out: out,
                        bytes_in: inc,
                        // The arrival is copied into recvbuf; the forward
                        // reuses the same buffer (zero-copy).
                        copy_bytes: inc,
                        ..Default::default()
                    }
                }));
            }
        }
        AllgathervAlgorithm::Bruck => {
            for k in 0..ceil_log2(p) {
                let hop = 1usize << k;
                let cnt = hop.min(p - hop);
                steps.push(coll_step(agv_bruck_tag(k), false, sample, |q| {
                    let out: u64 =
                        (0..cnt).map(|j| counts[add_mod(q, j, p)] as u64).sum();
                    let inc: u64 =
                        (0..cnt).map(|j| counts[add_mod(q, hop + j, p)] as u64).sum();
                    RankLoad {
                        seq_msgs: 1,
                        bytes_out: out,
                        bytes_in: inc,
                        // Pack the outgoing run + scatter the incoming one.
                        copy_bytes: out + inc,
                        ..Default::default()
                    }
                }));
            }
        }
        AllgathervAlgorithm::Pat => {
            // Execution order is descending k.
            for k in (0..ceil_log2(p)).rev() {
                let h = 1usize << k;
                steps.push(coll_step(pat_ag_tag(k), false, sample, |q| {
                    let out: u64 = pat_sender_offsets(p, k)
                        .map(|j| counts[sub_mod(q, j, p)] as u64)
                        .sum();
                    let from = sub_mod(q, h, p);
                    let inc: u64 = pat_sender_offsets(p, k)
                        .map(|j| counts[sub_mod(from, j, p)] as u64)
                        .sum();
                    RankLoad {
                        seq_msgs: 1,
                        bytes_out: out,
                        bytes_in: inc,
                        copy_bytes: out + inc,
                        ..Default::default()
                    }
                }));
            }
        }
    }
    CommTrace { p, steps }
}

/// Byte-exact trace of one reduce_scatter schedule over per-rank *element*
/// `counts` (each element is 8 wire bytes).
pub fn reduce_scatter_trace(
    algo: ReduceScatterAlgorithm,
    counts: &[usize],
    sample: &RankSample,
) -> CommTrace {
    let p = counts.len();
    let total: u64 = counts.iter().map(|&c| c as u64).sum();
    let mut steps = Vec::new();
    if p <= 1 {
        return CommTrace { p, steps };
    }
    match algo {
        ReduceScatterAlgorithm::Pairwise => {
            // One all-pairs phase on a single tag: P − 1 serialized
            // sendrecvs, each mailing the input segment of one peer.
            steps.push(coll_step(RS_PAIRWISE_TAG, true, sample, |q| RankLoad {
                seq_msgs: (p - 1) as u32,
                bytes_out: 8 * (total - counts[q] as u64),
                bytes_in: 8 * (total - counts[q] as u64),
                copy_bytes: 8 * (total - counts[q] as u64),
                ..Default::default()
            }));
        }
        ReduceScatterAlgorithm::RecursiveHalving => {
            let m = pow2_core(p);
            let r = p - m;
            // Element counts virtual rank `w < m` answers for post-fold.
            let owned = |w: usize| -> u64 {
                counts[w] as u64 + if w < r { counts[w + m] as u64 } else { 0 }
            };
            if r > 0 {
                steps.push(coll_step(RS_FOLD_TAG, false, sample, |q| {
                    if q >= m {
                        RankLoad { seq_msgs: 1, bytes_out: 8 * total, ..Default::default() }
                    } else if q < r {
                        RankLoad { bytes_in: 8 * total, ..Default::default() }
                    } else {
                        RankLoad::default()
                    }
                }));
            }
            for k in (0..m.trailing_zeros()).rev() {
                let h = 1usize << k;
                steps.push(coll_step(rs_halving_tag(k), false, sample, |q| {
                    if q >= m {
                        return RankLoad::default();
                    }
                    let base = q & !(2 * h - 1);
                    let other_base = if q < base + h { base + h } else { base };
                    let my_base = if other_base == base { base + h } else { base };
                    let out: u64 = (other_base..other_base + h).map(owned).sum();
                    let inc: u64 = (my_base..my_base + h).map(owned).sum();
                    RankLoad {
                        seq_msgs: 1,
                        bytes_out: 8 * out,
                        bytes_in: 8 * inc,
                        copy_bytes: 8 * out,
                        ..Default::default()
                    }
                }));
            }
            if r > 0 {
                steps.push(coll_step(RS_UNFOLD_TAG, false, sample, |q| {
                    if q < r {
                        RankLoad {
                            seq_msgs: 1,
                            bytes_out: 8 * counts[q + m] as u64,
                            ..Default::default()
                        }
                    } else if q >= m {
                        RankLoad { bytes_in: 8 * counts[q] as u64, ..Default::default() }
                    } else {
                        RankLoad::default()
                    }
                }));
            }
        }
        ReduceScatterAlgorithm::Pat => {
            // Execution order is ascending k.
            for k in 0..ceil_log2(p) {
                let h = 1usize << k;
                steps.push(coll_step(pat_rs_tag(k), false, sample, |q| {
                    let out: u64 = (h..p)
                        .step_by(2 * h)
                        .map(|j| counts[sub_mod(q, j, p)] as u64)
                        .sum();
                    let inc: u64 = pat_sender_offsets(p, k)
                        .map(|j| counts[sub_mod(q, j, p)] as u64)
                        .sum();
                    RankLoad {
                        seq_msgs: 1,
                        bytes_out: 8 * out,
                        bytes_in: 8 * inc,
                        copy_bytes: 8 * out,
                        ..Default::default()
                    }
                }));
            }
        }
    }
    CommTrace { p, steps }
}

/// Byte-exact trace of one allreduce schedule over `n`-element vectors on
/// `p` ranks.
pub fn allreduce_trace(
    algo: AllreduceAlgorithm,
    p: usize,
    n: usize,
    sample: &RankSample,
) -> CommTrace {
    let mut steps = Vec::new();
    if p <= 1 {
        return CommTrace { p, steps };
    }
    match algo {
        AllreduceAlgorithm::RecursiveDoubling => {
            let m = pow2_core(p);
            let r = p - m;
            let full = 8 * n as u64;
            if r > 0 {
                steps.push(coll_step(AR_FOLD_TAG, false, sample, |q| {
                    if q >= m {
                        RankLoad { seq_msgs: 1, bytes_out: full, ..Default::default() }
                    } else if q < r {
                        RankLoad { bytes_in: full, ..Default::default() }
                    } else {
                        RankLoad::default()
                    }
                }));
            }
            for k in 0..m.trailing_zeros() {
                steps.push(coll_step(ar_doubling_tag(k), false, sample, |q| {
                    if q < m {
                        RankLoad {
                            seq_msgs: 1,
                            bytes_out: full,
                            bytes_in: full,
                            copy_bytes: full,
                            ..Default::default()
                        }
                    } else {
                        RankLoad::default()
                    }
                }));
            }
            if r > 0 {
                steps.push(coll_step(AR_UNFOLD_TAG, false, sample, |q| {
                    if q < r {
                        RankLoad { seq_msgs: 1, bytes_out: full, ..Default::default() }
                    } else if q >= m {
                        RankLoad { bytes_in: full, ..Default::default() }
                    } else {
                        RankLoad::default()
                    }
                }));
            }
            CommTrace { p, steps }
        }
        AllreduceAlgorithm::ReduceScatterAllgather => {
            // Exactly the two component traces back to back: the halving
            // reduce_scatter of near-equal element pieces, then the Bruck
            // allgatherv of the reduced pieces (8 bytes per element).
            let counts: Vec<usize> = (0..p).map(|i| piece_len(n, i, p)).collect();
            let mut trace = reduce_scatter_trace(ReduceScatterAlgorithm::RecursiveHalving, &counts, sample);
            let byte_counts: Vec<usize> = counts.iter().map(|c| c * 8).collect();
            let ag = allgatherv_trace(AllgathervAlgorithm::Bruck, &byte_counts, sample);
            trace.steps.extend(ag.steps);
            trace
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(p: usize) -> RankSample {
        RankSample::all(p)
    }

    #[test]
    fn empty_world_or_singleton_traces_are_empty() {
        for algo in AllgathervAlgorithm::ALL {
            assert!(allgatherv_trace(algo, &[7], &sample(1)).steps.is_empty());
        }
        for algo in ReduceScatterAlgorithm::ALL {
            assert!(reduce_scatter_trace(algo, &[7], &sample(1)).steps.is_empty());
        }
        for algo in AllreduceAlgorithm::ALL {
            assert!(allreduce_trace(algo, 1, 7, &sample(1)).steps.is_empty());
        }
    }

    #[test]
    fn allgatherv_schedules_move_every_byte_to_every_rank() {
        // Σ bytes_in over the steps must equal Σ counts − own contribution:
        // each schedule delivers every remote block exactly once.
        let counts = [3usize, 0, 7, 2, 5, 1, 4];
        let p = counts.len();
        let total: u64 = counts.iter().map(|&c| c as u64).sum();
        for algo in AllgathervAlgorithm::ALL {
            let t = allgatherv_trace(algo, &counts, &sample(p));
            for q in 0..p {
                let inc: u64 =
                    t.steps.iter().map(|s| s.load_of(q).map_or(0, |l| l.bytes_in)).sum();
                assert_eq!(inc, total - counts[q] as u64, "{algo:?} rank {q}");
            }
        }
    }

    #[test]
    fn traffic_is_globally_balanced() {
        // What all ranks send must equal what all ranks receive, per step.
        let counts = [3usize, 0, 7, 2, 5, 1, 4, 9, 6, 8, 2, 1];
        let p = counts.len();
        for algo in AllgathervAlgorithm::ALL {
            for step in allgatherv_trace(algo, &counts, &sample(p)).steps {
                let out: u64 = step.loads.iter().map(|(_, l)| l.bytes_out).sum();
                let inc: u64 = step.loads.iter().map(|(_, l)| l.bytes_in).sum();
                assert_eq!(out, inc, "{algo:?} {:?}", step.kind);
            }
        }
        for algo in ReduceScatterAlgorithm::ALL {
            for step in reduce_scatter_trace(algo, &counts, &sample(p)).steps {
                let out: u64 = step.loads.iter().map(|(_, l)| l.bytes_out).sum();
                let inc: u64 = step.loads.iter().map(|(_, l)| l.bytes_in).sum();
                assert_eq!(out, inc, "{algo:?} {:?}", step.kind);
            }
        }
        for algo in AllreduceAlgorithm::ALL {
            for step in allreduce_trace(algo, p, 29, &sample(p)).steps {
                let out: u64 = step.loads.iter().map(|(_, l)| l.bytes_out).sum();
                let inc: u64 = step.loads.iter().map(|(_, l)| l.bytes_in).sum();
                assert_eq!(out, inc, "{algo:?} {:?}", step.kind);
            }
        }
    }

    #[test]
    fn log_schedules_use_log_many_steps() {
        for p in [2usize, 3, 5, 8, 12, 16] {
            let counts = vec![4usize; p];
            let lg = ceil_log2(p) as usize;
            assert_eq!(
                allgatherv_trace(AllgathervAlgorithm::Ring, &counts, &sample(p)).steps.len(),
                p - 1
            );
            assert_eq!(
                allgatherv_trace(AllgathervAlgorithm::Bruck, &counts, &sample(p)).steps.len(),
                lg
            );
            assert_eq!(
                allgatherv_trace(AllgathervAlgorithm::Pat, &counts, &sample(p)).steps.len(),
                lg
            );
            assert_eq!(
                reduce_scatter_trace(ReduceScatterAlgorithm::Pat, &counts, &sample(p)).steps.len(),
                lg
            );
        }
    }

    #[test]
    fn pat_sends_one_message_per_phase_per_rank() {
        for p in [2usize, 3, 5, 7, 8, 12, 16, 31] {
            let counts = vec![1usize; p];
            for t in [
                allgatherv_trace(AllgathervAlgorithm::Pat, &counts, &sample(p)),
                reduce_scatter_trace(ReduceScatterAlgorithm::Pat, &counts, &sample(p)),
            ] {
                for step in &t.steps {
                    for (q, l) in &step.loads {
                        assert_eq!(l.seq_msgs, 1, "p={p} rank {q} {:?}", step.kind);
                    }
                }
            }
        }
    }

    #[test]
    fn halving_tags_include_fold_and_unfold_only_when_needed() {
        let t8 = reduce_scatter_trace(ReduceScatterAlgorithm::RecursiveHalving, &[1; 8], &sample(8));
        assert!(!t8.wire_tags().contains(&RS_FOLD_TAG));
        assert!(!t8.wire_tags().contains(&RS_UNFOLD_TAG));
        let t12 = reduce_scatter_trace(ReduceScatterAlgorithm::RecursiveHalving, &[1; 12], &sample(12));
        assert!(t12.wire_tags().contains(&RS_FOLD_TAG));
        assert!(t12.wire_tags().contains(&RS_UNFOLD_TAG));
    }

    #[test]
    fn rs_ag_composition_concatenates_disjoint_tag_blocks() {
        let t = allreduce_trace(AllreduceAlgorithm::ReduceScatterAllgather, 12, 100, &sample(12));
        let tags = t.wire_tags();
        assert!(tags.iter().any(|&t| (rs_halving_tag(0)..RS_FOLD_TAG).contains(&t)));
        assert!(tags.iter().any(|&t| (agv_bruck_tag(0)..RS_PAIRWISE_TAG).contains(&t)));
    }
}
