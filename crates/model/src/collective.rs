//! Byte-exact traces of the collective family (`bruck_core::collectives`):
//! non-uniform allgatherv, vector reduce_scatter, vector allreduce, and the
//! PAT schedules.
//!
//! `bruck-core` defines every block schedule once, as a [`Plan`] of one-way
//! steps, and this module prices the plan rather than mirroring its loops:
//! at step `i` rank `q` sends `Σ counts[q + o]` and receives
//! `Σ counts[q − shift + o]` over the step's offsets `o`. Distance-doubling
//! allreduce is priced from `bruck_comm::reduce::doubling_rounds`, the round
//! table its one loop runs. The collective gauntlet runs the real schedules
//! under `MeteredComm` and asserts every per-tag message and byte count
//! matches these traces exactly; the plans' own correctness (every block
//! delivered exactly once) is `bruck-core`'s symbolic property test.

use bruck_comm::reduce::doubling_rounds;
use bruck_comm::ReduceOp;
use bruck_core::common::ar_doubling_tag;
use bruck_core::{
    allgatherv_plan, piece_len, reduce_scatter_plan, AllgathervAlgorithm, AllreduceAlgorithm,
    Plan, ReduceScatterAlgorithm,
};

use crate::trace::{CommTrace, RankLoad, Step, StepKind};
use crate::tracegen::RankSample;

fn coll_step<F: Fn(usize) -> RankLoad>(tag: u32, sample: &RankSample, load: F) -> Step {
    Step {
        kind: StepKind::Coll { tag },
        loads: sample.ranks().iter().map(|&q| (q, load(q))).collect(),
    }
}

/// Price `plan` over per-block wire `bytes`. A gather packs what it sends,
/// unless it forwards the view that just arrived, and copies every arrival
/// into place; a reduce encodes what it sends and folds arrivals in place.
fn price(plan: &Plan, bytes: &[u64], gather: bool, sample: &RankSample) -> Vec<Step> {
    (0..plan.steps.len())
        .map(|i| {
            coll_step(plan.steps[i].tag, sample, |q| {
                let out: u64 = plan.sent(i, q).map(|b| bytes[b]).sum();
                let inc: u64 = plan.received(i, q).map(|b| bytes[b]).sum();
                let packed = if gather && plan.forwards(i) { 0 } else { out };
                RankLoad {
                    seq_msgs: 1,
                    bytes_out: out,
                    bytes_in: inc,
                    copy_bytes: packed + if gather { inc } else { 0 },
                    ..Default::default()
                }
            })
        })
        .collect()
}

/// Byte-exact trace of one allgatherv schedule over per-rank byte `counts`.
pub fn allgatherv_trace(
    algo: AllgathervAlgorithm,
    counts: &[usize],
    sample: &RankSample,
) -> CommTrace {
    let p = counts.len();
    let bytes: Vec<u64> = counts.iter().map(|&c| c as u64).collect();
    CommTrace { p, steps: price(&allgatherv_plan(algo, p), &bytes, true, sample) }
}

/// Byte-exact trace of one reduce_scatter schedule over per-rank *element*
/// `counts` (each element is 8 wire bytes).
pub fn reduce_scatter_trace(
    algo: ReduceScatterAlgorithm,
    counts: &[usize],
    sample: &RankSample,
) -> CommTrace {
    let p = counts.len();
    let bytes: Vec<u64> = counts.iter().map(|&c| 8 * c as u64).collect();
    CommTrace { p, steps: price(&reduce_scatter_plan(algo, p), &bytes, false, sample) }
}

/// Byte-exact trace of one allreduce schedule with `op` over `n`-element
/// vectors on `p` ranks.
pub fn allreduce_trace(
    algo: AllreduceAlgorithm,
    op: ReduceOp,
    p: usize,
    n: usize,
    sample: &RankSample,
) -> CommTrace {
    match algo {
        AllreduceAlgorithm::RecursiveDoubling => {
            let steps = (0u32..)
                .zip(doubling_rounds(p, op))
                .map(|(k, round)| {
                    let bytes = 8 * (n * round.windows()) as u64;
                    coll_step(ar_doubling_tag(k), sample, |_| RankLoad {
                        seq_msgs: 1,
                        bytes_out: bytes,
                        bytes_in: bytes,
                        copy_bytes: bytes,
                        ..Default::default()
                    })
                })
                .collect();
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
            assert!(allreduce_trace(algo, ReduceOp::Sum, 1, 7, &sample(1)).steps.is_empty());
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
            for op in ReduceOp::ALL {
                for step in allreduce_trace(algo, op, p, 29, &sample(p)).steps {
                    let out: u64 = step.loads.iter().map(|(_, l)| l.bytes_out).sum();
                    let inc: u64 = step.loads.iter().map(|(_, l)| l.bytes_in).sum();
                    assert_eq!(out, inc, "{algo:?} {op:?} {:?}", step.kind);
                }
            }
        }
    }

    #[test]
    fn log_schedules_use_log_many_steps() {
        for p in [2usize, 3, 5, 8, 12, 16] {
            let counts = vec![4usize; p];
            let lg = bruck_core::common::ceil_log2(p) as usize;
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
    fn non_powers_of_two_fold_nothing() {
        // P = 12: halving is 4 one-way steps, no fold step; doubling `Sum`
        // is 4 rounds of one window (r = 4 has no bit below 2ᴷ⁻¹), and at
        // P = 7 round 1 carries the second window.
        let t = reduce_scatter_trace(ReduceScatterAlgorithm::RecursiveHalving, &[1; 12], &sample(12));
        assert_eq!(t.wire_tags(), (0..4).rev().map(bruck_core::common::rs_halving_tag).collect::<Vec<_>>());
        let segments: Vec<u64> = t.steps.iter().map(|s| s.load_of(5).unwrap().bytes_out / 8).collect();
        assert_eq!(segments, [4, 4, 2, 1]);
        let bytes = |p, op| -> Vec<u64> {
            let t = allreduce_trace(AllreduceAlgorithm::RecursiveDoubling, op, p, 2, &sample(p));
            t.steps.iter().map(|s| s.load_of(0).unwrap().bytes_out).collect()
        };
        assert_eq!(bytes(12, ReduceOp::Sum), [16; 4]);
        assert_eq!(bytes(7, ReduceOp::Sum), [16, 32, 16]);
        assert_eq!(bytes(7, ReduceOp::Max), [16; 3]);
    }

    #[test]
    fn rs_ag_composition_concatenates_disjoint_tag_blocks() {
        use bruck_core::common::{agv_bruck_tag, rs_halving_tag, RS_PAIRWISE_TAG};
        let t = allreduce_trace(AllreduceAlgorithm::ReduceScatterAllgather, ReduceOp::Sum, 12, 100, &sample(12));
        let tags = t.wire_tags();
        assert!(tags.iter().any(|&t| (rs_halving_tag(0)..ar_doubling_tag(0)).contains(&t)));
        assert!(tags.iter().any(|&t| (agv_bruck_tag(0)..RS_PAIRWISE_TAG).contains(&t)));
    }
}
