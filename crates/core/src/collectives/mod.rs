//! The wider collective family on the verified substrate: non-uniform
//! `allgatherv`, vector `reduce_scatter`, and vector `allreduce`, each with
//! multiple schedules — ring and Bruck distance-doubling, pairwise exchange
//! and recursive halving/doubling, plus NCCL-style PAT (parallel aggregated
//! trees, arXiv 2506.20252) for all-gather and reduce-scatter.
//!
//! ## Contracts
//!
//! * [`allgatherv`] — rank `i` contributes `counts[i]` bytes; every rank
//!   ends with every contribution at `recvbuf[displs[i]..][..counts[i]]`.
//!   Like `MPI_Allgatherv`, `counts`/`displs` are known on every rank.
//! * [`reduce_scatter`] — every rank holds a `Σ counts` element input
//!   vector; rank `i` ends with the element-wise reduction of segment `i`
//!   (`counts[i]` elements) over all ranks' inputs.
//! * [`allreduce`] — every rank holds an equal-length vector; all ranks end
//!   with its element-wise reduction, in place.
//!
//! Reductions are element-wise [`ReduceOp`] over `u64` — associative and
//! commutative (wrapping sum), so every schedule produces byte-identical
//! results regardless of arrival order.
//!
//! ## One step plan, two executors
//!
//! Every schedule is a sequence of one-way steps: each rank sends one
//! message to `me + shift` and receives one from `me − shift`, at any `P`
//! (the any-`P` family of arXiv 2004.09362; nothing folds a non-power-of-two
//! remainder). The six block schedules are [`Plan`]s, data built by
//! [`allgatherv_plan`] and [`reduce_scatter_plan`], run by one gather and one
//! reduce executor. `allreduce(RecursiveDoubling)` is
//! [`bruck_comm::reduce::allreduce_doubling`], the loop
//! `Communicator::allreduce_u64` also runs; `ReduceScatterAllgather` is
//! halving's reduce plan followed by Bruck's gather plan.
//!
//! ## Tags and spans
//!
//! Each schedule owns a tag block in `common` (0x0800..0x0FFF) and emits
//! one probe span per wire step. `bruck-model` prices the same plans, and
//! the conformance gauntlet pins message counts, byte volumes, and phase
//! counts against those prices exactly. A wrong-length payload on any step
//! is a typed error, never a panic.

mod plan;
mod reference;

pub(crate) use plan::bruck_schedule;
pub use plan::{allgatherv_plan, alltoall_plan, reduce_scatter_plan, Plan, PlanStep};
pub use reference::{
    pattern_byte, pattern_u64, reference_allgatherv, reference_allreduce,
    reference_reduce_scatter,
};

use bruck_comm::reduce::{allreduce_doubling, decode_u64s_into, u64s_to_bytes};
use bruck_comm::{block_on, Blocking, CallOutput, CommError, CommResult, Communicator, Port, ReduceOp};

use crate::common::ar_doubling_tag;
use crate::packed_displs;
use crate::probe::span;

/// Allgatherv schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllgathervAlgorithm {
    /// `P − 1` neighbor hops, each block forwarded zero-copy.
    Ring,
    /// Bruck distance-doubling: ⌈log₂ P⌉ steps, runs of blocks aggregated.
    Bruck,
    /// PAT: one descending-bit binomial tree per source, phases aggregated.
    Pat,
}

impl AllgathervAlgorithm {
    /// Every schedule, cheapest-per-step first.
    pub const ALL: [AllgathervAlgorithm; 3] =
        [AllgathervAlgorithm::Ring, AllgathervAlgorithm::Bruck, AllgathervAlgorithm::Pat];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            AllgathervAlgorithm::Ring => "Ring",
            AllgathervAlgorithm::Bruck => "Bruck doubling",
            AllgathervAlgorithm::Pat => "PAT all-gather",
        }
    }
}

/// Reduce-scatter schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceScatterAlgorithm {
    /// All-pairs exchange: each rank mails every peer its segment directly.
    Pairwise,
    /// Recursive halving: ⌈log₂ P⌉ one-way steps, the transpose of Bruck.
    RecursiveHalving,
    /// PAT: one ascending-bit reduction tree per destination, aggregated.
    Pat,
}

impl ReduceScatterAlgorithm {
    /// Every schedule.
    pub const ALL: [ReduceScatterAlgorithm; 3] = [
        ReduceScatterAlgorithm::Pairwise,
        ReduceScatterAlgorithm::RecursiveHalving,
        ReduceScatterAlgorithm::Pat,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ReduceScatterAlgorithm::Pairwise => "Pairwise",
            ReduceScatterAlgorithm::RecursiveHalving => "Recursive halving",
            ReduceScatterAlgorithm::Pat => "PAT reduce-scatter",
        }
    }
}

/// Allreduce schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllreduceAlgorithm {
    /// Distance doubling on whole vectors, ⌈log₂ P⌉ one-way rounds at any
    /// `P` — α-optimal, best for small messages.
    RecursiveDoubling,
    /// Rabenseifner composition: recursive-halving reduce_scatter of near
    /// equal pieces, then Bruck allgatherv — β-optimal for large vectors.
    ReduceScatterAllgather,
}

impl AllreduceAlgorithm {
    /// Every schedule.
    pub const ALL: [AllreduceAlgorithm; 2] = [
        AllreduceAlgorithm::RecursiveDoubling,
        AllreduceAlgorithm::ReduceScatterAllgather,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            AllreduceAlgorithm::RecursiveDoubling => "Recursive doubling",
            AllreduceAlgorithm::ReduceScatterAllgather => "Reduce-scatter + allgather",
        }
    }
}

/// Non-uniform all-gather: rank `i` contributes `sendbuf` (`counts[i]`
/// bytes); every rank ends with contribution `i` at
/// `recvbuf[displs[i]..][..counts[i]]`.
pub fn allgatherv<C: Communicator + ?Sized>(
    algo: AllgathervAlgorithm,
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    counts: &[usize],
    displs: &[usize],
) -> CommResult<()> {
    validate_gv(comm, sendbuf, recvbuf, counts, displs)?;
    let me = comm.rank();
    recvbuf[displs[me]..displs[me] + counts[me]].copy_from_slice(sendbuf);
    let plan = allgatherv_plan(algo, comm.size());
    let Some(hook) = comm.resumable() else {
        return block_on(plan::gather(&Blocking(comm), &plan, recvbuf, counts, displs));
    };
    let out = hook.call(|port| {
        let (mut recv, counts, displs) = (recvbuf.to_vec(), counts.to_vec(), displs.to_vec());
        Box::pin(async move {
            plan::gather(&port, &plan, &mut recv, &counts, &displs).await?;
            Ok(CallOutput { bytes: recv, counts: Vec::new() })
        })
    })?;
    recvbuf.copy_from_slice(&out.bytes);
    Ok(())
}

/// Vector reduce-scatter: `sendbuf` holds `Σ counts` elements on every
/// rank; `recvbuf` (length `counts[me]`) receives the element-wise `op`
/// reduction of segment `me` over all ranks.
pub fn reduce_scatter<C: Communicator + ?Sized>(
    algo: ReduceScatterAlgorithm,
    comm: &C,
    sendbuf: &[u64],
    recvbuf: &mut [u64],
    counts: &[usize],
    op: ReduceOp,
) -> CommResult<()> {
    validate_rs(comm, sendbuf, recvbuf, counts)?;
    let plan = reduce_scatter_plan(algo, comm.size());
    let Some(hook) = comm.resumable() else {
        return block_on(plan::reduce(&Blocking(comm), &plan, sendbuf, recvbuf, counts, op));
    };
    let len = recvbuf.len();
    let out = hook.call(|port| {
        let (send, counts) = (sendbuf.to_vec(), counts.to_vec());
        Box::pin(async move {
            let mut recv = vec![0u64; len];
            plan::reduce(&port, &plan, &send, &mut recv, &counts, op).await?;
            Ok(CallOutput { bytes: u64s_to_bytes(&recv), counts: Vec::new() })
        })
    })?;
    decode_u64s_into(&out.bytes, recvbuf)?;
    Ok(())
}

/// Vector allreduce, in place: every rank's `buf` (equal length everywhere)
/// becomes the element-wise `op` reduction over all ranks.
pub fn allreduce<C: Communicator + ?Sized>(
    algo: AllreduceAlgorithm,
    comm: &C,
    buf: &mut [u64],
    op: ReduceOp,
) -> CommResult<()> {
    let Some(hook) = comm.resumable() else {
        return block_on(allreduce_on(&Blocking(comm), algo, buf, op));
    };
    let out = hook.call(|port| {
        let mut acc = buf.to_vec();
        Box::pin(async move {
            allreduce_on(&port, algo, &mut acc, op).await?;
            Ok(CallOutput { bytes: u64s_to_bytes(&acc), counts: Vec::new() })
        })
    })?;
    decode_u64s_into(&out.bytes, buf)?;
    Ok(())
}

/// [`allreduce`]'s two schedules over a port.
async fn allreduce_on<P: Port + ?Sized>(
    comm: &P,
    algo: AllreduceAlgorithm,
    buf: &mut [u64],
    op: ReduceOp,
) -> CommResult<()> {
    match algo {
        AllreduceAlgorithm::RecursiveDoubling => {
            allreduce_doubling(comm, buf, op, ar_doubling_tag, || span("ar_doubling.step")).await
        }
        AllreduceAlgorithm::ReduceScatterAllgather => allreduce_rs_ag(comm, buf, op).await,
    }
}

/// Rabenseifner allreduce: recursive-halving [`reduce_scatter`] of near-equal
/// pieces (`⌈n/P⌉` / `⌊n/P⌋` elements), then Bruck [`allgatherv`] of the
/// reduced pieces. Moves `O(8n)` bytes per rank in total instead of `8n` per
/// step — the large-vector schedule. Its wire trace is the two component
/// traces back to back (their tag blocks are disjoint).
async fn allreduce_rs_ag<P: Port + ?Sized>(
    comm: &P,
    buf: &mut [u64],
    op: ReduceOp,
) -> CommResult<()> {
    let p = comm.size();
    let me = comm.rank();
    let n = buf.len();
    // Near-equal pieces, the longer ones first.
    let counts: Vec<usize> = (0..p).map(|i| crate::piece_len(n, i, p)).collect();
    let mut piece = vec![0u64; counts[me]];
    let halving = reduce_scatter_plan(ReduceScatterAlgorithm::RecursiveHalving, p);
    plan::reduce(comm, &halving, buf, &mut piece, &counts, op).await?;

    let byte_counts: Vec<usize> = counts.iter().map(|c| c * 8).collect();
    let byte_displs = packed_displs(&byte_counts);
    let mut gathered = vec![0u8; n * 8];
    gathered[byte_displs[me]..byte_displs[me] + byte_counts[me]]
        .copy_from_slice(&u64s_to_bytes(&piece));
    let bruck = allgatherv_plan(AllgathervAlgorithm::Bruck, p);
    plan::gather(comm, &bruck, &mut gathered, &byte_counts, &byte_displs).await?;
    decode_u64s_into(&gathered, buf)
}

/// Validate an allgatherv argument set.
fn validate_gv<C: Communicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &[u8],
    counts: &[usize],
    displs: &[usize],
) -> CommResult<()> {
    let p = comm.size();
    if counts.len() != p || displs.len() != p {
        return Err(CommError::BadArgument("counts/displs must have length P"));
    }
    if sendbuf.len() != counts[comm.rank()] {
        return Err(CommError::BadArgument("sendbuf length must equal counts[rank]"));
    }
    for i in 0..p {
        if displs[i].checked_add(counts[i]).is_none_or(|end| end > recvbuf.len()) {
            return Err(CommError::BadArgument("recv slot out of bounds"));
        }
    }
    Ok(())
}

/// Validate a reduce_scatter argument set.
fn validate_rs<C: Communicator + ?Sized>(
    comm: &C,
    sendbuf: &[u64],
    recvbuf: &[u64],
    counts: &[usize],
) -> CommResult<()> {
    let p = comm.size();
    if counts.len() != p {
        return Err(CommError::BadArgument("counts must have length P"));
    }
    if sendbuf.len() != counts.iter().sum::<usize>() {
        return Err(CommError::BadArgument("sendbuf length must equal sum of counts"));
    }
    if recvbuf.len() != counts[comm.rank()] {
        return Err(CommError::BadArgument("recvbuf length must equal counts[rank]"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bruck_comm::ThreadComm;

    /// Deterministic non-uniform per-rank counts, including zeros.
    fn gv_counts(p: usize, seed: u64) -> Vec<usize> {
        (0..p)
            .map(|i| {
                let x = (seed.wrapping_mul(31).wrapping_add(i as u64 * 7)) % 13;
                if (i as u64 + seed) % 4 == 0 {
                    0
                } else {
                    x as usize + 1
                }
            })
            .collect()
    }

    /// Rank `r`'s allgatherv contribution bytes.
    fn gv_input(r: usize, len: usize) -> Vec<u8> {
        (0..len).map(|i| super::reference::pattern_byte(r, i)).collect()
    }

    /// Rank `r`'s reduce-family input vector of `len` elements.
    fn rs_input(r: usize, len: usize) -> Vec<u64> {
        (0..len).map(|i| super::reference::pattern_u64(r, i)).collect()
    }

    /// Run one allgatherv schedule on ThreadComm and check it against the
    /// local reference.
    fn run_gv(algo: AllgathervAlgorithm, counts: &[usize]) {
        let p = counts.len();
        let displs = packed_displs(counts);
        let inputs: Vec<Vec<u8>> = (0..p).map(|r| gv_input(r, counts[r])).collect();
        let want = reference_allgatherv(&inputs);
        let counts = counts.to_vec();
        let displs2 = displs.clone();
        let inputs2 = inputs.clone();
        let results = ThreadComm::run(p, move |comm| {
            let me = comm.rank();
            let mut recvbuf = vec![0u8; counts.iter().sum()];
            allgatherv(algo, comm, &inputs2[me], &mut recvbuf, &counts, &displs2).unwrap();
            recvbuf
        });
        for (r, got) in results.iter().enumerate() {
            assert_eq!(got, &want, "{} rank {r} p={p}", algo.name());
        }
    }

    /// Run one reduce_scatter schedule on ThreadComm and check it against
    /// the local reference.
    fn run_rs(algo: ReduceScatterAlgorithm, counts: &[usize], op: ReduceOp) {
        let p = counts.len();
        let total: usize = counts.iter().sum();
        let inputs: Vec<Vec<u64>> = (0..p).map(|r| rs_input(r, total)).collect();
        let want = reference_reduce_scatter(&inputs, counts, op);
        let counts = counts.to_vec();
        let inputs2 = inputs.clone();
        let results = ThreadComm::run(p, move |comm| {
            let me = comm.rank();
            let mut recvbuf = vec![0u64; counts[me]];
            reduce_scatter(algo, comm, &inputs2[me], &mut recvbuf, &counts, op).unwrap();
            recvbuf
        });
        for (r, got) in results.iter().enumerate() {
            assert_eq!(got, &want[r], "{} rank {r} p={p} {op:?}", algo.name());
        }
    }

    /// Run one allreduce schedule on ThreadComm and check it against the
    /// local reference.
    fn run_ar(algo: AllreduceAlgorithm, p: usize, n: usize, op: ReduceOp) {
        let inputs: Vec<Vec<u64>> = (0..p).map(|r| rs_input(r, n)).collect();
        let want = reference_allreduce(&inputs, op);
        let inputs2 = inputs.clone();
        let results = ThreadComm::run(p, move |comm| {
            let mut buf = inputs2[comm.rank()].clone();
            allreduce(algo, comm, &mut buf, op).unwrap();
            buf
        });
        for (r, got) in results.iter().enumerate() {
            assert_eq!(got, &want, "{} rank {r} p={p} n={n} {op:?}", algo.name());
        }
    }

    /// World sizes every schedule must survive.
    const SIZES: [usize; 8] = [1, 2, 3, 4, 5, 8, 12, 16];

    #[test]
    fn every_schedule_matches_reference_across_sizes() {
        for p in SIZES {
            for algo in AllgathervAlgorithm::ALL {
                for seed in [1u64, 5] {
                    run_gv(algo, &gv_counts(p, seed));
                }
            }
            for op in ReduceOp::ALL {
                for algo in ReduceScatterAlgorithm::ALL {
                    run_rs(algo, &gv_counts(p, 3), op);
                }
                for algo in AllreduceAlgorithm::ALL {
                    run_ar(algo, p, 17, op);
                }
            }
        }
    }

    #[test]
    fn empty_and_degenerate_inputs_are_legal() {
        for algo in AllgathervAlgorithm::ALL {
            run_gv(algo, &[0, 0, 0, 0, 0]);
        }
        for algo in ReduceScatterAlgorithm::ALL {
            run_rs(algo, &[0, 3, 0, 1, 0], ReduceOp::Sum);
            run_rs(algo, &[0, 0, 0], ReduceOp::Max);
        }
        for algo in AllreduceAlgorithm::ALL {
            // Empty vector, vector shorter than P, single element.
            run_ar(algo, 5, 0, ReduceOp::Sum);
            run_ar(algo, 5, 3, ReduceOp::Max);
            run_ar(algo, 4, 1, ReduceOp::Min);
        }
    }

    #[test]
    fn allgatherv_rejects_bad_arguments() {
        ThreadComm::run(2, |comm| {
            let mut recv = vec![0u8; 4];
            // counts too short.
            assert!(allgatherv(
                AllgathervAlgorithm::Ring,
                comm,
                &[1u8],
                &mut recv,
                &[1],
                &[0]
            )
            .is_err());
            // sendbuf length mismatch.
            assert!(allgatherv(
                AllgathervAlgorithm::Ring,
                comm,
                &[1u8, 2],
                &mut recv,
                &[1, 1],
                &[0, 1]
            )
            .is_err());
            // recv slot out of bounds.
            assert!(allgatherv(
                AllgathervAlgorithm::Ring,
                comm,
                &[1u8],
                &mut recv,
                &[1, 1],
                &[0, 4]
            )
            .is_err());
            // A displacement whose slot end overflows `usize`.
            assert!(matches!(
                allgatherv(
                    AllgathervAlgorithm::Ring,
                    comm,
                    &[1u8],
                    &mut recv,
                    &[1, 1],
                    &[0, usize::MAX]
                ),
                Err(CommError::BadArgument(_))
            ));
        });
    }

    #[test]
    fn reduce_scatter_rejects_bad_arguments() {
        ThreadComm::run(2, |comm| {
            let send = vec![0u64; 3];
            let mut recv = vec![0u64; 1];
            // counts sum mismatch.
            assert!(reduce_scatter(
                ReduceScatterAlgorithm::Pairwise,
                comm,
                &send,
                &mut recv,
                &[1, 1],
                ReduceOp::Sum
            )
            .is_err());
            // recvbuf length mismatch (wrong on every rank, so no rank
            // proceeds into the wire schedule).
            let mut recv_long = vec![0u64; 5];
            assert!(reduce_scatter(
                ReduceScatterAlgorithm::Pairwise,
                comm,
                &send,
                &mut recv_long,
                &[2, 1],
                ReduceOp::Sum
            )
            .is_err());
        });
    }
}
