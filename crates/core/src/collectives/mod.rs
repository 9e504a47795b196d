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
//! ## Tags and spans
//!
//! Each schedule owns a tag block in `common` (0x0800..0x0FFF) and emits
//! one probe span per wire step, so the conformance gauntlet pins message
//! counts, byte volumes, and phase counts against `bruck-model`'s closed
//! forms exactly. Dispatch goes through the algorithm enums here — the
//! schedules are `pub(super)`, so no other module can call one directly.

mod allgatherv;
mod allreduce;
mod reduce_scatter;
mod pat;
mod reference;

pub use reference::{
    pattern_byte, pattern_u64, reference_allgatherv, reference_allreduce,
    reference_reduce_scatter,
};

use bruck_comm::{CommError, CommResult, Communicator, ReduceOp};

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
    /// Recursive halving over a power-of-two core, remainder ranks folded.
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
    /// Recursive doubling on whole vectors — α-optimal, best for small
    /// messages.
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
    match algo {
        AllgathervAlgorithm::Ring => {
            allgatherv::allgatherv_ring(comm, sendbuf, recvbuf, counts, displs)
        }
        AllgathervAlgorithm::Bruck => {
            allgatherv::allgatherv_bruck(comm, sendbuf, recvbuf, counts, displs)
        }
        AllgathervAlgorithm::Pat => {
            pat::pat_allgatherv(comm, sendbuf, recvbuf, counts, displs)
        }
    }
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
    match algo {
        ReduceScatterAlgorithm::Pairwise => {
            reduce_scatter::reduce_scatter_pairwise(comm, sendbuf, recvbuf, counts, op)
        }
        ReduceScatterAlgorithm::RecursiveHalving => {
            reduce_scatter::reduce_scatter_halving(comm, sendbuf, recvbuf, counts, op)
        }
        ReduceScatterAlgorithm::Pat => {
            pat::pat_reduce_scatter(comm, sendbuf, recvbuf, counts, op)
        }
    }
}

/// Vector allreduce, in place: every rank's `buf` (equal length everywhere)
/// becomes the element-wise `op` reduction over all ranks.
pub fn allreduce<C: Communicator + ?Sized>(
    algo: AllreduceAlgorithm,
    comm: &C,
    buf: &mut [u64],
    op: ReduceOp,
) -> CommResult<()> {
    match algo {
        AllreduceAlgorithm::RecursiveDoubling => {
            allreduce::allreduce_doubling(comm, buf, op)
        }
        AllreduceAlgorithm::ReduceScatterAllgather => {
            allreduce::allreduce_rs_ag(comm, buf, op)
        }
    }
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

/// Little-endian wire encoding of a `u64` vector.
pub(crate) fn u64s_to_bytes(vals: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode a little-endian `u64` vector; errors on a length that is not a
/// multiple of 8 (a framing bug, surfaced typed so the chaos stack sees it).
pub(crate) fn bytes_to_u64s(bytes: &[u8]) -> CommResult<Vec<u64>> {
    if bytes.len() % 8 != 0 {
        return Err(CommError::BadArgument("reduce payload not a multiple of 8 bytes"));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            u64::from_le_bytes(w)
        })
        .collect())
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::packed_displs;

    /// Deterministic non-uniform per-rank counts, including zeros.
    pub fn gv_counts(p: usize, seed: u64) -> Vec<usize> {
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
    pub fn gv_input(r: usize, len: usize) -> Vec<u8> {
        (0..len).map(|i| super::reference::pattern_byte(r, i)).collect()
    }

    /// Rank `r`'s reduce-family input vector of `len` elements.
    pub fn rs_input(r: usize, len: usize) -> Vec<u64> {
        (0..len).map(|i| super::reference::pattern_u64(r, i)).collect()
    }

    /// Run one allgatherv schedule on ThreadComm and check it against the
    /// local reference.
    pub fn run_gv(algo: AllgathervAlgorithm, counts: &[usize]) {
        let p = counts.len();
        let displs = packed_displs(counts);
        let inputs: Vec<Vec<u8>> = (0..p).map(|r| gv_input(r, counts[r])).collect();
        let want = reference_allgatherv(&inputs);
        let counts = counts.to_vec();
        let displs2 = displs.clone();
        let inputs2 = inputs.clone();
        let results = bruck_comm::ThreadComm::run(p, move |comm| {
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
    pub fn run_rs(algo: ReduceScatterAlgorithm, counts: &[usize], op: ReduceOp) {
        let p = counts.len();
        let total: usize = counts.iter().sum();
        let inputs: Vec<Vec<u64>> = (0..p).map(|r| rs_input(r, total)).collect();
        let want = reference_reduce_scatter(&inputs, counts, op);
        let counts = counts.to_vec();
        let inputs2 = inputs.clone();
        let results = bruck_comm::ThreadComm::run(p, move |comm| {
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
    pub fn run_ar(algo: AllreduceAlgorithm, p: usize, n: usize, op: ReduceOp) {
        let inputs: Vec<Vec<u64>> = (0..p).map(|r| rs_input(r, n)).collect();
        let want = reference_allreduce(&inputs, op);
        let inputs2 = inputs.clone();
        let results = bruck_comm::ThreadComm::run(p, move |comm| {
            let mut buf = inputs2[comm.rank()].clone();
            allreduce(algo, comm, &mut buf, op).unwrap();
            buf
        });
        for (r, got) in results.iter().enumerate() {
            assert_eq!(got, &want, "{} rank {r} p={p} n={n} {op:?}", algo.name());
        }
    }

    /// World sizes every schedule must survive.
    pub const SIZES: [usize; 8] = [1, 2, 3, 4, 5, 8, 12, 16];
}

#[cfg(test)]
mod tests {
    use super::*;
    use bruck_comm::ThreadComm;

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

    #[test]
    fn u64_wire_round_trips() {
        let vals = vec![0u64, 1, u64::MAX, 0xDEAD_BEEF];
        assert_eq!(bytes_to_u64s(&u64s_to_bytes(&vals)).unwrap(), vals);
        assert!(bytes_to_u64s(&[1, 2, 3]).is_err());
    }
}
