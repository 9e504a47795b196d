//! Ranka–Shankar–Alsabti two-stage algorithm (related work, §6): decompose
//! a non-uniform all-to-all into two *balanced* all-to-alls by splitting
//! every block into `P` near-equal pieces.
//!
//! Stage 1 sends piece `i` of every one of my blocks to intermediate rank
//! `i` (prefixed by my counts row so intermediates can parse); stage 2 has
//! each intermediate forward, to every final destination `d`, the pieces it
//! holds for `d`. Each stage's messages are within one byte per block of
//! `total/P²` — "bounded traffic" — at the cost of moving every byte twice
//! and 2(P−1) messages. The baseline the paper contrasts with log-time
//! approaches.

use bruck_comm::{CommError, CommResult, Communicator, MsgBuf};

use super::validate_v;
use crate::common::{add_mod, sub_mod, RANKA_STAGE1_TAG, RANKA_STAGE2_TAG};

/// Bytes of piece `i` (of `p`) of a `len`-byte block: `len/p`, plus one for
/// the first `len mod p` pieces.
#[inline]
pub fn piece_len(len: usize, i: usize, p: usize) -> usize {
    len / p + usize::from(i < len % p)
}

/// Byte offset of piece `i` within its block.
#[inline]
fn piece_offset(len: usize, i: usize, p: usize) -> usize {
    i * (len / p) + i.min(len % p)
}

/// Two-stage balanced non-uniform all-to-all (same contract as
/// `MPI_Alltoallv`).
#[allow(clippy::too_many_arguments)]
pub(super) fn ranka_two_stage_alltoallv<C: Communicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
    recvbuf: &mut [u8],
    recvcounts: &[usize],
    rdispls: &[usize],
) -> CommResult<()> {
    let p = validate_v(comm, sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls)?;
    let me = comm.rank();

    // ---- Stage 1: scatter pieces to intermediates -----------------------
    // Message to intermediate i: [u32 sendcounts row][piece i of each block].
    #[expect(clippy::expect_used, reason = "the stage-1 header is u32; a 4 GiB block is beyond it")]
    let build_stage1 = |i: usize| -> Vec<u8> {
        let mut msg = Vec::with_capacity(4 * p + sendcounts.iter().sum::<usize>() / p + p);
        for &c in sendcounts {
            msg.extend_from_slice(&u32::try_from(c).expect("block size fits u32").to_le_bytes());
        }
        for dst in 0..p {
            let len = sendcounts[dst];
            let off = sdispls[dst] + piece_offset(len, i, p);
            msg.extend_from_slice(&sendbuf[off..off + piece_len(len, i, p)]);
        }
        msg
    };
    for off in 1..p {
        let i = add_mod(me, off, p);
        comm.isend_buf(i, RANKA_STAGE1_TAG, MsgBuf::from_vec(build_stage1(i)))?;
    }

    // held[s] = (counts row of s, piece `me` of each of s's blocks, packed —
    // kept as a view of the stage-1 message, never re-copied).
    let mut held: Vec<(Vec<usize>, MsgBuf)> = (0..p).map(|_| (Vec::new(), MsgBuf::new())).collect();
    held[me] = parse_stage1(MsgBuf::from_vec(build_stage1(me)), p)?;
    for off in 1..p {
        let s = sub_mod(me, off, p);
        let msg = comm.recv_buf(s, RANKA_STAGE1_TAG)?;
        held[s] = parse_stage1(msg, p)?;
    }

    // ---- Stage 2: forward pieces to final destinations ------------------
    // Message to destination d: piece `me` of block (s → d), s ascending.
    //
    // The offset of d's piece within held[s] is a prefix sum over counts.
    // Recomputing it per (s, d) pair is O(P³) per rank — at P = 32768 that
    // packing loop alone dwarfs the exchange. The send loop visits d in ring
    // order (one ascending run, a wrap, a second ascending run), so
    // per-source cursors advanced in step give the same offsets in O(P²)
    // total.
    let mut cursors = vec![0usize; p];
    let mut cursors_at = 0usize; // cursors[s] == offset of piece `cursors_at` in held[s]
    let mut build_stage2 = |d: usize, held: &[(Vec<usize>, MsgBuf)]| -> Vec<u8> {
        if d < cursors_at {
            cursors.iter_mut().for_each(|c| *c = 0); // ring wrapped
            cursors_at = 0;
        }
        while cursors_at < d {
            for (s, (counts, _)) in held.iter().enumerate() {
                cursors[s] += piece_len(counts[cursors_at], me, p);
            }
            cursors_at += 1;
        }
        let mut msg = Vec::new();
        for (s, (counts, pieces)) in held.iter().enumerate() {
            let off = cursors[s];
            msg.extend_from_slice(&pieces[off..off + piece_len(counts[d], me, p)]);
        }
        msg
    };
    for off in 1..p {
        let d = add_mod(me, off, p);
        let msg = build_stage2(d, &held);
        comm.isend_buf(d, RANKA_STAGE2_TAG, MsgBuf::from_vec(msg))?;
    }

    // Receive from every intermediate; scatter pieces into place.
    let mut place = |i: usize, msg: &[u8]| -> CommResult<()> {
        let mut at = 0;
        for src in 0..p {
            let len = recvcounts[src];
            let pl = piece_len(len, i, p);
            let off = rdispls[src] + piece_offset(len, i, p);
            recvbuf[off..off + pl].copy_from_slice(&msg[at..at + pl]);
            at += pl;
        }
        if at != msg.len() {
            return Err(CommError::BadArgument("stage-2 payload length mismatch"));
        }
        Ok(())
    };
    {
        let own = build_stage2(me, &held);
        place(me, &own)?;
    }
    for off in 1..p {
        let i = sub_mod(me, off, p);
        let msg = comm.recv_buf(i, RANKA_STAGE2_TAG)?;
        place(i, &msg)?;
    }
    Ok(())
}

/// Split a stage-1 message into (counts row, packed-pieces view).
fn parse_stage1(msg: MsgBuf, p: usize) -> CommResult<(Vec<usize>, MsgBuf)> {
    if msg.len() < 4 * p {
        return Err(CommError::BadArgument("stage-1 payload too short"));
    }
    #[expect(clippy::expect_used, reason = "`chunks_exact(4)` yields 4-byte slices")]
    let counts: Vec<usize> = msg[..4 * p]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte count")) as usize)
        .collect();
    let pieces = msg.slice(4 * p..);
    Ok((counts, pieces))
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{run_and_check, run_and_check_matrix, TEST_SIZES};
    use super::super::AlltoallvAlgorithm::RankaTwoStage;
    use super::*;
    use bruck_workload::{Distribution, SizeMatrix};

    #[test]
    fn piece_arithmetic_partitions_blocks() {
        for len in [0usize, 1, 7, 64, 65, 1023] {
            for p in [1usize, 2, 5, 8, 13] {
                let total: usize = (0..p).map(|i| piece_len(len, i, p)).sum();
                assert_eq!(total, len, "len={len} p={p}");
                let mut at = 0;
                for i in 0..p {
                    assert_eq!(piece_offset(len, i, p), at);
                    at += piece_len(len, i, p);
                }
                // Balanced within one byte.
                let max = (0..p).map(|i| piece_len(len, i, p)).max().unwrap();
                let min = (0..p).map(|i| piece_len(len, i, p)).min().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn correct_for_all_communicator_sizes() {
        for p in TEST_SIZES {
            run_and_check(RankaTwoStage, p, 48, 0x2A5A);
        }
    }

    #[test]
    fn correct_for_skewed_and_tiny_blocks() {
        // Blocks smaller than P exercise many zero-length pieces.
        let m = SizeMatrix::generate(Distribution::Uniform, 3, 12, 5);
        run_and_check_matrix(RankaTwoStage, &m);
        let m = SizeMatrix::generate(Distribution::POWER_LAW_STEEP, 3, 10, 200);
        run_and_check_matrix(RankaTwoStage, &m);
    }

    #[test]
    fn zero_blocks() {
        run_and_check_matrix(RankaTwoStage, &SizeMatrix::uniform(6, 0));
    }

    #[test]
    fn stage_messages_are_balanced() {
        use bruck_comm::{Communicator, MeteredComm, ThreadComm};

        // With a skewed matrix, stage messages still differ by at most
        // ~4P header + P bytes of rounding.
        let p = 8;
        let mut rows = vec![vec![0usize; p]; p];
        rows[0][1] = 800; // one huge block
        rows[3][4] = 3;
        let m = SizeMatrix::from_rows(rows);
        let metrics = ThreadComm::run(p, |comm| {
            let counting = MeteredComm::new(comm);
            let me = counting.rank();
            let sendcounts = m.sendcounts(me);
            let sdispls = crate::packed_displs(&sendcounts);
            let sendbuf = vec![0u8; sendcounts.iter().sum()];
            let recvcounts = m.recvcounts(me);
            let rdispls = crate::packed_displs(&recvcounts);
            let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
            ranka_two_stage_alltoallv(
                &counting, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
            )
            .unwrap();
            counting.metrics()
        });
        // Rank 0's stage-1 messages: 800 bytes split into 8 pieces of 100,
        // plus the 4P header each. Count, total and largest send together pin
        // every one of them at exactly that size.
        let piece = (4 * p + 100) as u64;
        let stage1 = metrics[0].sent_for_tag(crate::common::RANKA_STAGE1_TAG);
        assert_eq!(stage1.msgs, (p - 1) as u64);
        assert_eq!(stage1.bytes, (p - 1) as u64 * piece);
        assert_eq!(metrics[0].sent_sizes.max, piece, "{:?}", metrics[0].sent_sizes);
    }
}
