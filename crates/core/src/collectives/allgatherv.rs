//! Non-uniform all-gather schedules: ring and Bruck distance-doubling.
//!
//! Both operate on known counts (the `MPI_Allgatherv` contract), so no
//! length framing travels on the wire. Message and byte volumes are
//! therefore exact closed forms, which the conformance gauntlet pins against
//! `bruck-model`. These (with PAT in the sibling module) are the workspace's
//! only allgatherv implementations.

use bruck_comm::{CommResult, Communicator, MsgBuf};

use crate::common::{add_mod, agv_bruck_tag, agv_ring_tag, ceil_log2, sub_mod};
use crate::probe::span;

/// Ring allgatherv: `P − 1` steps; at step `s` each rank forwards the block
/// it received at step `s − 1` (its own contribution at `s = 0`) to its
/// right neighbor. Each block travels as the same [`MsgBuf`] view end to
/// end — zero payload copies in the runtime, one copy into `recvbuf` per
/// block on arrival.
///
/// Step `s` wire load per rank: one message of `counts[(me − s) mod P]`
/// bytes on tag `agv_ring_tag(s)`.
pub(super) fn allgatherv_ring<C: Communicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    counts: &[usize],
    displs: &[usize],
) -> CommResult<()> {
    let p = comm.size();
    let me = comm.rank();
    recvbuf[displs[me]..displs[me] + counts[me]].copy_from_slice(sendbuf);
    let right = add_mod(me, 1, p);
    let left = sub_mod(me, 1, p);
    let mut outgoing = MsgBuf::copy_from_slice(sendbuf);
    for s in 0..p.saturating_sub(1) {
        let _probe = span("agv_ring.step");
        let incoming =
            comm.sendrecv_buf(right, agv_ring_tag(s as u32), outgoing, left, agv_ring_tag(s as u32))?;
        // The block that arrives at step s originated at (me − s − 1) mod P.
        let src = sub_mod(me, s + 1, p);
        recvbuf[displs[src]..displs[src] + counts[src]].copy_from_slice(incoming.as_slice());
        outgoing = incoming; // forwarded untouched next step: zero-copy
    }
    Ok(())
}

/// Bruck distance-doubling allgatherv: ⌈log₂ P⌉ steps. Before step `k`,
/// rank `q` holds the contributions of the run `q, q+1, …, q+2ᵏ−1` (mod
/// `P`); at step `k` it sends the first `min(2ᵏ, P − 2ᵏ)` blocks of its run
/// to `(q − 2ᵏ) mod P` and appends the same-shaped run received from
/// `(q + 2ᵏ) mod P`.
///
/// Step `k` wire load for rank `q`: one message of
/// `Σ_{j<cnt_k} counts[(q + j) mod P]` bytes on tag `agv_bruck_tag(k)`,
/// with `cnt_k = min(2ᵏ, P − 2ᵏ)`.
pub(super) fn allgatherv_bruck<C: Communicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    counts: &[usize],
    displs: &[usize],
) -> CommResult<()> {
    let p = comm.size();
    let me = comm.rank();
    recvbuf[displs[me]..displs[me] + counts[me]].copy_from_slice(sendbuf);
    for k in 0..ceil_log2(p) {
        let _probe = span("agv_bruck.step");
        let hop = 1usize << k;
        let cnt = hop.min(p - hop);
        let mut payload = Vec::new();
        for j in 0..cnt {
            let src = add_mod(me, j, p);
            payload.extend_from_slice(&recvbuf[displs[src]..displs[src] + counts[src]]);
        }
        let dest = sub_mod(me, hop, p);
        let from = add_mod(me, hop, p);
        let got = comm.sendrecv_buf(
            dest,
            agv_bruck_tag(k),
            MsgBuf::from_vec(payload),
            from,
            agv_bruck_tag(k),
        )?;
        // Scatter the received run — blocks from sources me+2ᵏ … me+2ᵏ+cnt−1
        // — into their slots, slicing the one arrival buffer zero-copy.
        let mut at = 0;
        for j in 0..cnt {
            let src = add_mod(me, hop + j, p);
            let block = got.slice(at..at + counts[src]);
            recvbuf[displs[src]..displs[src] + counts[src]].copy_from_slice(block.as_slice());
            at += counts[src];
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::collectives::testutil::{gv_counts, run_gv, SIZES};
    use crate::collectives::AllgathervAlgorithm;

    #[test]
    fn ring_matches_reference_across_sizes() {
        for p in SIZES {
            for seed in [1u64, 5] {
                run_gv(AllgathervAlgorithm::Ring, &gv_counts(p, seed));
            }
        }
    }

    #[test]
    fn bruck_matches_reference_across_sizes() {
        for p in SIZES {
            for seed in [1u64, 5] {
                run_gv(AllgathervAlgorithm::Bruck, &gv_counts(p, seed));
            }
        }
    }

    #[test]
    fn all_zero_counts_are_legal() {
        for algo in AllgathervAlgorithm::ALL {
            run_gv(algo, &[0, 0, 0, 0, 0]);
        }
    }
}
