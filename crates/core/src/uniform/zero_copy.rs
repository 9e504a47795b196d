//! Zero-copy Bruck (§2.1, after Träff et al. [39]), datatype-only.
//!
//! Modified Bruck copies each received block back into the working buffer at
//! the end of every step. Zero-copy avoids that local copy by *alternating*
//! between the working buffer `R` and a temporary buffer `T`: a block's
//! remaining participation count determines which buffer it currently lives
//! in, arranged so its final receive always lands in `R`.
//!
//! Real MPI implements this with `MPI_Type_create_struct` over absolute
//! addresses spanning both buffers. We model that by carving `R` and `T` out
//! of one allocation and describing each step's send/receive sets as
//! [`IndexedBlocks`] layouts over it — which is also why this variant pays the
//! datatype engine's bookkeeping on every step and, as the paper's Figure 2
//! observes, ends up the slowest variant for small blocks.

use bruck_comm::{CommResult, Communicator, MsgBuf};
use bruck_datatype::IndexedBlocks;

use super::validate_uniform;
use crate::collectives::alltoall_plan;
use crate::common::{add_mod, sub_mod};
use crate::probe::span;

/// Zero-copy Bruck (`ZeroCopyBruck-dt` in Figure 2).
pub(super) fn zero_copy_bruck_dt<C: Communicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    block: usize,
) -> CommResult<()> {
    let p = validate_uniform(comm, sendbuf, recvbuf, block)?;
    let me = comm.rank();

    // One allocation, two logical halves: R = w[0..P*block], T = the rest.
    // Displacements in a layout can then address either half, standing in
    // for MPI's absolute-address struct types.
    let t_base = p * block;
    let mut w = vec![0u8; 2 * p * block];

    // `left[i]` counts the steps slot `i` still takes part in, and its block
    // lives in `R` iff that count is even: every step moves it to the other
    // half, so it is received where its next step sends it from, and its
    // last receive lands in `R`.
    let plan = alltoall_plan(p, 2, true);
    let mut left = vec![0usize; p];
    for step in &plan.steps {
        for &i in &step.offsets {
            left[i] += 1;
        }
    }

    // Re-aimed initial rotation, split by participation parity.
    let rotate_probe = span("zero_copy.rotate");
    for abs in 0..p {
        let src = ((2 * me + p) - abs) % p * block;
        let base = if left[sub_mod(abs, me, p)].is_multiple_of(2) { 0 } else { t_base };
        w[base + abs * block..base + (abs + 1) * block].copy_from_slice(&sendbuf[src..src + block]);
    }

    drop(rotate_probe);
    for step in &plan.steps {
        let _probe = span("zero_copy.step");
        // Send layout: blocks drawn from whichever half currently holds them;
        // receive layout: the opposite half (that's the whole trick — the
        // receive of step k is the send buffer of the block's next step).
        let mut send_blocks = Vec::new();
        let mut recv_blocks = Vec::new();
        for &i in &step.offsets {
            let abs = add_mod(i, me, p);
            let (send_base, recv_base) =
                if left[i].is_multiple_of(2) { (0, t_base) } else { (t_base, 0) };
            left[i] -= 1;
            send_blocks.push((send_base + abs * block, block));
            recv_blocks.push((recv_base + abs * block, block));
        }
        #[expect(clippy::expect_used, reason = "step blocks end inside the work buffer")]
        let send_layout = IndexedBlocks::new(send_blocks).expect("in-bounds send layout");
        #[expect(clippy::expect_used, reason = "step blocks end inside the work buffer")]
        let recv_layout = IndexedBlocks::new(recv_blocks).expect("in-bounds recv layout");
        let len = send_layout.packed_len();
        let mut wire = vec![0u8; len];
        #[expect(clippy::expect_used, reason = "the wire is `packed_len` long")]
        send_layout.pack_into(&w, &mut wire).expect("pack step blocks");
        comm.send_buf(add_mod(me, step.shift, p), step.tag, MsgBuf::from_vec(wire))?;
        let got = comm.recv_exact(sub_mod(me, step.shift, p), step.tag, len)?;
        #[expect(clippy::expect_used, reason = "`recv_exact` checked the length")]
        recv_layout.unpack_from(&got, &mut w).expect("unpack step blocks");
    }

    // Every block's final receive (and the never-sent self block) lands in R.
    recvbuf.copy_from_slice(&w[..t_base]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{run_and_check, TEST_SIZES};
    use super::super::AlltoallAlgorithm;

    #[test]
    fn zero_copy_correct_for_all_sizes() {
        for p in TEST_SIZES {
            run_and_check(AlltoallAlgorithm::ZeroCopyBruckDt, p, 3);
        }
    }

    #[test]
    fn larger_power_of_two() {
        run_and_check(AlltoallAlgorithm::ZeroCopyBruckDt, 32, 8);
    }
}
