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
use crate::common::{add_mod, ceil_log2, step_rel_indices, sub_mod, uniform_step_tag};
use crate::probe::span;

/// Where a block with relative index `i` must live *before* its step-`k`
/// send so that its last receive lands in `R`: in `R` iff the number of its
/// remaining participations after step `k` is odd.
#[inline]
fn sends_from_r(i: usize, k: u32) -> bool {
    (i >> (k + 1)).count_ones() % 2 == 1
}

/// Initial placement: `R` iff the block's total participation count is even
/// (so the alternation ends in `R`).
#[inline]
fn starts_in_r(i: usize) -> bool {
    i.count_ones().is_multiple_of(2)
}

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

    // Re-aimed initial rotation, split by participation parity.
    let rotate_probe = span("zero_copy.rotate");
    for abs in 0..p {
        let src = ((2 * me + p) - abs) % p * block;
        let rel = sub_mod(abs, me, p);
        let base = if starts_in_r(rel) { 0 } else { t_base };
        w[base + abs * block..base + (abs + 1) * block].copy_from_slice(&sendbuf[src..src + block]);
    }

    drop(rotate_probe);
    for k in 0..ceil_log2(p) {
        let _probe = span("zero_copy.step");
        let hop = 1usize << k;
        let dest = sub_mod(me, hop, p);
        let src = add_mod(me, hop, p);
        // Send layout: blocks drawn from whichever half currently holds them;
        // receive layout: the opposite half (that's the whole trick — the
        // receive of step k is the send buffer of the block's next step).
        let mut send_blocks = Vec::new();
        let mut recv_blocks = Vec::new();
        for i in step_rel_indices(p, k) {
            let abs = add_mod(i, me, p);
            let (send_base, recv_base) =
                if sends_from_r(i, k) { (0, t_base) } else { (t_base, 0) };
            send_blocks.push((send_base + abs * block, block));
            recv_blocks.push((recv_base + abs * block, block));
        }
        #[expect(clippy::expect_used, reason = "step blocks end inside the work buffer")]
        let send_layout = IndexedBlocks::new(send_blocks).expect("in-bounds send layout");
        #[expect(clippy::expect_used, reason = "step blocks end inside the work buffer")]
        let recv_layout = IndexedBlocks::new(recv_blocks).expect("in-bounds recv layout");
        let mut wire = vec![0u8; send_layout.packed_len()];
        #[expect(clippy::expect_used, reason = "the wire is `packed_len` long")]
        send_layout.pack_into(&w, &mut wire).expect("pack step blocks");
        let got = comm.sendrecv_buf(
            dest,
            uniform_step_tag(k),
            MsgBuf::from_vec(wire),
            src,
            uniform_step_tag(k),
        )?;
        #[expect(clippy::expect_used, reason = "peers pack the same layout; a rogue peer panics")]
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
    use super::*;

    #[test]
    fn zero_copy_correct_for_all_sizes() {
        for p in TEST_SIZES {
            run_and_check(AlltoallAlgorithm::ZeroCopyBruckDt, p, 3);
        }
    }

    #[test]
    fn buffer_parity_rules_are_consistent() {
        // The receive buffer of a block's step k must equal the send buffer
        // of its next participating step k' — otherwise data would be read
        // from the wrong half.
        for i in 1usize..64 {
            let steps: Vec<u32> = (0..7).filter(|&k| i & (1 << k) != 0).collect();
            // First send comes from where the block was initially placed.
            assert_eq!(
                sends_from_r(i, steps[0]),
                starts_in_r(i),
                "initial placement vs first send for rel {i}"
            );
            for pair in steps.windows(2) {
                let recv_into_r_at_k = !sends_from_r(i, pair[0]);
                let send_from_r_at_next = sends_from_r(i, pair[1]);
                assert_eq!(recv_into_r_at_k, send_from_r_at_next, "rel {i} steps {pair:?}");
            }
            // Final receive must land in R.
            assert!(
                !sends_from_r(i, *steps.last().unwrap()),
                "rel {i}: last send must come from T so the receive lands in R"
            );
        }
    }

    #[test]
    fn larger_power_of_two() {
        run_and_check(AlltoallAlgorithm::ZeroCopyBruckDt, 32, 8);
    }
}
