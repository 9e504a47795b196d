//! Basic Bruck (§2.1): initial rotation, log(P) steps, final rotation.

use bruck_comm::{CommResult, Communicator};
use bruck_datatype::IndexedBlocks;

use super::validate_uniform;
use crate::collectives::alltoall_plan;
use crate::common::{add_mod, sub_mod};
use crate::probe::span;

/// Basic Bruck with explicit `memcpy` buffer management.
pub(super) fn basic_bruck<C: Communicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    block: usize,
) -> CommResult<()> {
    let p = validate_uniform(comm, sendbuf, recvbuf, block)?;
    let me = comm.rank();

    // Phase 1 — local rotation: R[i] = S[(p + i) % P].
    {
        let _probe = span("basic.rotate");
        for i in 0..p {
            let src = add_mod(me, i, p) * block;
            recvbuf[i * block..(i + 1) * block].copy_from_slice(&sendbuf[src..src + block]);
        }
    }

    // Phase 2 — log(P) exchange steps over the offset bits, upward.
    let plan = alltoall_plan(p, 2, false);
    let mut wire = Vec::new();
    for step in &plan.steps {
        let _probe = span(plan.span);
        wire.clear();
        for &i in &step.offsets {
            wire.extend_from_slice(&recvbuf[i * block..(i + 1) * block]);
        }
        comm.send(add_mod(me, step.shift, p), step.tag, &wire)?;
        let got = comm.recv_exact(sub_mod(me, step.shift, p), step.tag, wire.len())?;
        let mut at = 0;
        for &i in &step.offsets {
            recvbuf[i * block..(i + 1) * block].copy_from_slice(&got[at..at + block]);
            at += block;
        }
    }

    // Phase 3 — final inverse rotation: R'[i] = R[(p − i) % P].
    let _probe = span("basic.final_rotate");
    let staged = recvbuf.to_vec();
    for i in 0..p {
        let from = sub_mod(me, i, p) * block;
        recvbuf[i * block..(i + 1) * block].copy_from_slice(&staged[from..from + block]);
    }
    Ok(())
}

/// Basic Bruck where each step's non-contiguous blocks are described by a
/// derived datatype ([`IndexedBlocks`]) instead of hand-packed (`BasicBruck-dt`
/// in Figure 2).
pub(super) fn basic_bruck_dt<C: Communicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    block: usize,
) -> CommResult<()> {
    let p = validate_uniform(comm, sendbuf, recvbuf, block)?;
    let me = comm.rank();

    for i in 0..p {
        let src = add_mod(me, i, p) * block;
        recvbuf[i * block..(i + 1) * block].copy_from_slice(&sendbuf[src..src + block]);
    }

    for step in &alltoall_plan(p, 2, false).steps {
        // The same layout describes both what we gather to send and where the
        // received blocks scatter (slots are symmetric between the peers).
        #[expect(clippy::expect_used, reason = "step blocks end inside `recvbuf`")]
        let layout =
            IndexedBlocks::new(step.offsets.iter().map(|&i| (i * block, block)).collect())
                .expect("in-bounds step layout");
        let mut wire = vec![0u8; layout.packed_len()];
        #[expect(clippy::expect_used, reason = "the wire is `packed_len` long")]
        layout.pack_into(recvbuf, &mut wire).expect("pack step blocks");
        comm.send(add_mod(me, step.shift, p), step.tag, &wire)?;
        let got = comm.recv_exact(sub_mod(me, step.shift, p), step.tag, wire.len())?;
        #[expect(clippy::expect_used, reason = "`recv_exact` checked the length")]
        layout.unpack_from(&got, recvbuf).expect("unpack step blocks");
    }

    let staged = recvbuf.to_vec();
    for i in 0..p {
        let from = sub_mod(me, i, p) * block;
        recvbuf[i * block..(i + 1) * block].copy_from_slice(&staged[from..from + block]);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{run_and_check, TEST_SIZES};
    use super::super::AlltoallAlgorithm;

    #[test]
    fn basic_bruck_correct_for_all_sizes() {
        for p in TEST_SIZES {
            run_and_check(AlltoallAlgorithm::BasicBruck, p, 3);
        }
    }

    #[test]
    fn basic_bruck_dt_correct_for_all_sizes() {
        for p in TEST_SIZES {
            run_and_check(AlltoallAlgorithm::BasicBruckDt, p, 5);
        }
    }

    #[test]
    fn zero_block_size_is_a_noop() {
        run_and_check(AlltoallAlgorithm::BasicBruck, 4, 0);
    }

    #[test]
    fn large_blocks() {
        run_and_check(AlltoallAlgorithm::BasicBruck, 8, 257);
    }
}
