//! Modified Bruck (§2.1, after Träff et al. [39]): the initial rotation is
//! re-aimed (`R[i] = S[(2p − i) % P]`) and the communication direction is
//! reversed (send to `p − 2^k`, receive from `p + 2^k`) so that blocks land at
//! their final positions without any final rotation.

use bruck_comm::{CommResult, Communicator};
use bruck_datatype::IndexedBlocks;

use super::validate_uniform;
use crate::common::{add_mod, ceil_log2, step_rel_indices, sub_mod, uniform_step_tag};
use crate::probe::span;

/// Modified Bruck with explicit `memcpy` buffer management.
pub(super) fn modified_bruck<C: Communicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    block: usize,
) -> CommResult<()> {
    let p = validate_uniform(comm, sendbuf, recvbuf, block)?;
    let me = comm.rank();

    // Phase 1 — re-aimed rotation: R[i] = S[(2p − i) % P].
    {
        let _probe = span("modified.rotate");
        for i in 0..p {
            let src = ((2 * me + p) - i) % p * block;
            recvbuf[i * block..(i + 1) * block].copy_from_slice(&sendbuf[src..src + block]);
        }
    }

    // Phase 2 — reversed-direction steps on the *relative* indices
    // (i + p) % P; blocks keep their relative index as they hop, so they
    // finish in source order with no final rotation.
    let mut wire = Vec::new();
    for k in 0..ceil_log2(p) {
        let _probe = span("modified.step");
        let hop = 1usize << k;
        let dest = sub_mod(me, hop, p);
        let src = add_mod(me, hop, p);
        wire.clear();
        for i in step_rel_indices(p, k) {
            let abs = add_mod(i, me, p);
            wire.extend_from_slice(&recvbuf[abs * block..(abs + 1) * block]);
        }
        let got = comm.sendrecv(dest, uniform_step_tag(k), &wire, src, uniform_step_tag(k))?;
        let mut at = 0;
        for i in step_rel_indices(p, k) {
            let abs = add_mod(i, me, p);
            recvbuf[abs * block..(abs + 1) * block].copy_from_slice(&got[at..at + block]);
            at += block;
        }
    }
    Ok(())
}

/// Modified Bruck driven by derived datatypes (`ModifiedBruck-dt`).
pub(super) fn modified_bruck_dt<C: Communicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    block: usize,
) -> CommResult<()> {
    let p = validate_uniform(comm, sendbuf, recvbuf, block)?;
    let me = comm.rank();

    for i in 0..p {
        let src = ((2 * me + p) - i) % p * block;
        recvbuf[i * block..(i + 1) * block].copy_from_slice(&sendbuf[src..src + block]);
    }

    for k in 0..ceil_log2(p) {
        let hop = 1usize << k;
        let dest = sub_mod(me, hop, p);
        let src = add_mod(me, hop, p);
        #[expect(clippy::expect_used, reason = "step blocks end inside `recvbuf`")]
        let layout = IndexedBlocks::new(
            step_rel_indices(p, k).map(|i| (add_mod(i, me, p) * block, block)).collect(),
        )
        .expect("in-bounds step layout");
        let mut wire = vec![0u8; layout.packed_len()];
        #[expect(clippy::expect_used, reason = "the wire is `packed_len` long")]
        layout.pack_into(recvbuf, &mut wire).expect("pack step blocks");
        let got = comm.sendrecv(dest, uniform_step_tag(k), &wire, src, uniform_step_tag(k))?;
        #[expect(clippy::expect_used, reason = "peers pack the same layout; a rogue peer panics")]
        layout.unpack_from(&got, recvbuf).expect("unpack step blocks");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{run_and_check, TEST_SIZES};
    use super::super::AlltoallAlgorithm;

    #[test]
    fn modified_bruck_correct_for_all_sizes() {
        for p in TEST_SIZES {
            run_and_check(AlltoallAlgorithm::ModifiedBruck, p, 3);
        }
    }

    #[test]
    fn modified_bruck_dt_correct_for_all_sizes() {
        for p in TEST_SIZES {
            run_and_check(AlltoallAlgorithm::ModifiedBruckDt, p, 4);
        }
    }

    #[test]
    fn single_byte_blocks() {
        run_and_check(AlltoallAlgorithm::ModifiedBruck, 13, 1);
    }
}
