//! Modified Bruck (§2.1, after Träff et al. [39]): the initial rotation is
//! re-aimed (`R[i] = S[(2p − i) % P]`) and the communication direction is
//! reversed (send to `p − 2^k`, receive from `p + 2^k`) so that blocks land at
//! their final positions without any final rotation.

use bruck_comm::{CommResult, Communicator};
use bruck_datatype::IndexedBlocks;

use super::validate_uniform;
use crate::collectives::alltoall_plan;
use crate::common::{add_mod, sub_mod};
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
    let plan = alltoall_plan(p, 2, true);
    let mut wire = Vec::new();
    for step in &plan.steps {
        let _probe = span("modified.step");
        wire.clear();
        for &i in &step.offsets {
            let abs = add_mod(i, me, p);
            wire.extend_from_slice(&recvbuf[abs * block..(abs + 1) * block]);
        }
        comm.send(add_mod(me, step.shift, p), step.tag, &wire)?;
        let got = comm.recv_exact(sub_mod(me, step.shift, p), step.tag, wire.len())?;
        let mut at = 0;
        for &i in &step.offsets {
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

    for step in &alltoall_plan(p, 2, true).steps {
        #[expect(clippy::expect_used, reason = "step blocks end inside `recvbuf`")]
        let layout = IndexedBlocks::new(
            step.offsets.iter().map(|&i| (add_mod(i, me, p) * block, block)).collect(),
        )
        .expect("in-bounds step layout");
        let mut wire = vec![0u8; layout.packed_len()];
        #[expect(clippy::expect_used, reason = "the wire is `packed_len` long")]
        layout.pack_into(recvbuf, &mut wire).expect("pack step blocks");
        comm.send(add_mod(me, step.shift, p), step.tag, &wire)?;
        let got = comm.recv_exact(sub_mod(me, step.shift, p), step.tag, wire.len())?;
        #[expect(clippy::expect_used, reason = "`recv_exact` checked the length")]
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
