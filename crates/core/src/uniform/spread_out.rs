//! Spread-out uniform all-to-all: the linear-time baseline (Kang et al.
//! [26]; what MPICH-family libraries use for larger blocks).

use bruck_comm::{CommResult, Communicator};

use super::validate_uniform;
use crate::common::{add_mod, sub_mod, SPREAD_TAG};
use crate::probe::span;

/// Non-blocking point-to-point exchange: every rank posts P−1 sends and P−1
/// receives, with peers spread out by rank offset so no destination is
/// hammered by all sources at once.
pub(super) fn spread_out_alltoall<C: Communicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    block: usize,
) -> CommResult<()> {
    let p = validate_uniform(comm, sendbuf, recvbuf, block)?;
    let me = comm.rank();

    // Self block first (a local copy, as MPI implementations do).
    recvbuf[me * block..(me + 1) * block].copy_from_slice(&sendbuf[me * block..(me + 1) * block]);

    {
        let _probe = span("spread_out.send");
        for i in 1..p {
            let dest = add_mod(me, i, p);
            comm.isend(dest, SPREAD_TAG, &sendbuf[dest * block..(dest + 1) * block])?;
        }
    }
    let _probe = span("spread_out.recv");
    for i in 1..p {
        let src = sub_mod(me, i, p);
        let got = comm.recv_exact(src, SPREAD_TAG, block)?;
        recvbuf[src * block..(src + 1) * block].copy_from_slice(&got);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{run_and_check, TEST_SIZES};
    use super::super::AlltoallAlgorithm;

    #[test]
    fn spread_out_correct_for_all_sizes() {
        for p in TEST_SIZES {
            run_and_check(AlltoallAlgorithm::SpreadOut, p, 3);
        }
    }

    #[test]
    fn spread_out_with_large_blocks() {
        run_and_check(AlltoallAlgorithm::SpreadOut, 9, 1024);
    }
}
