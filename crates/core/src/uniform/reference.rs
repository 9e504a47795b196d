//! Pairwise oracle implementation used to validate every other variant.

use bruck_comm::{CommResult, Communicator};

use super::validate_uniform;
use crate::common::{add_mod, sub_mod, SPREAD_TAG};

/// Straightforward pairwise exchange: at offset round `i`, send to `p + i`
/// and receive from `p − i`. Structurally unlike the Bruck family (no
/// store-and-forward, no packing), which is what makes it a useful oracle.
pub fn reference_alltoall<C: Communicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    block: usize,
) -> CommResult<()> {
    let p = validate_uniform(comm, sendbuf, recvbuf, block)?;
    let me = comm.rank();

    recvbuf[me * block..(me + 1) * block].copy_from_slice(&sendbuf[me * block..(me + 1) * block]);
    for i in 1..p {
        let dest = add_mod(me, i, p);
        let src = sub_mod(me, i, p);
        comm.send(dest, SPREAD_TAG, &sendbuf[dest * block..(dest + 1) * block])?;
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
    fn reference_correct_for_all_sizes() {
        for p in TEST_SIZES {
            run_and_check(AlltoallAlgorithm::Reference, p, 3);
        }
    }
}
