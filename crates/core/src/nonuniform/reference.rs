//! Pairwise oracle `alltoallv` used to validate every other variant.

use bruck_comm::{CommResult, Communicator, MsgBuf};

use super::validate_v;
use crate::common::{add_mod, sub_mod, SPREAD_TAG};

/// The closed-form workload pattern: byte `idx` of the block rank `src` sends
/// to rank `dst`. Every test and harness that fills an `alltoall(v)` send
/// side and checks the receive side uses this one definition, so "the right
/// bytes" means the same thing everywhere (the collective family's
/// counterparts are [`crate::pattern_byte`] / [`crate::pattern_u64`]).
pub fn pattern(src: usize, dst: usize, idx: usize) -> u8 {
    (src.wrapping_mul(167) ^ dst.wrapping_mul(59) ^ idx.wrapping_mul(13)) as u8
}

/// Blocking pairwise exchange, structurally unlike the Bruck family.
///
/// Zero-copy send path: the user's send buffer is packed once into a shared
/// region and each peer receives a disjoint slice of it — no per-message
/// allocation.
#[allow(clippy::too_many_arguments)]
pub fn reference_alltoallv<C: Communicator + ?Sized>(
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

    recvbuf[rdispls[me]..rdispls[me] + recvcounts[me]]
        .copy_from_slice(&sendbuf[sdispls[me]..sdispls[me] + sendcounts[me]]);
    if p == 1 {
        return Ok(());
    }
    let packed = MsgBuf::copy_from_slice(sendbuf); // the one pack copy
    for i in 1..p {
        let dest = add_mod(me, i, p);
        let src = sub_mod(me, i, p);
        comm.send_buf(
            dest,
            SPREAD_TAG,
            packed.slice(sdispls[dest]..sdispls[dest] + sendcounts[dest]),
        )?;
        // A longer block stays queued (`Truncated`), a shorter one is typed.
        let block = comm.recv_exact(src, SPREAD_TAG, recvcounts[src])?;
        recvbuf[rdispls[src]..rdispls[src] + recvcounts[src]].copy_from_slice(&block);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{run_and_check, TEST_SIZES};
    use super::super::AlltoallvAlgorithm::Reference;

    #[test]
    fn correct_for_all_communicator_sizes() {
        for p in TEST_SIZES {
            run_and_check(Reference, p, 40, 0x1234);
        }
    }
}
