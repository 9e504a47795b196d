//! Zero Rotation Bruck (§2.1) — the paper's uniform contribution.
//!
//! A synthesis of two tricks: modified Bruck's reversed schedule removes the
//! final rotation, and SLOAV's rotation index array removes the *initial* one
//! — instead of physically rotating the send buffer, the index array
//! `I[j] = (2p − j) % P` maps each working slot `j` to the original send
//! block that the rotation would have placed there. First-time sends read
//! straight out of the user's send buffer through `I`; a received block that
//! must hop again is re-sent from the receive region it arrived in, and one
//! that has arrived for the last time is copied to its slot `j` of the
//! receive buffer (its final home for uniform loads).
//!
//! The loop itself is the radix-`r` one in
//! [`crate::zero_rotation_bruck_radix`]; the paper's algorithm is its `r = 2`
//! point.

use bruck_comm::{CommResult, Communicator};

use crate::radix::zero_rotation_bruck_radix;

/// Zero Rotation Bruck with explicit `memcpy` buffer management.
pub(super) fn zero_rotation_bruck<C: Communicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    block: usize,
) -> CommResult<()> {
    zero_rotation_bruck_radix(comm, sendbuf, recvbuf, block, 2)
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{run_and_check, TEST_SIZES};
    use super::super::AlltoallAlgorithm;
    use super::*;
    use bruck_comm::ThreadComm;

    #[test]
    fn zero_rotation_correct_for_all_sizes() {
        for p in TEST_SIZES {
            run_and_check(AlltoallAlgorithm::ZeroRotationBruck, p, 3);
        }
    }

    #[test]
    fn matches_basic_bruck_output() {
        for p in [3usize, 8, 12] {
            let block = 6;
            let outs = ThreadComm::run(p, |comm| {
                let send = super::super::testutil::fill_sendbuf(comm.rank(), p, block);
                let mut a = vec![0u8; p * block];
                let mut b = vec![0u8; p * block];
                zero_rotation_bruck(comm, &send, &mut a, block).unwrap();
                super::super::basic_bruck(comm, &send, &mut b, block).unwrap();
                (a, b)
            });
            for (a, b) in outs {
                assert_eq!(a, b);
            }
        }
    }
}
