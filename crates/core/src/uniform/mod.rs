//! Uniform all-to-all (`MPI_Alltoall` signature): the Bruck variants surveyed
//! in §2 of the paper plus the linear-time baselines.
//!
//! All functions share the same contract: `sendbuf` and `recvbuf` are
//! contiguous `P × block` byte arrays; after the call, the `i`-th block of
//! `recvbuf` on rank `p` equals the `p`-th block of `sendbuf` on rank `i`.

mod basic;
mod modified;
mod reference;
mod spread_out;
mod zero_copy;

pub use reference::reference_alltoall;

use basic::{basic_bruck, basic_bruck_dt};
use modified::{modified_bruck, modified_bruck_dt};
use spread_out::spread_out_alltoall;
use zero_copy::zero_copy_bruck_dt;

use bruck_comm::{CommError, CommResult, Communicator};

use crate::radix::zero_rotation_bruck_radix;

/// The six Bruck variants of the paper's Figure 2, plus the baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlltoallAlgorithm {
    /// Three-phase store-and-forward Bruck with explicit `memcpy` packing.
    BasicBruck,
    /// Basic Bruck driven by derived datatypes.
    BasicBruckDt,
    /// Bruck without the final rotation, explicit packing.
    ModifiedBruck,
    /// Modified Bruck driven by derived datatypes.
    ModifiedBruckDt,
    /// Datatype-only variant that avoids the per-step local copy.
    ZeroCopyBruckDt,
    /// The paper's synthesis: neither rotation phase (explicit packing); the
    /// `r = 2` point of [`crate::zero_rotation_bruck_radix`].
    ZeroRotationBruck,
    /// Linear-time non-blocking point-to-point exchange.
    SpreadOut,
    /// Naive pairwise oracle used by the test suite.
    Reference,
}

impl AlltoallAlgorithm {
    /// Every variant, in the order the paper's Figure 2 lists them.
    pub const ALL: [AlltoallAlgorithm; 8] = [
        AlltoallAlgorithm::BasicBruck,
        AlltoallAlgorithm::BasicBruckDt,
        AlltoallAlgorithm::ModifiedBruck,
        AlltoallAlgorithm::ModifiedBruckDt,
        AlltoallAlgorithm::ZeroCopyBruckDt,
        AlltoallAlgorithm::ZeroRotationBruck,
        AlltoallAlgorithm::SpreadOut,
        AlltoallAlgorithm::Reference,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            AlltoallAlgorithm::BasicBruck => "BasicBruck",
            AlltoallAlgorithm::BasicBruckDt => "BasicBruck-dt",
            AlltoallAlgorithm::ModifiedBruck => "ModifiedBruck",
            AlltoallAlgorithm::ModifiedBruckDt => "ModifiedBruck-dt",
            AlltoallAlgorithm::ZeroCopyBruckDt => "ZeroCopyBruck-dt",
            AlltoallAlgorithm::ZeroRotationBruck => "ZeroRotationBruck",
            AlltoallAlgorithm::SpreadOut => "SpreadOut",
            AlltoallAlgorithm::Reference => "Reference",
        }
    }
}

/// Dispatch a uniform all-to-all by algorithm id.
pub fn alltoall<C: Communicator + ?Sized>(
    algo: AlltoallAlgorithm,
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    block: usize,
) -> CommResult<()> {
    match algo {
        AlltoallAlgorithm::BasicBruck => basic_bruck(comm, sendbuf, recvbuf, block),
        AlltoallAlgorithm::BasicBruckDt => basic_bruck_dt(comm, sendbuf, recvbuf, block),
        AlltoallAlgorithm::ModifiedBruck => modified_bruck(comm, sendbuf, recvbuf, block),
        AlltoallAlgorithm::ModifiedBruckDt => modified_bruck_dt(comm, sendbuf, recvbuf, block),
        AlltoallAlgorithm::ZeroCopyBruckDt => zero_copy_bruck_dt(comm, sendbuf, recvbuf, block),
        AlltoallAlgorithm::ZeroRotationBruck => {
            zero_rotation_bruck_radix(comm, sendbuf, recvbuf, block, 2)
        }
        AlltoallAlgorithm::SpreadOut => spread_out_alltoall(comm, sendbuf, recvbuf, block),
        AlltoallAlgorithm::Reference => reference_alltoall(comm, sendbuf, recvbuf, block),
    }
}

pub(crate) fn validate_uniform<C: Communicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &[u8],
    block: usize,
) -> CommResult<usize> {
    let p = comm.size();
    let need = p.checked_mul(block).ok_or(CommError::BadArgument("P * block overflows"))?;
    if sendbuf.len() != need {
        return Err(CommError::BadArgument("sendbuf.len() != P * block"));
    }
    if recvbuf.len() != need {
        return Err(CommError::BadArgument("recvbuf.len() != P * block"));
    }
    Ok(p)
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use bruck_comm::ThreadComm;

    /// Deterministic pattern byte for (source, destination, offset-in-block).
    pub fn pattern(src: usize, dst: usize, idx: usize) -> u8 {
        (src.wrapping_mul(131) ^ dst.wrapping_mul(31) ^ idx.wrapping_mul(7)) as u8
    }

    /// Fill rank `src`'s send buffer for `p` ranks with `block`-byte blocks.
    pub fn fill_sendbuf(src: usize, p: usize, block: usize) -> Vec<u8> {
        let mut buf = vec![0u8; p * block];
        for dst in 0..p {
            for idx in 0..block {
                buf[dst * block + idx] = pattern(src, dst, idx);
            }
        }
        buf
    }

    /// Assert the uniform all-to-all postcondition on rank `me`'s recv buffer.
    pub fn check_recvbuf(me: usize, p: usize, block: usize, recvbuf: &[u8]) {
        for src in 0..p {
            for idx in 0..block {
                assert_eq!(
                    recvbuf[src * block + idx],
                    pattern(src, me, idx),
                    "rank {me}: block from {src} at byte {idx}"
                );
            }
        }
    }

    /// Run `algo` on every rank of a `p`-rank communicator and check output.
    pub fn run_and_check(algo: AlltoallAlgorithm, p: usize, block: usize) {
        ThreadComm::run(p, |comm| {
            let me = comm.rank();
            let sendbuf = fill_sendbuf(me, p, block);
            let mut recvbuf = vec![0u8; p * block];
            alltoall(algo, comm, &sendbuf, &mut recvbuf, block).unwrap();
            check_recvbuf(me, p, block, &recvbuf);
        });
    }

    /// The sizes every variant must survive: powers of two, odd, prime, one.
    pub const TEST_SIZES: [usize; 9] = [1, 2, 3, 4, 5, 8, 12, 16, 17];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{uniform_step_tag, SPREAD_TAG};
    use bruck_comm::{EventComm, MsgBuf, SimComm, ThreadComm};

    /// What rank 0 of a P = 2 world gets from `algo` when rank 1 answers its
    /// one step with `len` bytes instead of a 4-byte block, and how many
    /// bytes of that answer are still queued.
    fn against_rogue_peer<C: Communicator + ?Sized>(
        comm: &C,
        algo: AlltoallAlgorithm,
        len: usize,
    ) -> Option<(CommError, Option<usize>)> {
        let tag = match algo {
            AlltoallAlgorithm::SpreadOut | AlltoallAlgorithm::Reference => SPREAD_TAG,
            _ => uniform_step_tag(0),
        };
        if comm.rank() == 1 {
            comm.send_buf(0, tag, MsgBuf::from_vec(vec![1; len])).unwrap();
            comm.recv_buf(0, tag).unwrap();
            return None;
        }
        let mut recvbuf = [0u8; 8];
        let err = alltoall(algo, comm, &[7; 8], &mut recvbuf, 4)
            .expect_err("a malformed step must not be accepted");
        Some((err, comm.probe(1, tag).unwrap()))
    }

    #[test]
    fn a_rogue_peer_gets_a_typed_error_from_every_kernel() {
        // A short step is refused; a long one is refused and stays queued.
        let cases = [
            (2, CommError::BadArgument("short collective payload"), None),
            (6, CommError::Truncated { message_len: 6, buffer_len: 4 }, Some(6)),
        ];
        for algo in AlltoallAlgorithm::ALL {
            for (len, err, leftover) in cases.clone() {
                let (want, case) = (Some((err, leftover)), format!("{} got {len}", algo.name()));
                let got = ThreadComm::run(2, |comm| against_rogue_peer(comm, algo, len));
                assert_eq!(got[0], want, "ThreadComm: {case}");
                let got = SimComm::run(2, 5, |comm| against_rogue_peer(comm, algo, len));
                assert_eq!(got.results[0], want, "SimComm: {case}");
                for workers in [1, 2] {
                    let got = EventComm::run_pooled(2, workers, |comm| {
                        against_rogue_peer(comm, algo, len)
                    });
                    assert_eq!(got[0], want, "EventComm × {workers}: {case}");
                }
            }
        }
    }

    #[test]
    fn dispatcher_rejects_bad_buffer_sizes() {
        bruck_comm::ThreadComm::run(2, |comm| {
            let sendbuf = vec![0u8; 7]; // not 2 * block
            let mut recvbuf = vec![0u8; 8];
            let err = alltoall(AlltoallAlgorithm::BasicBruck, comm, &sendbuf, &mut recvbuf, 4);
            assert!(err.is_err());
        });
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = AlltoallAlgorithm::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), AlltoallAlgorithm::ALL.len());
    }
}
