//! Property tests: every non-uniform algorithm computes exactly the same
//! exchange as the pairwise reference oracle, over randomized size matrices
//! (including zeros, skew, and non-power-of-two communicators), and every
//! uniform variant agrees with its oracle too.
//!
//! Seeded-random (SplitMix64) rather than `proptest`-driven: the workspace
//! builds hermetically with zero external crates, so each property runs a
//! fixed number of deterministic random cases instead of shrinking searches.
//!
//! Two transport-level invariants ride along with the agreement checks:
//! - **No leaks**: after every algorithm completes on every rank, the world
//!   holds zero undelivered messages and zero drained-but-unremoved match
//!   keys.
//! - **Zero-copy data phase**: every data-phase send (tag below
//!   [`bruck_comm::RESERVED_TAG_BASE`]) goes through the `MsgBuf` path —
//!   no per-message payload copy on the send side; packing regions are the
//!   only copies.

use std::sync::Arc;

use bruck_comm::{Communicator, MeteredComm, ThreadComm, World};
use bruck_core::{alltoall, alltoallv, packed_displs, AlltoallAlgorithm, AlltoallvAlgorithm};
use bruck_workload::{SizeMatrix, SplitMix64};

const CASES: u64 = 24;

/// A random square size matrix with arbitrary (possibly zero) block sizes.
fn random_matrix(rng: &mut SplitMix64) -> SizeMatrix {
    let p = rng.next_range(2, 12) as usize;
    let rows: Vec<Vec<usize>> =
        (0..p).map(|_| (0..p).map(|_| rng.next_usize(200)).collect()).collect();
    SizeMatrix::from_rows(rows)
}

/// Pattern byte for (src, dst, idx): distinct across blocks.
fn pat(src: usize, dst: usize, idx: usize) -> u8 {
    (src.wrapping_mul(101) ^ dst.wrapping_mul(17) ^ idx) as u8
}

/// Run one algorithm over the matrix on an explicit `World` (so the caller
/// can inspect transport state after the run); return each rank's receive
/// buffer.
fn run(algo: AlltoallvAlgorithm, m: &SizeMatrix) -> Vec<Vec<u8>> {
    let p = m.p();
    let world = World::new(p);
    let mut out: Vec<Vec<u8>> = Vec::with_capacity(p);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..p)
            .map(|rank| {
                let world = Arc::clone(&world);
                s.spawn(move || {
                    let comm = ThreadComm::new(world, rank);
                    let me = comm.rank();
                    let sendcounts = m.sendcounts(me);
                    let sdispls = packed_displs(&sendcounts);
                    let mut sendbuf = vec![0u8; sendcounts.iter().sum()];
                    for dst in 0..p {
                        for idx in 0..sendcounts[dst] {
                            sendbuf[sdispls[dst] + idx] = pat(me, dst, idx);
                        }
                    }
                    let recvcounts = m.recvcounts(me);
                    let rdispls = packed_displs(&recvcounts);
                    let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
                    alltoallv(
                        algo, &comm, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts,
                        &rdispls,
                    )
                    .unwrap();
                    recvbuf
                })
            })
            .collect();
        out.extend(handles.into_iter().map(|h| h.join().expect("rank panicked")));
    });
    // World-level leak check: every message delivered, every drained
    // match-queue key removed.
    assert_eq!(world.pending_messages(), 0, "{}: leaked messages", algo.name());
    assert_eq!(world.dead_match_keys(), 0, "{}: leaked match keys", algo.name());
    out
}

/// All eight real algorithms agree with the reference on random inputs.
#[test]
fn all_nonuniform_algorithms_agree() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xA9EE ^ case);
        let m = random_matrix(&mut rng);
        let expect = run(AlltoallvAlgorithm::Reference, &m);
        for algo in [
            AlltoallvAlgorithm::SpreadOut,
            AlltoallvAlgorithm::Vendor,
            AlltoallvAlgorithm::PaddedBruck,
            AlltoallvAlgorithm::PaddedAlltoall,
            AlltoallvAlgorithm::TwoPhaseBruck,
            AlltoallvAlgorithm::Sloav,
            AlltoallvAlgorithm::Hierarchical,
        ] {
            let got = run(algo, &m);
            assert_eq!(got, expect, "case {case}: {} disagrees with reference", algo.name());
        }
    }
}

/// All uniform variants agree with the uniform reference.
#[test]
fn all_uniform_algorithms_agree() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x0F12 ^ case);
        let p = rng.next_range(2, 14) as usize;
        let n = rng.next_usize(48);
        let run_u = |algo: AlltoallAlgorithm| -> Vec<Vec<u8>> {
            ThreadComm::run(p, |comm| {
                let me = comm.rank();
                let mut sendbuf = vec![0u8; p * n];
                for dst in 0..p {
                    for idx in 0..n {
                        sendbuf[dst * n + idx] = pat(me, dst, idx);
                    }
                }
                let mut recvbuf = vec![0u8; p * n];
                alltoall(algo, comm, &sendbuf, &mut recvbuf, n).unwrap();
                recvbuf
            })
        };
        let expect = run_u(AlltoallAlgorithm::Reference);
        for algo in [
            AlltoallAlgorithm::BasicBruck,
            AlltoallAlgorithm::BasicBruckDt,
            AlltoallAlgorithm::ModifiedBruck,
            AlltoallAlgorithm::ModifiedBruckDt,
            AlltoallAlgorithm::ZeroCopyBruckDt,
            AlltoallAlgorithm::ZeroRotationBruck,
            AlltoallAlgorithm::SpreadOut,
        ] {
            let got = run_u(algo);
            assert_eq!(got, expect, "case {case}: {} disagrees with reference", algo.name());
        }
    }
}

/// Non-uniform algorithms degenerate correctly to the uniform case.
#[test]
fn nonuniform_handles_uniform_matrices() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x1D30 ^ case);
        let p = rng.next_range(2, 10) as usize;
        let n = rng.next_usize(64);
        let m = SizeMatrix::uniform(p, n);
        let expect = run(AlltoallvAlgorithm::Reference, &m);
        let got = run(AlltoallvAlgorithm::TwoPhaseBruck, &m);
        assert_eq!(got, expect, "case {case}");
    }
}

/// The zero-copy guarantee: for every algorithm, every data-phase send (all
/// tags below the reserved collective range) travels as a `MsgBuf` view —
/// the transport records no send-side payload copy. The per-step/per-region
/// packs are the only copies, which is exactly the paper's "pack once"
/// model.
#[test]
fn data_phase_sends_are_zero_copy_for_every_algorithm() {
    let m = SizeMatrix::generate(bruck_workload::Distribution::Uniform, 7, 12, 96);
    let p = m.p();
    for algo in AlltoallvAlgorithm::ALL {
        let metrics = ThreadComm::run(p, |comm| {
            let counting = MeteredComm::new(comm);
            let me = counting.rank();
            let sendcounts = m.sendcounts(me);
            let sdispls = packed_displs(&sendcounts);
            let mut sendbuf = vec![0u8; sendcounts.iter().sum()];
            for dst in 0..p {
                for idx in 0..sendcounts[dst] {
                    sendbuf[sdispls[dst] + idx] = pat(me, dst, idx);
                }
            }
            let recvcounts = m.recvcounts(me);
            let rdispls = packed_displs(&recvcounts);
            let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
            alltoallv(
                algo, &counting, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts,
                &rdispls,
            )
            .unwrap();
            counting.metrics()
        });
        let mut data_sends = 0;
        for m in &metrics {
            data_sends += m.logical.sent_msgs;
            assert_eq!(
                m.logical.copied_msgs,
                0,
                "{}: rank {} copied {} data-phase payload bytes on the send path",
                algo.name(),
                m.rank,
                m.logical.copied_bytes
            );
        }
        assert!(data_sends > 0, "{}: expected data-phase traffic", algo.name());
    }
}
