//! Property tests for the message-passing runtime: ordering, matching, and
//! collective correctness over randomized inputs.
//!
//! Seeded-random (SplitMix64) rather than `proptest`-driven: the workspace
//! builds hermetically with zero external crates, so each property runs a
//! fixed number of deterministic random cases instead of shrinking searches.

use bruck_comm::{Communicator, ReduceOp, ThreadComm};
use bruck_workload::SplitMix64;

const CASES: u64 = 16;

/// Per-(source, tag) FIFO holds for arbitrary interleavings of tags.
#[test]
fn fifo_per_tag_under_random_schedules() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xF1F0 ^ case);
        let n = rng.next_range(1, 60) as usize;
        let tags: Vec<u32> = (0..n).map(|_| rng.next_u64() as u32 % 4).collect();
        let seed = rng.next_u64();
        let tags2 = tags.clone();
        ThreadComm::run(2, move |comm| {
            if comm.rank() == 0 {
                // Send sequence numbers per tag, in program order.
                let mut seq = [0u8; 4];
                for &t in &tags {
                    comm.send(1, t, &[seq[t as usize]]).unwrap();
                    seq[t as usize] += 1;
                }
            } else {
                // Receive in a *different* order (tag-major, seeded offset):
                // within each tag the sequence must still be FIFO.
                let mut order: Vec<u32> = (0..4).collect();
                order.rotate_left((seed % 4) as usize);
                for t in order {
                    let count = tags2.iter().filter(|&&x| x == t).count();
                    for expect in 0..count {
                        let got = comm.recv(0, t).unwrap();
                        assert_eq!(got, vec![expect as u8], "tag {t}");
                    }
                }
            }
        });
    }
}

/// allreduce agrees with a sequential fold for random values and sizes.
#[test]
fn allreduce_matches_sequential_fold() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xA11D ^ case);
        let p = rng.next_range(1, 10) as usize;
        let vals: Vec<u64> = (0..p).map(|_| rng.next_u64()).collect();
        for op in [ReduceOp::Max, ReduceOp::Min, ReduceOp::Sum] {
            let expect = vals.iter().skip(1).fold(vals[0], |a, &b| op.apply(a, b));
            let vals2 = vals.clone();
            let out =
                ThreadComm::run(p, move |comm| comm.allreduce_u64(vals2[comm.rank()], op).unwrap());
            assert!(out.iter().all(|&v| v == expect), "{op:?} case {case}");
        }
    }
}

/// The counts handshake is an exact transpose for arbitrary matrices.
#[test]
fn alltoall_counts_transposes() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xC025 ^ case);
        let p = rng.next_range(1, 8) as usize;
        let matrix: Vec<Vec<usize>> =
            (0..p).map(|_| (0..p).map(|_| rng.next_usize(10_000)).collect()).collect();
        let m2 = matrix.clone();
        let out = ThreadComm::run(p, move |comm| comm.alltoall_counts(&m2[comm.rank()]).unwrap());
        for (me, got) in out.iter().enumerate() {
            for (src, &c) in got.iter().enumerate() {
                assert_eq!(c, matrix[src][me], "case {case}");
            }
        }
    }
}

/// Zero-copy path: random fan-outs of disjoint slices of one packed region
/// deliver exactly the slice bytes, and the compat path observes them
/// identically.
#[test]
fn random_slice_fanout_roundtrips() {
    use bruck_comm::MsgBuf;
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x51CE ^ case);
        let p = rng.next_range(2, 9) as usize;
        let block = rng.next_range(1, 64) as usize;
        ThreadComm::run(p, move |comm| {
            let me = comm.rank();
            // One packed region per rank: block for dest 0, dest 1, ...
            let mut packed = Vec::with_capacity(p * block);
            for d in 0..p {
                packed.extend(std::iter::repeat((me * 31 + d) as u8).take(block));
            }
            let region = MsgBuf::from_vec(packed);
            for d in 0..p {
                comm.send_buf(d, 77, region.slice(d * block..(d + 1) * block)).unwrap();
            }
            for s in 0..p {
                let got = comm.recv_buf(s, 77).unwrap();
                assert_eq!(got.len(), block);
                assert!(got.iter().all(|&b| b == (s * 31 + me) as u8));
            }
        });
    }
}
