//! Radix-r Bruck: the tunable generalization of the log₂-step algorithms.
//!
//! Bruck's original formulation [9] supports an arbitrary radix `r`: offsets
//! are written in base `r`, and phase `k` performs up to `r − 1` sub-steps —
//! one per non-zero digit value `d`, moving every block whose `k`-th base-`r`
//! digit equals `d` by `d·rᵏ` ranks at once. The number of communication
//! steps grows to `(r−1)·⌈log_r P⌉` while each block is forwarded only
//! `⌈log_r P⌉` times, so the radix dials the latency↔bandwidth trade-off the
//! paper's §3.3 model describes (`r = 2` is the classic algorithm; `r = P`
//! degenerates to spread-out). The paper's conclusion calls for exactly this
//! kind of tunability ("a more rigorous performance model"). The schedule is
//! [`crate::alltoall_plan`], which the non-uniform engine's `radix` knob reads
//! too; this module holds the uniform loop over it (Zero Rotation Bruck,
//! whose `r = 2` point is the paper's algorithm and
//! [`crate::AlltoallAlgorithm::ZeroRotationBruck`]). The bench suite ablates
//! the radix.
//!
//! Zero Rotation Bruck (§2.1) is the paper's uniform contribution, a
//! synthesis of two tricks: modified Bruck's reversed (downward) schedule
//! removes the final rotation, and SLOAV's rotation index array
//! `I[j] = (2p − j) % P` removes the *initial* one — each working slot `j`
//! maps to the original send block the rotation would have placed there, and
//! first-time sends read straight out of the user's send buffer through it.
//!
//! The uniform loop keeps no working image: a block that must hop again
//! stays in the receive region it arrived in (`(region, offset)` per slot,
//! as the engine's unpadded loop does), and a block whose remaining digits
//! are zero is handed to a delivery closure straight off the wire, exactly
//! once. [`zero_rotation_bruck_radix`] delivers into `recvbuf[src · block..]`;
//! the engine's padded path hands in the user's unpadded send blocks, which
//! the first pack of each pads on the wire, and delivers `recvcounts[src]`
//! bytes to `recvbuf[rdispls[src]..]`, which is its padding strip.

use bruck_comm::{block_on, Blocking, CommResult, Communicator, MsgBuf, Port};

use crate::collectives::bruck_schedule;
use crate::common::{add_mod, rotation_index, sub_mod};
use crate::probe::span;
use crate::uniform::validate_uniform;

/// Radix-`r` Zero Rotation Bruck (uniform all-to-all). `radix = 2` is
/// [`crate::AlltoallAlgorithm::ZeroRotationBruck`]. Each block is written to
/// `recvbuf` once, when it arrives for the last time.
pub fn zero_rotation_bruck_radix<C: Communicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    block: usize,
    radix: usize,
) -> CommResult<()> {
    validate_uniform(comm, sendbuf, recvbuf, block)?;
    let slots = full_slots(sendbuf, comm.size(), block);
    block_on(zero_rotation_bruck_deliver(&Blocking(comm), &slots, block, radix, |src, data| {
        recvbuf[src * block..(src + 1) * block].copy_from_slice(data);
    }))?;
    // The self block never travels: I[p] = p.
    let me = comm.rank();
    recvbuf[me * block..(me + 1) * block].copy_from_slice(&sendbuf[me * block..(me + 1) * block]);
    Ok(())
}

/// The `P` full `block`-byte slots of a uniform send buffer, by destination.
pub(crate) fn full_slots(sendbuf: &[u8], p: usize, block: usize) -> Vec<&[u8]> {
    (0..p).map(|dst| &sendbuf[dst * block..(dst + 1) * block]).collect()
}

/// The radix-`r` Zero Rotation Bruck loop over `P` slots of `block` bytes.
/// `slots[dst]` is the original block for rank `dst`, at most `block` bytes:
/// a shorter one travels zero-padded to `block`, the padding written by the
/// sub-step that first packs it, so no padded copy of the input exists.
/// `deliver(src, bytes)` receives the `block`-byte slot from rank `src` once,
/// at the sub-step that finishes it, for every `src` but this rank (the self
/// block never travels; the caller places it).
///
/// Store-and-forward needs no working image: `held[j]` says where in the kept
/// receive regions slot `j`'s block arrived — `(region, offset)` — and until a
/// sub-step delivers it, the slot is still the original send block `I[j]`.
/// The per-step pack is the only copy besides the delivery. An `async fn`
/// over a [`Port`], so the engine's resumed calls await it.
pub(crate) async fn zero_rotation_bruck_deliver<P: Port + ?Sized>(
    comm: &P,
    slots: &[&[u8]],
    block: usize,
    radix: usize,
    mut deliver: impl FnMut(usize, &[u8]),
) -> CommResult<()> {
    let p = comm.size();
    let me = comm.rank();

    // Phase 1 — O(P) rotation index array instead of an O(P·n) data rotation:
    // the whole setup of the algorithm.
    let rot = {
        let _probe = span("zero_rotation.setup");
        rotation_index(me, p)
    };

    let schedule = bruck_schedule(p, radix, true);
    // A block is finished at the last step that holds its slot.
    let (plan, last) = (&schedule.plan, &schedule.last);
    let mut regions: Vec<MsgBuf> = Vec::new();
    let mut held: Vec<Option<(usize, usize)>> = vec![None; p];
    for (k, step) in plan.steps.iter().enumerate() {
        let _probe = span(plan.span);
        // The wire region moves to the transport as a `MsgBuf` without
        // another allocation.
        let len = step.offsets.len() * block;
        let mut wire = Vec::with_capacity(len);
        for (j, &i) in step.offsets.iter().enumerate() {
            let abs = add_mod(i, me, p);
            match held[abs] {
                Some((r, at)) => wire.extend_from_slice(&regions[r][at..at + block]),
                None => {
                    let orig = slots[rot[abs]];
                    assert!(orig.len() <= block, "a slot holds at most `block` bytes");
                    wire.extend_from_slice(orig);
                    wire.resize((j + 1) * block, 0);
                }
            }
        }
        comm.send_buf(add_mod(me, step.shift, p), step.tag, MsgBuf::from_vec(wire))?;
        let got = comm.recv_exact(sub_mod(me, step.shift, p), step.tag, len).await?;
        for (j, &i) in step.offsets.iter().enumerate() {
            let abs = add_mod(i, me, p);
            if last[i] == k {
                deliver(abs, &got[j * block..(j + 1) * block]);
            } else {
                held[abs] = Some((regions.len(), j * block));
            }
        }
        regions.push(got);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonuniform::testutil as nu;
    use crate::uniform::testutil as ut;
    use crate::{alltoall, alltoall_plan, AlltoallAlgorithm, EngineConfig};
    use bruck_comm::ThreadComm;
    use bruck_workload::{Distribution, SizeMatrix};

    fn two_phase_radix(radix: usize, m: &SizeMatrix) {
        nu::run_and_check_config(&EngineConfig { radix, ..EngineConfig::as_two_phase() }, m);
    }

    #[test]
    fn zero_rotation_correct_for_all_sizes() {
        for p in ut::TEST_SIZES {
            ut::run_and_check(AlltoallAlgorithm::ZeroRotationBruck, p, 3);
        }
    }

    #[test]
    fn matches_basic_bruck_output() {
        for p in [3usize, 8, 12] {
            let block = 6;
            let outs = ThreadComm::run(p, |comm| {
                let send = ut::fill_sendbuf(comm.rank(), p, block);
                let mut a = vec![0u8; p * block];
                let mut b = vec![0u8; p * block];
                zero_rotation_bruck_radix(comm, &send, &mut a, block, 2).unwrap();
                alltoall(AlltoallAlgorithm::BasicBruck, comm, &send, &mut b, block).unwrap();
                (a, b)
            });
            for (a, b) in outs {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn uniform_radix_correct_for_many_radices_and_sizes() {
        for p in [2usize, 3, 5, 8, 12, 16, 17, 27] {
            for radix in [2usize, 3, 4, 7, 16] {
                ThreadComm::run(p, |comm| {
                    let me = comm.rank();
                    let sendbuf = ut::fill_sendbuf(me, p, 4);
                    let mut recvbuf = vec![0u8; p * 4];
                    zero_rotation_bruck_radix(comm, &sendbuf, &mut recvbuf, 4, radix).unwrap();
                    ut::check_recvbuf(me, p, 4, &recvbuf);
                });
            }
        }
    }

    #[test]
    fn delivery_sees_every_source_exactly_once() {
        for p in [1usize, 2, 3, 5, 8, 12, 17, 27] {
            for radix in [2usize, 3, 4, 7, 16] {
                for block in [0usize, 3] {
                    ThreadComm::run(p, |comm| {
                        let me = comm.rank();
                        let sendbuf = ut::fill_sendbuf(me, p, block);
                        let slots = full_slots(&sendbuf, p, block);
                        let mut seen = vec![0usize; p];
                        let port = Blocking(comm);
                        block_on(zero_rotation_bruck_deliver(&port, &slots, block, radix, |src, data| {
                            seen[src] += 1;
                            let want: Vec<u8> =
                                (0..block).map(|idx| ut::pattern(src, me, idx)).collect();
                            assert_eq!(data, want, "p={p} radix={radix} src={src}");
                        }))
                        .unwrap();
                        let expect: Vec<usize> = (0..p).map(|src| usize::from(src != me)).collect();
                        assert_eq!(seen, expect, "p={p} radix={radix} block={block} rank {me}");
                    });
                }
            }
        }
    }

    #[test]
    fn two_phase_radix_correct_for_many_radices() {
        for radix in [2usize, 3, 4, 8] {
            for p in [3usize, 8, 12, 16] {
                let m = SizeMatrix::generate(Distribution::Uniform, 31 + radix as u64, p, 48);
                two_phase_radix(radix, &m);
            }
        }
    }

    #[test]
    fn two_phase_radix_handles_skew_and_zeros() {
        let mut rows = vec![vec![0usize; 9]; 9];
        rows[1][6] = 100;
        rows[4][4] = 7;
        rows[8][0] = 1;
        let m = SizeMatrix::from_rows(rows);
        for radix in [3usize, 9] {
            two_phase_radix(radix, &m);
        }
    }

    #[test]
    fn huge_radix_terminates_with_one_phase() {
        // A radix far beyond P has at most P − 1 qualifying digits per phase;
        // the plan must not walk the other ~2⁶⁴.
        let plan = alltoall_plan(8, usize::MAX, true);
        let hops: Vec<(usize, Vec<usize>)> =
            plan.steps.iter().map(|s| (8 - s.shift, s.offsets.clone())).collect();
        assert_eq!(hops, (1..8).map(|d| (d, vec![d])).collect::<Vec<_>>());
        assert_eq!(alltoall_plan(8, 1 << 40, true), plan);
        // And an exchange under a key parsed from outside input completes.
        let cfg = EngineConfig::parse_key(&format!("bruck:r={}", usize::MAX)).unwrap();
        nu::run_and_check_config(&cfg, &SizeMatrix::generate(Distribution::Uniform, 3, 8, 24));
    }

    #[test]
    fn radix_p_degenerates_to_single_phase() {
        // radix ≥ P: one phase, every block moves directly — spread-out-like.
        let p = 8;
        let plan = alltoall_plan(p, p, true);
        assert_eq!(plan.steps.len(), p - 1);
        assert!(plan.steps.iter().all(|s| s.offsets == [p - s.shift]));
        ThreadComm::run(p, |comm| {
            let me = comm.rank();
            let sendbuf = ut::fill_sendbuf(me, p, 3);
            let mut recvbuf = vec![0u8; p * 3];
            zero_rotation_bruck_radix(comm, &sendbuf, &mut recvbuf, 3, p).unwrap();
            ut::check_recvbuf(me, p, 3, &recvbuf);
        });
    }
}
