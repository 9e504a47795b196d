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
//! kind of tunability ("a more rigorous performance model"). This module
//! holds the schedule, the uniform loop (Zero Rotation Bruck, whose `r = 2`
//! point is the paper's algorithm) and the step enumeration the non-uniform
//! engine's `radix` knob shares with it; the bench suite ablates the radix.
//!
//! The uniform loop keeps no working image: a block that must hop again
//! stays in the receive region it arrived in (`(region, offset)` per slot,
//! as the engine's unpadded loop does), and a block whose remaining digits
//! are zero is handed to a delivery closure straight off the wire, exactly
//! once. [`zero_rotation_bruck_radix`] delivers into `recvbuf[src · block..]`;
//! the engine's padded path hands in the user's unpadded send blocks, which
//! the first pack of each pads on the wire, and delivers `recvcounts[src]`
//! bytes to `recvbuf[rdispls[src]..]`, which is its padding strip.

use bruck_comm::{block_on, Blocking, CommError, CommResult, Communicator, MsgBuf, Port};

use crate::common::{add_mod, rotation_index, sub_mod, uniform_step_tag};
use crate::probe::span;
use crate::uniform::validate_uniform;

/// The sub-steps of a radix-`r` schedule over `p` ranks: `(step_index,
/// weight, digit)` triples in execution order. `step_index` is globally
/// unique and doubles as the wire-tag offset.
pub fn radix_schedule(p: usize, radix: usize) -> Vec<(u32, usize, usize)> {
    assert!(radix >= 2, "radix must be at least 2");
    let mut steps = Vec::new();
    let mut weight = 1usize;
    let mut idx = 0u32;
    while weight < p {
        // Only digits with `d·weight < P` move anything, so a phase has at
        // most `⌈P/weight⌉ − 1` sub-steps however large the radix is.
        for d in 1..radix {
            if d.saturating_mul(weight) >= p {
                break;
            }
            steps.push((idx, weight, d));
            idx += 1;
        }
        weight = weight.saturating_mul(radix);
    }
    steps
}

/// Relative indices transmitted at sub-step `(weight, d)`: all `i ∈ (0, P)`
/// whose digit at `weight` equals `d`, ascending, written over `out`. They
/// come in runs of `weight` starting at `d·weight`, one run per period
/// `weight·radix`, so enumeration is by stride — no per-index division.
pub fn radix_step_rel_indices(
    p: usize,
    weight: usize,
    d: usize,
    radix: usize,
    out: &mut Vec<usize>,
) {
    out.clear();
    let period = weight.saturating_mul(radix);
    let mut run = d.saturating_mul(weight);
    while run < p {
        out.extend(run.max(1)..run.saturating_add(weight).min(p));
        run = run.saturating_add(period);
    }
}

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

    let mut regions: Vec<MsgBuf> = Vec::new();
    let mut held: Vec<Option<(usize, usize)>> = vec![None; p];
    let mut rel: Vec<usize> = Vec::new();
    for (idx, weight, d) in radix_schedule(p, radix) {
        let _probe = span("zero_rotation.step");
        let hop = d * weight; // < P by construction of the schedule
        let dest = sub_mod(me, hop, p);
        let src = add_mod(me, hop, p);
        radix_step_rel_indices(p, weight, d, radix, &mut rel);
        // The wire region moves to the transport as a `MsgBuf` without
        // another allocation.
        let len = rel.len() * block;
        let mut wire = Vec::with_capacity(len);
        for (k, &i) in rel.iter().enumerate() {
            let abs = add_mod(i, me, p);
            match held[abs] {
                Some((r, at)) => wire.extend_from_slice(&regions[r][at..at + block]),
                None => {
                    let orig = slots[rot[abs]];
                    assert!(orig.len() <= block, "a slot holds at most `block` bytes");
                    wire.extend_from_slice(orig);
                    wire.resize((k + 1) * block, 0);
                }
            }
        }
        comm.send_buf(dest, uniform_step_tag(idx), MsgBuf::from_vec(wire))?;
        let got = comm.recv_match(src, uniform_step_tag(idx), usize::MAX).await?;
        if got.len() != len {
            return Err(CommError::BadArgument("uniform step length mismatch"));
        }
        // A block whose relative index is below this needs no further hop:
        // every digit above the sub-step's position is zero.
        let done_bound = weight.saturating_mul(radix);
        for (k, &i) in rel.iter().enumerate() {
            let abs = add_mod(i, me, p);
            if i < done_bound {
                deliver(abs, &got[k * block..(k + 1) * block]);
            } else {
                held[abs] = Some((regions.len(), k * block));
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
    use crate::EngineConfig;
    use bruck_comm::ThreadComm;
    use bruck_workload::{Distribution, SizeMatrix};

    /// The base-`radix` digit of `i` at `weight`.
    fn radix_digit(i: usize, weight: usize, radix: usize) -> usize {
        (i / weight) % radix
    }

    fn two_phase_radix(radix: usize, m: &SizeMatrix) {
        nu::run_and_check_config(&EngineConfig { radix, ..EngineConfig::as_two_phase() }, m);
    }

    #[test]
    fn schedule_covers_every_offset_exactly_by_its_digits() {
        for p in [2usize, 3, 8, 12, 16, 27, 31] {
            for radix in [2usize, 3, 4, 8] {
                for i in 1..p {
                    let mut moved = 0usize;
                    for (_, weight, d) in radix_schedule(p, radix) {
                        if radix_digit(i, weight, radix) == d {
                            moved += d * weight;
                        }
                    }
                    assert_eq!(moved, i, "p={p} radix={radix} offset {i}");
                }
            }
        }
    }

    #[test]
    fn radix_two_schedule_matches_binary_steps() {
        let p = 16;
        let steps = radix_schedule(p, 2);
        assert_eq!(steps.len(), 4);
        for (k, (idx, weight, d)) in steps.iter().enumerate() {
            assert_eq!(*idx, k as u32);
            assert_eq!(*weight, 1 << k);
            assert_eq!(*d, 1);
        }
    }

    #[test]
    fn step_count_grows_with_radix_but_forwarding_shrinks() {
        let p = 256;
        assert_eq!(radix_schedule(p, 2).len(), 8); // log2(256)
        assert_eq!(radix_schedule(p, 4).len(), 12); // 3 digits × 4 phases
        assert_eq!(radix_schedule(p, 16).len(), 30); // 15 digits × 2 phases
        // Max forwards per block = number of phases.
        let phases = |r: usize| {
            radix_schedule(p, r).iter().map(|(_, w, _)| w).collect::<std::collections::HashSet<_>>().len()
        };
        assert_eq!(phases(2), 8);
        assert_eq!(phases(4), 4);
        assert_eq!(phases(16), 2);
    }

    #[test]
    fn schedule_takes_r_minus_one_steps_in_each_of_log_r_p_phases() {
        // ⌈log_r P⌉ phases of at most r − 1 sub-steps; exactly
        // (r − 1)·log_r P of them when P is a power of the radix — the α and
        // β multipliers the model's radix trade-off rests on.
        for p in [2usize, 5, 16, 27, 64, 100, 729] {
            for radix in [2usize, 3, 4, 8, 1 << 40, usize::MAX] {
                let sched = radix_schedule(p, radix);
                let mut phases = 0usize;
                let mut reach = 1usize;
                while reach < p {
                    reach = reach.saturating_mul(radix);
                    phases += 1;
                }
                let weights: std::collections::BTreeSet<usize> =
                    sched.iter().map(|&(_, w, _)| w).collect();
                assert_eq!(weights.len(), phases, "p={p} radix={radix}");
                assert!(sched.len() <= (radix - 1).saturating_mul(phases), "p={p} radix={radix}");
                if reach == p {
                    assert_eq!(sched.len(), (radix - 1) * phases, "p={p} radix={radix}");
                }
                // Step indices are the wire-tag offsets: dense from zero.
                assert!(sched.iter().enumerate().all(|(i, &(idx, _, _))| idx as usize == i));
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
    fn stride_enumeration_matches_the_digit_definition() {
        let mut got = Vec::new();
        for p in [1usize, 2, 3, 8, 12, 17, 27, 100] {
            for radix in [2usize, 3, 4, 8, 100, usize::MAX] {
                for (_, weight, d) in radix_schedule(p, radix) {
                    radix_step_rel_indices(p, weight, d, radix, &mut got);
                    let want: Vec<usize> =
                        (1..p).filter(|&i| radix_digit(i, weight, radix) == d).collect();
                    assert_eq!(got, want, "p={p} radix={radix} weight={weight} d={d}");
                }
            }
        }
        // Digit 0 is never scheduled, but the enumeration still skips the
        // self block if asked for it.
        radix_step_rel_indices(9, 1, 0, 3, &mut got);
        assert_eq!(got, [3, 6]);
    }

    #[test]
    fn huge_radix_terminates_with_one_phase() {
        // A radix far beyond P has at most P − 1 qualifying digits per phase;
        // the schedule must not walk the other ~2⁶⁴.
        let sched = radix_schedule(8, usize::MAX);
        assert_eq!(sched, (1..8).map(|d| (d as u32 - 1, 1, d)).collect::<Vec<_>>());
        assert_eq!(radix_schedule(8, 1 << 40), sched);
        // And an exchange under a key parsed from outside input completes.
        let cfg = EngineConfig::parse_key(&format!("bruck:r={}", usize::MAX)).unwrap();
        nu::run_and_check_config(&cfg, &SizeMatrix::generate(Distribution::Uniform, 3, 8, 24));
    }

    #[test]
    fn radix_p_degenerates_to_single_phase() {
        // radix ≥ P: one phase, every block moves directly — spread-out-like.
        let p = 8;
        let sched = radix_schedule(p, p);
        assert_eq!(sched.len(), p - 1);
        assert!(sched.iter().all(|&(_, w, _)| w == 1));
        ThreadComm::run(p, |comm| {
            let me = comm.rank();
            let sendbuf = ut::fill_sendbuf(me, p, 3);
            let mut recvbuf = vec![0u8; p * 3];
            zero_rotation_bruck_radix(comm, &sendbuf, &mut recvbuf, 3, p).unwrap();
            ut::check_recvbuf(me, p, 3, &recvbuf);
        });
    }
}
