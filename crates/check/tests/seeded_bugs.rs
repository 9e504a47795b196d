//! Seeded-bug regressions: prove `bruck-check` catches, with precise
//! diagnostics, the two protocol-bug classes timing perturbation on real
//! threads can only find by schedule lottery — tag collisions and deadlock
//! cycles.

use bruck_check::analysis::{analyze, Finding};
use bruck_check::extract;
use bruck_comm::{CommResult, Communicator};

/// A deliberately broken two-step ring exchange: both Bruck-style steps tag
/// their messages `TAG` instead of `TAG + step`, so each rank has two
/// different payloads for the same `(src, dst, tag)` key in flight at once.
/// Correctness then rests on non-overtaking alone — the bug class the
/// paper's §4 tag-disjointness argument exists to exclude.
const TAG: u32 = 0x0100;

fn broken_two_step_ring<C: Communicator + ?Sized>(comm: &C, fixed_tags: bool) -> CommResult<()> {
    let p = comm.size();
    let me = comm.rank();
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    for step in 0..2u32 {
        let tag = if fixed_tags { TAG + step } else { TAG };
        // Distinct payload per step: reordering the two same-key messages
        // would deliver step-1 data to the step-0 receive.
        comm.send(right, tag, &[step as u8, me as u8])?;
        let got = comm.recv(left, tag)?;
        assert_eq!(got[1], left as u8);
    }
    Ok(())
}

#[test]
fn overlapping_step_tags_are_reported_as_collisions() {
    let p = 3;
    let ext = extract(p, |comm| broken_two_step_ring(comm, false));
    assert!(ext.all_completed(), "the broken exchange still *runs*: {:?}", ext.ranks);
    let findings = analyze(&ext);
    let collisions: Vec<_> = findings
        .iter()
        .filter_map(|f| match f {
            Finding::TagCollision { src, dst, tag, .. } => Some((*src, *dst, *tag)),
            _ => None,
        })
        .collect();
    // Precise diagnostics: every rank's ring edge is implicated, with the
    // exact shared tag.
    assert_eq!(collisions.len(), p, "one collision per ring edge: {findings:?}");
    for rank in 0..p {
        assert!(
            collisions.contains(&(rank, (rank + 1) % p, TAG)),
            "missing collision for edge {rank} -> {} tag {TAG:#x}: {collisions:?}",
            (rank + 1) % p
        );
    }
    // No other finding types: the bug is a pure tag-discipline violation.
    assert!(
        findings.iter().all(|f| matches!(f, Finding::TagCollision { .. })),
        "{findings:?}"
    );
}

#[test]
fn per_step_tags_fix_the_collision() {
    let ext = extract(3, |comm| broken_two_step_ring(comm, true));
    assert!(ext.all_completed());
    assert!(analyze(&ext).is_empty());
}

#[test]
fn seeded_deadlock_cycle_is_reported_with_ranks_and_tag() {
    // Cyclic blocking receive: every rank receives from its left neighbour
    // *before* sending to its right — the canonical head-of-line deadlock. A
    // threaded run hangs forever; the model extracts and diagnoses it.
    const DTAG: u32 = 0x0200;
    let p = 5;
    let ext = extract(p, move |comm| {
        let me = comm.rank();
        let left = (me + p - 1) % p;
        let got = comm.recv(left, DTAG)?; // blocks forever on every rank
        comm.send((me + 1) % p, DTAG, &got)?;
        Ok(())
    });
    assert!(!ext.all_completed());
    let findings = analyze(&ext);
    let cycles: Vec<_> = findings
        .iter()
        .filter_map(|f| match f {
            Finding::DeadlockCycle { ranks, tags } => Some((ranks.clone(), tags.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(cycles.len(), 1, "exactly one cycle: {findings:?}");
    let (ranks, tags) = &cycles[0];
    // Precise diagnostics: all five ranks on the cycle, each waiting on its
    // left neighbour, all under the seeded tag.
    assert_eq!(ranks.len(), p);
    assert!(tags.iter().all(|&t| t == DTAG), "{tags:?}");
    for (i, &r) in ranks.iter().enumerate() {
        let next = ranks[(i + 1) % ranks.len()];
        assert_eq!(next, (r + p - 1) % p, "rank {r} waits on its left neighbour");
    }
    // The cycle is the whole story — no spurious unmatched-send noise (no
    // message was ever sent).
    assert!(ext.schedule.messages.is_empty());
}

#[test]
fn partial_deadlock_reports_cycle_and_starved_chain() {
    // Ranks 0 and 1 deadlock on each other; rank 2 waits on rank 1 — blocked
    // behind the cycle without being on it.
    let ext = extract(3, |comm| match comm.rank() {
        0 => comm.recv(1, 7).map(|_| ()),
        1 => {
            let _ = comm.recv(0, 7)?;
            comm.send(0, 7, &[1])?;
            comm.send(2, 8, &[2])
        }
        _ => comm.recv(1, 8).map(|_| ()),
    });
    let findings = analyze(&ext);
    assert!(
        findings.iter().any(|f| matches!(
            f,
            Finding::DeadlockCycle { ranks, .. } if ranks.len() == 2
        )),
        "{findings:?}"
    );
    assert!(
        findings.iter().any(|f| matches!(
            f,
            Finding::OrphanedRecv { rank: 2, src: 1, tag: 8 }
        )),
        "{findings:?}"
    );
}
