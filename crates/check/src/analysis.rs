//! Protocol analysis over extracted schedules.
//!
//! Each pass consumes an [`Extraction`] (or plain layout arrays) and emits
//! [`Finding`]s. The passes are intentionally independent — a schedule with a
//! deadlock cycle still gets its tag-collision and conservation passes run,
//! so one bug does not mask another.
//!
//! What each pass guarantees (and does not) is documented in DESIGN.md §8;
//! the short version: all properties are **per-schedule** — they hold for the
//! schedule the recorded run executed (which, for rank bodies that are
//! deterministic in their received payloads, is the communication DAG of
//! *every* run), not for programs whose control flow depends on message
//! timing.

use std::collections::BTreeMap;
use std::fmt;

use bruck_comm::{Tag, RESERVED_TAG_BASE};

use crate::schedule::{Extraction, RankOutcome};

/// One verifier diagnostic. Ordering of fields mirrors what a human debugging
/// the algorithm needs first: which ranks, which step (tag), what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finding {
    /// A cycle in the wait-for graph: each listed rank is blocked on a
    /// receive from the next (wrapping), so no execution order can finish.
    DeadlockCycle {
        /// The ranks on the cycle, in wait-for order.
        ranks: Vec<usize>,
        /// `tags[i]` is the tag rank `ranks[i]` is waiting to receive from
        /// `ranks[(i + 1) % len]`.
        tags: Vec<Tag>,
    },
    /// A rank parked on a receive that no surviving rank will ever send
    /// (blocked, but not on a cycle — e.g. the peer already completed).
    OrphanedRecv {
        /// The blocked rank.
        rank: usize,
        /// The rank it is waiting on.
        src: usize,
        /// The tag it is waiting for.
        tag: Tag,
    },
    /// A message that was sent but never received.
    UnmatchedSend {
        /// Sender.
        src: usize,
        /// Destination.
        dst: usize,
        /// Tag.
        tag: Tag,
        /// Payload length in bytes.
        len: usize,
    },
    /// Two same-`(src, dst, tag)` messages were (potentially) in flight at
    /// once with different payloads: their matching is decided solely by the
    /// runtime's non-overtaking guarantee, not by the protocol's tag
    /// discipline — the paper's §4 correctness argument does not cover this.
    TagCollision {
        /// Sender of both messages.
        src: usize,
        /// Destination of both messages.
        dst: usize,
        /// The shared tag.
        tag: Tag,
        /// Schedule message index of the earlier send.
        first_msg: usize,
        /// Schedule message index of the later send.
        second_msg: usize,
    },
    /// Bytes sent under a tag do not equal bytes received under it.
    ConservationViolation {
        /// The tag (communication step) whose ledger is off.
        tag: Tag,
        /// Total bytes sent under the tag.
        sent: usize,
        /// Total bytes received under the tag.
        received: usize,
    },
    /// A rank's body returned an error, or panicked.
    RankError {
        /// The failing rank.
        rank: usize,
        /// The error, rendered.
        error: String,
    },
    /// An algorithm produced wrong bytes in a rank's receive buffer.
    WrongOutput {
        /// The rank whose output is wrong.
        rank: usize,
        /// Human-readable description of the first mismatch.
        detail: String,
    },
    /// A counts/displacements layout is malformed: a block escapes the
    /// buffer, or two blocks overlap.
    LayoutViolation {
        /// Which layout (e.g. `"plan rdispls"`).
        context: String,
        /// Human-readable description of the violation.
        detail: String,
    },
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::DeadlockCycle { ranks, tags } => {
                write!(f, "deadlock cycle:")?;
                for (i, r) in ranks.iter().enumerate() {
                    let next = ranks[(i + 1) % ranks.len()];
                    write!(f, " rank {r} waits on rank {next} tag {};", tags[i])?;
                }
                Ok(())
            }
            Finding::OrphanedRecv { rank, src, tag } => {
                write!(f, "rank {rank} blocked forever on recv from rank {src} tag {tag} (no cycle; sender will never send)")
            }
            Finding::UnmatchedSend { src, dst, tag, len } => {
                write!(f, "unmatched send: rank {src} -> rank {dst} tag {tag} ({len} bytes never received)")
            }
            Finding::TagCollision { src, dst, tag, first_msg, second_msg } => {
                write!(f, "tag collision: messages #{first_msg} and #{second_msg} from rank {src} to rank {dst} share tag {tag} while both in flight with different payloads")
            }
            Finding::ConservationViolation { tag, sent, received } => {
                write!(f, "byte conservation violated for tag {tag}: {sent} sent != {received} received")
            }
            Finding::RankError { rank, error } => write!(f, "rank {rank} failed: {error}"),
            Finding::WrongOutput { rank, detail } => write!(f, "wrong output on rank {rank}: {detail}"),
            Finding::LayoutViolation { context, detail } => {
                write!(f, "layout violation in {context}: {detail}")
            }
        }
    }
}

/// Run every schedule-level pass and collect the findings.
pub fn analyze(extraction: &Extraction) -> Vec<Finding> {
    let mut findings = Vec::new();
    rank_errors(extraction, &mut findings);
    deadlocks(extraction, &mut findings);
    unmatched_sends(extraction, &mut findings);
    tag_collisions(extraction, &mut findings);
    conservation(extraction, &mut findings);
    findings
}

fn rank_errors(ext: &Extraction, out: &mut Vec<Finding>) {
    for (rank, outcome) in ext.ranks.iter().enumerate() {
        let error = match outcome {
            RankOutcome::Failed(e) => e.to_string(),
            RankOutcome::Panicked(why) => format!("panicked: {why}"),
            RankOutcome::Completed | RankOutcome::Blocked(_) => continue,
        };
        out.push(Finding::RankError { rank, error });
    }
}

/// Wait-for-graph analysis. Every blocked rank waits on exactly one peer, so
/// the graph is functional and each blocked rank either reaches a cycle or a
/// settled (completed/failed) rank; the former is a [`Finding::DeadlockCycle`]
/// (reported once per distinct cycle), everything else an
/// [`Finding::OrphanedRecv`].
fn deadlocks(ext: &Extraction, out: &mut Vec<Finding>) {
    let p = ext.schedule.p;
    let blocked: Vec<Option<(usize, Tag)>> = (0..p)
        .map(|r| match ext.ranks[r] {
            RankOutcome::Blocked(b) => Some((b.src, b.tag)),
            _ => None,
        })
        .collect();
    let mut on_reported_cycle = vec![false; p];
    for start in 0..p {
        let Some((start_src, start_tag)) = blocked[start] else { continue };
        // Walk the functional wait-for graph with a visited set local to this
        // start; a revisit inside the walk is a cycle.
        let mut at = start;
        let mut path: Vec<usize> = Vec::new();
        let mut seen = vec![false; p];
        let cycle_entry = loop {
            if seen[at] {
                break Some(at);
            }
            seen[at] = true;
            path.push(at);
            match blocked[at] {
                Some((next_src, _)) => at = next_src,
                None => break None, // chain ends at a settled rank: orphaned
            }
        };
        match cycle_entry {
            Some(entry) => {
                let Some(cycle_start) = path.iter().position(|&r| r == entry) else {
                    unreachable!("cycle entry was pushed to the path before being revisited")
                };
                let cycle = &path[cycle_start..];
                if cycle.iter().any(|&r| on_reported_cycle[r]) {
                    continue; // this cycle was already reported via another start
                }
                for &r in cycle {
                    on_reported_cycle[r] = true;
                }
                let tags = cycle
                    .iter()
                    .map(|&r| match blocked[r] {
                        Some((_, tag)) => tag,
                        None => unreachable!("every rank on the cycle is blocked"),
                    })
                    .collect();
                out.push(Finding::DeadlockCycle { ranks: cycle.to_vec(), tags });
            }
            None => {
                out.push(Finding::OrphanedRecv { rank: start, src: start_src, tag: start_tag });
            }
        }
    }
    // Ranks blocked on a chain *into* a cycle (not on it) are starved too;
    // report them as orphaned unless already on a reported cycle.
    for rank in 0..p {
        if let Some((src, tag)) = blocked[rank] {
            if !on_reported_cycle[rank]
                && !out.iter().any(|f| matches!(f, Finding::OrphanedRecv { rank: r, .. } if *r == rank))
            {
                out.push(Finding::OrphanedRecv { rank, src, tag });
            }
        }
    }
}

fn unmatched_sends(ext: &Extraction, out: &mut Vec<Finding>) {
    for &i in &ext.schedule.unmatched_messages() {
        let m = &ext.schedule.messages[i];
        out.push(Finding::UnmatchedSend { src: m.src, dst: m.dst, tag: m.tag, len: m.payload.len() });
    }
}

/// Tag-collision pass over user-tag messages (`tag < RESERVED_TAG_BASE`).
///
/// The built-in collectives deliberately reuse their reserved tags across
/// invocations and rely on non-overtaking by design (documented in
/// `bruck-comm`), so reserved tags are exempt. Equal-payload duplicates are
/// also exempt: reordering them cannot change any receiver-visible state.
fn tag_collisions(ext: &Extraction, out: &mut Vec<Finding>) {
    let mut by_key: BTreeMap<(usize, usize, Tag), Vec<usize>> = BTreeMap::new();
    for (i, m) in ext.schedule.messages.iter().enumerate() {
        if m.tag < RESERVED_TAG_BASE {
            by_key.entry((m.src, m.dst, m.tag)).or_default().push(i);
        }
    }
    for ((src, dst, tag), msgs) in by_key {
        // Messages are in global commit order, which is program order per
        // sender, so adjacent-pair checks cover the group: if every message's
        // receive happens-before the next one's send, the whole chain is
        // protocol-ordered.
        for pair in msgs.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let same_payload =
                ext.schedule.messages[a].payload.as_slice() == ext.schedule.messages[b].payload.as_slice();
            if !same_payload && ext.schedule.concurrent_in_flight(a, b) {
                out.push(Finding::TagCollision { src, dst, tag, first_msg: a, second_msg: b });
            }
        }
    }
}

/// Per-tag byte ledger: Σ sent == Σ received for every communication step.
fn conservation(ext: &Extraction, out: &mut Vec<Finding>) {
    let mut ledger: BTreeMap<Tag, (usize, usize)> = BTreeMap::new();
    for m in &ext.schedule.messages {
        let entry = ledger.entry(m.tag).or_insert((0, 0));
        entry.0 += m.payload.len();
        if m.recv_event.is_some() {
            entry.1 += m.payload.len();
        }
    }
    for (tag, (sent, received)) in ledger {
        if sent != received {
            out.push(Finding::ConservationViolation { tag, sent, received });
        }
    }
}

/// Validate a counts/displacements layout against a buffer: every block in
/// bounds, no two non-empty blocks overlapping.
///
/// The matrix runner applies it to every `alltoallv` cell's packed layouts.
pub fn check_layout(context: &str, counts: &[usize], displs: &[usize], buf_len: usize) -> Vec<Finding> {
    let mut findings = Vec::new();
    if counts.len() != displs.len() {
        findings.push(Finding::LayoutViolation {
            context: context.to_string(),
            detail: format!("counts.len() {} != displs.len() {}", counts.len(), displs.len()),
        });
        return findings;
    }
    let mut spans: Vec<(usize, usize, usize)> = Vec::new(); // (start, end, block)
    for (i, (&c, &d)) in counts.iter().zip(displs).enumerate() {
        match d.checked_add(c) {
            Some(end) if end <= buf_len => {
                if c > 0 {
                    spans.push((d, end, i));
                }
            }
            Some(end) => findings.push(Finding::LayoutViolation {
                context: context.to_string(),
                detail: format!("block {i} [{d}, {end}) exceeds buffer of {buf_len} bytes"),
            }),
            None => findings.push(Finding::LayoutViolation {
                context: context.to_string(),
                detail: format!("block {i} displacement {d} + count {c} overflows usize"),
            }),
        }
    }
    spans.sort_unstable();
    for pair in spans.windows(2) {
        let (s0, e0, b0) = pair[0];
        let (s1, _, b1) = pair[1];
        if s1 < e0 {
            findings.push(Finding::LayoutViolation {
                context: context.to_string(),
                detail: format!("blocks {b0} and {b1} overlap: [{s0}, {e0}) and [{s1}, ..)"),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::extract;
    use bruck_comm::Communicator;

    #[test]
    fn clean_pingpong_has_no_findings() {
        let ext = extract(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[1])?;
                comm.recv(1, 2).map(|_| ())
            } else {
                let _ = comm.recv(0, 1)?;
                comm.send(0, 2, &[2])
            }
        });
        assert!(analyze(&ext).is_empty());
    }

    #[test]
    fn cycle_is_reported_once_with_tags() {
        let p = 4;
        let ext = extract(p, move |comm| {
            let me = comm.rank();
            let _ = comm.recv((me + p - 1) % p, 7)?;
            comm.send((me + 1) % p, 7, &[0])
        });
        let findings = analyze(&ext);
        let cycles: Vec<_> =
            findings.iter().filter(|f| matches!(f, Finding::DeadlockCycle { .. })).collect();
        assert_eq!(cycles.len(), 1, "{findings:?}");
        let Finding::DeadlockCycle { ranks, tags } = cycles[0] else { unreachable!() };
        assert_eq!(ranks.len(), 4);
        assert!(tags.iter().all(|&t| t == 7));
    }

    #[test]
    fn orphaned_recv_reported_when_peer_completed() {
        let ext = extract(2, |comm| {
            if comm.rank() == 0 {
                Ok(()) // sends nothing, completes
            } else {
                comm.recv(0, 3).map(|_| ())
            }
        });
        let findings = analyze(&ext);
        assert!(
            findings.iter().any(|f| matches!(
                f,
                Finding::OrphanedRecv { rank: 1, src: 0, tag: 3 }
            )),
            "{findings:?}"
        );
    }

    #[test]
    fn unmatched_send_breaks_conservation_too() {
        let ext = extract(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, &[0; 8])
            } else {
                Ok(())
            }
        });
        let findings = analyze(&ext);
        assert!(findings
            .iter()
            .any(|f| matches!(f, Finding::UnmatchedSend { src: 0, dst: 1, tag: 5, len: 8 })));
        assert!(findings.iter().any(|f| matches!(
            f,
            Finding::ConservationViolation { tag: 5, sent: 8, received: 0 }
        )));
    }

    #[test]
    fn layout_overlap_and_oob_detected() {
        let f = check_layout("t", &[4, 4], &[0, 2], 8);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(matches!(&f[0], Finding::LayoutViolation { detail, .. } if detail.contains("overlap")));
        let f = check_layout("t", &[4], &[6], 8);
        assert!(matches!(&f[0], Finding::LayoutViolation { detail, .. } if detail.contains("exceeds")));
        assert!(check_layout("t", &[2, 0, 2], &[0, 1, 2], 4).is_empty());
    }
}
