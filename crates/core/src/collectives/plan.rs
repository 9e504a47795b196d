//! The collective family as data: a [`Plan`] of one-way [`PlanStep`]s, and
//! the two executors that run every plan.
//!
//! A step is the paper's Bruck step generalised: every rank sends one
//! message to one peer and receives the mirror message, so each of the six
//! block schedules is `⌈log₂ P⌉` (or `P − 1`) rounds of exactly one message
//! per rank, at any `P`, with no fold of a non-power-of-two remainder.
//! [`gather`] copies arriving blocks into place (allgatherv, the second half
//! of `ReduceScatterAllgather`); [`reduce`] folds arriving partials into a
//! working vector (reduce_scatter, the first half). Both are `async fn`s over
//! a [`Port`]. `bruck-model` prices the same plans, so the schedule has one
//! definition.

use bruck_comm::{CommResult, MsgBuf, Port, ReduceOp, Tag};

use crate::common::{
    add_mod, agv_bruck_tag, agv_ring_tag, ceil_log2, pat_ag_tag, pat_rs_tag, rs_halving_tag,
    sub_mod, RS_PAIRWISE_TAG,
};
use crate::packed_displs;
use crate::probe::span;

use super::{AllgathervAlgorithm, ReduceScatterAlgorithm};

/// One one-way step. Every rank `me` sends the blocks at `me + o` (mod `P`),
/// for each `o` in `offsets` in order, to `me + shift` as one message. It
/// receives the same-shaped run from `from = me − shift`, holding the blocks
/// at `from + o`. `shift` and `offsets` are residues mod `P`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// The wire tag of this step's message.
    pub tag: Tag,
    /// Distance to the peer this step sends to.
    pub shift: usize,
    /// Which blocks travel, relative to the sender.
    pub offsets: Vec<usize>,
}

/// A collective schedule over `p` ranks: its steps in execution order, each
/// timed under the probe span `span`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Communicator size the plan is for.
    pub p: usize,
    /// Probe span name of every step.
    pub span: &'static str,
    /// The steps, in execution order.
    pub steps: Vec<PlanStep>,
}

impl Plan {
    fn new(
        p: usize,
        span: &'static str,
        steps: impl Iterator<Item = (Tag, usize, Vec<usize>)>,
    ) -> Plan {
        let steps = steps.map(|(tag, shift, offsets)| PlanStep { tag, shift, offsets });
        Plan { p, span, steps: steps.collect() }
    }

    /// The blocks rank `q` sends at step `i`, in wire order.
    pub fn sent(&self, i: usize, q: usize) -> impl Iterator<Item = usize> + '_ {
        self.steps[i].offsets.iter().map(move |&o| add_mod(q, o, self.p))
    }

    /// The blocks rank `q` receives at step `i`, in wire order.
    pub fn received(&self, i: usize, q: usize) -> impl Iterator<Item = usize> + '_ {
        self.sent(i, sub_mod(q, self.steps[i].shift, self.p))
    }

    /// Whether step `i` sends exactly the one block step `i − 1` delivered,
    /// so a gather forwards the arrived view instead of packing a copy (the
    /// ring's zero-copy forward).
    pub fn forwards(&self, i: usize) -> bool {
        let Some(prev) = i.checked_sub(1).map(|j| &self.steps[j]) else { return false };
        match (&prev.offsets[..], &self.steps[i].offsets[..]) {
            ([was], [next]) => *next == sub_mod(*was, prev.shift, self.p),
            _ => false,
        }
    }
}

/// The plan of one allgatherv schedule over `p` ranks; block `b` is rank
/// `b`'s contribution.
pub fn allgatherv_plan(algo: AllgathervAlgorithm, p: usize) -> Plan {
    let neg = |x: usize| sub_mod(0, x, p);
    let rounds = 0..ceil_log2(p);
    match algo {
        // Step s forwards the block that arrived at step s − 1.
        AllgathervAlgorithm::Ring => Plan::new(
            p,
            "agv_ring.step",
            (0..p.saturating_sub(1)).map(|s| (agv_ring_tag(s as u32), 1, vec![neg(s)])),
        ),
        // Before step k a rank holds the run me .. me + 2ᵏ − 1; it sends the
        // head of it back 2ᵏ.
        AllgathervAlgorithm::Bruck => Plan::new(
            p,
            "agv_bruck.step",
            rounds.map(|k| {
                let h = 1usize << k;
                (agv_bruck_tag(k), neg(h), (0..h.min(p - h)).collect())
            }),
        ),
        // One descending-bit binomial tree per source: the rank at tree
        // offset j ≡ 0 (mod 2ᵏ⁺¹) forwards to offset j + 2ᵏ.
        AllgathervAlgorithm::Pat => Plan::new(
            p,
            "pat_ag.step",
            rounds.rev().map(|k| {
                let h = 1usize << k;
                let holders = (0..p).step_by(2 * h).take_while(|j| j + h < p);
                (pat_ag_tag(k), h, holders.map(neg).collect())
            }),
        ),
    }
}

/// The plan of one reduce_scatter schedule over `p` ranks; block `b` is the
/// segment destined for rank `b`.
pub fn reduce_scatter_plan(algo: ReduceScatterAlgorithm, p: usize) -> Plan {
    let neg = |x: usize| sub_mod(0, x, p);
    let rounds = 0..ceil_log2(p);
    match algo {
        // Round i mails the segment of rank me + i straight to it.
        ReduceScatterAlgorithm::Pairwise => Plan::new(
            p,
            "rs_pairwise.step",
            (1..p).map(|i| (RS_PAIRWISE_TAG, i, vec![i])),
        ),
        // The transpose of Bruck: step k hands the far half of the run
        // me .. me + 2ᵏ⁺¹ − 1 to the rank 2ᵏ ahead.
        ReduceScatterAlgorithm::RecursiveHalving => Plan::new(
            p,
            "rs_halving.step",
            rounds.rev().map(|k| {
                let h = 1usize << k;
                (rs_halving_tag(k), h, (h..h + h.min(p - h)).collect())
            }),
        ),
        // The mirror of PAT all-gather: the partial for the rank at tree
        // offset j with lsb(j) = k is complete and leaves toward the root.
        ReduceScatterAlgorithm::Pat => Plan::new(
            p,
            "pat_rs.step",
            rounds.map(|k| {
                let h = 1usize << k;
                (pat_rs_tag(k), neg(h), (h..p).step_by(2 * h).map(neg).collect())
            }),
        ),
    }
}

/// Run a gather plan: block `b` lives at `recvbuf[displs[b]..][..counts[b]]`,
/// and this rank's own block is already there. A step whose one block
/// arrived on the previous step sends the arrived view, zero-copy.
pub(super) async fn gather<P: Port + ?Sized>(
    comm: &P,
    plan: &Plan,
    recvbuf: &mut [u8],
    counts: &[usize],
    displs: &[usize],
) -> CommResult<()> {
    let me = comm.rank();
    let slot = |b: usize| displs[b]..displs[b] + counts[b];
    let mut arrived = MsgBuf::new();
    for (i, step) in plan.steps.iter().enumerate() {
        let _probe = span(plan.span);
        let payload = if plan.forwards(i) {
            arrived
        } else {
            let mut out = Vec::with_capacity(plan.sent(i, me).map(|b| counts[b]).sum());
            for b in plan.sent(i, me) {
                out.extend_from_slice(&recvbuf[slot(b)]);
            }
            MsgBuf::from_vec(out)
        };
        comm.send_buf(add_mod(me, step.shift, plan.p), step.tag, payload)?;
        let from = sub_mod(me, step.shift, plan.p);
        let want = plan.received(i, me).map(|b| counts[b]).sum();
        arrived = comm.recv_exact(from, step.tag, want).await?;
        let mut at = 0;
        for b in plan.received(i, me) {
            recvbuf[slot(b)].copy_from_slice(&arrived[at..at + counts[b]]);
            at += counts[b];
        }
    }
    Ok(())
}

/// Run a reduce plan over `Σ counts` elements: segment `b` (`counts[b]`
/// elements at its packed offset) is destined for rank `b`. Every rank folds
/// arriving partials into a working copy of `sendbuf`; `recvbuf` ends with
/// its own segment.
pub(super) async fn reduce<P: Port + ?Sized>(
    comm: &P,
    plan: &Plan,
    sendbuf: &[u64],
    recvbuf: &mut [u64],
    counts: &[usize],
    op: ReduceOp,
) -> CommResult<()> {
    let me = comm.rank();
    let displs = packed_displs(counts);
    let seg = |b: usize| displs[b]..displs[b] + counts[b];
    let mut work = sendbuf.to_vec();
    for (i, step) in plan.steps.iter().enumerate() {
        let _probe = span(plan.span);
        let mut out = vec![0u8; plan.sent(i, me).map(|b| 8 * counts[b]).sum()];
        for (dst, v) in out.chunks_exact_mut(8).zip(plan.sent(i, me).flat_map(|b| &work[seg(b)])) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        comm.send_buf(add_mod(me, step.shift, plan.p), step.tag, MsgBuf::from_vec(out))?;
        let from = sub_mod(me, step.shift, plan.p);
        let want = plan.received(i, me).map(|b| 8 * counts[b]).sum();
        let got = comm.recv_exact(from, step.tag, want).await?;
        let mut at = 0;
        for b in plan.received(i, me) {
            op.apply_bytes(&mut work[seg(b)], &got[at..at + 8 * counts[b]])?;
            at += 8 * counts[b];
        }
    }
    recvbuf.copy_from_slice(&work[seg(me)]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A symbolic walk of one plan over block sets, no communicator: bit `s`
    /// of a set is rank `s`. For a gather plan, `held[q]` is the set of
    /// blocks rank `q` holds; for a reduce plan, `part[q][d]` is the set of
    /// ranks rank `q`'s partial for segment `d` already counts.
    fn walk_gather(plan: &Plan) {
        let (p, name) = (plan.p, plan.span);
        let mut held: Vec<u128> = (0..p).map(|q| 1 << q).collect();
        for i in 0..plan.steps.len() {
            let before = held.clone();
            for q in 0..p {
                for b in plan.sent(i, q) {
                    assert!(before[q] >> b & 1 == 1, "p={p} {name} step {i}: {q} lacks block {b}");
                }
                for b in plan.received(i, q) {
                    assert!(held[q] >> b & 1 == 0, "p={p} {name} step {i}: {q} gets {b} twice");
                    held[q] |= 1 << b;
                }
            }
        }
        let all = (1u128 << p) - 1;
        assert!(held.iter().all(|&h| h == all), "p={p} {name}: {held:x?}");
    }

    fn walk_reduce(plan: &Plan) {
        let (p, name) = (plan.p, plan.span);
        let mut part: Vec<Vec<u128>> = (0..p).map(|q| vec![1 << q; p]).collect();
        let mut gone = vec![vec![false; p]; p];
        for i in 0..plan.steps.len() {
            let before = part.clone();
            for q in 0..p {
                let from = sub_mod(q, plan.steps[i].shift, p);
                for d in plan.sent(i, q) {
                    assert!(!gone[q][d], "p={p} {name} step {i}: {q} resends segment {d}");
                    gone[q][d] = true;
                }
                for d in plan.received(i, q) {
                    assert!(!gone[q][d], "p={p} {name} step {i}: {q} folds into sent {d}");
                    let twice = part[q][d] & before[from][d];
                    assert_eq!(twice, 0, "p={p} {name} step {i}: {q} counts ranks twice in {d}");
                    part[q][d] |= before[from][d];
                }
            }
        }
        let all = (1u128 << p) - 1;
        for d in 0..p {
            assert!(!gone[d][d] && part[d][d] == all, "p={p} {name}: segment {d}");
        }
    }

    #[test]
    fn every_plan_delivers_every_block_exactly_once() {
        for p in 1..=64usize {
            let lg = ceil_log2(p) as usize;
            for algo in AllgathervAlgorithm::ALL {
                let plan = allgatherv_plan(algo, p);
                let steps = if algo == AllgathervAlgorithm::Ring { p - 1 } else { lg };
                assert_eq!(plan.steps.len(), steps, "p={p} {algo:?}");
                walk_gather(&plan);
            }
            for algo in ReduceScatterAlgorithm::ALL {
                let plan = reduce_scatter_plan(algo, p);
                let steps = if algo == ReduceScatterAlgorithm::Pairwise { p - 1 } else { lg };
                assert_eq!(plan.steps.len(), steps, "p={p} {algo:?}");
                walk_reduce(&plan);
            }
        }
    }

    #[test]
    fn every_step_is_one_message_per_rank() {
        // One peer out and one in per step, and never an empty message: the
        // run of offsets is never empty and never wraps onto the sender.
        for p in 2..=64usize {
            let gathers = AllgathervAlgorithm::ALL.map(|a| allgatherv_plan(a, p));
            let reduces = ReduceScatterAlgorithm::ALL.map(|a| reduce_scatter_plan(a, p));
            for plan in gathers.into_iter().chain(reduces) {
                for (i, step) in plan.steps.iter().enumerate() {
                    let one = step.shift != 0 && !step.offsets.is_empty();
                    assert!(one, "p={p} {} step {i}", plan.span);
                }
            }
        }
    }

    #[test]
    fn only_the_ring_forwards_an_arrived_view() {
        for p in 3..=16usize {
            let ring = allgatherv_plan(AllgathervAlgorithm::Ring, p);
            let forwarded = (0..ring.steps.len()).filter(|&i| ring.forwards(i)).count();
            assert_eq!(forwarded, p - 2, "p={p}: every step after the first");
            for algo in [AllgathervAlgorithm::Bruck, AllgathervAlgorithm::Pat] {
                let plan = allgatherv_plan(algo, p);
                assert!((0..plan.steps.len()).all(|i| !plan.forwards(i)), "p={p} {algo:?}");
            }
        }
    }
}
