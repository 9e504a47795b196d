//! Every Bruck-family schedule as data: a [`Plan`] of one-way
//! [`PlanStep`]s, and the one executor that runs the collectives' plans.
//!
//! A step is the paper's Bruck step generalised: every rank sends one
//! message to one peer and receives the mirror message, so each of the six
//! block schedules is `⌈log₂ P⌉` (or `P − 1`) rounds of exactly one message
//! per rank, at any `P`, with no fold of a non-power-of-two remainder.
//! [`run`] is the one step loop, in place over a [`Blocks`] buffer: it
//! copies byte blocks (allgatherv), decodes word blocks (the allgather half
//! of `ReduceScatterAllgather`) or folds word partials (reduce_scatter, the
//! reduce half). [`alltoall_plan`] is the all-to-all's radix-`r` Bruck
//! schedule, which the uniform kernels, the engine's Bruck loops and the
//! memory model run. `bruck-model` prices the same plans, so each schedule
//! has one definition.

use std::cell::RefCell;
use std::sync::Arc;

use bruck_comm::reduce::{decode_u64s_into, encode_u64s};
use bruck_comm::{CommResult, MsgBuf, Port, ReduceOp, Tag};

use crate::common::{
    add_mod, agv_bruck_tag, agv_ring_tag, ceil_log2, pat_ag_tag, pat_rs_tag, rs_halving_tag,
    sub_mod, uniform_step_tag, RS_PAIRWISE_TAG,
};
use crate::probe::span;

use super::{AllgathervAlgorithm, ReduceScatterAlgorithm};

/// One one-way step. Every rank `me` sends the blocks at `me + o` (mod `P`),
/// for each `o` in `offsets` in order, to `me + shift` as one message. It
/// receives the same-shaped run from `from = me − shift`, holding the blocks
/// at `from + o`. `shift` and `offsets` are residues mod `P`.
///
/// An [`alltoall_plan`] reads `offsets` as *slots*, not positions: Bruck's
/// store-and-forward keeps a block in its slot when it hops, so what `me`
/// receives for slot `o` replaces what it sent for slot `o`. Its consumers
/// read `shift` and `offsets` directly; [`Plan::sent`], [`Plan::received`]
/// and [`Plan::forwards`] read blocks by absolute position, the
/// collectives' way, and mean nothing for it.
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

    /// For each slot `0..P` of an [`alltoall_plan`], the index of the last
    /// step whose `offsets` hold it: the step that finishes the block in
    /// that slot. Slot 0, which no step holds, reads `usize::MAX`.
    pub fn last_hops(&self) -> Vec<usize> {
        let mut last = vec![usize::MAX; self.p];
        for (k, step) in self.steps.iter().enumerate() {
            for &o in &step.offsets {
                last[o] = k;
            }
        }
        last
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

/// The radix-`radix` Bruck all-to-all over `p` ranks (§2; Bruck's radix
/// generalisation). Slots `i ∈ (0, P)` are written in base `radix`, and for
/// each digit weight `w = radixᵏ < P` and each digit `d ≥ 1` with `d·w < P`
/// one step moves every slot whose digit at `w` is `d` by `d·w` ranks: up
/// (`shift = d·w`, basic Bruck's direction) or, `downward`, down
/// (`shift = P − d·w`, the modified and zero-rotation direction). A block
/// hops at exactly its non-zero digits, so after the last step holding it
/// ([`Plan::last_hops`]) slot `i` of rank `me` holds the block from `me ∓ i`.
/// That is `(r − 1)·log_r P` steps when `P` is a power of `r`, and `P − 1`
/// in one phase for any `r ≥ P`. Step `k` carries `uniform_step_tag(k)`; the
/// span is the one Zero Rotation Bruck (down) and basic Bruck (up) record.
pub fn alltoall_plan(p: usize, radix: usize, downward: bool) -> Plan {
    assert!(radix >= 2, "radix must be at least 2");
    let weights = std::iter::successors(Some(1usize), |&w| Some(w.saturating_mul(radix)));
    // Only digits with `d·w < P` move anything, so a phase has at most
    // `⌈P/w⌉ − 1` steps however large the radix is.
    let hops = weights.take_while(|&w| w < p).flat_map(|w| {
        (1..radix).map_while(move |d| (d.saturating_mul(w) < p).then_some((w, d)))
    });
    let span = if downward { "zero_rotation.step" } else { "basic.step" };
    Plan::new(
        p,
        span,
        hops.enumerate().map(|(k, (w, d))| {
            // The slots with digit `d` at `w` come in runs of `w` starting at
            // `d·w`, one run per period `w·radix`: enumerated by stride, with
            // no per-slot division, into one exactly sized allocation.
            let runs = (d * w..p).step_by(w.saturating_mul(radix));
            let runs = runs.map(|run| run..(run + w).min(p));
            let mut offsets = Vec::with_capacity(runs.clone().map(|run| run.len()).sum());
            runs.for_each(|run| offsets.extend(run));
            let shift = if downward { p - d * w } else { d * w };
            (uniform_step_tag(k as u32), shift, offsets)
        }),
    )
}

/// An [`alltoall_plan`] and its [`Plan::last_hops`], as the Bruck loops read
/// them.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Schedule {
    pub plan: Plan,
    pub last: Vec<usize>,
}

thread_local! {
    /// The schedule this thread built last, keyed by `(p, radix, downward)`.
    static LAST_SCHEDULE: RefCell<Option<((usize, usize, bool), Arc<Schedule>)>> =
        const { RefCell::new(None) };
}

/// `alltoall_plan(p, radix, downward)` and its last hops, built once per
/// thread for consecutive calls with the same key: one event-runtime worker
/// serves every rank of its world, and a fixpoint calls the same exchange
/// every round, so each would otherwise rebuild the same `O(P log P)` table.
pub(crate) fn bruck_schedule(p: usize, radix: usize, downward: bool) -> Arc<Schedule> {
    let key = (p, radix, downward);
    LAST_SCHEDULE.with_borrow_mut(|memo| match memo {
        Some((k, schedule)) if *k == key => Arc::clone(schedule),
        _ => {
            let plan = alltoall_plan(p, radix, downward);
            let schedule = Arc::new(Schedule { last: plan.last_hops(), plan });
            *memo = Some((key, Arc::clone(&schedule)));
            schedule
        }
    })
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

/// The buffer a plan runs over in place, and what a step does with a block:
/// block `b` is elements `displs[b]..displs[b] + counts[b]`, and a word
/// travels as its eight little-endian bytes.
pub(super) enum Blocks<'a> {
    /// Bytes, copied into place (allgatherv).
    Place(&'a mut [u8]),
    /// Words, decoded into place (the allgather half of Rabenseifner).
    Decode(&'a mut [u64]),
    /// Word partials, folded into place (reduce_scatter, the reduce half).
    Fold(&'a mut [u64], ReduceOp),
}

// Both are called once per block, and a P = 256 event-runtime allgatherv of
// ≤ 64 B blocks measured ≈ 4 % slower per call when they were not inlined.
impl Blocks<'_> {
    /// Append the wire bytes of the block at `at` to `out`.
    #[inline(always)]
    fn encode(&self, at: std::ops::Range<usize>, out: &mut Vec<u8>) {
        match self {
            Blocks::Place(bytes) => out.extend_from_slice(&bytes[at]),
            Blocks::Decode(words) | Blocks::Fold(words, _) => encode_u64s(&words[at], out),
        }
    }

    /// Take the arrived wire bytes of the block at `at`.
    #[inline(always)]
    fn take(&mut self, at: std::ops::Range<usize>, wire: &[u8]) -> CommResult<()> {
        match self {
            Blocks::Place(bytes) => bytes[at].copy_from_slice(wire),
            Blocks::Decode(words) => decode_u64s_into(wire, &mut words[at])?,
            Blocks::Fold(words, op) => op.apply_bytes(&mut words[at], wire)?,
        }
        Ok(())
    }
}

/// Run a plan over `blocks`: each step sends the blocks [`Plan::sent`] names
/// as one message and takes the ones [`Plan::received`] names from the
/// mirror message. A byte step whose one block arrived on the previous step
/// sends the arrived view, zero-copy.
pub(super) async fn run<P: Port + ?Sized>(
    comm: &P,
    plan: &Plan,
    mut blocks: Blocks<'_>,
    counts: &[usize],
    displs: &[usize],
) -> CommResult<()> {
    let me = comm.rank();
    let width = if matches!(blocks, Blocks::Place(_)) { 1 } else { 8 };
    let at = |b: usize| displs[b]..displs[b] + counts[b];
    let mut arrived = MsgBuf::new();
    for (i, step) in plan.steps.iter().enumerate() {
        let _probe = span(plan.span);
        let payload = if width == 1 && plan.forwards(i) {
            arrived
        } else {
            let mut out = Vec::with_capacity(plan.sent(i, me).map(|b| width * counts[b]).sum());
            for b in plan.sent(i, me) {
                blocks.encode(at(b), &mut out);
            }
            MsgBuf::from_vec(out)
        };
        comm.send_buf(add_mod(me, step.shift, plan.p), step.tag, payload)?;
        let want = plan.received(i, me).map(|b| width * counts[b]).sum();
        arrived = comm.recv_exact(sub_mod(me, step.shift, plan.p), step.tag, want).await?;
        let mut next = 0;
        for b in plan.received(i, me) {
            blocks.take(at(b), &arrived[next..next + width * counts[b]])?;
            next += width * counts[b];
        }
    }
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

    /// A symbolic walk of an all-to-all plan: `at[q][i]` is the block
    /// `(s, d)` in slot `i` of rank `q`, and rank `s` starts with the block
    /// for `s + i` (up) or `s − i` (down) there. Every block must reach its
    /// destination exactly once, at the step [`Plan::last_hops`] names, having
    /// hopped by exactly its non-zero base-`radix` digits, lowest first.
    fn walk_alltoall(plan: &Plan, radix: usize, downward: bool) {
        let p = plan.p;
        let case = format!("p={p} r={radix} down={downward}");
        let toward = |s, i| if downward { sub_mod(s, i, p) } else { add_mod(s, i, p) };
        let mut at: Vec<Vec<(usize, usize)>> =
            (0..p).map(|s| (0..p).map(|i| (s, toward(s, i))).collect()).collect();
        let mut arrivals = vec![vec![0u32; p]; p];
        let mut hopped: Vec<Vec<usize>> = vec![Vec::new(); p];
        let last = plan.last_hops();
        for (k, step) in plan.steps.iter().enumerate() {
            assert_eq!(step.tag, uniform_step_tag(k as u32), "{case} step {k}");
            let one = 0 < step.shift && step.shift < p && !step.offsets.is_empty();
            assert!(one, "{case} step {k}: one non-empty message to another rank");
            let slots = step.offsets.windows(2).all(|w| w[0] < w[1]);
            assert!(slots && step.offsets.iter().all(|&i| 0 < i && i < p), "{case} step {k}");
            let before = at.clone();
            for q in 0..p {
                let from = sub_mod(q, step.shift, p);
                for &i in &step.offsets {
                    at[q][i] = before[from][i];
                    if last[i] == k {
                        let (s, d) = at[q][i];
                        assert_eq!(d, q, "{case} step {k}: slot {i} ends ({s}, {d}) at {q}");
                        arrivals[d][s] += 1;
                    }
                }
            }
            for &i in &step.offsets {
                hopped[i].push(if downward { p - step.shift } else { step.shift });
            }
        }
        for (d, from) in arrivals.iter().enumerate() {
            let once: Vec<u32> = (0..p).map(|s| u32::from(s != d)).collect();
            assert_eq!(*from, once, "{case}: the blocks reaching {d}, by source");
        }
        for (i, hops) in hopped.iter().enumerate() {
            let (mut digits, mut rest, mut w) = (Vec::new(), i, 1usize);
            while rest > 0 {
                if rest % radix != 0 {
                    digits.push(rest % radix * w);
                }
                rest /= radix;
                w = w.saturating_mul(radix);
            }
            assert_eq!(*hops, digits, "{case}: slot {i} hops by its non-zero digits");
        }
    }

    /// `⌈log_r P⌉`, the number of digit weights below `P`: the phases.
    fn phases(p: usize, radix: usize) -> u32 {
        std::iter::successors(Some(1usize), |&w| Some(w.saturating_mul(radix)))
            .take_while(|&w| w < p)
            .count() as u32
    }

    #[test]
    fn every_alltoall_plan_routes_each_block_by_its_digits() {
        for p in 1..=64usize {
            for radix in [2, 3, 4, 8, p.max(2), usize::MAX] {
                for downward in [false, true] {
                    walk_alltoall(&alltoall_plan(p, radix, downward), radix, downward);
                }
            }
            // At r = 2, step k moves the slots with bit k set (at most ⌈P/2⌉,
            // §2.2) by 2ᵏ.
            for (k, step) in alltoall_plan(p, 2, false).steps.iter().enumerate() {
                assert_eq!(step.shift, 1 << k, "p={p} step {k}");
                assert!(step.offsets.len() <= p.div_ceil(2), "p={p} step {k}");
            }
        }
        let last = alltoall_plan(12, 2, false).steps.pop().map(|s| s.offsets);
        assert_eq!(last, Some(vec![8, 9, 10, 11]), "a non-power-of-two last step is short");
    }

    #[test]
    fn alltoall_plans_take_r_minus_one_steps_per_phase() {
        // Digits with `d·w < P` only: `min(r − 1, ⌊(P − 1)/w⌋)` steps per
        // phase, so exactly (r − 1)·log_r P when P is a power of the radix
        // (the α multiplier of the model's radix trade-off), and P − 1 steps
        // in one phase for any r ≥ P, however large.
        for p in [2usize, 5, 16, 27, 64, 100, 256, 729] {
            for radix in [2usize, 3, 4, 8, 16, p, 1 << 40, usize::MAX] {
                let plan = alltoall_plan(p, radix, true);
                let n = phases(p, radix);
                let per_phase = (0..n).map(|k| (radix - 1).min((p - 1) / radix.pow(k)));
                assert_eq!(plan.steps.len(), per_phase.sum::<usize>(), "p={p} r={radix}");
                if radix.checked_pow(n) == Some(p) {
                    assert_eq!(plan.steps.len(), (radix - 1) * n as usize, "p={p} r={radix}");
                }
                if radix >= p {
                    assert_eq!(plan.steps.len(), p - 1, "p={p} r={radix}");
                }
            }
        }
        // More steps at a larger radix, but fewer forwards of any one block.
        let steps = |r: usize| alltoall_plan(256, r, false).steps.len();
        assert_eq!([steps(2), steps(4), steps(16)], [8, 12, 30]);
        let forwards = |r: usize| {
            let plan = alltoall_plan(256, r, false);
            (1..256).map(|i| plan.steps.iter().filter(|s| s.offsets.contains(&i)).count()).max()
        };
        assert_eq!([forwards(2), forwards(4), forwards(16)], [Some(8), Some(4), Some(2)]);
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

    #[test]
    fn a_schedule_is_built_once_per_key_in_a_row() {
        let (a, b) = (bruck_schedule(12, 3, true), bruck_schedule(12, 3, true));
        assert!(Arc::ptr_eq(&a, &b), "same key: the memo's schedule");
        let want = |p, r, down| {
            let plan = alltoall_plan(p, r, down);
            Schedule { last: plan.last_hops(), plan }
        };
        assert_eq!(*a, want(12, 3, true));
        // Every component of the key is the key: a new one is a fresh plan.
        for (p, r, down) in [(12, 3, false), (12, 4, false), (13, 4, false), (12, 3, true)] {
            let c = bruck_schedule(p, r, down);
            assert!(!Arc::ptr_eq(&a, &c), "({p}, {r}, {down}) after another key");
            assert_eq!(*c, want(p, r, down), "({p}, {r}, {down})");
        }
    }
}
