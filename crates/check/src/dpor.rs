//! Stateless dynamic partial-order reduction (DPOR) over the deterministic
//! simulator: the first of `bruck-verify`'s two provers (the second is
//! [`crate::wakeup_audit`]).
//!
//! ## What it proves
//!
//! `bruck-sim` *samples* the schedule space with seeds; this module
//! *exhausts* it for tiny worlds. A [`Harness::Verify`] registry row names a
//! cell, a budget and a contract, and the explorer runs every
//! Mazurkiewicz-inequivalent interleaving of its scheduling points: source-set
//! DPOR (Abdulla, Aronis, Jonsson, Sagonas, *Optimal Dynamic Partial Order
//! Reduction*, POPL 2014) with sleep sets, by depth-first replay from schedule
//! prefixes. After each run, every race of a new event with an earlier one
//! that happens-before does not order puts one representative of its
//! reversal into the earlier event's backtrack set. At every explored leaf it
//! asserts
//!
//! * the cell completed with pattern-exact, **byte-identical** receive
//!   buffers (same digest as the baseline schedule),
//! * no rank failed or deadlocked,
//!
//! and it counts equivalence classes by canonical (Foata normal form) trace
//! digest, reporting the pruning factor against naive enumeration.
//!
//! ## The dependency relation
//!
//! Two scheduling choices commute unless their pending ops interfere
//! ([`dependent`]): same-rank ops are always dependent; a send is dependent
//! with a matching receive/probe on the other side of its channel, and with
//! an arrival wait on its destination rank whatever the channel;
//! everything that reads the virtual clock (timed receives, sleeps, arrival
//! waits) is conservatively pairwise dependent, because the clock only
//! advances at global quiescence and therefore couples all timed ops.
//! Fault-stack cells are dominated by timed ops, so their reduction
//! degenerates toward full enumeration — such cells run under an explicit
//! *bounded* budget (`exhaustive: false` in the row) and act as systematic
//! deep fuzzing rather than full proofs (DESIGN.md §13).
//!

use crate::cells::{mix, Harness, Row};
use crate::runner::{run_cell, shrink_trace, World};
use bruck_comm::{ScheduleTrace, SimOp, SimStep, VectorClock};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Dependency relation and canonical trace digests
// ---------------------------------------------------------------------------

/// True when `a` reads the virtual clock: ordering it against any other
/// clock reader can change what global quiescence looks like, so all such
/// ops are conservatively pairwise dependent.
fn clocked(a: &SimOp) -> bool {
    matches!(a, SimOp::Sleep | SimOp::Arrival | SimOp::Recv { timed: true, .. })
}

/// The DPOR dependency relation over pending-op footprints. `ra`/`rb` are
/// the ranks the ops belong to. Sound over-approximation: independent ops
/// always commute in `SimComm`; dependent ops may not.
pub fn dependent(ra: u32, a: &SimOp, rb: u32, b: &SimOp) -> bool {
    if ra == rb {
        return true;
    }
    if clocked(a) && clocked(b) {
        return true;
    }
    match (a, b) {
        // A send interferes with the matching-channel receive/probe on the
        // destination rank: executing one changes whether the other blocks.
        (SimOp::Send { dest, tag }, SimOp::Recv { src, tag: rt, .. })
        | (SimOp::Send { dest, tag }, SimOp::Probe { src, tag: rt }) => {
            *dest as u32 == rb && *src as u32 == ra && tag == rt
        }
        (SimOp::Recv { src, tag: rt, .. }, SimOp::Send { dest, tag })
        | (SimOp::Probe { src, tag: rt }, SimOp::Send { dest, tag }) => {
            *dest as u32 == ra && *src as u32 == rb && tag == rt
        }
        // An arrival wait observes every deposit into its rank's store,
        // whatever the key: any send to that rank changes what it returns
        // and whether it parks.
        (SimOp::Send { dest, .. }, SimOp::Arrival) => *dest as u32 == rb,
        (SimOp::Arrival, SimOp::Send { dest, .. }) => *dest as u32 == ra,
        // Sends commute with each other (per-channel queues), receives and
        // probes on different ranks touch disjoint mailboxes, and spawns
        // touch nothing.
        _ => false,
    }
}

fn op_code(op: &SimOp) -> u64 {
    match op {
        SimOp::Spawn => 1,
        SimOp::Send { dest, tag } => mix(2 ^ ((*dest as u64) << 8) ^ ((*tag as u64) << 32)),
        SimOp::Recv { src, tag, timed } => {
            mix(3 ^ ((*src as u64) << 8) ^ ((*tag as u64) << 32) ^ ((*timed as u64) << 62))
        }
        SimOp::Probe { src, tag } => mix(4 ^ ((*src as u64) << 8) ^ ((*tag as u64) << 32)),
        SimOp::Sleep => 5,
        SimOp::Arrival => 6,
    }
}

/// Canonical digest of one executed schedule under the dependency relation:
/// the Foata normal form — each event lands in the earliest layer after
/// every earlier dependent event, and layers are rank-sorted — is identical
/// for every interleaving of the same Mazurkiewicz trace, so the set of
/// digests seen counts the *inequivalent* schedules explored.
pub fn canonical_trace_digest(run: &[(u32, SimOp)]) -> u64 {
    let mut layer = vec![0usize; run.len()];
    for j in 0..run.len() {
        let mut l = 0;
        for i in 0..j {
            if dependent(run[i].0, &run[i].1, run[j].0, &run[j].1) {
                l = l.max(layer[i] + 1);
            }
        }
        layer[j] = l;
    }
    let mut keyed: Vec<(usize, u32, u64)> =
        run.iter().zip(&layer).map(|(&(r, op), &l)| (l, r, op_code(&op))).collect();
    keyed.sort_unstable();
    let mut d = 0xF0A7_A0F0_D16E_5701u64;
    for (l, r, code) in keyed {
        d = mix(d ^ l as u64);
        d = mix(d ^ r as u64);
        d = mix(d ^ code);
    }
    d
}

/// log10 of the number of naive interleavings of the run: the multinomial
/// `(Σ n_r)! / Π n_r!` over per-rank step counts, in log space (the value
/// itself overflows anything for even modest worlds).
pub fn naive_interleavings_log10(run: &[(u32, SimOp)]) -> f64 {
    let mut per_rank: BTreeMap<u32, u64> = BTreeMap::new();
    for &(r, _) in run {
        *per_rank.entry(r).or_insert(0) += 1;
    }
    let ln_fact = |n: u64| -> f64 { (2..=n).map(|k| (k as f64).ln()).sum() };
    let total: u64 = per_rank.values().sum();
    let ln = ln_fact(total) - per_rank.values().map(|&n| ln_fact(n)).sum::<f64>();
    ln / std::f64::consts::LN_10
}

// ---------------------------------------------------------------------------
// The stateless DPOR explorer over SimComm cells
// ---------------------------------------------------------------------------

/// Exploration outcome for one cell.
#[derive(Debug)]
pub struct CellVerifyReport {
    /// Did the row promise convergence inside its budget?
    pub exhaustive: bool,
    /// Schedules executed (complete replays from the root).
    pub executions: u64,
    /// Distinct Mazurkiewicz classes seen (canonical trace digests).
    pub classes: usize,
    /// Scheduling points of the baseline schedule.
    pub baseline_len: usize,
    /// log10 of the naive interleaving count of the baseline schedule.
    pub naive_log10: f64,
    /// True when the backtrack frontier emptied — every inequivalent
    /// interleaving has been explored.
    pub converged: bool,
    /// First property violation found, already minimized.
    pub violation: Option<Violation>,
}

impl CellVerifyReport {
    /// Pruning factor vs. naive enumeration, in log10 (so 1.0 means 10×).
    pub fn pruning_log10(&self) -> f64 {
        self.naive_log10 - (self.executions.max(1) as f64).log10()
    }

    /// True when the cell met its contract: no violation, and converged if
    /// it promised to.
    pub fn ok(&self) -> bool {
        self.violation.is_none() && (self.converged || !self.exhaustive)
    }
}

/// A property violation with its full and ddmin-minimized witness schedules.
#[derive(Debug)]
pub struct Violation {
    /// What went wrong at the leaf.
    pub message: String,
    /// The schedule that exposed it.
    pub trace: ScheduleTrace,
    /// The minimized schedule (still failing).
    pub min_trace: ScheduleTrace,
}

/// One executed scheduling step: the rank and the op it ran.
type Event = (u32, SimOp);

/// The events a recorded run executed, in order.
fn executed(steps: &[SimStep]) -> Vec<Event> {
    let op = |s: &SimStep| match s.enabled.iter().find(|(r, _)| *r == s.chosen) {
        Some(&(_, op)) => op,
        None => panic!("recorded step chose rank {} outside its enabled set", s.chosen),
    };
    steps.iter().map(|s| (s.chosen, op(s))).collect()
}

/// Indices `m` of `v` whose event no earlier event of `v` is dependent with:
/// the events that can run first in some interleaving equivalent to `v`.
fn initials(v: &[Event]) -> impl Iterator<Item = usize> + '_ {
    (0..v.len()).filter(|&m| v[..m].iter().all(|a| !dependent(a.0, &a.1, v[m].0, &v[m].1)))
}

/// What of `seq` a schedule can replay while `sleep` stays asleep, in order:
/// an event of a sleeping rank is dropped, and so is every event dependent
/// with a dropped one (its rank's later events among them). A kept event
/// dependent with a sleeper's op wakes it.
fn awake(seq: &[Event], mut sleep: BTreeMap<u32, SimOp>) -> Vec<Event> {
    let mut dropped: Vec<Event> = Vec::new();
    let mut kept = Vec::new();
    for &(r, op) in seq {
        if sleep.contains_key(&r) || dropped.iter().any(|d| dependent(d.0, &d.1, r, &op)) {
            dropped.push((r, op));
            continue;
        }
        sleep.retain(|&s, sop| !dependent(s, sop, r, &op));
        kept.push((r, op));
    }
    kept
}

/// Happens-before over an executed run: the transitive closure of program
/// order and [`dependent`] (so a send happens before the receive it fed),
/// kept as vector clocks.
struct Hb {
    run: Vec<Event>,
    /// `clock[k].get(r)`: how many events of rank `r` happen before (or are)
    /// event `k`.
    clock: Vec<VectorClock>,
    /// Each event's direct predecessors: its rank's previous event and every
    /// earlier dependent event of another rank.
    preds: Vec<Vec<usize>>,
}

impl Hb {
    fn new(run: Vec<Event>) -> Hb {
        let p = run.iter().map(|e| e.0 as usize + 1).max().unwrap_or(0);
        let mut hb = Hb { clock: Vec::new(), preds: Vec::new(), run };
        let mut last: Vec<Option<usize>> = vec![None; p];
        for (j, &(rj, oj)) in hb.run.iter().enumerate() {
            let other = |&k: &usize| {
                let (rk, ok) = hb.run[k];
                rk != rj && dependent(rk, &ok, rj, &oj)
            };
            let preds: Vec<usize> =
                last[rj as usize].into_iter().chain((0..j).filter(other)).collect();
            let mut c = VectorClock::new(p);
            for &k in &preds {
                c.join(&hb.clock[k]);
            }
            c.tick(rj as usize);
            hb.clock.push(c);
            hb.preds.push(preds);
            last[rj as usize] = Some(j);
        }
        hb
    }

    /// Does event `i` happen before (or is it) event `k`?
    fn before(&self, i: usize, k: usize) -> bool {
        let ri = self.run[i].0 as usize;
        self.clock[i].get(ri) <= self.clock[k].get(ri)
    }

    /// The races whose later event `j` lies in `from..to`, each as `(i, v)`:
    /// the earlier event's index and the indices of the reversal
    /// `v = notdep(i).j` — the events between `i` and `j` that do not happen
    /// after `i`, then `j` — which runs `j` before `i` from the state before
    /// `i`.
    ///
    /// `i` and `j` race when they are dependent, belong to different ranks,
    /// and no event between them happens after `i` and before `j`. A race is
    /// dropped when its reversal cannot run: a rank that was not enabled at
    /// `i` (blocked in a receive or an arrival wait) whose first event in `v`
    /// nothing earlier in `v` could have woken. That is how a send and the
    /// receive it woke add no backtrack point: only `i` could wake it.
    fn reversals(&self, steps: &[SimStep], from: usize, to: usize) -> Vec<(usize, Vec<usize>)> {
        let mut found = Vec::new();
        for j in from..to {
            let preds = &self.preds[j];
            for &i in preds.iter().filter(|&&i| self.run[i].0 != self.run[j].0) {
                if preds.iter().any(|&k| k > i && self.before(i, k)) {
                    continue; // ordered through a later event: not a race
                }
                let v: Vec<usize> = (i + 1..j).filter(|&k| !self.before(i, k)).chain([j]).collect();
                let enabled = |r: u32| steps[i].enabled.iter().any(|e| e.0 == r);
                let feasible = v.iter().enumerate().all(|(m, &k)| {
                    let e = self.run[k];
                    let first = v.iter().position(|&a| self.run[a].0 == e.0) == Some(m);
                    !first || enabled(e.0) || v[..m].iter().any(|&a| self.preds[k].contains(&a))
                });
                if feasible {
                    found.push((i, v));
                }
            }
        }
        found
    }
}

/// One node of the DFS stack: the scheduling point's enabled set and the
/// source-set bookkeeping that decides which siblings still need exploring.
struct Node {
    /// Enabled ranks and their pending-op footprints, as recorded.
    enabled: Vec<Event>,
    /// The rank executed from this point on the current path.
    chosen: u32,
    /// The source set: ranks that must be explored from this node, each
    /// with the events to replay after it (the rest of the race reversal
    /// that put it there, and what follows), so the run follows the reversed
    /// race instead of the lowest-rank fallback. Seeded with the first
    /// chosen rank.
    backtrack: BTreeMap<u32, Vec<Event>>,
    /// Sleep set: ranks whose op here provably re-explores an equivalent
    /// schedule (already explored in a sibling and independent of everything
    /// executed since). Never picked.
    sleep: BTreeMap<u32, SimOp>,
}

impl Node {
    fn op_of(&self, rank: u32) -> SimOp {
        match self.enabled.iter().find(|(r, _)| *r == rank) {
            Some(&(_, op)) => op,
            None => panic!("node chose rank {rank} outside its enabled set"),
        }
    }

    /// The sleep set a child inherits when `rank` runs here: the sleepers
    /// independent of its op.
    fn sleep_after(&self, rank: u32) -> BTreeMap<u32, SimOp> {
        let op = self.op_of(rank);
        let keeps = |(r, sop): &(&u32, &SimOp)| !dependent(**r, sop, rank, &op);
        self.sleep.iter().filter(keeps).map(|(r, sop)| (*r, *sop)).collect()
    }

    /// Add a source-set representative of the reversal `v` unless one of
    /// its initials is already in the backtrack set. An initial asleep here
    /// is never picked; if every initial is, the reversal's schedules have
    /// all been covered by an explored sibling.
    /// `then` is what the run did from this node on with `v` taken out: it
    /// is replayed after `v`, as far as the sleep set lets it, as a guess at
    /// a continuation that keeps clear of sleeping ranks.
    fn add_reversal(&mut self, v: &[Event], then: impl Iterator<Item = Event>) {
        if initials(v).any(|m| self.backtrack.contains_key(&v[m].0)) {
            return;
        }
        if let Some(m) = initials(v).find(|&m| !self.sleep.contains_key(&v[m].0)) {
            let rest = v.iter().enumerate().filter(|&(k, _)| k != m).map(|(_, e)| *e);
            self.backtrack.insert(v[m].0, rest.chain(then).collect());
        }
    }
}

/// Exhaustively explore one [`Harness::Verify`] row. `wall_budget` bounds the
/// whole cell's exploration regardless of the execution budget.
pub fn explore_cell(row: &Row, wall_budget: Duration) -> CellVerifyReport {
    let start = Instant::now();
    let (cell, faults, seed) = (&row.cell, row.faults, row.seed);
    let (max_executions, exhaustive) = match row.harness {
        Harness::Verify { max_executions, exhaustive } => (max_executions, exhaustive),
        Harness::Check | Harness::Sim | Harness::Chaos { .. } | Harness::Recovery(_) => (1, false),
    };
    let mut executions = 0u64;
    let mut classes: BTreeSet<u64> = BTreeSet::new();
    let mut stack: Vec<Node> = Vec::new();
    // What to replay after the stack's own choices: the continuation the
    // deepest node's new choice came with, as far as its sleep set allows.
    let mut hint: Vec<u32> = Vec::new();
    let mut baseline_digest = None;
    let mut baseline_len = 0usize;
    let mut naive_log10 = 0.0f64;
    let mut violation = None;
    let mut converged = false;

    loop {
        // Events from `fresh` on are new to this run: the node there took a
        // new choice, and everything before it replays an explored path.
        let fresh = stack.len().saturating_sub(1);
        let replay: Vec<u32> = stack.iter().map(|n| n.chosen).chain(hint.drain(..)).collect();
        let world = World::Sim { sched_seed: seed, replay: Some(replay), record_steps: true };
        let out = run_cell(cell, faults, seed, &world);
        executions += 1;
        let steps = out.steps.as_deref().unwrap_or(&[]);
        let hb = Hb::new(executed(steps));
        let run = &hb.run;
        classes.insert(canonical_trace_digest(run));

        // Leaf assertions: every explored schedule must complete cleanly
        // with byte-identical results.
        let baseline = *baseline_digest.get_or_insert_with(|| {
            baseline_len = run.len();
            naive_log10 = naive_interleavings_log10(run);
            out.digest
        });
        let leaf_failure = out.failure.clone().or_else(|| {
            (out.digest != baseline).then(|| {
                format!(
                    "schedule-dependent result: digest {:#018x}, baseline {:#018x}",
                    out.digest, baseline
                )
            })
        });
        if let (Some(message), Some(trace)) = (leaf_failure, out.trace) {
            let min_trace =
                shrink_trace(cell, faults, seed, &trace, |o| !o.ok() || o.digest != baseline);
            violation = Some(Violation { message, trace, min_trace });
            break;
        }

        // Fold the realized run into the DFS stack: the replayed prefix
        // keeps its bookkeeping, the fresh suffix becomes new nodes whose
        // sleep sets are inherited through the independence filter. The
        // replay falls back to the lowest runnable rank, which may be asleep:
        // from that node on the run repeats an explored class, so it is cut
        // there, and the node's first choice becomes what the run can replay
        // of itself with the sleepers left out (or any awake rank).
        let mut end = run.len();
        for (j, &(rank, _)) in run.iter().enumerate().skip(stack.len()) {
            let sleep = stack.last().map_or_else(BTreeMap::new, |up| up.sleep_after(up.chosen));
            let enabled = steps[j].enabled.clone();
            let asleep = sleep.contains_key(&rank);
            let backtrack = if !asleep {
                BTreeMap::from([(rank, Vec::new())])
            } else if let Some((first, rest)) = awake(&run[j..], sleep.clone()).split_first() {
                BTreeMap::from([(first.0, rest.to_vec())])
            } else {
                let awake_rank = enabled.iter().map(|e| e.0).find(|r| !sleep.contains_key(r));
                awake_rank.map(|r| (r, Vec::new())).into_iter().collect()
            };
            stack.push(Node { enabled, chosen: rank, backtrack, sleep });
            if asleep {
                end = j;
                break;
            }
        }

        // Source-set DPOR: every race whose later event is new to this run
        // gets a representative of its reversal at the earlier event's node.
        for (i, v) in hb.reversals(steps, fresh, end) {
            let then = (i..run.len()).filter(|k| v.binary_search(k).is_err()).map(|k| run[k]);
            stack[i].add_reversal(&v.iter().map(|&k| run[k]).collect::<Vec<_>>(), then);
        }

        // Pick the deepest unexplored backtrack point and re-run from it.
        let picked = loop {
            let Some(node) = stack.last_mut() else { break false };
            // The just-finished subtree's root op goes to sleep for the
            // remaining siblings: any schedule starting with it here has
            // been covered.
            node.sleep.insert(node.chosen, node.op_of(node.chosen));
            if let Some((&cand, rest)) =
                node.backtrack.iter().find(|(r, _)| !node.sleep.contains_key(r))
            {
                hint = awake(rest, node.sleep_after(cand)).iter().map(|e| e.0).collect();
                node.chosen = cand;
                break true;
            }
            stack.pop();
        };
        if !picked {
            converged = true;
            break;
        }
        if executions >= max_executions || start.elapsed() > wall_budget {
            break;
        }
    }

    CellVerifyReport {
        exhaustive,
        executions,
        classes: classes.len(),
        baseline_len,
        naive_log10,
        converged,
        violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(dest: usize, tag: u32) -> SimOp {
        SimOp::Send { dest, tag }
    }

    fn recv(src: usize, tag: u32) -> SimOp {
        SimOp::Recv { src, tag, timed: false }
    }

    #[test]
    fn dependency_relation_matches_channels() {
        // Matching channel endpoints are dependent, both directions.
        assert!(dependent(0, &send(1, 7), 1, &recv(0, 7)));
        assert!(dependent(1, &recv(0, 7), 0, &send(1, 7)));
        // Different tag, source, or destination: independent.
        assert!(!dependent(0, &send(1, 7), 1, &recv(0, 8)));
        assert!(!dependent(0, &send(1, 7), 2, &recv(0, 7)));
        assert!(!dependent(0, &send(2, 7), 1, &recv(0, 7)));
        // Same rank always dependent; spawns independent across ranks.
        assert!(dependent(0, &SimOp::Spawn, 0, &send(1, 7)));
        assert!(!dependent(0, &SimOp::Spawn, 1, &SimOp::Spawn));
        // Clock-coupled ops are pairwise dependent.
        assert!(dependent(0, &SimOp::Sleep, 1, &SimOp::Recv { src: 0, tag: 1, timed: true }));
        // An arrival wait depends on every send to its rank, on no send to
        // anyone else, and on every clocked op.
        assert!(dependent(0, &send(1, 7), 1, &SimOp::Arrival));
        assert!(dependent(1, &SimOp::Arrival, 2, &send(1, 9)));
        assert!(!dependent(0, &send(2, 7), 1, &SimOp::Arrival));
        assert!(dependent(0, &SimOp::Sleep, 1, &SimOp::Arrival));
        assert!(dependent(0, &SimOp::Arrival, 1, &SimOp::Arrival));
        // Sends to different destinations commute.
        assert!(!dependent(0, &send(2, 7), 1, &send(2, 7)));
    }

    #[test]
    fn foata_digest_identifies_equivalent_interleavings() {
        // Two independent sends commute: both orders share a digest.
        let a = vec![(0u32, send(2, 1)), (1u32, send(3, 1))];
        let b = vec![(1u32, send(3, 1)), (0u32, send(2, 1))];
        assert_eq!(canonical_trace_digest(&a), canonical_trace_digest(&b));
        // A send and its matching receive do not commute.
        let c = vec![(0u32, send(1, 1)), (1u32, recv(0, 1))];
        let d = vec![(1u32, recv(0, 1)), (0u32, send(1, 1))];
        assert_ne!(canonical_trace_digest(&c), canonical_trace_digest(&d));
    }

    #[test]
    fn naive_count_is_the_multinomial() {
        // 2 ranks × 2 steps each: C(4,2) = 6 interleavings.
        let run = vec![(0u32, SimOp::Spawn), (0, send(1, 1)), (1, SimOp::Spawn), (1, recv(0, 1))];
        let got = naive_interleavings_log10(&run);
        assert!((got - 6f64.log10()).abs() < 1e-9, "got 10^{got}");
    }

    #[test]
    fn tiny_cell_converges_and_prunes() {
        use crate::cells::{rows, Family, Op, Tier, DEFAULT_SEEDS};
        let spread_out = Op::named(bruck_core::AlltoallvAlgorithm::SpreadOut);
        let row = rows(Family::Verify, Tier::Smoke, &DEFAULT_SEEDS)
            .into_iter()
            .find(|r| r.cell.op == spread_out && r.cell.p == 2)
            .expect("the registry has a P = 2 spread-out verify row");
        let report = explore_cell(&row, Duration::from_secs(60));
        assert!(report.ok(), "violation: {:?}", report.violation);
        assert!(report.converged, "did not converge in {} executions", report.executions);
        assert!(report.classes >= 2, "a 2-rank exchange has inequivalent schedules");
        assert_eq!(report.executions, report.classes as u64, "one run per class");
    }

    /// A recorded step: `chosen` ran, out of `enabled`.
    fn step(chosen: u32, enabled: &[(u32, SimOp)]) -> SimStep {
        SimStep { chosen, enabled: enabled.to_vec() }
    }

    /// The races of a hand-built run whose later event is at `from` or later.
    fn races(steps: &[SimStep], from: usize) -> Vec<(usize, Vec<Event>)> {
        let hb = Hb::new(executed(steps));
        let found = hb.reversals(steps, from, steps.len());
        found.into_iter().map(|(i, v)| (i, v.iter().map(|&k| hb.run[k]).collect())).collect()
    }

    #[test]
    fn a_send_and_the_receive_it_wakes_add_no_backtrack_point() {
        // Rank 1 tries its receive first and blocks; rank 0's send wakes it.
        // Only the attempt and the send race (the send could have gone
        // first); the woken receive had no other waker.
        let steps = [
            step(1, &[(0, send(1, 5)), (1, recv(0, 5))]),
            step(0, &[(0, send(1, 5))]),
            step(1, &[(1, recv(0, 5))]),
        ];
        assert_eq!(races(&steps, 0), vec![(0, vec![(0, send(1, 5))])]);
        // Sent first, the same receive was enabled all along: blocking
        // before the send is the other order.
        let steps = [
            step(0, &[(0, send(1, 5)), (1, recv(0, 5))]),
            step(1, &[(1, recv(0, 5))]),
        ];
        assert_eq!(races(&steps, 0), vec![(0, vec![(1, recv(0, 5))])]);
    }

    #[test]
    fn two_sends_into_a_probe_or_an_arrival_race_in_both_orders() {
        // Rank 2 probes rank 0's channel, or waits for any arrival, while
        // ranks 0 and 1 send to it. The sends commute with each other, so
        // each races the observer: it may run before rank 0's send (after
        // rank 1's) and between the two.
        let probe = SimOp::Probe { src: 0, tag: 5 };
        for (observer, races_rank_1) in [(probe, false), (SimOp::Arrival, true)] {
            let steps = [
                step(0, &[(0, send(2, 5)), (1, send(2, 5)), (2, observer)]),
                step(1, &[(1, send(2, 5)), (2, observer)]),
                step(2, &[(2, observer)]),
            ];
            let mut want = vec![(0, vec![(1, send(2, 5)), (2, observer)])];
            if races_rank_1 {
                want.push((1, vec![(2, observer)]));
            }
            assert_eq!(races(&steps, 0), want, "{observer:?}");
            // Explored from the new event on, the old race is not redone.
            assert!(races(&steps, 3).is_empty());
        }
    }
}
