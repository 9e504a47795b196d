//! Stateless dynamic partial-order reduction (DPOR) over the deterministic
//! simulator, plus an exhaustive happens-before audit of the event runtime's
//! wakeup protocol. This is the engine behind the `bruck-verify` binary.
//!
//! ## What it proves
//!
//! `bruck-sim` *samples* the schedule space with seeds; this module
//! *exhausts* it for tiny worlds. A [`Harness::Verify`] registry row names a
//! cell, a budget and a contract, and the explorer enumerates every
//! Mazurkiewicz-inequivalent interleaving of its scheduling points
//! (classic Flanagan–Godefroid stateless DPOR: depth-first replay from
//! schedule prefixes, backtrack sets derived from the dependency relation,
//! sleep sets to kill redundant siblings). At every explored leaf it asserts
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
//! advances at global quiescence and therefore couples all timed ops. Fault-stack cells
//! are dominated by timed ops, so their reduction degenerates toward full
//! enumeration — such cells run under an explicit *bounded* budget
//! (`exhaustive: false` in the row) and act as systematic deep fuzzing
//! rather than full proofs (DESIGN.md §13).
//!
//! ## The event-runtime auditor
//!
//! The second prong drives `EventComm::run_scheduled` — the PR 6 event
//! runtime under a deterministic single-worker pick policy — through
//! **every** worker-pick interleaving of tiny scenarios, and checks the
//! `hb-audit` transition log of each schedule against the wakeup-protocol
//! invariants ([`audit_check`]): no lost wakeups (every taken waiter is
//! followed by a wake of that rank), no stale-epoch wake application, no
//! double enqueue, vector-clock domination (a woken task's next execution
//! joins its waker's clock), and termination. A violation is minimized with
//! [`shrink_choices`] and saved as a one-command replayable trace.

use crate::cells::{mix, Harness, Row};
use crate::runner::{run_cell, shrink_trace, World};
use bruck_comm::{
    shrink_choices, AuditKind, CommError, Communicator, EventComm, EventRun, EventVerifyOpts,
    ScheduleTrace, SimConfig, SimOp, WakeSource,
};
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

/// One node of the DFS stack: the scheduling point's enabled set and the
/// DPOR bookkeeping that decides which siblings still need exploring.
struct Node {
    /// Enabled ranks and their pending-op footprints, as recorded.
    enabled: Vec<(u32, SimOp)>,
    /// The rank executed from this point on the current path.
    chosen: u32,
    /// Ranks whose subtree at this node has been explored.
    done: BTreeSet<u32>,
    /// Ranks that must be explored from this node (Flanagan–Godefroid
    /// backtrack sets, seeded with the first chosen rank).
    backtrack: BTreeSet<u32>,
    /// Sleep set: ranks whose op here provably re-explores an equivalent
    /// schedule (already explored in a sibling and independent of everything
    /// executed since). Never picked.
    sleep: BTreeMap<u32, SimOp>,
}

impl Node {
    fn op_of(&self, rank: u32) -> Option<SimOp> {
        self.enabled.iter().find(|(r, _)| *r == rank).map(|(_, op)| *op)
    }

    fn next_candidate(&self) -> Option<u32> {
        self.backtrack
            .iter()
            .copied()
            .find(|r| !self.done.contains(r) && !self.sleep.contains_key(r))
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
    let mut prefix: Vec<u32> = Vec::new();
    let mut baseline_digest = None;
    let mut baseline_len = 0usize;
    let mut naive_log10 = 0.0f64;
    let mut violation = None;
    let mut converged = false;

    loop {
        let world =
            World::Sim { sched_seed: seed, replay: Some(prefix.clone()), record_steps: true };
        let out = run_cell(cell, faults, seed, &world);
        executions += 1;
        let steps = out.steps.as_deref().unwrap_or(&[]);
        let run: Vec<(u32, SimOp)> = steps
            .iter()
            .map(|s| {
                let op = match s.enabled.iter().find(|(r, _)| *r == s.chosen) {
                    Some((_, op)) => *op,
                    None => panic!("recorded step chose rank {} outside its enabled set", s.chosen),
                };
                (s.chosen, op)
            })
            .collect();
        classes.insert(canonical_trace_digest(&run));

        // Leaf assertions: every explored schedule must complete cleanly
        // with byte-identical results.
        let baseline = *baseline_digest.get_or_insert_with(|| {
            baseline_len = run.len();
            naive_log10 = naive_interleavings_log10(&run);
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
        // sleep sets are inherited through the independence filter.
        for (j, (rank, op)) in run.iter().enumerate().skip(stack.len()) {
            let sleep = match stack.last() {
                Some(parent) => {
                    let pop = match parent.op_of(parent.chosen) {
                        Some(op) => op,
                        None => panic!("parent node chose a rank outside its enabled set"),
                    };
                    parent
                        .sleep
                        .iter()
                        .filter(|(r, sop)| !dependent(**r, sop, parent.chosen, &pop))
                        .map(|(r, sop)| (*r, *sop))
                        .collect()
                }
                None => BTreeMap::new(),
            };
            stack.push(Node {
                enabled: steps[j].enabled.clone(),
                chosen: *rank,
                done: BTreeSet::from([*rank]),
                backtrack: BTreeSet::from([*rank]),
                sleep,
            });
            // The prefix mirrors the stack: replaying it reproduces the
            // path down to any node we later backtrack from.
            prefix.push(*rank);
            let _ = op;
        }

        // Flanagan–Godefroid backtrack rule over the realized run: for each
        // executed step j, the *last* earlier step i (of another rank) whose
        // op is dependent with j's must also try running j's rank first.
        for j in 0..run.len() {
            let (rj, oj) = run[j];
            let mut i = j;
            while i > 0 {
                i -= 1;
                let (ri, oi) = run[i];
                if ri != rj && dependent(ri, &oi, rj, &oj) {
                    if stack[i].op_of(rj).is_some() {
                        stack[i].backtrack.insert(rj);
                    } else {
                        // `rj` was not enabled at `i`: conservatively try
                        // everything that was.
                        let all: Vec<u32> = stack[i].enabled.iter().map(|(r, _)| *r).collect();
                        stack[i].backtrack.extend(all);
                    }
                    break;
                }
            }
        }

        // Pick the deepest unexplored backtrack point and re-run from it.
        let mut next = None;
        while let Some(node) = stack.last_mut() {
            if let Some(cand) = node.next_candidate() {
                // The just-finished subtree's root op goes to sleep for the
                // remaining siblings: any schedule starting with it here has
                // been covered.
                if let Some(op) = node.op_of(node.chosen) {
                    node.sleep.insert(node.chosen, op);
                }
                node.done.insert(cand);
                node.chosen = cand;
                next = Some(stack.len());
                break;
            }
            stack.pop();
            prefix.pop();
        }
        match next {
            None => {
                converged = true;
                break;
            }
            Some(depth) => {
                prefix.truncate(depth - 1);
                prefix.push(stack[depth - 1].chosen);
            }
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

// ---------------------------------------------------------------------------
// Event-runtime wakeup-protocol auditor
// ---------------------------------------------------------------------------

/// Tiny event-runtime scenarios the auditor explores exhaustively. Each is
/// small enough that *every* worker-pick interleaving fits in the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventScenario {
    /// Rank 0 sends one message, rank 1 receives it (the minimal park/wake
    /// handshake, and the seeded lost-wakeup bug's habitat).
    Ping,
    /// Both ranks send to each other, then receive (wake vs. store-hit in
    /// both directions).
    Cross,
    /// A 3-rank ring pass (chained wakes).
    Ring3,
    /// Rank 1 receives with a timeout racing rank 0's send: explores both
    /// the message-wins and timer-wins outcomes, including stale-timer
    /// drops.
    TimeoutRace,
}

impl EventScenario {
    /// All scenarios, in report order.
    pub const ALL: [EventScenario; 4] =
        [EventScenario::Ping, EventScenario::Cross, EventScenario::Ring3, EventScenario::TimeoutRace];

    /// Stable name (used in trace `meta` lines).
    pub fn name(&self) -> &'static str {
        match self {
            EventScenario::Ping => "ping",
            EventScenario::Cross => "cross",
            EventScenario::Ring3 => "ring3",
            EventScenario::TimeoutRace => "timeout-race",
        }
    }

    /// Parse a stable name back.
    pub fn parse(name: &str) -> Option<EventScenario> {
        Self::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// World size.
    pub fn p(&self) -> usize {
        match self {
            EventScenario::Ring3 => 3,
            _ => 2,
        }
    }

    /// Run the scenario's closure for one rank; returns a small outcome
    /// code checked by [`acceptable`](EventScenario::acceptable). A failed
    /// op panics; scheduled mode captures the panic as that rank's outcome.
    fn body(&self, comm: &EventComm<'_>) -> u64 {
        fn must<T>(r: Result<T, CommError>) -> T {
            match r {
                Ok(v) => v,
                Err(e) => panic!("scenario op failed: {e}"),
            }
        }
        let me = comm.rank();
        match self {
            EventScenario::Ping => {
                if me == 0 {
                    must(comm.send(1, 3, &[7]));
                    0
                } else {
                    u64::from(must(comm.recv(0, 3))[0])
                }
            }
            EventScenario::Cross => {
                let other = 1 - me;
                must(comm.send(other, 4, &[10 + me as u8]));
                u64::from(must(comm.recv(other, 4))[0])
            }
            EventScenario::Ring3 => {
                let right = (me + 1) % 3;
                let left = (me + 2) % 3;
                must(comm.send(right, 5, &[me as u8]));
                u64::from(must(comm.recv(left, 5))[0])
            }
            EventScenario::TimeoutRace => {
                if me == 0 {
                    must(comm.send(1, 6, &[9]));
                    0
                } else {
                    match comm.recv_timeout(0, 6, Duration::from_millis(1)) {
                        Ok(buf) => u64::from(buf[0]),
                        Err(CommError::Timeout { .. }) => 1000,
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }
        }
    }

    /// Is this per-rank outcome legal for the scenario? Scenarios with a
    /// genuine race (timeout vs. message) admit a set of outcomes; all
    /// others are singletons.
    fn acceptable(&self, rank: usize, out: u64) -> bool {
        match self {
            EventScenario::Ping => out == if rank == 0 { 0 } else { 7 },
            EventScenario::Cross => out == 10 + (1 - rank as u64),
            EventScenario::Ring3 => out == (rank as u64 + 2) % 3,
            EventScenario::TimeoutRace => {
                if rank == 0 {
                    out == 0
                } else {
                    out == 9 || out == 1000
                }
            }
        }
    }
}

/// Auditing event-runtime options; `with_bug` arms the seeded lost-wakeup
/// bug. bruck-check compiles bruck-comm with `seeded-bugs` (Cargo.toml), so
/// the arming constructor is always available here; the bug still fires
/// only in runs that arm it.
pub fn event_opts(with_bug: bool) -> EventVerifyOpts {
    let mut o = EventVerifyOpts::default();
    o.audit = true;
    if with_bug {
        o.with_lost_wakeup_bug()
    } else {
        o
    }
}

/// Replay an auditor witness (`meta`: `event scenario=<name> bug=<bool>`)
/// under exactly its recorded picks. `Ok` carries the scenario, whether the
/// bug was armed, and the violation if it reproduced.
pub fn replay_event_trace(
    trace: &ScheduleTrace,
) -> Result<(EventScenario, bool, Option<String>), String> {
    let (mut scenario, mut bug) = (None, false);
    for tok in trace.meta.split_whitespace() {
        match tok.split_once('=') {
            Some(("scenario", v)) => scenario = EventScenario::parse(v),
            Some(("bug", v)) => bug = v == "true",
            _ => {}
        }
    }
    let scenario = scenario.ok_or("the trace names no known event scenario")?;
    let run = run_event_scenario(scenario, &SimConfig::replay_trace(trace), event_opts(bug));
    Ok((scenario, bug, event_leaf_check(scenario, &run)))
}

/// Run one scenario under the scheduled event runtime.
pub fn run_event_scenario(
    scenario: EventScenario,
    cfg: &SimConfig,
    opts: EventVerifyOpts,
) -> EventRun<u64> {
    EventComm::run_scheduled(scenario.p(), cfg, opts, move |comm| scenario.body(comm))
}

/// Check one scheduled run's audit log against the wakeup-protocol
/// invariants. Returns one message per violation (empty = clean).
pub fn audit_check(run: &EventRun<u64>, p: usize) -> Vec<String> {
    let mut bad = Vec::new();
    let events = &run.audit;
    // (1) Lost wakeup: every taken waiter is eventually woken (enqueued or
    // flagged mid-unwind) or its rank finishes/has the wake superseded.
    for (i, e) in events.iter().enumerate() {
        if let AuditKind::WaiterTaken { rank, epoch, by } = e.kind {
            let woken = events[i + 1..].iter().any(|later| match later.kind {
                AuditKind::Enqueued { rank: r, .. }
                | AuditKind::WakeFlagged { rank: r, .. }
                | AuditKind::TaskDone { rank: r }
                | AuditKind::StaleDrop { rank: r, .. } => r == rank,
                _ => false,
            });
            if !woken {
                bad.push(format!(
                    "lost wakeup: waiter of rank {rank} (epoch {epoch}) taken by {by:?} \
                     but the rank is never woken or finished"
                ));
            }
        }
    }
    // (2) Stale-epoch application: an external wake must be applied at the
    // epoch of the rank's latest committed park; a park-commit requeue must
    // match the rank's latest execution epoch.
    let mut last_park = vec![None::<u64>; p];
    let mut last_exec = vec![None::<u64>; p];
    // (3) Double enqueue: between two wakes of a rank there must be an
    // execution of it.
    let mut pending_wake = vec![false; p];
    for e in events {
        match e.kind {
            AuditKind::ParkCommitted { rank, epoch } => last_park[rank] = Some(epoch),
            AuditKind::ExecStart { rank, epoch } => {
                last_exec[rank] = Some(epoch);
                pending_wake[rank] = false;
            }
            AuditKind::Enqueued { rank, epoch, by } => {
                let want = match by {
                    WakeSource::ParkCommit => last_exec[rank],
                    _ => last_park[rank],
                };
                if want != Some(epoch) {
                    bad.push(format!(
                        "stale-epoch wake: rank {rank} enqueued by {by:?} at epoch {epoch}, \
                         expected {want:?}"
                    ));
                }
                if pending_wake[rank] {
                    bad.push(format!("double enqueue: rank {rank} woken twice without running"));
                }
                pending_wake[rank] = true;
            }
            _ => {}
        }
    }
    // (4) Happens-before: a woken rank's next execution must causally follow
    // the wake (its clock joins the waker's — domination componentwise).
    for (i, e) in events.iter().enumerate() {
        if let AuditKind::Enqueued { rank, .. } = e.kind {
            if let Some(exec) = events[i + 1..]
                .iter()
                .find(|l| matches!(l.kind, AuditKind::ExecStart { rank: r, .. } if r == rank))
            {
                if exec.clock.iter().zip(&e.clock).any(|(a, b)| a < b) {
                    bad.push(format!(
                        "happens-before violation: rank {rank}'s post-wake execution does \
                         not causally follow its enqueue"
                    ));
                }
            }
        }
    }
    // (5) Termination: unless the runtime reported itself stuck, every rank
    // must have completed.
    if run.stuck.is_none() {
        for rank in 0..p {
            if !events.iter().any(|e| matches!(e.kind, AuditKind::TaskDone { rank: r } if r == rank))
            {
                bad.push(format!("rank {rank} never completed in a run that claims to have"));
            }
        }
    }
    bad
}

/// Verdict of checking one scheduled run end to end: runtime stuck, audit
/// violations, and outcome legality.
pub fn event_leaf_check(scenario: EventScenario, run: &EventRun<u64>) -> Option<String> {
    if let Some(stuck) = &run.stuck {
        return Some(stuck.clone());
    }
    for (rank, out) in run.outcomes.iter().enumerate() {
        match out {
            None => return Some(format!("rank {rank} never completed")),
            Some(Err(msg)) => return Some(format!("rank {rank} panicked: {msg}")),
            Some(Ok(v)) => {
                if !scenario.acceptable(rank, *v) {
                    return Some(format!("rank {rank}: illegal outcome {v}"));
                }
            }
        }
    }
    audit_check(run, scenario.p()).into_iter().next()
}

/// Report of exhaustively exploring one event scenario.
#[derive(Debug)]
pub struct EventVerifyReport {
    /// The scenario explored.
    pub scenario: EventScenario,
    /// Schedules executed.
    pub executions: u64,
    /// True when every worker-pick interleaving was explored.
    pub converged: bool,
    /// First violation found, minimized.
    pub violation: Option<Violation>,
}

/// Exhaustively explore every worker-pick interleaving of a scenario
/// (enabled sets carry no op footprints, so this is plain DFS, no
/// reduction — the trees are tiny). `with_bug` arms the seeded lost-wakeup
/// bug (needs the `seeded-bugs` feature to have any effect).
pub fn explore_event_scenario(
    scenario: EventScenario,
    max_executions: u64,
    with_bug: bool,
) -> EventVerifyReport {
    let opts = || event_opts(with_bug);
    let meta = format!("event scenario={} bug={}", scenario.name(), with_bug);
    let cfg_for = |prefix: &[u32]| SimConfig {
        seed: 0,
        replay: Some(prefix.to_vec()),
        meta: meta.clone(),
        record_steps: false,
    };
    let mut executions = 0u64;
    let mut stack: Vec<(Vec<u32>, BTreeSet<u32>, u32)> = Vec::new(); // (enabled, done, chosen)
    let mut prefix: Vec<u32> = Vec::new();
    let mut violation = None;
    let mut converged = false;
    loop {
        let run = run_event_scenario(scenario, &cfg_for(&prefix), opts());
        executions += 1;
        if let Some(message) = event_leaf_check(scenario, &run) {
            let fails = |cand: &[u32]| {
                let r = run_event_scenario(scenario, &cfg_for(cand), opts());
                event_leaf_check(scenario, &r).is_some()
            };
            let min_choices = shrink_choices(&run.trace.choices, fails);
            let mut trace = run.trace;
            trace.meta = meta.clone();
            let min_trace = ScheduleTrace {
                p: trace.p,
                seed: trace.seed,
                meta: meta.clone(),
                choices: min_choices,
            };
            violation = Some(Violation { message, trace, min_trace });
            break;
        }
        for step in run.steps.iter().skip(stack.len()) {
            stack.push((step.enabled.clone(), BTreeSet::from([step.chosen]), step.chosen));
        }
        let mut next = None;
        while let Some((enabled, done, chosen)) = stack.last_mut() {
            if let Some(cand) = enabled.iter().copied().find(|r| !done.contains(r)) {
                done.insert(cand);
                *chosen = cand;
                next = Some(stack.len());
                break;
            }
            stack.pop();
            prefix.pop();
        }
        match next {
            None => {
                converged = true;
                break;
            }
            Some(depth) => {
                prefix.truncate(depth - 1);
                prefix.push(stack[depth - 1].2);
            }
        }
        if executions >= max_executions {
            break;
        }
    }
    EventVerifyReport { scenario, executions, converged, violation }
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
        assert!(
            report.executions < 10u64.pow(report.naive_log10.ceil() as u32).max(1),
            "explored {} ≥ naive 10^{:.1}",
            report.executions,
            report.naive_log10
        );
    }

    #[test]
    fn event_scenarios_converge_exhaustively() {
        for scenario in [EventScenario::Ping, EventScenario::Cross] {
            let report = explore_event_scenario(scenario, 100_000, false);
            assert!(report.converged, "{scenario:?} did not converge");
            assert!(report.violation.is_none(), "{scenario:?}: {:?}", report.violation);
            assert!(report.executions >= 2, "{scenario:?} has at least two interleavings");
        }
    }

    /// Regression pin for the seeded lost-wakeup bug (DESIGN.md §13.2): the
    /// exhaustive explorer must *find* the schedule-dependent fault that
    /// seed-based testing can miss, shrink the witness to a handful of
    /// scheduling choices, and the witness must replay deterministically.
    #[test]
    fn seeded_lost_wakeup_is_found_shrunk_and_replayable() {
        let report = explore_event_scenario(EventScenario::Ping, 10_000, true);
        let v = match &report.violation {
            Some(v) => v,
            None => panic!(
                "explored {} schedules without detecting the seeded lost wakeup",
                report.executions
            ),
        };
        assert!(
            v.message.contains("stuck") || v.message.contains("lost"),
            "unexpected violation kind: {}",
            v.message
        );
        assert!(
            v.min_trace.choices.len() <= 25,
            "shrunk witness has {} choices (> 25)",
            v.min_trace.choices.len()
        );
        // The saved witness replays: arm the bug, force the minimized
        // schedule, and the same violation must reproduce.
        let (scenario, bug, reproduced) = replay_event_trace(&v.min_trace).unwrap();
        assert_eq!((scenario, bug), (EventScenario::Ping, true));
        assert!(reproduced.is_some(), "minimized witness did not reproduce the violation");
        // Without the bug armed, the exact same schedule is clean — the
        // fault is the seeded bug, not the schedule.
        let cfg = SimConfig::replay_trace(&v.min_trace);
        let run = run_event_scenario(EventScenario::Ping, &cfg, event_opts(false));
        assert!(
            event_leaf_check(EventScenario::Ping, &run).is_none(),
            "clean runtime failed under the witness schedule"
        );
    }
}
