//! The second prong of `bruck-verify`: an exhaustive happens-before audit of
//! the event runtime's wakeup protocol.
//!
//! It drives `EventComm::run_scheduled` — the event runtime
//! under a deterministic single-worker pick policy — through **every**
//! worker-pick interleaving of tiny scenarios, and checks the happens-before
//! transition log every scheduled run records
//! ([`EventRun::audit`](bruck_comm::EventRun::audit)) against the
//! wakeup-protocol invariants
//! ([`audit_check`]): no lost wakeups (every taken waiter is followed by a
//! wake of that rank), no stale-epoch wake application, no double enqueue,
//! vector-clock domination (a woken task's next execution joins its waker's
//! clock), and termination. A violation is minimized with [`shrink_choices`]
//! and saved as a one-command replayable trace.

use crate::dpor::Violation;
use bruck_comm::{
    shrink_choices, AuditKind, CommError, Communicator, EventComm, EventRun, EventVerifyOpts,
    ScheduleTrace, SimConfig, WakeSource,
};
use bruck_core::{configurable_alltoallv, EngineConfig};
use std::collections::BTreeSet;
use std::time::Duration;

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
    /// A 2-rank two-phase Bruck `alltoallv` on the bare runtime, so every
    /// park is a resumed call's receive: the stored call's waiter, deposits
    /// and wakes under the same audit.
    TwoPhaseCall,
}

impl EventScenario {
    /// All scenarios, in report order.
    pub const ALL: [EventScenario; 5] = [
        EventScenario::Ping,
        EventScenario::Cross,
        EventScenario::Ring3,
        EventScenario::TimeoutRace,
        EventScenario::TwoPhaseCall,
    ];

    /// Stable name (used in trace `meta` lines).
    pub fn name(&self) -> &'static str {
        match self {
            EventScenario::Ping => "ping",
            EventScenario::Cross => "cross",
            EventScenario::Ring3 => "ring3",
            EventScenario::TimeoutRace => "timeout-race",
            EventScenario::TwoPhaseCall => "two-phase-call",
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
            EventScenario::TwoPhaseCall => {
                // Rank r sends r + 1 + d bytes to rank d, byte i = 16r + d + i.
                let block = |src: usize, dst: usize| -> Vec<u8> {
                    (0..src + 1 + dst).map(|i| (16 * src + dst + i) as u8).collect()
                };
                let sendcounts = [me + 1, me + 2];
                let sendbuf = [block(me, 0), block(me, 1)].concat();
                let recvcounts = [1, 2].map(|c| c + me);
                let rdispls = [0, recvcounts[0]];
                let mut recvbuf = vec![0u8; recvcounts[0] + recvcounts[1]];
                must(configurable_alltoallv(
                    comm,
                    &EngineConfig::as_two_phase(),
                    &sendbuf,
                    &sendcounts,
                    &[0, sendcounts[0]],
                    &mut recvbuf,
                    &recvcounts,
                    &rdispls,
                ));
                u64::from(recvbuf == [block(0, me), block(1, me)].concat())
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
            EventScenario::TwoPhaseCall => out == 1,
        }
    }
}

/// Scheduled-run options; `with_bug` arms the seeded lost-wakeup bug, which
/// fires only in runs that arm it.
pub fn event_opts(with_bug: bool) -> EventVerifyOpts {
    let o = EventVerifyOpts::default();
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
                if !e.clock.le(&exec.clock) {
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
/// bug.
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
    use bruck_comm::{AuditEvent, VectorClock};

    /// One clean recorded run, doctored at one event per invariant: each
    /// fixture trips exactly that invariant of [`audit_check`], and with its
    /// message, so none of the five checks can pass vacuously.
    #[test]
    fn each_audit_invariant_fails_on_its_own_doctored_log() {
        // Rank 1 parks first, so rank 0's deposit takes its waiter and
        // enqueues it: every invariant has an event of rank 1 to bite on.
        let cfg = SimConfig { replay: Some(vec![1, 0]), ..SimConfig::from_seed(0) };
        let doctored = |edit: &dyn Fn(&mut Vec<AuditEvent>)| {
            let mut run = run_event_scenario(EventScenario::Ping, &cfg, event_opts(false));
            edit(&mut run.audit);
            audit_check(&run, 2)
        };
        assert_eq!(doctored(&|_| {}), Vec::<String>::new(), "the undoctored run is clean");
        let clean = run_event_scenario(EventScenario::Ping, &cfg, event_opts(false)).audit;
        let at = |want: fn(&AuditKind) -> bool| {
            clean.iter().rposition(|e| want(&e.kind)).expect("the clean log records the wake")
        };
        let taken = at(|k| matches!(k, AuditKind::WaiterTaken { rank: 1, .. }));
        let enqueued = at(|k| matches!(k, AuditKind::Enqueued { rank: 1, .. }));
        let woken = at(|k| matches!(k, AuditKind::ExecStart { rank: 1, .. }));
        assert!(taken < enqueued && enqueued < woken, "{clean:?}");
        let AuditKind::Enqueued { epoch, .. } = clean[enqueued].kind else { unreachable!() };

        // (1) A dropped wake: the take moves past the rank's last event, so
        // no wake follows it.
        let lost = doctored(&|log| log[taken..].rotate_left(1));
        let msg = format!(
            "lost wakeup: waiter of rank 1 (epoch {epoch}) taken by Sender(0) but the rank is \
             never woken or finished"
        );
        assert_eq!(lost, [msg]);
        // (2) A wrong epoch on the wake.
        let stale = doctored(&|log| {
            log[enqueued].kind =
                AuditKind::Enqueued { rank: 1, epoch: epoch + 1, by: WakeSource::Sender(0) };
        });
        let msg = format!(
            "stale-epoch wake: rank 1 enqueued by Sender(0) at epoch {}, expected Some({epoch})",
            epoch + 1
        );
        assert_eq!(stale, [msg]);
        // (3) A second `Enqueued` before the rank runs.
        let double = doctored(&|log| log.insert(enqueued + 1, log[enqueued].clone()));
        assert_eq!(double, ["double enqueue: rank 1 woken twice without running"]);
        // (4) The woken execution's clock lowered below its enqueue's.
        let unordered = doctored(&|log| log[woken].clock = VectorClock::new(3));
        let msg = "happens-before violation: rank 1's post-wake execution does not causally \
                   follow its enqueue";
        assert_eq!(unordered, [msg]);
        // (5) A missing `TaskDone` in a run that reports no stall.
        let unfinished =
            doctored(&|log| log.retain(|e| !matches!(e.kind, AuditKind::TaskDone { rank: 1 })));
        assert_eq!(unfinished, ["rank 1 never completed in a run that claims to have"]);
    }

    #[test]
    fn event_scenarios_converge_exhaustively() {
        for scenario in [EventScenario::Ping, EventScenario::Cross, EventScenario::TwoPhaseCall] {
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
