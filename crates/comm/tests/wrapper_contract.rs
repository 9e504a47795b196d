//! The waist contract: one rank body, run over [`SimComm`] bare and under
//! every wrapper, asserting what the eight [`Communicator`] primitives
//! promise through any stack.
//!
//! * `now()` / `sleep()` are the simulator's virtual clock, not the wall's.
//! * `wait_arrival` returns at once when the count has moved, waits exactly
//!   its virtual budget when nothing arrives, and otherwise wakes at the
//!   deposit's virtual time, not at the deadline. Over a sub-world it may
//!   wake early (the parent's traffic moves the count) but never late.
//! * A timed receive with no sender expires at exactly its virtual budget.
//! * A timeout of `Duration::MAX` is no timeout, on every backend.
//! * A too-small `recv_into` returns `Truncated` and leaves the message for a
//!   retry.
//! * `probe` reports the length `recv_buf` then returns.
//! * Under `ReliableComm` a send returns before its frame is delivered: to a
//!   rank that never services it is `Ok` at the same virtual instant, and
//!   `flush` is what reports the failure, one retry schedule later.
//!
//! The simulator makes every clause exact: virtual time has no scheduling
//! noise, so the assertions are equalities, not tolerances.

use std::time::Duration;

use bruck_comm::{
    CommError, Communicator, DeadlineComm, EventComm, FaultComm, FaultPlan, MeteredComm, MsgBuf,
    ReliableComm, ReliableConfig, SimComm, SimConfig, SimOp, SubComm, ThreadComm,
};

const NAP: Duration = Duration::from_millis(5);
const BUDGET: Duration = Duration::from_millis(3);

const TAG_SILENT: u32 = 1;
const TAG_BIG: u32 = 2;
const TAG_FIRST: u32 = 3;
const TAG_SECOND: u32 = 4;

/// The rank body, for a two-rank world. `sim` is the backend underneath
/// `comm`, kept to compare clocks against.
fn contract<C: Communicator + ?Sized>(sim: &SimComm<'_>, comm: &C) {
    assert_eq!(comm.size(), 2);
    let peer = 1 - comm.rank();

    // The clock is the simulator's.
    let t0 = sim.now();
    assert_eq!(comm.now(), t0);
    comm.sleep(NAP);
    assert_eq!(sim.now(), t0 + NAP, "sleep must park on the virtual clock");
    assert_eq!(comm.now(), sim.now());

    // A timed receive nobody answers expires at exactly its budget, and
    // names the receive in this communicator's own rank and tag space.
    let t1 = comm.now();
    let err = comm.recv_buf_timeout(peer, TAG_SILENT, BUDGET).unwrap_err();
    assert_eq!(err, CommError::Timeout { src: peer, tag: TAG_SILENT, waited: BUDGET });
    assert_eq!(comm.now() - t1, BUDGET);

    // Truncation leaves the message for a retry with room.
    let big: Vec<u8> = (0..16).map(|i| i + comm.rank() as u8).collect();
    let want: Vec<u8> = (0..16).map(|i| i + peer as u8).collect();
    comm.send_buf(peer, TAG_BIG, MsgBuf::from_vec(big)).unwrap();
    let mut small = [0u8; 4];
    let err = comm.recv_into(peer, TAG_BIG, &mut small).unwrap_err();
    assert_eq!(err, CommError::Truncated { message_len: 16, buffer_len: 4 });
    let mut room = [0u8; 16];
    assert_eq!(comm.recv_into(peer, TAG_BIG, &mut room).unwrap(), 16);
    assert_eq!(room.to_vec(), want);

    // Probe sees what recv_buf then returns. The peer sends FIRST before
    // SECOND, so once SECOND is here FIRST must already be queued.
    comm.send(peer, TAG_FIRST, &[7; 9]).unwrap();
    comm.send(peer, TAG_SECOND, &[]).unwrap();
    comm.recv_buf(peer, TAG_SECOND).unwrap();
    assert_eq!(comm.probe(peer, TAG_FIRST).unwrap(), Some(9));
    assert_eq!(comm.recv_buf(peer, TAG_FIRST).unwrap().as_slice(), &[7; 9]);
    assert_eq!(comm.probe(peer, TAG_FIRST).unwrap(), None);
}

/// The `wait_arrival` rows, run first in each world so the only deposit is
/// the one rank 1 makes `BUDGET + NAP` in.
fn arrival_contract<C: Communicator + ?Sized>(sim: &SimComm<'_>, comm: &C) {
    let t0 = sim.now();
    if comm.rank() == 1 {
        comm.sleep(BUDGET + NAP);
        comm.send(0, TAG_FIRST, &[7; 9]).unwrap();
        return;
    }
    // A zero timeout only reads the count.
    let quiet = comm.wait_arrival(0, Duration::ZERO).unwrap();
    assert_eq!(sim.now(), t0);
    // Nothing arrives: exactly the budget, and the count has not moved.
    assert_eq!(comm.wait_arrival(quiet, BUDGET).unwrap(), quiet);
    assert_eq!(sim.now(), t0 + BUDGET);
    // Something arrives: woken at the deposit's time, not the deadline's.
    let moved = comm.wait_arrival(quiet, Duration::from_secs(1)).unwrap();
    assert_ne!(moved, quiet);
    assert_eq!(sim.now(), t0 + BUDGET + NAP);
    // The count has moved since `quiet` was read: returns at once.
    assert_ne!(comm.wait_arrival(quiet, Duration::from_secs(1)).unwrap(), quiet);
    assert_eq!(sim.now(), t0 + BUDGET + NAP);
    assert_eq!(comm.recv_buf(1, TAG_FIRST).unwrap().as_slice(), &[7; 9]);
}

/// `Duration::MAX` is no timeout: the receive returns the message whether it
/// is posted after the send or before it, with the clock past zero (where
/// adding the timeout to it used to overflow).
fn unbounded_timed_receive<C: Communicator + ?Sized>(comm: &C) {
    let peer = 1 - comm.rank();
    comm.send(peer, TAG_FIRST, &[1]).unwrap();
    comm.sleep(NAP);
    let forever = Duration::MAX;
    assert_eq!(comm.recv_buf_timeout(peer, TAG_FIRST, forever).unwrap().as_slice(), &[1]);
    if comm.rank() == 0 {
        // Posted while the peer is still asleep.
        assert_eq!(comm.recv_buf_timeout(peer, TAG_SECOND, forever).unwrap().as_slice(), &[2]);
    } else {
        comm.sleep(NAP);
        comm.send(peer, TAG_SECOND, &[2]).unwrap();
    }
}

/// [`unbounded_timed_receive`] bare and under a [`DeadlineComm`] with no
/// deadline.
fn unbounded_both_ways<C: Communicator>(comm: &C) {
    unbounded_timed_receive(comm);
    unbounded_timed_receive(&DeadlineComm::until(comm, Duration::MAX));
}

/// A named stack: its wrapper built over the simulator.
type Build = for<'a> fn(&'a SimComm<'a>) -> Box<dyn Communicator + 'a>;
type Case = (&'static str, Option<Build>);

/// Run `f` against the case's stack over `sim` (`None` is the bare backend).
fn stacked(sim: &SimComm<'_>, build: Option<Build>, f: impl FnOnce(&dyn Communicator)) {
    match build {
        None => f(sim),
        Some(build) => f(&*build(sim)),
    }
}

/// Bare, then every wrapper over the bare simulator (the sub-world last).
const CASES: [Case; 6] = [
    ("bare", None),
    ("MeteredComm", Some(|sim| Box::new(MeteredComm::new(sim)))),
    ("DeadlineComm", Some(|sim| Box::new(DeadlineComm::new(sim, Duration::from_secs(1))))),
    ("ReliableComm", Some(|sim| Box::new(ReliableComm::new(sim)))),
    ("FaultComm", Some(|sim| Box::new(FaultComm::new(sim, FaultPlan::new(0))))),
    ("SubComm", Some(|sim| Box::new(SubComm::from_members(sim, vec![0, 1], 5).unwrap()))),
];

/// Run `body` on a `p`-rank world under each of `cases` × 3 schedule seeds.
fn for_each_case(cases: &[Case], p: usize, body: fn(&SimComm<'_>, &Case)) {
    for case in cases {
        for seed in [1u64, 2, 3] {
            let report = SimComm::try_run(p, &SimConfig::from_seed(seed), |sim| body(sim, case));
            for (rank, outcome) in report.outcomes.iter().enumerate() {
                assert!(outcome.is_ok(), "{}, seed {seed}, rank {rank}: {outcome:?}", case.0);
            }
        }
    }
}

#[test]
fn every_wrapper_honours_the_waist_contract() {
    for_each_case(&CASES, 2, |sim, &(_, build)| stacked(sim, build, |comm| contract(sim, comm)));
}

#[test]
fn an_unbounded_timed_receive_is_untimed_on_sim_comm_through_every_wrapper() {
    for_each_case(&CASES, 2, |sim, &(_, build)| {
        stacked(sim, build, |comm| unbounded_timed_receive(comm))
    });
    // Its footprint stays untimed, and with nobody sending it is a proved
    // deadlock — under a `DeadlineComm` with no deadline too.
    let mut cfg = SimConfig::from_seed(1);
    cfg.record_steps = true;
    let report = SimComm::try_run(2, &cfg, |sim| {
        unbounded_both_ways(sim);
        let dc = DeadlineComm::until(sim, Duration::MAX);
        dc.recv_buf_timeout(1 - sim.rank(), TAG_SILENT, Duration::MAX).unwrap_err()
    });
    for (rank, outcome) in report.outcomes.iter().enumerate() {
        assert_eq!(*outcome, Ok(CommError::Deadlock { src: 1 - rank, tag: TAG_SILENT }));
    }
    let ops = report.steps.iter().flatten().flat_map(|s| &s.enabled);
    assert!(ops.clone().any(|(_, op)| matches!(op, SimOp::Recv { .. })));
    assert!(ops.clone().all(|(_, op)| !matches!(op, SimOp::Recv { timed: true, .. })));
}

#[test]
fn an_unbounded_timed_receive_is_untimed_on_thread_comm() {
    ThreadComm::run(2, unbounded_both_ways);
}

#[test]
fn an_unbounded_timed_receive_is_untimed_on_event_comm() {
    EventComm::run_pooled(2, 1, |comm| unbounded_both_ways(comm));
}

/// The clause `ReliableComm`'s send window adds to its row.
#[test]
fn a_reliable_send_returns_before_delivery_and_flush_reports_the_failure() {
    let report = SimComm::try_run(2, &SimConfig::from_seed(1), |sim| {
        if sim.rank() == 1 {
            return; // never services: nothing rank 0 sends is ever acknowledged
        }
        let rc = ReliableComm::new(sim);
        let t0 = sim.now();
        assert_eq!(rc.send(1, TAG_FIRST, &[7; 9]), Ok(()));
        assert_eq!(sim.now(), t0, "a send does not wait for its ack");
        assert_eq!(rc.flush(), Err(CommError::RankFailed { rank: 1 }));
        let schedule: Duration = ReliableConfig::default().retry_policy().schedule().iter().sum();
        assert_eq!(sim.now() - t0, schedule, "flush sits out exactly one retry schedule");
        assert_eq!(rc.send(1, TAG_FIRST, &[]), Err(CommError::RankFailed { rank: 1 }));
    });
    assert!(report.all_ok(), "{:?}", report.outcomes);
}

#[test]
fn every_wrapper_honours_the_arrival_wait_contract() {
    for_each_case(&CASES, 2, |sim, &(_, build)| {
        stacked(sim, build, |comm| arrival_contract(sim, comm))
    });
}

/// Over a sub-world the arrival count is the parent's, so traffic from a
/// non-member may end the wait early — but a caller that re-arms with the
/// remainder still returns exactly at its deadline, never after it.
#[test]
fn a_sub_world_arrival_wait_may_wake_early_but_never_late() {
    for_each_case(&CASES[5..], 3, |sim, &(_, build)| {
        let t0 = sim.now();
        match sim.rank() {
            // The outsider deposits on the parent, mid-wait.
            2 => {
                sim.sleep(BUDGET);
                sim.send(0, TAG_SILENT, &[]).unwrap();
            }
            1 => {}
            _ => stacked(sim, build, |sub| {
                let deadline = t0 + NAP;
                let mut seen = sub.wait_arrival(0, Duration::ZERO).unwrap();
                let mut wakes = Vec::new();
                while sim.now() < deadline {
                    seen = sub.wait_arrival(seen, deadline - sim.now()).unwrap();
                    wakes.push(sim.now() - t0);
                }
                assert_eq!(wakes, [BUDGET, NAP], "early once, then on time");
                sim.recv_buf(2, TAG_SILENT).unwrap();
            }),
        }
    });
}

/// Timed receives over a shrunk world park instead of polling: a
/// `DeadlineComm(SubComm(..))` receive with no sender times out after
/// exactly the budget, in a number of scheduler steps that does not depend
/// on the budget (a probe/sleep polling loop would take budget / 20 µs of
/// them per rank).
#[test]
fn timed_receive_over_a_shrunk_world_parks_instead_of_polling() {
    let budget = Duration::from_millis(100);
    let report = SimComm::try_run(3, &SimConfig::from_seed(7), move |sim| {
        if sim.rank() == 1 {
            return None; // the evicted rank builds nothing
        }
        let shrunk = SubComm::for_epoch(sim, vec![0, 2], 1).unwrap();
        let dc = DeadlineComm::new(&shrunk, budget);
        let peer = 1 - dc.rank();
        Some((peer, dc.recv_buf(peer, 9).unwrap_err()))
    });
    for outcome in &report.outcomes {
        if let Some((peer, err)) = outcome.as_ref().unwrap() {
            assert_eq!(*err, CommError::Timeout { src: *peer, tag: 9, waited: budget });
        }
    }
    let steps = report.trace.choices.len();
    assert!(steps <= 32, "a parked wait is a handful of scheduler steps, got {steps}");
}
