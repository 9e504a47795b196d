//! The waist contract: one rank body, run over [`SimComm`] bare and under
//! every wrapper, asserting what the nine [`Communicator`] primitives promise
//! through any stack.
//!
//! * `now()` / `sleep()` are the simulator's virtual clock, not the wall's.
//! * A timed receive with no sender expires at exactly its virtual budget.
//! * A too-small `recv_into` returns `Truncated` and leaves the message for a
//!   retry — except under [`DeadlineComm`], whose documented exception is
//!   that the truncated message is consumed.
//! * `probe` reports the length `recv_buf` then returns.
//!
//! The simulator makes every clause exact: virtual time has no scheduling
//! noise, so the assertions are equalities, not tolerances.

use std::time::Duration;

use bruck_comm::{
    CommError, Communicator, DeadlineComm, FaultComm, FaultPlan, MeteredComm, MsgBuf,
    ReliableComm, ShrinkComm, SimComm, SimConfig, SubComm,
};

const NAP: Duration = Duration::from_millis(5);
/// A whole number of `ReliableComm` idle pauses (50 µs), so its serviced
/// wait lands on the budget exactly like a parked one.
const BUDGET: Duration = Duration::from_millis(3);

const TAG_SILENT: u32 = 1;
const TAG_BIG: u32 = 2;
const TAG_FIRST: u32 = 3;
const TAG_SECOND: u32 = 4;

/// What `recv_into` does with a message larger than the buffer.
#[derive(Clone, Copy)]
enum Truncation {
    /// The message stays queued; a retry with room succeeds.
    Retryable,
    /// The message is consumed (`DeadlineComm`'s documented exception).
    Destructive,
}

/// The rank body, for a two-rank world. `sim` is the backend underneath
/// `comm`, kept to compare clocks against.
fn contract<C: Communicator + ?Sized>(sim: &SimComm<'_>, comm: &C, truncation: Truncation) {
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

    // Truncation.
    let big: Vec<u8> = (0..16).map(|i| i + comm.rank() as u8).collect();
    let want: Vec<u8> = (0..16).map(|i| i + peer as u8).collect();
    comm.send_buf(peer, TAG_BIG, MsgBuf::from_vec(big)).unwrap();
    let mut small = [0u8; 4];
    let err = comm.recv_into(peer, TAG_BIG, &mut small).unwrap_err();
    assert_eq!(err, CommError::Truncated { message_len: 16, buffer_len: 4 });
    match truncation {
        Truncation::Retryable => {
            let mut room = [0u8; 16];
            assert_eq!(comm.recv_into(peer, TAG_BIG, &mut room).unwrap(), 16);
            assert_eq!(room.to_vec(), want);
        }
        Truncation::Destructive => assert_eq!(comm.probe(peer, TAG_BIG).unwrap(), None),
    }

    // Probe sees what recv_buf then returns. The peer sends FIRST before
    // SECOND, so once SECOND is here FIRST must already be queued.
    comm.send(peer, TAG_FIRST, &[7; 9]).unwrap();
    comm.send(peer, TAG_SECOND, &[]).unwrap();
    comm.recv_buf(peer, TAG_SECOND).unwrap();
    assert_eq!(comm.probe(peer, TAG_FIRST).unwrap(), Some(9));
    assert_eq!(comm.recv_buf(peer, TAG_FIRST).unwrap().as_slice(), &[7; 9]);
    assert_eq!(comm.probe(peer, TAG_FIRST).unwrap(), None);
}

/// A named stack: builds its wrapper over the simulator and runs the body.
type Case = (&'static str, fn(&SimComm<'_>));

/// Every wrapper, each over the bare simulator.
const CASES: [Case; 7] = [
    ("bare", |sim| contract(sim, sim, Truncation::Retryable)),
    ("MeteredComm", |sim| contract(sim, &MeteredComm::new(sim), Truncation::Retryable)),
    ("DeadlineComm", |sim| {
        let dc = DeadlineComm::new(sim, Duration::from_secs(1));
        contract(sim, &dc, Truncation::Destructive)
    }),
    ("ReliableComm", |sim| contract(sim, &ReliableComm::new(sim), Truncation::Retryable)),
    ("FaultComm", |sim| {
        let fc = FaultComm::new(sim, FaultPlan::new(0));
        contract(sim, &fc, Truncation::Retryable)
    }),
    ("SubComm", |sim| {
        let sub = SubComm::from_members(sim, vec![0, 1], 5).unwrap();
        contract(sim, &sub, Truncation::Retryable)
    }),
    ("ShrinkComm", |sim| {
        let shrunk = ShrinkComm::new(sim, vec![0, 1], 3).unwrap();
        contract(sim, &shrunk, Truncation::Retryable)
    }),
];

#[test]
fn every_wrapper_honours_the_waist_contract() {
    for (name, body) in CASES {
        for seed in [1u64, 2, 3] {
            let report = SimComm::try_run(2, &SimConfig::from_seed(seed), body);
            for (rank, outcome) in report.outcomes.iter().enumerate() {
                assert!(outcome.is_ok(), "{name}, seed {seed}, rank {rank}: {outcome:?}");
            }
        }
    }
}

/// Timed receives over a shrunk world park instead of polling: a
/// `DeadlineComm(ShrinkComm(..))` receive with no sender times out after
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
        let shrunk = ShrinkComm::new(sim, vec![0, 2], 1).unwrap();
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
