//! The sliding-window ARQ as a protocol: what [`ReliableComm`] puts on the
//! wire and when, read from a [`MeteredComm`] *below* it or from the
//! simulator's wire log, on [`SimComm`]'s virtual clock unless a test says
//! otherwise — there every count and every instant is exact.
//!
//! * Two ranks that flood each other past the window both finish: a
//!   window-full send services and acks.
//! * A lost frame is repaired go-back-N: the frames behind it are answered
//!   with the cumulative ack and discarded, then resent, and the application
//!   sees every payload once, in order.
//! * The ack schedule is a function of the stream alone.
//! * Dropping the wrapper after the last receive leaves no mailbox dirty,
//!   with no `quiesce`; a panicking rank's wrapper sends nothing.
//! * A dead peer fails only the operations addressed to it.

use std::sync::Arc;
use std::time::Duration;

use bruck_comm::{
    CommError, Communicator, EdgeFaults, EventComm, FaultComm, FaultKind, FaultPlan, MeteredComm,
    ReduceOp, ReliableComm, ReliableConfig, SimComm, SimConfig, ThreadComm, WireKind, World,
};

const WINDOW: usize = ReliableConfig::WINDOW;
const ACK_EVERY: u64 = ReliableConfig::ACK_EVERY;
const TAG: u32 = 3;

/// A short schedule (5 + 10 + 20 ms) so exhaustion is quick on a real clock.
const QUICK: ReliableConfig = ReliableConfig {
    ack_timeout: Duration::from_millis(5),
    max_retries: 2,
    backoff_cap: Duration::from_millis(20),
};

/// Wire messages this rank has sent, as the meter below the ARQ saw them.
fn wire_sent<C: Communicator + ?Sized>(wire: &MeteredComm<'_, C>) -> u64 {
    let m = wire.metrics();
    assert_eq!(m.logical.sent_msgs, 0, "the ARQ leaks no logical tag onto the wire");
    m.reserved.sent_msgs
}

/// (a) Both ranks of a pair send `4 × WINDOW` frames before either receives.
fn mutual_flood<C: Communicator + ?Sized>(comm: &C) {
    let rc = ReliableComm::new(comm);
    let peer = 1 - rc.rank();
    let n = 4 * WINDOW as u32;
    for i in 0..n {
        rc.send(peer, TAG, &(i + peer as u32).to_le_bytes()).unwrap();
    }
    for i in 0..n {
        assert_eq!(rc.recv(peer, TAG).unwrap(), (i + rc.rank() as u32).to_le_bytes());
    }
    rc.flush().unwrap();
}

#[test]
fn two_ranks_flooding_each_other_past_the_window_both_finish_in_order() {
    for seed in [1, 2, 3] {
        assert!(SimComm::try_run(2, &SimConfig::from_seed(seed), |sim| mutual_flood(sim)).all_ok());
    }
    ThreadComm::run(2, |comm| mutual_flood(comm));
}

/// (b) Frame 3 of 12 is lost, frames 4..12 arrive: each is answered with the
/// cumulative ack 3 and discarded; the sender's flush resends 3..12 when
/// frame 3 falls overdue; the receiver acks at 8 and, settling, at 12.
#[test]
fn a_lost_frame_is_repaired_go_back_n_exactly_once_and_in_order() {
    let (n, lost) = (12u64, 3u64);
    // The plan's draws are a pure function of (seed, edge, index): this seed
    // drops index 3 on 0 → 1 and nothing else among the 21 frames sent.
    let plan = FaultPlan::new(GO_BACK_N_SEED)
        .with_edge(0, 1, EdgeFaults { drop: 0.05, ..EdgeFaults::default() });
    let report = SimComm::try_run(2, &SimConfig::from_seed(1), move |sim| {
        let fc = FaultComm::new(sim, plan.clone());
        let wire = MeteredComm::new(&fc);
        let rc = ReliableComm::new(&wire);
        let t0 = rc.now();
        if rc.rank() == 0 {
            for i in 0..n {
                rc.send(1, TAG, &[i as u8]).unwrap();
            }
        } else {
            for i in 0..n {
                assert_eq!(rc.recv(0, TAG).unwrap(), [i as u8], "exactly once, in order");
            }
        }
        rc.flush().unwrap();
        let dropped: Vec<u64> = fc
            .log()
            .iter()
            .filter(|e| e.kind == FaultKind::Dropped)
            .map(|e| e.edge_msg)
            .collect();
        (wire_sent(&wire), dropped, rc.now() - t0)
    });
    let outcomes: Vec<_> = report.outcomes.into_iter().map(Result::unwrap).collect();
    let timeout = ReliableConfig::default().ack_timeout;
    assert_eq!(outcomes[0], (n + (n - lost), vec![lost], timeout), "one go-back-N burst");
    let gap_acks = n - lost - 1;
    assert_eq!(outcomes[1], (gap_acks + 2, vec![], timeout), "one ack per gap frame, then 8 and 12");
}

/// Found by scanning seeds for the drop pattern the test above names; if
/// `FaultComm`'s draw function ever changes, its `dropped` assertion says so.
const GO_BACK_N_SEED: u64 = 71;

/// (c) The ack schedule as data: `n` frames on one stream cost the receiver
/// ⌊n / ACK_EVERY⌋ standalone acks plus one for a remainder, after `flush`.
#[test]
fn standalone_acks_are_a_function_of_the_stream_alone() {
    for n in [1u64, 7, 8, 9, 40] {
        for seed in [1, 2, 3] {
            let report = SimComm::try_run(2, &SimConfig::from_seed(seed), move |sim| {
                let wire = MeteredComm::new(sim);
                let rc = ReliableComm::new(&wire);
                for i in 0..n {
                    if rc.rank() == 0 {
                        rc.send(1, TAG, &[i as u8]).unwrap();
                    } else {
                        rc.recv(0, TAG).unwrap();
                    }
                }
                rc.flush().unwrap();
                wire_sent(&wire)
            });
            let sent: Vec<u64> = report.outcomes.into_iter().map(Result::unwrap).collect();
            let acks = n / ACK_EVERY + u64::from(n % ACK_EVERY != 0);
            assert_eq!(sent, [n, acks], "n = {n}, seed {seed}");
        }
    }
}

/// (d) What the frozen benchmark relies on: exchange through the wrapper,
/// meet on a *bare* barrier, drop the wrapper — no `quiesce`.
fn exchange_then_drop<C: Communicator + ?Sized>(comm: &C) {
    let rc = ReliableComm::new(comm);
    let p = rc.size();
    let counts: Vec<usize> = (0..p).map(|dest| rc.rank() * 100 + dest).collect();
    let got = rc.alltoall_counts(&counts).unwrap();
    assert!(got.iter().enumerate().all(|(src, &c)| c == src * 100 + rc.rank()));
    assert_eq!(rc.allreduce_u64(1, ReduceOp::Sum).unwrap(), p as u64);
    comm.barrier().unwrap();
}

#[test]
fn dropping_the_wrapper_after_the_last_receive_leaves_every_mailbox_clean() {
    let p = 8;
    let world = World::new(p);
    std::thread::scope(|scope| {
        for rank in 0..p {
            let comm = ThreadComm::new(Arc::clone(&world), rank);
            scope.spawn(move || exchange_then_drop(&comm));
        }
    });
    assert_eq!(world.pending_messages() + world.dead_match_keys(), 0, "ThreadComm");

    let (_, report) = EventComm::run_report(p, 1, |comm| exchange_then_drop(comm));
    assert_eq!(report.pending_messages + report.dead_match_keys, 0, "EventComm");
}

/// (e) Rank 0 panics owing an ack and with a frame in flight: its wrapper's
/// `Drop` sends nothing, and rank 1 ends typed after one retry schedule.
#[test]
fn a_panicking_rank_sends_nothing_from_drop_and_the_world_ends() {
    let cfg = SimConfig { record_steps: true, ..SimConfig::from_seed(4) };
    let report = SimComm::try_run(2, &cfg, |sim| {
        let rc = ReliableComm::with_config(sim, QUICK);
        let peer = 1 - rc.rank();
        rc.send(peer, TAG, &[7]).unwrap();
        rc.recv(peer, TAG).unwrap();
        if rc.rank() == 0 {
            panic!("rank 0 dies holding the wrapper");
        }
        rc.flush()
    });
    assert!(report.outcomes[0].is_err(), "rank 0 panicked, once");
    assert_eq!(report.outcomes[1], Ok(Err(CommError::RankFailed { rank: 0 })));
    let sends_of = |rank| {
        let wire = report.wire.iter().flatten();
        wire.filter(|e| e.rank == rank && matches!(e.kind, WireKind::Send(_))).count()
    };
    assert_eq!(sends_of(0), 1, "its one data frame: no ack, no retransmission from Drop");
    assert_eq!(sends_of(1), 4, "a data frame, the ack it owed, two retransmissions");
}

/// (f) Rule 3: with rank 2 dead, traffic between 0 and 1 keeps flowing and
/// only what is addressed to rank 2 — and `flush` — reports it.
#[test]
fn a_dead_peer_fails_only_the_operations_addressed_to_it() {
    let dead = CommError::RankFailed { rank: 2 };
    let report = SimComm::try_run(3, &SimConfig::from_seed(6), move |sim| {
        let fc = FaultComm::new(sim, FaultPlan::new(0).with_crash(2, 0));
        let rc = ReliableComm::with_config(&fc, QUICK);
        let me = rc.rank();
        if me == 2 {
            return; // every operation of its FaultComm fails: it never services
        }
        let live = 1 - me;
        rc.send(2, TAG, &[me as u8]).expect("a send returns before delivery");
        // Sit out rank 2's whole retry schedule in a receive from the live
        // peer: that receive times out as itself, not as rank 2's failure.
        let err = rc.recv_buf_timeout(live, TAG + 1, Duration::from_millis(100)).unwrap_err();
        assert!(matches!(err, CommError::Timeout { src, .. } if src == live), "{err:?}");
        for round in 0..3u8 {
            assert_eq!(rc.sendrecv(live, TAG, &[round], live, TAG).unwrap(), [round]);
        }
        assert_eq!(rc.send(2, TAG, &[9]), Err(dead.clone()));
        assert_eq!(rc.recv_buf_timeout(2, TAG, Duration::from_millis(1)).map(|m| m.len()), Err(dead.clone()));
        assert_eq!(rc.flush(), Err(dead.clone()));
    });
    assert!(report.all_ok(), "{:?}", report.outcomes);
}
