//! Nobody sleep-polls: what the blocking points of the fault stack cost when
//! the thing they wait for is late, lost, or racing the wait.
//!
//! * Under [`SimComm`] a rank blocked in `recv_buf` below the whole wrapper
//!   stack costs a constant number of scheduler steps however long it waits,
//!   and a frame that is never coming is a *proved* deadlock (or the sender's
//!   `RankFailed`), never an endless virtual-time spin.
//! * Under [`ThreadComm`] the arrival wait cannot lose a wake-up: a deposit
//!   that lands between reading the count and waiting on it ends the wait.
//! * Under [`EventComm`] the same exchange parks less often than it did when
//!   every wait was a 50 µs sleep, and the scheduler counters say so.

use std::time::{Duration, Instant};

use bruck_comm::{
    CommError, Communicator, DeadlineComm, EdgeFaults, EventComm, FaultComm, FaultPlan,
    MeteredComm, ReliableComm, ReliableConfig, SimComm, SimConfig, ThreadComm,
};

/// The first two tests use only the primitives the waist had before
/// `wait_arrival`, so they can be run against the polling implementation:
/// there the first takes ≈ 40,000 scheduler steps (20,000 sweeps of one probe
/// and one 50 µs sleep) and the second never returns.
#[test]
fn a_receive_blocked_for_a_virtual_second_under_the_full_stack_takes_constant_steps() {
    let late = Duration::from_secs(1);
    let report = SimComm::try_run(2, &SimConfig::from_seed(3), move |sim| {
        let fc = FaultComm::new(sim, FaultPlan::new(0));
        let rc = ReliableComm::new(&fc);
        let dc = DeadlineComm::new(&rc, Duration::from_secs(10));
        let mc = MeteredComm::new(&dc);
        if mc.rank() == 0 {
            let t0 = mc.now();
            let got = mc.recv_buf(1, 5).unwrap();
            (mc.now() - t0, got.len())
        } else {
            mc.sleep(late);
            mc.send(0, 5, &[9; 32]).unwrap();
            (Duration::ZERO, 0)
        }
    });
    let outcomes: Vec<_> = report.outcomes.iter().map(|o| o.as_ref().unwrap()).collect();
    assert_eq!(*outcomes[0], (late, 32), "woken by the frame, at the frame's virtual time");
    let steps = report.trace.choices.len();
    assert!(steps <= 64, "a parked wait is a handful of scheduler steps, got {steps}");
}

#[test]
fn a_lost_frame_with_no_retransmission_left_is_a_typed_ending_not_a_spin() {
    let report = SimComm::try_run(2, &SimConfig::from_seed(5), |sim| {
        // Every frame 1 → 0 is dropped, so the sender exhausts its retries
        // and the receiver's untimed wait can never be satisfied.
        let plan =
            FaultPlan::new(0).with_edge(1, 0, EdgeFaults { drop: 1.0, ..EdgeFaults::default() });
        let fc = FaultComm::new(sim, plan);
        let cfg = ReliableConfig {
            ack_timeout: Duration::from_millis(5),
            max_retries: 2,
            backoff_cap: Duration::from_millis(20),
        };
        let rc = ReliableComm::with_config(&fc, cfg);
        if rc.rank() == 0 {
            rc.recv_buf(1, 5).map(|m| m.len())
        } else {
            rc.send(0, 5, &[1]).and_then(|()| rc.flush()).map(|()| 0)
        }
    });
    let outcomes: Vec<_> = report.outcomes.iter().map(|o| o.as_ref().unwrap()).collect();
    assert_eq!(*outcomes[1], Err(CommError::RankFailed { rank: 0 }));
    assert_eq!(*outcomes[0], Err(CommError::Deadlock { src: 1, tag: 5 }));
}

/// Lost-wake-up hammer: "read the count, make the peer deposit, wait on the
/// count" must never sit out the timeout, whichever side of the wait the
/// deposit lands on.
#[test]
fn thread_comm_arrival_wait_never_loses_a_wake_up() {
    const ROUNDS: u32 = 10_000;
    let timeout = Duration::from_secs(5);
    let wall = Instant::now();
    ThreadComm::run(2, |comm| {
        if comm.rank() == 0 {
            for round in 0..ROUNDS {
                let seen = comm.wait_arrival(0, Duration::ZERO).unwrap();
                comm.send(1, 1, &[]).unwrap();
                let count = comm.wait_arrival(seen, timeout).unwrap();
                assert_ne!(count, seen, "round {round}: the wait took its timeout");
                comm.recv_buf(1, 2).unwrap();
            }
        } else {
            for _ in 0..ROUNDS {
                comm.recv_buf(0, 1).unwrap();
                comm.send(0, 2, &[]).unwrap();
            }
        }
    });
    assert!(wall.elapsed() < timeout, "a lost wake-up costs a whole timeout: {:?}", wall.elapsed());
}

/// `executions − p` of this very body on the polling implementation (PR 14),
/// where every empty service pass parked the task in a 50 µs sleep.
const PARKS_WHEN_POLLING: u64 = 240;

#[test]
fn a_fault_stack_exchange_on_event_comm_parks_on_arrival_and_less_often() {
    let p = 8;
    let (_, report) = EventComm::run_report(p, 1, |comm| {
        let fc = FaultComm::new(comm, FaultPlan::new(0));
        let rc = ReliableComm::new(&fc);
        let dc = DeadlineComm::new(&rc, Duration::from_secs(10));
        let mc = MeteredComm::new(&dc);
        let counts: Vec<usize> = (0..p).map(|d| mc.rank() * 100 + d).collect();
        let got = mc.alltoall_counts(&counts).unwrap();
        assert!(got.iter().enumerate().all(|(src, &c)| c == src * 100 + mc.rank()));
        mc.barrier().unwrap();
        rc.quiesce(Duration::from_millis(1), Duration::from_millis(50)).unwrap();
    });
    assert_eq!(report.pending_messages, 0);
    assert_eq!(report.parks.total(), report.executions - p as u64, "every re-execution was parked");
    assert_eq!(report.wakes, report.parks.total(), "and woken exactly once");
    assert_eq!(report.parks.sleep, 0, "no wait loop sleeps");
    assert_eq!(report.parks.recv + report.parks.timed_recv, 0, "the ARQ only ever probes");
    assert!(report.parks.arrival > 0 && report.replayed_ops > 0);
    assert!(
        report.parks.total() < PARKS_WHEN_POLLING,
        "{} parks, {PARKS_WHEN_POLLING} when polling",
        report.parks.total()
    );
}
