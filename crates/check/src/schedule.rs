//! Vector-clocked schedules: the data model of protocol verification, and
//! the one way to get one — a recorded [`SimComm`] run.
//!
//! Protocol analysis (deadlock-freedom, tag disjointness, conservation — the
//! passes in [`crate::analysis`]) needs more than a meter's send counters: it
//! needs *both* sides of every transfer, the matching between them, and a
//! happens-before order so that questions like "could these two messages have
//! been in flight at the same time under some legal schedule?" have answers
//! independent of the interleaving that happened to occur.
//!
//! * [`VectorClock`] — `bruck-comm`'s one logical clock, the type the event
//!   runtime's audit stamps with too: here each rank ticks its own component
//!   on every event and joins the sender's clock on every receive, so
//!   `a.le(b)` decides happens-before for any two events.
//! * [`Event`] / [`EventKind`] — one record per communicator operation.
//! * [`MsgRecord`] — one record per message, linking its send event, its
//!   receive event (if matched), the payload, and the sender's clock.
//! * [`Schedule`] — the complete extracted history: per-rank event logs, the
//!   message table, and each rank's final blocked state.
//!
//! [`record`] runs the rank bodies once on [`SimComm`] with the wire log on
//! ([`SimConfig::record_steps`]) and replays the log — send + payload view,
//! matched receive, probe answer — through the vector-clock protocol, pairing
//! receives with sends FIFO per `(src, dst, tag)` as the runtime matched
//! them. A world that cannot finish does not hang: the simulator *proves* it
//! stuck and logs one [`WireKind::Stuck`] per parked rank at the verdict. The
//! history ends there — what the ranks' error paths do afterwards is not part
//! of it — and those ranks are [`RankOutcome::Blocked`], the input of
//! wait-for-graph analysis. Nothing is asked of the bodies: they run once, so
//! they need be neither deterministic nor error-propagating.

use std::collections::{BTreeMap, VecDeque};

use bruck_comm::{
    CommError, CommResult, MsgBuf, SimComm, SimConfig, Tag, VectorClock, WireEvent, WireKind,
};

/// What a recorded event did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// An eager send; `msg` indexes [`Schedule::messages`].
    Send {
        /// Destination rank.
        dst: usize,
        /// Message tag.
        tag: Tag,
        /// Payload bytes.
        len: usize,
        /// Index into the message table.
        msg: usize,
    },
    /// A completed receive; `msg` indexes [`Schedule::messages`].
    Recv {
        /// Source rank.
        src: usize,
        /// Message tag.
        tag: Tag,
        /// Payload bytes.
        len: usize,
        /// Index into the message table.
        msg: usize,
    },
    /// A probe and the answer it returned.
    Probe {
        /// Source rank probed.
        src: usize,
        /// Tag probed.
        tag: Tag,
        /// `Some(len)` if a matching message had arrived.
        found: Option<usize>,
    },
}

/// One recorded communicator operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The operation.
    pub kind: EventKind,
    /// The acting rank's vector clock *after* ticking for this event.
    pub clock: VectorClock,
}

/// One message's life in the schedule.
#[derive(Debug, Clone)]
pub struct MsgRecord {
    /// Sending rank.
    pub src: usize,
    /// Destination rank.
    pub dst: usize,
    /// Message tag.
    pub tag: Tag,
    /// The payload (a shared view; cloning it never copies).
    pub payload: MsgBuf,
    /// The sender's clock at the send event.
    pub send_clock: VectorClock,
    /// `(rank, event index)` of the send in [`Schedule::events`].
    pub send_event: (usize, usize),
    /// `(rank, event index)` of the matching receive, if it happened.
    pub recv_event: Option<(usize, usize)>,
}

/// The receive a rank was parked on when the world was proved stuck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedOn {
    /// Source rank of the unmatched receive.
    pub src: usize,
    /// Tag of the unmatched receive.
    pub tag: Tag,
}

/// A complete extracted communication history for one SPMD region.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Number of ranks.
    pub p: usize,
    /// Per-rank event logs, in program order.
    pub events: Vec<Vec<Event>>,
    /// Every message sent in the region, in global send-commit order (FIFO
    /// per `(src, dst, tag)` key by construction).
    pub messages: Vec<MsgRecord>,
    /// Per rank: the receive it was parked on when the world was proved
    /// stuck (`None` for ranks that had already returned).
    pub blocked: Vec<Option<BlockedOn>>,
}

impl Schedule {
    /// An empty schedule for `p` ranks.
    pub fn new(p: usize) -> Self {
        Schedule {
            p,
            events: (0..p).map(|_| Vec::new()).collect(),
            messages: Vec::new(),
            blocked: vec![None; p],
        }
    }

    /// Whether the send of `second` could have happened while `first` was
    /// still in flight — i.e. `first`'s receive does **not** happen-before
    /// `second`'s send (or `first` was never received at all).
    ///
    /// This is the vector-clock question behind tag-collision detection: two
    /// same-`(src, dst, tag)` messages with this property are matched purely
    /// by the runtime's non-overtaking guarantee, not by the protocol.
    pub fn concurrent_in_flight(&self, first: usize, second: usize) -> bool {
        let m1 = &self.messages[first];
        let m2 = &self.messages[second];
        let Some((recv_rank, recv_idx)) = m1.recv_event else {
            return true; // never received: still in flight at m2's send
        };
        let recv_clock = &self.events[recv_rank][recv_idx].clock;
        let send_clock = &self.events[m2.send_event.0][m2.send_event.1].clock;
        // recv(m1) → send(m2) iff the receiver's component of the receive
        // stamp is visible in the send stamp.
        send_clock.get(recv_rank) < recv_clock.get(recv_rank)
    }

    /// Indices of messages never matched by a receive.
    pub fn unmatched_messages(&self) -> Vec<usize> {
        (0..self.messages.len()).filter(|&i| self.messages[i].recv_event.is_none()).collect()
    }
}

/// How one rank's body ended in a recorded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankOutcome {
    /// The body ran to completion.
    Completed,
    /// The body was parked on an unmatched receive when the simulator proved
    /// the world stuck — deadlock evidence.
    Blocked(BlockedOn),
    /// The body returned an error before any stall.
    Failed(CommError),
    /// The body panicked; the payload, rendered.
    Panicked(String),
}

/// The result of a recorded run: the extracted schedule plus each rank's
/// fate.
#[derive(Debug)]
pub struct Extraction {
    /// The full vector-clocked communication history.
    pub schedule: Schedule,
    /// Per-rank outcome, indexed by rank.
    pub ranks: Vec<RankOutcome>,
}

impl Extraction {
    /// Build the schedule from a recorded run's wire log and per-rank
    /// endings (`Err(String)` is a panic).
    fn from_wire<T>(
        p: usize,
        wire: &[WireEvent],
        endings: &[Result<CommResult<T>, String>],
    ) -> Extraction {
        let mut schedule = Schedule::new(p);
        let mut clocks = vec![VectorClock::new(p); p];
        // In-flight (sent, not yet received) message ids, FIFO per key.
        let mut pending: BTreeMap<(usize, usize, Tag), VecDeque<usize>> = BTreeMap::new();
        let mut stalled = false;
        for &WireEvent { rank, peer, tag, ref kind } in wire {
            let at = schedule.events[rank].len();
            let kind = match kind {
                // The history ends at the first stall: one verdict per parked
                // rank, contiguous, and nothing after them is part of it.
                WireKind::Stuck => {
                    stalled = true;
                    schedule.blocked[rank] = Some(BlockedOn { src: peer, tag });
                    continue;
                }
                _ if stalled => break,
                WireKind::Send(payload) => {
                    clocks[rank].tick(rank);
                    let msg = schedule.messages.len();
                    schedule.messages.push(MsgRecord {
                        src: rank,
                        dst: peer,
                        tag,
                        payload: payload.clone(),
                        send_clock: clocks[rank].clone(),
                        send_event: (rank, at),
                        recv_event: None,
                    });
                    pending.entry((rank, peer, tag)).or_default().push_back(msg);
                    EventKind::Send { dst: peer, tag, len: payload.len(), msg }
                }
                WireKind::Recv => {
                    let Some(msg) = pending.get_mut(&(peer, rank, tag)).and_then(VecDeque::pop_front)
                    else {
                        panic!("wire log: rank {rank} received from {peer} tag {tag}, nothing in flight")
                    };
                    clocks[rank].tick(rank);
                    clocks[rank].join(&schedule.messages[msg].send_clock);
                    schedule.messages[msg].recv_event = Some((rank, at));
                    EventKind::Recv { src: peer, tag, len: schedule.messages[msg].payload.len(), msg }
                }
                WireKind::Probe(found) => {
                    clocks[rank].tick(rank);
                    EventKind::Probe { src: peer, tag, found: *found }
                }
            };
            schedule.events[rank].push(Event { kind, clock: clocks[rank].clone() });
        }
        let ranks = (0..p)
            .map(|r| match (schedule.blocked[r], &endings[r]) {
                (Some(on), _) => RankOutcome::Blocked(on),
                (None, Ok(Ok(_))) => RankOutcome::Completed,
                (None, Ok(Err(e))) => RankOutcome::Failed(e.clone()),
                (None, Err(why)) => RankOutcome::Panicked(why.clone()),
            })
            .collect();
        Extraction { schedule, ranks }
    }

    /// Did every rank run to completion?
    pub fn all_completed(&self) -> bool {
        self.ranks.iter().all(|r| *r == RankOutcome::Completed)
    }
}

/// The schedule every check row is extracted under: lowest runnable rank
/// first.
pub fn lowest_first() -> SimConfig {
    SimConfig { replay: Some(Vec::new()), ..SimConfig::from_seed(0) }
}

/// Run `body` — the SPMD program, ordinary blocking code — once on every rank
/// of a `p`-rank [`SimComm`] world scheduled by `cfg`, wire log on. Returns
/// the extraction and what each rank returned (`Err(String)` is a panic).
pub fn record<T, F>(
    p: usize,
    cfg: &SimConfig,
    body: F,
) -> (Extraction, Vec<Result<CommResult<T>, String>>)
where
    T: Send,
    F: Fn(&SimComm<'_>) -> CommResult<T> + Sync,
{
    let cfg = SimConfig { record_steps: true, ..cfg.clone() };
    let report = SimComm::try_run(p, &cfg, body);
    let wire = report.wire.as_deref().unwrap_or(&[]);
    (Extraction::from_wire(p, wire, &report.outcomes), report.outcomes)
}

/// [`record`] under [`lowest_first`], keeping only the extraction. A world
/// that cannot finish is reported, not hung on (see the module docs).
pub fn extract<F>(p: usize, body: F) -> Extraction
where
    F: Fn(&SimComm<'_>) -> CommResult<()> + Sync,
{
    record(p, &lowest_first(), body).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use bruck_comm::Communicator;

    #[test]
    fn pingpong_extracts_completely() {
        let ext = extract(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, &[1, 2])?;
                let back = comm.recv(1, 6)?;
                assert_eq!(back, vec![3]);
            } else {
                let got = comm.recv(0, 5)?;
                assert_eq!(got, vec![1, 2]);
                comm.send(0, 6, &[3])?;
            }
            Ok(())
        });
        assert!(ext.all_completed(), "{:?}", ext.ranks);
        assert_eq!(ext.schedule.messages.len(), 2);
        assert!(ext.schedule.unmatched_messages().is_empty());
    }

    #[test]
    fn same_key_sends_match_fifo_and_overlap_in_flight() {
        let ext = extract(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, &[1, 2, 3])?;
                comm.send(1, 7, &[4, 5])?;
            } else {
                assert_eq!(comm.probe(0, 9)?, None);
                assert_eq!(comm.recv(0, 7)?, vec![1, 2, 3]);
                assert_eq!(comm.recv(0, 7)?, vec![4, 5]);
            }
            Ok(())
        });
        let schedule = &ext.schedule;
        assert!(ext.all_completed(), "{:?}", ext.ranks);
        assert_eq!(schedule.messages.len(), 2);
        assert!(schedule.unmatched_messages().is_empty());
        // FIFO matching: first send pairs with first recv (event 0 on rank 1
        // is the probe).
        assert_eq!(schedule.messages[0].payload, vec![1u8, 2, 3]);
        assert_eq!(schedule.messages[0].recv_event, Some((1, 1)));
        assert_eq!(schedule.messages[1].recv_event, Some((1, 2)));
        // Back-to-back sends with no ack in between: the second was sent
        // while the first could still be in flight.
        assert!(schedule.concurrent_in_flight(0, 1));
    }

    #[test]
    fn acknowledged_resend_is_not_concurrent() {
        let ext = extract(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, &[1])?;
                comm.recv(1, 8)?; // ack: 1 received the first message
                comm.send(1, 7, &[2])?;
            } else {
                comm.recv(0, 7)?;
                comm.send(0, 8, &[])?;
                comm.recv(0, 7)?;
            }
            Ok(())
        });
        let schedule = &ext.schedule;
        let tag7: Vec<usize> =
            (0..schedule.messages.len()).filter(|&i| schedule.messages[i].tag == 7).collect();
        assert_eq!(tag7.len(), 2);
        assert!(
            !schedule.concurrent_in_flight(tag7[0], tag7[1]),
            "the ack forces recv(first) to happen-before send(second)"
        );
    }

    #[test]
    fn cyclic_recv_first_is_reported_blocked() {
        // Every rank receives from its left neighbour before sending: a
        // textbook deadlock no real-thread test can terminate on. The bodies
        // swallow the verdict and carry on; the evidence is the engine's.
        let p = 3;
        let ext = extract(p, move |comm| {
            let me = comm.rank();
            let left = (me + p - 1) % p;
            let _ = comm.recv(left, 9);
            comm.send((me + 1) % p, 9, &[me as u8])?;
            Ok(())
        });
        assert!(!ext.all_completed());
        for (rank, outcome) in ext.ranks.iter().enumerate() {
            let on = BlockedOn { src: (rank + p - 1) % p, tag: 9 };
            assert_eq!(*outcome, RankOutcome::Blocked(on), "all ranks parked");
        }
        assert!(ext.schedule.messages.is_empty(), "the history ends at the stall");
    }

    #[test]
    fn collectives_run_in_a_recorded_world() {
        use bruck_comm::ReduceOp;
        let ext = extract(5, |comm| {
            comm.barrier()?;
            let sum = comm.allreduce_u64(comm.rank() as u64 + 1, ReduceOp::Sum)?;
            assert_eq!(sum, 15);
            let counts = comm.alltoall_counts(&[1, 2, 3, 4, 5])?;
            assert_eq!(counts.len(), 5);
            Ok(())
        });
        assert!(ext.all_completed(), "{:?}", ext.ranks);
        assert!(ext.schedule.unmatched_messages().is_empty());
    }

    #[test]
    fn truncated_recv_into_fails_the_rank_without_consuming() {
        let ext = extract(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[9; 10])
            } else {
                let mut small = [0u8; 4];
                comm.recv_into(0, 1, &mut small)?;
                Ok(())
            }
        });
        assert_eq!(
            ext.ranks[1],
            RankOutcome::Failed(CommError::Truncated { message_len: 10, buffer_len: 4 })
        );
        // The message stayed in flight.
        assert_eq!(ext.schedule.unmatched_messages().len(), 1);
    }

    #[test]
    fn a_panicking_rank_is_an_outcome_not_a_crash() {
        let ext = extract(2, |comm| {
            assert_ne!(comm.rank(), 1, "injected");
            comm.recv(1, 4).map(|_| ())
        });
        assert!(matches!(&ext.ranks[1], RankOutcome::Panicked(why) if why.contains("injected")));
        assert_eq!(ext.ranks[0], RankOutcome::Blocked(BlockedOn { src: 1, tag: 4 }));
    }
}
