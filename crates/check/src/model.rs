//! `ModelComm`: single-threaded symbolic schedule extraction.
//!
//! The threaded backend can only *observe* one interleaving per run; this
//! module instead executes every rank of a `Communicator`-generic algorithm on
//! **one** thread and extracts its full communication schedule — including
//! runs that would deadlock real threads, which is precisely when a verifier
//! is most useful.
//!
//! ## Execution model: commit-and-replay
//!
//! Rank bodies are ordinary blocking code; they cannot be paused mid-call
//! without threads or async. The executor therefore runs each rank's body
//! *from the top* repeatedly:
//!
//! * Operations already **committed** in an earlier attempt are *replayed*:
//!   the call is checked against the committed record (same destination, tag,
//!   payload) and returns the recorded result without touching global state.
//! * The first **new** operation past the committed prefix executes for real:
//!   sends are eager and always commit; a receive with a matching in-flight
//!   message commits and consumes it; a receive with no match returns
//!   [`CommError::WouldBlock`], which the body propagates out through `?`,
//!   unwinding the rank so the scheduler can run another.
//!
//! The driver ([`extract`]) sweeps all ranks to a fixpoint: it stops when
//! every rank has completed (or failed), or when a full sweep commits nothing
//! new — a stall, meaning every live rank is parked on a receive that no
//! possible future can satisfy. The stalled ranks and their wanted messages
//! are exactly the input of wait-for-graph deadlock analysis.
//!
//! This is sound because rank bodies are deterministic functions of their
//! received payloads (all algorithms in this workspace are; the replay layer
//! *verifies* it, panicking on divergence) and because matching is FIFO per
//! `(src, dst, tag)`, mirroring the runtime's non-overtaking guarantee.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use bruck_comm::{
    BlockedOn, CommError, CommResult, Communicator, Event, EventKind, MsgBuf, MsgRecord, Schedule,
    Tag, VectorClock,
};

/// Backstop against probe spin-loops and runaway bodies: a rank committing
/// more operations than this panics rather than hanging the checker.
const OP_LIMIT: usize = 1 << 20;

/// A committed operation in a rank's program-order log (the replay script).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    /// `msg` indexes the schedule's message table.
    Send { dst: usize, tag: Tag, msg: usize },
    /// `msg` indexes the schedule's message table.
    Recv { src: usize, tag: Tag, msg: usize },
    Probe { src: usize, tag: Tag, found: Option<usize> },
}

struct WorldInner {
    clocks: Vec<VectorClock>,
    schedule: Schedule,
    /// In-flight (sent, not yet received) message ids, FIFO per key.
    pending: HashMap<(usize, usize, Tag), VecDeque<usize>>,
    /// Committed per-rank operation logs.
    ops: Vec<Vec<Op>>,
    /// Replay cursor per rank, reset at the start of each attempt.
    cursors: Vec<usize>,
    /// Send/recv commits so far (probes excluded — they never unblock
    /// anything, so they don't count as scheduler progress).
    commits: u64,
    /// Sends committed so far per destination: the arrival counts.
    deposits: Vec<u64>,
}

/// Shared state of one symbolic execution; every rank's [`ModelComm`] points
/// at the same world.
pub struct ModelWorld {
    p: usize,
    inner: Mutex<WorldInner>,
}

impl ModelWorld {
    fn new(p: usize) -> Arc<Self> {
        Arc::new(ModelWorld {
            p,
            inner: Mutex::new(WorldInner {
                clocks: vec![VectorClock::new(p); p],
                schedule: Schedule::new(p),
                pending: HashMap::new(),
                ops: (0..p).map(|_| Vec::new()).collect(),
                cursors: vec![0; p],
                commits: 0,
                deposits: vec![0; p],
            }),
        })
    }

    fn lock(&self) -> MutexGuard<'_, WorldInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// The communicator handed to rank bodies under symbolic execution.
///
/// Implements the ten [`Communicator`] primitives (collectives come with
/// the provided methods) but never blocks: an unmatched receive returns
/// [`CommError::WouldBlock`] instead.
pub struct ModelComm {
    rank: usize,
    world: Arc<ModelWorld>,
}

impl ModelComm {
    fn diverged(&self, wanted: &str, got: &Op) -> ! {
        panic!(
            "model divergence on rank {}: replay expected {:?} but the body issued {wanted}; \
             rank bodies must be deterministic functions of their received payloads",
            self.rank, got
        )
    }
}

impl Communicator for ModelComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.world.p
    }

    fn send_buf(&self, dest: usize, tag: Tag, buf: MsgBuf) -> CommResult<()> {
        self.check_rank(dest)?;
        let me = self.rank;
        let mut w = self.world.lock();
        let cursor = w.cursors[me];
        if cursor < w.ops[me].len() {
            match w.ops[me][cursor].clone() {
                Op::Send { dst, tag: t, msg } if dst == dest && t == tag => {
                    assert_eq!(
                        w.schedule.messages[msg].payload.as_slice(),
                        buf.as_slice(),
                        "model divergence on rank {me}: replayed send to {dest} tag {tag} \
                         carries a different payload than the committed one"
                    );
                    w.cursors[me] += 1;
                    return Ok(());
                }
                other => self.diverged(&format!("send to {dest} tag {tag}"), &other),
            }
        }
        // Commit a new eager send.
        assert!(w.ops[me].len() < OP_LIMIT, "rank {me} exceeded the model op limit");
        w.clocks[me].tick(me);
        let clock = w.clocks[me].clone();
        let msg = w.schedule.messages.len();
        let event_idx = w.schedule.events[me].len();
        w.schedule.messages.push(MsgRecord {
            src: me,
            dst: dest,
            tag,
            payload: buf.clone(),
            send_clock: clock.clone(),
            send_event: (me, event_idx),
            recv_event: None,
        });
        w.schedule.events[me].push(Event {
            kind: EventKind::Send { dst: dest, tag, len: buf.len(), msg },
            clock,
        });
        w.pending.entry((me, dest, tag)).or_default().push_back(msg);
        w.deposits[dest] += 1;
        w.ops[me].push(Op::Send { dst: dest, tag, msg });
        w.cursors[me] += 1;
        w.commits += 1;
        Ok(())
    }

    fn recv_buf(&self, src: usize, tag: Tag) -> CommResult<MsgBuf> {
        self.check_rank(src)?;
        let me = self.rank;
        let mut w = self.world.lock();
        let cursor = w.cursors[me];
        if cursor < w.ops[me].len() {
            match w.ops[me][cursor].clone() {
                Op::Recv { src: s, tag: t, msg } if s == src && t == tag => {
                    w.cursors[me] += 1;
                    return Ok(w.schedule.messages[msg].payload.clone());
                }
                other => self.diverged(&format!("recv from {src} tag {tag}"), &other),
            }
        }
        let Some(msg) = w.pending.get_mut(&(src, me, tag)).and_then(VecDeque::pop_front) else {
            return Err(CommError::WouldBlock { src, tag });
        };
        assert!(w.ops[me].len() < OP_LIMIT, "rank {me} exceeded the model op limit");
        let send_clock = w.schedule.messages[msg].send_clock.clone();
        w.clocks[me].tick(me);
        w.clocks[me].join(&send_clock);
        let clock = w.clocks[me].clone();
        let event_idx = w.schedule.events[me].len();
        let payload = w.schedule.messages[msg].payload.clone();
        w.schedule.messages[msg].recv_event = Some((me, event_idx));
        w.schedule.events[me].push(Event {
            kind: EventKind::Recv { src, tag, len: payload.len(), msg },
            clock,
        });
        w.ops[me].push(Op::Recv { src, tag, msg });
        w.cursors[me] += 1;
        w.commits += 1;
        Ok(payload)
    }

    fn recv_into(&self, src: usize, tag: Tag, buf: &mut [u8]) -> CommResult<usize> {
        // Truncation check against the *head* message first, mirroring the
        // runtime: a too-small buffer errors without consuming the message.
        {
            let me = self.rank;
            let w = self.world.lock();
            if w.cursors[me] >= w.ops[me].len() {
                if let Some(&msg) =
                    w.pending.get(&(src, me, tag)).and_then(VecDeque::front)
                {
                    let mlen = w.schedule.messages[msg].payload.len();
                    if mlen > buf.len() {
                        return Err(CommError::Truncated {
                            message_len: mlen,
                            buffer_len: buf.len(),
                        });
                    }
                }
            }
        }
        let got = self.recv_buf(src, tag)?;
        // Replay of an originally-committed recv_into lands here too; the
        // body is deterministic, so the buffer is necessarily large enough.
        buf[..got.len()].copy_from_slice(got.as_slice());
        Ok(got.len())
    }

    fn probe(&self, src: usize, tag: Tag) -> CommResult<Option<usize>> {
        self.check_rank(src)?;
        let me = self.rank;
        let mut w = self.world.lock();
        let cursor = w.cursors[me];
        if cursor < w.ops[me].len() {
            match w.ops[me][cursor].clone() {
                Op::Probe { src: s, tag: t, found } if s == src && t == tag => {
                    w.cursors[me] += 1;
                    return Ok(found);
                }
                other => self.diverged(&format!("probe from {src} tag {tag}"), &other),
            }
        }
        // Commit the probe answer so replays stay deterministic even though
        // global state moves between attempts.
        assert!(w.ops[me].len() < OP_LIMIT, "rank {me} exceeded the model op limit (probe spin?)");
        let found = w
            .pending
            .get(&(src, me, tag))
            .and_then(VecDeque::front)
            .map(|&msg| w.schedule.messages[msg].payload.len());
        w.clocks[me].tick(me);
        let clock = w.clocks[me].clone();
        w.schedule.events[me].push(Event { kind: EventKind::Probe { src, tag, found }, clock });
        w.ops[me].push(Op::Probe { src, tag, found });
        w.cursors[me] += 1;
        Ok(found)
    }

    // The model is untimed: a receive either matches or parks the rank, so a
    // deadline never expires, the clock stands still, sleeping is free and an
    // arrival wait returns the count at once.

    fn recv_buf_timeout(&self, src: usize, tag: Tag, _timeout: Duration) -> CommResult<MsgBuf> {
        self.recv_buf(src, tag)
    }

    fn now(&self) -> Duration {
        Duration::ZERO
    }

    fn sleep(&self, _d: Duration) {}

    fn wait_arrival(&self, _seen: u64, _timeout: Duration) -> CommResult<u64> {
        Ok(self.world.lock().deposits[self.rank])
    }
}

/// How one rank's body ended under symbolic execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankOutcome {
    /// The body ran to completion.
    Completed,
    /// The body was still parked on an unmatched receive when the world
    /// stalled — deadlock evidence.
    Blocked(BlockedOn),
    /// The body returned a real error (not the internal suspension signal).
    Failed(CommError),
}

/// The result of a symbolic execution: the extracted schedule plus each
/// rank's fate.
#[derive(Debug)]
pub struct Extraction {
    /// The full vector-clocked communication history.
    pub schedule: Schedule,
    /// Per-rank outcome, indexed by rank.
    pub ranks: Vec<RankOutcome>,
}

impl Extraction {
    /// Did every rank run to completion?
    pub fn all_completed(&self) -> bool {
        self.ranks.iter().all(|r| *r == RankOutcome::Completed)
    }

    /// Ranks still parked on a receive when extraction stalled.
    pub fn blocked_ranks(&self) -> Vec<(usize, BlockedOn)> {
        self.ranks
            .iter()
            .enumerate()
            .filter_map(|(r, o)| match o {
                RankOutcome::Blocked(b) => Some((r, *b)),
                _ => None,
            })
            .collect()
    }
}

/// Symbolically execute `body` on `p` ranks and extract the schedule.
///
/// `body` is the SPMD program: it is invoked with each rank's [`ModelComm`]
/// (possibly many times — see the module docs' commit-and-replay protocol, so
/// it must be deterministic and must propagate errors rather than swallow
/// them). Extraction ends when every rank completes or fails, or when a full
/// sweep makes no progress (a stall; blocked ranks are reported in the
/// outcome and in [`Schedule::blocked`]).
pub fn extract<F>(p: usize, body: F) -> Extraction
where
    F: Fn(&ModelComm) -> CommResult<()>,
{
    assert!(p > 0, "need at least one rank");
    let world = ModelWorld::new(p);
    let mut outcomes: Vec<Option<RankOutcome>> = vec![None; p];
    let mut parked: Vec<Option<BlockedOn>> = vec![None; p];
    loop {
        let commits_before = world.lock().commits;
        let mut settled_this_sweep = false;
        for rank in 0..p {
            if outcomes[rank].is_some() {
                continue;
            }
            world.lock().cursors[rank] = 0;
            let comm = ModelComm { rank, world: Arc::clone(&world) };
            match body(&comm) {
                Ok(()) => {
                    outcomes[rank] = Some(RankOutcome::Completed);
                    parked[rank] = None;
                    settled_this_sweep = true;
                }
                Err(CommError::WouldBlock { src, tag }) => {
                    parked[rank] = Some(BlockedOn { src, tag });
                }
                Err(e) => {
                    outcomes[rank] = Some(RankOutcome::Failed(e));
                    parked[rank] = None;
                    settled_this_sweep = true;
                }
            }
        }
        if outcomes.iter().all(Option::is_some) {
            break;
        }
        // A sweep that commits nothing and settles no rank can never do
        // better later: the world is a deterministic function of its state,
        // so every live rank is parked on a receive no future can satisfy.
        if world.lock().commits == commits_before && !settled_this_sweep {
            break;
        }
    }
    let mut schedule = world.lock().schedule.clone();
    let ranks: Vec<RankOutcome> = (0..p)
        .map(|r| match (&outcomes[r], parked[r]) {
            (Some(o), _) => o.clone(),
            (None, Some(b)) => RankOutcome::Blocked(b),
            (None, None) => unreachable!("a live rank at stall must be parked on a receive"),
        })
        .collect();
    for (r, outcome) in ranks.iter().enumerate() {
        if let RankOutcome::Blocked(b) = outcome {
            schedule.blocked[r] = Some(*b);
        }
    }
    Extraction { schedule, ranks }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(ext.all_completed());
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
        // textbook deadlock no thread-based test can terminate on.
        let p = 3;
        let ext = extract(p, move |comm| {
            let me = comm.rank();
            let left = (me + p - 1) % p;
            let _ = comm.recv(left, 9)?;
            comm.send((me + 1) % p, 9, &[me as u8])?;
            Ok(())
        });
        assert!(!ext.all_completed());
        let blocked = ext.blocked_ranks();
        assert_eq!(blocked.len(), 3, "all ranks parked: {blocked:?}");
        for (rank, on) in blocked {
            assert_eq!(on.src, (rank + p - 1) % p);
            assert_eq!(on.tag, 9);
        }
    }

    #[test]
    fn collectives_run_under_the_model() {
        use bruck_comm::ReduceOp;
        let ext = extract(5, |comm| {
            comm.barrier()?;
            let sum = comm.allreduce_u64(comm.rank() as u64 + 1, ReduceOp::Sum)?;
            assert_eq!(sum, 15);
            let all = comm.allgather_u64(comm.rank() as u64 * 10)?;
            assert_eq!(all, vec![0, 10, 20, 30, 40]);
            let counts = comm.alltoall_counts(&[1, 2, 3, 4, 5])?;
            assert_eq!(counts.len(), 5);
            Ok(())
        });
        assert!(ext.all_completed(), "{:?}", ext.ranks);
        assert!(ext.schedule.unmatched_messages().is_empty());
    }

    #[test]
    fn probe_commits_and_replays() {
        let ext = extract(2, |comm| {
            if comm.rank() == 0 {
                // Probe before anything can have arrived: committed as None.
                let first = comm.probe(1, 3)?;
                assert_eq!(first, None);
                let got = comm.recv(1, 3)?; // forces a later attempt
                assert_eq!(got.len(), 4);
                // After the recv the probe above must still replay as None.
                Ok(())
            } else {
                comm.send(0, 3, &[0; 4])
            }
        });
        assert!(ext.all_completed(), "{:?}", ext.ranks);
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
}
