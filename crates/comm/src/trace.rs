//! Vector-clocked schedules: the data model of protocol verification.
//!
//! Protocol analysis (deadlock-freedom, tag disjointness, conservation — the
//! passes in `bruck-check`) needs more than a meter's send counters: it needs
//! *both* sides of every transfer, the matching between them, and a
//! happens-before order so that questions like "could these two messages have
//! been in flight at the same time under some legal schedule?" have answers
//! independent of the interleaving that happened to occur.
//!
//! This module provides the types of that layer:
//!
//! * [`VectorClock`] — the standard logical-clock construction: each rank
//!   ticks its own component on every event and joins the sender's clock on
//!   every receive, so `a.le(b)` decides happens-before for any two events.
//! * [`Event`] / [`EventKind`] — one record per communicator operation.
//! * [`MsgRecord`] — one record per message, linking its send event, its
//!   receive event (if matched), the payload, and the sender's clock.
//! * [`Schedule`] — the complete extracted history: per-rank event logs, the
//!   message table, and each rank's final blocked state.
//!
//! The one producer is `bruck-check`'s `ModelComm`, which fills a
//! [`Schedule`] from a single-threaded symbolic execution — so it can also
//! observe a deadlock, where a traced real run would simply hang.

use crate::{MsgBuf, Tag};

/// A vector logical clock over `P` ranks.
///
/// Maintained with the classic protocol: tick your own component before
/// stamping an event, join the sender's clock on receive. For two stamped
/// events `a` (on rank `ra`) and `b`, `a` happens-before `b` iff
/// `a.clock.get(ra) <= b.clock.get(ra)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorClock(Vec<u64>);

impl VectorClock {
    /// The zero clock for `p` ranks.
    pub fn new(p: usize) -> Self {
        VectorClock(vec![0; p])
    }

    /// Advance `rank`'s own component by one.
    pub fn tick(&mut self, rank: usize) {
        self.0[rank] += 1;
    }

    /// Component-wise maximum with `other` (the receive-side join).
    pub fn join(&mut self, other: &VectorClock) {
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// `rank`'s component.
    pub fn get(&self, rank: usize) -> u64 {
        self.0.get(rank).copied().unwrap_or(0)
    }

    /// Component-wise `<=` (the happens-before-or-equal partial order).
    pub fn le(&self, other: &VectorClock) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }
}

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

/// A receive a rank is parked on when schedule extraction stalls.
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
    /// Per rank: the receive it was still parked on when extraction stopped
    /// (`None` for ranks that ran to completion).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_ordering_basics() {
        let mut a = VectorClock::new(3);
        a.tick(0);
        let mut b = a.clone();
        b.tick(1);
        assert!(a.le(&b));
        assert!(!b.le(&a));
        let mut c = VectorClock::new(3);
        c.tick(2);
        assert!(!a.le(&c) && !c.le(&a), "independent events are concurrent");
        b.join(&c);
        assert!(c.le(&b));
    }
}
