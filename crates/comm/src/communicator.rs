//! The [`Communicator`] trait: the narrow waist every algorithm is written
//! against.
//!
//! The waist is **eight required primitives** — identity
//! ([`Communicator::rank`], [`Communicator::size`]), tagged eager
//! point-to-point ([`Communicator::send_buf`], [`Communicator::recv_match`],
//! [`Communicator::probe`]) and the clock ([`Communicator::now`],
//! [`Communicator::sleep`], [`Communicator::wait_arrival`]). None has a
//! default body: a backend or wrapper that omits one does not compile, so
//! "which methods must a wrapper forward" is answered by the type checker,
//! not by a doc comment.
//!
//! There is **one receive, with two bounds**, because that is what every
//! backend and the ARQ implement: the oldest message on `(src, tag)`, unless
//! it is longer than `max_len` (refused *without consuming it*) or `timeout`
//! elapses first; `usize::MAX` / [`Duration::MAX`] mean unbounded.
//! `recv_buf`, `recv_into`, `recv_exact` and `recv_buf_timeout` are provided
//! corners of it.
//! It blocks on *one* `(src, tag)`; `wait_arrival` is how a
//! protocol that must service *any* channel while it waits (an ARQ acking
//! third-party frames, a heartbeat sweep, a flood) parks without a poll
//! quantum: read the arrival count, sweep with `probe`, and if the sweep
//! found nothing, wait for the count to move or for the protocol's own next
//! deadline.
//!
//! Everything else — the `&[u8]`/`Vec<u8>` compat forms, `sendrecv*`, the
//! small collectives and the event runtime's hook
//! ([`Communicator::resumable`], `None` but on a bare `EventComm`) — is a
//! provided method built from those eight, so every
//! backend and every wrapper stack gets it for free with an identical message
//! schedule (which is what lets the cost model in `bruck-model` price them).
//! **A wrapper implements the eight and nothing else.** The one exception is
//! [`crate::MeteredComm::send`], an *observing* override: it performs the
//! same pack-and-`send_buf` as the provided body and additionally records
//! that the payload was copied.
//!
//! The primitive transfers move [`MsgBuf`] views: handing a message to the
//! runtime is a reference-count bump, never a payload copy. The compat forms
//! ([`Communicator::send`], [`Communicator::recv`], …) pack into / unpack out
//! of a `MsgBuf` — one copy on send, usually zero on receive. Matching is
//! lazy (a receive names `(src, tag)` when it completes), so the order of an
//! algorithm's receives *is* its waitall; there is no posted-receive handle.

use std::time::Duration;

use crate::event::Resume;
use crate::port::{block_on, Blocking};
use crate::{CommError, CommResult, MsgBuf, ReduceOp, Tag};

/// Tags at or above this value are reserved for the collectives implemented
/// in this crate. User code (including the Bruck algorithms) must stay below.
pub const RESERVED_TAG_BASE: Tag = 0x4000_0000;

const TAG_BARRIER: Tag = RESERVED_TAG_BASE;
/// Round 0 of [`Communicator::allreduce_u64`]; round `k` is this plus `k`.
pub(crate) const TAG_ALLREDUCE: Tag = RESERVED_TAG_BASE + 3;
const TAG_ALLTOALL_COUNTS: Tag = RESERVED_TAG_BASE + 4;

/// Receive the one little-endian `u64` of a small collective's step
/// ([`Communicator::recv_exact`] of 8 bytes).
fn recv_u64<C: Communicator + ?Sized>(comm: &C, src: usize, tag: Tag) -> CommResult<u64> {
    let mut word = [0u8; 8];
    word.copy_from_slice(&comm.recv_exact(src, tag, 8)?);
    Ok(u64::from_le_bytes(word))
}

/// SPMD communicator: every rank of the program holds one, all methods are
/// called collectively or pairwise exactly as in MPI.
pub trait Communicator: Sync {
    /// This process's rank in `0..size`.
    fn rank(&self) -> usize;

    /// Number of ranks in the communicator.
    fn size(&self) -> usize;

    /// Eager zero-copy send: deposits the [`MsgBuf`] view at the destination
    /// and returns immediately. The payload is shared, not copied — the
    /// backing region lives until the receiver consumes the message.
    fn send_buf(&self, dest: usize, tag: Tag, buf: MsgBuf) -> CommResult<()>;

    /// The one receive: blocks for the oldest message matching `(src, tag)`
    /// and returns the sender's view, payload shared rather than copied.
    ///
    /// A match longer than `max_len` bytes fails with
    /// [`CommError::Truncated`] and is left un-consumed, so the caller can
    /// retry with more room. If nothing matches within `timeout` on this
    /// communicator's clock the receive fails with [`CommError::Timeout`];
    /// [`Duration::MAX`] — or any timeout the clock cannot represent — waits
    /// unbounded, and such a receive never reads the clock. Backends park the
    /// rank (the mailbox condvar, the simulator's scheduler, a task waiter);
    /// wrappers forward both bounds, so a bounded or timed receive reaches
    /// that parked wait through any stack.
    fn recv_match(
        &self,
        src: usize,
        tag: Tag,
        max_len: usize,
        timeout: Duration,
    ) -> CommResult<MsgBuf>;

    /// Length of the next matching message, if one has already arrived.
    fn probe(&self, src: usize, tag: Tag) -> CommResult<Option<usize>>;

    /// Current time on this communicator's clock, as elapsed time since an
    /// arbitrary fixed epoch. Values are only meaningful relative to each
    /// other (`later - earlier` = elapsed time).
    ///
    /// Every time-dependent path in the workspace reads time through `now`
    /// and [`Communicator::sleep`] so a backend can substitute virtual time:
    /// real-thread backends report monotonic wall-clock time; the
    /// deterministic simulator ([`crate::SimComm`]) reports its virtual
    /// clock, which advances only when every rank is blocked. Wrappers
    /// forward to their inner communicator so a whole stack shares one time
    /// axis.
    fn now(&self) -> Duration;

    /// Suspend the calling rank for `d` on this communicator's clock.
    ///
    /// Real-thread backends sleep the OS thread; the simulator parks the
    /// rank until the virtual clock reaches `now() + d` (which costs zero
    /// wall-clock time).
    fn sleep(&self, d: Duration);

    /// This rank's *arrival count* — how many messages have ever been
    /// deposited for it, on any `(src, tag)` — returned at once if it
    /// differs from `seen`, otherwise after parking the rank until something
    /// is deposited for it or `timeout` elapses on this communicator's
    /// clock. `timeout == Duration::ZERO` therefore just reads the count,
    /// and [`Duration::MAX`] waits unbounded.
    ///
    /// The wait is edge-triggered on the count, which is what makes the
    /// *read count → sweep with `probe` → wait on that count* loop free of
    /// lost wake-ups: a frame landing between the sweep and the wait has
    /// already moved the count, so the wait returns immediately. It may
    /// return early (a wrapper over a shared transport counts traffic for
    /// other contexts too; callers re-sweep and wait again) but never later
    /// than `timeout`. Only the equality of two readings is meaningful; the
    /// value carries no other information.
    ///
    /// A virtual-time backend that proves the world stuck — every rank
    /// parked, no deadline pending — returns [`CommError::Deadlock`] (with
    /// this rank as `src` and tag 0) rather than hanging.
    fn wait_arrival(&self, seen: u64, timeout: Duration) -> CommResult<u64>;

    // ------------------------------------------------------------------
    // Provided methods: built from the eight primitives above, identical on
    // every backend and through every wrapper. Wrappers do not override
    // them.
    // ------------------------------------------------------------------

    /// Blocking zero-copy receive: [`Communicator::recv_match`] with neither
    /// bound.
    fn recv_buf(&self, src: usize, tag: Tag) -> CommResult<MsgBuf> {
        self.recv_match(src, tag, usize::MAX, Duration::MAX)
    }

    /// Blocking receive into a caller buffer; returns the message length.
    ///
    /// Errors with [`CommError::Truncated`] if `buf` is too small; the
    /// message is left un-consumed in that case so the caller can retry.
    fn recv_into(&self, src: usize, tag: Tag, buf: &mut [u8]) -> CommResult<usize> {
        let msg = self.recv_match(src, tag, buf.len(), Duration::MAX)?;
        buf[..msg.len()].copy_from_slice(&msg);
        Ok(msg.len())
    }

    /// Blocking zero-copy receive of a payload whose length the caller knows,
    /// as every collective step does. The length comes from the peer, so a
    /// wrong one is a typed error, not a panic: a longer payload is
    /// [`CommError::Truncated`] (and stays queued), a shorter one
    /// [`CommError::BadArgument`].
    fn recv_exact(&self, src: usize, tag: Tag, len: usize) -> CommResult<MsgBuf> {
        block_on(crate::Port::recv_exact(&Blocking(self), src, tag, len))
    }

    /// Zero-copy receive with a deadline: [`CommError::Timeout`] if no
    /// matching message arrives within `timeout` on this communicator's
    /// clock.
    fn recv_buf_timeout(&self, src: usize, tag: Tag, timeout: Duration) -> CommResult<MsgBuf> {
        self.recv_match(src, tag, usize::MAX, timeout)
    }

    /// Eager send of a borrowed slice: compat wrapper over
    /// [`Communicator::send_buf`] that packs `data` into a fresh region
    /// (exactly one copy).
    fn send(&self, dest: usize, tag: Tag, data: &[u8]) -> CommResult<()> {
        self.send_buf(dest, tag, MsgBuf::copy_from_slice(data))
    }

    /// Blocking receive returning an owned `Vec<u8>`: compat wrapper over
    /// [`Communicator::recv_buf`] (zero-copy when the received view is the
    /// whole region, which is the common case).
    fn recv(&self, src: usize, tag: Tag) -> CommResult<Vec<u8>> {
        Ok(self.recv_buf(src, tag)?.into_vec())
    }

    /// Non-blocking send. Under the eager protocol this is identical to
    /// [`Communicator::send`]; it exists so algorithms read like their MPI
    /// counterparts (`MPI_Isend` + waitall).
    fn isend(&self, dest: usize, tag: Tag, data: &[u8]) -> CommResult<()> {
        self.send(dest, tag, data)
    }

    /// Non-blocking zero-copy send (same eager identity as
    /// [`Communicator::isend`]).
    fn isend_buf(&self, dest: usize, tag: Tag, buf: MsgBuf) -> CommResult<()> {
        self.send_buf(dest, tag, buf)
    }

    /// [`Communicator::recv_buf_timeout`] returning an owned `Vec<u8>`.
    fn recv_timeout(
        &self,
        src: usize,
        tag: Tag,
        timeout: Duration,
    ) -> CommResult<Vec<u8>> {
        Ok(self.recv_buf_timeout(src, tag, timeout)?.into_vec())
    }

    /// Combined send-then-receive (deadlock-free under the eager protocol),
    /// the workhorse of every Bruck communication step.
    fn sendrecv(
        &self,
        dest: usize,
        send_tag: Tag,
        data: &[u8],
        src: usize,
        recv_tag: Tag,
    ) -> CommResult<Vec<u8>> {
        self.send(dest, send_tag, data)?;
        self.recv(src, recv_tag)
    }

    /// Zero-copy [`Communicator::sendrecv`]: hands off one view, receives
    /// another, no payload copies in the runtime.
    fn sendrecv_buf(
        &self,
        dest: usize,
        send_tag: Tag,
        buf: MsgBuf,
        src: usize,
        recv_tag: Tag,
    ) -> CommResult<MsgBuf> {
        self.send_buf(dest, send_tag, buf)?;
        self.recv_buf(src, recv_tag)
    }

    /// Dissemination barrier: ⌈log₂ P⌉ rounds of empty messages.
    fn barrier(&self) -> CommResult<()> {
        let p = self.size();
        let me = self.rank();
        let mut dist = 1;
        let mut round: Tag = 0;
        while dist < p {
            let to = (me + dist) % p;
            let from = (me + p - dist % p) % p;
            // MsgBuf::new() shares one static empty region: a barrier round
            // allocates nothing.
            self.send_buf(to, TAG_BARRIER + round, MsgBuf::new())?;
            self.recv_buf(from, TAG_BARRIER + round)?;
            dist <<= 1;
            round += 1;
        }
        Ok(())
    }

    /// All-reduce of a single `u64`: [`crate::reduce::allreduce_doubling`]
    /// on a one-element slice, on the reserved round tags. That is
    /// ⌈log₂ P⌉ one-way rounds at any `P`, one message per rank per round and
    /// no fold (a point of the any-`P` allreduce family of arXiv 2004.09362).
    /// `Max` and `Min` send the accumulator alone; `Sum`, which must count
    /// every rank once, sends a second word on some rounds of a
    /// non-power-of-two `P`.
    fn allreduce_u64(&self, value: u64, op: ReduceOp) -> CommResult<u64> {
        block_on(crate::reduce::allreduce_u64(&Blocking(self), value, op))
    }

    /// The "counts handshake" of every `alltoallv`: each rank learns how many
    /// bytes it will receive from every other rank. Pairwise exchange.
    fn alltoall_counts(&self, sendcounts: &[usize]) -> CommResult<Vec<usize>> {
        let p = self.size();
        let me = self.rank();
        if sendcounts.len() != p {
            return Err(CommError::BadArgument("sendcounts.len() != size"));
        }
        let mut recvcounts = vec![0usize; p];
        recvcounts[me] = sendcounts[me];
        for i in 1..p {
            let dest = (me + i) % p;
            let src = (me + p - i) % p;
            self.send(dest, TAG_ALLTOALL_COUNTS, &(sendcounts[dest] as u64).to_le_bytes())?;
            recvcounts[src] = recv_u64(self, src, TAG_ALLTOALL_COUNTS)? as usize;
        }
        Ok(recvcounts)
    }

    /// The event runtime's hook for a resumable call ([`Resume`]), or `None`
    /// to run the call's loop on this communicator's blocking ops.
    ///
    /// Only a bare [`crate::EventComm`] answers (and a tag-mapping view of
    /// one that adds its tag bits). A wrapper keeps the default: its state —
    /// sequence numbers, meters — must see every op, so a loop run through
    /// it calls its primitives.
    fn resumable(&self) -> Option<Resume<'_>> {
        None
    }

    /// Validate a rank argument.
    fn check_rank(&self, rank: usize) -> CommResult<()> {
        if rank >= self.size() {
            Err(CommError::InvalidRank { rank, size: self.size() })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventComm, MeteredComm, Metrics, SimComm, ThreadComm};

    /// One message a rank sends the victim in place of its step.
    type Scripted = (usize, Tag, Vec<u8>);

    /// What the honest rank `victim` of a `p`-rank world gets from `op` when
    /// the other ranks sit out and only send it `script`. Returned in rank
    /// order from both a `ThreadComm` and a `SimComm` world.
    fn against_rogue<T>(
        p: usize,
        victim: usize,
        script: &[Scripted],
        op: impl Fn(&dyn Communicator) -> CommResult<T> + Sync,
    ) -> [Vec<Option<CommError>>; 2] {
        let rank = |comm: &dyn Communicator| {
            for (from, tag, payload) in script {
                if comm.rank() == *from {
                    comm.send(victim, *tag, payload).unwrap();
                }
            }
            (comm.rank() == victim).then(|| op(comm).err()).flatten()
        };
        [ThreadComm::run(p, |comm| rank(comm)), SimComm::run(p, 3, |comm| rank(comm)).results]
    }

    /// After the honest `setup` messages, rank `rogue` answers the victim's
    /// step on `tag`, which carries `len` bytes, with four bytes too few and
    /// then four too many: each must come back typed.
    fn assert_typed<T>(
        p: usize,
        victim: usize,
        setup: &[Scripted],
        (rogue, tag, len): (usize, Tag, usize),
        op: impl Fn(&dyn Communicator) -> CommResult<T> + Sync + Copy,
    ) {
        for wrong in [len - 4, len + 4] {
            let mut script = setup.to_vec();
            script.push((rogue, tag, vec![1; wrong]));
            for results in against_rogue(p, victim, &script, op) {
                let mut want = vec![None; p];
                want[victim] = Some(if wrong < len {
                    CommError::BadArgument("short collective payload")
                } else {
                    CommError::Truncated { message_len: wrong, buffer_len: len }
                });
                assert_eq!(results, want, "p={p} tag={tag:#x} {wrong} bytes");
            }
        }
    }

    #[test]
    fn allreduce_types_a_wrong_length_payload_from_a_rogue_peer() {
        let sum = |comm: &dyn Communicator| comm.allreduce_u64(5, ReduceOp::Sum);
        let word = |from: usize, round: Tag| (from, TAG_ALLREDUCE + round, vec![0; 8]);
        // Round 0: rank 0 hears from rank P − 1 first.
        assert_typed(2, 0, &[], (1, TAG_ALLREDUCE, 8), sum);
        assert_typed(3, 0, &[], (2, TAG_ALLREDUCE, 8), sum);
        // The last round of P = 3, which sends Y in place of W.
        assert_typed(3, 2, &[word(1, 0)], (0, TAG_ALLREDUCE + 1, 8), sum);
        // Round 1 of P = 7 carries two words, W and Y.
        assert_typed(7, 0, &[word(6, 0)], (5, TAG_ALLREDUCE + 1, 16), sum);
        let max = |comm: &dyn Communicator| comm.allreduce_u64(5, ReduceOp::Max);
        assert_typed(3, 0, &[], (2, TAG_ALLREDUCE, 8), max);
    }

    #[test]
    fn allreduce_agrees_on_every_backend() {
        let value = |rank: usize| (rank as u64 * 37 + 11) % 23;
        for p in [1usize, 2, 3, 5, 6, 8, 12, 17] {
            for op in ReduceOp::ALL {
                let want = (1..p).fold(value(0), |acc, r| op.apply(acc, value(r)));
                let rank =
                    |comm: &dyn Communicator| comm.allreduce_u64(value(comm.rank()), op).unwrap();
                let worlds = [
                    ThreadComm::run(p, |comm| rank(comm)),
                    SimComm::run(p, 7, |comm| rank(comm)).results,
                    EventComm::run(p, |comm| rank(comm)),
                ];
                for got in worlds {
                    assert_eq!(got, vec![want; p], "P = {p} {op:?}");
                }
            }
        }
    }

    #[test]
    fn allreduce_is_one_message_per_rank_per_round_and_no_fold() {
        // (P, messages in the world, of them carrying `Sum`'s two words).
        for (p, msgs, doubled) in [(3usize, 6u64, 0u64), (5, 15, 0), (6, 18, 0), (7, 21, 7), (12, 48, 0)] {
            for op in ReduceOp::ALL {
                let metrics = ThreadComm::run(p, |comm| {
                    let mc = MeteredComm::new(comm);
                    let value = |rank: usize| rank as u64 + 1;
                    let want = (1..p).fold(value(0), |acc, r| op.apply(acc, value(r)));
                    assert_eq!(mc.allreduce_u64(value(mc.rank()), op).unwrap(), want);
                    mc.metrics()
                });
                let rounds = u64::from(usize::BITS - (p - 1).leading_zeros());
                for m in &metrics {
                    assert_eq!(m.reserved.sent_msgs, rounds, "P = {p} {op:?} rank {}", m.rank);
                    // The deleted fold and unfold tags.
                    let fold = [RESERVED_TAG_BASE + 1, RESERVED_TAG_BASE + 2];
                    assert!(fold.iter().all(|&t| m.sent_for_tag(t).msgs == 0), "P = {p}: a fold");
                }
                let sum = |f: fn(&Metrics) -> u64| metrics.iter().map(f).sum::<u64>();
                assert_eq!(sum(|m| m.reserved.sent_msgs), msgs, "P = {p} {op:?}");
                let words = msgs + if op == ReduceOp::Sum { doubled } else { 0 };
                assert_eq!(sum(|m| m.reserved.sent_bytes), 8 * words, "P = {p} {op:?}");
            }
        }
    }

    #[test]
    fn alltoall_counts_types_a_wrong_length_payload_from_a_rogue_peer() {
        let op = |comm: &dyn Communicator| comm.alltoall_counts(&[1, 2]);
        assert_typed(2, 0, &[], (1, TAG_ALLTOALL_COUNTS, 8), op);
    }
}
