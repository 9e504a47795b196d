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
//! `recv_buf`, `recv_into` and `recv_buf_timeout` are provided corners of it.
//! It blocks on *one* `(src, tag)`; `wait_arrival` is how a
//! protocol that must service *any* channel while it waits (an ARQ acking
//! third-party frames, a heartbeat sweep, a flood) parks without a poll
//! quantum: read the arrival count, sweep with `probe`, and if the sweep
//! found nothing, wait for the count to move or for the protocol's own next
//! deadline.
//!
//! Everything else — the `&[u8]`/`Vec<u8>` compat forms, `sendrecv*`, and the
//! small collectives — is a provided method built from those eight, so every
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

use crate::{CommError, CommResult, MsgBuf, ReduceOp, Tag};

/// Tags at or above this value are reserved for the collectives implemented
/// in this crate. User code (including the Bruck algorithms) must stay below.
pub const RESERVED_TAG_BASE: Tag = 0x4000_0000;

const TAG_BARRIER: Tag = RESERVED_TAG_BASE;
const TAG_ALLREDUCE: Tag = RESERVED_TAG_BASE + 1;
const TAG_ALLGATHER: Tag = RESERVED_TAG_BASE + 2;
const TAG_ALLTOALL_COUNTS: Tag = RESERVED_TAG_BASE + 4;

/// The tail of the failure detector's and the agreement flood's service loops
/// (the ARQ's driver parks on its pre-sweep count whatever the pass handled,
/// so it calls `wait_arrival` itself). `seen` is an arrival count read *before*
/// the pass that just ended: if that pass was `idle` (handled nothing), park
/// until the count moves or `budget` — the caller's own next deadline —
/// elapses; otherwise only refresh the count. Either way the caller sweeps
/// again before it next parks on the returned count, so a frame landing
/// mid-sweep is never slept through.
pub(crate) fn await_arrival<C: Communicator + ?Sized>(
    comm: &C,
    seen: u64,
    idle: bool,
    budget: Duration,
) -> CommResult<u64> {
    comm.wait_arrival(seen, if idle { budget } else { Duration::ZERO })
}

/// Receive the one little-endian `u64` of a small collective's step. Its
/// length comes from the peer, so a wrong one is a typed error, not a panic:
/// a longer payload is [`CommError::Truncated`] (and stays queued), a shorter
/// one [`CommError::BadArgument`].
fn recv_u64<C: Communicator + ?Sized>(comm: &C, src: usize, tag: Tag) -> CommResult<u64> {
    let mut word = [0u8; 8];
    if comm.recv_into(src, tag, &mut word)? != word.len() {
        return Err(CommError::BadArgument("short u64 collective payload"));
    }
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

    /// [`Communicator::sendrecv`] into a caller buffer; returns received length.
    fn sendrecv_into(
        &self,
        dest: usize,
        send_tag: Tag,
        data: &[u8],
        src: usize,
        recv_tag: Tag,
        rbuf: &mut [u8],
    ) -> CommResult<usize> {
        self.send(dest, send_tag, data)?;
        self.recv_into(src, recv_tag, rbuf)
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

    /// All-reduce of a single `u64`.
    ///
    /// `Max` and `Min` are idempotent, so a value may reach a rank twice:
    /// they run a dissemination, in which at step `k` every rank sends its
    /// accumulator to `me + 2ᵏ` and folds in the one from `me − 2ᵏ` (mod
    /// `P`). That is ⌈log₂ P⌉ one-way rounds at any `P`, one message per rank
    /// per round, with no fold (a point of the any-`P` allreduce family of
    /// arXiv 2004.09362). `Sum` must count every rank once, so it keeps
    /// recursive doubling with the fold-in of the non-power-of-two remainder
    /// ranks. Both use the reserved round tags.
    fn allreduce_u64(&self, value: u64, op: ReduceOp) -> CommResult<u64> {
        let p = self.size();
        let me = self.rank();
        if p == 1 {
            return Ok(value);
        }
        if op != ReduceOp::Sum {
            let mut acc = value;
            let mut dist = 1;
            let mut round: Tag = 2;
            while dist < p {
                self.send((me + dist) % p, TAG_ALLREDUCE + round, &acc.to_le_bytes())?;
                acc = op.apply(acc, recv_u64(self, (me + p - dist) % p, TAG_ALLREDUCE + round)?);
                dist <<= 1;
                round += 1;
            }
            return Ok(acc);
        }
        let m = p.next_power_of_two() >> if p.is_power_of_two() { 0 } else { 1 };
        let rem = p - m; // ranks m..p fold into ranks 0..rem
        let mut acc = value;
        if me >= m {
            self.send(me - m, TAG_ALLREDUCE, &acc.to_le_bytes())?;
            return recv_u64(self, me - m, TAG_ALLREDUCE + 1);
        }
        if me < rem {
            acc = op.apply(acc, recv_u64(self, me + m, TAG_ALLREDUCE)?);
        }
        let mut dist = 1;
        let mut round: Tag = 2;
        while dist < m {
            let partner = me ^ dist;
            self.send(partner, TAG_ALLREDUCE + round, &acc.to_le_bytes())?;
            acc = op.apply(acc, recv_u64(self, partner, TAG_ALLREDUCE + round)?);
            dist <<= 1;
            round += 1;
        }
        if me < rem {
            self.send(me + m, TAG_ALLREDUCE + 1, &acc.to_le_bytes())?;
        }
        Ok(acc)
    }

    /// Ring allgather of one `u64` per rank; result is indexed by rank.
    fn allgather_u64(&self, value: u64) -> CommResult<Vec<u64>> {
        let p = self.size();
        let me = self.rank();
        let mut out = vec![0u64; p];
        out[me] = value;
        if p == 1 {
            return Ok(out);
        }
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        // At step s we forward the value that originated at (me - s) mod p.
        let mut carry = value;
        for s in 0..p - 1 {
            self.send(right, TAG_ALLGATHER + s as Tag, &carry.to_le_bytes())?;
            carry = recv_u64(self, left, TAG_ALLGATHER + s as Tag)?;
            out[(me + p - s - 1) % p] = carry;
        }
        Ok(out)
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
    use crate::{EventComm, MeteredComm, SimComm, ThreadComm};

    /// A payload four bytes short of a `u64`, and one four bytes too long.
    const SHORT: &[u8] = &[1; 4];
    const LONG: &[u8] = &[1; 12];

    fn wrong_length(payload: &[u8]) -> CommError {
        if payload.len() < 8 {
            CommError::BadArgument("short u64 collective payload")
        } else {
            CommError::Truncated { message_len: payload.len(), buffer_len: 8 }
        }
    }

    /// What the honest rank `victim` of a `p`-rank world gets from `op` when
    /// rank `rogue` sends it `payload` on `tag` in place of its step; the
    /// other ranks sit out. Returned in rank order from both a `ThreadComm`
    /// and a `SimComm` world.
    fn against_rogue<T>(
        p: usize,
        (rogue, victim, tag): (usize, usize, Tag),
        payload: &[u8],
        op: impl Fn(&dyn Communicator) -> CommResult<T> + Sync,
    ) -> [Vec<Option<CommError>>; 2] {
        let rank = |comm: &dyn Communicator| {
            if comm.rank() == rogue {
                comm.send(victim, tag, payload).unwrap();
            }
            (comm.rank() == victim).then(|| op(comm).err()).flatten()
        };
        [ThreadComm::run(p, |comm| rank(comm)), SimComm::run(p, 3, |comm| rank(comm)).results]
    }

    fn assert_typed<T>(
        p: usize,
        (rogue, victim, tag): (usize, usize, Tag),
        op: impl Fn(&dyn Communicator) -> CommResult<T> + Sync + Copy,
    ) {
        for payload in [SHORT, LONG] {
            for results in against_rogue(p, (rogue, victim, tag), payload, op) {
                let mut want = vec![None; p];
                want[victim] = Some(wrong_length(payload));
                assert_eq!(results, want, "p={p} tag={tag:#x} {} bytes", payload.len());
            }
        }
    }

    #[test]
    fn allreduce_types_a_wrong_length_payload_from_a_rogue_peer() {
        let op = |comm: &dyn Communicator| comm.allreduce_u64(5, ReduceOp::Sum);
        // A recursive-doubling round, the fold-in and the unfold.
        assert_typed(2, (1, 0, TAG_ALLREDUCE + 2), op);
        assert_typed(3, (2, 0, TAG_ALLREDUCE), op);
        assert_typed(3, (0, 2, TAG_ALLREDUCE + 1), op);
        // A dissemination round: rank 0 hears from rank P − 1 first.
        let max = |comm: &dyn Communicator| comm.allreduce_u64(5, ReduceOp::Max);
        assert_typed(3, (2, 0, TAG_ALLREDUCE + 2), max);
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
    fn max_is_one_message_per_rank_per_round_and_no_fold() {
        for p in [3usize, 5, 6, 8, 12] {
            let metrics = ThreadComm::run(p, |comm| {
                let mc = MeteredComm::new(comm);
                let max = mc.allreduce_u64(mc.rank() as u64, ReduceOp::Max).unwrap();
                assert_eq!(max, p as u64 - 1);
                mc.metrics()
            });
            let rounds = p.next_power_of_two().trailing_zeros() as u64;
            for m in &metrics {
                assert_eq!(m.reserved.sent_msgs, rounds, "P = {p} rank {}", m.rank);
                let sent_on = |tag| m.sent_for_tag(tag).msgs;
                assert_eq!(sent_on(TAG_ALLREDUCE) + sent_on(TAG_ALLREDUCE + 1), 0, "P = {p}: a fold");
            }
        }
    }

    #[test]
    fn allgather_types_a_wrong_length_payload_from_a_rogue_peer() {
        assert_typed(2, (1, 0, TAG_ALLGATHER), |comm: &dyn Communicator| comm.allgather_u64(5));
    }

    #[test]
    fn alltoall_counts_types_a_wrong_length_payload_from_a_rogue_peer() {
        let op = |comm: &dyn Communicator| comm.alltoall_counts(&[1, 2]);
        assert_typed(2, (1, 0, TAG_ALLTOALL_COUNTS), op);
    }
}
