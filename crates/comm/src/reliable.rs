//! [`ReliableComm`]: clean MPI semantics on top of a lossy transport.
//!
//! The algorithms in this workspace assume what MPI guarantees: every send is
//! delivered exactly once, uncorrupted, in order. [`crate::FaultComm`] breaks
//! all three on purpose; this go-back-N sliding-window ARQ repairs them:
//!
//! * **One ordered stream per peer.** A frame carries the next sequence
//!   number of its peer's stream and its logical tag, on one reserved wire
//!   tag for data and acks alike; the receiver accepts only the number it
//!   expects, so a duplicate or a frame behind a loss is discarded, never
//!   delivered twice or out of order.
//! * **Checksums** over every frame, header included: a corrupted frame (or
//!   ack) is discarded, indistinguishable from a drop.
//! * **A send window.** A send frames the payload, keeps the frame, hands it
//!   to the wire and *returns* (`Ok` means queued, not delivered); it waits
//!   only while [`ReliableConfig::WINDOW`] frames to that peer are unacked.
//! * **Cumulative acks, go-back-N.** An ack names the next number its sender
//!   expects and releases every frame below it. When a peer's oldest unacked
//!   frame is overdue every frame queued for it is resent, on a bounded
//!   exponential backoff that progress restarts; when that runs out the peer
//!   is declared dead and its queue dropped.
//!
//! Every blocking point — a window-full send, a receive, `flush`, `quiesce` —
//! runs one loop: a *service pass* (drain the arrived frames: verify →
//! release acked frames, or accept in order / re-ack a duplicate / answer a
//! gap with the cumulative ack → stash; then retransmit what is overdue),
//! then *park on arrival* ([`Communicator::wait_arrival`]) for the caller's
//! budget or until the next retransmission is due. The arrival count is read
//! before the sweep, so a frame landing mid-pass ends the park at once, and a
//! pass that finds the count where the last complete sweep left it skips its
//! P − 1 probes. An untimed receive with nothing in flight parks unbounded,
//! which the simulator can prove stuck. A caller that parks on the wrapper's
//! own `wait_arrival` between probes (an agreement round) gets a service pass
//! first and wakes by the next retransmission, so its own lost frames keep
//! moving while it waits for its peers'.
//!
//! ## Three rules
//!
//! 1. **The ack schedule is a function of the stream alone.** A standalone
//!    ack goes out exactly when the expected number reaches a multiple of
//!    [`ReliableConfig::ACK_EVERY`], once per duplicate or out-of-order
//!    frame, and once for a stream's remainder when the wrapper settles
//!    (`flush`, `quiesce`, drop) — never "before parking" or "when idle", and
//!    none rides on reverse data. So fault-free wire counts repeat exactly
//!    under real threads, and a rank cannot leave while a peer's trailing ack
//!    is on its way: only that ack releases its last frames.
//! 2. **Tear-down is leak-free with no extra call.** [`ReliableComm::flush`]
//!    sends the acks this rank owes, waits until every frame it sent is
//!    acked or its peer has failed (at most one retry schedule per peer) and
//!    returns the first failed peer. Dropping the wrapper is `flush` with the
//!    result ignored, so ranks that drop it after their last receive leave
//!    every mailbox empty — but not while the thread unwinds: `EventComm`
//!    parks a rank by unwinding through its locals, and a panicked rank must
//!    not communicate from a destructor. A *lost* trailing ack needs a live
//!    peer to repeat it: on a lossy transport call [`ReliableComm::quiesce`]
//!    after the last exchange (`bruck-chaos` does).
//! 3. **A failure is reported only by operations addressed to the failed
//!    peer**: the next send to it, a receive or a probe *from* it once nothing
//!    of its on that tag is stashed, and `flush` / `quiesce`. Never by a
//!    receive or probe from a live peer — the agreement books a failure
//!    against the peer it addressed, which would evict a healthy one. The
//!    probe is what lets an agreement round stop waiting for a dead peer as
//!    soon as the retry schedule gives up on it, not at the round deadline.
//!
//! ## Costs
//!
//! One payload copy per send (≈ 0.07 µs for 1.3 KiB with its allocation; a
//! stashed payload is a zero-copy view of the arrived frame), the frame kept
//! until acked, two checksum passes per frame (≈ 0.1 µs each for 1.3 KiB),
//! and ⌈n / ACK_EVERY⌉ acks for n frames on a stream, not a round trip per
//! message: on the `thread-stack` benchmark a P = 8 two-phase exchange is 120
//! wire messages for 96 logical, `wrappers.reliable_ratio` ≈ 1.8 and
//! `wrappers.stack_ratio` ≈ 1.9 over a 0.08 ms bare exchange (192 messages
//! and 3.4 with an ack awaited per frame). A remainder is acked only when its
//! receiver settles: a stream idle past `ack_timeout` pays one spurious burst.

use std::collections::VecDeque;
use std::ops::ControlFlow::{self, Break, Continue};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use crate::retry::RetryPolicy;
use crate::{splitmix, CommError, CommResult, Communicator, MsgBuf, Tag, RESERVED_TAG_BASE};

/// The one wire tag: data frames and acks of every logical tag travel on it.
const WIRE_TAG: Tag = RESERVED_TAG_BASE + 0x2000;
/// Frame header: `value` (8) | `meta` (8) | checksum (8). A data frame carries
/// its sequence number and its logical tag; an ack the cumulative ack (every
/// number below it has been accepted) and [`ACK`], a bit above any tag.
const HDR: usize = 24;
const ACK: u64 = 1 << 32;

/// Retransmission policy for [`ReliableComm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Initial ack deadline before the first retransmission.
    pub ack_timeout: Duration,
    /// Retransmissions after the initial send; when exhausted the destination
    /// is reported as [`crate::CommError::RankFailed`].
    pub max_retries: u32,
    /// Ceiling for the exponentially growing retransmission timeout.
    pub backoff_cap: Duration,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            ack_timeout: Duration::from_millis(40),
            max_retries: 6,
            backoff_cap: Duration::from_millis(320),
        }
    }
}

// A full window always holds a frame whose acceptance makes an ack due.
const _: () = assert!(ReliableConfig::ACK_EVERY as usize <= ReliableConfig::WINDOW / 2);

impl ReliableConfig {
    /// Frames in flight per peer before a send waits (servicing) for an ack.
    pub const WINDOW: usize = 32;
    /// A standalone ack goes out for every `ACK_EVERY`-th frame accepted.
    pub const ACK_EVERY: u64 = 8;

    /// The ack-deadline schedule as a [`RetryPolicy`]: jitter-free bounded
    /// exponential backoff starting at `ack_timeout`, capped at
    /// `backoff_cap`, for `max_retries + 1` attempts. This is the single
    /// source of truth for the retransmission timing of a peer's oldest frame.
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy::exponential(self.ack_timeout, self.backoff_cap, self.max_retries)
    }
}

/// Multiplier of the checksum's lane step: odd, so a multiply by it is a
/// bijection of `u64`.
const LANE_MUL: u64 = 0x9FB2_1C65_1E98_DF25;

/// One lane step: absorb `word` into `lane`. A bijection of the lane for a
/// fixed word and of the word for a fixed lane (xor, an odd multiply and a
/// rotation each are).
fn lane_step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(LANE_MUL).rotate_left(29)
}

/// Absorb one 64-byte block, one 8-byte word per lane.
fn absorb(lanes: &mut [u64; 8], block: &[u8]) {
    for (lane, bytes) in lanes.iter_mut().zip(block.chunks_exact(8)) {
        let mut word = [0u8; 8];
        word.copy_from_slice(bytes);
        *lane = lane_step(*lane, u64::from_le_bytes(word));
    }
}

/// Frame checksum over both header words, the payload length and the payload
/// (zero-padded to 64-byte blocks). Not cryptographic — it detects the flips
/// a faulty link (or [`crate::FaultComm`]) produces: every step is a bijection
/// of the lane for a fixed word and of the word for a fixed lane, so a change
/// confined to one 8-byte word always changes the result. Eight independent
/// lanes keep eight multiplies in flight; the lanes fold by the same step and
/// one `splitmix` finishes.
fn checksum(value: u64, meta: u64, payload: &[u8]) -> u64 {
    let mut lanes = [
        value,
        meta,
        payload.len() as u64,
        0x243F_6A88_85A3_08D3,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
        0x4528_21E6_38D0_1377,
    ]
    // Step the header words once before the payload meets them: on raw lanes
    // the same flip in `value` and in the payload's first word would cancel.
    .map(|lane| lane_step(lane, 0));
    let blocks = payload.chunks_exact(64);
    let rest = blocks.remainder();
    for block in blocks {
        absorb(&mut lanes, block);
    }
    if !rest.is_empty() {
        let mut tail = [0u8; 64];
        tail[..rest.len()].copy_from_slice(rest);
        absorb(&mut lanes, &tail);
    }
    splitmix(lanes.into_iter().fold(0, lane_step))
}

/// Hash, then copy: hashing each block as it is copied into the frame measured
/// slower from 1 KiB up (157 against 133 ns per 1 KiB frame).
fn build_frame(value: u64, meta: u64, payload: &[u8]) -> MsgBuf {
    let header = [value, meta, checksum(value, meta, payload)].map(u64::to_le_bytes);
    MsgBuf::from_vec([header.as_flattened(), payload].concat())
}

/// Parse + verify a frame into `(value, meta, payload)`; `None` means corrupt
/// or malformed: treated exactly like a drop, the sender will retransmit.
fn parse_frame(frame: &MsgBuf) -> Option<(u64, u64, MsgBuf)> {
    let word = |at: usize| Some(u64::from_le_bytes(frame.get(at..at + 8)?.try_into().ok()?));
    let (value, meta, ck) = (word(0)?, word(8)?, word(16)?);
    let payload = frame.slice(HDR..);
    (checksum(value, meta, &payload) == ck).then_some((value, meta, payload))
}

/// Both directions of the ordered stream shared with one peer.
#[derive(Default)]
struct Peer {
    /// Number of the next frame to this peer.
    next_seq: u64,
    /// Frames sent and not yet acked, oldest first, at most `WINDOW`.
    unacked: VecDeque<MsgBuf>,
    /// Retransmissions of the oldest unacked frame so far.
    attempt: u32,
    /// When that frame is next overdue. `None` (a send into an empty queue,
    /// progress) is armed by the next service pass, the first that could act.
    overdue: Option<Duration>,
    /// The retry budget ran out on this peer; its queue was dropped.
    failed: bool,
    /// Number of the next frame to accept from this peer: the cumulative ack.
    expected: u64,
    /// `expected` at the last standalone ack; one is owed while they differ.
    acked: u64,
    /// Accepted payloads (and self-sends) with their logical tags, in order.
    stash: VecDeque<(Tag, MsgBuf)>,
}

struct State {
    peers: Vec<Peer>,
    /// The arrival count read before the last complete sweep: while the count
    /// still reads this nothing has arrived and a pass skips its P − 1 probes.
    swept: Option<u64>,
}

impl State {
    /// Pop the oldest stashed payload for `(src, tag)`. One longer than
    /// `max_len` is refused *without* leaving the stash (like the mailbox).
    fn pop_stash(&mut self, src: usize, tag: Tag, max_len: usize) -> CommResult<Option<MsgBuf>> {
        let stash = &mut self.peers[src].stash;
        let Some(at) = stash.iter().position(|(t, _)| *t == tag) else { return Ok(None) };
        let message_len = stash[at].1.len();
        if message_len > max_len {
            return Err(CommError::Truncated { message_len, buffer_len: max_len });
        }
        Ok(stash.remove(at).map(|(_, msg)| msg))
    }

    /// How `flush` and `quiesce` end: with the first failed peer, if any.
    fn first_failed(&self) -> CommResult<()> {
        let failed = self.peers.iter().position(|peer| peer.failed);
        failed.map_or(Ok(()), |rank| Err(CommError::RankFailed { rank }))
    }
}

/// A reliability wrapper around any [`Communicator`]. One wrapper per rank
/// (like [`crate::FaultComm`]): it owns its rank's stream state, so keep it
/// alive across all exchanges on a communicator. Dropping it flushes.
pub struct ReliableComm<'a, C: Communicator + ?Sized> {
    inner: &'a C,
    policy: RetryPolicy,
    state: Mutex<State>,
}

impl<'a, C: Communicator + ?Sized> ReliableComm<'a, C> {
    /// Wrap `inner` with the default retransmission policy.
    pub fn new(inner: &'a C) -> Self {
        Self::with_config(inner, ReliableConfig::default())
    }

    /// Wrap `inner` with an explicit retransmission policy.
    pub fn with_config(inner: &'a C, cfg: ReliableConfig) -> Self {
        let peers = (0..inner.size()).map(|_| Peer::default()).collect();
        let state = Mutex::new(State { peers, swept: None });
        ReliableComm { inner, policy: cfg.retry_policy(), state }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Send `src` the cumulative ack; nothing is owed it afterwards.
    fn send_ack(&self, src: usize, peer: &mut Peer) -> CommResult<()> {
        peer.acked = peer.expected;
        self.inner.send_buf(src, WIRE_TAG, build_frame(peer.expected, ACK, &[]))
    }

    /// The last clause of rule 1: every stream's remainder is acked.
    fn send_owed_acks(&self) -> CommResult<()> {
        let mut s = self.lock();
        let owed = s.peers.iter_mut().enumerate().filter(|(_, peer)| peer.acked != peer.expected);
        owed.map(|(src, peer)| self.send_ack(src, peer)).collect()
    }

    /// Handle one arrived wire frame from `src`.
    fn accept(&self, src: usize, peer: &mut Peer, frame: &MsgBuf) -> CommResult<()> {
        // Corrupt frames go unanswered, exactly like a genuine drop.
        let Some((value, meta, payload)) = parse_frame(frame) else { return Ok(()) };
        if meta == ACK {
            // Release every frame below `value`; progress restarts the
            // retry schedule for the new oldest frame.
            let base = peer.next_seq - peer.unacked.len() as u64;
            let released = value.saturating_sub(base).min(peer.unacked.len() as u64) as usize;
            if released > 0 {
                peer.unacked.drain(..released);
                (peer.attempt, peer.overdue) = (0, None);
            }
            return Ok(());
        }
        if value == peer.expected {
            peer.expected += 1;
            peer.stash.push_back((meta as Tag, payload));
            if peer.expected % ReliableConfig::ACK_EVERY != 0 {
                return Ok(());
            }
        }
        // The period is up, or the frame is a duplicate (its ack was lost) or
        // beyond a gap (discarded; the sender resends from `expected`).
        self.send_ack(src, peer)
    }

    /// The pass's clock reading in `clock`, taken on first use: a service
    /// pass and the poll after it share one reading.
    fn pass_now(&self, clock: &mut Option<Duration>) -> Duration {
        *clock.get_or_insert_with(|| self.inner.now())
    }

    /// One service pass: drain the arrived wire frames (unless the arrival
    /// count `seen` is where the last complete sweep left it), then resend to
    /// every peer whose oldest frame is overdue. Returns the frames handled and
    /// the time to the next retransmission (`MAX`, no clock read, if none).
    fn service(
        &self,
        s: &mut State,
        seen: u64,
        clock: &mut Option<Duration>,
    ) -> CommResult<(usize, Duration)> {
        let me = self.inner.rank();
        let mut handled = 0usize;
        if s.swept != Some(seen) {
            for src in (0..s.peers.len()).filter(|&src| src != me) {
                while self.inner.probe(src, WIRE_TAG)?.is_some() {
                    let frame = self.inner.recv_buf(src, WIRE_TAG)?;
                    handled += 1;
                    self.accept(src, &mut s.peers[src], &frame)?;
                }
            }
            s.swept = Some(seen);
        }
        let mut next_due = Duration::MAX;
        let in_flight = s.peers.iter_mut().enumerate().filter(|(_, peer)| !peer.unacked.is_empty());
        for (dest, peer) in in_flight {
            let now = self.pass_now(clock);
            let overdue = peer.overdue.get_or_insert(now + self.policy.delay(peer.attempt));
            if now >= *overdue {
                peer.attempt += 1;
                if peer.attempt >= self.policy.attempts() {
                    // Reported by the operations addressed to `dest` (rule 3).
                    (peer.failed, peer.overdue) = (true, None);
                    peer.unacked.clear();
                    continue;
                }
                for frame in &peer.unacked {
                    self.inner.send_buf(dest, WIRE_TAG, frame.clone())?;
                }
                *overdue = now + self.policy.delay(peer.attempt);
            }
            next_due = next_due.min(*overdue - now);
        }
        Ok((handled, next_due))
    }

    /// The one wait loop behind every blocking point. `poll` answers done
    /// (`Break`) or how long the caller may still wait (`Continue`): asked
    /// first (done at once costs no inner call), then after each service pass,
    /// with the frames it handled and the pass's clock, which it reads through
    /// [`Self::pass_now`]: the clock is read at most once per pass. The rank
    /// parks in between, for that budget or until the next retransmission, on
    /// a count read before the sweep.
    fn drive<T>(
        &self,
        mut poll: impl FnMut(
            &mut State,
            usize,
            &mut Option<Duration>,
        ) -> CommResult<ControlFlow<T, Duration>>,
    ) -> CommResult<T> {
        let mut seen = None;
        loop {
            let (mut s, mut clock) = (self.lock(), None);
            let pass = seen.map(|count| self.service(&mut s, count, &mut clock)).transpose()?;
            let (handled, next_due) = pass.unwrap_or((0, Duration::ZERO));
            let budget = match poll(&mut s, handled, &mut clock)? {
                Break(done) => return Ok(done),
                Continue(budget) => budget.min(next_due),
            };
            drop(s);
            // Not done at once: a zero budget just reads the count.
            seen = Some(self.inner.wait_arrival(seen.unwrap_or(0), budget)?);
        }
    }

    /// Settle this rank's side of every stream (rule 2). A send returns before
    /// its frame is delivered: a failed peer surfaces here, the first one.
    pub fn flush(&self) -> CommResult<()> {
        self.send_owed_acks()?;
        self.drive(|s, _, _| {
            let settled = s.peers.iter().all(|peer| peer.unacked.is_empty());
            Ok(if settled { Break(s.first_failed()?) } else { Continue(Duration::MAX) })
        })
    }

    /// Send the acks still owed, then keep servicing until the network has
    /// been quiet for `quiet` (no frame arrived), or `max_total` has elapsed:
    /// a peer whose *ack* was lost is still retransmitting, and leaving would
    /// turn the lost ack into a spurious [`CommError::RankFailed`] there, so
    /// `quiet` should exceed the peers' `backoff_cap`. Ends like `flush`.
    pub fn quiesce(&self, quiet: Duration, max_total: Duration) -> CommResult<()> {
        self.send_owed_acks()?;
        let start = self.inner.now();
        let mut quiet_since = start;
        self.drive(|s, handled, clock| {
            let now = self.pass_now(clock);
            if handled > 0 {
                quiet_since = now;
            }
            let until = quiet_since.saturating_add(quiet).min(start.saturating_add(max_total));
            Ok(if now >= until { Break(s.first_failed()?) } else { Continue(until - now) })
        })
    }
}

impl<C: Communicator + ?Sized> Drop for ReliableComm<'_, C> {
    /// [`ReliableComm::flush`], result ignored; not while unwinding (rule 2).
    fn drop(&mut self) {
        if !std::thread::panicking() {
            #[expect(clippy::let_underscore_must_use, reason = "`Drop` has nowhere to return it")]
            let _ = self.flush();
        }
    }
}

impl<C: Communicator + ?Sized> Communicator for ReliableComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send_buf(&self, dest: usize, tag: Tag, buf: MsgBuf) -> CommResult<()> {
        self.inner.check_rank(dest)?;
        if dest == self.inner.rank() {
            // Self-sends are process-local: straight into the stash, no wire.
            self.lock().peers[dest].stash.push_back((tag, buf));
            return Ok(());
        }
        // Wait (servicing) only while the window is full: two ranks flooding
        // each other ack each other from inside their sends, so neither
        // deadlocks; a failed peer's queue is dropped, so the wait ends.
        self.drive(|s, _, _| {
            let full = s.peers[dest].unacked.len() >= ReliableConfig::WINDOW;
            Ok(if full { Continue(Duration::MAX) } else { Break(()) })
        })?;
        let mut s = self.lock();
        let peer = &mut s.peers[dest];
        if peer.failed {
            return Err(CommError::RankFailed { rank: dest });
        }
        let frame = build_frame(peer.next_seq, u64::from(tag), &buf);
        peer.next_seq += 1;
        peer.unacked.push_back(frame.clone());
        self.inner.send_buf(dest, WIRE_TAG, frame)
    }

    /// Pop the stash (already there: no clock read, no arrival count),
    /// servicing until the message is. Only a failed `src` with nothing
    /// stashed is [`CommError::RankFailed`], never a third party (rule 3).
    fn recv_match(
        &self,
        src: usize,
        tag: Tag,
        max_len: usize,
        timeout: Duration,
    ) -> CommResult<MsgBuf> {
        self.inner.check_rank(src)?;
        let mut start = None;
        self.drive(|s, _, clock| {
            if let Some(msg) = s.pop_stash(src, tag, max_len)? {
                return Ok(Break(msg));
            }
            if s.peers[src].failed {
                return Err(CommError::RankFailed { rank: src });
            }
            if timeout == Duration::MAX {
                return Ok(Continue(timeout));
            }
            let now = self.pass_now(clock);
            let waited = now.saturating_sub(*start.get_or_insert(now));
            if waited >= timeout {
                return Err(CommError::Timeout { src, tag, waited });
            }
            Ok(Continue(timeout - waited))
        })
        // A stuck world is reported against the receive the caller made.
        .map_err(|e| match e {
            CommError::Deadlock { .. } => CommError::Deadlock { src, tag },
            other => other,
        })
    }

    /// After a service pass: the length of the oldest message stashed for
    /// `(src, tag)`; with none, [`CommError::RankFailed`] if `src` has failed
    /// (rule 3), else `None`.
    fn probe(&self, src: usize, tag: Tag) -> CommResult<Option<usize>> {
        self.inner.check_rank(src)?;
        let seen = self.inner.wait_arrival(0, Duration::ZERO)?;
        let mut s = self.lock();
        self.service(&mut s, seen, &mut None)?;
        let peer = &s.peers[src];
        match peer.stash.iter().find(|(t, _)| *t == tag) {
            Some((_, msg)) => Ok(Some(msg.len())),
            None if peer.failed => Err(CommError::RankFailed { rank: src }),
            None => Ok(None),
        }
    }

    fn now(&self) -> Duration {
        self.inner.now()
    }

    #[expect(clippy::disallowed_methods, reason = "a wrapper forward; it waits for nothing")]
    fn sleep(&self, d: Duration) {
        self.inner.sleep(d)
    }

    fn wait_arrival(&self, seen: u64, timeout: Duration) -> CommResult<u64> {
        if timeout.is_zero() {
            return self.inner.wait_arrival(seen, timeout);
        }
        // Park no longer than this rank's next retransmission, after a
        // service pass that arms and resends what is overdue: a caller parked
        // here between probes (an agreement round) would otherwise sit on its own lost frames while the peers waiting
        // for them time out. The count is the wire's: acks and other
        // channels' frames move it too, so a caller may wake early; its
        // re-sweep through `probe` services them.
        let count = self.inner.wait_arrival(0, Duration::ZERO)?;
        let (_, next_due) = self.service(&mut self.lock(), count, &mut None)?;
        self.inner.wait_arrival(seen, timeout.min(next_due))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        EdgeFaults, FaultComm, FaultKind, FaultPlan, ReduceOp, SimComm, SimConfig, ThreadComm,
    };
    use std::time::Instant;

    fn quick_cfg() -> ReliableConfig {
        ReliableConfig {
            ack_timeout: Duration::from_millis(10),
            // Generous budget: a test message only fails if data-or-ack is
            // lost on all 13 attempts, vanishingly unlikely at the fault
            // rates below — and a single RankFailed would hang the peer's
            // blocking recv, so exhaustion must be out of reach here.
            max_retries: 12,
            backoff_cap: Duration::from_millis(80),
        }
    }

    /// A hostile network: drops, duplicates, and corruption on every edge.
    fn hostile(seed: u64) -> FaultPlan {
        FaultPlan::new(seed).with_drop(0.1).with_duplicate(0.1).with_corrupt(0.08)
    }

    #[test]
    fn clean_channel_preserves_order_and_content() {
        ThreadComm::run(2, |comm| {
            let rc = ReliableComm::with_config(comm, quick_cfg());
            if rc.rank() == 0 {
                for i in 0..50u8 {
                    rc.send(1, 4, &[i, i.wrapping_mul(3)]).unwrap();
                }
            } else {
                for i in 0..50u8 {
                    assert_eq!(rc.recv(0, 4).unwrap(), vec![i, i.wrapping_mul(3)]);
                }
            }
        });
    }

    #[test]
    fn lossy_duplicating_corrupting_channel_is_repaired() {
        for seed in [1u64, 2, 3] {
            ThreadComm::run(2, move |comm| {
                let fc = FaultComm::new(comm, hostile(seed));
                let rc = ReliableComm::with_config(&fc, quick_cfg());
                // Both directions at once: the sendrecv pattern that would
                // deadlock if a blocked sender did not service incoming.
                let me = rc.rank();
                let peer = 1 - me;
                for i in 0..30u32 {
                    let payload: Vec<u8> = (0..17).map(|b| (b as u32 * 7 + i + me as u32) as u8).collect();
                    let got = rc.sendrecv(peer, 6, &payload, peer, 6).unwrap();
                    let expect: Vec<u8> =
                        (0..17).map(|b| (b as u32 * 7 + i + peer as u32) as u8).collect();
                    assert_eq!(got, expect, "seed {seed} round {i}: exactly-once, in order, intact");
                }
                rc.quiesce(Duration::from_millis(120), Duration::from_secs(2)).unwrap();
            });
        }
    }

    #[test]
    fn collectives_survive_a_hostile_network() {
        ThreadComm::run(5, |comm| {
            let fc = FaultComm::new(comm, hostile(9));
            let rc = ReliableComm::with_config(&fc, quick_cfg());
            rc.barrier().unwrap();
            let sum = rc.allreduce_u64(rc.rank() as u64, ReduceOp::Sum).unwrap();
            assert_eq!(sum, 10);
            rc.quiesce(Duration::from_millis(120), Duration::from_secs(2)).unwrap();
        });
    }

    #[test]
    fn unacked_send_reports_rank_failed_in_bounded_time() {
        ThreadComm::run(2, |comm| {
            // Every frame 0 → 1 is dropped (data and nothing comes back),
            // so the retry budget must exhaust into a typed RankFailed.
            let plan = FaultPlan::new(0)
                .with_edge(0, 1, EdgeFaults { drop: 1.0, ..EdgeFaults::default() });
            let fc = FaultComm::new(comm, plan);
            let cfg = ReliableConfig {
                ack_timeout: Duration::from_millis(5),
                max_retries: 3,
                backoff_cap: Duration::from_millis(20),
            };
            let rc = ReliableComm::with_config(&fc, cfg);
            if rc.rank() == 0 {
                let start = Instant::now();
                let err = rc.send(1, 1, &[42]).and_then(|()| rc.flush()).unwrap_err();
                assert_eq!(err, CommError::RankFailed { rank: 1 });
                // 5 + 10 + 20 + 20 ms of timeouts plus slack.
                assert!(start.elapsed() < Duration::from_secs(2), "retry must be bounded");
            }
            // Rank 1 simply exits; it never sees a verified frame.
        });
    }

    #[test]
    fn a_rank_parked_on_wait_arrival_keeps_retransmitting() {
        // The agreement waits by parking on `wait_arrival` between probes. Rank 0's ping may be lost on the
        // way to rank 1; then only a retransmission from rank 0, due while
        // rank 0 is parked waiting for the pong, ends either wait in time.
        let mut lost_first = 0;
        for seed in 0..8 {
            let report = SimComm::try_run(2, &SimConfig::from_seed(seed), |comm| {
                let edge = EdgeFaults { drop: 0.5, ..EdgeFaults::default() };
                let fc = FaultComm::new(comm, FaultPlan::new(seed).with_edge(0, 1, edge));
                let rc = ReliableComm::with_config(&fc, quick_cfg());
                let (me, peer) = (rc.rank(), 1 - rc.rank());
                if me == 0 {
                    rc.send(1, 7, b"ping")?;
                }
                let deadline = rc.now() + Duration::from_secs(1);
                let mut seen = rc.wait_arrival(0, Duration::ZERO)?;
                while rc.probe(peer, 7)?.is_none() {
                    let now = rc.now();
                    if now >= deadline {
                        return Err(CommError::Timeout { src: peer, tag: 7, waited: now });
                    }
                    seen = rc.wait_arrival(seen, deadline - now)?;
                }
                rc.recv(peer, 7)?;
                if me == 1 {
                    rc.send(0, 7, b"pong")?;
                }
                Ok(fc.log().iter().any(|e| e.kind == FaultKind::Dropped && e.edge_msg == 0))
            });
            for (rank, out) in report.outcomes.iter().enumerate() {
                let lost = out.as_ref().expect("no panic").as_ref();
                let lost = lost.unwrap_or_else(|e| panic!("seed {seed} rank {rank}: {e}"));
                lost_first += usize::from(*lost);
            }
        }
        assert!(lost_first > 0, "no seed lost the first ping");
    }

    #[test]
    fn a_probe_reports_only_the_failed_peer_and_only_with_nothing_stashed() {
        // Every frame 0 → 1 is dropped: rank 1's message reaches rank 0, but
        // rank 0's own frame to 1 is never acked, so its retry schedule runs
        // out. Rank 2 is alive and silent.
        let report = SimComm::try_run(3, &SimConfig::from_seed(4), |comm| {
            let edge = EdgeFaults { drop: 1.0, ..EdgeFaults::default() };
            let fc = FaultComm::new(comm, FaultPlan::new(4).with_edge(0, 1, edge));
            let rc = ReliableComm::with_config(&fc, quick_cfg());
            match rc.rank() {
                0 => {
                    rc.send(1, 5, b"lost")?;
                    let deadline = rc.now() + Duration::from_secs(10);
                    let mut seen = rc.wait_arrival(0, Duration::ZERO)?;
                    let failed = loop {
                        match rc.probe(1, 9) {
                            Err(e) => break Some(e),
                            Ok(_) if rc.now() >= deadline => break None,
                            Ok(_) => seen = rc.wait_arrival(seen, deadline - rc.now())?,
                        }
                    };
                    let stashed = rc.probe(1, 4);
                    let live = rc.probe(2, 9);
                    Ok::<_, CommError>(Some((failed, stashed, live, rc.recv(1, 4)?)))
                }
                1 => {
                    rc.send(0, 4, b"kept")?;
                    Ok(None)
                }
                _ => Ok(None),
            }
        });
        let outcomes: Vec<_> = report.outcomes.into_iter().map(|o| o.expect("no panic")).collect();
        let (failed, stashed, live, kept) = outcomes[0].clone().unwrap().unwrap();
        assert_eq!(failed, Some(CommError::RankFailed { rank: 1 }), "nothing stashed on tag 9");
        assert_eq!(stashed, Ok(Some(4)), "a stashed message is still reported");
        assert_eq!(live, Ok(None), "a live peer never reports a third party");
        assert_eq!(kept, b"kept");
    }

    /// A forwarding wrapper that counts `[now() reads, wait_arrival calls]`.
    struct ClockCount<'a, C: ?Sized> {
        inner: &'a C,
        counts: Mutex<[usize; 2]>,
    }

    impl<C: Communicator + ?Sized> ClockCount<'_, C> {
        fn counts(&self) -> [usize; 2] {
            *self.counts.lock().unwrap()
        }
    }

    impl<C: Communicator + ?Sized> Communicator for ClockCount<'_, C> {
        fn rank(&self) -> usize {
            self.inner.rank()
        }

        fn size(&self) -> usize {
            self.inner.size()
        }

        fn send_buf(&self, dest: usize, tag: Tag, buf: MsgBuf) -> CommResult<()> {
            self.inner.send_buf(dest, tag, buf)
        }

        fn recv_match(
            &self,
            src: usize,
            tag: Tag,
            max_len: usize,
            timeout: Duration,
        ) -> CommResult<MsgBuf> {
            self.inner.recv_match(src, tag, max_len, timeout)
        }

        fn probe(&self, src: usize, tag: Tag) -> CommResult<Option<usize>> {
            self.inner.probe(src, tag)
        }

        fn now(&self) -> Duration {
            self.counts.lock().unwrap()[0] += 1;
            self.inner.now()
        }

        fn sleep(&self, d: Duration) {
            self.inner.sleep(d)
        }

        fn wait_arrival(&self, seen: u64, timeout: Duration) -> CommResult<u64> {
            self.counts.lock().unwrap()[1] += 1;
            self.inner.wait_arrival(seen, timeout)
        }
    }

    #[test]
    fn a_pass_reads_the_clock_at_most_once() {
        // Rank 0 keeps one frame in flight (rank 1 takes it, and acks it,
        // only afterwards) and waits for a message that never comes, less
        // long than the frame's ack timeout. Every pass after a wait both
        // services the frame and checks the receive's timeout: one clock
        // reading serves both, so the receive reads the clock once for its
        // start and once per wait.
        let report = SimComm::try_run(2, &SimConfig::from_seed(1), |comm| {
            let counted = ClockCount { inner: comm, counts: Mutex::default() };
            let rc = ReliableComm::new(&counted);
            if rc.rank() == 1 {
                rc.recv(0, 9)?;
                rc.recv(0, 8)?;
                return Ok(None);
            }
            rc.send(1, 8, b"held")?;
            let [reads, waits] = counted.counts();
            let err = rc.recv_timeout(1, 5, Duration::from_millis(20)).unwrap_err();
            let [reads_after, waits_after] = counted.counts();
            rc.send(1, 9, b"go")?;
            Ok::<_, CommError>(Some((err, reads_after - reads, waits_after - waits)))
        });
        let outcomes: Vec<_> = report.outcomes.into_iter().map(|o| o.expect("no panic")).collect();
        let (err, reads, waits) = outcomes[0].clone().unwrap().unwrap();
        assert!(matches!(err, CommError::Timeout { src: 1, tag: 5, .. }), "{err}");
        assert!(waits >= 2, "the receive parked after its first service pass: {waits} waits");
        assert_eq!(reads, waits + 1, "one reading for the start, one per pass");
        assert_eq!(outcomes[1], Ok(None));
    }

    #[test]
    fn self_sends_work_and_skip_the_wire() {
        ThreadComm::run(1, |comm| {
            let rc = ReliableComm::with_config(comm, quick_cfg());
            rc.send(0, 9, &[1, 2, 3]).unwrap();
            assert_eq!(rc.probe(0, 9).unwrap(), Some(3));
            assert_eq!(rc.recv(0, 9).unwrap(), vec![1, 2, 3]);
        });
    }

    #[test]
    fn retry_policy_pins_the_pre_refactor_ack_schedule() {
        // send_reliable used to compute its retransmission deadlines inline:
        //   rto = ack_timeout; per attempt: wait rto; rto = min(rto * 2, cap)
        // The shared RetryPolicy must reproduce that schedule bit-for-bit,
        // for the default config and for skewed ones (cap below base, zero
        // retries, cap not a power-of-two multiple of base).
        let cases = [
            ReliableConfig::default(),
            ReliableConfig {
                ack_timeout: Duration::from_millis(10),
                max_retries: 5,
                backoff_cap: Duration::from_millis(40),
            },
            ReliableConfig {
                ack_timeout: Duration::from_millis(25),
                max_retries: 8,
                backoff_cap: Duration::from_millis(90),
            },
            ReliableConfig {
                ack_timeout: Duration::from_millis(50),
                max_retries: 0,
                backoff_cap: Duration::from_millis(10),
            },
        ];
        for cfg in cases {
            let mut legacy = Vec::new();
            let mut rto = cfg.ack_timeout;
            for _attempt in 0..=cfg.max_retries {
                legacy.push(rto);
                rto = (rto * 2).min(cfg.backoff_cap);
            }
            assert_eq!(
                cfg.retry_policy().schedule(),
                legacy,
                "schedule drifted for {cfg:?}"
            );
        }
    }

    #[test]
    fn checksum_changes_with_any_one_byte_and_every_header_field() {
        for len in 0..=130usize {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let base = checksum(5, 9, &payload);
            for (at, flip) in (0..len).flat_map(|at| [0x01, 0x80, 0xFF].map(|flip| (at, flip))) {
                let mut bad = payload.clone();
                bad[at] ^= flip;
                assert_ne!(checksum(5, 9, &bad), base, "len {len}, byte {at} ^ {flip:#x}");
            }
            let longer = [&payload[..], &[0]].concat();
            let fields = [(6, 9, &payload), (5, 10, &payload), (5, 9 | ACK, &payload), (5, 9, &longer)];
            assert!(fields.iter().all(|&(v, m, p)| checksum(v, m, p) != base), "len {len}: header");
        }
    }

    #[test]
    fn parse_frame_rejects_every_one_byte_flip_of_a_frame() {
        // Lengths on both sides of the 64-byte lane blocks; every byte of the
        // frame, header and checksum word included.
        for len in [0usize, 1, 7, 8, 63, 64, 65, 127, 128, 129, 200] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let frame = build_frame(5, 9, &payload);
            assert_eq!(frame.len(), HDR + len);
            let parsed = parse_frame(&frame).map(|(v, m, p)| (v, m, p.into_vec()));
            assert_eq!(parsed, Some((5, 9, payload.clone())), "len {len}: clean frame");
            for (at, flip) in (0..frame.len()).flat_map(|at| [0x01, 0x80, 0xFF].map(|flip| (at, flip))) {
                let mut bad = frame.as_slice().to_vec();
                bad[at] ^= flip;
                assert!(parse_frame(&MsgBuf::from_vec(bad)).is_none(), "len {len}, byte {at} ^ {flip:#x}");
            }
        }
    }

    #[test]
    fn corrupt_frames_never_reach_the_application() {
        // With corruption-only faults the checksum must catch every flip:
        // whatever arrives is bit-exact.
        ThreadComm::run(2, |comm| {
            let plan = FaultPlan::new(5).with_corrupt(0.5);
            let fc = FaultComm::new(comm, plan);
            let rc = ReliableComm::with_config(&fc, quick_cfg());
            if rc.rank() == 0 {
                for i in 0..40u8 {
                    rc.send(1, 1, &[i; 64]).unwrap();
                }
                rc.quiesce(Duration::from_millis(120), Duration::from_secs(2)).unwrap();
            } else {
                for i in 0..40u8 {
                    assert_eq!(rc.recv(0, 1).unwrap(), vec![i; 64]);
                }
                rc.quiesce(Duration::from_millis(120), Duration::from_secs(2)).unwrap();
            }
        });
    }
}
