//! [`ReliableComm`]: clean MPI semantics on top of a lossy transport.
//!
//! The algorithms in this workspace assume what MPI guarantees: every send is
//! delivered exactly once, uncorrupted, in order. [`crate::FaultComm`] breaks
//! all three on purpose. This wrapper repairs them with the classic
//! stop-and-wait ARQ recipe:
//!
//! * **Sequence numbers** per `(peer, tag)` channel — duplicates are detected
//!   and re-acknowledged, never delivered twice.
//! * **Checksums** over every frame — a corrupted frame (or ack) is silently
//!   discarded, indistinguishable from a drop, and repaired by retransmission.
//! * **Ack / retry** with bounded exponential backoff — a send retransmits
//!   until acknowledged; when the retry budget is exhausted the peer is
//!   declared dead ([`crate::CommError::RankFailed`]).
//!
//! ## Progress model
//!
//! All reliable traffic travels on two reserved wire tags (data + acks); the
//! application tag rides inside the frame header. Every blocking point in the
//! wrapper — a send awaiting its ack, a receive awaiting data — *services
//! incoming traffic*: it pops arrived data frames for any channel, verifies,
//! acknowledges, and stashes them. This is what keeps the eager-protocol
//! deadlock-freedom the algorithms rely on: two ranks that send to each other
//! simultaneously each ack the other's frame from inside their own send.
//!
//! Between service passes a blocked rank *parks on arrival*
//! ([`Communicator::wait_arrival`] on the inner communicator): it reads the
//! arrival count, sweeps, and if the sweep handled nothing waits for the
//! count to move or for its own next deadline — the retransmission timer,
//! the caller's timeout, a quiesce window. There is no poll quantum: a
//! frame wakes the rank it was deposited for, and an untimed receive whose
//! frame never comes is a wait the simulator can prove stuck.
//!
//! Because acknowledging requires a live peer, a rank must not stop servicing
//! while peers may still retransmit: call [`ReliableComm::quiesce`] after the
//! last application exchange (the `bruck-chaos` harness does) so a dropped
//! *ack* near the end cannot strand a peer in its retry loop.
//!
//! ## Costs
//!
//! Framing costs one payload copy per send (the zero-copy path resumes on the
//! receive side: stashed payloads are views of the arrived frame). Latency is
//! one round trip per message — this wrapper is for surviving hostile
//! networks, not for peak throughput.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use crate::communicator::await_arrival;
use crate::splitmix;
use crate::retry::RetryPolicy;
use crate::{CommError, CommResult, Communicator, MsgBuf, Tag, RESERVED_TAG_BASE};

/// Wire tag carrying framed application payloads.
const RELIABLE_DATA_TAG: Tag = RESERVED_TAG_BASE + 0x2000;
/// Wire tag carrying acknowledgements.
const RELIABLE_ACK_TAG: Tag = RESERVED_TAG_BASE + 0x2001;

/// Data frame header: seq (8) | logical tag (4) | checksum (8).
const DATA_HDR: usize = 20;
/// Ack frame: seq (8) | logical tag (4) | checksum (8).
const ACK_LEN: usize = 20;

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

impl ReliableConfig {
    /// The ack-deadline schedule as a [`RetryPolicy`]: jitter-free bounded
    /// exponential backoff starting at `ack_timeout`, capped at
    /// `backoff_cap`, for `max_retries + 1` attempts. This is the single
    /// source of truth for the ARQ's retransmission timing.
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy::exponential(self.ack_timeout, self.backoff_cap, self.max_retries)
    }
}

/// Frame checksum: splitmix-folded over the header fields, payload length,
/// and payload chunks. Not cryptographic — it detects the single-byte flips
/// a faulty link (or [`crate::FaultComm`]) produces.
fn checksum(seq: u64, ltag: Tag, payload: &[u8]) -> u64 {
    let mut h = splitmix(seq ^ (u64::from(ltag) << 32) ^ 0x5EED_C0DE_F417_CAFE);
    h = splitmix(h ^ payload.len() as u64);
    for chunk in payload.chunks(8) {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        h = splitmix(h ^ u64::from_le_bytes(b));
    }
    h
}

fn build_data_frame(seq: u64, ltag: Tag, payload: &MsgBuf) -> MsgBuf {
    let mut v = Vec::with_capacity(DATA_HDR + payload.len());
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(&ltag.to_le_bytes());
    v.extend_from_slice(&checksum(seq, ltag, payload).to_le_bytes());
    v.extend_from_slice(payload);
    MsgBuf::from_vec(v)
}

/// Parse + verify a data frame; `None` means corrupt or malformed (treated
/// exactly like a dropped frame — the sender will retransmit).
fn parse_data_frame(frame: &MsgBuf) -> Option<(u64, Tag, MsgBuf)> {
    if frame.len() < DATA_HDR {
        return None;
    }
    let seq = u64::from_le_bytes(frame[0..8].try_into().ok()?);
    let ltag = Tag::from_le_bytes(frame[8..12].try_into().ok()?);
    let ck = u64::from_le_bytes(frame[12..20].try_into().ok()?);
    let payload = frame.slice(DATA_HDR..);
    if checksum(seq, ltag, payload.as_slice()) != ck {
        return None;
    }
    Some((seq, ltag, payload))
}

fn build_ack_frame(seq: u64, ltag: Tag) -> MsgBuf {
    let mut v = Vec::with_capacity(ACK_LEN);
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(&ltag.to_le_bytes());
    v.extend_from_slice(&checksum(seq, ltag, &[]).to_le_bytes());
    MsgBuf::from_vec(v)
}

fn parse_ack_frame(frame: &MsgBuf) -> Option<(u64, Tag)> {
    if frame.len() != ACK_LEN {
        return None;
    }
    let seq = u64::from_le_bytes(frame[0..8].try_into().ok()?);
    let ltag = Tag::from_le_bytes(frame[8..12].try_into().ok()?);
    let ck = u64::from_le_bytes(frame[12..20].try_into().ok()?);
    if checksum(seq, ltag, &[]) != ck {
        return None;
    }
    Some((seq, ltag))
}

#[derive(Default)]
struct ReliableState {
    /// Next sequence number to assign, per outgoing `(dest, tag)` channel.
    next_seq: BTreeMap<(usize, Tag), u64>,
    /// Next sequence number expected, per incoming `(src, tag)` channel.
    expected: BTreeMap<(usize, Tag), u64>,
    /// Verified, deduplicated, in-order payloads awaiting the application's
    /// receive, per `(src, tag)`.
    stash: BTreeMap<(usize, Tag), VecDeque<MsgBuf>>,
}

/// A reliability wrapper around any [`Communicator`]. One wrapper per rank
/// (like [`crate::FaultComm`]); it owns the channel
/// state for its rank, so keep one instance alive across all exchanges on a
/// given communicator.
pub struct ReliableComm<'a, C: Communicator + ?Sized> {
    inner: &'a C,
    cfg: ReliableConfig,
    state: Mutex<ReliableState>,
}

impl<'a, C: Communicator + ?Sized> ReliableComm<'a, C> {
    /// Wrap `inner` with the default retransmission policy.
    pub fn new(inner: &'a C) -> Self {
        Self::with_config(inner, ReliableConfig::default())
    }

    /// Wrap `inner` with an explicit retransmission policy.
    pub fn with_config(inner: &'a C, cfg: ReliableConfig) -> Self {
        ReliableComm { inner, cfg, state: Mutex::new(ReliableState::default()) }
    }

    /// The active retransmission policy.
    pub fn config(&self) -> ReliableConfig {
        self.cfg
    }

    /// Verified-but-unreceived payloads currently stashed (diagnostics).
    pub fn stashed(&self) -> usize {
        self.lock().stash.values().map(VecDeque::len).sum()
    }

    fn lock(&self) -> MutexGuard<'_, ReliableState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Drain every arrived wire frame: verify, deduplicate, acknowledge, and
    /// stash. Returns how many frames were handled (0 = network was quiet).
    fn service_incoming(&self) -> CommResult<usize> {
        let me = self.inner.rank();
        let p = self.inner.size();
        let mut handled = 0usize;
        for src in 0..p {
            if src == me {
                continue;
            }
            while self.inner.probe(src, RELIABLE_DATA_TAG)?.is_some() {
                let frame = self.inner.recv_buf(src, RELIABLE_DATA_TAG)?;
                handled += 1;
                // Corrupt / malformed frames are dropped without an ack: the
                // sender retransmits, exactly as for a genuine drop.
                let Some((seq, ltag, payload)) = parse_data_frame(&frame) else {
                    continue;
                };
                let ack = {
                    let mut s = self.lock();
                    let exp = s.expected.entry((src, ltag)).or_insert(0);
                    if seq == *exp {
                        *exp += 1;
                        s.stash.entry((src, ltag)).or_default().push_back(payload);
                        true
                    } else {
                        // seq < expected: a retransmission of something we
                        // already delivered — its ack was lost; re-ack and
                        // discard. seq > expected cannot happen under
                        // stop-and-wait + FIFO wire; drop defensively.
                        seq < *exp
                    }
                };
                if ack {
                    self.inner.send_buf(src, RELIABLE_ACK_TAG, build_ack_frame(seq, ltag))?;
                }
            }
        }
        Ok(handled)
    }

    /// Pop any pending acks from `dest`, looking for `(tag, seq)`. Stale acks
    /// (re-acks of frames already completed) are discarded.
    fn take_ack(&self, dest: usize, tag: Tag, seq: u64) -> CommResult<bool> {
        while self.inner.probe(dest, RELIABLE_ACK_TAG)?.is_some() {
            let frame = self.inner.recv_buf(dest, RELIABLE_ACK_TAG)?;
            if let Some((aseq, altag)) = parse_ack_frame(&frame) {
                if altag == tag && aseq == seq {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// Pop the oldest stashed payload for `(src, tag)`. A payload longer
    /// than `max_len` bytes is refused *without* leaving the stash
    /// (non-destructive truncation, like the mailbox).
    fn pop_stash(&self, src: usize, tag: Tag, max_len: usize) -> CommResult<Option<MsgBuf>> {
        let mut s = self.lock();
        let Some(q) = s.stash.get_mut(&(src, tag)) else { return Ok(None) };
        if let Some(message_len) = q.front().map(MsgBuf::len).filter(|&len| len > max_len) {
            return Err(CommError::Truncated { message_len, buffer_len: max_len });
        }
        let msg = q.pop_front();
        if q.is_empty() {
            s.stash.remove(&(src, tag));
        }
        Ok(msg)
    }

    fn send_reliable(&self, dest: usize, tag: Tag, payload: MsgBuf) -> CommResult<()> {
        let me = self.inner.rank();
        if dest == me {
            // Self-sends are process-local: straight into the stash, no wire.
            self.lock().stash.entry((me, tag)).or_default().push_back(payload);
            return Ok(());
        }
        self.inner.check_rank(dest)?;
        let seq = {
            let mut s = self.lock();
            let c = s.next_seq.entry((dest, tag)).or_insert(0);
            let seq = *c;
            *c += 1;
            seq
        };
        let frame = build_data_frame(seq, tag, &payload);
        let policy = self.cfg.retry_policy();
        let mut seen = self.inner.wait_arrival(0, Duration::ZERO)?;
        for attempt in 0..policy.attempts() {
            self.inner.send_buf(dest, RELIABLE_DATA_TAG, frame.clone())?;
            let deadline = self.inner.now() + policy.delay(attempt);
            loop {
                let handled = self.service_incoming()?;
                if self.take_ack(dest, tag, seq)? {
                    return Ok(());
                }
                let now = self.inner.now();
                if now >= deadline {
                    break;
                }
                seen = await_arrival(self.inner, seen, handled == 0, deadline - now)?;
            }
        }
        Err(CommError::RankFailed { rank: dest })
    }

    /// Keep servicing retransmissions until the network has been quiet for
    /// `quiet` (no frame arrived), or `max_total` has elapsed. Call after the
    /// last application-level exchange: a peer whose *ack* was lost is still
    /// retransmitting, and leaving without re-acking would convert a lost ack
    /// into a spurious [`crate::CommError::RankFailed`] on the peer. `quiet`
    /// should exceed the peers' [`ReliableConfig::backoff_cap`].
    pub fn quiesce(&self, quiet: Duration, max_total: Duration) -> CommResult<()> {
        let start = self.inner.now();
        let mut last_activity = start;
        let mut seen = self.inner.wait_arrival(0, Duration::ZERO)?;
        loop {
            let handled = self.service_incoming()?;
            let now = self.inner.now();
            if handled > 0 {
                last_activity = now;
            }
            let left = quiet
                .saturating_sub(now.saturating_sub(last_activity))
                .min(max_total.saturating_sub(now.saturating_sub(start)));
            if left.is_zero() {
                return Ok(());
            }
            seen = await_arrival(self.inner, seen, handled == 0, left)?;
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
        self.send_reliable(dest, tag, buf)
    }

    /// The one receive loop: service, pop the stash, park on arrival.
    fn recv_match(
        &self,
        src: usize,
        tag: Tag,
        max_len: usize,
        timeout: Duration,
    ) -> CommResult<MsgBuf> {
        self.inner.check_rank(src)?;
        // Already serviced into the stash (the common case after a send):
        // no clock read, no arrival count.
        if let Some(msg) = self.pop_stash(src, tag, max_len)? {
            return Ok(msg);
        }
        let me = self.inner.rank();
        let start = self.inner.now();
        let mut seen = self.inner.wait_arrival(0, Duration::ZERO)?;
        loop {
            // Only a service pass can add to the stash.
            let handled = if src == me { 0 } else { self.service_incoming()? };
            if handled > 0 {
                if let Some(msg) = self.pop_stash(src, tag, max_len)? {
                    return Ok(msg);
                }
            }
            let budget = if handled == 0 && timeout != Duration::MAX {
                let waited = self.inner.now().saturating_sub(start);
                if waited >= timeout {
                    return Err(CommError::Timeout { src, tag, waited });
                }
                timeout - waited
            } else {
                Duration::MAX
            };
            // A stuck world is reported against the receive the caller made.
            seen = await_arrival(self.inner, seen, handled == 0, budget).map_err(|e| match e {
                CommError::Deadlock { .. } => CommError::Deadlock { src, tag },
                other => other,
            })?;
        }
    }

    fn probe(&self, src: usize, tag: Tag) -> CommResult<Option<usize>> {
        self.inner.check_rank(src)?;
        if src != self.inner.rank() {
            self.service_incoming()?;
        }
        Ok(self.lock().stash.get(&(src, tag)).and_then(VecDeque::front).map(MsgBuf::len))
    }

    fn now(&self) -> Duration {
        self.inner.now()
    }

    fn sleep(&self, d: Duration) {
        self.inner.sleep(d)
    }

    fn wait_arrival(&self, seen: u64, timeout: Duration) -> CommResult<u64> {
        // The wire's count: acks and frames for other channels move it too,
        // so a caller may wake early; its re-sweep through `probe` services
        // whatever arrived.
        self.inner.wait_arrival(seen, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeFaults, FaultComm, FaultPlan, ReduceOp, ThreadComm};
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
            let all = rc.allgather_u64(rc.rank() as u64 * 5).unwrap();
            assert_eq!(all, vec![0, 5, 10, 15, 20]);
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
                let err = rc.send(1, 1, &[42]).unwrap_err();
                assert_eq!(err, CommError::RankFailed { rank: 1 });
                // 5 + 10 + 20 + 20 ms of timeouts plus slack.
                assert!(start.elapsed() < Duration::from_secs(2), "retry must be bounded");
            }
            // Rank 1 simply exits; it never sees a verified frame.
        });
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
