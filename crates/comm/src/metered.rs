//! [`MeteredComm`]: per-channel, per-tag traffic metering — the measurement
//! half of the `bruck-probe` observability layer (DESIGN.md §10). It records
//! only what something reads.
//!
//! The wrapper records, per rank:
//!
//! * **channel totals** (messages and bytes, both directions) for the
//!   *logical* channel — tags below [`RESERVED_TAG_BASE`], i.e. algorithm
//!   traffic — and the *reserved* channel (built-in collectives and
//!   wrapper-internal protocols such as the `ReliableComm` ARQ frames)
//!   separately;
//! * **per-tag send counters** — the exact quantity the conformance suite
//!   compares against `bruck-model` trace predictions;
//! * the **copy class** (`copied_msgs` / `copied_bytes`, per channel and per
//!   tag): sends that entered through the compat `&[u8]` path
//!   ([`Communicator::send`]) and so packed their payload into a fresh region
//!   (one allocation + one copy), as opposed to [`Communicator::send_buf`]
//!   sends, which hand over a shared view (neither). This is the audit that
//!   lets a test *prove* an algorithm's data phase does zero per-message
//!   copies; [`MeteredComm::send`] is the one observing override that feeds
//!   it;
//! * a **sent-size histogram** (bytes) over logical sends.
//!
//! State is O(tags used), not O(P), and no operation reads a clock.
//!
//! ## Retransmit-aware accounting
//!
//! Counting is *positional*: a meter sees exactly the traffic crossing its
//! own layer of the stack. Stacked **above** [`crate::ReliableComm`] it sees
//! each logical message exactly once — the ARQ retries below it are
//! invisible, so logical counts match the fault-free prediction even on a
//! lossy transport. Stacked **below** `ReliableComm` (above the faulty
//! transport) it sees only reserved-tag ARQ frames, retransmits included,
//! and its logical channel stays empty. Composing one meter in each position
//! yields logical vs. wire accounting with no double counting; the ARQ
//! regression test in this module pins that contract down.
//!
//! Zero overhead when absent: metering costs one mutex round-trip per
//! operation *only when the wrapper is in the stack*; un-wrapped
//! communicators are untouched (the disabled path of `bruck-probe` spans is
//! handled in `bruck-core`).

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use crate::{CommResult, Communicator, MsgBuf, Tag, RESERVED_TAG_BASE};

/// Number of log₂ buckets in a [`Histogram`]. Bucket 0 holds zeros; bucket
/// `b ≥ 1` holds values in `[2^(b−1), 2^b)`; the last bucket absorbs
/// everything larger.
pub const HIST_BUCKETS: usize = 32;

/// A log₂-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[0]` counts zeros; `buckets[b]` counts values in
    /// `[2^(b−1), 2^b)`, with the final bucket open-ended.
    pub buckets: [u64; HIST_BUCKETS],
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples (saturating).
    pub sum: u64,
    /// Largest recorded sample (0 if none).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl Histogram {
    fn record(&mut self, v: u64) {
        let b = (64 - v.leading_zeros()) as usize;
        self.buckets[b.min(HIST_BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Mean of the recorded samples (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Aggregate counters for one channel (logical or reserved).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelTotals {
    /// Messages sent on this channel.
    pub sent_msgs: u64,
    /// Bytes sent on this channel.
    pub sent_bytes: u64,
    /// Messages received on this channel.
    pub recv_msgs: u64,
    /// Bytes received on this channel.
    pub recv_bytes: u64,
    /// Of `sent_msgs`, those that took the compat (packing) send path.
    pub copied_msgs: u64,
    /// Of `sent_bytes`, those packed by compat-path sends.
    pub copied_bytes: u64,
}

/// Send-side counters for one tag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagCounters {
    /// Messages sent with this tag.
    pub msgs: u64,
    /// Bytes sent with this tag.
    pub bytes: u64,
    /// Of `msgs`, those that took the compat (packing) send path.
    pub copied_msgs: u64,
    /// Of `bytes`, those packed by compat-path sends.
    pub copied_bytes: u64,
}

/// A consistent snapshot of everything a [`MeteredComm`] has recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Rank of the metered communicator.
    pub rank: usize,
    /// World size of the metered communicator.
    pub size: usize,
    /// Totals for algorithm traffic (tags below [`RESERVED_TAG_BASE`]).
    pub logical: ChannelTotals,
    /// Totals for reserved-tag traffic (collectives, wrapper protocols).
    pub reserved: ChannelTotals,
    /// Send-side counters per tag, both channels.
    pub per_tag_sent: BTreeMap<Tag, TagCounters>,
    /// Payload sizes of logical-channel sends, in bytes.
    pub sent_sizes: Histogram,
    /// Measurement identity stamped by [`MeteredComm::with_key`]; `None`
    /// for unkeyed meters.
    pub key: Option<String>,
}

impl Metrics {
    /// Send-side counters for `tag` (zeros if never used).
    pub fn sent_for_tag(&self, tag: Tag) -> TagCounters {
        self.per_tag_sent.get(&tag).copied().unwrap_or_default()
    }

    /// Internal-consistency violations (empty means the snapshot is
    /// self-consistent). The chaos harness runs this after every soak cell
    /// to prove the meter itself never drifts.
    pub fn consistency_errors(&self) -> Vec<String> {
        let mut errs = Vec::new();
        // Per-tag sums, [logical, reserved] × (msgs, bytes, copied msgs,
        // copied bytes), against the channel totals.
        let mut sums = [[0u64; 4]; 2];
        for (tag, c) in &self.per_tag_sent {
            let s = &mut sums[usize::from(*tag >= RESERVED_TAG_BASE)];
            for (acc, v) in s.iter_mut().zip([c.msgs, c.bytes, c.copied_msgs, c.copied_bytes]) {
                *acc += v;
            }
        }
        for (name, got, ch) in
            [("logical", sums[0], &self.logical), ("reserved", sums[1], &self.reserved)]
        {
            let want = [ch.sent_msgs, ch.sent_bytes, ch.copied_msgs, ch.copied_bytes];
            if got != want {
                errs.push(format!(
                    "{name} per-tag sums (msgs, bytes, copied msgs, copied bytes) {got:?} != totals {want:?}"
                ));
            }
            if ch.copied_msgs > ch.sent_msgs || ch.copied_bytes > ch.sent_bytes {
                errs.push(format!("{name} copy class exceeds what was sent: {ch:?}"));
            }
        }
        if self.sent_sizes.count != self.logical.sent_msgs {
            errs.push(format!(
                "sent-size histogram count {} != logical sent msgs {}",
                self.sent_sizes.count, self.logical.sent_msgs
            ));
        }
        if self.sent_sizes.sum != self.logical.sent_bytes {
            errs.push(format!(
                "sent-size histogram sum {} != logical sent bytes {}",
                self.sent_sizes.sum, self.logical.sent_bytes
            ));
        }
        errs
    }
}

#[derive(Debug, Default)]
struct MeterState {
    logical: ChannelTotals,
    reserved: ChannelTotals,
    per_tag_sent: BTreeMap<Tag, TagCounters>,
    sent_sizes: Histogram,
}

/// Traffic-metering wrapper around any [`Communicator`]. See the
/// module docs for what is recorded and for the positional
/// (logical vs. wire) accounting contract under `ReliableComm`.
///
/// Self-sends that cross the `Communicator` interface are counted like any
/// other message: the meter observes interface traffic, not network links.
pub struct MeteredComm<'a, C: Communicator + ?Sized> {
    inner: &'a C,
    key: Option<String>,
    state: Mutex<MeterState>,
}

impl<'a, C: Communicator + ?Sized> MeteredComm<'a, C> {
    /// Wrap `inner`, starting all counters at zero.
    pub fn new(inner: &'a C) -> Self {
        MeteredComm { inner, key: None, state: Mutex::default() }
    }

    /// Wrap `inner` and stamp every [`Metrics`] snapshot with `key` — the
    /// measurement identity (e.g. an engine config key like
    /// `bruck:r=2:layout=mono:…`) that downstream consumers such as the
    /// auto-tuner use to attribute samples without a side channel.
    pub fn with_key(inner: &'a C, key: impl Into<String>) -> Self {
        MeteredComm { inner, key: Some(key.into()), state: Mutex::default() }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MeterState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot every counter and histogram recorded so far.
    pub fn metrics(&self) -> Metrics {
        let s = self.lock();
        Metrics {
            rank: self.inner.rank(),
            size: self.inner.size(),
            logical: s.logical,
            reserved: s.reserved,
            per_tag_sent: s.per_tag_sent.clone(),
            sent_sizes: s.sent_sizes.clone(),
            key: self.key.clone(),
        }
    }

    /// Zero every counter and histogram.
    pub fn reset(&self) {
        *self.lock() = MeterState::default();
    }

    /// Payload bytes that took the compat (packing) send path, both
    /// channels — the copy audit's headline number.
    pub fn bytes_copied(&self) -> u64 {
        let s = self.lock();
        s.logical.copied_bytes + s.reserved.copied_bytes
    }

    fn note_send(&self, tag: Tag, len: usize, copied: bool) {
        let len = len as u64;
        let (copied_msgs, copied_bytes) = if copied { (1, len) } else { (0, 0) };
        let logical = tag < RESERVED_TAG_BASE;
        let mut guard = self.lock();
        let s = &mut *guard;
        let entry = s.per_tag_sent.entry(tag).or_default();
        entry.msgs += 1;
        entry.bytes += len;
        entry.copied_msgs += copied_msgs;
        entry.copied_bytes += copied_bytes;
        let channel = if logical { &mut s.logical } else { &mut s.reserved };
        channel.sent_msgs += 1;
        channel.sent_bytes += len;
        channel.copied_msgs += copied_msgs;
        channel.copied_bytes += copied_bytes;
        if logical {
            s.sent_sizes.record(len);
        }
    }

    fn note_recv(&self, tag: Tag, len: usize) {
        let mut s = self.lock();
        let channel = if tag < RESERVED_TAG_BASE { &mut s.logical } else { &mut s.reserved };
        channel.recv_msgs += 1;
        channel.recv_bytes += len as u64;
    }
}

impl<C: Communicator + ?Sized> Communicator for MeteredComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send_buf(&self, dest: usize, tag: Tag, buf: MsgBuf) -> CommResult<()> {
        let len = buf.len();
        self.inner.send_buf(dest, tag, buf)?;
        self.note_send(tag, len, false);
        Ok(())
    }

    /// The workspace's one override of a provided method, and an observing
    /// one: the same pack-and-`send_buf` as the trait's body, recorded in the
    /// copy class.
    fn send(&self, dest: usize, tag: Tag, data: &[u8]) -> CommResult<()> {
        self.inner.send_buf(dest, tag, MsgBuf::copy_from_slice(data))?;
        self.note_send(tag, data.len(), true);
        Ok(())
    }

    fn recv_match(
        &self,
        src: usize,
        tag: Tag,
        max_len: usize,
        timeout: Duration,
    ) -> CommResult<MsgBuf> {
        // Only successful receives are recorded.
        let msg = self.inner.recv_match(src, tag, max_len, timeout)?;
        self.note_recv(tag, msg.len());
        Ok(msg)
    }

    fn probe(&self, src: usize, tag: Tag) -> CommResult<Option<usize>> {
        self.inner.probe(src, tag)
    }

    fn now(&self) -> Duration {
        self.inner.now()
    }

    #[expect(clippy::disallowed_methods, reason = "a wrapper forward; it waits for nothing")]
    fn sleep(&self, d: Duration) {
        self.inner.sleep(d)
    }

    fn wait_arrival(&self, seen: u64, timeout: Duration) -> CommResult<u64> {
        self.inner.wait_arrival(seen, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultComm, FaultPlan, ReliableComm, ReliableConfig, ThreadComm};

    #[test]
    fn counts_messages_bytes_and_tags_exactly() {
        let metrics = ThreadComm::run(2, |comm| {
            let mc = MeteredComm::new(comm);
            let me = mc.rank();
            let peer = 1 - me;
            mc.send(peer, 7, &[1, 2, 3]).unwrap();
            mc.send(peer, 9, &[4, 5, 6, 7, 8]).unwrap();
            assert_eq!(mc.recv(peer, 7).unwrap().len(), 3);
            assert_eq!(mc.recv(peer, 9).unwrap().len(), 5);
            mc.metrics()
        });
        for m in &metrics {
            assert_eq!(m.logical.sent_msgs, 2);
            assert_eq!(m.logical.sent_bytes, 8);
            assert_eq!(m.logical.recv_msgs, 2);
            assert_eq!(m.logical.recv_bytes, 8);
            // Both sends took the compat path, so both land in the copy class.
            assert_eq!(
                m.sent_for_tag(7),
                TagCounters { msgs: 1, bytes: 3, copied_msgs: 1, copied_bytes: 3 }
            );
            assert_eq!(
                m.sent_for_tag(9),
                TagCounters { msgs: 1, bytes: 5, copied_msgs: 1, copied_bytes: 5 }
            );
            assert_eq!(m.reserved.sent_msgs, 0);
            assert!(m.consistency_errors().is_empty(), "{:?}", m.consistency_errors());
        }
    }

    #[test]
    fn collectives_land_on_the_reserved_channel_only() {
        let metrics = ThreadComm::run(4, |comm| {
            let mc = MeteredComm::new(comm);
            mc.barrier().unwrap();
            let sum = mc.allreduce_u64(1, crate::ReduceOp::Sum).unwrap();
            assert_eq!(sum, 4);
            mc.metrics()
        });
        for m in &metrics {
            assert_eq!(m.logical.sent_msgs, 0, "no algorithm traffic expected");
            assert!(m.reserved.sent_msgs > 0);
            assert_eq!(m.reserved.sent_msgs, m.reserved.recv_msgs);
            assert!(m.consistency_errors().is_empty(), "{:?}", m.consistency_errors());
        }
    }

    #[test]
    fn copy_class_distinguishes_the_two_send_paths() {
        ThreadComm::run(1, |comm| {
            let mc = MeteredComm::new(comm);
            mc.send(0, 0, &[1, 2, 3]).unwrap(); // compat: one pack copy
            let region = MsgBuf::from_vec(vec![0u8; 100]);
            mc.send_buf(0, 1, region.slice(..40)).unwrap(); // zero-copy
            mc.send_buf(0, 1, region.slice(40..)).unwrap(); // zero-copy
            mc.recv(0, 0).unwrap();
            mc.recv_buf(0, 1).unwrap();
            mc.recv_buf(0, 1).unwrap();
            let m = mc.metrics();
            assert_eq!((m.logical.sent_msgs, m.logical.sent_bytes), (3, 103));
            assert_eq!((m.logical.copied_msgs, m.logical.copied_bytes), (1, 3));
            assert_eq!(m.sent_for_tag(1).copied_msgs, 0);
            assert_eq!(mc.bytes_copied(), 3);
            assert!(m.consistency_errors().is_empty(), "{:?}", m.consistency_errors());
        });
    }

    #[test]
    fn barrier_at_p4_is_two_empty_uncopied_messages_per_rank() {
        let metrics = ThreadComm::run(4, |comm| {
            let mc = MeteredComm::new(comm);
            mc.barrier().unwrap();
            mc.metrics()
        });
        // Dissemination barrier at P=4: log2(4) = 2 rounds, 1 empty message each.
        for m in metrics {
            assert_eq!((m.reserved.sent_msgs, m.reserved.sent_bytes), (2, 0));
            assert_eq!(m.reserved.copied_msgs, 0);
            assert_eq!(m.logical, ChannelTotals::default());
        }
    }

    #[test]
    fn reset_zeroes_everything() {
        ThreadComm::run(2, |comm| {
            let mc = MeteredComm::new(comm);
            let peer = 1 - mc.rank();
            mc.send(peer, 3, &[0; 16]).unwrap();
            mc.recv(peer, 3).unwrap();
            assert_eq!(mc.bytes_copied(), 16);
            mc.reset();
            assert_eq!(mc.bytes_copied(), 0);
            let m = mc.metrics();
            assert_eq!(m.logical, ChannelTotals::default());
            assert_eq!(m.sent_sizes.count, 0);
            assert!(m.per_tag_sent.is_empty());
        });
    }

    /// The ARQ regression test: a meter above `ReliableComm` counts each
    /// logical message exactly once even when the transport drops frames and
    /// the ARQ retransmits; a meter below it sees only reserved-tag wire
    /// frames (retransmits included) and zero logical traffic.
    #[test]
    fn arq_retransmits_never_double_count_logical_traffic() {
        let p = 3;
        let rounds = 6usize;
        let payload = 32usize;
        let results = ThreadComm::run(p, move |comm| {
            let fc = FaultComm::new(comm, FaultPlan::new(0xA41).with_drop(0.25));
            let wire = MeteredComm::new(&fc);
            let rc = ReliableComm::with_config(
                &wire,
                ReliableConfig {
                    ack_timeout: Duration::from_millis(10),
                    max_retries: 10,
                    backoff_cap: Duration::from_millis(80),
                },
            );
            let app = MeteredComm::new(&rc);
            let me = app.rank();
            let dest = (me + 1) % p;
            let src = (me + p - 1) % p;
            for r in 0..rounds {
                app.send(dest, r as Tag, &vec![r as u8; payload]).unwrap();
                let got = app.recv(src, r as Tag).unwrap();
                assert_eq!(got.len(), payload);
            }
            rc.quiesce(Duration::from_millis(100), Duration::from_secs(2)).unwrap();
            (app.metrics(), wire.metrics())
        });
        for (app, wire) in &results {
            // Above the ARQ: exact fault-free logical accounting.
            assert_eq!(app.logical.sent_msgs, rounds as u64);
            assert_eq!(app.logical.sent_bytes, (rounds * payload) as u64);
            assert_eq!(app.logical.recv_msgs, rounds as u64);
            assert_eq!(app.logical.recv_bytes, (rounds * payload) as u64);
            assert_eq!(app.reserved.sent_msgs, 0, "no collectives were used");
            // Below the ARQ: only reserved-tag frames, logical channel empty.
            assert_eq!(wire.logical.sent_msgs, 0, "ARQ must not leak logical tags");
            assert!(
                wire.reserved.sent_msgs >= app.logical.sent_msgs,
                "each logical message needs at least one wire frame"
            );
            assert!(app.consistency_errors().is_empty(), "{:?}", app.consistency_errors());
            assert!(wire.consistency_errors().is_empty(), "{:?}", wire.consistency_errors());
        }
        // The lossy plan actually exercised retransmission somewhere.
        let total_wire: u64 = results.iter().map(|(_, w)| w.reserved.sent_msgs).sum();
        let total_app: u64 = results.iter().map(|(a, _)| a.logical.sent_msgs).sum();
        // Acks are cumulative, so fault-free wire traffic is 6 frames + 1
        // trailing ack per stream (7/6 of logical); a quarter of the frames
        // dropped costs go-back-N bursts that push it past 2×.
        assert!(total_wire > 2 * total_app, "drop plan should force retransmits");
    }

    #[test]
    fn key_is_stamped_on_snapshots_and_survives_reset() {
        ThreadComm::run(2, |comm| {
            let plain = MeteredComm::new(comm);
            assert_eq!(plain.metrics().key, None);
            let keyed = MeteredComm::with_key(comm, "p=2 config=oracle");
            assert_eq!(keyed.metrics().key.as_deref(), Some("p=2 config=oracle"));
            // reset() zeros counters but keeps the measurement identity.
            keyed.reset();
            assert_eq!(keyed.metrics().key.as_deref(), Some("p=2 config=oracle"));
        });
    }

    #[test]
    fn histogram_buckets_cover_the_samples() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 1, 7, 1 << 20, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[1], 2); // the ones
        assert_eq!(h.buckets[3], 1); // 7 ∈ [4, 8)
        assert_eq!(h.buckets[21], 1); // 2^20 ∈ [2^20, 2^21)
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1); // clamped
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    }
}
