//! The matching core behind point-to-point transfers: [`MatchStore`] (the
//! backend-agnostic `(source, tag)` matching engine) and [`Mailbox`] (its
//! blocking, condvar-based wrapper used by the threaded backend).
//!
//! A send deposits the payload into the destination's store under the
//! `(source, tag)` key (the *eager protocol*: the sender never blocks). A
//! receive pops the oldest message matching its `(source, tag)` pair.
//!
//! Matching preserves MPI's **non-overtaking** rule: two messages from the
//! same source with the same tag are received in the order they were sent,
//! because the store is one ordered map keyed by `(source, tag, deposit
//! number)` — the deposit count the store keeps anyway — and a receive takes
//! the first entry of its `(source, tag, ..)` range. A message is one map
//! entry: no per-key queue to allocate, drain or trim.
//!
//! Messages are stored as [`MsgBuf`] views, so a queued message shares its
//! backing region with the sender's pack buffer — the deposit is a
//! reference-count bump, not a copy.
//!
//! ## Condvar → readiness migration
//!
//! Historically the blocking logic (one `Condvar` per rank) lived directly in
//! `Mailbox` and was the *only* wait primitive, which welded the matching
//! engine to the one-OS-thread-per-rank backend. The matching core is now the
//! non-blocking [`MatchStore`]; how a receiver *waits* is a backend decision
//! layered on top:
//!
//! * [`Mailbox`] (this module) wraps a store in a `Mutex` + `Condvar` for
//!   [`crate::ThreadComm`], where a rank owns an OS thread it can park.
//! * [`crate::SimComm`] keeps per-rank stores inside its scheduler state and
//!   blocks by handing the run token to another rank.
//! * [`crate::EventComm`] pairs each store with a *waiter* registration (an
//!   explicit readiness/wakeup list); a receive that cannot complete parks
//!   the lightweight task, and the depositing sender wakes it through the
//!   scheduler — no per-rank thread, no per-rank condvar.
//!
//! All three backends therefore share one matching semantics (FIFO per
//! `(source, tag)`, non-destructive bounded receive) by construction —
//! and one *arrival count*: [`MatchStore::push`] numbers the deposits into
//! its store, which is all [`crate::Communicator::wait_arrival`] needs from
//! the matching core. Each backend parks an arrival wait where it already
//! parks a receive: the condvar here, a blocked state in the simulator, an
//! any-source waiter in the event runtime.

#![expect(clippy::disallowed_types, reason = "the blocking wrapper is a sanctioned condvar site")]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::{CommError, CommResult, MsgBuf, Tag};

/// Undelivered messages keyed by `(source, tag, deposit number)`: ascending
/// order within one `(source, tag)` is deposit order.
type Messages = BTreeMap<(usize, Tag, u64), MsgBuf>;

/// Shared message-accounting counters for one world, updated on every deposit
/// and pop so world-level leak assertions are O(1) loads instead of O(P)
/// lock-sweeps over every rank's store (which matters at P = 32k, where the
/// sweep itself used to dominate small test runs).
#[derive(Debug, Default)]
pub(crate) struct StoreStats {
    /// Messages currently deposited but not yet received, across all ranks.
    pending: AtomicUsize,
    /// Total deposits ever made (throughput accounting for `bruck-bench`).
    deposited: AtomicUsize,
}

impl StoreStats {
    pub(crate) fn new() -> Arc<StoreStats> {
        Arc::new(StoreStats::default())
    }

    /// Undelivered messages across every store sharing these stats.
    pub(crate) fn pending(&self) -> usize {
        self.pending.load(Ordering::SeqCst)
    }

    /// Total messages ever deposited across every store sharing these stats.
    pub(crate) fn deposited(&self) -> usize {
        self.deposited.load(Ordering::SeqCst)
    }

    /// Match keys left behind by a drained queue: 0 by construction, since a
    /// key is one message and leaves with it. Kept because leak checks
    /// outside this crate add it to [`StoreStats::pending`].
    pub(crate) fn dead_keys(&self) -> usize {
        0
    }
}

/// The non-blocking matching engine: one ordered map of [`MsgBuf`] views
/// keyed by `(source, tag, deposit number)`. A receive takes the first entry
/// of its `(source, tag, ..)` range, so matching is FIFO per `(source, tag)`
/// and a popped message leaves no key behind.
///
/// `MatchStore` never waits — waiting is the caller's concern (condvar,
/// scheduler token, or task parking; see the module docs). Locking is also
/// the caller's concern: each backend shards one store per rank behind its
/// own lock, so contention is between exactly one receiver (the owning rank)
/// and its current senders, and critical sections only move a [`MsgBuf`]
/// (three words).
pub(crate) struct MatchStore {
    messages: Messages,
    stats: Arc<StoreStats>,
    /// Deposits ever made into *this* store: the arrival count behind
    /// [`crate::Communicator::wait_arrival`], and each message's deposit
    /// number. Only ever grows, so "the count moved since I read it" is
    /// exactly "something was deposited since".
    deposits: u64,
}

impl MatchStore {
    pub(crate) fn new(stats: Arc<StoreStats>) -> MatchStore {
        MatchStore { messages: Messages::new(), stats, deposits: 0 }
    }

    /// Deposit a message from `src` with `tag`. Never blocks, never copies.
    pub(crate) fn push(&mut self, src: usize, tag: Tag, data: MsgBuf) {
        self.messages.insert((src, tag, self.deposits), data);
        self.deposits += 1;
        self.stats.pending.fetch_add(1, Ordering::SeqCst);
        self.stats.deposited.fetch_add(1, Ordering::SeqCst);
    }

    /// Pop the oldest message matching `(src, tag)`, if any.
    ///
    /// A match longer than `max_len` bytes is refused *without consuming it*:
    /// `Some(Err(message_len))`. The check happens before the message leaves
    /// the store, which is what makes `recv_into` truncation non-destructive
    /// — a caller that retries with a bigger buffer still observes it.
    pub(crate) fn try_pop(
        &mut self,
        src: usize,
        tag: Tag,
        max_len: usize,
    ) -> Option<Result<MsgBuf, usize>> {
        // One walk of the range finds the oldest entry and unlinks it in
        // place (a lookup followed by `remove` descends the tree twice). Once
        // the oldest is refused, no later entry may be taken in its stead.
        let mut refused = None;
        let popped = self
            .messages
            .extract_if((src, tag, 0)..=(src, tag, u64::MAX), |_, msg| {
                if refused.is_none() && msg.len() > max_len {
                    refused = Some(msg.len());
                }
                refused.is_none()
            })
            .next();
        let Some((_, msg)) = popped else {
            return refused.map(Err);
        };
        self.stats.pending.fetch_sub(1, Ordering::SeqCst);
        Some(Ok(msg))
    }

    /// Byte length of the next matching message, without consuming it: the
    /// first entry of the `(src, tag, ..)` range.
    pub(crate) fn peek_len(&self, src: usize, tag: Tag) -> Option<usize> {
        let (_, msg) = self.messages.range((src, tag, 0)..=(src, tag, u64::MAX)).next()?;
        Some(msg.len())
    }

    /// Deposits ever made into this store (see the field docs).
    pub(crate) fn deposits(&self) -> u64 {
        self.deposits
    }

    /// Undelivered messages in *this* store (a structural count; the cheap
    /// world-level aggregate lives in [`StoreStats::pending`]).
    #[cfg(test)]
    pub(crate) fn scan_pending(&self) -> usize {
        self.messages.len()
    }
}

/// A [`MatchStore`] plus who is parked on it. Both live under the one
/// mutex, so a depositor reads the parked set in the same critical section
/// as its push: a wait registered before the push is seen by it, and a wait
/// that locks after the push sees the message instead.
struct Watched {
    store: MatchStore,
    /// The `(src, tag)` of every keyed receive parked on the condvar.
    keyed: Vec<(usize, Tag)>,
    /// Arrival waits parked on the condvar (any deposit wakes them).
    arrival_waits: usize,
}

/// A single rank's incoming-message store for the threaded backend: a
/// [`MatchStore`] behind a mutex, plus the condition variable its owning
/// OS thread parks on.
pub(crate) struct Mailbox {
    inbox: Mutex<Watched>,
    arrived: Condvar,
}

impl Mailbox {
    /// A standalone mailbox with private stats (unit tests).
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Mailbox::with_stats(StoreStats::new())
    }

    /// A mailbox participating in a world's shared accounting.
    pub(crate) fn with_stats(stats: Arc<StoreStats>) -> Self {
        let inbox = Watched { store: MatchStore::new(stats), keyed: Vec::new(), arrival_waits: 0 };
        Mailbox { inbox: Mutex::new(inbox), arrived: Condvar::new() }
    }

    /// A mailbox outlives any single rank's panic; recover the store rather
    /// than cascading poison panics across every other rank's shutdown path.
    fn lock(&self) -> MutexGuard<'_, Watched> {
        self.inbox.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Deposit a message from `src` with `tag`. Never blocks, never copies.
    pub(crate) fn push(&self, src: usize, tag: Tag, data: MsgBuf) {
        let mut inbox = self.lock();
        inbox.store.push(src, tag, data);
        // Only a parked wait this deposit can complete is worth a wake: a
        // notify is a futex syscall even with nobody waiting, and a receive
        // parked on another key would wake only to park again.
        let wake = inbox.arrival_waits > 0 || inbox.keyed.contains(&(src, tag));
        // Unlock before notifying: a receiver woken while the depositor
        // still holds the store would block on that mutex as its first act
        // (two extra context switches per hand-off on a busy CPU).
        drop(inbox);
        if wake {
            // notify_all: keyed receives and arrival waits share this
            // condvar, and several can be parked on it at once (user code
            // running helper threads); the unmatched ones re-park.
            self.arrived.notify_all();
        }
    }

    /// Pop the oldest message matching `(src, tag)`, blocking until present
    /// or until `timeout` elapses ([`CommError::Timeout`]). A match longer
    /// than `max_len` bytes is refused *without consuming it*
    /// ([`CommError::Truncated`]): the check happens under the lock, before
    /// the message leaves its queue. `Duration::MAX` — or a timeout too large
    /// to add to the clock — waits unbounded, and then no clock is read.
    pub(crate) fn pop(
        &self,
        src: usize,
        tag: Tag,
        max_len: usize,
        timeout: Duration,
    ) -> CommResult<MsgBuf> {
        let timed = (timeout != Duration::MAX)
            .then(Instant::now)
            .and_then(|start| Some((start, start.checked_add(timeout)?)));
        let mut inbox = self.lock();
        let mut parked = false;
        let outcome = loop {
            if let Some(outcome) = inbox.store.try_pop(src, tag, max_len) {
                break outcome
                    .map_err(|message_len| CommError::Truncated { message_len, buffer_len: max_len });
            }
            if !parked {
                inbox.keyed.push((src, tag));
                parked = true;
            }
            inbox = match timed {
                Some((start, deadline)) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break Err(CommError::Timeout { src, tag, waited: start.elapsed() });
                    }
                    self.arrived.wait_timeout(inbox, left).unwrap_or_else(|p| p.into_inner()).0
                }
                None => self.arrived.wait(inbox).unwrap_or_else(|p| p.into_inner()),
            };
        };
        if parked {
            // One entry per parked receive: two may share a key.
            if let Some(at) = inbox.keyed.iter().position(|k| *k == (src, tag)) {
                inbox.keyed.swap_remove(at);
            }
        }
        outcome
    }

    /// Park until the deposit count differs from `seen` or `timeout`
    /// elapses; returns the count either way. The comparison happens under
    /// the store lock the depositor increments under, so a deposit landing
    /// between the caller's read of `seen` and this call is never slept
    /// through. A `timeout` too large to add to the clock waits unbounded.
    /// Like [`Mailbox::pop`], no clock is read unless it is about to wait:
    /// a moved count and a zero timeout (the pure read every service loop
    /// starts with) return at once.
    pub(crate) fn wait_arrival(&self, seen: u64, timeout: Duration) -> u64 {
        let mut inbox = self.lock();
        if inbox.store.deposits() != seen || timeout.is_zero() {
            return inbox.store.deposits();
        }
        let deadline = Instant::now().checked_add(timeout);
        inbox.arrival_waits += 1;
        while inbox.store.deposits() == seen {
            inbox = match deadline {
                None => self.arrived.wait(inbox).unwrap_or_else(|p| p.into_inner()),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    self.arrived.wait_timeout(inbox, left).unwrap_or_else(|p| p.into_inner()).0
                }
            };
        }
        inbox.arrival_waits -= 1;
        inbox.store.deposits()
    }

    /// Non-blocking probe: the byte length of the next matching message.
    pub(crate) fn probe(&self, src: usize, tag: Tag) -> Option<usize> {
        self.lock().store.peek_len(src, tag)
    }

    /// Number of undelivered messages in this mailbox (structural scan).
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        self.lock().store.scan_pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(bytes: &[u8]) -> MsgBuf {
        MsgBuf::copy_from_slice(bytes)
    }

    /// The unbounded, untimed corner of [`Mailbox::pop`].
    fn take(mb: &Mailbox, src: usize, tag: Tag) -> MsgBuf {
        mb.pop(src, tag, usize::MAX, Duration::MAX).expect("an unbounded pop cannot fail")
    }

    #[test]
    fn push_pop_fifo_per_key() {
        let mb = Mailbox::new();
        mb.push(0, 7, buf(&[1]));
        mb.push(0, 7, buf(&[2]));
        mb.push(1, 7, buf(&[9]));
        assert_eq!(take(&mb, 0, 7), vec![1]);
        assert_eq!(take(&mb, 0, 7), vec![2]);
        assert_eq!(take(&mb, 1, 7), vec![9]);
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    fn fifo_per_key_holds_across_interleaved_keys() {
        // Deposit numbers interleave across keys; each `(src, tag)` range
        // still yields its own messages oldest first.
        let mut store = MatchStore::new(StoreStats::new());
        store.push(0, 7, buf(&[1]));
        store.push(0, 8, buf(&[5, 5]));
        store.push(1, 7, buf(&[9]));
        store.push(0, 7, buf(&[2, 2, 2]));
        assert_eq!(store.peek_len(0, 7), Some(1));
        assert_eq!(store.try_pop(0, 7, usize::MAX), Some(Ok(buf(&[1]))));
        assert_eq!(store.peek_len(0, 7), Some(3));
        assert_eq!(store.try_pop(0, 7, usize::MAX), Some(Ok(buf(&[2, 2, 2]))));
        assert_eq!(store.try_pop(0, 7, usize::MAX), None);
        assert_eq!(store.peek_len(0, 8), Some(2));
        assert_eq!(store.try_pop(1, 7, usize::MAX), Some(Ok(buf(&[9]))));
        assert_eq!(store.scan_pending(), 1);
    }

    #[test]
    fn push_is_a_refcount_bump_not_a_copy() {
        let mb = Mailbox::new();
        let region = MsgBuf::from_vec((0u8..64).collect());
        let ptr = region.as_slice().as_ptr();
        mb.push(0, 1, region.slice(16..32));
        let got = take(&mb, 0, 1);
        // The queued message aliases the sender's region.
        assert_eq!(got.as_slice().as_ptr(), ptr.wrapping_add(16));
        assert_eq!(got, region.slice(16..32));
    }

    #[test]
    fn pop_blocks_until_push() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let t = std::thread::spawn(move || take(&mb2, 3, 11));
        std::thread::sleep(Duration::from_millis(20));
        mb.push(3, 11, buf(&[42]));
        assert_eq!(t.join().unwrap(), vec![42]);
    }

    #[test]
    fn probe_reports_length_without_consuming() {
        let mb = Mailbox::new();
        assert_eq!(mb.probe(0, 0), None);
        mb.push(0, 0, buf(&[0; 17]));
        assert_eq!(mb.probe(0, 0), Some(17));
        assert_eq!(take(&mb, 0, 0).len(), 17);
    }

    #[test]
    fn bounded_pop_rejects_without_consuming() {
        let mb = Mailbox::new();
        mb.push(2, 5, buf(&[7; 16]));
        let refused = mb.pop(2, 5, 4, Duration::from_secs(5));
        assert_eq!(refused, Err(CommError::Truncated { message_len: 16, buffer_len: 4 }));
        assert_eq!(mb.pending(), 1, "rejected message must stay queued");
        let got = mb.pop(2, 5, 16, Duration::MAX).unwrap();
        assert_eq!(got, vec![7; 16]);
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    fn distinct_tags_do_not_match() {
        let mb = Arc::new(Mailbox::new());
        mb.push(0, 1, buf(&[1]));
        let mb2 = Arc::clone(&mb);
        let t = std::thread::spawn(move || take(&mb2, 0, 2));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished(), "pop(0,2) must not match tag 1");
        mb.push(0, 2, buf(&[2]));
        assert_eq!(t.join().unwrap(), vec![2]);
        assert_eq!(take(&mb, 0, 1), vec![1]);
    }

    #[test]
    fn a_deposit_wakes_the_receive_it_matches_and_no_other() {
        let mb = Arc::new(Mailbox::new());
        let park = |tag: Tag| {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || take(&mb, 0, tag))
        };
        let (a, b) = (park(1), park(2));
        while mb.lock().keyed.len() < 2 {
            std::thread::yield_now();
        }
        // An unrelated key matches neither parked receive: nobody is woken
        // and the message waits for whoever asks for it.
        mb.push(5, 9, buf(&[0]));
        mb.push(0, 2, buf(&[2]));
        assert_eq!(b.join().unwrap(), vec![2]);
        assert_eq!(mb.lock().keyed, [(0, 1)], "the other receive is still parked");
        assert!(!a.is_finished());
        mb.push(0, 1, buf(&[1]));
        assert_eq!(a.join().unwrap(), vec![1]);
        assert!(mb.lock().keyed.is_empty());
        assert_eq!(mb.lock().arrival_waits, 0);
        assert_eq!(take(&mb, 5, 9), vec![0]);
    }

    #[test]
    fn pop_timeout_race_leaves_no_dead_keys() {
        // Regression test for the race-path pop that used to bypass key
        // cleanup: hammer pushes that land right around the timeout deadline
        // and assert no round leaves an entry in the match map.
        let mb = Arc::new(Mailbox::new());
        for round in 0..200u64 {
            let mb2 = Arc::clone(&mb);
            let pusher = std::thread::spawn(move || {
                // Jitter the push across the receiver's deadline window.
                std::thread::sleep(Duration::from_micros(round % 120));
                mb2.push(1, 3, buf(&[round as u8]));
            });
            let got = mb.pop(1, 3, usize::MAX, Duration::from_micros(60));
            pusher.join().unwrap();
            if got.is_err() {
                // Push lost the race: drain it so the next round starts clean.
                assert_eq!(take(&mb, 1, 3), vec![round as u8]);
            }
            assert_eq!(mb.pending(), 0, "round {round} left an entry behind");
        }
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    fn timed_pop_times_out_when_nothing_arrives() {
        let mb = Mailbox::new();
        let err = mb.pop(0, 0, usize::MAX, Duration::from_millis(5)).unwrap_err();
        assert!(matches!(err, CommError::Timeout { src: 0, tag: 0, waited } if waited >= Duration::from_millis(5)));
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    fn arrival_wait_returns_at_once_on_a_moved_count_or_a_zero_timeout() {
        // Nobody deposits while this runs, so a call that parked would hang.
        let mb = Mailbox::new();
        mb.push(0, 1, buf(&[1]));
        // A stale `seen`, however long the timeout: the count, no wait.
        assert_eq!(mb.wait_arrival(0, Duration::MAX), 1);
        // The current `seen` with a zero timeout: a pure read of the count.
        assert_eq!(mb.wait_arrival(1, Duration::ZERO), 1);
        assert_eq!(take(&mb, 0, 1), vec![1]);
    }

    #[test]
    fn shared_stats_track_deposits_and_pops_across_stores() {
        // Two mailboxes in one "world": the shared counters see both, and the
        // atomic aggregates agree with the structural per-store scans.
        let stats = StoreStats::new();
        let a = Mailbox::with_stats(Arc::clone(&stats));
        let b = Mailbox::with_stats(Arc::clone(&stats));
        a.push(0, 1, buf(&[1]));
        a.push(0, 1, buf(&[2]));
        b.push(1, 1, buf(&[3]));
        assert_eq!(stats.pending(), 3);
        assert_eq!(stats.deposited(), 3);
        assert_eq!(stats.pending(), a.pending() + b.pending());
        assert_eq!(take(&a, 0, 1), vec![1]);
        assert_eq!(stats.pending(), 2);
        assert_eq!(take(&b, 1, 1), vec![3]);
        assert_eq!(take(&a, 0, 1), vec![2]);
        assert_eq!(stats.pending(), 0);
        assert_eq!(stats.deposited(), 3, "deposited is cumulative, not current");
        assert_eq!(stats.dead_keys(), 0);
    }

    #[test]
    fn match_store_bounded_pop_is_non_destructive() {
        let mut store = MatchStore::new(StoreStats::new());
        assert!(store.try_pop(4, 2, 8).is_none(), "empty store has no match");
        store.push(4, 2, buf(&[9; 10]));
        // A shorter message behind the refused one is not taken in its stead.
        store.push(4, 2, buf(&[1; 2]));
        assert_eq!(store.try_pop(4, 2, 4), Some(Err(10)));
        assert_eq!(store.scan_pending(), 2);
        assert_eq!(store.try_pop(4, 2, 10).and_then(Result::ok), Some(buf(&[9; 10])));
        assert_eq!(store.try_pop(4, 2, 4).and_then(Result::ok), Some(buf(&[1; 2])));
        assert_eq!(store.scan_pending(), 0);
    }
}
