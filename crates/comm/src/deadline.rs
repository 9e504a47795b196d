//! [`DeadlineComm`]: a shared wall-clock budget over every blocking receive.
//!
//! Algorithms are written against blocking receives; fault tolerance needs
//! every one of those receives to give up when the exchange's overall budget
//! is spent. Rather than threading a deadline parameter through every
//! algorithm, this wrapper fixes a deadline on the inner communicator's own
//! clock ([`Communicator::now`]) at construction and clips the timeout of
//! every receive to the *remaining* budget — so one deadline covers the whole
//! exchange, however many receives it takes, and an algorithm run under it
//! either completes or returns [`crate::CommError::Timeout`] close to the
//! deadline. The length bound is forwarded untouched, so a truncated
//! `recv_into` is as non-destructive here as on the backend.
//!
//! Sends and probes pass straight through (they never block under the eager
//! protocol).

use std::time::Duration;

use crate::{CommError, CommResult, Communicator, MsgBuf, Tag};

/// A deadline-enforcing wrapper: every blocking receive observes the same
/// budget, fixed at construction on the inner communicator's clock — wall
/// time under the threaded backend, virtual time under [`crate::SimComm`]
/// (where the timeout fires after exactly the budget, instantly).
pub struct DeadlineComm<'a, C: Communicator + ?Sized> {
    inner: &'a C,
    /// Absolute deadline as a timestamp on `inner.now()`'s axis.
    deadline: Duration,
}

impl<'a, C: Communicator + ?Sized> DeadlineComm<'a, C> {
    /// Wrap `inner` with a budget of `budget` from now.
    pub fn new(inner: &'a C, budget: Duration) -> Self {
        DeadlineComm { inner, deadline: inner.now().saturating_add(budget) }
    }

    /// Wrap `inner` with an explicit absolute deadline — a timestamp on the
    /// inner communicator's [`Communicator::now`] axis (lets several
    /// wrappers — or several phases — share one deadline). [`Duration::MAX`]
    /// is no deadline at all.
    pub fn until(inner: &'a C, deadline: Duration) -> Self {
        DeadlineComm { inner, deadline }
    }

    /// Time left before the deadline (zero once expired).
    pub fn remaining(&self) -> Duration {
        if self.deadline == Duration::MAX {
            return Duration::MAX;
        }
        self.deadline.saturating_sub(self.inner.now())
    }

    /// Whether the budget is already spent.
    pub fn expired(&self) -> bool {
        self.remaining() == Duration::ZERO
    }
}

impl<C: Communicator + ?Sized> Communicator for DeadlineComm<'_, C> {
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
        // An explicit per-call timeout is still clipped to the shared budget.
        let remaining = self.remaining();
        if remaining == Duration::ZERO {
            return Err(CommError::Timeout { src, tag, waited: Duration::ZERO });
        }
        self.inner.recv_match(src, tag, max_len, timeout.min(remaining))
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
        // Not clipped to the budget: the caller names its own bound, and a
        // clipped wait would return at once forever after expiry.
        self.inner.wait_arrival(seen, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadComm;
    use std::time::Instant;

    #[test]
    fn completes_within_budget_passes_through() {
        ThreadComm::run(2, |comm| {
            let dc = DeadlineComm::new(comm, Duration::from_secs(5));
            if dc.rank() == 0 {
                dc.send(1, 1, &[1, 2, 3]).unwrap();
            } else {
                assert_eq!(dc.recv(0, 1).unwrap(), vec![1, 2, 3]);
                assert!(!dc.expired());
            }
        });
    }

    #[test]
    fn blocking_recv_becomes_timeout_at_the_deadline() {
        ThreadComm::run(2, |comm| {
            if comm.rank() == 0 {
                let dc = DeadlineComm::new(comm, Duration::from_millis(40));
                let start = Instant::now();
                let err = dc.recv_buf(1, 7).unwrap_err();
                assert!(matches!(err, CommError::Timeout { src: 1, tag: 7, .. }));
                assert!(start.elapsed() >= Duration::from_millis(40));
                assert!(dc.expired());
            }
        });
    }

    #[test]
    fn budget_is_shared_across_receives() {
        ThreadComm::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[0u8]).unwrap();
            } else {
                let dc = DeadlineComm::new(comm, Duration::from_millis(60));
                // First receive succeeds and eats almost no budget...
                dc.recv_buf(0, 1).unwrap();
                // ...the second blocks until the SAME deadline, not 60ms more.
                let start = Instant::now();
                let err = dc.recv_buf(0, 2).unwrap_err();
                assert!(matches!(err, CommError::Timeout { .. }));
                assert!(start.elapsed() < Duration::from_millis(200));
            }
        });
    }

    #[test]
    fn n_sequential_receives_share_one_absolute_budget() {
        // N recv_timeouts against a silent peer draw from ONE budget fixed at
        // construction: the first burns essentially all of it (its generous
        // per-call timeout is clipped to the remaining budget), every later
        // receive times out deterministically with ~zero wait, and the total
        // is bounded by the budget — not N × budget.
        ThreadComm::run(2, |comm| {
            if comm.rank() == 0 {
                let budget = Duration::from_millis(80);
                let dc = DeadlineComm::new(comm, budget);
                let n: u32 = 6;
                let start = Instant::now();
                let mut waits = Vec::new();
                for i in 0..n {
                    let t0 = Instant::now();
                    let err = dc.recv_timeout(1, 100 + i, Duration::from_secs(10)).unwrap_err();
                    assert!(matches!(err, CommError::Timeout { .. }), "receive {i}: {err:?}");
                    waits.push(t0.elapsed());
                }
                let total = start.elapsed();
                assert!(total >= budget, "the deadline must be observed: {total:?}");
                assert!(total < budget * 3, "receives share ONE budget, got {total:?}");
                for (i, w) in waits.iter().enumerate().skip(1) {
                    assert!(*w < budget, "receive {i} blocked past the shared deadline: {w:?}");
                }
                assert!(dc.expired());
            }
        });
    }

    #[test]
    fn expired_budget_fails_immediately() {
        ThreadComm::run(1, |comm| {
            let dc = DeadlineComm::new(comm, Duration::ZERO);
            let err = dc.recv_buf_timeout(0, 1, Duration::from_secs(10)).unwrap_err();
            assert!(matches!(err, CommError::Timeout { waited: Duration::ZERO, .. }));
        });
    }
}
