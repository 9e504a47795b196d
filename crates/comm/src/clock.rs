//! The wall-clock anchor for [`crate::Communicator::now`] /
//! [`crate::Communicator::sleep`].
//!
//! Every time-dependent code path in this workspace (deadline receives,
//! ARQ retransmission timers, injected stalls) reads time through the
//! `Communicator` trait rather than `std::time` directly, so a backend can
//! substitute a *virtual* clock (see [`crate::SimComm`]) and make timeouts
//! fire deterministically. This module is the one sanctioned place where the
//! real-thread backends touch `Instant::now` / `thread::sleep`; the crates'
//! `clippy.toml` bans `thread::sleep` everywhere else in
//! `bruck-comm`/`bruck-core`.

#![expect(clippy::disallowed_methods, reason = "the one sanctioned real-sleep site")]

use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Process-wide epoch: the first call pins it, every later call measures
/// against it. Using a shared epoch makes `now()` values from different
/// communicators in one process comparable (they are all "time since the
/// process first asked").
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic wall-clock time since the process epoch.
pub(crate) fn wall_now() -> Duration {
    epoch().elapsed()
}

/// Real suspension of the calling thread for `d`.
pub(crate) fn wall_sleep(d: Duration) {
    if !d.is_zero() {
        std::thread::sleep(d);
    }
}

/// A shared virtual clock for backends that simulate time instead of
/// spending it (see [`crate::EventComm`]; [`crate::SimComm`] keeps its clock
/// inside its scheduler state, but the semantics are identical): `now` only
/// moves when the owner explicitly advances it, and advancing is monotone.
///
/// The event runtime advances it at global quiescence — when every worker is
/// idle and no task is runnable — jumping straight to the earliest pending
/// deadline, so timed receives fire after *exactly* their budget of virtual
/// time and zero wall-clock time.
#[derive(Debug, Default)]
pub(crate) struct VirtualClock {
    now: Mutex<Duration>,
}

impl VirtualClock {
    pub(crate) fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// Current virtual time.
    pub(crate) fn now(&self) -> Duration {
        *self.now.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Advance to `t` (no-op if `t` is in the past); returns the new now.
    pub(crate) fn advance_to(&self, t: Duration) -> Duration {
        let mut now = self.now.lock().unwrap_or_else(|p| p.into_inner());
        *now = (*now).max(t);
        *now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_is_monotone_under_advance() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        assert_eq!(c.advance_to(Duration::from_millis(5)), Duration::from_millis(5));
        // Advancing "backwards" holds time still.
        assert_eq!(c.advance_to(Duration::from_millis(3)), Duration::from_millis(5));
        assert_eq!(c.now(), Duration::from_millis(5));
    }

    #[test]
    fn wall_now_is_monotone() {
        let a = wall_now();
        let b = wall_now();
        assert!(b >= a);
    }

    #[test]
    fn wall_sleep_advances_wall_now() {
        let a = wall_now();
        wall_sleep(Duration::from_millis(2));
        assert!(wall_now() >= a + Duration::from_millis(2));
    }
}
