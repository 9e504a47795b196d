//! [`RetryPolicy`]: one bounded-exponential-backoff schedule for every
//! retry loop in the workspace.
//!
//! Before this module existed each retrying layer hand-rolled its own
//! backoff arithmetic ([`crate::ReliableComm`]'s ack/retry loop was the
//! canonical copy). The policy is a pure function from an attempt index to a
//! delay, so the same value can drive an ack *deadline* (the ARQ's oldest
//! unacknowledged frame per peer) or a *sleep* between recovery attempts
//! (epoch-level re-execution), and a test can pin the whole schedule as data.
//!
//! Two properties matter for the deterministic backends:
//!
//! * **All sleeps go through the trait clock** ([`Communicator::sleep`]) —
//!   under [`crate::SimComm`] a backoff costs virtual time only, so a
//!   12-retry schedule replays in microseconds of wall time.
//! * **Jitter is seeded**, drawn with splitmix from `(seed, attempt)` — the
//!   same policy value produces the same schedule on every rank and every
//!   run, which keeps co-recovering ranks in lockstep and keeps chaos /
//!   simulation cells replayable.

use std::time::Duration;

use crate::splitmix;
use crate::Communicator;

/// A bounded exponential backoff schedule with optional seeded jitter.
///
/// Attempt `k` (zero-based) is assigned the deterministic delay
/// `min(base · 2^k, cap)`, stretched by up to `jitter_permille/1000` of
/// itself using a splitmix draw on `(seed, k)`. The policy is `Copy` data:
/// cloning it clones the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay before the first retry (attempt 0's delay).
    pub base: Duration,
    /// Ceiling for the exponentially growing delay.
    pub cap: Duration,
    /// Retries after the initial attempt; `attempts() == max_retries + 1`.
    pub max_retries: u32,
    /// Maximum jitter as a fraction of the deterministic delay, in permille
    /// (0 = none, 250 = up to +25%).
    pub jitter_permille: u32,
    /// Seed for the jitter draws; ranks sharing a seed share a schedule.
    pub seed: u64,
}

impl RetryPolicy {
    /// A jitter-free bounded exponential schedule — exactly the shape
    /// [`crate::ReliableComm`] has always used for its ack deadlines.
    pub fn exponential(base: Duration, cap: Duration, max_retries: u32) -> RetryPolicy {
        RetryPolicy { base, cap, max_retries, jitter_permille: 0, seed: 0 }
    }

    /// Add seeded jitter of up to `permille`/1000 of each delay.
    pub fn with_jitter(mut self, permille: u32, seed: u64) -> RetryPolicy {
        self.jitter_permille = permille;
        self.seed = seed;
        self
    }

    /// Total attempts the policy allows (initial + retries).
    pub fn attempts(&self) -> u32 {
        self.max_retries.saturating_add(1)
    }

    /// The deterministic (jitter-free) delay for zero-based `attempt`:
    /// `min(base · 2^attempt, cap)`. Attempt 0 is always exactly `base` —
    /// the cap bounds *growth*, it does not clamp the configured starting
    /// delay (this matches the ARQ loop the policy was extracted from).
    pub fn backoff(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return self.base;
        }
        let factor = if attempt >= 31 { u32::MAX } else { 1u32 << attempt };
        self.base.saturating_mul(factor).min(self.cap)
    }

    /// The full delay for zero-based `attempt`: [`RetryPolicy::backoff`]
    /// plus the seeded jitter for that attempt.
    pub fn delay(&self, attempt: u32) -> Duration {
        let det = self.backoff(attempt);
        if self.jitter_permille == 0 {
            return det;
        }
        let draw = splitmix(self.seed ^ (u64::from(attempt) << 32) ^ 0xBAC4_0FF5_EED0_0001);
        let permille = draw % (u64::from(self.jitter_permille) + 1);
        let extra_nanos = (det.as_nanos() as u64).saturating_mul(permille) / 1000;
        det + Duration::from_nanos(extra_nanos)
    }

    /// The whole schedule as data — one delay per attempt. Regression tests
    /// pin this vector so refactors cannot silently change retry behavior.
    pub fn schedule(&self) -> Vec<Duration> {
        (0..self.attempts()).map(|k| self.delay(k)).collect()
    }

    /// Sleep for `attempt`'s delay on the communicator's trait clock —
    /// virtual time under [`crate::SimComm`], wall time elsewhere.
    #[expect(clippy::disallowed_methods, reason = "back-off between attempts: nothing to wait for")]
    pub fn sleep_before_retry<C: Communicator + ?Sized>(&self, comm: &C, attempt: u32) {
        comm.sleep(self.delay(attempt));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::exponential(
            Duration::from_millis(10),
            Duration::from_millis(40),
            5,
        );
        let ms: Vec<u64> = p.schedule().iter().map(|d| d.as_millis() as u64).collect();
        assert_eq!(ms, vec![10, 20, 40, 40, 40, 40]);
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let base = RetryPolicy::exponential(
            Duration::from_millis(8),
            Duration::from_millis(64),
            7,
        );
        let a = base.with_jitter(250, 42);
        let b = base.with_jitter(250, 42);
        let c = base.with_jitter(250, 43);
        assert_eq!(a.schedule(), b.schedule(), "same seed, same schedule");
        assert_ne!(a.schedule(), c.schedule(), "different seed, different jitter");
        for (k, d) in a.schedule().iter().enumerate() {
            let det = base.delay(k as u32);
            assert!(*d >= det, "jitter never shortens a delay");
            assert!(*d <= det + det.mul_f64(0.25) + Duration::from_nanos(1));
        }
    }

    #[test]
    fn huge_attempt_indices_saturate_at_the_cap() {
        let p = RetryPolicy::exponential(
            Duration::from_millis(1),
            Duration::from_secs(2),
            200,
        );
        assert_eq!(p.delay(40), Duration::from_secs(2));
        assert_eq!(p.delay(199), Duration::from_secs(2));
    }
}
