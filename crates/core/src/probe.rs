//! `bruck-probe` — zero-overhead-when-disabled phase-span instrumentation
//! (DESIGN.md §10).
//!
//! Every algorithm in this crate brackets its phases with [`span`] guards.
//! When no recorder is installed on the current thread (the default), opening
//! a span reads no clock and allocates nothing — the only cost is one
//! thread-local flag check, so production paths are unaffected. When a
//! recorder *is* installed (via [`install`]), each guard records a
//! [`PhaseEvent`] with nanosecond start/duration on drop, yielding a named
//! per-rank phase timeline that the bench crate exports as a chrome trace and
//! the conformance suite asserts structural counts against.
//!
//! Under `ThreadComm` one rank is one OS thread, so "per thread" is
//! "per rank": call [`install`] at the top of the rank closure and [`take`]
//! at the end.
//!
//! ## Span naming convention
//!
//! `"<algorithm>.<phase>"`, both parts lower-snake-case, e.g.
//! `two_phase.data` or `padded.scan`. Per-step phases reuse one name (one
//! event per step), so an algorithm's step count is the event count for that
//! name — the structural quantity `tests/conformance.rs` checks.
//!
//! ## Wall-clock discipline
//!
//! `crates/core/clippy.toml` bans ad-hoc `Instant::now()` in `crates/core`:
//! all timing goes through [`span`]. This file is the single audited exception
//! where the clock is actually read.

#![expect(clippy::disallowed_methods, reason = "the one sanctioned stopwatch site in bruck-core")]

use std::cell::RefCell;
use std::time::Instant;

/// One completed phase span recorded on this thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseEvent {
    /// Span name, `"<algorithm>.<phase>"` by convention (see module docs).
    pub name: &'static str,
    /// Start offset in nanoseconds since [`install`] on this thread.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

struct Recorder {
    origin: Instant,
    events: Vec<PhaseEvent>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread (idempotent: re-installing clears any
/// previously recorded events and restarts the time origin).
pub fn install() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder { origin: Instant::now(), events: Vec::new() });
    });
}

/// Stop recording on this thread and return everything recorded since
/// [`install`], in completion (drop) order. Returns an empty vector if no
/// recorder was installed.
pub fn take() -> Vec<PhaseEvent> {
    RECORDER.with(|r| r.borrow_mut().take()).map_or_else(Vec::new, |rec| rec.events)
}

/// Whether a recorder is installed on this thread.
pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// RAII phase guard: measures from [`span`] to drop. Inert (no clock read,
/// no allocation) when recording is disabled.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    armed: Option<(&'static str, Instant)>,
}

/// Open a phase span named `name`. Bind it to a `_guard`-style local so it
/// drops at the end of the phase's scope.
pub fn span(name: &'static str) -> Span {
    Span { armed: if enabled() { Some((name, Instant::now())) } else { None } }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, start)) = self.armed.take() {
            let dur = start.elapsed();
            RECORDER.with(|r| {
                if let Some(rec) = r.borrow_mut().as_mut() {
                    rec.events.push(PhaseEvent {
                        name,
                        start_ns: start.duration_since(rec.origin).as_nanos() as u64,
                        dur_ns: dur.as_nanos() as u64,
                    });
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        assert!(!enabled());
        {
            let _s = span("noop.phase");
        }
        assert!(take().is_empty());
    }

    #[test]
    fn install_take_roundtrip_in_drop_order() {
        install();
        assert!(enabled());
        {
            let _outer = span("outer.phase");
            {
                let _inner = span("inner.phase");
            }
        }
        let events = take();
        assert!(!enabled(), "take() uninstalls");
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert_eq!(names, ["inner.phase", "outer.phase"], "drop order: inner completes first");
        // The outer span encloses the inner one on the timeline.
        assert!(events[1].start_ns <= events[0].start_ns);
        assert!(
            events[1].start_ns + events[1].dur_ns >= events[0].start_ns + events[0].dur_ns,
            "outer must end at or after inner"
        );
    }

    #[test]
    fn reinstall_clears_previous_events() {
        install();
        {
            let _s = span("stale.phase");
        }
        install();
        {
            let _s = span("fresh.phase");
        }
        let events = take();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "fresh.phase");
    }

    #[test]
    fn per_step_names_count_steps() {
        install();
        for _ in 0..5 {
            let _s = span("algo.step");
        }
        let events = take();
        assert_eq!(events.iter().filter(|e| e.name == "algo.step").count(), 5);
    }
}
