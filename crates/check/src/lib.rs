//! # bruck-check — communication-protocol verifier
//!
//! One typed cell list ([`cells::registry`]) — every operation reachable
//! from a public `bruck-core` entry point × workload × world size — and five
//! harnesses that are *interpretations* of it. A cell knows how a rank runs
//! it and what the right bytes are ([`cells::Cell`]); [`runner`] knows how to
//! put it in a world (simulated or real threads), under which fault stack,
//! and what verdict the crash-only contract gives it. All std-only.
//!
//! | Harness (binary) | World | What it asserts per cell | Module |
//! |---|---|---|---|
//! | **check** (`bruck-check`) | `SimComm`, lowest-runnable-first, wire log recorded; [`schedule`] turns the log into a vector-clocked history; a stuck world is proved, not hung on | every [`analysis`] pass over the extracted schedule (wait-for cycles, unmatched sends, orphaned receives, tag collisions, byte conservation, layouts) + expected bytes | [`matrix`] |
//! | **sim** (`bruck-sim`) | `SimComm` × schedule seeds | run twice: identical schedule trace and digest; expected bytes; failing schedule saved, ddmin-shrunk, `--replay`able (DESIGN.md §11) | [`sim_matrix`] |
//! | **verify** (`bruck-verify`) | recorded `SimComm` schedules | stateless DPOR: every Mazurkiewicz-inequivalent interleaving of the tiny-world cells ends byte-identical and deadlock-free; plus the event runtime's wakeup protocol audited exhaustively with vector clocks (DESIGN.md §13) | [`dpor`], [`wakeup_audit`] |
//! | **chaos** (`bruck-chaos`) | `SimComm` + `FaultComm → ReliableComm → MeteredComm`; three real-clock canaries on `ThreadComm` | every cell through the recovering driver, on exact virtual-time budgets: never hang, never a wrong byte, one committed attempt on every rank unless a rank is scripted to crash, then the victim typed and every survivor `Recovered` on the survivor view; never meter drift; every cell run twice (DESIGN.md §9) | [`runner`], [`sim_matrix`] |
//! | **recovery** (`bruck-chaos`, after the soak) | `SimComm` + bare `FaultComm`, a crash at the victim's first / quarter / half / last op | the chaos crash contract, plus same-seed digest determinism; virtual-time MTTR regression-checked against `BENCH_PR8.json` (DESIGN.md §14) | [`recovery`] |
//!
//! [`cli`] is what the matrix binaries share. `scripts/verify.sh` runs all
//! of it as tier-1 gates. The verifier's model, guarantees, and
//! non-guarantees are documented in DESIGN.md §8.

#![deny(missing_docs)]

pub mod analysis;
pub mod cells;
pub mod cli;
pub mod dpor;
pub mod matrix;
pub mod recovery;
pub mod runner;
pub mod schedule;
pub mod sim_matrix;
pub mod wakeup_audit;

pub use schedule::{extract, Extraction, RankOutcome};
