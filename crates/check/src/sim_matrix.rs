//! The **sim** and **chaos** interpretations of the registry: rows swept on
//! the deterministic simulator, every cell run twice.
//!
//! Under [`bruck_comm::SimComm`] the *interleaving itself* is an input: a
//! row is `(cell, fault plan, seed)`, and schedule determinism plus fault
//! determinism makes the whole stack bit-reproducible. Each row is executed
//! **twice** with the same seed; the sweep asserts the schedule traces and
//! result digests are byte-identical ([`run_twice`] — the contract a
//! replayable fuzzer stands on, and one real threads could never promise
//! for crash cells), and [`run_cell`] judges the payloads and budgets.
//!
//! `bruck-sim` sweeps the [`Family::Sim`](crate::cells::Family) rows
//! (schedule seeds, a few fault plans); `bruck-chaos` sweeps the
//! [`Family::Chaos`](crate::cells::Family) rows (the whole plan battery),
//! three of which are real-clock canaries that run once on `ThreadComm`
//! under a watchdog instead.

use std::time::{Duration, Instant};

use crate::cells::{Harness, Row};
use crate::cli::save_witness;
use crate::runner::{run_cell, run_twice, shrink_trace, World};

/// Watchdog bound of a real-clock canary cell: a crash cell sits out at
/// most [`Faults::op_budget`](crate::cells::Faults::op_budget) (≈ 33.6 s:
/// four attempts, three backoffs, four confirms) plus the 2 s quiesce.
pub const CANARY_WALL_BOUND: Duration = Duration::from_secs(60);

/// Run every row — twice on the simulator, once under the watchdog for a
/// canary — printing a PASS/FAIL line per cell with its wall time. A
/// failing row's recorded schedule is ddmin-shrunk (the candidate must
/// still fail) and both traces are saved under `target/bruck-sim/` with the
/// one-command replay; `bin` only labels the report. Returns the number of
/// failures.
pub fn sweep(bin: &str, rows: &[Row]) -> usize {
    let mut failures = 0;
    for row in rows {
        let start = Instant::now();
        let (cell, faults, seed) = (&row.cell, row.faults, row.seed);
        let (first, diff) = if row.harness == (Harness::Chaos { threads: true }) {
            let world = World::Threads { wall_bound: CANARY_WALL_BOUND };
            (run_cell(cell, faults, seed, &world), None)
        } else {
            run_twice(
                || run_cell(cell, faults, seed, &World::sim(seed)),
                |o| (o.trace.as_ref().map_or(Vec::new(), |t| t.choices.clone()), o.digest),
            )
        };
        let label = row.label();
        let failed = first.failure.is_some();
        let message = first.failure.or(diff);
        let verdict = if message.is_none() { "PASS" } else { "FAIL" };
        println!("  {verdict} {label:<72} {:>8.1?}", start.elapsed());
        let Some(message) = message else { continue };
        failures += 1;
        println!("\n{bin} FAILURE: {label}");
        match first.trace {
            // A nondeterminism finding has no failing run to shrink against.
            Some(trace) if failed => {
                let min = shrink_trace(cell, faults, seed, &trace, |o| !o.ok());
                save_witness("bruck-sim", &label, &message, &trace, &min);
            }
            Some(trace) => save_witness("bruck-sim", &label, &message, &trace, &trace),
            None => println!("  message:        {message}"),
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{rows, Family, Faults, Tier, DEFAULT_SEEDS};

    /// The gate's two simulator sweeps, minus the real-clock canaries, are
    /// cheap enough (≈ 2 s) to run under `cargo test` as well.
    #[test]
    fn smoke_sim_and_virtual_chaos_rows_all_pass() {
        let mut all = rows(Family::Sim, Tier::Smoke, &DEFAULT_SEEDS);
        all.extend(rows(Family::Chaos, Tier::Smoke, &DEFAULT_SEEDS));
        all.retain(|r| r.harness != Harness::Chaos { threads: true });
        assert_eq!(sweep("test", &all), 0);
    }

    /// Collectives are ordinary cells: a recorded schedule replays to the
    /// same schedule and digest, ddmin shrinks it against any predicate on
    /// the replayed outcome, and the `meta` line alone names the cell again.
    #[test]
    fn a_collective_schedule_replays_shrinks_and_describes_itself() {
        let row = *rows(Family::Sim, Tier::Smoke, &DEFAULT_SEEDS)
            .iter()
            .find(|r| r.cell.op.label() == "ar/rsag:sum")
            .expect("the registry sweeps every schedule");
        let (cell, seed) = (&row.cell, row.seed);
        let a = run_cell(cell, Faults::None, seed, &World::sim(seed));
        assert!(a.ok(), "{:?}", a.failure);
        let recorded = a.trace.unwrap();
        let replayed = run_cell(cell, Faults::None, seed, &World::replay(seed, &recorded.choices));
        assert_eq!(replayed.trace.as_ref().unwrap().choices, recorded.choices);
        assert_eq!(replayed.digest, a.digest);
        // A stand-in "failure": rank 4 gets scheduled at least five times.
        let picks = |o: &crate::runner::CellOutcome| {
            o.trace.as_ref().map_or(0, |t| t.choices.iter().filter(|&&r| r == 4).count())
        };
        let min = shrink_trace(cell, Faults::None, seed, &recorded, |o| picks(o) >= 5);
        assert!(min.choices.len() < recorded.choices.len(), "nothing was shrunk");
        assert!(picks(&run_cell(cell, Faults::None, seed, &World::replay(seed, &min.choices))) >= 5);
        assert_eq!(crate::cells::decode_meta(&min.meta), Ok((*cell, Faults::None, seed)));
    }
}
