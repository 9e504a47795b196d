//! `bruck-verify`: exhaustive interleaving verification.
//!
//! Two provers in one binary (see `bruck_check::dpor`,
//! `bruck_check::wakeup_audit` and DESIGN.md §13):
//!
//! 1. **DPOR over the simulator** — every algorithm runs in tiny worlds
//!    under `bruck_comm::SimComm`, and stateless dynamic partial-order
//!    reduction enumerates every Mazurkiewicz-inequivalent interleaving,
//!    asserting byte-identical results and no deadlock at every leaf. Each
//!    cell reports explored vs. inequivalent vs. naive interleavings, and
//!    exhaustive cells must *converge* within their budget at exactly the
//!    class count `cells::VERIFY_CLASSES` lists for them.
//! 2. **Event-runtime wakeup audit** — tiny scenarios on the event runtime
//!    run under a deterministic single-worker pick policy through every
//!    worker-pick interleaving; the happens-before transition log every
//!    scheduled run records is checked for lost wakeups, stale-epoch wakes,
//!    double enqueues, and happens-before (vector-clock) violations.
//!
//! On any violation the witness schedule is saved, ddmin-minimized, and the
//! one-command replay is printed:
//!
//!   `bruck-verify --replay target/bruck-verify/<name>.trace`
//!
//! Usage:
//!   bruck-verify [--smoke] [--replay FILE] [--with-bug]
//!
//! `--smoke` runs the CI-sized matrix (wired into scripts/verify.sh);
//! `--with-bug` arms the seeded lost-wakeup bug in the event runtime so the
//! auditor must find it (used by the regression test; exits non-zero iff
//! the bug is *missed*).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use bruck_check::cells::{expected_classes, rows, Family, DEFAULT_SEEDS};
use bruck_check::cli::{
    exit_code, load_trace, parse_args, replay_cell, replay_verdict, save_witness,
};
use bruck_check::dpor::{explore_cell, Violation};
use bruck_check::wakeup_audit::{explore_event_scenario, replay_event_trace, EventScenario};

/// Per-cell wall-clock budget: generous locally, hard stop for CI hangs.
const CELL_WALL_BUDGET: Duration = Duration::from_secs(600);

fn save_violation(name: &str, v: &Violation) {
    save_witness("bruck-verify", name, &v.message, &v.trace, &v.min_trace);
}

fn replay(path: &str) -> ExitCode {
    let trace = match load_trace("bruck-verify", path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    // Event-auditor traces are tagged `event scenario=<name> bug=<bool>`;
    // everything else is a simulator cell meta line.
    if !trace.meta.starts_with("event ") {
        return replay_cell("bruck-verify", path, &trace);
    }
    match replay_event_trace(&trace) {
        Ok((scenario, bug, reproduced)) => {
            println!(
                "bruck-verify: replaying event scenario {} ({} picks, bug={bug})",
                scenario.name(),
                trace.choices.len()
            );
            replay_verdict(reproduced)
        }
        Err(e) => {
            eprintln!("bruck-verify: trace {path}: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(
        "bruck-verify [--smoke] [--replay FILE] [--with-bug]",
        &["--smoke", "--with-bug"],
        &["--replay"],
    ) {
        Ok(args) => args,
        Err(code) => return code,
    };
    if let Some(path) = args.value("--replay") {
        return replay(path);
    }
    let (tier, with_bug) = (args.tier(), args.has("--with-bug"));

    let start = Instant::now();
    let mut failed = false;

    if with_bug {
        // Regression mode: the auditor must *find* the seeded lost-wakeup
        // bug, shrink its witness, and the witness must replay.
        println!("bruck-verify: seeded-bug regression (lost wakeup armed)");
        let report = explore_event_scenario(EventScenario::Ping, 10_000, true);
        match &report.violation {
            Some(v) => {
                println!(
                    "  FOUND after {} schedules: {}",
                    report.executions, v.message
                );
                save_violation("seeded-lost-wakeup", v);
                if v.min_trace.choices.len() > 25 {
                    println!(
                        "  FAIL: shrunk witness has {} choices (> 25)",
                        v.min_trace.choices.len()
                    );
                    return ExitCode::FAILURE;
                }
                println!("  witness shrunk to {} choices — OK", v.min_trace.choices.len());
                return ExitCode::SUCCESS;
            }
            None => {
                println!(
                    "  FAIL: explored {} schedules without detecting the seeded bug",
                    report.executions
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let cells = rows(Family::Verify, tier, &DEFAULT_SEEDS);
    println!(
        "bruck-verify: {tier:?} matrix — {} DPOR cells + {} event scenarios",
        cells.len(),
        EventScenario::ALL.len()
    );

    println!("\n== DPOR over SimComm (explored / inequivalent / naive) ==");
    let mut best_pruning_log10 = f64::NEG_INFINITY;
    for row in &cells {
        let report = explore_cell(row, CELL_WALL_BUDGET);
        // An exhaustive row must find exactly its cell's classes.
        let expected = expected_classes(row);
        let classes_ok = !report.exhaustive || expected == Some(report.classes);
        let status = if !report.ok() || !classes_ok {
            failed = true;
            "FAIL"
        } else if report.converged {
            "PASS"
        } else {
            "PASS (bounded)"
        };
        println!(
            "  {status} {} — explored {} / inequivalent {} / naive ~10^{:.1} (pruning ×10^{:.1})",
            row.label(),
            report.executions,
            report.classes,
            report.naive_log10,
            report.pruning_log10(),
        );
        if !classes_ok {
            match expected {
                Some(want) => println!("    expected {want} inequivalent classes"),
                None => println!("    no expected class count for this cell (cells::VERIFY_CLASSES)"),
            }
        }
        if report.converged {
            best_pruning_log10 = best_pruning_log10.max(report.pruning_log10());
        }
        if !report.converged && report.exhaustive {
            println!(
                "    exceeded budget ({} executions) without converging",
                report.executions
            );
        }
        if let Some(v) = &report.violation {
            save_violation(&row.label(), v);
        }
    }
    // The reduction must demonstrably beat naive enumeration somewhere ≥10×.
    if best_pruning_log10 < 1.0 {
        println!("  FAIL: no converged cell achieved ≥10× pruning vs naive enumeration");
        failed = true;
    }

    println!("\n== Event-runtime wakeup-protocol audit ==");
    for scenario in EventScenario::ALL {
        let report = explore_event_scenario(scenario, 200_000, false);
        let ok = report.converged && report.violation.is_none();
        failed |= !ok;
        println!(
            "  {} {:14} — {} worker-pick interleavings{}",
            if ok { "PASS" } else { "FAIL" },
            scenario.name(),
            report.executions,
            if report.converged { "" } else { " (budget exceeded before convergence)" },
        );
        if let Some(v) = &report.violation {
            save_violation(&format!("event-{}", scenario.name()), v);
        }
    }

    println!(
        "\nbruck-verify: cells: {} + {} scenarios, {} in {:.1?}",
        cells.len(),
        EventScenario::ALL.len(),
        if failed { "FAIL" } else { "all interleavings verified" },
        start.elapsed()
    );
    exit_code(!failed)
}
