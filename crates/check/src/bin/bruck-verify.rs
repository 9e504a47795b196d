//! `bruck-verify`: exhaustive interleaving verification.
//!
//! Two provers in one binary (see `bruck_check::dpor` and DESIGN.md §13):
//!
//! 1. **DPOR over the simulator** — every algorithm runs in tiny worlds
//!    under `bruck_comm::SimComm`, and stateless dynamic partial-order
//!    reduction enumerates every Mazurkiewicz-inequivalent interleaving,
//!    asserting byte-identical results and no deadlock at every leaf. Each
//!    cell reports explored vs. inequivalent vs. naive interleavings, and
//!    exhaustive cells must *converge* within their budget.
//! 2. **Event-runtime wakeup audit** — tiny scenarios on the event runtime
//!    run under a deterministic single-worker pick policy through every
//!    worker-pick interleaving; each schedule's `hb-audit` transition log is
//!    checked for lost wakeups, stale-epoch wakes, double enqueues, and
//!    happens-before (vector-clock) violations.
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

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bruck_check::dpor::{
    explore_cell, explore_event_scenario, full_cells, smoke_cells, EventScenario, Violation,
};
use bruck_check::sim_matrix::{run_cell, SimCell};
use bruck_comm::ScheduleTrace;

/// Where witness schedules are written (created on demand).
fn trace_dir() -> PathBuf {
    Path::new("target").join("bruck-verify")
}

/// Per-cell wall-clock budget: generous locally, hard stop for CI hangs.
const CELL_WALL_BUDGET: Duration = Duration::from_secs(120);

fn save_violation(name: &str, v: &Violation) {
    let dir = trace_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.trace"));
    let min_path = dir.join(format!("{name}.min.trace"));
    println!("  message:        {}", v.message);
    if v.trace.save(&path).is_ok() {
        println!("  witness trace:  {} ({} choices)", path.display(), v.trace.choices.len());
        println!(
            "  replay with:    cargo run --release -p bruck-check --bin bruck-verify -- --replay {}",
            path.display()
        );
    }
    if v.min_trace.save(&min_path).is_ok() {
        println!(
            "  shrunk witness: {} ({} choices)",
            min_path.display(),
            v.min_trace.choices.len()
        );
    }
}

fn replay(path: &str) -> ExitCode {
    let trace = match ScheduleTrace::load(Path::new(path)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bruck-verify: cannot load trace {path}: {e}");
            return ExitCode::from(2);
        }
    };
    // Event-auditor traces are tagged `event scenario=<name> bug=<bool>`;
    // everything else is a simulator cell meta line.
    if let Some(rest) = trace.meta.strip_prefix("event ") {
        let mut scenario = None;
        let mut bug = false;
        for tok in rest.split_whitespace() {
            match tok.split_once('=') {
                Some(("scenario", v)) => scenario = EventScenario::parse(v),
                Some(("bug", v)) => bug = v == "true",
                _ => {}
            }
        }
        let Some(scenario) = scenario else {
            eprintln!("bruck-verify: trace {path} names no known event scenario");
            return ExitCode::from(2);
        };
        println!(
            "bruck-verify: replaying event scenario {} ({} picks, bug={bug})",
            scenario.name(),
            trace.choices.len()
        );
        let cfg = bruck_comm::SimConfig::replay_trace(&trace);
        let opts = {
            let mut o = bruck_comm::EventVerifyOpts::default();
            o.audit = true;
            if bug {
                o.with_lost_wakeup_bug()
            } else {
                o
            }
        };
        let run = bruck_check::dpor::run_event_scenario(scenario, &cfg, opts);
        return match bruck_check::dpor::event_leaf_check(scenario, &run) {
            None => {
                println!("  PASS — the violation does not reproduce under this schedule");
                ExitCode::SUCCESS
            }
            Some(msg) => {
                println!("  FAIL (reproduced) — {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let cell = match SimCell::decode_meta(&trace.meta) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bruck-verify: trace {path} has no replayable meta: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "bruck-verify: replaying {} ({} scheduling choices)",
        cell.label(),
        trace.choices.len()
    );
    let outcome = run_cell(&cell, Some(&trace.choices));
    match outcome.failure {
        None => {
            println!("  PASS — the violation does not reproduce under this schedule");
            ExitCode::SUCCESS
        }
        Some(msg) => {
            println!("  FAIL (reproduced) — {msg}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut with_bug = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--with-bug" => with_bug = true,
            "--replay" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("--replay needs a trace file path");
                    return ExitCode::from(2);
                };
                return replay(path);
            }
            "--help" | "-h" => {
                println!("usage: bruck-verify [--smoke] [--replay FILE] [--with-bug]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

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

    let cells = if smoke { smoke_cells() } else { full_cells() };
    println!(
        "bruck-verify: {} matrix — {} DPOR cells + {} event scenarios",
        if smoke { "smoke" } else { "full" },
        cells.len(),
        EventScenario::ALL.len()
    );

    println!("\n== DPOR over SimComm (explored / inequivalent / naive) ==");
    let mut best_pruning_log10 = f64::NEG_INFINITY;
    for vcell in &cells {
        let report = explore_cell(vcell, CELL_WALL_BUDGET);
        let status = if !report.ok() {
            failed = true;
            "FAIL"
        } else if report.converged {
            "PASS"
        } else {
            "PASS (bounded)"
        };
        println!(
            "  {status} {} — explored {} / inequivalent {} / naive ~10^{:.1} (pruning ×10^{:.1})",
            vcell.cell.label(),
            report.executions,
            report.classes,
            report.naive_log10,
            report.pruning_log10(),
        );
        if report.converged {
            best_pruning_log10 = best_pruning_log10.max(report.pruning_log10());
        }
        if !report.converged && vcell.exhaustive {
            println!(
                "    exceeded budget ({} executions) without converging",
                report.executions
            );
        }
        if let Some(v) = &report.violation {
            save_violation(&vcell.cell.label(), v);
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
            "  {} {:13} — {} worker-pick interleavings{}",
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
        "\nbruck-verify: {} in {:.1?}",
        if failed { "FAIL" } else { "all interleavings verified" },
        start.elapsed()
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
