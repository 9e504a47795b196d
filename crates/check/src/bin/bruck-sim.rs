//! `bruck-sim`: deterministic-schedule fuzzer for every alltoallv algorithm.
//!
//! Runs an algorithm × workload × schedule-seed matrix under the
//! cooperative simulation scheduler (`bruck_comm::SimComm`): every cell is
//! executed twice and must produce byte-identical schedule traces and
//! results; received payloads must match the closed-form pattern. Fault
//! cells compose `FaultComm` → `ReliableComm` → `resilient_alltoallv` on
//! top of the simulator, so the whole chaos stack is bit-reproducible.
//!
//! On failure the recorded schedule is written to a trace file, a
//! delta-debugging shrinker minimizes it, and the report prints the seed,
//! the trace paths, and the one-command replay:
//!
//!   `bruck-sim --replay target/bruck-sim/<cell>.trace`
//!
//! Usage:
//!   bruck-sim [--smoke] [--replay FILE]
//!
//! `--smoke` runs the CI-sized matrix (wired into scripts/verify.sh).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use bruck_check::sim_matrix::{
    run_cell, run_coll_matrix, run_matrix, SimCell, SimMatrixConfig, COLL_SCHEDULES,
};
use bruck_comm::ScheduleTrace;

/// Where failing schedules are written (created on demand).
fn trace_dir() -> PathBuf {
    Path::new("target").join("bruck-sim")
}

fn replay(path: &str) -> ExitCode {
    let trace = match ScheduleTrace::load(Path::new(path)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bruck-sim: cannot load trace {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let cell = match SimCell::decode_meta(&trace.meta) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bruck-sim: trace {path} has no replayable cell meta: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "bruck-sim: replaying {} ({} scheduling choices, seed {})",
        cell.label(),
        trace.choices.len(),
        trace.seed
    );
    let outcome = run_cell(&cell, Some(&trace.choices));
    match outcome.failure {
        None => {
            println!("  PASS — the failure does not reproduce under this schedule");
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
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--replay" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("--replay needs a trace file path");
                    return ExitCode::from(2);
                };
                return replay(path);
            }
            "--help" | "-h" => {
                println!("usage: bruck-sim [--smoke] [--replay FILE]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    let cfg = if smoke { SimMatrixConfig::smoke() } else { SimMatrixConfig::full() };
    println!(
        "bruck-sim: {} matrix, p={}, n_max={}, {} algorithms, schedule seeds {:?} (each cell runs twice for determinism)",
        if smoke { "smoke" } else { "full" },
        cfg.p,
        cfg.n_max,
        cfg.algorithms.len(),
        cfg.sched_seeds,
    );
    let start = Instant::now();
    let report = run_matrix(&cfg, |label, ok| {
        if ok {
            println!("  PASS {label}");
        } else {
            println!("  FAIL {label}");
        }
    });
    if !report.failures.is_empty() {
        let dir = trace_dir();
        let _ = std::fs::create_dir_all(&dir);
        for f in &report.failures {
            let path = dir.join(format!("{}.trace", f.cell.label()));
            let min_path = dir.join(format!("{}.min.trace", f.cell.label()));
            let saved = f.trace.save(&path).is_ok();
            let min_saved = f.min_trace.save(&min_path).is_ok();
            println!("\nbruck-sim FAILURE: {}", f.cell.label());
            println!("  message:        {}", f.message);
            println!("  schedule seed:  {}", f.cell.sched_seed);
            if saved {
                println!("  recorded trace: {} ({} choices)", path.display(), f.trace.choices.len());
                println!("  replay with:    cargo run --release -p bruck-check --bin bruck-sim -- --replay {}", path.display());
            }
            if min_saved {
                println!(
                    "  shrunk trace:   {} ({} choices)",
                    min_path.display(),
                    f.min_trace.choices.len()
                );
            }
        }
    }
    // The collective family (allgatherv / reduce_scatter / allreduce): the
    // same determinism + reference-exactness contract over every schedule.
    let coll_seeds: &[u64] = if smoke { &[1, 2] } else { &[1, 2, 3, 4] };
    println!(
        "\nbruck-sim: collective family, p={}, {} schedules, seeds {:?}",
        cfg.p,
        COLL_SCHEDULES.len(),
        coll_seeds,
    );
    let (coll_cells, coll_failures) =
        run_coll_matrix(cfg.p, cfg.workload_seed, coll_seeds, |label, ok| {
            if ok {
                println!("  PASS {label}");
            } else {
                println!("  FAIL {label}");
            }
        });
    for f in &coll_failures {
        println!("\nbruck-sim FAILURE: {f}");
    }
    println!(
        "\nbruck-sim: {} cells (each run twice), {} failures, {:.1?} total",
        report.cells_run + coll_cells,
        report.failures.len() + coll_failures.len(),
        start.elapsed()
    );
    if report.failures.is_empty() && coll_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
