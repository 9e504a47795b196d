//! `bruck-chaos`: fault-injection soak for the fault-tolerance stack.
//!
//! Two matrices share the binary:
//!
//! * The **fault soak** (default): the registry's chaos rows — op × fault
//!   plan × seed — each on a fresh *simulated* world with `FaultComm` →
//!   `ReliableComm` → `MeteredComm` layered and the resilient driver (or
//!   `collective_with_deadline`) on top. Asserts the crash-only property:
//!   byte-identical completion or a typed error within the *exact* virtual
//!   time budget — never a hang (a stuck world is proved stuck), never
//!   silent corruption — and every cell, crash cells included, is run twice
//!   and compared by digest. Three rows are real-clock canaries: the same
//!   runner on `ThreadComm` under a watchdog.
//! * The **recovery matrix** (`--recovery-smoke`): every operation family ×
//!   crash point under the deterministic simulator, driving the recovering
//!   driver (`recovering`: detect → agree → shrink → retry) and asserting
//!   typed `Recovered` endings, byte-correctness on the survivor view, and
//!   same-seed digest determinism. `--out FILE` writes the
//!   virtual-time MTTR per cell as line-JSON (the committed
//!   `BENCH_PR8.json`); `--check-against FILE` regression-checks fresh
//!   MTTRs against such a baseline (>1.6x drift advisory, >8x fatal).
//!
//! Usage:
//!   bruck-chaos [--smoke] [--seeds 1,2,3]
//!   bruck-chaos --recovery-smoke [--seeds 1] [--out FILE] [--check-against FILE]
//!
//! `--smoke` runs the CI-sized fault matrix (wired into scripts/verify.sh).
//! Seeds come from `--seeds`, else the registry's defaults.

use std::process::ExitCode;
use std::time::Instant;

use bruck_check::cells::{rows, Family, DEFAULT_SEEDS};
use bruck_check::cli::{exit_code, parse_args};
use bruck_check::recovery::{bench_json_line, check_against_baseline, run_recovery_matrix};
use bruck_check::sim_matrix::sweep;

fn main() -> ExitCode {
    let usage = "bruck-chaos [--smoke] [--seeds 1,2,3]\n       \
                 bruck-chaos --recovery-smoke [--seeds 1] [--out FILE] [--check-against FILE]";
    let args = match parse_args(
        usage,
        &["--smoke", "--recovery-smoke"],
        &["--seeds", "--out", "--check-against"],
    ) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let seeds: Vec<u64> = match args.value("--seeds") {
        None => DEFAULT_SEEDS.to_vec(),
        Some(list) => list.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
    };
    if seeds.is_empty() {
        eprintln!("--seeds needs a comma-separated list of numbers");
        return ExitCode::from(2);
    }
    let tier = args.tier();
    if args.has("--recovery-smoke") {
        return run_recovery(seeds[0], args.value("--out"), args.value("--check-against"));
    }

    let rows = rows(Family::Chaos, tier, &seeds);
    println!("bruck-chaos: {tier:?} matrix, seeds {seeds:?} (virtual time; each cell runs twice)");
    let start = Instant::now();
    let failures = sweep("bruck-chaos", &rows);
    println!(
        "bruck-chaos: cells: {}, {failures} failures, {:.1?} total",
        rows.len(),
        start.elapsed()
    );
    exit_code(failures == 0)
}

fn run_recovery(seed: u64, out: Option<&str>, baseline: Option<&str>) -> ExitCode {
    let (p, victim, _) = bruck_check::cells::RECOVERY_WORLD;
    println!("bruck-chaos: recovery matrix, p={p} victim={victim} seed={seed}");
    let start = Instant::now();
    let reports = run_recovery_matrix(seed, |r| match (&r.violation, &r.mttr) {
        (None, Some(cm)) => println!(
            "  PASS {:<40} crash@{:<4} cycles={} attempts={} mttr={:.1?}",
            r.label,
            r.crash_after_ops,
            cm.cycles,
            cm.attempts,
            cm.mttr.total()
        ),
        (None, None) => println!("  PASS {:<40}", r.label),
        (Some(v), _) => println!("  FAIL {:<40} {v}", r.label),
    });
    let failures = reports.iter().filter(|r| r.violation.is_some()).count();
    println!(
        "bruck-chaos: cells: {} (recovery), {failures} failures, {:.1?} total",
        reports.len(),
        start.elapsed()
    );

    if let Some(path) = out {
        let mut body = String::new();
        for r in &reports {
            if let Some(line) = bench_json_line(r) {
                body.push_str(&line);
                body.push('\n');
            }
        }
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("bruck-chaos: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("bruck-chaos: wrote MTTR baseline to {path}");
    }

    let mut fatal_regressions = 0usize;
    if let Some(path) = baseline {
        match std::fs::read_to_string(&path) {
            Ok(body) => {
                let (advisories, fatals) = check_against_baseline(&body, &reports);
                for a in &advisories {
                    println!("  ADVISORY {a}");
                }
                for f in &fatals {
                    println!("  FATAL    {f}");
                }
                fatal_regressions = fatals.len();
                println!(
                    "bruck-chaos: baseline check vs {path}: {} advisories, {} fatal",
                    advisories.len(),
                    fatals.len()
                );
            }
            Err(e) => {
                eprintln!("bruck-chaos: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    exit_code(failures == 0 && fatal_regressions == 0)
}
