//! What the matrix binaries share: the PASS/FAIL line, the witness-trace
//! saver and the `--replay` path.

use std::path::Path;
use std::process::ExitCode;

use bruck_comm::ScheduleTrace;

use crate::cells::{decode_meta, Tier};
use crate::runner::{run_cell, World};

/// A parsed command line: the switches that were given and the valued
/// flags with their values.
pub struct Args(Vec<(String, Option<String>)>);

/// Parse the command line against the binary's `switches` and `valued`
/// flags. `--help` prints `usage` (exit 0); an unknown argument or a
/// missing value is exit status 2.
pub fn parse_args(usage: &str, switches: &[&str], valued: &[&str]) -> Result<Args, ExitCode> {
    let mut args = std::env::args().skip(1);
    let mut parsed = Vec::new();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            println!("usage: {usage}");
            return Err(ExitCode::SUCCESS);
        } else if switches.contains(&arg.as_str()) {
            parsed.push((arg, None));
        } else if valued.contains(&arg.as_str()) {
            let Some(value) = args.next() else {
                eprintln!("{arg} needs a value\nusage: {usage}");
                return Err(ExitCode::from(2));
            };
            parsed.push((arg, Some(value)));
        } else {
            eprintln!("unknown argument: {arg}\nusage: {usage}");
            return Err(ExitCode::from(2));
        }
    }
    Ok(Args(parsed))
}

impl Args {
    /// Was this switch given?
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    /// The value of a valued flag, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.0.iter().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }

    /// `--smoke` selects the gate tier; without it the soak runs.
    pub fn tier(&self) -> Tier {
        if self.has("--smoke") {
            Tier::Smoke
        } else {
            Tier::Full
        }
    }
}

/// Save a failing schedule and its minimized form under `target/<bin>/`
/// and print the one-command replay. The `meta` line makes the files
/// self-describing, so either simulator binary can replay them.
pub fn save_witness(bin: &str, name: &str, message: &str, trace: &ScheduleTrace, min: &ScheduleTrace) {
    let dir = Path::new("target").join(bin);
    let stem = name.replace(['/', ' '], "_");
    let (path, min_path) = (dir.join(format!("{stem}.trace")), dir.join(format!("{stem}.min.trace")));
    println!("  message:        {message}");
    if std::fs::create_dir_all(&dir).and_then(|()| trace.save(&path)).is_ok() {
        println!("  witness trace:  {} ({} choices)", path.display(), trace.choices.len());
        println!(
            "  replay with:    cargo run --release -p bruck-check --bin {bin} -- --replay {}",
            path.display()
        );
    }
    if min.save(&min_path).is_ok() {
        println!("  shrunk witness: {} ({} choices)", min_path.display(), min.choices.len());
    }
}

/// Load a trace file for `--replay`; a load error is exit status 2.
pub fn load_trace(bin: &str, path: &str) -> Result<ScheduleTrace, ExitCode> {
    ScheduleTrace::load(Path::new(path)).map_err(|e| {
        eprintln!("{bin}: cannot load trace {path}: {e}");
        ExitCode::from(2)
    })
}

/// Replay a saved cell trace: reconstruct the cell from its `meta` line and
/// run it under exactly the recorded schedule.
pub fn replay_cell(bin: &str, path: &str, trace: &ScheduleTrace) -> ExitCode {
    let (cell, faults, seed) = match decode_meta(&trace.meta) {
        Ok(decoded) => decoded,
        Err(e) => {
            eprintln!("{bin}: trace {path} has no replayable cell meta: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{bin}: replaying {} under {} ({} scheduling choices, seed {seed})",
        cell.label(),
        faults.name(),
        trace.choices.len(),
    );
    replay_verdict(run_cell(&cell, faults, seed, &World::replay(seed, &trace.choices)).failure)
}

/// Print what a replay showed; reproducing the failure is exit status 1.
pub fn replay_verdict(reproduced: Option<String>) -> ExitCode {
    match &reproduced {
        None => println!("  PASS — the failure does not reproduce under this schedule"),
        Some(msg) => println!("  FAIL (reproduced) — {msg}"),
    }
    exit_code(reproduced.is_none())
}

/// Exit status of a gate binary: 0 iff everything it ran passed.
pub fn exit_code(passed: bool) -> ExitCode {
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
