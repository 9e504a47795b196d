//! `bruck-sim`: deterministic-schedule fuzzer over the cell registry.
//!
//! Runs the registry's sim rows — every `alltoallv` algorithm, engine
//! off-point, uniform algorithm and collective schedule × schedule seeds —
//! under the cooperative simulation scheduler (`bruck_comm::SimComm`): every
//! cell is executed twice and must produce byte-identical schedule traces
//! and results; outputs must match the cell's expected bytes. Fault rows
//! compose `FaultComm` → `ReliableComm` → `MeteredComm` and the recovering
//! driver on top of the simulator, so the whole chaos stack is
//! bit-reproducible.
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

use std::process::ExitCode;
use std::time::Instant;

use bruck_check::cells::{rows, Family, DEFAULT_SEEDS};
use bruck_check::cli::{exit_code, load_trace, parse_args, replay_cell};
use bruck_check::sim_matrix::sweep;

fn main() -> ExitCode {
    let args = match parse_args("bruck-sim [--smoke] [--replay FILE]", &["--smoke"], &["--replay"]) {
        Ok(args) => args,
        Err(code) => return code,
    };
    if let Some(path) = args.value("--replay") {
        return match load_trace("bruck-sim", path) {
            Ok(trace) => replay_cell("bruck-sim", path, &trace),
            Err(code) => code,
        };
    }
    let tier = args.tier();
    let rows = rows(Family::Sim, tier, &DEFAULT_SEEDS);
    println!("bruck-sim: {tier:?} matrix (each cell runs twice for determinism)");
    let start = Instant::now();
    let failures = sweep("bruck-sim", &rows);
    println!(
        "\nbruck-sim: cells: {} (each run twice), {failures} failures, {:.1?} total",
        rows.len(),
        start.elapsed()
    );
    exit_code(failures == 0)
}
