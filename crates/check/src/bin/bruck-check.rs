//! Protocol-verification gate: run the registry's check rows on a
//! lowest-first `SimComm` run and through the analysis passes.
//!
//! Exit status 0 iff every case is clean. `scripts/verify.sh` runs this as a
//! tier-1 stage.

use std::process::ExitCode;

fn main() -> ExitCode {
    let reports = bruck_check::matrix::run_full_matrix();
    let total = reports.len();
    let mut dirty = 0usize;
    for report in &reports {
        if !report.is_clean() {
            dirty += 1;
            eprintln!("FAIL {}", report.name);
            for finding in &report.findings {
                eprintln!("  - {finding}");
            }
        }
    }
    if dirty == 0 {
        println!("bruck-check: cells: {total}, {total} cases clean (no deadlock cycles, tag collisions, conservation violations, or unmatched sends)");
        ExitCode::SUCCESS
    } else {
        eprintln!("bruck-check: cells: {total}, {dirty}/{total} cases with findings");
        ExitCode::FAILURE
    }
}
