//! Source-lint gate: scan workspace sources for banned patterns, modulo the
//! audited allowlist at `crates/check/lint-allow.txt`.
//!
//! Exit status 0 iff there are zero unallowlisted findings and zero stale
//! allowlist lines. `scripts/verify.sh` runs this as a tier-1 stage.

use std::process::ExitCode;

fn main() -> ExitCode {
    let root = bruck_check::lint::repo_root();
    let report = match bruck_check::lint::run_lint(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bruck-lint: cannot scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    if report.is_clean() {
        println!(
            "bruck-lint: clean ({} audited finding(s) within allowlist budgets)",
            report.suppressed
        );
        ExitCode::SUCCESS
    } else {
        for finding in &report.violations {
            eprintln!("{finding}");
        }
        for stale in &report.stale {
            eprintln!("{stale}");
        }
        eprintln!(
            "bruck-lint: {} unallowlisted finding(s), {} stale allowlist line(s)",
            report.violations.len(),
            report.stale.len()
        );
        ExitCode::FAILURE
    }
}
