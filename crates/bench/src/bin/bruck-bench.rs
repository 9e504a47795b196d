//! `bruck-bench` — the one regression bin: two sweeps of engine configs on
//! the event runtime, one row type, one artifact, one committed baseline.
//!
//! ```text
//! bruck-bench [scale|tune|all] --smoke --check-against crates/bench/baseline.json   # verify.sh gate
//! bruck-bench [scale|tune|all] --smoke --out crates/bench/baseline.json             # regenerate it
//! bruck-bench scale --out cells.json [--p 4096,16384,32768] [--workers N]
//!                   [--time-budget-s S] [--mem-budget-gb G]                         # full sweep
//! ```
//!
//! * **scale** — the named points at large world sizes (P = 4096 … 32768,
//!   4-byte uniform blocks) on a bounded worker pool. Per cell: wall clock,
//!   transport deposits, **ranks/sec** (`P / wall`, "how many MPI ranks does
//!   this box simulate"), **msgs/sec** (matching-core throughput under
//!   multiplexing), `exec/P`, the replay amplification, `resumes/P`, the
//!   wakes the scheduler served by polling a parked call without running
//!   the rank's closure, and `sweeps`, the direction reversals of the
//!   runtime's ready set. Cells whose
//!   estimated peak queue or wall clock exceeds its budget are *recorded as
//!   skipped* with the estimate in the reason — never silently dropped.
//! * **tune** — closes the loop the paper leaves open: instead of
//!   hand-picking a variant per machine, measure [`tune_candidates`] at small
//!   P (each cell the median of [`TUNE_REPS`] whole worlds after one
//!   warm-up), feed the wall clocks to [`AutoTuner`] (observe → refit →
//!   select), and print every selection as a loss table: predicted seconds
//!   per candidate, the winner, and what the runner-up and the paper's
//!   default (two-phase) would lose. The selection grid extrapolates beyond
//!   the measured grid on purpose: the α–β model is what lets 24 tiny cells
//!   pick winners at P = 32768.
//!
//! `--out` is rewritten as soon as a scale cell finishes (one JSON object per
//! line), so an aborted run leaves a valid partial record.
//! `--check-against` holds every measured cell to its baseline row
//! ([`bruck_bench::regress::judge`]).

use std::path::Path;
use std::process::ExitCode;

use bruck_bench::export::{scheduler_report_json, write_text};
use bruck_bench::regress::{
    artifact_json, check_against, scale_matrix, tune_matrix, Cell, Selection, Spec, Suite,
    ADVISORY_SLOWDOWN, FATAL_AMPLIFICATION, FATAL_SLOWDOWN, JUDGED_WALL_S,
};
use bruck_bench::{median, run_on_events, tune_candidates, Descriptors, Workload};
use bruck_core::{AlltoallvAlgorithm, EngineConfig};
use bruck_model::{par_map, AutoTuner, MachineModel};
use bruck_workload::{Distribution, SizeMatrix};

/// Timed whole-world repetitions of a tune cell (after one warm-up world).
/// Timing stays outside the world: a replayed rank closure re-reads the clock.
const TUNE_REPS: usize = 5;
/// Coordinate-descent rounds of the tuner's refit.
const REFIT_ROUNDS: usize = 24;
/// Distribution the tune cells are measured (and the model fitted) on.
const MEASURE_DIST: Distribution = Distribution::Uniform;
/// Representative max block size the selections are predicted at.
const SELECT_N_MAX: usize = 1024;
/// Workload seed of the traces the tuner fits and selects on.
const MODEL_SEED: u64 = 1;
/// Default memory budget for the eager-queue feasibility estimate.
const DEFAULT_MEM_BUDGET_GB: f64 = 100.0;
/// Default per-cell wall-clock budget (estimate-gated, see
/// [`estimated_wall_s`]): generous enough for every resumed family at
/// 32768, refusing only the Θ(P³) replay-wavefront cells that would run
/// for days.
const DEFAULT_TIME_BUDGET_S: f64 = 3600.0;
/// Estimated resident overhead bytes per queued message, excluding payload
/// (deque slot + match-key share + `MsgBuf` view + replay-arena share;
/// SpreadOut at P = 4096 measures ~5 GB for 16.7M queued 4-byte messages
/// ≈ 300 B each).
const MSG_OVERHEAD_BYTES: f64 = 300.0;

/// Peak resident bytes at the eager crossover — queued messages (count ×
/// per-message overhead) plus queued payload. Under run-to-block scheduling
/// every rank's send wave completes before the receive drain starts, so
/// post-everything-then-drain algorithms hold their full wave in the
/// transport at once.
fn estimated_peak_bytes(algo: AlltoallvAlgorithm, p: usize, block: usize) -> f64 {
    let pf = p as f64;
    let (msgs, payload) = match algo {
        // All P² tiny messages queued at the crossover (measured: 5 GB RSS
        // at P = 4096 with 4-byte blocks).
        AlltoallvAlgorithm::SpreadOut => (pf * pf, block as f64),
        // Pairwise/windowed/staged algorithms block on a receive within a
        // bounded number of sends, so the queue stays O(P × window).
        _ => (pf * 64.0, block as f64),
    };
    msgs * (MSG_OVERHEAD_BYTES + payload)
}

/// Estimated wall seconds for a cell on the calibration box (1 core), fitted
/// to `scale --workers 1` runs at P = 1,024 / 2,048 / 4,096 (DESIGN.md §12.6).
/// Under the runtime's rank-order sweep each family parks a fixed number of
/// times per rank; what a park costs depends on whether the family's loop is
/// a resumed call:
///
/// * **Resumed** (every `Direct` and `Bruck` point): a wake polls the stored
///   call where it stopped without running the closure, so the closure's
///   own prefix (O(P): building the send side) is paid once per call that
///   parked and the loop's work once.
///   - Log-phase (`TwoPhaseBruck`, `Sloav`, `PaddedBruck`): 2–3 parks per
///     rank → wall ∝ P²; 2.6–4.6 s at P = 4096.
///   - Windowed (`Vendor`, `PaddedAlltoall`): P / (4·window) + 2 parks per
///     rank → wall ∝ P^2.5; 7.0–10.2 s at P = 4096.
///   - Eager (`SpreadOut`): 1 park per rank → wall ∝ P² message handling;
///     memory is the binding constraint instead (0.55–0.86 s at P = 1024).
/// * **Replayed** (`Reference`, `Hierarchical`): every park re-runs the
///   exchange's prefix, `wall ≈ executions × O(P)`.
///   - Pairwise (Reference): the shifted schedule makes each rank's step-i
///     receive depend on its step-i sender — a wavefront, P/4 parks per rank
///     → wall ∝ P³ (13 s at P = 1024, 97 s at 2048).
///   - Staged (Hierarchical): the pairwise shape divided by the stage width.
///
/// Constants are deliberately rounded — the gate exists to refuse cells that
/// are orders of magnitude over budget, not to predict wall clock to 10%.
fn estimated_wall_s(algo: AlltoallvAlgorithm, p: usize) -> f64 {
    use AlltoallvAlgorithm::*;
    let x = p as f64 / 4096.0;
    match algo {
        PaddedBruck => 4.5 * x * x,
        TwoPhaseBruck => 4.5 * x * x,
        Sloav => 4.5 * x * x,
        PaddedAlltoall => 10.0 * x * x * x.sqrt(),
        Vendor => 10.0 * x * x * x.sqrt(),
        SpreadOut => 13.0 * x * x,
        Hierarchical => 12.0 * x * x * x.sqrt(),
        Reference => 800.0 * x * x * x,
    }
}

/// The per-cell budgets of the skip estimator.
struct Budgets {
    mem_gb: f64,
    time_s: f64,
}

/// Why `spec` is refused under `budgets`, if it is. The estimates are per
/// named point; the off-point candidates only run at the tune sweep's small
/// worlds and are never refused.
fn refusal(spec: &Spec, budgets: &Budgets) -> Option<String> {
    let algo = spec.config.as_algorithm()?;
    let est_bytes = estimated_peak_bytes(algo, spec.p, spec.n);
    if est_bytes > budgets.mem_gb * 1e9 {
        return Some(format!(
            "estimated peak transport residency ~ {:.0} GB exceeds the {:.0} GB budget \
             (eager send wave; raise --mem-budget-gb to attempt)",
            est_bytes / 1e9,
            budgets.mem_gb
        ));
    }
    let est_s = estimated_wall_s(algo, spec.p);
    (est_s > budgets.time_s).then(|| {
        format!(
            "estimated {est_s:.0} s exceeds the {:.0} s cell budget \
             (run-to-block replay wavefront; raise --time-budget-s to attempt)",
            budgets.time_s
        )
    })
}

/// Run one cell on the event runtime — or record why it was refused — and
/// print its table row. A scale cell is seconds to minutes of one world; a
/// tune cell is sub-millisecond, so it is the median of [`TUNE_REPS`] worlds
/// after one warm-up.
fn run_cell(spec: &Spec, work: &Workload<'_>, workers: usize, budgets: &Budgets) -> Cell {
    let Spec { suite, config, p, n } = *spec;
    let mut cell =
        Cell { spec: *spec, workers, wall_s: 0.0, messages: 0, scheduler: None, skip_reason: None };
    let row = format!("{:>5} {:>48} {p:>6} {n:>4}", suite.name(), config.key());
    cell.skip_reason = refusal(spec, budgets);
    if let Some(reason) = &cell.skip_reason {
        println!("{row} | skipped: {reason}");
        return cell;
    }
    let (warmups, timed) = match suite {
        Suite::Scale => (0, 1),
        Suite::Tune => (1, TUNE_REPS),
    };
    let runs: Vec<_> = (0..warmups + timed).map(|_| run_on_events(&config, work, workers)).collect();
    let mut walls: Vec<f64> = runs[warmups..].iter().map(|(wall_s, _)| *wall_s).collect();
    let report = &runs[runs.len() - 1].1;
    cell.wall_s = median(&mut walls);
    cell.messages = report.messages;
    if suite == Suite::Scale {
        cell.scheduler = Some(scheduler_report_json(report));
    }
    println!(
        "{row} | {:>10.4} {:>10} {:>10.0} {:>11.0} {:>7.2} {:>9.2} {:>6}",
        cell.wall_s,
        cell.messages,
        p as f64 / cell.wall_s,
        cell.msgs_per_s(),
        report.executions as f64 / p as f64,
        report.resumes as f64 / p as f64,
        report.sweeps
    );
    cell
}

/// Print one selection the loss-table way: every candidate with its predicted
/// seconds and what choosing it would lose against the winner, then the
/// winner, the runner-up's loss and the loss of the paper's default.
fn print_loss_table(p: usize, dist: &str, ranked: &[(EngineConfig, f64)]) {
    let (winner, best) = ranked[0];
    let loss = |seconds: f64| 100.0 * (seconds - best) / best;
    println!("  p={p} dist={dist}:");
    for (cfg, seconds) in ranked {
        println!("    {:<48} {:>11.3e} s  {:>+9.1} %", cfg.key(), seconds, loss(*seconds));
    }
    let (runner_up, next) = ranked[1];
    let default = ranked.iter().find(|(c, _)| *c == EngineConfig::as_two_phase());
    println!(
        "    -> {} ({best:.3e} s); runner-up {} loses {:.1} %; the paper's default \
         (two-phase) loses {}",
        winner.key(),
        runner_up.key(),
        loss(next),
        default.map_or("n/a".to_string(), |&(_, s)| format!("{:.1} %", loss(s))),
    );
}

/// Refit the α–β parameters on every observation, then select winners across
/// a key grid that extrapolates well past the measured worlds — that
/// extrapolation is the point of fitting a model at all.
fn refit_and_select(tuner: &mut AutoTuner) -> (f64, Vec<Selection>) {
    let fit_log_mse = tuner.refit(MEASURE_DIST, MODEL_SEED, REFIT_ROUNDS);
    println!(
        "refit: {} observations, mean squared log error {fit_log_mse:.4}",
        tuner.observations()
    );
    // One trace per (key, candidate), up to P = 32768 (seconds each): fan
    // the keys out, largest first so the costly ones start in parallel.
    let cand = tune_candidates();
    let select_dists =
        [Distribution::POWER_LAW_STEEP, Distribution::Normal, Distribution::Uniform];
    let grid: Vec<(usize, Distribution)> = [32768usize, 4096, 512, 64, 8]
        .iter()
        .flat_map(|&p| select_dists.map(|dist| (p, dist)))
        .collect();
    let rankings =
        par_map(&grid, |&(p, dist)| tuner.select(&cand, dist, MODEL_SEED, p, SELECT_N_MAX));
    println!("selections (predicted at n_max = {SELECT_N_MAX}; loss vs the winner):");
    // Printed and recorded smallest first.
    let selections = grid
        .iter()
        .zip(&rankings)
        .rev()
        .map(|(&(p, dist), ranked)| {
            let dist = dist.label();
            print_loss_table(p, &dist, ranked);
            let (config, predicted_s) = ranked[0];
            Selection { p, dist, config, predicted_s }
        })
        .collect();
    (fit_log_mse, selections)
}

const USAGE: &str = "bruck-bench [scale|tune|all] [--smoke] [--out FILE] [--check-against FILE] \
                     [--p LIST] [--workers N] [--time-budget-s S] [--mem-budget-gb G]";

fn parse_usize_list(s: &str) -> Vec<usize> {
    s.split(',')
        .filter(|t| !t.is_empty())
        .map(|t| t.trim().parse().unwrap_or_else(|_| panic!("bad number in list: {t}")))
        .collect()
}

/// ≤ 2× CPU count, the bounded-pool bar the runtime is specified against.
fn bounded_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get() * 2).unwrap_or(2).clamp(1, 64)
}

fn main() -> ExitCode {
    let mut suites = "all".to_string();
    let mut smoke = false;
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut ps: Option<Vec<usize>> = None;
    let mut workers = bounded_workers();
    let mut budgets = Budgets { mem_gb: DEFAULT_MEM_BUDGET_GB, time_s: DEFAULT_TIME_BUDGET_S };

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| panic!("{a} requires a value")).as_str();
        let mut num = || val().parse::<f64>().unwrap_or_else(|_| panic!("bad value for {a}"));
        match a.as_str() {
            "scale" | "tune" | "all" => suites = a.clone(),
            "--smoke" => smoke = true,
            "--out" => out_path = Some(val().to_string()),
            "--check-against" => check_path = Some(val().to_string()),
            "--p" => ps = Some(parse_usize_list(val())),
            "--workers" => workers = num() as usize,
            "--time-budget-s" => budgets.time_s = num(),
            "--mem-budget-gb" => budgets.mem_gb = num(),
            other => {
                eprintln!("unknown argument: {other}\nusage: {USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    // Read up front: an unreadable baseline fails before the minutes of
    // measuring, and `--out` may name the same file.
    let baseline = match check_path.as_deref().map(|path| (path, std::fs::read_to_string(path))) {
        Some((path, Err(e))) => {
            eprintln!("FAIL: cannot read baseline {path}: {e}");
            return ExitCode::FAILURE;
        }
        Some((path, Ok(text))) => Some((path, text)),
        None => None,
    };

    println!(
        "bruck-bench {suites} — event runtime, {workers} workers{}",
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:>5} {:>48} {:>6} {:>4} | {:>10} {:>10} {:>10} {:>11} {:>7} {:>9} {:>6}",
        "suite",
        "config",
        "P",
        "n",
        "wall s",
        "messages",
        "ranks/s",
        "msgs/s",
        "exec/P",
        "resumes/P",
        "sweeps"
    );

    let mut cells: Vec<Cell> = Vec::new();
    let mut tuned: Option<(f64, Vec<Selection>)> = None;
    let write_artifact = |cells: &[Cell], tuned: &Option<(f64, Vec<Selection>)>| {
        let Some(path) = &out_path else { return true };
        let tuned = tuned.as_ref().map(|(fit, selections)| (*fit, selections.as_slice()));
        write_text(Path::new(path), &artifact_json(workers, tuned, cells))
            .map_err(|e| eprintln!("failed to write {path}: {e}"))
            .is_ok()
    };

    // The sub-millisecond cells first: right after a P = 4096 world is torn
    // down they read several times slower.
    if suites != "scale" {
        let mut tuner = AutoTuner::new(MachineModel::theta_like());
        let specs = tune_matrix(smoke, ps.as_deref().unwrap_or(&[8, 16, 32]));
        for group in specs.chunk_by(|a, b| (a.p, a.n) == (b.p, b.n)) {
            let (p, n) = (group[0].p, group[0].n);
            let m = SizeMatrix::generate(MEASURE_DIST, 2024 + (p * 31 + n) as u64, p, n);
            for spec in group {
                let cell = run_cell(spec, &Workload::Matrix(&m), workers, &budgets);
                // Every measured cell calibrates: the model is keyed by the
                // config, so off-point candidates fit like named ones.
                if cell.skip_reason.is_none() {
                    tuner.observe(p, m.global_max(), spec.config, cell.wall_s);
                }
                cells.push(cell);
            }
        }
        tuned = Some(refit_and_select(&mut tuner));
    }

    if suites != "tune" {
        let mut specs = scale_matrix(smoke, ps.as_deref().unwrap_or(&[4096, 16384, 32768]));
        // Within one world size: eager algorithms last, so a memory-budget
        // abort can never cost already-finished cells.
        specs.sort_by_key(|s| {
            (s.p, s.config.as_algorithm().map(|a| estimated_peak_bytes(a, s.p, s.n) as u64))
        });
        for spec in &specs {
            let work = Workload::Uniform(Descriptors::uniform(spec.p, spec.n));
            cells.push(run_cell(spec, &work, workers, &budgets));
            // Rewritten after every scale cell: a crashed or OOM-killed later
            // cell leaves every earlier measurement on disk.
            if !write_artifact(&cells, &tuned) {
                return ExitCode::FAILURE;
            }
        }
    }
    if !write_artifact(&cells, &tuned) {
        return ExitCode::FAILURE;
    }
    if let Some(path) = &out_path {
        println!("wrote {path}");
    }
    if let Some((path, baseline)) = &baseline {
        println!(
            "regression check vs {path} (messages exact; executions fatal > \
             {FATAL_AMPLIFICATION}x; wall clock judged where the baseline is >= \
             {JUDGED_WALL_S} s: advisory > {ADVISORY_SLOWDOWN}x, fatal > {FATAL_SLOWDOWN}x):"
        );
        let failures = check_against(baseline, &cells);
        if failures > 0 {
            eprintln!("FAIL: {failures} cell(s) failed the regression check");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
