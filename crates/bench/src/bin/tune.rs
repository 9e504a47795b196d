//! `bruck-tune` — online auto-tuning sweep over the engine's knob space.
//!
//! Closes the loop the paper leaves open: instead of hand-picking a variant
//! per machine, measure the *named config points* of the configurable engine
//! on the event runtime, feed the wall clocks to [`AutoTuner`] (observe →
//! refit → select), and persist the per-workload winners as a versioned
//! [`TuningTable`] (`tuning.table`). Every measured cell also lands in a
//! `BENCH_PR9.json` artifact so verify.sh can gate the engine's dispatch
//! overhead against the committed baseline.
//!
//! ```text
//! bruck-tune --smoke [--check-against BENCH_PR9.json]   # verify.sh gate
//! bruck-tune --out BENCH_PR9.json --table tuning.table  # full artifact
//!   [--p 8,16,32] [--workers N] [--refit-rounds R]
//! ```
//!
//! Cells are keyed `(config key, P, n_cap)`; `--check-against` compares each
//! fresh cell's msgs/sec to the same cell in the committed artifact —
//! > [`ADVISORY_SLOWDOWN`]× slower warns, > [`FATAL_SLOWDOWN`]× slower fails
//! (the same bars as `bruck-scale`: wall clock on shared CI is noisy; the
//! fatal bar catches order-of-magnitude mistakes like an O(P) scan on the
//! dispatch path, not 20% jitter).
//!
//! The selection grid extrapolates beyond the measured grid on purpose: the
//! α–β model is what lets 26 tiny EventComm cells pick winners at P = 32768.
//! Every measured cell calibrates (the model is keyed by `EngineConfig`, so
//! off-point candidates fit like named ones), and every selection is printed
//! as a loss table: predicted seconds per candidate, the winner, and what
//! the runner-up and the paper's default (two-phase) would lose.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use bruck_bench::export::write_text;
use bruck_bench::tune_candidates;
use bruck_comm::{Communicator, EventComm, MeteredComm};
use bruck_core::{configurable_alltoallv, packed_displs, EngineConfig};
use bruck_model::{par_map, AutoTuner, MachineModel, TuningEntry, TuningKey, TuningTable};
use bruck_workload::{Distribution, SizeMatrix};

/// Slowdown ratio that prints an advisory warning in `--check-against`.
const ADVISORY_SLOWDOWN: f64 = 1.6;
/// Slowdown ratio that fails the `--check-against` gate.
const FATAL_SLOWDOWN: f64 = 8.0;
/// Representative max block size the per-workload winners are predicted at
/// (the table key is `(P, density, dist)` — density, not n, carries the
/// workload shape, so one working point per key is persisted).
const SELECT_N_MAX: usize = 1024;
/// Workload seed of the traces the tuner fits and selects on.
const MODEL_SEED: u64 = 1;

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

/// One measured cell: `config` on the event runtime at `(P, n_cap)`.
struct Cell {
    config: String,
    p: usize,
    n: usize,
    workers: usize,
    wall_s: f64,
    messages: usize,
}

impl Cell {
    fn msgs_per_s(&self) -> f64 {
        if self.wall_s > 0.0 { self.messages as f64 / self.wall_s } else { 0.0 }
    }

    fn to_json_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"algorithm\":\"{}\",\"p\":{},\"n\":{},\"workers\":{},\"wall_s\":{:.6},\
             \"messages\":{},\"msgs_per_s\":{:.1}}}",
            self.config,
            self.p,
            self.n,
            self.workers,
            self.wall_s,
            self.messages,
            self.msgs_per_s()
        );
        s
    }
}

/// Run one config on the event runtime and return the measured cell. The
/// engine's one entry point (`configurable_alltoallv`) is what's timed, so
/// config and argument validation are inside the measurement.
fn run_cell(cfg: &EngineConfig, m: &SizeMatrix, n_cap: usize, workers: usize) -> Cell {
    let p = m.p();
    let key = cfg.key();
    let start = Instant::now();
    let (_, report) = EventComm::run_report(p, workers, |comm| {
        let metered = MeteredComm::with_key(comm, cfg.key());
        let me = metered.rank();
        let sendcounts = m.sendcounts(me);
        let sdispls = packed_displs(&sendcounts);
        let sendbuf = vec![0x5Au8; sendcounts.iter().sum()];
        let recvcounts = m.recvcounts(me);
        let rdispls = packed_displs(&recvcounts);
        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
        configurable_alltoallv(
            &metered, cfg, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
        )
        .unwrap_or_else(|e| panic!("{} at p={p} failed: {e}", cfg.key()));
        let mm = metered.metrics();
        assert!(
            mm.consistency_errors().is_empty(),
            "{} at p={p}: metered consistency errors: {:?}",
            cfg.key(),
            mm.consistency_errors()
        );
    });
    let wall_s = start.elapsed().as_secs_f64();
    if report.pending_messages != 0 || report.dead_match_keys != 0 {
        panic!(
            "{key} at p={p}: transport leak ({} pending, {} dead keys)",
            report.pending_messages, report.dead_match_keys
        );
    }
    Cell { config: key, p, n: n_cap, workers, wall_s, messages: report.messages }
}

/// Render the artifact: header, fit quality, selections, one cell per line.
fn artifact_json(
    workers: usize,
    fit_log_mse: f64,
    table: &TuningTable,
    cells: &[Cell],
) -> String {
    let mut out = String::from("{\"schema\":\"bruck-tune/BENCH_PR9\",");
    let _ = write!(out, "\"workers\":{workers},\"fit_log_mse\":{fit_log_mse:.6},");
    out.push_str("\"selections\":[");
    for (i, e) in table.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"p\":{},\"density\":{},\"dist\":\"{}\",\"config\":\"{}\",\
             \"predicted_s\":{:e}}}",
            e.key.p, e.key.density_permille, e.key.dist, e.config.key(), e.predicted_s
        );
    }
    out.push_str("],\"cells\":[\n");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&c.to_json_line());
    }
    out.push_str("\n]}\n");
    out
}

/// Pull `"field":<number>` out of a single JSON cell line.
fn field_f64(line: &str, field: &str) -> Option<f64> {
    let pat = format!("\"{field}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Find the committed cell line matching `(config key, p, n)`.
fn find_cell_line<'t>(text: &'t str, config: &str, p: usize, n: usize) -> Option<&'t str> {
    let alg_pat = format!("\"algorithm\":\"{config}\"");
    let p_pat = format!("\"p\":{p},");
    let n_pat = format!("\"n\":{n},");
    text.lines().find(|l| l.contains(&alg_pat) && l.contains(&p_pat) && l.contains(&n_pat))
}

/// Compare fresh cells to the committed artifact. Returns the number of
/// fatal regressions.
fn check_against(baseline: &str, cells: &[Cell]) -> usize {
    let mut fatal = 0;
    for cell in cells {
        let Some(line) = find_cell_line(baseline, &cell.config, cell.p, cell.n) else {
            println!(
                "  {} p={} n={}: no baseline cell (new coverage, nothing to compare)",
                cell.config, cell.p, cell.n
            );
            continue;
        };
        let Some(base_mps) = field_f64(line, "msgs_per_s") else {
            continue;
        };
        let now_mps = cell.msgs_per_s();
        let slowdown = if now_mps > 0.0 { base_mps / now_mps } else { f64::INFINITY };
        let verdict = if slowdown > FATAL_SLOWDOWN {
            fatal += 1;
            "FATAL"
        } else if slowdown > ADVISORY_SLOWDOWN {
            "advisory"
        } else {
            "ok"
        };
        println!(
            "  {} p={} n={}: {:.0} msgs/s vs baseline {:.0} ({:.2}x {}) [{verdict}]",
            cell.config,
            cell.p,
            cell.n,
            now_mps,
            base_mps,
            slowdown.max(1.0 / slowdown.max(1e-9)),
            if slowdown >= 1.0 { "slower" } else { "faster" },
        );
    }
    fatal
}

fn parse_usize_list(s: &str) -> Vec<usize> {
    s.split(',')
        .filter(|t| !t.is_empty())
        .map(|t| t.trim().parse().unwrap_or_else(|_| panic!("bad number in list: {t}")))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke_mode = false;
    let mut out_path: Option<String> = None;
    let mut table_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut ps: Vec<usize> = vec![8, 16, 32];
    let mut workers = bounded_workers();
    let mut refit_rounds = 24usize;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| panic!("{name} requires a value")).to_string()
        };
        match a.as_str() {
            "--smoke" => smoke_mode = true,
            "--out" => out_path = Some(val("--out")),
            "--table" => table_path = Some(val("--table")),
            "--check-against" => check_path = Some(val("--check-against")),
            "--p" => ps = parse_usize_list(&val("--p")),
            "--workers" => {
                workers = val("--workers").parse().unwrap_or_else(|_| panic!("bad --workers"))
            }
            "--refit-rounds" => {
                refit_rounds =
                    val("--refit-rounds").parse().unwrap_or_else(|_| panic!("bad --refit-rounds"))
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Measured grid: smoke keeps one tiny world with two block scales so the
    // verify.sh stage finishes in seconds; the full run adds larger worlds.
    let (grid_ps, grid_ns): (Vec<usize>, Vec<usize>) =
        if smoke_mode { (vec![8], vec![4, 64]) } else { (ps, vec![4, 64, 512]) };
    let cand = tune_candidates();
    let measure_dist = Distribution::Uniform;

    println!(
        "bruck-tune — event runtime, {workers} workers, P = {grid_ps:?}, n = {grid_ns:?}, \
         {} candidate configs{}",
        cand.len(),
        if smoke_mode { " (smoke)" } else { "" }
    );
    println!("{:>42} {:>6} {:>6} | {:>9} {:>10} {:>12}", "config", "P", "n", "wall s", "messages", "msgs/s");

    let mut tuner = AutoTuner::new(MachineModel::theta_like());
    let mut cells: Vec<Cell> = Vec::new();
    for &p in &grid_ps {
        for &n_cap in &grid_ns {
            let m = SizeMatrix::generate(measure_dist, 2024 + (p * 31 + n_cap) as u64, p, n_cap);
            let n_max = m.global_max();
            for cfg in &cand {
                let cell = run_cell(cfg, &m, n_cap, workers);
                println!(
                    "{:>42} {:>6} {:>6} | {:>9.4} {:>10} {:>12.0}",
                    cell.config, p, n_cap, cell.wall_s, cell.messages, cell.msgs_per_s()
                );
                // Every measured cell calibrates: the model is keyed by the
                // config, so off-point candidates fit like named ones.
                tuner.observe(p, n_max, *cfg, cell.wall_s);
                cells.push(cell);
            }
        }
    }

    // Refit the α–β parameters on every observation, then select winners
    // across a key grid that extrapolates well past the measured worlds —
    // that extrapolation is the point of fitting a model at all.
    let fit_log_mse = tuner.refit(measure_dist, MODEL_SEED, refit_rounds);
    println!(
        "refit: {} observations, mean squared log error {fit_log_mse:.4}",
        tuner.observations()
    );

    let mut table = TuningTable::default();
    // One trace per (cell, candidate), up to P = 32768 (seconds each): fan
    // the cells out, largest first so the costly ones start in parallel.
    let select_ps = [32768usize, 4096, 512, 64, 8];
    let select_dists =
        [Distribution::POWER_LAW_STEEP, Distribution::Normal, Distribution::Uniform];
    println!("selections (predicted at n_max = {SELECT_N_MAX}; loss vs the winner):");
    let grid: Vec<(usize, Distribution)> =
        select_ps.iter().flat_map(|&p| select_dists.map(|dist| (p, dist))).collect();
    let rankings = par_map(&grid, |&(p, dist)| {
        tuner.select(&cand, dist, MODEL_SEED, p, SELECT_N_MAX)
    });
    // Printed smallest first.
    for (&(p, dist), ranked) in grid.iter().zip(&rankings).rev() {
        let key = TuningKey::for_workload(p, dist);
        print_loss_table(p, &key.dist, ranked);
        let (config, predicted_s) = ranked[0];
        table.insert(TuningEntry { key, config, predicted_s });
    }

    let mut failed = false;
    if let Some(path) = &check_path {
        match std::fs::read_to_string(path) {
            Ok(baseline) => {
                println!(
                    "regression check vs {path} (advisory > {ADVISORY_SLOWDOWN}x, fatal > \
                     {FATAL_SLOWDOWN}x):"
                );
                let fatal = check_against(&baseline, &cells);
                if fatal > 0 {
                    eprintln!("FAIL: {fatal} cell(s) regressed more than {FATAL_SLOWDOWN}x");
                    failed = true;
                }
            }
            Err(e) => {
                // A missing baseline is not a regression (first run on a
                // fresh branch); a present-but-unreadable one is.
                if path == "BENCH_PR9.json" && !Path::new(path).exists() {
                    println!("no baseline at {path}; skipping regression check");
                } else {
                    eprintln!("cannot read baseline {path}: {e}");
                    failed = true;
                }
            }
        }
    }

    if let Some(path) = &table_path {
        // Round-trip before writing: serialize → parse → compare, so a
        // malformed table can never land on disk.
        let text = table.serialize();
        let (reparsed, warnings) = TuningTable::parse(&text)
            .unwrap_or_else(|e| panic!("serialized table failed to re-parse: {e}"));
        assert!(warnings.is_empty(), "serialized table produced warnings: {warnings:?}");
        assert_eq!(reparsed, table, "tuning table round-trip mismatch");
        if let Err(e) = write_text(Path::new(path), &text) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path} ({} entries)", table.entries.len());
    }

    if let Some(path) = &out_path {
        if let Err(e) =
            write_text(Path::new(path), &artifact_json(workers, fit_log_mse, &table, &cells))
        {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// ≤ 2× CPU count, the bounded-pool bar the runtime is specified against.
fn bounded_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get() * 2).unwrap_or(2).clamp(1, 64)
}
