//! `bruck-scale` — throughput benchmark for the event-driven runtime.
//!
//! Runs the non-uniform algorithm suite on [`EventComm`] at large world
//! sizes (P = 4096 … 32768) on a bounded worker pool and records, per cell:
//!
//! * **ranks/sec** — rank-task completions per wall-clock second (`P /
//!   wall`), the headline "how many MPI ranks does this box simulate";
//! * **msgs/sec** — transport deposits per second, the matching-core
//!   throughput under multiplexing;
//! * **executions** — total task executions including wake-driven replays
//!   (`executions / P` is the replay amplification factor).
//!
//! The artifact (`BENCH_PR6.json`) also embeds the PR4-era metered smoke
//! matrix so the perf trajectory stays continuous across PRs. Every cell is
//! appended to the artifact as soon as it finishes (one JSON object per
//! line), so an aborted run leaves a valid partial record. Cells whose
//! estimated peak queue exceeds the memory budget are *recorded as skipped*
//! with the estimate in the reason — never silently dropped.
//!
//! ```text
//! bruck-scale --smoke [--check-against BENCH_PR6.json]   # verify.sh gate
//! bruck-scale --out BENCH_PR6.json                       # full artifact
//!   [--p 4096,16384,32768] [--workers N] [--block C] [--mem-budget-gb G]
//! ```
//!
//! `--check-against` compares each smoke cell's msgs/sec to the same cell in
//! the committed artifact: > [`ADVISORY_SLOWDOWN`]× slower prints a warning,
//! > [`FATAL_SLOWDOWN`]× slower fails the gate (wall-clock on shared CI is
//! noisy, so the fatal bar only catches order-of-magnitude regressions like
//! an accidental O(P) scan reintroduced on the hot path).

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use bruck_bench::export::{measure_metered, scheduler_report_json, write_text, MeteredRun};
use bruck_comm::EventComm;
use bruck_core::{alltoallv, packed_displs, AlltoallvAlgorithm};
use bruck_workload::{Distribution, SizeMatrix};

/// Slowdown ratio that prints an advisory warning in `--check-against`.
const ADVISORY_SLOWDOWN: f64 = 1.6;
/// Slowdown ratio that fails the `--check-against` gate.
const FATAL_SLOWDOWN: f64 = 8.0;
/// Default memory budget for the eager-queue feasibility estimate.
const DEFAULT_MEM_BUDGET_GB: f64 = 100.0;
/// Default per-cell wall-clock budget (estimate-gated, see
/// [`estimated_wall_s`]): generous enough for every P² -shaped cell at
/// 32768, refusing only the Θ(P³) replay-wavefront cells that would run
/// for days.
const DEFAULT_TIME_BUDGET_S: f64 = 3600.0;
/// Estimated resident overhead bytes per queued message, excluding payload
/// (deque slot + match-key share + `MsgBuf` view + replay-arena share;
/// SpreadOut at P = 4096 measures ~5 GB for 16.7M queued 4-byte messages
/// ≈ 300 B each).
const MSG_OVERHEAD_BYTES: f64 = 300.0;

/// One benchmark cell: `algorithm` at world size `p`, or a recorded skip.
struct Cell {
    algorithm: String,
    p: usize,
    block: usize,
    workers: usize,
    wall_s: f64,
    messages: usize,
    executions: u64,
    /// The run's full scheduler report (parks by kind, wakes, replayed ops),
    /// rendered by [`scheduler_report_json`]; empty for a skipped cell.
    scheduler: String,
    skip_reason: Option<String>,
}

impl Cell {
    fn ranks_per_s(&self) -> f64 {
        if self.wall_s > 0.0 { self.p as f64 / self.wall_s } else { 0.0 }
    }

    fn msgs_per_s(&self) -> f64 {
        if self.wall_s > 0.0 { self.messages as f64 / self.wall_s } else { 0.0 }
    }

    fn to_json_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"algorithm\":\"{}\",\"p\":{},\"block\":{},\"workers\":{}",
            self.algorithm, self.p, self.block, self.workers
        );
        match &self.skip_reason {
            Some(reason) => {
                let reason = reason.replace('\\', "\\\\").replace('"', "\\\"");
                let _ = write!(s, ",\"skipped\":true,\"skip_reason\":\"{reason}\"}}");
            }
            None => {
                let _ = write!(
                    s,
                    ",\"skipped\":false,\"wall_s\":{:.4},\"messages\":{},\"executions\":{},\
                     \"ranks_per_s\":{:.1},\"msgs_per_s\":{:.1},\"scheduler\":{}}}",
                    self.wall_s,
                    self.messages,
                    self.executions,
                    self.ranks_per_s(),
                    self.msgs_per_s(),
                    self.scheduler
                );
            }
        }
        s
    }
}

/// Stable machine key for an algorithm (debug name: no spaces, no figures
/// styling) — used in the artifact and for `--check-against` matching.
fn algo_key(algo: AlltoallvAlgorithm) -> String {
    format!("{algo:?}")
}

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
        // Both stages post all P−1 sends eagerly and each message carries a
        // 4-byte-per-peer counts row, so payload is ~4P per message — the
        // stage-1 wave alone is ~4P³ bytes (measured: 37 GB RSS at
        // P = 2048). Quadratic message count × linear payload.
        AlltoallvAlgorithm::RankaTwoStage => (pf * pf, 4.0 * pf + block as f64),
        // Pairwise/windowed/staged algorithms block on a receive within a
        // bounded number of sends, so the queue stays O(P × window).
        _ => (pf * 64.0, block as f64),
    };
    msgs * (MSG_OVERHEAD_BYTES + payload)
}

/// Estimated wall seconds for a cell on the calibration box (1 core, the
/// box that produced the committed artifact), from the run-to-block cost
/// model `wall ≈ executions × (per-execution prefix cost)`:
///
/// * **Log-phase** (Bruck family): O(log P) parks per rank, O(P) prefix →
///   wall ∝ P² log P. Calibrated: TwoPhaseBruck ≈ 30 s at P = 4096.
/// * **Pairwise** (Reference, Sloav): the shifted schedule makes each rank's
///   step-i receive depend on its step-i sender, so ranks advance in a
///   wavefront — Θ(P) parks per rank, O(P) prefix → wall ∝ P³.
/// * **Windowed/staged** (Vendor, RankaTwoStage): pairwise shape divided by
///   the window / stage width.
/// * **Eager** (SpreadOut): 1–2 parks per rank (everything is queued after
///   the send wave) → wall ∝ P² message handling; memory is the binding
///   constraint instead.
///
/// Constants are fitted to measurements at P ≤ 4096 (see DESIGN.md §12.6)
/// and deliberately rounded — the gate exists to refuse cells that are
/// orders of magnitude over budget, not to predict wall clock to 10%.
fn estimated_wall_s(algo: AlltoallvAlgorithm, p: usize) -> f64 {
    use AlltoallvAlgorithm::*;
    let x = p as f64 / 4096.0;
    match algo {
        PaddedBruck => 8.0 * x * x,
        TwoPhaseBruck => 30.0 * x * x,
        PaddedAlltoall => 95.0 * x * x * x.sqrt(),
        Hierarchical => 12.0 * x * x * x.sqrt(),
        SpreadOut => 30.0 * x * x,
        RankaTwoStage => 13000.0 * x * x * x,
        Vendor => 75.0 * x * x * x.sqrt(),
        Sloav => 25.0 * x * x * x.sqrt(),
        Reference => 1800.0 * x * x * x,
    }
}

/// Run one cell on the event runtime, or record why it was skipped.
fn run_cell(
    algo: AlltoallvAlgorithm,
    p: usize,
    block: usize,
    workers: usize,
    mem_budget_gb: f64,
    time_budget_s: f64,
) -> Cell {
    let skip = |reason: String| Cell {
        algorithm: algo_key(algo),
        p,
        block,
        workers,
        wall_s: 0.0,
        messages: 0,
        executions: 0,
        scheduler: String::new(),
        skip_reason: Some(reason),
    };
    let est_bytes = estimated_peak_bytes(algo, p, block);
    if est_bytes > mem_budget_gb * 1e9 {
        return skip(format!(
            "estimated peak transport residency ~ {:.0} GB exceeds the {:.0} GB budget \
             (eager send wave; raise --mem-budget-gb to attempt)",
            est_bytes / 1e9,
            mem_budget_gb
        ));
    }
    let est_s = estimated_wall_s(algo, p);
    if est_s > time_budget_s {
        return skip(format!(
            "estimated {est_s:.0} s exceeds the {time_budget_s:.0} s cell budget \
             (run-to-block replay wavefront; raise --time-budget-s to attempt)"
        ));
    }

    // Uniform workload with a shared descriptor set: every rank sends
    // `block` bytes to every peer, so one counts/displs/sendbuf triple
    // serves all P ranks (a per-rank copy would cost O(P²) harness memory
    // at P = 32k before the algorithm even runs).
    let counts = vec![block; p];
    let displs = packed_displs(&counts);
    let total: usize = block * p;
    let sendbuf = vec![0x5Au8; total];

    let start = Instant::now();
    let (_, report) = EventComm::run_report(p, workers, |comm| {
        let mut recvbuf = vec![0u8; total];
        alltoallv(algo, comm, &sendbuf, &counts, &displs, &mut recvbuf, &counts, &displs)
            .unwrap_or_else(|e| panic!("{} at p={p} failed: {e}", algo.name()));
        // Spot-check: with a constant-fill pattern every received byte is
        // the fill; full byte equality is tests/backend_equivalence.rs's job.
        if block > 0 && recvbuf[total - 1] != 0x5A {
            panic!("{} at p={p}: corrupted receive buffer", algo.name());
        }
    });
    let wall_s = start.elapsed().as_secs_f64();

    // The O(1) leak gate from the shared store counters: at P = 32k an O(P)
    // sweep per cell would dominate the bench itself.
    if report.pending_messages != 0 || report.dead_match_keys != 0 {
        panic!(
            "{} at p={p}: transport leak ({} pending, {} dead keys)",
            algo.name(),
            report.pending_messages,
            report.dead_match_keys
        );
    }

    Cell {
        algorithm: algo_key(algo),
        p,
        block,
        workers,
        wall_s,
        messages: report.messages,
        executions: report.executions,
        scheduler: scheduler_report_json(&report),
        skip_reason: None,
    }
}

/// Render the artifact: header + embedded smoke runs + one cell per line.
fn artifact_json(workers: usize, block: usize, smoke: &[MeteredRun], cells: &[Cell]) -> String {
    let mut out = String::from("{\"schema\":\"bruck-scale/BENCH_PR6\",");
    let _ = write!(out, "\"workers\":{workers},\"block\":{block},");
    out.push_str("\"smoke\":[");
    for (i, r) in smoke.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"algorithm\":\"{}\",\"distribution\":\"{}\",\"p\":{},\"n\":{},\
             \"bare_s\":{:.6},\"metered_s\":{:.6},\"logical_msgs\":{},\"logical_bytes\":{},\
             \"consistency_errors\":{}}}",
            r.algorithm,
            r.distribution,
            r.p,
            r.n,
            r.bare_s,
            r.metered_s,
            r.logical_msgs,
            r.logical_bytes,
            r.consistency_errors
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

/// Find the committed cell line matching `(algorithm, p)`.
fn find_cell_line<'t>(text: &'t str, algorithm: &str, p: usize) -> Option<&'t str> {
    let alg_pat = format!("\"algorithm\":\"{algorithm}\"");
    let p_pat = format!("\"p\":{p},");
    text.lines().find(|l| l.contains(&alg_pat) && l.contains(&p_pat))
}

/// Compare fresh smoke cells to the committed artifact. Returns the number
/// of fatal regressions.
fn check_against(baseline: &str, cells: &[Cell]) -> usize {
    let mut fatal = 0;
    for cell in cells.iter().filter(|c| c.skip_reason.is_none()) {
        let Some(line) = find_cell_line(baseline, &cell.algorithm, cell.p) else {
            println!(
                "  {} p={}: no baseline cell (new coverage, nothing to compare)",
                cell.algorithm, cell.p
            );
            continue;
        };
        let Some(base_mps) = field_f64(line, "msgs_per_s") else {
            println!("  {} p={}: baseline cell is a skip marker; nothing to compare",
                cell.algorithm, cell.p);
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
            "  {} p={}: {:.0} msgs/s vs baseline {:.0} ({:.2}x {}) [{verdict}]",
            cell.algorithm,
            cell.p,
            now_mps,
            base_mps,
            slowdown.max(1.0 / slowdown.max(1e-9)),
            if slowdown >= 1.0 { "slower" } else { "faster" },
        );
    }
    fatal
}

/// Parse a comma-separated list of algorithm debug names (`--algos
/// Reference,TwoPhaseBruck`); matching is case-insensitive on the stable key.
fn parse_algo_list(s: &str) -> Vec<AlltoallvAlgorithm> {
    s.split(',')
        .filter(|t| !t.is_empty())
        .map(|t| {
            let want = t.trim().to_ascii_lowercase();
            AlltoallvAlgorithm::ALL
                .iter()
                .copied()
                .find(|a| algo_key(*a).to_ascii_lowercase() == want)
                .unwrap_or_else(|| {
                    let known: Vec<String> =
                        AlltoallvAlgorithm::ALL.iter().map(|a| algo_key(*a)).collect();
                    panic!("unknown algorithm {t:?}; known: {}", known.join(", "))
                })
        })
        .collect()
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
    let mut check_path: Option<String> = None;
    let mut ps: Vec<usize> = vec![4096, 16384, 32768];
    let mut algo_filter: Option<Vec<AlltoallvAlgorithm>> = None;
    let mut block = 4usize;
    let mut workers = bounded_workers();
    let mut mem_budget_gb = DEFAULT_MEM_BUDGET_GB;
    let mut time_budget_s = DEFAULT_TIME_BUDGET_S;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| panic!("{name} requires a value")).to_string()
        };
        match a.as_str() {
            "--smoke" => smoke_mode = true,
            "--out" => out_path = Some(val("--out")),
            "--check-against" => check_path = Some(val("--check-against")),
            "--p" => ps = parse_usize_list(&val("--p")),
            "--algos" => algo_filter = Some(parse_algo_list(&val("--algos"))),
            "--time-budget-s" => {
                time_budget_s =
                    val("--time-budget-s").parse().unwrap_or_else(|_| panic!("bad time budget"))
            }
            "--block" => block = val("--block").parse().unwrap_or_else(|_| panic!("bad --block")),
            "--workers" => {
                workers = val("--workers").parse().unwrap_or_else(|_| panic!("bad --workers"))
            }
            "--mem-budget-gb" => {
                mem_budget_gb =
                    val("--mem-budget-gb").parse().unwrap_or_else(|_| panic!("bad budget"))
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    // The cell matrix. Smoke: the two P = 4096 log-phase cells — heavy
    // enough to exercise multiplexed park/replay at scale, fast enough for a
    // verify.sh stage (the pairwise/eager regimes are covered by the full
    // artifact run; their P = 4096 cells alone take tens of minutes).
    let (sizes, algos): (Vec<usize>, Vec<AlltoallvAlgorithm>) = if smoke_mode {
        (
            vec![4096],
            vec![AlltoallvAlgorithm::PaddedBruck, AlltoallvAlgorithm::TwoPhaseBruck],
        )
    } else {
        (ps, algo_filter.unwrap_or_else(|| AlltoallvAlgorithm::ALL.to_vec()))
    };

    println!(
        "bruck-scale — event runtime, {workers} workers, block = {block} B, P = {sizes:?}{}",
        if smoke_mode { " (smoke)" } else { "" }
    );
    println!(
        "{:>16} {:>7} | {:>9} {:>12} {:>11} {:>12} {:>8}",
        "algorithm", "P", "wall s", "messages", "ranks/s", "msgs/s", "exec/P"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for &p in &sizes {
        // Within one world size: eager algorithms last, so a memory-budget
        // abort can never cost already-finished cells (the artifact is
        // rewritten after every cell anyway).
        let mut row: Vec<AlltoallvAlgorithm> = algos.clone();
        row.sort_by_key(|a| estimated_peak_bytes(*a, p, block) as u64);
        for algo in row {
            let cell = run_cell(algo, p, block, workers, mem_budget_gb, time_budget_s);
            match &cell.skip_reason {
                Some(reason) => {
                    println!("{:>16} {:>7} | skipped: {reason}", cell.algorithm, p);
                }
                None => {
                    println!(
                        "{:>16} {:>7} | {:>9.2} {:>12} {:>11.0} {:>12.0} {:>8.2}",
                        cell.algorithm,
                        p,
                        cell.wall_s,
                        cell.messages,
                        cell.ranks_per_s(),
                        cell.msgs_per_s(),
                        cell.executions as f64 / p as f64
                    );
                }
            }
            cells.push(cell);
            if let Some(path) = &out_path {
                // Incremental write: a crashed or OOM-killed later cell
                // leaves every earlier measurement on disk.
                if let Err(e) = write_text(Path::new(path), &artifact_json(workers, block, &[], &cells))
                {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let mut failed = false;
    if let Some(path) = &check_path {
        match std::fs::read_to_string(path) {
            Ok(baseline) => {
                println!("regression check vs {path} (advisory > {ADVISORY_SLOWDOWN}x, fatal > {FATAL_SLOWDOWN}x):");
                let fatal = check_against(&baseline, &cells);
                if fatal > 0 {
                    eprintln!("FAIL: {fatal} cell(s) regressed more than {FATAL_SLOWDOWN}x");
                    failed = true;
                }
            }
            Err(e) => {
                // A missing baseline is not a regression (first run on a
                // fresh branch); a present-but-unreadable one is.
                if path == "BENCH_PR6.json" && !Path::new(path).exists() {
                    println!("no baseline at {path}; skipping regression check");
                } else {
                    eprintln!("cannot read baseline {path}: {e}");
                    failed = true;
                }
            }
        }
    }

    if let Some(path) = &out_path {
        // Final write embeds the PR4-era metered smoke matrix so one
        // artifact carries the whole perf trajectory.
        println!("measuring embedded metered smoke matrix (P = 16)...");
        let m = SizeMatrix::generate(Distribution::Uniform, 2022, 16, 64);
        let mut smoke_runs = Vec::new();
        for algo in [AlltoallvAlgorithm::TwoPhaseBruck, AlltoallvAlgorithm::PaddedBruck] {
            let (run, _) = measure_metered(algo, &m, "uniform", 64, 5);
            smoke_runs.push(run);
        }
        if let Err(e) =
            write_text(Path::new(path), &artifact_json(workers, block, &smoke_runs, &cells))
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
