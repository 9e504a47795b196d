//! Regenerate every figure of the paper's evaluation as text tables.
//!
//! Usage: `figures [SECTION...]`, each SECTION one of `fig2a fig2b fig6 fig7
//! fig8 fig9 fig10 fig10f fig11 fig12 fig13 model radix ablation all`, and
//! `all` when none is given. The sections run in that order, whatever the
//! order of the arguments; an unknown name exits 2 before any runs.
//!
//! Model-driven figures sweep the α–β trace simulator (Theta-like preset
//! unless stated); application figures (11, 12) run the real implementations
//! on the threaded runtime at laptop-scale rank counts. Build with
//! `--release`; the large-P sweeps are compute-heavy.

#![expect(clippy::unwrap_used, reason = "a CLI: a failed run aborts the figure loudly")]

use std::path::Path;
use std::time::Duration;

use bruck_bench::export::{chrome_trace_json, write_text};
use bruck_bench::{print_table, time_alltoall, time_alltoallv, time_on_threads, to_ms, Series};
use bruck_bpra::{
    graph1_like, graph2_like, kcfa_like_run, transitive_closure, KcfaConfig, TcResult,
};
use bruck_comm::ThreadComm;
use bruck_core::{AlltoallAlgorithm, AlltoallvAlgorithm, EngineConfig};
use bruck_model::{
    crossover_n, nonuniform_trace, padded_beats_two_phase, padded_bruck_cost, predict,
    spread_out_cost, two_phase_bruck_cost, uniform_trace, DistSource, MachineModel, RankSample,
    StepKind,
};
use bruck_workload::{histogram, Distribution, SizeMatrix};

const SEED: u64 = 2022;

/// The five algorithms of Figure 6's legends.
const FIG6_ALGOS: [AlltoallvAlgorithm; 5] = [
    AlltoallvAlgorithm::SpreadOut,
    AlltoallvAlgorithm::PaddedAlltoall,
    AlltoallvAlgorithm::Vendor,
    AlltoallvAlgorithm::PaddedBruck,
    AlltoallvAlgorithm::TwoPhaseBruck,
];

/// Every section name `figures` takes, in the order they run.
const SECTIONS: [&str; 15] = [
    "fig2a", "fig2b", "fig6", "fig7", "fig8", "fig9", "fig10", "fig10f", "fig11", "fig12", "fig13",
    "model", "radix", "ablation", "all",
];

fn main() {
    let mut which: Vec<String> = std::env::args().skip(1).collect();
    if which.is_empty() {
        which.push("all".to_string());
    }
    if let Some(bad) = which.iter().find(|w| !SECTIONS.contains(&w.as_str())) {
        eprintln!("unknown figure '{bad}'; expected one of {}", SECTIONS.join(" "));
        std::process::exit(2);
    }
    let want = |name: &str| which.iter().any(|w| w == name || w == "all");

    if want("fig2a") {
        fig2a();
    }
    if want("fig2b") {
        fig2b();
    }
    if want("fig6") {
        fig6();
    }
    if want("fig7") {
        fig7();
    }
    if want("fig8") {
        fig8();
    }
    if want("fig9") {
        fig9();
    }
    if want("fig10") {
        fig10();
    }
    if want("fig10f") {
        fig10f();
    }
    if want("fig11") {
        fig11();
    }
    if want("fig12") {
        fig12();
    }
    if want("fig13") {
        fig13();
    }
    if want("model") {
        model_table();
    }
    if want("radix") {
        radix_ablation();
    }
    if want("ablation") {
        sloav_ablation();
        memory_table();
        related_work_table();
    }
}

/// Figure 2a: the six uniform Bruck variants, N = 32 bytes.
fn fig2a() {
    let m = MachineModel::theta_like();
    let ps = [256usize, 512, 1024, 2048, 4096];
    let n = 32;
    let bruck_variants = &AlltoallAlgorithm::ALL[..6];
    let series: Vec<Series> = bruck_variants
        .iter()
        .map(|&algo| Series {
            label: algo.name().to_string(),
            ys: ps
                .iter()
                .map(|&p| to_ms(uniform_trace(algo, p, n, &RankSample::auto(p)).time(&m)))
                .collect(),
        })
        .collect();
    print_table("Fig 2a — uniform Bruck variants, N = 32 B (model, theta)", "P", &ps, &series, "ms");

    // Real-execution companion at thread-feasible scale.
    let real_ps = [32usize, 64, 128];
    let series: Vec<Series> = bruck_variants
        .iter()
        .map(|&algo| Series {
            label: algo.name().to_string(),
            ys: real_ps.iter().map(|&p| to_ms(time_alltoall(algo, p, n, 20))).collect(),
        })
        .collect();
    print_table(
        "Fig 2a companion — real threaded execution, N = 32 B (20 iters, median)",
        "P",
        &real_ps,
        &series,
        "ms",
    );
}

/// Figure 2b: phase breakdown for the three explicit variants.
fn fig2b() {
    let m = MachineModel::theta_like();
    let ps = [256usize, 512, 1024, 2048, 4096];
    let n = 32;
    println!("\n== Fig 2b — phase breakdown (model, theta, N = 32 B) ==");
    println!(
        "{:>6} {:>20} {:>12} {:>12} {:>12} {:>8}",
        "P", "algorithm", "rot-init ms", "comm ms", "rot-final ms", "rot %"
    );
    for &p in &ps {
        for algo in [
            AlltoallAlgorithm::BasicBruck,
            AlltoallAlgorithm::ModifiedBruck,
            AlltoallAlgorithm::ZeroRotationBruck,
        ] {
            let trace = uniform_trace(algo, p, n, &RankSample::auto(p));
            let mut local = Vec::new();
            let mut comm = 0.0;
            for step in &trace.steps {
                let t = step.time(&m, p);
                match step.kind {
                    StepKind::Local => local.push(t),
                    _ => comm += t,
                }
            }
            let init = local.first().copied().unwrap_or(0.0);
            let fin = if local.len() > 1 { local[1] } else { 0.0 };
            let total = init + comm + fin;
            println!(
                "{:>6} {:>20} {:>12.4} {:>12.4} {:>12.4} {:>7.1}%",
                p,
                algo.name(),
                to_ms(init),
                to_ms(comm),
                to_ms(fin),
                100.0 * (init + fin) / total
            );
        }
    }
}

/// Figure 6: data scaling — time vs N per process count.
fn fig6() {
    let m = MachineModel::theta_like();
    let ns = [16usize, 32, 64, 128, 256, 512, 1024, 2048];
    for p in [128usize, 512, 1024, 4096, 8192, 32768] {
        let series: Vec<Series> = FIG6_ALGOS
            .iter()
            .map(|&algo| Series {
                label: algo.name().to_string(),
                ys: ns
                    .iter()
                    .map(|&n| to_ms(predict(algo, Distribution::Uniform, SEED, p, n, &m)))
                    .collect(),
            })
            .collect();
        print_table(
            &format!("Fig 6 — data scaling, P = {p} (uniform distribution, model, theta)"),
            "N bytes",
            &ns,
            &series,
            "ms",
        );
    }
    // Real-execution companion at thread-feasible scale.
    let p = 64;
    let ns_real = [16usize, 128, 1024];
    let algos = [
        AlltoallvAlgorithm::SpreadOut,
        AlltoallvAlgorithm::Vendor,
        AlltoallvAlgorithm::PaddedBruck,
        AlltoallvAlgorithm::TwoPhaseBruck,
        AlltoallvAlgorithm::Sloav,
    ];
    let series: Vec<Series> = algos
        .iter()
        .map(|&algo| Series {
            label: algo.name().to_string(),
            ys: ns_real
                .iter()
                .map(|&n| {
                    let mat = SizeMatrix::generate(Distribution::Uniform, SEED, p, n);
                    to_ms(time_alltoallv(algo, &mat, 20))
                })
                .collect(),
        })
        .collect();
    print_table(
        &format!("Fig 6 companion — real threaded execution, P = {p} (20 iters, median)"),
        "N bytes",
        &ns_real,
        &series,
        "ms",
    );

    // Headline claim (§4.1): two-phase vs vendor at N = 256.
    println!("\nHeadline — two-phase speedup over MPI_Alltoallv at N = 256:");
    for p in [512usize, 1024, 2048, 4096] {
        let v = predict(AlltoallvAlgorithm::Vendor, Distribution::Uniform, SEED, p, 256, &m);
        let t = predict(AlltoallvAlgorithm::TwoPhaseBruck, Distribution::Uniform, SEED, p, 256, &m);
        println!("  P = {p:>5}: {:.1}% faster (paper: 50.1/38.5/35.8/30.8%)", 100.0 * (v - t) / v);
    }
}

/// Figure 7: weak scaling at N = 64 and N = 512.
fn fig7() {
    let m = MachineModel::theta_like();
    let ps = [128usize, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768];
    for n in [64usize, 512] {
        let series: Vec<Series> = FIG6_ALGOS
            .iter()
            .map(|&algo| Series {
                label: algo.name().to_string(),
                ys: ps
                    .iter()
                    .map(|&p| to_ms(predict(algo, Distribution::Uniform, SEED, p, n, &m)))
                    .collect(),
            })
            .collect();
        print_table(
            &format!("Fig 7 — weak scaling, N = {n} B (uniform distribution, model, theta)"),
            "P",
            &ps,
            &series,
            "ms",
        );
    }
}

/// Figure 8: sensitivity to the (100−r)-r window at P = 4096.
fn fig8() {
    let m = MachineModel::theta_like();
    let p = 4096;
    println!("\n== Fig 8 — sensitivity analysis, P = {p} (model, theta) ==");
    println!(
        "{:>8} {:>8} | {:>14} {:>14} {:>14} | winner",
        "N", "window", "Alltoallv ms", "two-phase ms", "padded ms"
    );
    for n in [16usize, 64, 256, 1024] {
        for r in [100u32, 80, 60, 40, 20, 0] {
            let dist = Distribution::Windowed { r };
            let v = predict(AlltoallvAlgorithm::Vendor, dist, SEED, p, n, &m);
            let t = predict(AlltoallvAlgorithm::TwoPhaseBruck, dist, SEED, p, n, &m);
            let pd = predict(AlltoallvAlgorithm::PaddedBruck, dist, SEED, p, n, &m);
            let mut marks = Vec::new();
            if t < v {
                marks.push("two-phase beats Alltoallv (green)");
            }
            if pd < t {
                marks.push("padded beats two-phase (red)");
            }
            println!(
                "{:>8} {:>8} | {:>14.3} {:>14.3} {:>14.3} | {}",
                n,
                dist.label(),
                to_ms(v),
                to_ms(t),
                to_ms(pd),
                marks.join("; ")
            );
        }
    }
}

/// Figure 9: the empirical performance model — crossover frontier.
fn fig9() {
    let m = MachineModel::theta_like();
    let grid: Vec<usize> = (3..=13).map(|e| 1usize << e).collect();
    println!("\n== Fig 9 — empirical performance model (model, theta) ==");
    println!(
        "{:>7} | {:>26} | {:>26}",
        "P", "two-phase beats Alltoallv up to N", "padded beats two-phase up to N"
    );
    for p in [128usize, 512, 1024, 4096, 8192, 16384, 32768] {
        let tv = crossover_n(
            AlltoallvAlgorithm::TwoPhaseBruck,
            AlltoallvAlgorithm::Vendor,
            Distribution::Uniform,
            SEED,
            p,
            &grid,
            &m,
        );
        let pt = crossover_n(
            AlltoallvAlgorithm::PaddedBruck,
            AlltoallvAlgorithm::TwoPhaseBruck,
            Distribution::Uniform,
            SEED,
            p,
            &grid,
            &m,
        );
        let show = |x: Option<usize>| x.map_or("never".to_string(), |n| format!("{n}"));
        println!("{:>7} | {:>26} | {:>26}", p, show(tv), show(pt));
    }
}

/// Figure 10(a–e): power-law and normal distributions.
fn fig10() {
    let m = MachineModel::theta_like();
    let ns = [16usize, 64, 256, 1024, 2048];
    let algos = [AlltoallvAlgorithm::Vendor, AlltoallvAlgorithm::TwoPhaseBruck, AlltoallvAlgorithm::PaddedBruck];
    for (dist, label) in [
        (Distribution::POWER_LAW_STEEP, "power-law base 0.99"),
        (Distribution::POWER_LAW_HEAVY, "power-law base 0.999"),
        (Distribution::Normal, "normal (±3σ window)"),
    ] {
        for p in [4096usize, 8192] {
            let series: Vec<Series> = algos
                .iter()
                .map(|&algo| Series {
                    label: algo.name().to_string(),
                    ys: ns.iter().map(|&n| to_ms(predict(algo, dist, SEED, p, n, &m))).collect(),
                })
                .collect();
            print_table(
                &format!("Fig 10 — {label}, P = {p} (model, theta)"),
                "N bytes",
                &ns,
                &series,
                "ms",
            );
        }
        // Average two-phase speedup at P = 8192 across the N sweep.
        let speedups: Vec<f64> = ns
            .iter()
            .map(|&n| {
                let v = predict(AlltoallvAlgorithm::Vendor, dist, SEED, 8192, n, &m);
                let t = predict(AlltoallvAlgorithm::TwoPhaseBruck, dist, SEED, 8192, n, &m);
                100.0 * (v - t) / v
            })
            .collect();
        let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
        println!("  avg two-phase speedup over Alltoallv at P = 8192 ({label}): {avg:.1}%");
    }
    // §4.3's volume comparison: total bytes per process.
    let steep: u64 = DistSourceTotal(Distribution::POWER_LAW_STEEP, 4096, 1024).total();
    let norm: u64 = DistSourceTotal(Distribution::Normal, 4096, 1024).total();
    println!(
        "  total bytes/process at P = 4096, N = 1024: power-law(0.99) {steep} vs normal {norm} \
         (paper: 203,928 vs 1,593,933)"
    );
}

/// Helper: per-process total volume of a distribution.
struct DistSourceTotal(Distribution, usize, usize);
impl DistSourceTotal {
    fn total(&self) -> u64 {
        use bruck_model::SizeSource;
        DistSource::new(self.0, SEED, self.1, self.2).row_sum(0)
    }
}

/// Figure 10f: the distributions themselves.
fn fig10f() {
    println!("\n== Fig 10f — block-size distributions (histograms, P = 4096, N = 1024) ==");
    for (dist, label) in [
        (Distribution::Uniform, "uniform"),
        (Distribution::Normal, "normal"),
        (Distribution::POWER_LAW_STEEP, "power-law 0.99"),
        (Distribution::POWER_LAW_HEAVY, "power-law 0.999"),
    ] {
        let row = dist.sample_row(SEED, 0, 4096, 1024);
        let h = histogram(&row, 1024, 16);
        let max = *h.iter().max().unwrap() as f64;
        println!("{label:>18}:");
        for (i, &c) in h.iter().enumerate() {
            let bar = "#".repeat((c as f64 / max * 50.0).round() as usize);
            println!("    [{:>4}-{:>4}] {bar} {c}", i * 64, (i + 1) * 64);
        }
    }
}

/// Figure 11: transitive closure, vendor vs two-phase (real execution). Per
/// algorithm: the run, its exchanges (`comm`), and the rest (`local`: join,
/// dedup, encode), each the maximum over ranks.
fn fig11() {
    println!("\n== Fig 11 — transitive closure strong scaling (real threaded runs) ==");
    let graph1 = graph1_like(8, 160, 80, SEED);
    let graph2 = graph2_like(420, 1700, SEED);
    for (edges, label) in [(&graph1, "Graph 1 (deep)"), (&graph2, "Graph 2 (bushy)")] {
        println!("\n  {label}: {} edges", edges.len());
        println!(
            "  {:>4} | {:>12} {:>9} {:>9} | {:>12} {:>9} {:>9} | {:>6} {:>9}",
            "P", "Alltoallv ms", "comm ms", "local ms", "two-phase ms", "comm ms", "local ms",
            "iters", "paths"
        );
        for p in [2usize, 4, 8, 16] {
            let mut row = Vec::new();
            let mut meta = (0usize, 0u64);
            for algo in [AlltoallvAlgorithm::Vendor, AlltoallvAlgorithm::TwoPhaseBruck] {
                let e = edges.clone();
                let results =
                    ThreadComm::run(p, move |comm| transitive_closure(comm, algo, &e).unwrap());
                let max_ms = |f: fn(&TcResult) -> Duration| {
                    results.iter().map(|r| to_ms(f(r).as_secs_f64())).fold(0.0f64, f64::max)
                };
                meta = (results[0].iterations, results[0].total_paths);
                row.push([
                    max_ms(|r| r.total_time),
                    max_ms(|r| r.comm_time),
                    max_ms(|r| r.total_time.saturating_sub(r.comm_time)),
                ]);
            }
            println!(
                "  {:>4} | {:>12.2} {:>9.2} {:>9.2} | {:>12.2} {:>9.2} {:>9.2} | {:>6} {:>9}",
                p,
                row[0][0],
                row[0][1],
                row[0][2],
                row[1][0],
                row[1][1],
                row[1][2],
                meta.0,
                meta.1
            );
        }
    }
}

/// Figure 12: kCFA-like iterated exchange (real execution).
fn fig12() {
    println!("\n== Fig 12 — kCFA-like iterated exchanges (real threaded run, P = 16) ==");
    let cfg = KcfaConfig { iterations: 300, base_facts: 24, seed: SEED };
    let mut summaries = Vec::new();
    for algo in [AlltoallvAlgorithm::Vendor, AlltoallvAlgorithm::TwoPhaseBruck] {
        let results = ThreadComm::run(16, move |comm| kcfa_like_run(comm, algo, &cfg).unwrap());
        summaries.push((algo, results.into_iter().next().unwrap()));
    }
    let (_, vendor) = &summaries[0];
    let (_, two_phase) = &summaries[1];
    let total = |r: &bruck_bpra::KcfaResult| -> f64 {
        r.per_iteration.iter().map(|s| s.comm_time.as_secs_f64()).sum()
    };
    println!(
        "  total all-to-all time over {} iterations: Alltoallv {:.1} ms, two-phase {:.1} ms \
         ({:.2}x)",
        cfg.iterations,
        to_ms(total(vendor)),
        to_ms(total(two_phase)),
        total(vendor) / total(two_phase)
    );
    let wins = vendor
        .per_iteration
        .iter()
        .zip(&two_phase.per_iteration)
        .filter(|(v, t)| t.comm_time < v.comm_time)
        .count();
    println!("  iterations where two-phase is faster: {wins}/{}", cfg.iterations);
    let ns: Vec<usize> = vendor.per_iteration.iter().map(|s| s.n_max).collect();
    let small = ns.iter().filter(|&&n| n < 1000).count();
    println!(
        "  max block size N: min {} / median {} / max {}; iterations with N < 1000 B: {}/{}",
        ns.iter().min().unwrap(),
        {
            let mut v = ns.clone();
            v.sort_unstable();
            v[v.len() / 2]
        },
        ns.iter().max().unwrap(),
        small,
        cfg.iterations
    );
    println!("\n  first 20 iterations (comm µs):");
    println!("  {:>5} {:>12} {:>12} {:>8}", "iter", "Alltoallv", "two-phase", "N");
    for i in 0..20 {
        println!(
            "  {:>5} {:>12.1} {:>12.1} {:>8}",
            i,
            vendor.per_iteration[i].comm_time.as_secs_f64() * 1e6,
            two_phase.per_iteration[i].comm_time.as_secs_f64() * 1e6,
            vendor.per_iteration[i].n_max
        );
    }
}

/// Figure 13: weak scaling on the Cori- and Stampede-like machines.
fn fig13() {
    let ps = [128usize, 512, 2048, 8192, 32768];
    for machine in [MachineModel::cori_like(), MachineModel::stampede_like()] {
        let series: Vec<Series> = [
            AlltoallvAlgorithm::Vendor,
            AlltoallvAlgorithm::TwoPhaseBruck,
            AlltoallvAlgorithm::PaddedBruck,
        ]
        .iter()
        .map(|&algo| Series {
            label: algo.name().to_string(),
            ys: ps
                .iter()
                .map(|&p| to_ms(predict(algo, Distribution::Normal, SEED, p, 64, &machine)))
                .collect(),
        })
        .collect();
        print_table(
            &format!("Fig 13 — weak scaling, normal distribution, N = 64 B ({})", machine.name),
            "P",
            &ps,
            &series,
            "ms",
        );
    }
}

/// Extension ablation: the radix knob on two-phase Bruck (model sweep).
fn radix_ablation() {
    let m = MachineModel::theta_like();
    let ns = [16usize, 64, 256, 1024, 4096, 16384];
    for p in [1024usize, 4096, 32768] {
        let sample = RankSample::auto(p);
        let series: Vec<Series> = [2usize, 4, 8, 16]
            .iter()
            .map(|&radix| Series {
                label: format!("two-phase radix {radix}"),
                ys: ns
                    .iter()
                    .map(|&n| {
                        let s = DistSource::new(Distribution::Uniform, SEED, p, n);
                        let cfg = EngineConfig { radix, ..EngineConfig::as_two_phase() };
                        to_ms(nonuniform_trace(cfg, &s, &sample).time(&m))
                    })
                    .collect(),
            })
            .collect();
        print_table(
            &format!("Radix ablation — two-phase Bruck, P = {p} (model, theta)"),
            "N bytes",
            &ns,
            &series,
            "ms",
        );
        // Best radix per N — the tunable-radix headline.
        print!("  best radix by N:");
        for (i, &n) in ns.iter().enumerate() {
            let best = series
                .iter()
                .min_by(|a, b| a.ys[i].partial_cmp(&b.ys[i]).unwrap())
                .unwrap()
                .label
                .clone();
            print!(" N={n}:{}", best.trim_start_matches("two-phase radix "));
        }
        println!();
    }
}

/// §6.1 ablation: where SLOAV loses to two-phase Bruck, phase by phase
/// (real threaded runs; per-call means over 20 iterations, read from the
/// engine's `bruck-probe` spans). The span timelines behind the table are
/// written to `target/bruck-bench/ablation.trace.json`.
fn sloav_ablation() {
    const ITERS: usize = 20;
    println!("\n== §6.1 ablation — SLOAV vs two-phase Bruck phase breakdown (real, P = 32) ==");
    println!(
        "{:>6} {:>16} | {:>10} {:>10} {:>10} {:>10} {:>10}",
        "N", "algorithm", "allred µs", "meta µs", "data µs", "copy µs", "scan µs"
    );
    let p = 32;
    let mut trace_cells = Vec::new();
    for n in [32usize, 256, 2048] {
        let m = SizeMatrix::generate(Distribution::Uniform, SEED, p, n);
        for (name, family, cfg) in [
            ("two-phase", "two_phase.", EngineConfig::as_two_phase()),
            ("SLOAV", "sloav.", EngineConfig::as_sloav()),
        ] {
            let (_, timelines) =
                time_on_threads(&m, ITERS, true, |comm, d, recvbuf| d.exchange(comm, &cfg, recvbuf));
            // Per rank: nanoseconds in [allreduce, meta, data, copy, scan].
            let phases = timelines.iter().map(|timeline| {
                let mut columns = [0u64; 5];
                for event in &timeline.events {
                    let column = match event.name.strip_prefix(family) {
                        Some("allreduce") => 0,
                        Some("meta") => 1,
                        Some("data") => 2,
                        Some("pack" | "scatter") => 3,
                        Some("scan") => 4,
                        _ => continue,
                    };
                    columns[column] += event.dur_ns;
                }
                columns
            });
            let slowest = phases.max_by_key(|c| c.iter().sum::<u64>()).unwrap_or_default();
            let [allreduce, meta, data, copy, scan] =
                slowest.map(|ns| ns as f64 / 1e3 / ITERS as f64);
            println!(
                "{n:>6} {name:>16} | {allreduce:>10.1} {meta:>10.1} {data:>10.1} {copy:>10.1} \
                 {scan:>10.1}"
            );
            trace_cells.push((format!("{name}/N={n}"), timelines));
        }
    }
    println!("  (two-phase: no scan phase, one exposed latency per step — the §6.1 improvements;");
    println!("   allred is an empty marker span: neither layout sizes a buffer)");
    let path = Path::new("target").join("bruck-bench").join("ablation.trace.json");
    match write_text(&path, &chrome_trace_json(&trace_cells)) {
        Ok(()) => println!("  span timelines: {} (chrome://tracing, Perfetto)", path.display()),
        Err(e) => eprintln!("  cannot write {}: {e}", path.display()),
    }
}

/// §3.2's space trade-off: auxiliary memory per algorithm.
fn memory_table() {
    use bruck_core::memory_overhead_bytes;
    println!("\n== memory overhead per rank (P = 4096, N = 512, uniform totals) ==");
    let (p, n) = (4096usize, 512usize);
    let totals = p * n / 2;
    for algo in [
        AlltoallvAlgorithm::Vendor,
        AlltoallvAlgorithm::TwoPhaseBruck,
        AlltoallvAlgorithm::PaddedBruck,
        AlltoallvAlgorithm::Sloav,
        AlltoallvAlgorithm::Hierarchical,
    ] {
        let bytes = memory_overhead_bytes(algo, p, n, totals, totals);
        println!("  {:<16} {:>12} bytes ({:.1} MiB)", algo.name(), bytes, bytes as f64 / (1 << 20) as f64);
    }
}

/// Related-work baseline (§6) under the model: the leader-based
/// hierarchical exchange vs the paper's algorithms.
fn related_work_table() {
    let m = MachineModel::theta_like();
    let ns = [16usize, 128, 1024];
    for p in [512usize, 4096] {
        let series: Vec<Series> = [
            AlltoallvAlgorithm::Vendor,
            AlltoallvAlgorithm::TwoPhaseBruck,
            AlltoallvAlgorithm::Hierarchical,
        ]
        .iter()
        .map(|&algo| Series {
            label: algo.name().to_string(),
            ys: ns
                .iter()
                .map(|&n| to_ms(predict(algo, Distribution::Uniform, SEED, p, n, &m)))
                .collect(),
        })
        .collect();
        print_table(
            &format!("Related-work baselines (§6), P = {p} (model, theta)"),
            "N bytes",
            &ns,
            &series,
            "ms",
        );
    }
}

/// §3.3: the closed-form model and inequality (3), over the machine's α(P)
/// and β. Printed, not selected with: every selection ranks trace times.
fn model_table() {
    let m = MachineModel::theta_like();
    println!(
        "\n== §3.3 theoretical model ({}: α(P) = {} + {}·P, β = {}) ==",
        m.name, m.alpha0, m.alpha_per_rank, m.beta
    );
    println!(
        "{:>7} {:>7} | {:>12} {:>12} {:>12} | {:>8}",
        "P", "N", "padded ms", "two-ph ms", "spread ms", "ineq(3)"
    );
    for p in [128usize, 1024, 4096, 32768] {
        for n in [4usize, 8, 64, 512, 4096] {
            println!(
                "{:>7} {:>7} | {:>12.4} {:>12.4} {:>12.4} | {:>8}",
                p,
                n,
                to_ms(padded_bruck_cost(p, n, &m)),
                to_ms(two_phase_bruck_cost(p, n, &m)),
                to_ms(spread_out_cost(p, n, &m)),
                padded_beats_two_phase(p, n, &m)
            );
        }
    }

    // The closed forms price the paper's schedule (eq (2): a metadata and a
    // data latency per step); the trace prices this engine's two-phase
    // (⌈log₂ P⌉ + 1 latencies and no sizing allreduce).
    // Where latency decides, the two can name different winners: reported,
    // not asserted.
    println!("\n  padded/two-phase winner — the paper's closed form vs this engine's trace:");
    for (p, n) in [(1024usize, 8usize), (1024, 2048), (8192, 8), (8192, 2048)] {
        let closed = padded_beats_two_phase(p, n, &m);
        let padded = predict(AlltoallvAlgorithm::PaddedBruck, Distribution::Uniform, SEED, p, n, &m);
        let two = predict(AlltoallvAlgorithm::TwoPhaseBruck, Distribution::Uniform, SEED, p, n, &m);
        println!(
            "    P={p:>5} N={n:>5}: closed-form says padded wins = {closed}, trace says {}",
            padded < two
        );
    }
}
