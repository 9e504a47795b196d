//! # bruck-bench — measurement harness shared by the figure binary and the
//! `[[bench]]` targets (all driven by the std-only [`harness`] module).
//!
//! Two measurement paths, per DESIGN.md:
//! * **Real execution** ([`time_alltoallv`], [`time_alltoall`]) — the actual
//!   `bruck-core` implementations on a threaded communicator, P ≤ a few
//!   hundred, timed like the paper (median of repeated iterations, max across
//!   ranks per iteration).
//! * **Model prediction** — `bruck-model` trace sweeps up to P = 32768
//!   (driven from `src/bin/figures.rs`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod export;
pub mod harness;

use std::time::Instant;

use bruck_comm::{Communicator, ThreadComm};
use bruck_core::{
    alltoall, alltoallv, packed_displs, AlltoallAlgorithm, AlltoallvAlgorithm, EngineConfig,
    PaddingRule,
};
use bruck_workload::SizeMatrix;

/// The candidate set `bruck-tune` measures, calibrates on and selects from:
/// all nine named points plus four off-point members of the knob space no
/// algorithm name covers. Shared with the workspace tests, which hold every
/// one of them to its model trace.
pub fn tune_candidates() -> Vec<EngineConfig> {
    let mut out: Vec<EngineConfig> =
        EngineConfig::named_points().iter().map(|(cfg, _)| *cfg).collect();
    out.extend([
        // Radix-4 two-phase Bruck: fewer phases, more steps per phase.
        EngineConfig { radix: 4, ..EngineConfig::as_two_phase() },
        // Radix-4 block-view (SLOAV-style) Bruck.
        EngineConfig { radix: 4, ..EngineConfig::as_sloav() },
        // Tightly throttled direct exchange (window 8 instead of the vendor 32).
        EngineConfig { throttle_window: Some(8), ..EngineConfig::as_spread_out() },
        // Adaptive padding: pad only when the global max block is small.
        EngineConfig { padding: PaddingRule::Threshold(64), ..EngineConfig::as_two_phase() },
    ]);
    out
}

/// Median of a sample (not-NaN f64s).
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Median absolute deviation — the error bar the paper plots (its ref. 24).
pub fn mad(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    let med = median(&mut v);
    let mut dev: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
    median(&mut dev)
}

/// Time a non-uniform all-to-all on a real threaded communicator.
///
/// Runs `iters` timed iterations (after one warm-up); each iteration's time
/// is the maximum across ranks (barrier-aligned), and the reported value is
/// the median across iterations — the paper's §2.2 methodology.
pub fn time_alltoallv(algo: AlltoallvAlgorithm, m: &SizeMatrix, iters: usize) -> f64 {
    let p = m.p();
    let per_rank: Vec<Vec<f64>> = ThreadComm::run(p, |comm| {
        let me = comm.rank();
        let sendcounts = m.sendcounts(me);
        let sdispls = packed_displs(&sendcounts);
        let sendbuf: Vec<u8> = (0..sendcounts.iter().sum()).map(|i| i as u8).collect();
        let recvcounts = m.recvcounts(me);
        let rdispls = packed_displs(&recvcounts);
        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
        let mut times = Vec::with_capacity(iters);
        for it in 0..=iters {
            comm.barrier().unwrap();
            let start = Instant::now();
            alltoallv(
                algo, comm, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
            )
            .unwrap();
            if it > 0 {
                times.push(start.elapsed().as_secs_f64());
            }
        }
        times
    });
    per_iter_median(&per_rank)
}

/// Time a uniform all-to-all the same way.
pub fn time_alltoall(algo: AlltoallAlgorithm, p: usize, block: usize, iters: usize) -> f64 {
    let per_rank: Vec<Vec<f64>> = ThreadComm::run(p, |comm| {
        let sendbuf: Vec<u8> = (0..p * block).map(|i| i as u8).collect();
        let mut recvbuf = vec![0u8; p * block];
        let mut times = Vec::with_capacity(iters);
        for it in 0..=iters {
            comm.barrier().unwrap();
            let start = Instant::now();
            alltoall(algo, comm, &sendbuf, &mut recvbuf, block).unwrap();
            if it > 0 {
                times.push(start.elapsed().as_secs_f64());
            }
        }
        times
    });
    per_iter_median(&per_rank)
}

/// Median over iterations of (max over ranks per iteration).
fn per_iter_median(per_rank: &[Vec<f64>]) -> f64 {
    let iters = per_rank[0].len();
    let mut per_iter: Vec<f64> = (0..iters)
        .map(|i| per_rank.iter().map(|r| r[i]).fold(0.0f64, f64::max))
        .collect();
    median(&mut per_iter)
}

/// One labelled series of (x, seconds) points for table rendering.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (matches the paper's figure legends).
    pub label: String,
    /// y-values, aligned with the table's x-axis.
    pub ys: Vec<f64>,
}

/// Render series as an aligned text table, x down the side, one column per
/// series — the textual equivalent of one subplot.
pub fn print_table(title: &str, x_name: &str, xs: &[usize], series: &[Series], unit: &str) {
    println!("\n== {title} ==");
    print!("{x_name:>10}");
    for s in series {
        print!(" | {:>18}", s.label);
    }
    println!(" ({unit})");
    println!("{}", "-".repeat(11 + series.len() * 21));
    for (i, &x) in xs.iter().enumerate() {
        print!("{x:>10}");
        for s in series {
            let y = s.ys.get(i).copied().unwrap_or(f64::NAN);
            print!(" | {:>18.4}", y);
        }
        println!();
    }
}

/// Format seconds as milliseconds for tables.
pub fn to_ms(seconds: f64) -> f64 {
    seconds * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use bruck_workload::Distribution;

    #[test]
    fn median_and_mad() {
        let mut xs = [5.0, 1.0, 3.0];
        assert_eq!(median(&mut xs), 3.0);
        let mut even = [1.0, 2.0, 3.0, 10.0];
        assert_eq!(median(&mut even), 2.5);
        assert_eq!(mad(&[1.0, 1.0, 1.0]), 0.0);
        assert!(mad(&[1.0, 2.0, 9.0]) > 0.0);
    }

    #[test]
    fn real_timing_runs_and_is_positive() {
        let m = SizeMatrix::generate(Distribution::Uniform, 1, 8, 64);
        for algo in [AlltoallvAlgorithm::Vendor, AlltoallvAlgorithm::TwoPhaseBruck] {
            let t = time_alltoallv(algo, &m, 3);
            assert!(t > 0.0 && t < 5.0, "{algo:?}: {t}");
        }
        let t = time_alltoall(AlltoallAlgorithm::ZeroRotationBruck, 8, 32, 3);
        assert!(t > 0.0 && t < 5.0);
    }
}
