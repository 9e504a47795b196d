//! Calibrate the cost model against *this machine's* real measurements —
//! the measurement→model→prediction loop the paper's conclusion calls for.
//!
//! Measures the real threaded runtime at small P across (P, N, algorithm),
//! fits the effective α/β parameters by coordinate descent, and reports the
//! residuals.
//!
//! Run with: `cargo run --release --example calibrate`

use bruck_bench::time_alltoallv;
use bruck_core::AlltoallvAlgorithm;
use bruck_model::{calibrate, fit_error, predict, FitSample, MachineModel};
use bruck_workload::{Distribution, SizeMatrix};

fn main() {
    const SEED: u64 = 7;
    let algos = [
        AlltoallvAlgorithm::Vendor,
        AlltoallvAlgorithm::TwoPhaseBruck,
        AlltoallvAlgorithm::PaddedBruck,
    ];

    println!("measuring real threaded all-to-alls (median of 10 iterations each)...");
    let mut samples = Vec::new();
    for p in [8usize, 16, 32] {
        for n in [32usize, 256, 2048] {
            let m = SizeMatrix::generate(Distribution::Uniform, SEED, p, n);
            for algo in algos {
                // The sample is keyed by the engine config that was measured.
                let seconds = time_alltoallv(algo, &m, 10);
                samples.push(FitSample { p, n, config: algo.into(), seconds });
            }
        }
    }
    println!("  {} samples collected", samples.len());

    // Start from the Theta preset — wildly wrong for a laptop — and fit.
    let start = MachineModel::theta_like();
    let before = fit_error(&samples, Distribution::Uniform, SEED, &start);
    let fitted = calibrate(&samples, Distribution::Uniform, SEED, &start, 30);
    let after = fit_error(&samples, Distribution::Uniform, SEED, &fitted);

    println!("\nfit quality (mean squared log error): {before:.3} → {after:.3}");
    println!("fitted machine parameters for this host:");
    println!("  alpha0     = {:>10.2} µs  (theta preset: {:.2} µs)", fitted.alpha0 * 1e6, start.alpha0 * 1e6);
    println!("  inject     = {:>10.2} µs  (theta preset: {:.2} µs)", fitted.inject * 1e6, start.inject * 1e6);
    println!("  beta       = {:>10.3} ns/B ({:.1} MB/s)", fitted.beta * 1e9, 1.0 / fitted.beta / 1e6);
    println!("  beta_pair  = {:>10.3} ns/B ({:.1} MB/s)", fitted.beta_pair * 1e9, 1.0 / fitted.beta_pair / 1e6);

    println!("\nper-sample residuals (predicted / measured):");
    for s in &samples {
        let pred = predict(s.config, Distribution::Uniform, SEED, s.p, s.n, &fitted);
        println!(
            "  P={:>3} N={:>5} {:<46} measured {:>9.1} µs, predicted {:>9.1} µs ({:>5.2}x)",
            s.p,
            s.n,
            s.config.key(),
            s.seconds * 1e6,
            pred * 1e6,
            pred / s.seconds
        );
    }
    println!("\n(use the fitted MachineModel to sweep P beyond what threads can emulate)");
}
