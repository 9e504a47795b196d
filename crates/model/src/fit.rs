//! Calibration: fit a [`MachineModel`]'s effective parameters to measured
//! all-to-all timings.
//!
//! The paper's conclusion calls for "a more rigorous performance model" fed
//! by measurements across machines; this module is the fitting half of that
//! loop. Given `(P, N, engine config) → seconds` samples (e.g. from the real
//! threaded runs in `bruck-bench`, or from a user's actual cluster), it
//! coordinate-descends the dominant parameters (`alpha0`, `inject`, `beta`,
//! `beta_pair`) to minimize the mean squared *log* error — log error because
//! the sweep spans four orders of magnitude and we care about relative fit.

use crate::par::par_map;
use crate::{predict, MachineModel};
use bruck_core::EngineConfig;
use bruck_workload::Distribution;

/// One measured data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitSample {
    /// Communicator size.
    pub p: usize,
    /// Maximum block size (bytes).
    pub n: usize,
    /// Engine config measured — any point of the knob space calibrates.
    pub config: EngineConfig,
    /// Measured wall-clock seconds.
    pub seconds: f64,
}

/// Mean squared log error of `machine` against the samples.
pub fn fit_error(samples: &[FitSample], dist: Distribution, seed: u64, machine: &MachineModel) -> f64 {
    let errors = par_map(samples, |s| {
        let predicted = predict(s.config, dist, seed, s.p, s.n, machine).max(1e-12);
        let e = (predicted / s.seconds.max(1e-12)).ln();
        e * e
    });
    errors.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Fit `alpha0`, `inject` (+unthrottled, scaled together), `beta`, and
/// `beta_pair` by multiplicative coordinate descent from `start`.
///
/// `rounds` full passes; each pass tries ×/÷ step factors per parameter and
/// keeps improvements, shrinking the step when a pass stalls. Deterministic.
pub fn calibrate(
    samples: &[FitSample],
    dist: Distribution,
    seed: u64,
    start: &MachineModel,
    rounds: usize,
) -> MachineModel {
    let mut best = start.clone();
    let mut best_err = fit_error(samples, dist, seed, &best);
    let mut step = 2.0f64;

    for _ in 0..rounds {
        let mut improved = false;
        for param in 0..4 {
            for &factor in &[step, 1.0 / step] {
                let mut candidate = best.clone();
                match param {
                    0 => candidate.alpha0 *= factor,
                    1 => {
                        candidate.inject *= factor;
                        candidate.inject_unthrottled *= factor;
                    }
                    2 => candidate.beta *= factor,
                    _ => candidate.beta_pair *= factor,
                }
                // Keep the structural invariant that all-pairs flows contend
                // at least as badly as permutation steps.
                if candidate.beta_pair < candidate.beta {
                    continue;
                }
                let err = fit_error(samples, dist, seed, &candidate);
                if err < best_err {
                    best = candidate;
                    best_err = err;
                    improved = true;
                }
            }
        }
        if !improved {
            step = step.sqrt();
            if step < 1.01 {
                break;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 99;

    /// Synthesize "measurements" from a known machine.
    fn synth_samples(truth: &MachineModel) -> Vec<FitSample> {
        let mut out = Vec::new();
        for p in [64usize, 128, 256] {
            for n in [16usize, 128, 1024] {
                for config in [
                    EngineConfig::as_vendor(),
                    EngineConfig::as_two_phase(),
                    EngineConfig::as_padded_bruck(),
                ] {
                    out.push(FitSample {
                        p,
                        n,
                        config,
                        seconds: predict(config, Distribution::Uniform, SEED, p, n, truth),
                    });
                }
            }
        }
        out
    }

    #[test]
    fn error_is_zero_on_the_generating_machine() {
        let truth = MachineModel::theta_like();
        let samples = synth_samples(&truth);
        assert!(fit_error(&samples, Distribution::Uniform, SEED, &truth) < 1e-20);
    }

    #[test]
    fn calibrate_recovers_perturbed_parameters() {
        let truth = MachineModel::theta_like();
        let samples = synth_samples(&truth);
        // Start 4–8× off in every fitted dimension.
        let mut start = truth.clone();
        start.alpha0 *= 8.0;
        start.inject /= 4.0;
        start.inject_unthrottled /= 4.0;
        start.beta *= 4.0;
        start.beta_pair /= 2.0;
        let before = fit_error(&samples, Distribution::Uniform, SEED, &start);
        let fitted = calibrate(&samples, Distribution::Uniform, SEED, &start, 25);
        let after = fit_error(&samples, Distribution::Uniform, SEED, &fitted);
        assert!(after < before / 100.0, "fit must improve ≥100×: {before} → {after}");
        // Predictions within 25% across the sample grid.
        for s in &samples {
            let pred = predict(s.config, Distribution::Uniform, SEED, s.p, s.n, &fitted);
            let ratio = pred / s.seconds;
            assert!((0.75..1.34).contains(&ratio), "{:?}: ratio {ratio}", (s.p, s.n, s.config));
        }
    }

    #[test]
    fn calibrate_respects_beta_ordering() {
        let truth = MachineModel::theta_like();
        let samples = synth_samples(&truth);
        let fitted = calibrate(&samples, Distribution::Uniform, SEED, &truth, 5);
        assert!(fitted.beta_pair >= fitted.beta);
    }
}
