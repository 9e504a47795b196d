//! Point predictions and crossover extraction (Figures 6–10, 13 and the
//! empirical performance model of Figure 9).

use crate::par::par_map;
use crate::{nonuniform_trace, DistSource, MachineModel, RankSample};
use bruck_core::EngineConfig;
use bruck_workload::Distribution;

/// Predicted time of one engine config (or algorithm id, i.e. its named
/// point) on one workload point: the time of its trace — the cost function
/// every calibration, sweep and selection in the repo goes through.
pub fn predict(
    cfg: impl Into<EngineConfig>,
    dist: Distribution,
    seed: u64,
    p: usize,
    n: usize,
    machine: &MachineModel,
) -> f64 {
    let source = DistSource::new(dist, seed, p, n);
    nonuniform_trace(cfg, &source, &RankSample::auto(p)).time(machine)
}

/// The largest `n` in `n_grid` for which `a` is predicted to beat `b`
/// (Figure 9's crossover threshold). `None` if `a` never wins.
pub fn crossover_n(
    a: impl Into<EngineConfig>,
    b: impl Into<EngineConfig>,
    dist: Distribution,
    seed: u64,
    p: usize,
    n_grid: &[usize],
    machine: &MachineModel,
) -> Option<usize> {
    let (a, b) = (a.into(), b.into());
    let wins: Vec<(usize, bool)> = par_map(n_grid, |&n| {
        (n, predict(a, dist, seed, p, n, machine) < predict(b, dist, seed, p, n, machine))
    });
    wins.into_iter().filter(|&(_, w)| w).map(|(n, _)| n).max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bruck_core::AlltoallvAlgorithm;

    const SEED: u64 = 2022;

    #[test]
    fn two_phase_beats_vendor_at_small_n_loses_at_huge_n() {
        let m = MachineModel::theta_like();
        let p = 1024;
        let small = predict(AlltoallvAlgorithm::TwoPhaseBruck, Distribution::Uniform, SEED, p, 64, &m);
        let vendor_small = predict(AlltoallvAlgorithm::Vendor, Distribution::Uniform, SEED, p, 64, &m);
        assert!(small < vendor_small, "two-phase must win at N=64: {small} vs {vendor_small}");
        let huge =
            predict(AlltoallvAlgorithm::TwoPhaseBruck, Distribution::Uniform, SEED, p, 1 << 16, &m);
        let vendor_huge =
            predict(AlltoallvAlgorithm::Vendor, Distribution::Uniform, SEED, p, 1 << 16, &m);
        assert!(huge > vendor_huge, "vendor must win at N=64K: {huge} vs {vendor_huge}");
    }

    #[test]
    fn crossover_declines_with_p() {
        // Figure 9's main trend: the N range where two-phase wins shrinks as
        // P grows.
        let m = MachineModel::theta_like();
        let grid: Vec<usize> = (4..=14).map(|e| 1usize << e).collect();
        let at = |p| {
            crossover_n(
                AlltoallvAlgorithm::TwoPhaseBruck,
                AlltoallvAlgorithm::Vendor,
                Distribution::Uniform,
                SEED,
                p,
                &grid,
                &m,
            )
            .unwrap_or(0)
        };
        let lo = at(512);
        let hi = at(16384);
        assert!(lo >= hi, "crossover at P=512 ({lo}) must be ≥ at P=16384 ({hi})");
        assert!(lo >= 256, "two-phase should win well past N=256 at P=512 (got {lo})");
    }

    #[test]
    fn padded_wins_only_for_tiny_blocks() {
        let m = MachineModel::theta_like();
        let p = 1024;
        let grid = [8usize, 16, 32, 64, 128, 256, 512, 1024];
        let cross = crossover_n(
            AlltoallvAlgorithm::PaddedBruck,
            AlltoallvAlgorithm::TwoPhaseBruck,
            Distribution::Uniform,
            SEED,
            p,
            &grid,
            &m,
        );
        // Padded may win at the small end but must lose by N=512.
        if let Some(n) = cross {
            assert!(n <= 256, "padded Bruck should stop winning by N=256, got {n}");
        }
        let padded = predict(AlltoallvAlgorithm::PaddedBruck, Distribution::Uniform, SEED, p, 1024, &m);
        let two = predict(AlltoallvAlgorithm::TwoPhaseBruck, Distribution::Uniform, SEED, p, 1024, &m);
        assert!(two < padded, "two-phase must dominate padded at N=1024");
    }
}
