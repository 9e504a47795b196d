//! Online auto-tuner: the observe → refit → select loop that closes the
//! paper's "more rigorous performance model" call with live
//! [`MeteredComm`](bruck_comm)-style measurements, and the adaptive
//! `alltoallv` that runs a selection at call time.
//!
//! ## One cost function
//!
//! The tuner has no cost formula of its own. `observe` keys every
//! measurement by the [`EngineConfig`] that produced it, `refit` calibrates
//! the machine parameters through [`fit_error`] → [`predict`], and `select`
//! ranks candidates by the same [`predict`] — the time of the config's
//! byte-exact trace ([`crate::nonuniform_trace`]) under the current
//! [`MachineModel`]. What is fitted is what selects, any measured config
//! calibrates (not only the named points), and two distributions with the
//! same mean are told apart because the trace sees the block sizes, not
//! their average.
//!
//! Per knob, the trace prices: the Bruck radix's trade of steps
//! `(r−1)·⌈log_r P⌉` (α) against forwards `⌈log_r P⌉` (β, γ); the throttle
//! window's injection class; padding's sizing allreduce, `N`-byte slots and
//! pad/scan copies against the per-step metadata it drops; the combined
//! coupling's (`two_phase_split = false`) extra pack pass and per-block
//! parsing (§6.1); the block-view layout's final scan and pointer-array
//! bookkeeping that the monolithic layout's in-place delivery avoids.
//!
//! ## Tuner state machine ([`AutoTuner`])
//!
//! `observe` (accumulate config-keyed measurements) → `refit`
//! (coordinate-descend the machine parameters on the accumulated samples,
//! [`calibrate`]) → `select` (candidates ranked by [`predict`]).
//! `bruck-bench tune` drives this loop on EventComm and records the winners
//! in its artifact's `selections`. A memory budget is a filter on the
//! candidate slice (`bruck_core::memory_overhead_bytes`), not a second
//! selector.

use bruck_comm::{CommResult, Communicator, ReduceOp};
use bruck_core::{configurable_alltoallv, EngineConfig};
use bruck_workload::Distribution;

use crate::{calibrate, fit_error, predict, FitSample, MachineModel};

/// The observe → refit → select state machine. See the module docs.
#[derive(Debug, Clone)]
pub struct AutoTuner {
    machine: MachineModel,
    samples: Vec<FitSample>,
}

impl AutoTuner {
    /// Start from a machine preset (refined by [`AutoTuner::refit`]).
    pub fn new(start: MachineModel) -> AutoTuner {
        AutoTuner { machine: start, samples: Vec::new() }
    }

    /// The current (possibly refitted) machine model.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// Number of accumulated measurements.
    pub fn observations(&self) -> usize {
        self.samples.len()
    }

    /// Record one measured `(P, n_max, config) → seconds` point — e.g. a
    /// `MeteredComm::with_key`-stamped run of any engine config.
    pub fn observe(&mut self, p: usize, n: usize, config: EngineConfig, seconds: f64) {
        self.samples.push(FitSample { p, n, config, seconds });
    }

    /// Coordinate-descend the machine parameters on everything observed so
    /// far; returns the post-fit mean squared log error ([`fit_error`]).
    pub fn refit(&mut self, dist: Distribution, seed: u64, rounds: usize) -> f64 {
        if !self.samples.is_empty() {
            self.machine = calibrate(&self.samples, dist, seed, &self.machine, rounds);
        }
        fit_error(&self.samples, dist, seed, &self.machine)
    }

    /// The candidates ranked by [`predict`]ed seconds on the `(dist, seed,
    /// P, n_max)` workload, cheapest first (ties keep candidate order). The
    /// winner is `[0]`; the rest is what a loss table needs.
    ///
    /// # Panics
    /// If `candidates` is empty.
    pub fn select(
        &self,
        candidates: &[EngineConfig],
        dist: Distribution,
        seed: u64,
        p: usize,
        n_max: usize,
    ) -> Vec<(EngineConfig, f64)> {
        assert!(!candidates.is_empty(), "select() needs at least one candidate");
        let mut ranked: Vec<(EngineConfig, f64)> = candidates
            .iter()
            .map(|&cfg| (cfg, predict(cfg, dist, seed, p, n_max, &self.machine)))
            .collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        ranked
    }
}

/// Workload seed [`adaptive_alltoallv`] ranks its candidates on. Any fixed
/// value works; what matters is that every rank uses the same one.
const ADAPTIVE_SEED: u64 = 1;

/// The adaptive `alltoallv` the paper's conclusion proposes ("implementations
/// of MPI can use insights from this paper to directly optimize their
/// MPI_Alltoallv"): measure the workload's global maximum block size with one
/// allreduce, rank `candidates` with [`AutoTuner::select`] on the uniform
/// workload of that `(P, N)` shape (§4.1's assumption — all a rank knows
/// without another collective), and run the winner. Returns the config used.
///
/// All ranks deterministically agree on the choice (the allreduce gives every
/// rank the same `N`, and the ranking is a pure function of it), so the
/// collective stays well-formed.
#[allow(clippy::too_many_arguments)]
pub fn adaptive_alltoallv<C: Communicator + ?Sized>(
    comm: &C,
    tuner: &AutoTuner,
    candidates: &[EngineConfig],
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
    recvbuf: &mut [u8],
    recvcounts: &[usize],
    rdispls: &[usize],
) -> CommResult<EngineConfig> {
    let local_max = sendcounts.iter().copied().max().unwrap_or(0);
    let n_max = comm.allreduce_u64(local_max as u64, ReduceOp::Max)? as usize;
    let (cfg, _) =
        tuner.select(candidates, Distribution::Uniform, ADAPTIVE_SEED, comm.size(), n_max)[0];
    configurable_alltoallv(
        comm, &cfg, sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls,
    )?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bruck_comm::ThreadComm;
    use bruck_core::{memory_overhead_bytes, packed_displs, pattern, EngineTopology, PaddingRule};
    use bruck_workload::SizeMatrix;

    const SEED: u64 = 7;

    #[test]
    fn select_ranks_every_candidate_by_predict() {
        let tuner = AutoTuner::new(MachineModel::theta_like());
        let candidates: Vec<EngineConfig> =
            EngineConfig::named_points().iter().map(|(c, _)| *c).collect();
        let ranked = tuner.select(&candidates, Distribution::Normal, SEED, 64, 256);
        assert_eq!(ranked.len(), candidates.len());
        assert!(ranked.windows(2).all(|w| w[0].1 <= w[1].1), "cheapest first");
        for (cfg, seconds) in &ranked {
            let want = predict(*cfg, Distribution::Normal, SEED, 64, 256, tuner.machine());
            assert_eq!(*seconds, want, "{}", cfg.key());
        }
        // Ties keep candidate order: the same config twice stays in place.
        let twice = [EngineConfig::as_vendor(), EngineConfig::as_vendor()];
        let ranked = tuner.select(&twice, Distribution::Uniform, SEED, 16, 64);
        assert_eq!(ranked[0].1, ranked[1].1);
    }

    #[test]
    fn winner_flips_exactly_once_along_the_block_size_axis() {
        // Pinned fixture: the theta-like machine, P = 1024, uniform density.
        // Two-phase Bruck (low fixed cost, log-factor slope) vs spread-out
        // (huge injection fixed cost, contended but log-free slope) — the §4
        // crossover: two-phase wins small N, spread-out wins large N, and
        // the winner changes hands once in between.
        let tuner = AutoTuner::new(MachineModel::theta_like());
        let candidates = [EngineConfig::as_two_phase(), EngineConfig::as_spread_out()];
        let winners: Vec<EngineConfig> = (0..24)
            .map(|e| {
                let n = (4.0 * 1.8f64.powi(e)) as usize;
                tuner.select(&candidates, Distribution::Uniform, SEED, 1024, n)[0].0
            })
            .collect();
        assert_eq!(winners[0], candidates[0], "two-phase must win at N = 4");
        assert_eq!(*winners.last().unwrap(), candidates[1], "spread-out must win at huge N");
        let flips = winners.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(flips, 1, "winner must flip exactly once across the N grid");
    }

    #[test]
    fn refit_improves_selection_inputs() {
        // Synthesize measurements from cori on a theta-started tuner: refit
        // must shrink the log error. An off-point config calibrates like any
        // named one.
        let truth = MachineModel::cori_like();
        let mut tuner = AutoTuner::new(MachineModel::theta_like());
        let dist = Distribution::Uniform;
        let radix4 = EngineConfig { radix: 4, ..EngineConfig::as_two_phase() };
        for p in [64usize, 256] {
            for n in [32usize, 512, 4096] {
                for cfg in [EngineConfig::as_vendor(), EngineConfig::as_two_phase(), radix4] {
                    tuner.observe(p, n, cfg, predict(cfg, dist, SEED, p, n, &truth));
                }
            }
        }
        assert_eq!(tuner.observations(), 18);
        let before = fit_error(&tuner.samples, dist, SEED, &MachineModel::theta_like());
        let after = tuner.refit(dist, SEED, 20);
        assert!(after < before, "refit must improve: {before} → {after}");
    }

    #[test]
    fn padding_threshold_switches_the_direct_cost_regime() {
        let m = MachineModel::theta_like();
        let dist = Distribution::POWER_LAW_STEEP;
        let cost = |cfg: EngineConfig, n: usize| predict(cfg, dist, SEED, 64, n, &m);
        let cfg = EngineConfig {
            padding: PaddingRule::Threshold(256),
            ..EngineConfig::as_vendor()
        };
        // Below the threshold the config pads: sparse power-law traffic
        // shipped as full slots plus an allreduce must cost more — exactly
        // what the always-padded point costs.
        assert!(cost(cfg, 128) > cost(EngineConfig::as_vendor(), 128));
        assert_eq!(cost(cfg, 128), cost(EngineConfig::as_padded_alltoall(), 128));
        // Above it the rule only costs its sizing allreduce.
        let above = cost(cfg, 4096) - cost(EngineConfig::as_vendor(), 4096);
        assert!(above > 0.0 && above < 20.0 * m.alpha(64), "one allreduce, got {above}");
    }

    #[test]
    fn a_memory_budget_is_a_filter_on_the_candidate_slice() {
        let tuner = AutoTuner::new(MachineModel::theta_like());
        let candidates = [
            EngineConfig::as_padded_bruck(),
            EngineConfig::as_two_phase(),
            EngineConfig::as_spread_out(),
        ];
        let (p, n) = (1024, 8);
        let totals = p * n / 2;
        let within = |budget: usize| -> Vec<EngineConfig> {
            candidates
                .iter()
                .copied()
                .filter(|&c| memory_overhead_bytes(c, p, n, totals, totals) <= budget)
                .collect()
        };
        let winner = |budget: usize| {
            tuner.select(&within(budget), Distribution::Uniform, SEED, p, n)[0].0
        };
        // Unlimited budget in the tiny-N regime: a Bruck variant wins.
        assert_eq!(winner(usize::MAX).topology, EngineTopology::Bruck);
        // Zero budget: only spread-out fits (it needs no auxiliary memory,
        // so the filter never empties).
        assert_eq!(within(0), [EngineConfig::as_spread_out()]);
        assert_eq!(winner(0), EngineConfig::as_spread_out());
        // A budget that fits two-phase but not padded: two-phase holds what
        // passes through the rank (10 steps × half the receive volume + a
        // half-size staging step), padded Bruck 10 steps × half of P × N in
        // slots + a full-size staging step.
        let two_phase_need =
            memory_overhead_bytes(EngineConfig::as_two_phase(), p, n, totals, totals);
        assert_eq!(two_phase_need, 22_528);
        let padded_need =
            memory_overhead_bytes(EngineConfig::as_padded_bruck(), p, n, totals, totals);
        assert_eq!(padded_need, 45_056);
        assert_eq!(within(two_phase_need).len(), 2);
        assert_eq!(winner(two_phase_need), EngineConfig::as_two_phase());
    }

    /// Run [`adaptive_alltoallv`] on every rank of `m`, check the delivered
    /// bytes, and return the (unanimous) config it picked.
    fn run_adaptive(m: &SizeMatrix, candidates: &[EngineConfig]) -> EngineConfig {
        let tuner = AutoTuner::new(MachineModel::theta_like());
        let p = m.p();
        let chosen = ThreadComm::run(p, |comm| {
            let me = comm.rank();
            let sendcounts = m.sendcounts(me);
            let sdispls = packed_displs(&sendcounts);
            let mut sendbuf = vec![0u8; sendcounts.iter().sum()];
            for dst in 0..p {
                for idx in 0..sendcounts[dst] {
                    sendbuf[sdispls[dst] + idx] = pattern(me, dst, idx);
                }
            }
            let recvcounts = m.recvcounts(me);
            let rdispls = packed_displs(&recvcounts);
            let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
            let cfg = adaptive_alltoallv(
                comm, &tuner, candidates, &sendbuf, &sendcounts, &sdispls, &mut recvbuf,
                &recvcounts, &rdispls,
            )
            .unwrap();
            for src in 0..p {
                for idx in 0..recvcounts[src] {
                    assert_eq!(recvbuf[rdispls[src] + idx], pattern(src, me, idx));
                }
            }
            cfg
        });
        assert!(chosen.windows(2).all(|w| w[0] == w[1]), "every rank must pick the same config");
        chosen[0]
    }

    #[test]
    fn adaptive_runs_the_selected_config_and_stays_correct() {
        let candidates = [
            EngineConfig::as_vendor(),
            EngineConfig::as_padded_bruck(),
            EngineConfig::as_two_phase(),
        ];
        let tuner = AutoTuner::new(MachineModel::theta_like());
        for m in [
            SizeMatrix::uniform(64, 4),
            SizeMatrix::uniform(64, 512),
            SizeMatrix::generate(Distribution::Uniform, 1, 8, 512),
        ] {
            let (p, n_max) = (m.p(), m.global_max());
            let ranked = tuner.select(&candidates, Distribution::Uniform, ADAPTIVE_SEED, p, n_max);
            assert_eq!(run_adaptive(&m, &candidates), ranked[0].0, "P={p} N={n_max}");
        }
        // Tiny blocks at a P where log P ≪ P are Bruck territory.
        let tiny = run_adaptive(&SizeMatrix::uniform(64, 4), &candidates);
        assert_eq!(tiny.topology, EngineTopology::Bruck);
    }

    #[test]
    fn adaptive_ranks_agree_under_skew() {
        // Only one rank holds the large block; the allreduce must still give
        // a unanimous selection (asserted by `run_adaptive`), made for the
        // global maximum rather than anyone's local one.
        let mut rows = vec![vec![2usize; 6]; 6];
        rows[3][1] = 1 << 16;
        let candidates = [EngineConfig::as_padded_bruck(), EngineConfig::as_two_phase()];
        let picked = run_adaptive(&SizeMatrix::from_rows(rows), &candidates);
        assert_eq!(picked, EngineConfig::as_two_phase(), "N = 64 KiB is far past inequality (3)");
    }
}
