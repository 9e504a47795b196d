//! The program-analysis-style iterated workload (§5.2, Figure 12).
//!
//! The paper drives 4,300 non-uniform all-to-all exchanges from a kCFA-8
//! analysis whose per-iteration fact volume is spiky and heavy-tailed: most
//! iterations generate small maximum block sizes (`N < 1000` bytes) with
//! occasional order-of-magnitude bursts. The kCFA input generator is not
//! available, so we reproduce exactly that *load schedule* (DESIGN.md §1):
//! each iteration, every rank produces a pseudo-random number of facts routed
//! by hash ownership, with the per-iteration volume following a spiky
//! multiplier series.

use bruck_comm::{CommResult, Communicator};
use bruck_core::AlltoallvAlgorithm;

use crate::{exchange_tuples, owner, ExchangeStats, Tuple};

/// Configuration of a kCFA-like run.
#[derive(Debug, Clone, Copy)]
pub struct KcfaConfig {
    /// Number of fixpoint iterations (the paper's run took 4,300).
    pub iterations: usize,
    /// Baseline facts produced per rank per iteration.
    pub base_facts: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for KcfaConfig {
    fn default() -> Self {
        KcfaConfig { iterations: 200, base_facts: 8, seed: 0xCFA8 }
    }
}

#[inline]
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The spiky volume multiplier of iteration `iter`: mostly 1–4×, with a
/// 1-in-16 chance of a 10–40× burst (Figure 12's N spikes).
fn volume_multiplier(seed: u64, iter: usize) -> usize {
    let h = splitmix64(seed ^ (iter as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    let base = 1 + (h % 4) as usize;
    if h.is_multiple_of(16) {
        base * (10 + (splitmix64(h) % 30) as usize)
    } else {
        base
    }
}

/// How many facts `rank` produces at iteration `iter`.
pub fn facts_at(cfg: &KcfaConfig, rank: usize, iter: usize) -> usize {
    let m = volume_multiplier(cfg.seed, iter);
    let jitter =
        splitmix64(cfg.seed ^ (rank as u64) << 32 ^ iter as u64) % (cfg.base_facts as u64 + 1);
    cfg.base_facts * m + jitter as usize
}

/// Result of a kCFA-like run.
#[derive(Debug)]
pub struct KcfaResult {
    /// Per-iteration exchange stats (comm time + the `N` series of Fig. 12).
    pub per_iteration: Vec<ExchangeStats>,
    /// Facts this rank received over the whole run.
    pub facts_received: u64,
}

/// The facts `rank` produces at iteration `iter` of a `p`-rank run, routed
/// to their owners: `outboxes_at(..)[dst]` is what `rank` sends `dst`.
pub fn outboxes_at(cfg: &KcfaConfig, rank: usize, iter: usize, p: usize) -> Vec<Vec<Tuple>> {
    let mut outboxes: Vec<Vec<Tuple>> = vec![Vec::new(); p];
    for i in 0..facts_at(cfg, rank, iter) {
        let h = splitmix64(cfg.seed ^ (iter as u64) << 40 ^ (rank as u64) << 20 ^ i as u64);
        let fact: Tuple = (h, splitmix64(h));
        outboxes[owner(fact.0, p)].push(fact);
    }
    outboxes
}

/// Run the iterated exchange with the chosen all-to-all algorithm.
pub fn kcfa_like_run<C: Communicator + ?Sized>(
    comm: &C,
    algo: AlltoallvAlgorithm,
    cfg: &KcfaConfig,
) -> CommResult<KcfaResult> {
    let (p, me) = (comm.size(), comm.rank());
    let mut per_iteration = Vec::with_capacity(cfg.iterations);
    let mut facts_received = 0u64;
    for iter in 0..cfg.iterations {
        // No vote: the schedule, not a fixpoint, decides when this run ends.
        let outboxes = outboxes_at(cfg, me, iter, p);
        let (received, stats) = exchange_tuples(comm, algo, &outboxes, 0, iter % 2 == 1)?;
        facts_received += received.len() as u64;
        per_iteration.push(stats);
    }
    Ok(KcfaResult { per_iteration, facts_received })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bruck_comm::{ReduceOp, ThreadComm};

    #[test]
    fn volume_schedule_is_spiky_and_heavy_tailed() {
        let vols: Vec<usize> = (0..2000).map(|i| volume_multiplier(1, i)).collect();
        let max = *vols.iter().max().unwrap();
        let median = {
            let mut v = vols.clone();
            v.sort_unstable();
            v[v.len() / 2]
        };
        assert!(max >= 10 * median, "max {max} vs median {median}");
        // The majority of iterations are small — Figure 12's key property.
        let small = vols.iter().filter(|&&v| v <= 4).count();
        assert!(small * 10 >= vols.len() * 8, "{small}/{} small iterations", vols.len());
    }

    #[test]
    fn runs_converge_and_count_facts_consistently() {
        let cfg = KcfaConfig { iterations: 25, base_facts: 4, seed: 9 };
        for algo in [AlltoallvAlgorithm::Vendor, AlltoallvAlgorithm::TwoPhaseBruck] {
            let results = ThreadComm::run(4, move |comm| {
                let r = kcfa_like_run(comm, algo, &cfg).unwrap();
                let total = comm.allreduce_u64(r.facts_received, ReduceOp::Sum).unwrap();
                (r, total)
            });
            // Every fact produced is received exactly once, so the global
            // received count equals the globally produced count.
            let produced: u64 = (0..4)
                .flat_map(|rank| (0..25).map(move |it| facts_at(&cfg, rank, it) as u64))
                .sum();
            for (r, total) in &results {
                assert_eq!(*total, produced, "algo {algo:?}");
                assert_eq!(r.per_iteration.len(), 25);
            }
        }
    }

    #[test]
    fn n_series_is_identical_across_algorithms() {
        // The workload (and so the N series of Figure 12) is algorithm-
        // independent; only comm time differs.
        let cfg = KcfaConfig { iterations: 15, base_facts: 6, seed: 4 };
        let n_of = |algo| {
            ThreadComm::run(3, move |comm| {
                kcfa_like_run(comm, algo, &cfg)
                    .unwrap()
                    .per_iteration
                    .iter()
                    .map(|s| s.n_max)
                    .collect::<Vec<_>>()
            })
            .remove(0)
        };
        assert_eq!(n_of(AlltoallvAlgorithm::Vendor), n_of(AlltoallvAlgorithm::TwoPhaseBruck));
    }
}
