//! Online auto-tuner: a versioned `tuning.table` persistence format, the
//! observe → refit → select loop that closes the paper's "more rigorous
//! performance model" call with live [`MeteredComm`](bruck_comm)-style
//! measurements, and the adaptive `alltoallv` that runs a selection at call
//! time.
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
//! ## `tuning.table` format ([`TuningTable`])
//!
//! Line-oriented text, versioned by its first line (`bruck-tuning v1`).
//! Blank lines and `#` comments are skipped. Each entry line is
//! whitespace-separated `key=value` tokens:
//!
//! ```text
//! bruck-tuning v1
//! # winners per (P, density, distribution)
//! p=8 density=500 dist=uniform config=bruck:r=2:layout=mono:split=meta:pad=never predicted_s=1.9e-5
//! ```
//!
//! Malformed lines fail with line-numbered errors; tokens with *unknown*
//! keys are skipped with a warning so future writers can add fields without
//! breaking old readers.
//!
//! ## Tuner state machine ([`AutoTuner`])
//!
//! `observe` (accumulate config-keyed measurements) → `refit`
//! (coordinate-descend the machine parameters on the accumulated samples,
//! [`calibrate`]) → `select` (candidates ranked by [`predict`]) → keep the
//! winner as a [`TuningEntry`] per key. `bruck-tune` drives this loop on EventComm and
//! persists the result. A memory budget is a filter on the candidate slice
//! (`bruck_core::memory_overhead_bytes`), not a second selector.

use bruck_comm::{CommResult, Communicator, ReduceOp};
use bruck_core::{configurable_alltoallv, EngineConfig};
use bruck_workload::Distribution;

use crate::{calibrate, fit_error, predict, FitSample, MachineModel};

/// A workload identity the tuner keys winners by.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TuningKey {
    /// Communicator size.
    pub p: usize,
    /// Workload density (mean block size / max block size) in permille.
    pub density_permille: u32,
    /// Distribution label, whitespace-stripped.
    pub dist: String,
}

impl TuningKey {
    /// Key for a `(P, distribution)` workload. Density comes from the
    /// distribution's closed-form mean, so equal-density workloads share
    /// tuning entries regardless of `n_max`.
    pub fn for_workload(p: usize, dist: Distribution) -> TuningKey {
        let density = if p == 0 { 0.0 } else { dist.mean_size(1_000_000, p) / 1_000_000.0 };
        TuningKey {
            p,
            density_permille: (density * 1000.0).round() as u32,
            dist: dist.label().split_whitespace().collect(),
        }
    }
}

/// One tuned winner: the selected config and its predicted time.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningEntry {
    /// Workload identity.
    pub key: TuningKey,
    /// Winning config.
    pub config: EngineConfig,
    /// Predicted seconds at selection time.
    pub predicted_s: f64,
}

/// A versioned set of [`TuningEntry`]s with a line-oriented text form. See
/// the module docs for the format.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuningTable {
    /// Entries, kept sorted by key.
    pub entries: Vec<TuningEntry>,
}

/// The version header every `tuning.table` must start with.
pub const TUNING_TABLE_HEADER: &str = "bruck-tuning v1";

impl TuningTable {
    /// Insert or replace the entry for `entry.key`.
    pub fn insert(&mut self, entry: TuningEntry) {
        match self.entries.binary_search_by(|e| e.key.cmp(&entry.key)) {
            Ok(i) => self.entries[i] = entry,
            Err(i) => self.entries.insert(i, entry),
        }
    }

    /// The entry for `key`, if tuned.
    pub fn lookup(&self, key: &TuningKey) -> Option<&TuningEntry> {
        self.entries.binary_search_by(|e| e.key.cmp(key)).ok().map(|i| &self.entries[i])
    }

    /// Serialize to the versioned text format (stable: sorted by key).
    pub fn serialize(&self) -> String {
        let mut out = String::from(TUNING_TABLE_HEADER);
        out.push('\n');
        for e in &self.entries {
            out.push_str(&format!(
                "p={} density={} dist={} config={} predicted_s={:e}\n",
                e.key.p,
                e.key.density_permille,
                e.key.dist,
                e.config.key(),
                e.predicted_s,
            ));
        }
        out
    }

    /// Parse the text format. Returns the table plus warnings (one per
    /// skipped unknown key). Malformed lines produce line-numbered errors.
    pub fn parse(text: &str) -> Result<(TuningTable, Vec<String>), String> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, h)) if h.trim() == TUNING_TABLE_HEADER => {}
            Some((_, h)) => {
                return Err(format!(
                    "line 1: expected header {TUNING_TABLE_HEADER:?}, found {:?}",
                    h.trim()
                ))
            }
            None => return Err("line 1: empty tuning table".to_string()),
        }

        let mut table = TuningTable::default();
        let mut warnings = Vec::new();
        for (i, line) in lines {
            let lineno = i + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut p = None;
            let mut density = None;
            let mut dist = None;
            let mut config = None;
            let mut predicted = None;
            for tok in line.split_whitespace() {
                let (k, v) = tok
                    .split_once('=')
                    .ok_or_else(|| format!("line {lineno}: token {tok:?} is not key=value"))?;
                match k {
                    "p" => {
                        p = Some(v.parse::<usize>().map_err(|_| {
                            format!("line {lineno}: bad communicator size {v:?}")
                        })?)
                    }
                    "density" => {
                        density = Some(v.parse::<u32>().map_err(|_| {
                            format!("line {lineno}: bad density permille {v:?}")
                        })?)
                    }
                    "dist" => dist = Some(v.to_string()),
                    "config" => {
                        config = Some(EngineConfig::parse_key(v).map_err(|e| {
                            format!("line {lineno}: bad config key {v:?}: {e}")
                        })?)
                    }
                    "predicted_s" => {
                        predicted = Some(v.parse::<f64>().map_err(|_| {
                            format!("line {lineno}: bad predicted seconds {v:?}")
                        })?)
                    }
                    unknown => warnings
                        .push(format!("line {lineno}: skipping unknown key {unknown:?}")),
                }
            }
            let (Some(p), Some(density_permille), Some(dist), Some(config)) =
                (p, density, dist, config)
            else {
                return Err(format!(
                    "line {lineno}: entry needs p=, density=, dist=, config="
                ));
            };
            table.insert(TuningEntry {
                key: TuningKey { p, density_permille, dist },
                config,
                predicted_s: predicted.unwrap_or(0.0),
            });
        }
        Ok((table, warnings))
    }
}

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
    fn table_round_trips_to_identity() {
        let mut table = TuningTable::default();
        for (p, dist) in [
            (8, Distribution::Uniform),
            (64, Distribution::Normal),
            (64, Distribution::POWER_LAW_STEEP),
            (1024, Distribution::Windowed { r: 30 }),
        ] {
            table.insert(TuningEntry {
                key: TuningKey::for_workload(p, dist),
                config: EngineConfig::as_two_phase(),
                predicted_s: 1.25e-5 * p as f64,
            });
        }
        table.insert(TuningEntry {
            key: TuningKey::for_workload(8, Distribution::Hotspot { spacing: 4, damping: 8 }),
            config: EngineConfig {
                radix: 4,
                padding: PaddingRule::Threshold(128),
                ..EngineConfig::as_two_phase()
            },
            predicted_s: 3.0e-6,
        });

        let text = table.serialize();
        let (parsed, warnings) = TuningTable::parse(&text).expect("round trip");
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(parsed, table);
        // parse → serialize → parse is also identity.
        assert_eq!(parsed.serialize(), text);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let cases = [
            ("", "line 1"),
            ("bruck-tuning v2\n", "line 1"),
            (
                "bruck-tuning v1\np=8 density=500 dist=uniform config=oracle\nnot-a-token\n",
                "line 3",
            ),
            ("bruck-tuning v1\np=eight density=500 dist=uniform config=oracle\n", "line 2"),
            ("bruck-tuning v1\np=8 density=500 dist=uniform config=warp:f=9\n", "line 2"),
            ("bruck-tuning v1\np=8 density=500 config=oracle\n", "line 2"),
            ("bruck-tuning v1\n\n# ok\np=8 density=many dist=uniform config=oracle\n", "line 4"),
        ];
        for (text, want) in cases {
            let err = TuningTable::parse(text).expect_err(text);
            assert!(err.starts_with(want), "{text:?}: error {err:?} should start {want:?}");
        }
    }

    #[test]
    fn unknown_keys_warn_but_do_not_fail() {
        let text = "bruck-tuning v1\n\
            p=8 density=500 dist=uniform config=oracle predicted_s=1e-6 flux=9 era=2\n";
        let (table, warnings) = TuningTable::parse(text).expect("unknown keys are skippable");
        assert_eq!(table.entries.len(), 1);
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings[0].contains("line 2") && warnings[0].contains("flux"));
    }

    #[test]
    fn insert_replaces_and_lookup_finds() {
        let key = TuningKey::for_workload(8, Distribution::Uniform);
        let mut table = TuningTable::default();
        table.insert(TuningEntry {
            key: key.clone(),
            config: EngineConfig::as_vendor(),
            predicted_s: 2.0,
        });
        table.insert(TuningEntry {
            key: key.clone(),
            config: EngineConfig::as_two_phase(),
            predicted_s: 1.0,
        });
        assert_eq!(table.entries.len(), 1);
        let hit = table.lookup(&key).expect("tuned key");
        assert_eq!(hit.config, EngineConfig::as_two_phase());
        assert!(table.lookup(&TuningKey::for_workload(16, Distribution::Uniform)).is_none());
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
        // A budget that fits two-phase but not padded.
        let two_phase_need =
            memory_overhead_bytes(EngineConfig::as_two_phase(), p, n, totals, totals);
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
