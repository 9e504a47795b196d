//! Online auto-tuner: α–β closed forms over the engine's knob space, a
//! versioned `tuning.table` persistence format, and the observe → refit →
//! select loop that closes the paper's "more rigorous performance model"
//! call with live [`MeteredComm`](bruck_comm)-style measurements.
//!
//! ## Cost closed forms ([`predict_config`])
//!
//! Every config's predicted time is **affine in the block size**:
//! `cost(cfg, n) = A(cfg, P) + B(cfg, P, dist) · n` — the α-like part `A`
//! (message latencies, injection overheads, allreduce synchronizations) does
//! not depend on `n`, and the β-like part `B` (bandwidth, memcpy, datatype
//! engine, scaled by the distribution's density) multiplies it. Affinity is
//! what makes tuner selection analyzable: for any two configs the winner
//! flips at most once along the `n` axis, at
//! `N* = (A₂ − A₁) / (B₁ − B₂)` — the §4 crossover the regression test pins.
//!
//! Per knob: the Bruck radix trades steps `(r−1)·⌈log_r P⌉` (α) against
//! forwards `⌈log_r P⌉` (β·γ); the throttle window selects `inject` vs the
//! slightly worse `inject_unthrottled`; padding pays the sizing allreduce
//! and ships `N`-byte slots but drops the per-step metadata; the combined
//! coupling (`two_phase_split = false`) pays the §6.1 extra pack/unpack and
//! per-block pointer chasing; the block-view layout pays the final scan that
//! the monolithic layout's in-place delivery avoids.
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
//! `observe` (accumulate keyed measurements) → `refit` (coordinate-descend
//! the machine parameters on the accumulated samples, [`calibrate`]) →
//! `select` (argmin of [`predict_config`] over a candidate set) → emit a
//! [`TuningEntry`] per key. `bruck-tune` drives this loop on EventComm and
//! persists the result.

use bruck_core::{EngineConfig, EngineTopology, IntermediateLayout, PaddingRule};
use bruck_workload::Distribution;

use crate::{calibrate, fit_error, FitSample, MachineModel, NonuniformAlgo};

/// Radix-`r` schedule shape at `p` ranks: `(sub_steps, phases)` —
/// `(r−1)·⌈log_r P⌉` communication sub-steps, `⌈log_r P⌉` forwards per block.
fn schedule_shape(p: usize, radix: usize) -> (f64, f64) {
    let schedule = crate::radix::radix_schedule(p, radix);
    // Every phase opens with its digit-1 sub-step.
    let phases = schedule.iter().filter(|&&(_, _, d)| d == 1).count();
    (schedule.len() as f64, phases as f64)
}

/// α-cost of the sizing allreduce (recursive doubling: ~2·log₂P exchanges).
fn allreduce_alpha(p: usize, machine: &MachineModel) -> f64 {
    2.0 * (usize::BITS - p.next_power_of_two().leading_zeros()) as f64 * machine.alpha(p)
}

/// Predicted seconds for one engine config on one workload point.
///
/// Affine in `n_max` (see the module docs); `dist` contributes only
/// its density (mean block size / `n_max`).
pub fn predict_config(
    cfg: &EngineConfig,
    p: usize,
    n_max: usize,
    dist: Distribution,
    machine: &MachineModel,
) -> f64 {
    let n = n_max as f64;
    let pf = p as f64;
    let density = if p == 0 { 0.0 } else { dist.mean_size(1_000_000, p) / 1_000_000.0 };
    let mean = density * n; // mean block bytes under `dist`
    let a = machine.alpha(p);

    // Would this config pad? Threshold compares the global max block size.
    let pads = match cfg.padding {
        PaddingRule::Never => false,
        PaddingRule::Always => true,
        PaddingRule::Threshold(t) => n_max <= t,
    };

    match cfg.topology {
        // Blocking pairwise: P − 1 synchronized exchanges, all-pairs flows.
        EngineTopology::Oracle => (pf - 1.0) * a + (pf - 1.0) * mean * machine.beta_pair,

        EngineTopology::Direct => {
            let all_pairs = cfg.throttle_window.map_or(true, |w| w >= p.saturating_sub(1));
            let inject = if all_pairs { machine.inject_unthrottled } else { machine.inject };
            let (volume, fixed) = if pads {
                // Pad → N-byte slots each way → scan.
                let pad_scan = 2.0 * pf * n * machine.gamma;
                ((pf - 1.0) * n, allreduce_alpha(p, machine) + pad_scan)
            } else {
                ((pf - 1.0) * mean, 0.0)
            };
            fixed + 2.0 * (pf - 1.0) * inject + volume * machine.beta_pair
        }

        EngineTopology::Bruck => {
            let (steps, phases) = schedule_shape(p, cfg.radix);
            if pads {
                // Pad → uniform radix Bruck (every slot ships N bytes each
                // forward, no metadata) → scan.
                let volume = phases * (pf - 1.0) * n;
                allreduce_alpha(p, machine)
                    + steps * a
                    + volume * machine.beta
                    + (2.0 * pf * n + volume) * machine.gamma
            } else {
                // Each step exchanges a metadata message and a data message;
                // each block is packed, shipped, and unpacked once per
                // forward.
                let volume = phases * (pf - 1.0) * mean;
                let mut cost = 2.0 * steps * a
                    + volume * machine.beta
                    + 2.0 * volume * machine.gamma
                    + allreduce_alpha(p, machine) * f64::from(u8::from(
                        cfg.layout == IntermediateLayout::Monolithic,
                    ));
                if !cfg.two_phase_split {
                    // Combined coupling (§6.1): sizes packed with the data —
                    // an extra pack + unpack pass and per-block pointer
                    // chasing on the receive side.
                    cost += volume * machine.gamma + phases * (pf - 1.0) * machine.dt_block;
                }
                if cfg.layout == IntermediateLayout::BlockViews {
                    // Two-layer layout: final scan over all P blocks plus
                    // per-block view bookkeeping (monolithic delivers in
                    // place).
                    cost += pf * mean * machine.gamma + pf * machine.dt_block;
                }
                cost
            }
        }

        EngineTopology::Leader { group } => {
            let g = group.max(1).min(p) as f64;
            let groups = (pf / g).ceil();
            // Gather to leader, leader exchange of g²-fatter blocks, scatter.
            2.0 * (g - 1.0) * a
                + 2.0 * (g - 1.0) * g * mean * machine.beta
                + 2.0 * (groups - 1.0) * machine.inject
                + (groups - 1.0) * g * g * mean * machine.beta_pair
        }

        // Balanced two-stage: two rounds of direct exchange with a repack.
        EngineTopology::TwoStage => {
            2.0 * (pf - 1.0) * machine.inject
                + 2.0 * (pf - 1.0) * mean * machine.beta
                + 2.0 * pf * mean * machine.gamma
        }
    }
}

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

    /// Record one measured `(P, n_max, algorithm) → seconds` point — e.g. a
    /// `MeteredComm::with_key`-stamped named-config run.
    pub fn observe(&mut self, p: usize, n: usize, algo: NonuniformAlgo, seconds: f64) {
        self.samples.push(FitSample { p, n, algo, seconds });
    }

    /// Coordinate-descend the machine parameters on everything observed so
    /// far; returns the post-fit mean squared log error ([`fit_error`]).
    pub fn refit(&mut self, dist: Distribution, seed: u64, rounds: usize) -> f64 {
        if !self.samples.is_empty() {
            self.machine = calibrate(&self.samples, dist, seed, &self.machine, rounds);
        }
        fit_error(&self.samples, dist, seed, &self.machine)
    }

    /// The candidate with the lowest [`predict_config`] time (ties break to
    /// the earlier candidate). Returns the winner and its predicted seconds.
    ///
    /// # Panics
    /// If `candidates` is empty.
    pub fn select(
        &self,
        candidates: &[EngineConfig],
        p: usize,
        n_max: usize,
        dist: Distribution,
    ) -> (EngineConfig, f64) {
        assert!(!candidates.is_empty(), "select() needs at least one candidate");
        let mut best = (candidates[0], f64::INFINITY);
        for &cfg in candidates {
            let t = predict_config(&cfg, p, n_max, dist, &self.machine);
            if t < best.1 {
                best = (cfg, t);
            }
        }
        best
    }

    /// Select and wrap as a persistable [`TuningEntry`].
    pub fn tune(
        &self,
        candidates: &[EngineConfig],
        p: usize,
        n_max: usize,
        dist: Distribution,
    ) -> TuningEntry {
        let (config, predicted_s) = self.select(candidates, p, n_max, dist);
        TuningEntry { key: TuningKey::for_workload(p, dist), config, predicted_s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recover the affine parts of a config's cost: `(A, B)` with
    /// `cost(n) = A + B·n`.
    fn affine_parts(cfg: &EngineConfig, p: usize, dist: Distribution, m: &MachineModel) -> (f64, f64) {
        let a = predict_config(cfg, p, 0, dist, m);
        let hi = predict_config(cfg, p, 1 << 20, dist, m);
        (a, (hi - a) / (1u64 << 20) as f64)
    }

    #[test]
    fn costs_are_affine_in_block_size() {
        let m = MachineModel::theta_like();
        for (cfg, _) in EngineConfig::named_points() {
            let (a, b) = affine_parts(&cfg, 64, Distribution::Uniform, &m);
            for n in [16usize, 1024, 65536] {
                let want = a + b * n as f64;
                let got = predict_config(&cfg, 64, n, Distribution::Uniform, &m);
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1e-12),
                    "{}: {got} vs affine {want} at n={n}",
                    cfg.key()
                );
            }
        }
    }

    #[test]
    fn tuner_flips_exactly_once_at_the_analytic_crossover() {
        // Pinned fixture: the theta-like machine, P = 1024, uniform density.
        // Two-phase Bruck (low fixed cost, log-factor slope) vs spread-out
        // (huge injection fixed cost, contended but log-free slope) — the §4
        // crossover: two-phase wins small N, spread-out wins large N.
        let m = MachineModel::theta_like();
        let p = 1024;
        let dist = Distribution::Uniform;
        let two_phase = EngineConfig::as_two_phase();
        let spread = EngineConfig::as_spread_out();
        let (a_tp, b_tp) = affine_parts(&two_phase, p, dist, &m);
        let (a_so, b_so) = affine_parts(&spread, p, dist, &m);
        assert!(a_tp < a_so, "two-phase must have the lower fixed cost");
        assert!(b_tp > b_so, "spread-out must have the shallower slope at P=1024");
        let n_star = (a_so - a_tp) / (b_tp - b_so);
        assert!(n_star > 16.0 && n_star < 4e6, "crossover out of range: {n_star}");

        let tuner = AutoTuner::new(m);
        let candidates = [two_phase, spread];
        let mut flips = 0;
        let mut prev: Option<EngineConfig> = None;
        // Geometric grid spanning the crossover.
        for e in 0..40 {
            let n = (4.0 * 1.5f64.powi(e)) as usize;
            let (winner, _) = tuner.select(&candidates, p, n, dist);
            // The selection must agree with the analytic line on each side.
            if (n as f64) < n_star * 0.99 {
                assert_eq!(winner, two_phase, "n={n} < N*={n_star:.0}");
            } else if (n as f64) > n_star * 1.01 {
                assert_eq!(winner, spread, "n={n} > N*={n_star:.0}");
            }
            if prev.is_some_and(|w| w != winner) {
                flips += 1;
            }
            prev = Some(winner);
        }
        assert_eq!(flips, 1, "winner must flip exactly once across the N grid");
    }

    #[test]
    fn refit_improves_selection_inputs() {
        // Synthesize measurements from cori on a theta-started tuner: refit
        // must shrink the log error.
        let truth = MachineModel::cori_like();
        let mut tuner = AutoTuner::new(MachineModel::theta_like());
        let dist = Distribution::Uniform;
        for p in [64usize, 256] {
            for n in [32usize, 512, 4096] {
                for algo in [NonuniformAlgo::Vendor, NonuniformAlgo::TwoPhaseBruck] {
                    tuner.observe(p, n, algo, crate::predict(algo, dist, 7, p, n, &truth));
                }
            }
        }
        let before = fit_error(
            &(0..tuner.observations())
                .map(|i| tuner.samples[i])
                .collect::<Vec<_>>(),
            dist,
            7,
            &MachineModel::theta_like(),
        );
        let after = tuner.refit(dist, 7, 20);
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
        let cfg = EngineConfig {
            padding: PaddingRule::Threshold(256),
            ..EngineConfig::as_vendor()
        };
        let below = predict_config(&cfg, 64, 128, Distribution::POWER_LAW_STEEP, &m);
        let unpadded = predict_config(
            &EngineConfig::as_vendor(),
            64,
            128,
            Distribution::POWER_LAW_STEEP,
            &m,
        );
        // Below the threshold the config pads: sparse power-law traffic
        // shipped as full slots plus an allreduce must cost more.
        assert!(below > unpadded);
        // Above the threshold the rule is inert: identical to never-pad.
        let above = predict_config(&cfg, 64, 4096, Distribution::POWER_LAW_STEEP, &m);
        let never = predict_config(
            &EngineConfig::as_vendor(),
            64,
            4096,
            Distribution::POWER_LAW_STEEP,
            &m,
        );
        assert!((above - never).abs() < 1e-15);
    }

    #[test]
    fn radix_trades_alpha_for_beta() {
        let m = MachineModel::theta_like();
        let p = 4096;
        let dist = Distribution::Uniform;
        let r2 = EngineConfig::as_two_phase();
        let r8 = EngineConfig { radix: 8, ..r2 };
        // Radix 8 has more sub-steps (7·log₈P = 28 vs 12) but fewer
        // forwards per block (4 vs 12): at tiny N the α term dominates and
        // radix 2 wins; at huge N the forward volume dominates and radix 8
        // wins.
        assert!(
            predict_config(&r2, p, 8, dist, &m) < predict_config(&r8, p, 8, dist, &m),
            "radix 2 must win at tiny N"
        );
        assert!(
            predict_config(&r8, p, 1 << 20, dist, &m) < predict_config(&r2, p, 1 << 20, dist, &m),
            "radix 8 must win at huge N"
        );
    }
}
