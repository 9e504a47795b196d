//! Property tests for the cost model: conservation and symmetry invariants
//! of the trace generators over randomized size matrices.
//!
//! Seeded-random (SplitMix64) rather than `proptest`-driven: the workspace
//! builds hermetically with zero external crates, so each property runs a
//! fixed number of deterministic random cases instead of shrinking searches.

use bruck_bench::tune_candidates;
use bruck_core::AlltoallvAlgorithm;
use bruck_model::{
    nonuniform_trace, predict, AutoTuner, MachineModel, MatrixSource, RankSample, StepKind,
};
use bruck_workload::{Distribution, SizeMatrix, SplitMix64};

const CASES: u64 = 24;

fn random_matrix(rng: &mut SplitMix64) -> SizeMatrix {
    let p = rng.next_range(2, 14) as usize;
    let rows: Vec<Vec<usize>> =
        (0..p).map(|_| (0..p).map(|_| rng.next_usize(500)).collect()).collect();
    SizeMatrix::from_rows(rows)
}

/// Within every wire step, global bytes-out equals global bytes-in
/// (every byte sent is received by some covered rank).
#[test]
fn per_step_flow_conservation() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xF10C ^ case);
        let m = random_matrix(&mut rng);
        let p = m.p();
        let src = MatrixSource(&m);
        for algo in AlltoallvAlgorithm::ALL {
            let trace = nonuniform_trace(algo, &src, &RankSample::all(p));
            for step in &trace.steps {
                if step.kind.tag().is_none() {
                    continue;
                }
                let out: u64 = step.loads.iter().map(|(_, l)| l.bytes_out).sum();
                let inb: u64 = step.loads.iter().map(|(_, l)| l.bytes_in).sum();
                assert_eq!(out, inb, "case {case}: {} step {:?}", algo.name(), step.kind);
            }
        }
    }
}

/// Bruck-family data steps conserve total payload: each block crosses the
/// wire once per set bit (binary) of its offset; the padded variants move
/// exactly count·N per step.
#[test]
fn two_phase_payload_matches_popcount_routing() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x2BA5 ^ case);
        let m = random_matrix(&mut rng);
        let p = m.p();
        let src = MatrixSource(&m);
        let trace = nonuniform_trace(AlltoallvAlgorithm::TwoPhaseBruck, &src, &RankSample::all(p));
        let data: u64 = trace
            .steps
            .iter()
            .filter(|s| matches!(s.kind, StepKind::Data(_)))
            .flat_map(|s| s.loads.iter().map(|(_, l)| l.bytes_out))
            .sum();
        let mut expect = 0u64;
        for s in 0..p {
            for d in 0..p {
                let offset = (s + p - d) % p;
                expect += (m.get(s, d) as u64) * u64::from(offset.count_ones());
            }
        }
        assert_eq!(data, expect, "case {case}");
    }
}

/// The spread-out trace moves exactly the matrix, minus self blocks.
#[test]
fn spread_out_moves_exactly_the_matrix() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x59E4 ^ case);
        let m = random_matrix(&mut rng);
        let p = m.p();
        let src = MatrixSource(&m);
        let trace = nonuniform_trace(AlltoallvAlgorithm::Vendor, &src, &RankSample::all(p));
        let wire = trace.total_wire_bytes();
        let expect: u64 = (0..p)
            .flat_map(|s| (0..p).map(move |d| (s, d)))
            .filter(|&(s, d)| s != d)
            .map(|(s, d)| m.get(s, d) as u64)
            .sum();
        assert_eq!(wire, expect, "case {case}");
    }
}

/// §4 regime boundary, message-count form: per-rank wire message counts are
/// 2·⌈log₂P⌉ for two-phase vs P−1 for spread-out *whatever the matrix looks
/// like* — density shifts bytes, never message counts — so the count
/// crossover sits purely in P (log vs linear), exactly where the paper puts
/// the latency-dominated regime.
#[test]
fn message_count_crossover_is_density_independent() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xAB31 ^ case);
        let m = random_matrix(&mut rng);
        let p = m.p();
        let src = MatrixSource(&m);
        let sample = RankSample::all(p);
        let two = nonuniform_trace(AlltoallvAlgorithm::TwoPhaseBruck, &src, &sample);
        let spread = nonuniform_trace(AlltoallvAlgorithm::SpreadOut, &src, &sample);
        let logp = u64::from(bruck_core::common::ceil_log2(p));
        for rank in 0..p {
            let msgs = |t: &bruck_model::CommTrace| -> u64 {
                t.wire_tags().iter().map(|&tag| t.msgs_for_tag(rank, tag).unwrap()).sum()
            };
            assert_eq!(msgs(&two), 2 * logp, "case {case} rank {rank}: meta + data per step");
            assert_eq!(msgs(&spread), p as u64 - 1, "case {case} rank {rank}");
        }
    }
}

/// §4 regime boundary, cost form: along an N sweep the closed-form winner
/// between two-phase and spread-out flips exactly once — two-phase below,
/// spread-out above — at the analytic crossover
/// `N* = 2(α(P−1−2L) − 4βLB) / (β(LB − (P−1)))` with `L = ⌈log₂P⌉`,
/// `B = (P+1)/2` (equate equations (2) and the linear baseline of §3.3).
#[test]
fn cost_crossover_matches_the_analytic_boundary() {
    use bruck_model::{spread_out_cost, two_phase_bruck_cost};
    let params = MachineModel::theta_like();
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x4B0D ^ case);
        let p = rng.next_range(8, 4096) as usize;
        let l = f64::from(bruck_core::common::ceil_log2(p));
        let b = (p as f64 + 1.0) / 2.0;
        let num = params.alpha(p) * (p as f64 - 1.0 - 2.0 * l) - 4.0 * params.beta * l * b;
        let den = params.beta * (l * b - (p as f64 - 1.0));
        assert!(num > 0.0 && den > 0.0, "case {case} p={p}: crossover must exist");
        let n_star = 2.0 * num / den;
        for e in 0..=24u32 {
            let n = 1usize << e;
            let two_wins = two_phase_bruck_cost(p, n, &params) < spread_out_cost(p, n, &params);
            if (n as f64) < 0.99 * n_star {
                assert!(two_wins, "case {case} p={p} n={n}: below N*={n_star:.0}");
            } else if (n as f64) > 1.01 * n_star {
                assert!(!two_wins, "case {case} p={p} n={n}: above N*={n_star:.0}");
            }
        }
    }
}

/// Time predictions are finite, non-negative, and monotone in the
/// machine's beta.
#[test]
fn predictions_are_sane() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x5A9E ^ case);
        let m = random_matrix(&mut rng);
        let p = m.p();
        let src = MatrixSource(&m);
        let fast = MachineModel::theta_like();
        let mut slow = fast.clone();
        slow.beta *= 4.0;
        slow.beta_pair *= 4.0;
        for algo in AlltoallvAlgorithm::ALL {
            let trace = nonuniform_trace(algo, &src, &RankSample::all(p));
            let tf = trace.time(&fast);
            let ts = trace.time(&slow);
            assert!(tf.is_finite() && tf >= 0.0);
            assert!(ts >= tf, "case {case}: {}: slower beta must not be faster", algo.name());
        }
    }
}

/// One cost function: the ranking `AutoTuner::select` returns for the
/// `bruck-bench tune` candidate set is the ranking of `predict` — what `refit`
/// calibrates is what selects.
#[test]
fn select_orders_candidates_as_predict_does() {
    let tuner = AutoTuner::new(MachineModel::cori_like());
    let candidates = tune_candidates();
    assert_eq!(candidates.len(), 12);
    for (p, n, dist) in [
        (8usize, 64usize, Distribution::Uniform),
        (64, 1024, Distribution::Normal),
        (128, 256, Distribution::POWER_LAW_STEEP),
    ] {
        let seed = 0x5E1EC7;
        let mut by_predict: Vec<_> = candidates
            .iter()
            .map(|&cfg| (cfg, predict(cfg, dist, seed, p, n, tuner.machine())))
            .collect();
        by_predict.sort_by(|a, b| a.1.total_cmp(&b.1));
        assert_eq!(tuner.select(&candidates, dist, seed, p, n), by_predict, "P={p} N={n}");
    }
}

/// Uniform and Normal have the same mean block size; a model that sees only
/// the mean gives them one number. The trace sees the blocks.
#[test]
fn equal_mean_distributions_are_distinguishable() {
    let m = MachineModel::theta_like();
    let (p, n) = (64, 1024);
    assert_eq!(Distribution::Uniform.mean_size(n, p), Distribution::Normal.mean_size(n, p));
    let at = |dist| predict(AlltoallvAlgorithm::TwoPhaseBruck, dist, 1, p, n, &m);
    let (uniform, normal) = (at(Distribution::Uniform), at(Distribution::Normal));
    assert!(
        (uniform - normal).abs() > 0.01 * uniform,
        "uniform {uniform} s vs normal {normal} s must differ"
    );
}
