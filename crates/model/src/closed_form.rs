//! The paper's theoretical performance model (§3.3) as closed forms over a
//! [`MachineModel`]'s `α(P)` and `β`: a message of `n` bytes costs
//! `α + n·β` seconds.
//!
//! These are the equations the paper reasons with, kept for the `figures --
//! model` table and for the analytic properties the tests pin. Nothing
//! *selects* with them — every selection ranks trace times
//! ([`crate::AutoTuner::select`]).

use bruck_core::common::ceil_log2;

use crate::MachineModel;

/// `log P` and the `(P+1)/2` blocks a Bruck step moves.
fn log_and_blocks(p: usize) -> (f64, f64) {
    (f64::from(ceil_log2(p)), (p as f64 + 1.0) / 2.0)
}

/// Equation (1): padded Bruck sends `log P · (P+1)/2` blocks of exactly `N`
/// bytes.
pub fn padded_bruck_cost(p: usize, n_max: usize, m: &MachineModel) -> f64 {
    let (logp, blocks) = log_and_blocks(p);
    m.alpha(p) * logp + m.beta * logp * blocks * n_max as f64
}

/// Equation (2): two-phase Bruck doubles the latency (metadata + data), adds
/// 4 bytes of metadata per block, and moves blocks of average size `N/2`
/// (uniform distribution assumption of §4.1).
pub fn two_phase_bruck_cost(p: usize, n_max: usize, m: &MachineModel) -> f64 {
    let (logp, blocks) = log_and_blocks(p);
    2.0 * m.alpha(p) * logp
        + 4.0 * m.beta * logp * blocks
        + (n_max as f64 / 2.0) * m.beta * logp * blocks
}

/// Linear-baseline cost: `P − 1` messages of average size `N/2`.
pub fn spread_out_cost(p: usize, n_max: usize, m: &MachineModel) -> f64 {
    let msgs = (p as f64 - 1.0).max(0.0);
    m.alpha(p) * msgs + m.beta * msgs * n_max as f64 / 2.0
}

/// Inequality (3): padded Bruck beats two-phase Bruck iff
/// `(N − 8)(P + 1)β < 4α`.
pub fn padded_beats_two_phase(p: usize, n_max: usize, m: &MachineModel) -> bool {
    (n_max as f64 - 8.0) * (p as f64 + 1.0) * m.beta < 4.0 * m.alpha(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inequality_three_matches_cost_comparison() {
        // (1) < (2) must be *exactly* inequality (3) — the paper derives one
        // from the other algebraically.
        for m in MachineModel::presets() {
            for p in [16usize, 128, 1024, 4096, 32768] {
                for n in [1usize, 4, 8, 9, 16, 64, 256, 2048] {
                    let lhs = padded_bruck_cost(p, n, &m) < two_phase_bruck_cost(p, n, &m);
                    assert_eq!(lhs, padded_beats_two_phase(p, n, &m), "{} p={p} n={n}", m.name);
                }
            }
        }
    }

    #[test]
    fn padded_always_wins_below_8_bytes() {
        // §3.3: "this certainly happens when N is less than 8 bytes".
        let m = MachineModel::theta_like();
        for p in [2usize, 64, 1024, 32768] {
            for n in [0usize, 1, 4, 7] {
                assert!(padded_beats_two_phase(p, n, &m), "p={p} n={n}");
            }
        }
    }

    #[test]
    fn costs_are_monotone_in_n_and_p() {
        let m = MachineModel::theta_like();
        for p in [8usize, 256, 8192] {
            for n in [16usize, 128, 1024] {
                assert!(padded_bruck_cost(p, n, &m) < padded_bruck_cost(p, 2 * n, &m));
                assert!(two_phase_bruck_cost(p, n, &m) < two_phase_bruck_cost(p * 2, n, &m));
                assert!(spread_out_cost(p, n, &m) < spread_out_cost(p, 2 * n, &m));
            }
        }
    }

    #[test]
    fn single_rank_costs_nothing() {
        let m = MachineModel::theta_like();
        assert_eq!(padded_bruck_cost(1, 64, &m), 0.0);
        assert_eq!(two_phase_bruck_cost(1, 64, &m), 0.0);
        assert_eq!(spread_out_cost(1, 64, &m), 0.0);
    }
}
