//! Property: every `alltoallv` point is schedule-independent.
//!
//! Each named algorithm and each off-point engine config runs under the
//! deterministic simulator across 16 different schedule seeds; every rank's
//! received bytes must be the expected ones and identical across all of
//! them. Any dependence on message arrival order, probe timing, or rank
//! interleaving shows up as a verdict diff with the failing seed in the
//! assertion message — replayable via `bruck-sim --replay` semantics
//! (`World::Sim { replay, .. }`).

use bruck_check::cells::{engine_off_points, Cell, Faults, Op};
use bruck_check::runner::{run_cell, World};
use bruck_core::AlltoallvAlgorithm;
use bruck_workload::Distribution;

const SCHED_SEEDS: std::ops::Range<u64> = 0..16;

fn assert_schedule_independent(ops: &[Op], dist: Distribution, workload_seed: u64, n_max: usize) {
    for &op in ops {
        let cell = Cell { op, dist, p: 5, n_max, workload_seed };
        let run = |seed| {
            let outcome = run_cell(&cell, Faults::None, seed, &World::sim(seed));
            assert!(outcome.ok(), "{} sched_seed={seed}: {:?}", cell.label(), outcome.failure);
            outcome.verdicts
        };
        let baseline = run(SCHED_SEEDS.start);
        for seed in SCHED_SEEDS.start + 1..SCHED_SEEDS.end {
            assert_eq!(
                run(seed),
                baseline,
                "{}: recv bytes differ between sched seeds {} and {seed}",
                cell.label(),
                SCHED_SEEDS.start
            );
        }
    }
}

/// The eight named points (named algorithms are engine configs) plus
/// off-point product-space members.
#[test]
fn every_engine_config_delivers_identical_bytes_across_16_schedules() {
    let mut ops = AlltoallvAlgorithm::ALL.map(Op::named).to_vec();
    ops.extend(engine_off_points().map(Op::Alltoallv));
    assert_schedule_independent(&ops, Distribution::Normal, 0xC33, 32);
}

/// The skewed distribution exercises the zero-block and uneven-window edge
/// cases of every algorithm under the same 16-schedule sweep.
#[test]
fn every_algorithm_is_schedule_independent_under_skew() {
    let named = AlltoallvAlgorithm::ALL.map(Op::named);
    assert_schedule_independent(&named, Distribution::POWER_LAW_STEEP, 0xB22, 40);
}
