//! The engine under fault injection, on real threads.
//!
//! The registry's chaos rows hold every named point and off-point config to
//! the crash-only contract on virtual time (`registry.rs` pins that
//! coverage). This file is the real-clock counterpart for the knob space:
//! each off-point config — combinations no algorithm name covers — runs the
//! same generic runner on `ThreadComm` under the lossy plan (drops +
//! duplicates + corruption + delays beneath the ARQ) and must still commit
//! its first recovering attempt on every rank with byte-correct buffers.

use std::time::Duration;

use bruck_check::cells::{engine_off_points, Cell, Faults, Op};
use bruck_check::runner::{run_cell, RankVerdict, World};
use bruck_workload::Distribution;

#[test]
fn off_point_engine_configs_survive_a_lossy_link_on_real_threads() {
    for cfg in engine_off_points() {
        let cell = Cell {
            op: Op::Alltoallv(cfg),
            dist: Distribution::Normal,
            p: 5,
            n_max: 24,
            workload_seed: 0xFA17,
        };
        let world = World::Threads { wall_bound: Duration::from_secs(30) };
        let outcome = run_cell(&cell, Faults::Lossy, 0xD0_0D, &world);
        assert!(outcome.ok(), "{}: {:?}", cell.label(), outcome.failure);
        assert!(outcome.verdicts.iter().all(|v| matches!(v, RankVerdict::Complete(_))));
    }
}
