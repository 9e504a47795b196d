//! Model-vs-measured conformance suite (the `bruck-probe` headline test).
//!
//! Every algorithm × workload cell runs under [`MeteredComm`] with the
//! `bruck-core` phase recorder installed, and three measured quantities are
//! checked against closed-form predictions from `bruck-model`:
//!
//! * **Message counts** — per wire tag, *exact* (`CommTrace::msgs_for_tag`).
//! * **Byte volumes** — per wire tag, *exact* (`CommTrace::bytes_for_tag`),
//!   padded Bruck included: its slots travel at exactly `n_max`.
//! * **Phase counts** — the span timeline must contain *exactly* the named
//!   phases the algorithm declares, with per-step phases appearing once per
//!   step.
//!
//! Deliberately miscounted fixtures (a two-phase trace with one extra
//! predicted message and inflated bytes; a leader trace whose scatter
//! message count is off by one) must make the checker report violations —
//! the negative controls that prove the suite can fail.
//!
//! The checker is a pure function returning violation strings, so the
//! negative tests exercise the exact code path the positive cells assert
//! empty. It lives in `tests/common/` and is the only loop in the workspace
//! that compares metered per-tag messages and bytes to a trace: the
//! byte-exactness suites (`trace_validation`, `radix_validation`,
//! `engine_equivalence`, `engine_properties`, `collectives_gauntlet`) bring
//! their own cells to it.

mod common;

use bruck_comm::{Communicator, MeteredComm, Metrics, ThreadComm};
use bruck_core::common::{ceil_log2, HIER_SCATTER_TAG};
use bruck_core::probe::{self, PhaseEvent};
use bruck_core::{alltoall, alltoallv, packed_displs, AlltoallAlgorithm, AlltoallvAlgorithm};
use bruck_model::{nonuniform_trace, uniform_trace, MatrixSource, RankSample, StepKind};
use bruck_workload::{Distribution, SizeMatrix};
use common::{conformance_violations, phase_violations};

const SEED: u64 = 0xC04F;
const WORLD_SIZES: [usize; 2] = [8, 12];

/// The three workload shapes of the conformance matrix.
fn workloads(p: usize) -> Vec<(String, SizeMatrix)> {
    // Hand-built sparse matrix: most pairs silent, a few asymmetric heavy
    // pairs. Exercises zero-byte messages and n_max >> mean.
    let sparse = SizeMatrix::from_rows(
        (0..p)
            .map(|src| {
                (0..p)
                    .map(|dst| if (src + 2 * dst) % 3 == 0 { 7 * src + dst + 1 } else { 0 })
                    .collect()
            })
            .collect(),
    );
    vec![
        ("uniform".to_string(), SizeMatrix::generate(Distribution::Uniform, SEED, p, 48)),
        (
            "power-law-0.99".to_string(),
            SizeMatrix::generate(Distribution::POWER_LAW_STEEP, SEED, p, 96),
        ),
        ("sparse".to_string(), sparse),
    ]
}

/// Run one non-uniform cell and return `(per-rank metrics, per-rank events)`.
fn run_metered_v(algo: AlltoallvAlgorithm, m: &SizeMatrix) -> Vec<(Metrics, Vec<PhaseEvent>)> {
    let p = m.p();
    ThreadComm::run(p, |comm| {
        let mc = MeteredComm::new(comm);
        let me = mc.rank();
        let sendcounts = m.sendcounts(me);
        let sdispls = packed_displs(&sendcounts);
        let sendbuf: Vec<u8> = (0..sendcounts.iter().sum()).map(|i| (i * 31) as u8).collect();
        let recvcounts = m.recvcounts(me);
        let rdispls = packed_displs(&recvcounts);
        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
        probe::install();
        alltoallv(algo, &mc, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls)
            .unwrap();
        (mc.metrics(), probe::take())
    })
}

/// The expected phase timeline of a non-uniform algorithm at world size `p`.
fn expected_phases_v(algo: AlltoallvAlgorithm, p: usize) -> Vec<(&'static str, u64)> {
    let steps = u64::from(ceil_log2(p));
    match algo {
        AlltoallvAlgorithm::TwoPhaseBruck => vec![
            ("two_phase.allreduce", 1),
            ("two_phase.meta", steps),
            ("two_phase.pack", steps),
            ("two_phase.data", steps),
            ("two_phase.scatter", steps),
        ],
        AlltoallvAlgorithm::PaddedBruck => vec![
            ("padded.allreduce", 1),
            ("padded.pad", 1),
            ("padded.exchange", 1),
            ("padded.scan", 1),
            // Nested: padded's exchange phase is Zero Rotation Bruck.
            ("zero_rotation.setup", 1),
            ("zero_rotation.step", steps),
        ],
        AlltoallvAlgorithm::SpreadOut => vec![("spread_out.send", 1), ("spread_out.recv", 1)],
        // One window span per batch of 32 peers.
        AlltoallvAlgorithm::Vendor => vec![("vendor.window", (p as u64 - 1).div_ceil(32))],
        other => panic!("no phase expectation table for {other:?}"),
    }
}

/// Positive direction: run every cell of `algo`, assert zero violations of
/// any kind.
fn assert_conformant(algo: AlltoallvAlgorithm) {
    for p in WORLD_SIZES {
        let expected_spans = expected_phases_v(algo, p);
        for (label, m) in workloads(p) {
            let trace = nonuniform_trace(algo, &MatrixSource(&m), &RankSample::all(p));
            for (rank, (metrics, events)) in run_metered_v(algo, &m).iter().enumerate() {
                let mut v = conformance_violations(rank, metrics, &trace);
                v.extend(phase_violations(rank, events, &expected_spans));
                assert!(v.is_empty(), "{algo:?} / {label} / p={p} rank {rank}:\n{}", v.join("\n"));
            }
        }
    }
}

#[test]
fn two_phase_bruck_conforms_to_model() {
    assert_conformant(AlltoallvAlgorithm::TwoPhaseBruck);
}

#[test]
fn padded_bruck_conforms_to_model() {
    assert_conformant(AlltoallvAlgorithm::PaddedBruck);
}

#[test]
fn spread_out_conforms_to_model() {
    assert_conformant(AlltoallvAlgorithm::SpreadOut);
}

#[test]
fn vendor_conforms_to_model() {
    assert_conformant(AlltoallvAlgorithm::Vendor);
}

#[test]
fn uniform_zero_rotation_conforms_to_model() {
    // The uniform radix-2 contribution: three block sizes stand in for the
    // workload shapes (a uniform exchange has no distribution axis).
    for p in WORLD_SIZES {
        for n in [4usize, 64, 257] {
            let trace = uniform_trace(AlltoallAlgorithm::ZeroRotationBruck, p, n, &RankSample::all(p));
            let steps = u64::from(ceil_log2(p));
            let expected_spans =
                vec![("zero_rotation.setup", 1), ("zero_rotation.step", steps)];
            let results = ThreadComm::run(p, |comm| {
                let mc = MeteredComm::new(comm);
                let me = mc.rank();
                let sendbuf: Vec<u8> = (0..p * n).map(|i| (i + me) as u8).collect();
                let mut recvbuf = vec![0u8; p * n];
                probe::install();
                alltoall(AlltoallAlgorithm::ZeroRotationBruck, &mc, &sendbuf, &mut recvbuf, n)
                    .unwrap();
                (mc.metrics(), probe::take())
            });
            for (rank, (metrics, events)) in results.iter().enumerate() {
                let mut v = conformance_violations(rank, metrics, &trace);
                v.extend(phase_violations(rank, events, &expected_spans));
                assert!(v.is_empty(), "zero-rotation / p={p} n={n} rank {rank}:\n{}", v.join("\n"));
            }
        }
    }
}

#[test]
fn miscounted_fixture_fails_the_checker() {
    // Negative control: the same measured run, checked against a trace with
    // one extra predicted message, must produce violations on every rank.
    let p = 8;
    let m = SizeMatrix::generate(Distribution::Uniform, SEED, p, 48);
    let mut trace =
        nonuniform_trace(AlltoallvAlgorithm::TwoPhaseBruck, &MatrixSource(&m), &RankSample::all(p));
    let step = trace
        .steps
        .iter_mut()
        .find(|s| matches!(s.kind, StepKind::Data(0)))
        .expect("two-phase trace has a Data(0) step");
    for (_, load) in &mut step.loads {
        load.seq_msgs += 1; // the deliberate miscount
        load.bytes_out += 1_000_000;
    }
    let results = run_metered_v(AlltoallvAlgorithm::TwoPhaseBruck, &m);
    for (rank, (metrics, _)) in results.iter().enumerate() {
        let v = conformance_violations(rank, metrics, &trace);
        assert!(
            v.iter().any(|s| s.contains("messages")) && v.iter().any(|s| s.contains("bytes")),
            "rank {rank}: miscounted fixture must fail both counts and bytes, got {v:?}"
        );
    }
}

#[test]
fn miscounted_leader_scatter_fails_the_checker() {
    // The leader trace counts each scatter send: the honest trace holds
    // exactly, and one off by one on the scatter tag fails, naming it.
    // P = 12 puts a leader over eight ranks and one over four.
    let (p, algo) = (12, AlltoallvAlgorithm::Hierarchical);
    let m = SizeMatrix::generate(Distribution::Uniform, SEED, p, 48);
    let honest = nonuniform_trace(algo, &MatrixSource(&m), &RankSample::all(p));
    let mut trace = honest.clone();
    let step = trace.steps.iter_mut().find(|s| s.kind == StepKind::HierScatter).unwrap();
    step.loads.iter_mut().for_each(|(_, load)| load.ov_msgs += 1); // the deliberate miscount
    let named = format!("tag {HIER_SCATTER_TAG:#x}:");
    for (rank, (metrics, _)) in run_metered_v(algo, &m).iter().enumerate() {
        assert_eq!(conformance_violations(rank, metrics, &honest), Vec::<String>::new());
        let v = conformance_violations(rank, metrics, &trace);
        assert!(v.iter().any(|s| s.contains(&named) && s.contains("messages")), "{v:?}");
        assert!(v.iter().all(|s| s.contains(&named) || s.contains("logical messages")), "{v:?}");
    }
}

#[test]
fn misnamed_phase_fixture_fails_the_checker() {
    // Phase-count negative control: expecting a span the algorithm never
    // emits (and the wrong count for one it does) must be reported.
    let p = 8;
    let m = SizeMatrix::generate(Distribution::Uniform, SEED, p, 32);
    let results = run_metered_v(AlltoallvAlgorithm::SpreadOut, &m);
    let wrong = [("spread_out.send", 2u64), ("spread_out.warp", 1u64)];
    for (rank, (_, events)) in results.iter().enumerate() {
        let v = phase_violations(rank, events, &wrong);
        assert!(v.len() >= 2, "rank {rank}: expected both phase violations, got {v:?}");
    }
}
