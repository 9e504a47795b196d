//! The differential collective gauntlet (DESIGN.md §16).
//!
//! Every schedule of the collective family — allgatherv (ring / Bruck /
//! PAT), reduce_scatter (pairwise / recursive halving / PAT), allreduce
//! (recursive doubling / reduce_scatter+allgather) — is held to four bars:
//!
//! 1. **Differential**: byte-identical to the naive local reference on
//!    every rank, across ThreadComm, SimComm, and EventComm.
//! 2. **Schedule independence**: byte-identical results over 16 SimComm
//!    schedule seeds.
//! 3. **Conformance**: under `MeteredComm`, per-tag message and byte counts
//!    match `bruck-model`'s pricing of the same step plans *exactly* (the one
//!    comparator, `tests/common/`), logical totals are fully explained by the
//!    trace, and the probe-span timeline matches the declared phase table.
//! 4. **Honest gate**: a deliberately miscounted model trace must produce a
//!    precise violation — proving the conformance gate can actually fail.
//! 5. **Typed errors**: a partial a word short or a word long, on any step
//!    of the in-place `ReduceScatterAllgather`, is a typed error on every
//!    backend, never a panic.

mod common;

use bruck_comm::{
    CommError, Communicator, EventComm, MeteredComm, Metrics, MsgBuf, ReduceOp, SimComm, ThreadComm,
};
use bruck_core::common::{
    add_mod, agv_bruck_tag, agv_ring_tag, ar_doubling_tag, ceil_log2, pat_ag_tag, pat_rs_tag,
    rs_halving_tag, sub_mod, RS_PAIRWISE_TAG,
};
use bruck_core::probe::{self, PhaseEvent};
use bruck_core::{
    allgatherv, allgatherv_plan, allreduce, packed_displs, pattern_byte, pattern_u64, piece_len,
    reduce_scatter, reduce_scatter_plan, reference_allgatherv, reference_allreduce,
    reference_reduce_scatter, AllgathervAlgorithm, AllreduceAlgorithm, Plan,
    ReduceScatterAlgorithm,
};
use bruck_model::{allgatherv_trace, allreduce_trace, reduce_scatter_trace, CommTrace, RankSample};
use common::{conformance_violations, phase_violations, same_on_every_path, PATH_SIZES};

/// World sizes covering the degenerate (1), even/odd, power-of-two and
/// non-power-of-two regimes.
const SIZES: [usize; 6] = [1, 2, 3, 5, 8, 12];

/// The conformance bar adds P = 6 and 7: every point is one message per rank
/// per step at any P (7 is where `Sum`'s doubling carries two windows).
const CONFORMANCE_SIZES: [usize; 8] = [1, 2, 3, 5, 6, 7, 8, 12];

const SIM_SEEDS: u64 = 16;

/// Deterministic non-uniform per-rank counts with zeros sprinkled in.
fn gv_counts(p: usize, seed: u64) -> Vec<usize> {
    (0..p)
        .map(|i| {
            let x = (seed.wrapping_mul(31).wrapping_add(i as u64 * 7)) % 13;
            if (i as u64 + seed) % 4 == 0 {
                0
            } else {
                x as usize + 1
            }
        })
        .collect()
}

fn gv_input(r: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| pattern_byte(r, i)).collect()
}

fn rs_input(r: usize, len: usize) -> Vec<u64> {
    (0..len).map(|i| pattern_u64(r, i)).collect()
}

/// The closure each rank runs for one allgatherv cell.
fn gv_cell<C: Communicator + ?Sized>(
    algo: AllgathervAlgorithm,
    comm: &C,
    counts: &[usize],
) -> Vec<u8> {
    let me = comm.rank();
    let displs = packed_displs(counts);
    let input = gv_input(me, counts[me]);
    let mut recvbuf = vec![0u8; counts.iter().sum()];
    allgatherv(algo, comm, &input, &mut recvbuf, counts, &displs).unwrap();
    recvbuf
}

fn rs_cell<C: Communicator + ?Sized>(
    algo: ReduceScatterAlgorithm,
    comm: &C,
    counts: &[usize],
    op: ReduceOp,
) -> Vec<u64> {
    let me = comm.rank();
    let total: usize = counts.iter().sum();
    let input = rs_input(me, total);
    let mut recvbuf = vec![0u64; counts[me]];
    reduce_scatter(algo, comm, &input, &mut recvbuf, counts, op).unwrap();
    recvbuf
}

fn ar_cell<C: Communicator + ?Sized>(
    algo: AllreduceAlgorithm,
    comm: &C,
    n: usize,
    op: ReduceOp,
) -> Vec<u64> {
    let mut buf = rs_input(comm.rank(), n);
    allreduce(algo, comm, &mut buf, op).unwrap();
    buf
}

// ---------------------------------------------------------------------------
// Bar 1: differential vs the local reference, across all three backends.
// ---------------------------------------------------------------------------

#[test]
fn allgatherv_is_byte_identical_across_backends() {
    for p in SIZES {
        let counts = gv_counts(p, 2);
        let want = reference_allgatherv(&(0..p).map(|r| gv_input(r, counts[r])).collect::<Vec<_>>());
        for algo in AllgathervAlgorithm::ALL {
            let c = counts.clone();
            let thread = ThreadComm::run(p, move |comm| gv_cell(algo, comm, &c));
            let c = counts.clone();
            let sim = SimComm::run(p, 1, move |comm| gv_cell(algo, comm, &c)).results;
            let c = counts.clone();
            let event = EventComm::run(p, move |comm| gv_cell(algo, comm, &c));
            for (backend, results) in [("ThreadComm", &thread), ("SimComm", &sim), ("EventComm", &event)] {
                for (r, got) in results.iter().enumerate() {
                    assert_eq!(got, &want, "{} {backend} rank {r} p={p}", algo.name());
                }
            }
        }
    }
}

#[test]
fn reduce_scatter_is_byte_identical_across_backends() {
    for p in SIZES {
        let counts = gv_counts(p, 4);
        let total: usize = counts.iter().sum();
        let inputs: Vec<Vec<u64>> = (0..p).map(|r| rs_input(r, total)).collect();
        for op in ReduceOp::ALL {
            let want = reference_reduce_scatter(&inputs, &counts, op);
            for algo in ReduceScatterAlgorithm::ALL {
                let c = counts.clone();
                let thread = ThreadComm::run(p, move |comm| rs_cell(algo, comm, &c, op));
                let c = counts.clone();
                let sim = SimComm::run(p, 1, move |comm| rs_cell(algo, comm, &c, op)).results;
                let c = counts.clone();
                let event = EventComm::run(p, move |comm| rs_cell(algo, comm, &c, op));
                for (backend, results) in
                    [("ThreadComm", &thread), ("SimComm", &sim), ("EventComm", &event)]
                {
                    for (r, got) in results.iter().enumerate() {
                        assert_eq!(got, &want[r], "{} {backend} rank {r} p={p} {op:?}", algo.name());
                    }
                }
            }
        }
    }
}

#[test]
fn allreduce_is_byte_identical_across_backends() {
    for p in SIZES {
        for n in [0usize, 1, 23] {
            let inputs: Vec<Vec<u64>> = (0..p).map(|r| rs_input(r, n)).collect();
            for op in ReduceOp::ALL {
                let want = reference_allreduce(&inputs, op);
                for algo in AllreduceAlgorithm::ALL {
                    let thread = ThreadComm::run(p, move |comm| ar_cell(algo, comm, n, op));
                    let sim = SimComm::run(p, 1, move |comm| ar_cell(algo, comm, n, op)).results;
                    let event = EventComm::run(p, move |comm| ar_cell(algo, comm, n, op));
                    for (backend, results) in
                        [("ThreadComm", &thread), ("SimComm", &sim), ("EventComm", &event)]
                    {
                        for (r, got) in results.iter().enumerate() {
                            assert_eq!(
                                got, &want,
                                "{} {backend} rank {r} p={p} n={n} {op:?}",
                                algo.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Every collective schedule on every path of its loop — blocking on
/// ThreadComm, SimComm and under `MeteredComm`, and as a bare `EventComm`'s
/// stored call — with identical results and per-tag wire counts. Two count
/// shapes: zeros sprinkled in, and one more with rank 1 (rank 0 at P = 1)
/// contributing nothing.
#[test]
fn every_collective_agrees_on_every_path() {
    for p in PATH_SIZES {
        let sprinkled = gv_counts(p, 2);
        let mut silent = gv_counts(p, 5);
        silent[1 % p] = 0;
        for counts in [&sprinkled, &silent] {
            let n: usize = counts.iter().sum();
            for algo in AllgathervAlgorithm::ALL {
                same_on_every_path(p, algo.name(), |comm| gv_cell(algo, comm, counts));
            }
            for op in ReduceOp::ALL {
                for algo in ReduceScatterAlgorithm::ALL {
                    same_on_every_path(p, algo.name(), |comm| rs_cell(algo, comm, counts, op));
                }
                for algo in AllreduceAlgorithm::ALL {
                    same_on_every_path(p, algo.name(), |comm| ar_cell(algo, comm, n, op));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bar 2: schedule independence over SimComm seeds.
// ---------------------------------------------------------------------------

#[test]
fn every_schedule_is_seed_independent_on_simcomm() {
    for p in [5usize, 8] {
        let counts = gv_counts(p, 6);
        let total: usize = counts.iter().sum();
        let gv_want =
            reference_allgatherv(&(0..p).map(|r| gv_input(r, counts[r])).collect::<Vec<_>>());
        let rs_inputs: Vec<Vec<u64>> = (0..p).map(|r| rs_input(r, total)).collect();
        let rs_want = reference_reduce_scatter(&rs_inputs, &counts, ReduceOp::Sum);
        let ar_want =
            reference_allreduce(&(0..p).map(|r| rs_input(r, 19)).collect::<Vec<_>>(), ReduceOp::Sum);
        for seed in 0..SIM_SEEDS {
            for algo in AllgathervAlgorithm::ALL {
                let c = counts.clone();
                let run = SimComm::run(p, seed, move |comm| gv_cell(algo, comm, &c));
                for (r, got) in run.results.iter().enumerate() {
                    assert_eq!(got, &gv_want, "{} seed {seed} rank {r} p={p}", algo.name());
                }
            }
            for algo in ReduceScatterAlgorithm::ALL {
                let c = counts.clone();
                let run = SimComm::run(p, seed, move |comm| rs_cell(algo, comm, &c, ReduceOp::Sum));
                for (r, got) in run.results.iter().enumerate() {
                    assert_eq!(got, &rs_want[r], "{} seed {seed} rank {r} p={p}", algo.name());
                }
            }
            for algo in AllreduceAlgorithm::ALL {
                let run = SimComm::run(p, seed, move |comm| ar_cell(algo, comm, 19, ReduceOp::Sum));
                for (r, got) in run.results.iter().enumerate() {
                    assert_eq!(got, &ar_want, "{} seed {seed} rank {r} p={p}", algo.name());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bar 3: metered conformance against the model's priced plans.
// ---------------------------------------------------------------------------

fn nonzero(phases: Vec<(&'static str, u64)>) -> Vec<(&'static str, u64)> {
    phases.into_iter().filter(|&(_, c)| c > 0).collect()
}

fn gv_phases(algo: AllgathervAlgorithm, p: usize) -> Vec<(&'static str, u64)> {
    let lg = u64::from(ceil_log2(p));
    nonzero(match algo {
        AllgathervAlgorithm::Ring => vec![("agv_ring.step", p as u64 - 1)],
        AllgathervAlgorithm::Bruck => vec![("agv_bruck.step", lg)],
        AllgathervAlgorithm::Pat => vec![("pat_ag.step", lg)],
    })
}

/// Every rank runs every step of every schedule, at any P: one table per
/// schedule, the same on every rank.
fn rs_phases(algo: ReduceScatterAlgorithm, p: usize) -> Vec<(&'static str, u64)> {
    let lg = u64::from(ceil_log2(p));
    nonzero(match algo {
        ReduceScatterAlgorithm::Pairwise => vec![("rs_pairwise.step", p as u64 - 1)],
        ReduceScatterAlgorithm::RecursiveHalving => vec![("rs_halving.step", lg)],
        ReduceScatterAlgorithm::Pat => vec![("pat_rs.step", lg)],
    })
}

fn ar_phases(algo: AllreduceAlgorithm, p: usize) -> Vec<(&'static str, u64)> {
    match algo {
        AllreduceAlgorithm::RecursiveDoubling => {
            nonzero(vec![("ar_doubling.step", u64::from(ceil_log2(p)))])
        }
        AllreduceAlgorithm::ReduceScatterAllgather => {
            let mut v = rs_phases(ReduceScatterAlgorithm::RecursiveHalving, p);
            v.extend(gv_phases(AllgathervAlgorithm::Bruck, p));
            v
        }
    }
}

fn assert_conformant(
    name: &str,
    runs: &[(Metrics, Vec<PhaseEvent>)],
    trace: &CommTrace,
    phases: &[(&'static str, u64)],
) {
    for (rank, (metrics, events)) in runs.iter().enumerate() {
        let mut v = conformance_violations(rank, metrics, trace);
        v.extend(phase_violations(rank, events, phases));
        assert!(v.is_empty(), "{name}: {v:#?}");
    }
}

#[test]
fn allgatherv_conforms_to_model_traces() {
    for p in CONFORMANCE_SIZES {
        let counts = gv_counts(p, 7);
        for algo in AllgathervAlgorithm::ALL {
            let trace = allgatherv_trace(algo, &counts, &RankSample::all(p));
            let c = counts.clone();
            let runs = ThreadComm::run(p, move |comm| {
                let mc = MeteredComm::new(comm);
                probe::install();
                gv_cell(algo, &mc, &c);
                (mc.metrics(), probe::take())
            });
            assert_conformant(&format!("{} p={p}", algo.name()), &runs, &trace, &gv_phases(algo, p));
        }
    }
}

#[test]
fn reduce_scatter_conforms_to_model_traces() {
    for p in CONFORMANCE_SIZES {
        let counts = gv_counts(p, 9);
        for algo in ReduceScatterAlgorithm::ALL {
            let trace = reduce_scatter_trace(algo, &counts, &RankSample::all(p));
            let c = counts.clone();
            let runs = ThreadComm::run(p, move |comm| {
                let mc = MeteredComm::new(comm);
                probe::install();
                rs_cell(algo, &mc, &c, ReduceOp::Sum);
                (mc.metrics(), probe::take())
            });
            assert_conformant(&format!("{} p={p}", algo.name()), &runs, &trace, &rs_phases(algo, p));
        }
    }
}

#[test]
fn allreduce_conforms_to_model_traces() {
    for p in CONFORMANCE_SIZES {
        let n = 23usize;
        for algo in AllreduceAlgorithm::ALL {
            for op in [ReduceOp::Max, ReduceOp::Sum] {
                let trace = allreduce_trace(algo, op, p, n, &RankSample::all(p));
                let runs = ThreadComm::run(p, move |comm| {
                    let mc = MeteredComm::new(comm);
                    probe::install();
                    ar_cell(algo, &mc, n, op);
                    (mc.metrics(), probe::take())
                });
                let name = format!("{} {op:?} p={p}", algo.name());
                assert_conformant(&name, &runs, &trace, &ar_phases(algo, p));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tag agreement: the model prices core's plans; what this pins is each
// schedule's step *order*, and that no fold step remains at a
// non-power-of-two P.
// ---------------------------------------------------------------------------

#[test]
fn core_and_model_agree_on_every_wire_tag() {
    let p = 12;
    let counts = vec![4usize; p];
    let s = RankSample::all(p);
    let lg = ceil_log2(p);
    assert_eq!(
        allgatherv_trace(AllgathervAlgorithm::Ring, &counts, &s).wire_tags(),
        (0..p as u32 - 1).map(agv_ring_tag).collect::<Vec<_>>()
    );
    assert_eq!(
        allgatherv_trace(AllgathervAlgorithm::Bruck, &counts, &s).wire_tags(),
        (0..lg).map(agv_bruck_tag).collect::<Vec<_>>()
    );
    assert_eq!(
        allgatherv_trace(AllgathervAlgorithm::Pat, &counts, &s).wire_tags(),
        (0..lg).rev().map(pat_ag_tag).collect::<Vec<_>>()
    );
    assert_eq!(
        reduce_scatter_trace(ReduceScatterAlgorithm::Pairwise, &counts, &s).wire_tags(),
        vec![RS_PAIRWISE_TAG]
    );
    assert_eq!(
        reduce_scatter_trace(ReduceScatterAlgorithm::RecursiveHalving, &counts, &s).wire_tags(),
        (0..lg).rev().map(rs_halving_tag).collect::<Vec<_>>()
    );
    assert_eq!(
        reduce_scatter_trace(ReduceScatterAlgorithm::Pat, &counts, &s).wire_tags(),
        (0..lg).map(pat_rs_tag).collect::<Vec<_>>()
    );
    for op in ReduceOp::ALL {
        assert_eq!(
            allreduce_trace(AllreduceAlgorithm::RecursiveDoubling, op, p, 8, &s).wire_tags(),
            (0..lg).map(ar_doubling_tag).collect::<Vec<_>>()
        );
    }
}

// ---------------------------------------------------------------------------
// Bar 4: the conformance gate can fail — a miscounted fixture must produce
// a precise diagnostic.
// ---------------------------------------------------------------------------

#[test]
fn miscounted_allgatherv_fixture_fails_the_gate_with_precise_diagnostic() {
    let p = 5;
    let counts = gv_counts(p, 7);
    let c = counts.clone();
    let runs = ThreadComm::run(p, move |comm| {
        let mc = MeteredComm::new(comm);
        gv_cell(AllgathervAlgorithm::Bruck, &mc, &c);
        mc.metrics()
    });

    // The honest trace passes...
    let honest = allgatherv_trace(AllgathervAlgorithm::Bruck, &counts, &RankSample::all(p));
    for (rank, metrics) in runs.iter().enumerate() {
        assert!(conformance_violations(rank, metrics, &honest).is_empty());
    }

    // ...and a trace built from deliberately miscounted contributions — the
    // classic "one rank's count drifted" bug — must fail, naming a Bruck
    // wire tag, the measured bytes, and the (wrong) prediction.
    let mut wrong = counts.clone();
    wrong[1] += 3;
    let fixture = allgatherv_trace(AllgathervAlgorithm::Bruck, &wrong, &RankSample::all(p));
    let violations: Vec<String> = runs
        .iter()
        .enumerate()
        .flat_map(|(rank, metrics)| conformance_violations(rank, metrics, &fixture))
        .collect();
    assert!(!violations.is_empty(), "miscounted fixture must not pass the gate");
    assert!(
        violations.iter().any(|v| v.contains("tag 0x9") && v.contains("model predicts")),
        "diagnostic must name the Bruck tag and both byte counts: {violations:#?}"
    );

    // A wrong-schedule trace (ring instead of Bruck) fails on message
    // accounting, not just bytes.
    let wrong_schedule = allgatherv_trace(AllgathervAlgorithm::Ring, &counts, &RankSample::all(p));
    let violations: Vec<String> = runs
        .iter()
        .enumerate()
        .flat_map(|(rank, metrics)| conformance_violations(rank, metrics, &wrong_schedule))
        .collect();
    assert!(violations.iter().any(|v| v.contains("messages")), "{violations:#?}");
}

/// What rank 0 of a P = 3 world gets from `allreduce(ReduceScatterAllgather)`
/// of 7 words (pieces of 3, 2 and 2) when its two peers follow the schedule
/// up to step `fault` of the composition (halving's steps, then Bruck's) and
/// there send a partial one word short or one word long: the error, and the
/// length still queued on that step's tag.
fn against_rogue_partial<C: Communicator + ?Sized>(
    comm: &C,
    fault: usize,
    long: bool,
) -> Option<(CommError, Option<usize>)> {
    const N: usize = 7;
    let p = comm.size();
    let counts: Vec<usize> = (0..p).map(|i| piece_len(N, i, p)).collect();
    let halving = reduce_scatter_plan(ReduceScatterAlgorithm::RecursiveHalving, p);
    let bruck = allgatherv_plan(AllgathervAlgorithm::Bruck, p);
    let steps: Vec<(&Plan, usize)> = [&halving, &bruck]
        .into_iter()
        .flat_map(|plan| (0..plan.steps.len()).map(move |i| (plan, i)))
        .collect();
    let me = comm.rank();
    if me != 0 {
        for (k, &(plan, i)) in steps[..=fault].iter().enumerate() {
            if sub_mod(0, plan.steps[i].shift, p) == me {
                let words: usize = plan.received(i, 0).map(|b| counts[b]).sum();
                let words =
                    if k < fault { words } else { [words - 1, words + 1][usize::from(long)] };
                comm.send_buf(0, plan.steps[i].tag, MsgBuf::from_vec(vec![0; 8 * words])).unwrap();
            }
        }
        // Consume what rank 0 has sent this rank by the time it fails.
        for &(plan, i) in &steps[..=fault] {
            if add_mod(0, plan.steps[i].shift, p) == me {
                comm.recv_buf(0, plan.steps[i].tag).unwrap();
            }
        }
        return None;
    }
    let mut buf = vec![1u64; N];
    let err = allreduce(AllreduceAlgorithm::ReduceScatterAllgather, comm, &mut buf, ReduceOp::Sum)
        .expect_err("a partial of the wrong length must not be accepted");
    let (plan, i) = steps[fault];
    Some((err, comm.probe(sub_mod(0, plan.steps[i].shift, p), plan.steps[i].tag).unwrap()))
}

/// Every `(fault step, long, expected report)` of [`against_rogue_partial`]:
/// steps 0–1 are the reduce half's, 2–3 the gather half's. A short partial
/// is refused by the length check and consumed; a long one is refused
/// without being consumed.
fn rogue_partial_cases() -> Vec<(usize, bool, (CommError, Option<usize>))> {
    let short = || (CommError::BadArgument("short collective payload"), None);
    let long = |want: usize| {
        (CommError::Truncated { message_len: want + 8, buffer_len: want }, Some(want + 8))
    };
    // The partial rank 0 expects at each step: segment 0 (3 words) twice,
    // then piece 1 and piece 2 (2 words each).
    [24, 24, 16, 16]
        .into_iter()
        .enumerate()
        .flat_map(|(step, want)| [(step, false, short()), (step, true, long(want))])
        .collect()
}

#[test]
fn a_wrong_length_partial_is_a_typed_error_on_every_backend() {
    for (fault, long, want) in rogue_partial_cases() {
        let case = format!("step {fault}, a word {}", if long { "long" } else { "short" });
        let got = ThreadComm::run(3, |comm| against_rogue_partial(comm, fault, long));
        assert_eq!(got[0], Some(want.clone()), "ThreadComm {case}");
        let run = SimComm::run(3, 5, |comm| against_rogue_partial(comm, fault, long));
        assert_eq!(run.results[0], Some(want.clone()), "SimComm {case}");
        for workers in [1, 2] {
            let got = EventComm::run_pooled(3, workers, |comm| {
                assert!(comm.resumable().is_some(), "a bare EventComm runs the stored call");
                against_rogue_partial(comm, fault, long)
            });
            assert_eq!(got[0], Some(want.clone()), "EventComm ({workers} workers) {case}");
        }
    }
}
