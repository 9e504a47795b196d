//! Backend equivalence: the same algorithm, workload, and rank must produce
//! **byte-identical** receive buffers on every runtime backend —
//! [`ThreadComm`] (rank-per-OS-thread), [`SimComm`] (deterministic
//! cooperative simulator), and [`EventComm`] (event-driven worker pool with
//! run-to-block + replay suspension).
//!
//! This is the contract that lets the rest of the workspace treat backends
//! as interchangeable: algorithms are written once against [`Communicator`],
//! verified cheaply on the simulator, stressed on real threads, and scaled
//! to tens of thousands of ranks on the event runtime — all with the
//! guarantee that a disagreement is a backend bug, not an algorithm quirk.
//!
//! The matrix covers all eight [`AlltoallvAlgorithm`]s across two workload
//! distributions and several world sizes, plus one fault-stack cell
//! (`FaultComm` → `ReliableComm` → [`recovering_alltoallv`], the one fault
//! path) proving the wrapper stack and the recovering driver compose
//! unchanged over every runtime: the fault plan injects repair-only faults
//! (drop / duplicate / corrupt — no crash), so the ARQ layer must restore
//! exactly-once delivery, every rank must commit the first attempt, and the
//! bytes must match on every backend.

use std::time::Duration;

use bruck_comm::{
    Communicator, EventComm, FaultComm, FaultPlan, ReliableComm, ReliableConfig, SimComm,
    ThreadComm,
};
use bruck_core::{
    alltoallv, packed_displs, recovering_alltoallv, AlltoallvAlgorithm, RecoveringConfig,
    RecoveryOutcome,
};
use bruck_workload::{Distribution, SizeMatrix};

mod common;

use common::{power_law_and_sparse, same_on_every_path, PATH_SIZES};

/// Pattern byte for (src, dst, idx): distinct across blocks, same convention
/// as `tests/algorithms_agree.rs`.
fn pat(src: usize, dst: usize, idx: usize) -> u8 {
    (src.wrapping_mul(101) ^ dst.wrapping_mul(17) ^ idx) as u8
}

/// One rank's side of the exchange, backend-agnostic: build the pattern
/// send buffer, run `algo`, return the receive buffer.
fn exchange<C: Communicator + ?Sized>(
    comm: &C,
    algo: AlltoallvAlgorithm,
    m: &SizeMatrix,
) -> Vec<u8> {
    let p = m.p();
    let me = comm.rank();
    let sendcounts = m.sendcounts(me);
    let sdispls = packed_displs(&sendcounts);
    let mut sendbuf = vec![0u8; sendcounts.iter().sum()];
    for dst in 0..p {
        for idx in 0..sendcounts[dst] {
            sendbuf[sdispls[dst] + idx] = pat(me, dst, idx);
        }
    }
    let recvcounts = m.recvcounts(me);
    let rdispls = packed_displs(&recvcounts);
    let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
    alltoallv(algo, comm, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls)
        .unwrap_or_else(|e| panic!("rank {me}: {} failed: {e}", algo.name()));
    recvbuf
}

fn on_thread(algo: AlltoallvAlgorithm, m: &SizeMatrix) -> Vec<Vec<u8>> {
    ThreadComm::run(m.p(), |comm| exchange(comm, algo, m))
}

fn on_sim(algo: AlltoallvAlgorithm, m: &SizeMatrix, seed: u64) -> Vec<Vec<u8>> {
    SimComm::run(m.p(), seed, |comm| exchange(comm, algo, m)).results
}

fn on_event(algo: AlltoallvAlgorithm, m: &SizeMatrix, workers: usize) -> Vec<Vec<u8>> {
    EventComm::run_pooled(m.p(), workers, |comm| exchange(comm, algo, m))
}

/// The full matrix: 8 algorithms × 2 distributions × 3 world sizes, three
/// backends each, every receive buffer compared byte-for-byte.
#[test]
fn all_algorithms_byte_identical_across_backends() {
    let dists = [(Distribution::Uniform, "uniform"), (Distribution::Normal, "normal")];
    for (dist, dist_name) in dists {
        for p in [4usize, 9, 16] {
            let m = SizeMatrix::generate(dist, 0xBAC0 ^ p as u64, p, 64);
            for algo in AlltoallvAlgorithm::ALL {
                let reference = on_thread(algo, &m);
                let sim = on_sim(algo, &m, 0x5EED ^ p as u64);
                assert_eq!(
                    sim,
                    reference,
                    "{} on SimComm diverges from ThreadComm ({dist_name}, p={p})",
                    algo.name()
                );
                // Fewer workers than ranks, so multiplexing (park + replay)
                // is actually exercised, not just the fast path.
                let event = on_event(algo, &m, 3);
                assert_eq!(
                    event,
                    reference,
                    "{} on EventComm diverges from ThreadComm ({dist_name}, p={p})",
                    algo.name()
                );
            }
        }
    }
}

/// Every algorithm through the public `alltoallv`, on every path of the
/// engine's loops: blocking on ThreadComm, SimComm and under `MeteredComm`,
/// and as a bare `EventComm`'s stored calls — identical bytes, identical
/// per-tag wire counts.
#[test]
fn every_algorithm_agrees_on_every_path() {
    for p in PATH_SIZES {
        for m in &power_law_and_sparse(p, 64) {
            for algo in AlltoallvAlgorithm::ALL {
                same_on_every_path(p, algo.name(), |comm| exchange(comm, algo, m));
            }
        }
    }
}

/// A larger overlap point: at P = 128 the rank-per-thread backend is near
/// its comfortable ceiling while the event runtime runs the same world on
/// four workers — the bytes must still agree exactly.
#[test]
fn event_matches_thread_at_p_128() {
    let m = SizeMatrix::generate(Distribution::Uniform, 0x128, 128, 8);
    for algo in [AlltoallvAlgorithm::TwoPhaseBruck, AlltoallvAlgorithm::PaddedBruck] {
        let reference = on_thread(algo, &m);
        let event = on_event(algo, &m, 4);
        assert_eq!(event, reference, "{} diverges at p=128", algo.name());
    }
}

/// One rank's side of the fault-stack cell: repair-only faults injected
/// below an ARQ layer below the recovering driver. The plan has no crashes
/// and no stalls, so every rank must commit the first attempt on the whole
/// world, on every backend.
fn recovering_exchange<C: Communicator + ?Sized>(comm: &C, m: &SizeMatrix) -> Vec<u8> {
    let p = m.p();
    let plan = FaultPlan::new(0xFA17).with_drop(0.04).with_duplicate(0.04).with_corrupt(0.03);
    let fc = FaultComm::new(comm, plan);
    let rc = ReliableComm::with_config(
        &fc,
        ReliableConfig {
            ack_timeout: Duration::from_millis(10),
            max_retries: 10,
            backoff_cap: Duration::from_millis(60),
        },
    );
    let me = rc.rank();
    let sendcounts = m.sendcounts(me);
    let sendbuf: Vec<u8> =
        (0..p).flat_map(|dst| (0..sendcounts[dst]).map(move |idx| pat(me, dst, idx))).collect();
    let view: Vec<usize> = (0..p).collect();
    let algo = AlltoallvAlgorithm::TwoPhaseBruck;
    let cfg = RecoveringConfig::default();
    let rec = recovering_alltoallv(&cfg, &rc, algo, &view, &sendcounts, &sendbuf)
        .unwrap_or_else(|e| panic!("rank {me}: recovering exchange failed: {e}"));
    assert_eq!(rec.outcome, RecoveryOutcome::Complete, "rank {me} under a repair-only plan");
    let (recvbuf, recvcounts) = rec.value;
    assert_eq!(recvcounts, m.recvcounts(me), "rank {me}");
    // Keep re-acking peers' retransmissions until the network goes quiet, so
    // no rank tears down while another still waits on an ack.
    rc.quiesce(Duration::from_millis(120), Duration::from_secs(2))
        .unwrap_or_else(|e| panic!("rank {me}: quiesce failed: {e}"));
    recvbuf
}

/// The fault-stack cell: `FaultComm` → `ReliableComm` →
/// `recovering_alltoallv` composes unchanged over all three backends and
/// repairs to identical bytes.
#[test]
fn fault_stack_recovers_identical_bytes_on_every_backend() {
    let m = SizeMatrix::generate(Distribution::Uniform, 0xFA17, 5, 48);
    let reference = ThreadComm::run(m.p(), |comm| recovering_exchange(comm, &m));
    let sim = SimComm::run(m.p(), 0x51F7, |comm| recovering_exchange(comm, &m)).results;
    assert_eq!(sim, reference, "fault stack on SimComm diverges from ThreadComm");
    let event = EventComm::run_pooled(m.p(), 2, |comm| recovering_exchange(comm, &m));
    assert_eq!(event, reference, "fault stack on EventComm diverges from ThreadComm");
}
