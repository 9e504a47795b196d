//! Algorithm selection: use the one cost model — `predict`, the time of a
//! config's byte-exact trace on a machine model — to answer the paper's own
//! motivating question: "with P = 350 and N = 800, should one use two-phase
//! Bruck, padded Bruck, or the vendor's MPI_Alltoallv?" — then let
//! `adaptive_alltoallv` make and run the selection for real.
//!
//! Run with: `cargo run --release --example algorithm_selection`

use bruck_comm::{Communicator, ThreadComm};
use bruck_core::{memory_overhead_bytes, packed_displs, EngineConfig};
use bruck_model::{
    adaptive_alltoallv, padded_beats_two_phase, AutoTuner, MachineModel,
};
use bruck_workload::{Distribution, SizeMatrix};

fn main() {
    let tuner = AutoTuner::new(MachineModel::theta_like());
    let candidates =
        [EngineConfig::as_vendor(), EngineConfig::as_padded_bruck(), EngineConfig::as_two_phase()];

    println!("Trace-model selection on the Theta-like machine (uniform workload):");
    for (p, n) in [(350usize, 800usize), (1024, 16), (1024, 64), (4096, 256), (4096, 4096)] {
        let ranked = tuner.select(&candidates, Distribution::Uniform, 1, p, n);
        let (winner, seconds) = ranked[0];
        let (runner_up, next) = ranked[1];
        println!(
            "  P = {p:>5}, N = {n:>5} → {} ({:.3} ms; runner-up {} loses {:.0} %; \
             §3.3 inequality (3) says padded beats two-phase: {})",
            winner.key(),
            seconds * 1e3,
            runner_up.key(),
            100.0 * (next - seconds) / seconds,
            padded_beats_two_phase(p, n, tuner.machine()),
        );
    }

    // A memory budget is a filter on the candidate slice, not another
    // selector: at N = 8 padded Bruck wins on time but needs two padded
    // images; a budget that only fits the two-phase working buffer keeps it
    // out of the ranking.
    let (p, n) = (1024, 8);
    let totals = p * n / 2;
    let budget = memory_overhead_bytes(EngineConfig::as_two_phase(), p, n, totals, totals);
    let affordable: Vec<EngineConfig> = candidates
        .iter()
        .copied()
        .filter(|&c| memory_overhead_bytes(c, p, n, totals, totals) <= budget)
        .collect();
    let free = tuner.select(&candidates, Distribution::Uniform, 1, p, n)[0].0;
    let tight = tuner.select(&affordable, Distribution::Uniform, 1, p, n)[0].0;
    println!("\nP = {p}, N = {n}: unlimited memory → {}; {budget} B budget → {}", free.key(), tight.key());

    // Run the selection for real at a thread-feasible scale: one allreduce
    // finds N, every rank ranks the candidates identically, the winner runs.
    let (p, n) = (16, 64);
    println!("\nRunning adaptive_alltoallv for real at P = {p}, N ≤ {n}:");
    let m = SizeMatrix::generate(Distribution::Uniform, 9, p, n);
    let picked = ThreadComm::run(p, |comm| {
        let me = comm.rank();
        let sendcounts = m.sendcounts(me);
        let sdispls = packed_displs(&sendcounts);
        let sendbuf = vec![me as u8; sendcounts.iter().sum()];
        let recvcounts = comm.alltoall_counts(&sendcounts).unwrap();
        let rdispls = packed_displs(&recvcounts);
        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
        let cfg = adaptive_alltoallv(
            comm, &tuner, &candidates, &sendbuf, &sendcounts, &sdispls, &mut recvbuf,
            &recvcounts, &rdispls,
        )
        .unwrap();
        let ok = (0..p).all(|src| {
            recvbuf[rdispls[src]..rdispls[src] + recvcounts[src]].iter().all(|&b| b == src as u8)
        });
        assert!(ok, "exchange verification failed on rank {me}");
        cfg
    });
    assert!(picked.windows(2).all(|w| w[0] == w[1]), "ranks must agree on the config");
    println!("  every rank picked {} — verified on all {p} ranks ✓", picked[0].key());

    // Sanity: the selection degrades gracefully — the pairwise path wins for
    // huge blocks at scale.
    let huge = tuner.select(&candidates, Distribution::Uniform, 1, 4096, 1 << 16)[0].0;
    assert_eq!(huge, EngineConfig::as_vendor());
}
