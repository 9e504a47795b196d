//! Quickstart: a non-uniform all-to-all with two-phase Bruck in ~30 lines.
//!
//! Run with: `cargo run --example quickstart`

use bruck_comm::{Communicator, ThreadComm};
use bruck_core::{configurable_alltoallv, packed_displs, EngineConfig};

fn main() {
    const P: usize = 8;

    // `ThreadComm::run` is our `mpiexec -n 8`: one rank per thread.
    ThreadComm::run(P, |comm| {
        let me = comm.rank();

        // Rank p sends (p + dst + 1) bytes of value p to every rank dst —
        // a simple non-uniform workload.
        let sendcounts: Vec<usize> = (0..P).map(|dst| me + dst + 1).collect();
        let sdispls = packed_displs(&sendcounts);
        let sendbuf = vec![me as u8; sendcounts.iter().sum()];

        // As with MPI_Alltoallv, the receiver knows its counts: from src we
        // get (src + me + 1) bytes. (Use `comm.alltoall_counts` when counts
        // are not known a priori.)
        let recvcounts: Vec<usize> = (0..P).map(|src| src + me + 1).collect();
        let rdispls = packed_displs(&recvcounts);
        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];

        // Two-phase Bruck is a named point of the engine's knob space.
        let cfg = EngineConfig::as_two_phase();
        configurable_alltoallv(
            comm, &cfg, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
        )
        .expect("exchange failed");

        // Verify: the block from src is recvcounts[src] bytes of value src.
        for src in 0..P {
            let block = &recvbuf[rdispls[src]..rdispls[src] + recvcounts[src]];
            assert!(block.iter().all(|&b| b == src as u8));
        }
        if me == 0 {
            println!("rank 0 received blocks of sizes {recvcounts:?} — all verified ✓");
        }
    });

    println!("two-phase Bruck all-to-all across {P} ranks: OK");
}
