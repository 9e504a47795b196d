//! Ablation: the radix knob on two-phase Bruck — real execution at thread
//! scale. Higher radix trades per-step latency for less forwarded data, so
//! the best radix shifts upward with block size. Std-only harness.

use std::time::{Duration, Instant};

use bruck_bench::harness::BenchGroup;
use bruck_comm::{Communicator, ThreadComm};
use bruck_core::{configurable_alltoallv, packed_displs, EngineConfig};
use bruck_workload::{Distribution, SizeMatrix};

fn run_iters(m: &SizeMatrix, radix: usize, iters: u64) -> Duration {
    let p = m.p();
    let cfg = EngineConfig { radix, ..EngineConfig::as_two_phase() };
    let per_rank = ThreadComm::run(p, |comm| {
        let me = comm.rank();
        let sendcounts = m.sendcounts(me);
        let sdispls = packed_displs(&sendcounts);
        let sendbuf: Vec<u8> = (0..sendcounts.iter().sum()).map(|i| i as u8).collect();
        let recvcounts = m.recvcounts(me);
        let rdispls = packed_displs(&recvcounts);
        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
        comm.barrier().unwrap();
        let start = Instant::now();
        for _ in 0..iters {
            configurable_alltoallv(
                comm, &cfg, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
            )
            .unwrap();
        }
        start.elapsed()
    });
    per_rank.into_iter().max().unwrap()
}

fn main() {
    let p = 32;
    for n in [32usize, 1024] {
        let m = SizeMatrix::generate(Distribution::Uniform, 7, p, n);
        let mut group = BenchGroup::new(format!("radix_two_phase_p{p}_n{n}"));
        group.sample_size(10);
        for radix in [2usize, 4, 8, 32] {
            group.bench_custom(&radix.to_string(), |iters| run_iters(&m, radix, iters));
        }
        group.finish();
    }
}
