//! Bench for the substrate itself: point-to-point latency, collectives, the
//! datatype engine vs. hand-rolled memcpy packing (the ablation behind the
//! paper's Figure 2 finding), and the zero-copy `MsgBuf` send path vs. the
//! compat copying path on a large-message all-to-all. Std-only harness.

use std::time::{Duration, Instant};

use bruck_bench::harness::BenchGroup;
use bruck_comm::{Communicator, MeteredComm, MsgBuf, ReduceOp, Tag, ThreadComm};
use bruck_core::{alltoallv, packed_displs, AlltoallvAlgorithm};
use bruck_datatype::IndexedBlocks;
use bruck_workload::{Distribution, SizeMatrix};

fn bench_p2p() {
    let mut group = BenchGroup::new("comm_p2p");
    group.sample_size(10);
    for size in [32usize, 4096] {
        group.bench_custom(&format!("sendrecv_ping/{size}"), |iters| {
            let times = ThreadComm::run(2, |comm| {
                let payload = vec![0u8; size];
                let peer = 1 - comm.rank();
                comm.barrier().unwrap();
                let start = Instant::now();
                for _ in 0..iters {
                    comm.sendrecv(peer, 1, &payload, peer, 1).unwrap();
                }
                start.elapsed()
            });
            times.into_iter().max().unwrap()
        });
        group.bench_custom(&format!("sendrecv_buf_ping/{size}"), |iters| {
            let times = ThreadComm::run(2, |comm| {
                let region = MsgBuf::from_vec(vec![0u8; size]);
                let peer = 1 - comm.rank();
                comm.barrier().unwrap();
                let start = Instant::now();
                for _ in 0..iters {
                    comm.sendrecv_buf(peer, 1, region.slice(..), peer, 1).unwrap();
                }
                start.elapsed()
            });
            times.into_iter().max().unwrap()
        });
    }
    group.finish();
}

fn bench_collectives() {
    let mut group = BenchGroup::new("comm_collectives");
    group.sample_size(10);
    for p in [8usize, 64] {
        group.bench_custom(&format!("barrier/{p}"), |iters| {
            let times: Vec<Duration> = ThreadComm::run(p, |comm| {
                let start = Instant::now();
                for _ in 0..iters {
                    comm.barrier().unwrap();
                }
                start.elapsed()
            });
            times.into_iter().max().unwrap()
        });
        group.bench_custom(&format!("allreduce_max/{p}"), |iters| {
            let times: Vec<Duration> = ThreadComm::run(p, |comm| {
                let start = Instant::now();
                for i in 0..iters {
                    comm.allreduce_u64(i ^ comm.rank() as u64, ReduceOp::Max).unwrap();
                }
                start.elapsed()
            });
            times.into_iter().max().unwrap()
        });
    }
    group.finish();
}

/// The Figure 2 micro-cause: datatype-engine pack vs. explicit memcpy pack of
/// the same (P+1)/2 non-contiguous blocks.
fn bench_pack_paths() {
    let mut group = BenchGroup::new("pack_datatype_vs_memcpy");
    for (p, block) in [(256usize, 32usize), (256, 512)] {
        let buf: Vec<u8> = (0..p * block).map(|i| i as u8).collect();
        let blocks: Vec<(usize, usize)> =
            (0..p).filter(|i| i & 1 == 1).map(|i| (i * block, block)).collect();
        let layout = IndexedBlocks::new(blocks.clone()).unwrap();
        let mut wire = vec![0u8; layout.packed_len()];
        group.bench(&format!("datatype_pack/p{p}_b{block}"), || {
            layout.pack_into(&buf, &mut wire).unwrap();
        });
        group.bench(&format!("memcpy_pack/p{p}_b{block}"), || {
            let mut at = 0;
            for &(d, l) in &blocks {
                wire[at..at + l].copy_from_slice(&buf[d..d + l]);
                at += l;
            }
            std::hint::black_box(at);
        });
    }
    group.finish();
}

const COPY_BENCH_TAG: Tag = 0x0777;

/// Spread-out exchange through the compat `&[u8]` path: one payload copy per
/// message (the pre-`MsgBuf` transport behaviour, kept here as the baseline).
fn compat_spread_out<C: Communicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
    recvbuf: &mut [u8],
    recvcounts: &[usize],
    rdispls: &[usize],
) {
    let p = comm.size();
    let me = comm.rank();
    recvbuf[rdispls[me]..rdispls[me] + recvcounts[me]]
        .copy_from_slice(&sendbuf[sdispls[me]..sdispls[me] + sendcounts[me]]);
    for step in 1..p {
        let dest = (me + step) % p;
        comm.isend(dest, COPY_BENCH_TAG, &sendbuf[sdispls[dest]..sdispls[dest] + sendcounts[dest]])
            .unwrap();
    }
    for step in 1..p {
        let src = (me + p - step) % p;
        comm.recv_into(src, COPY_BENCH_TAG, &mut recvbuf[rdispls[src]..rdispls[src] + recvcounts[src]])
            .unwrap();
    }
}

/// Spread-out exchange over an already-packed `MsgBuf` region: the steady
/// state the zero-copy API enables (an application that builds its send
/// data in a shared region once pays zero copies per exchange). The compat
/// API cannot express this — every send repacks.
fn region_spread_out<C: Communicator + ?Sized>(
    comm: &C,
    packed: &MsgBuf,
    sendcounts: &[usize],
    sdispls: &[usize],
    recvbuf: &mut [u8],
    recvcounts: &[usize],
    rdispls: &[usize],
) {
    let p = comm.size();
    let me = comm.rank();
    recvbuf[rdispls[me]..rdispls[me] + recvcounts[me]]
        .copy_from_slice(&packed[sdispls[me]..sdispls[me] + sendcounts[me]]);
    for step in 1..p {
        let dest = (me + step) % p;
        comm.isend_buf(
            dest,
            COPY_BENCH_TAG,
            packed.slice(sdispls[dest]..sdispls[dest] + sendcounts[dest]),
        )
        .unwrap();
    }
    for step in 1..p {
        let src = (me + p - step) % p;
        comm.recv_into(src, COPY_BENCH_TAG, &mut recvbuf[rdispls[src]..rdispls[src] + recvcounts[src]])
            .unwrap();
    }
}

/// Large-message all-to-all: the `MsgBuf` path (pack once, send refcounted
/// views) against the compat path (copy every message), plus the prepacked
/// steady state (region built once, zero copies per exchange). Also prints
/// the copied-byte totals measured by `MeteredComm`'s copy class, which is the
/// point: same wire traffic, far fewer bytes copied, no slowdown.
fn bench_alltoallv_copy_paths() {
    let p = 16;
    let n = 32 * 1024; // large blocks: the regime where copies dominate
    let m = SizeMatrix::generate(Distribution::Uniform, 11, p, n);

    // Copied-byte audit (untimed, one run each).
    let audits: Vec<(u64, u64)> = ThreadComm::run(p, |comm| {
        let me = comm.rank();
        let sendcounts = m.sendcounts(me);
        let sdispls = packed_displs(&sendcounts);
        let sendbuf: Vec<u8> = (0..sendcounts.iter().sum()).map(|i| i as u8).collect();
        let recvcounts = m.recvcounts(me);
        let rdispls = packed_displs(&recvcounts);
        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];

        let counting = MeteredComm::new(comm);
        compat_spread_out(
            &counting, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
        );
        let compat_copied = counting.bytes_copied();
        counting.reset();
        alltoallv(
            AlltoallvAlgorithm::SpreadOut,
            &counting,
            &sendbuf,
            &sendcounts,
            &sdispls,
            &mut recvbuf,
            &recvcounts,
            &rdispls,
        )
        .unwrap();
        let msgbuf_copied = counting.bytes_copied();
        (compat_copied, msgbuf_copied)
    });
    let compat_total: u64 = audits.iter().map(|a| a.0).sum();
    let msgbuf_total: u64 = audits.iter().map(|a| a.1).sum();
    println!(
        "\n== alltoallv_large (P={p}, N={n}) ==\n\
         bytes copied on the send side: compat path {compat_total}, MsgBuf path {msgbuf_total}"
    );
    assert!(
        msgbuf_total < compat_total,
        "MsgBuf path must copy fewer bytes ({msgbuf_total} vs {compat_total})"
    );

    let mut group = BenchGroup::new("alltoallv_large");
    group.sample_size(10);
    group.bench_custom("compat_copy_per_message", |iters| {
        let times = ThreadComm::run(p, |comm| {
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
                compat_spread_out(
                    comm, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
                );
            }
            start.elapsed()
        });
        times.into_iter().max().unwrap()
    });
    group.bench_custom("msgbuf_zero_copy", |iters| {
        let times = ThreadComm::run(p, |comm| {
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
                alltoallv(
                    AlltoallvAlgorithm::SpreadOut,
                    comm,
                    &sendbuf,
                    &sendcounts,
                    &sdispls,
                    &mut recvbuf,
                    &recvcounts,
                    &rdispls,
                )
                .unwrap();
            }
            start.elapsed()
        });
        times.into_iter().max().unwrap()
    });
    group.bench_custom("msgbuf_prepacked_region", |iters| {
        let times = ThreadComm::run(p, |comm| {
            let me = comm.rank();
            let sendcounts = m.sendcounts(me);
            let sdispls = packed_displs(&sendcounts);
            let packed =
                MsgBuf::from_vec((0..sendcounts.iter().sum()).map(|i| i as u8).collect());
            let recvcounts = m.recvcounts(me);
            let rdispls = packed_displs(&recvcounts);
            let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
            comm.barrier().unwrap();
            let start = Instant::now();
            for _ in 0..iters {
                region_spread_out(
                    comm, &packed, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
                );
            }
            start.elapsed()
        });
        times.into_iter().max().unwrap()
    });
    group.finish();
}

fn main() {
    bench_p2p();
    bench_collectives();
    bench_pack_paths();
    bench_alltoallv_copy_paths();
}
