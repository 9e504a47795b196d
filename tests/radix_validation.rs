//! Radix-r extension: real implementations vs. model traces, byte-exact,
//! plus schedule agreement between `bruck-core` and `bruck-model`.

use bruck_comm::{Communicator, MeteredComm, Metrics, ThreadComm};
use bruck_core::{
    configurable_alltoallv, packed_displs, zero_rotation_bruck_radix, EngineConfig,
};
use bruck_model::{
    radix_trace_schedule, two_phase_radix_trace, zero_rotation_radix_trace, MatrixSource,
    RankSample,
};
use bruck_workload::{Distribution, SizeMatrix};

/// Two-phase Bruck at radix `r`: the named point with one knob turned.
fn two_phase_radix(radix: usize) -> EngineConfig {
    EngineConfig { radix, ..EngineConfig::as_two_phase() }
}

#[test]
fn core_and_model_radix_schedules_agree() {
    for p in [2usize, 5, 16, 27, 100] {
        for radix in [2usize, 3, 4, 8, 1 << 40, usize::MAX] {
            assert_eq!(
                bruck_core::radix_schedule(p, radix),
                radix_trace_schedule(p, radix),
                "p={p} radix={radix}"
            );
        }
    }
}

#[test]
fn radix_two_phase_traces_predict_wire_bytes_exactly() {
    for radix in [2usize, 3, 4, 8] {
        for p in [4usize, 9, 12, 16] {
            let m = SizeMatrix::generate(Distribution::Uniform, radix as u64 * 97, p, 64);
            let trace = two_phase_radix_trace(&MatrixSource(&m), radix, &RankSample::all(p));
            let metrics: Vec<Metrics> = ThreadComm::run(p, |comm| {
                let counting = MeteredComm::new(comm);
                let me = counting.rank();
                let sendcounts = m.sendcounts(me);
                let sdispls = packed_displs(&sendcounts);
                let sendbuf = vec![7u8; sendcounts.iter().sum()];
                let recvcounts = m.recvcounts(me);
                let rdispls = packed_displs(&recvcounts);
                let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
                configurable_alltoallv(
                    &counting, &two_phase_radix(radix), &sendbuf, &sendcounts, &sdispls,
                    &mut recvbuf, &recvcounts, &rdispls,
                )
                .unwrap();
                counting.metrics()
            });
            for (rank, m) in metrics.iter().enumerate() {
                for tag in trace.wire_tags() {
                    assert_eq!(
                        trace.bytes_for_tag(rank, tag),
                        Some(m.sent_for_tag(tag).bytes),
                        "radix {radix}, P={p}, rank {rank}, tag {tag:#x}"
                    );
                }
            }
        }
    }
}

#[test]
fn radix_uniform_traces_predict_wire_bytes_exactly() {
    for radix in [2usize, 3, 5] {
        for p in [4usize, 7, 16] {
            let n = 16;
            let trace = zero_rotation_radix_trace(p, n, radix, &RankSample::all(p));
            let metrics: Vec<Metrics> = ThreadComm::run(p, |comm| {
                let counting = MeteredComm::new(comm);
                let sendbuf = vec![1u8; p * n];
                let mut recvbuf = vec![0u8; p * n];
                zero_rotation_bruck_radix(&counting, &sendbuf, &mut recvbuf, n, radix).unwrap();
                counting.metrics()
            });
            for (rank, m) in metrics.iter().enumerate() {
                for tag in trace.wire_tags() {
                    assert_eq!(
                        trace.bytes_for_tag(rank, tag),
                        Some(m.sent_for_tag(tag).bytes),
                        "radix {radix}, P={p}, rank {rank}, tag {tag:#x}"
                    );
                }
            }
        }
    }
}

#[test]
fn radix_output_equals_binary_output() {
    // All radices compute the same exchange as the binary implementation.
    let p = 12;
    let m = SizeMatrix::generate(Distribution::Normal, 11, p, 80);
    let run = |radix: usize| -> Vec<Vec<u8>> {
        ThreadComm::run(p, |comm| {
            let me = comm.rank();
            let sendcounts = m.sendcounts(me);
            let sdispls = packed_displs(&sendcounts);
            let mut sendbuf = vec![0u8; sendcounts.iter().sum()];
            for (i, b) in sendbuf.iter_mut().enumerate() {
                *b = (me * 37 + i) as u8;
            }
            let recvcounts = m.recvcounts(me);
            let rdispls = packed_displs(&recvcounts);
            let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
            configurable_alltoallv(
                comm, &two_phase_radix(radix), &sendbuf, &sendcounts, &sdispls, &mut recvbuf,
                &recvcounts, &rdispls,
            )
            .unwrap();
            recvbuf
        })
    };
    let expect = run(2);
    for radix in [3usize, 4, 6, 12] {
        assert_eq!(run(radix), expect, "radix {radix}");
    }
}
