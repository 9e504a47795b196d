//! Radix-r extension: real implementations vs. model traces through the one
//! comparator (`tests/common/`), over the radix × world-size grid, plus
//! output equality across radices.

mod common;

use bruck_comm::{Communicator, MeteredComm, Metrics, ThreadComm};
use bruck_core::{
    configurable_alltoallv, packed_displs, zero_rotation_bruck_radix, EngineConfig,
};
use bruck_model::{zero_rotation_radix_trace, RankSample};
use bruck_workload::{Distribution, SizeMatrix};
use common::{assert_config_conforms, assert_conforms, metered_alltoallv};

/// Two-phase Bruck at radix `r`: the named point with one knob turned.
fn two_phase_radix(radix: usize) -> EngineConfig {
    EngineConfig { radix, ..EngineConfig::as_two_phase() }
}

#[test]
fn radix_two_phase_traces_predict_wire_bytes_exactly() {
    // Every unpadded layout × coupling point (two-phase and SLOAV are two of
    // them) and padded Bruck, at each radix and at r = P: one phase of P − 1
    // steps.
    let (split, combined) = (EngineConfig::as_two_phase(), EngineConfig::as_sloav());
    let points = [
        split,
        EngineConfig { two_phase_split: false, ..split },
        combined,
        EngineConfig { two_phase_split: true, ..combined },
        EngineConfig::as_padded_bruck(),
    ];
    for p in [4usize, 9, 12, 16] {
        for radix in [2, 3, 4, 8, p] {
            let m = SizeMatrix::generate(Distribution::Uniform, radix as u64 * 97, p, 64);
            for point in points {
                let cfg = EngineConfig { radix, ..point };
                assert_config_conforms(&cfg, &m, &metered_alltoallv(&cfg, &m));
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
                let meter = MeteredComm::new(comm);
                let sendbuf = vec![1u8; p * n];
                let mut recvbuf = vec![0u8; p * n];
                zero_rotation_bruck_radix(&meter, &sendbuf, &mut recvbuf, n, radix).unwrap();
                meter.metrics()
            });
            assert_conforms(&format!("radix {radix}, P={p}"), &metrics, &trace);
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
