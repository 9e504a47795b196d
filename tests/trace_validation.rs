//! The model↔implementation bridge (DESIGN.md §3, "validation bridges").
//!
//! For every algorithm, run the real implementation from `bruck-core` under
//! `MeteredComm` and assert that the byte-exact trace from `bruck-model`
//! predicts, for every rank and every wire tag (= communication step),
//! exactly the bytes the real code put on the wire. This is what licenses
//! trusting the model's predictions at `P = 32768`.

use bruck_comm::{Communicator, MeteredComm, Metrics, ThreadComm};
use bruck_core::{alltoall, alltoallv, packed_displs, AlltoallAlgorithm, AlltoallvAlgorithm};
use bruck_model::{
    nonuniform_trace, uniform_trace, MatrixSource, NonuniformAlgo, RankSample, UniformAlgo,
};
use bruck_workload::{Distribution, SizeMatrix};

/// (core algorithm, model trace generator) pairs — non-uniform.
const NONUNIFORM_PAIRS: [(AlltoallvAlgorithm, NonuniformAlgo); 8] = [
    (AlltoallvAlgorithm::SpreadOut, NonuniformAlgo::SpreadOut),
    (AlltoallvAlgorithm::Vendor, NonuniformAlgo::Vendor),
    (AlltoallvAlgorithm::PaddedBruck, NonuniformAlgo::PaddedBruck),
    (AlltoallvAlgorithm::PaddedAlltoall, NonuniformAlgo::PaddedAlltoall),
    (AlltoallvAlgorithm::TwoPhaseBruck, NonuniformAlgo::TwoPhaseBruck),
    (AlltoallvAlgorithm::Sloav, NonuniformAlgo::Sloav),
    (AlltoallvAlgorithm::Hierarchical, NonuniformAlgo::Hierarchical),
    (AlltoallvAlgorithm::RankaTwoStage, NonuniformAlgo::RankaTwoStage),
];

/// (core algorithm, model trace generator) pairs — uniform.
const UNIFORM_PAIRS: [(AlltoallAlgorithm, UniformAlgo); 7] = [
    (AlltoallAlgorithm::BasicBruck, UniformAlgo::BasicBruck),
    (AlltoallAlgorithm::BasicBruckDt, UniformAlgo::BasicBruckDt),
    (AlltoallAlgorithm::ModifiedBruck, UniformAlgo::ModifiedBruck),
    (AlltoallAlgorithm::ModifiedBruckDt, UniformAlgo::ModifiedBruckDt),
    (AlltoallAlgorithm::ZeroCopyBruckDt, UniformAlgo::ZeroCopyBruckDt),
    (AlltoallAlgorithm::ZeroRotationBruck, UniformAlgo::ZeroRotationBruck),
    (AlltoallAlgorithm::SpreadOut, UniformAlgo::SpreadOut),
];

fn check_nonuniform(core_algo: AlltoallvAlgorithm, model_algo: NonuniformAlgo, m: &SizeMatrix) {
    let p = m.p();
    let trace = nonuniform_trace(model_algo, &MatrixSource(m), &RankSample::all(p));
    let metrics: Vec<Metrics> = ThreadComm::run(p, |comm| {
        let counting = MeteredComm::new(comm);
        let me = counting.rank();
        let sendcounts = m.sendcounts(me);
        let sdispls = packed_displs(&sendcounts);
        let sendbuf = vec![0xABu8; sendcounts.iter().sum()];
        let recvcounts = m.recvcounts(me);
        let rdispls = packed_displs(&recvcounts);
        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
        alltoallv(
            core_algo, &counting, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts,
            &rdispls,
        )
        .unwrap();
        counting.metrics()
    });
    for (rank, m) in metrics.iter().enumerate() {
        for tag in trace.wire_tags() {
            assert_eq!(
                trace.bytes_for_tag(rank, tag),
                Some(m.sent_for_tag(tag).bytes),
                "{}: rank {rank}, tag {tag:#x}, P={p}",
                model_algo.name()
            );
        }
        assert_eq!(
            trace.wire_bytes_out(rank),
            Some(m.logical.sent_bytes),
            "{}: rank {rank} total, P={p}",
            model_algo.name()
        );
    }
}

#[test]
fn nonuniform_traces_predict_real_wire_bytes_exactly() {
    for p in [2usize, 4, 5, 8, 12, 16, 32] {
        let m = SizeMatrix::generate(Distribution::Uniform, 0xAA55 + p as u64, p, 64);
        for (core_algo, model_algo) in NONUNIFORM_PAIRS {
            check_nonuniform(core_algo, model_algo, &m);
        }
    }
}

#[test]
fn nonuniform_traces_hold_for_skewed_distributions() {
    for dist in [Distribution::Normal, Distribution::POWER_LAW_STEEP, Distribution::Windowed { r: 25 }] {
        let m = SizeMatrix::generate(dist, 7, 12, 96);
        for (core_algo, model_algo) in NONUNIFORM_PAIRS {
            check_nonuniform(core_algo, model_algo, &m);
        }
    }
}

#[test]
fn nonuniform_traces_hold_with_empty_blocks() {
    // Rows with zeros exercise zero-length wire segments.
    let mut rows = vec![vec![0usize; 8]; 8];
    rows[1][6] = 33;
    rows[6][1] = 7;
    rows[3][3] = 12; // self block only
    let m = SizeMatrix::from_rows(rows);
    for (core_algo, model_algo) in NONUNIFORM_PAIRS {
        check_nonuniform(core_algo, model_algo, &m);
    }
}

#[test]
fn uniform_traces_predict_real_wire_bytes_exactly() {
    for p in [2usize, 4, 7, 8, 12, 16] {
        for n in [1usize, 32] {
            let trace_sample = RankSample::all(p);
            for (core_algo, model_algo) in UNIFORM_PAIRS {
                let trace = uniform_trace(model_algo, p, n, &trace_sample);
                let metrics: Vec<Metrics> = ThreadComm::run(p, |comm| {
                    let counting = MeteredComm::new(comm);
                    let sendbuf = vec![0x5Au8; p * n];
                    let mut recvbuf = vec![0u8; p * n];
                    alltoall(core_algo, &counting, &sendbuf, &mut recvbuf, n).unwrap();
                    counting.metrics()
                });
                for (rank, m) in metrics.iter().enumerate() {
                    for tag in trace.wire_tags() {
                        assert_eq!(
                            trace.bytes_for_tag(rank, tag),
                            Some(m.sent_for_tag(tag).bytes),
                            "{}: rank {rank}, tag {tag:#x}, P={p}, n={n}",
                            model_algo.name()
                        );
                    }
                    assert_eq!(
                        trace.wire_bytes_out(rank),
                        Some(m.logical.sent_bytes),
                        "{}: rank {rank} total, P={p}, n={n}",
                        model_algo.name()
                    );
                }
            }
        }
    }
}

#[test]
fn message_counts_match_trace_structure() {
    // Each tagged step is exactly one message per rank for the Bruck family.
    let p = 8;
    let m = SizeMatrix::generate(Distribution::Uniform, 3, p, 40);
    let metrics: Vec<Metrics> = ThreadComm::run(p, |comm| {
        let counting = MeteredComm::new(comm);
        let me = counting.rank();
        let sendcounts = m.sendcounts(me);
        let sdispls = packed_displs(&sendcounts);
        let sendbuf = vec![0u8; sendcounts.iter().sum()];
        let recvcounts = m.recvcounts(me);
        let rdispls = packed_displs(&recvcounts);
        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
        alltoallv(
            AlltoallvAlgorithm::TwoPhaseBruck, &counting, &sendbuf, &sendcounts, &sdispls,
            &mut recvbuf, &recvcounts, &rdispls,
        )
        .unwrap();
        counting.metrics()
    });
    for m in &metrics {
        // log2(8) = 3 steps × (1 meta + 1 data) — plus the allreduce
        // (reserved tags).
        assert_eq!(m.logical.sent_msgs, 6);
    }
}
