//! The model↔implementation bridge (DESIGN.md §3, "validation bridge").
//!
//! For every algorithm, run the real implementation from `bruck-core` under
//! `MeteredComm` and hold it to the byte-exact trace from `bruck-model` with
//! the one comparator (`tests/common/`): for every rank and every wire tag
//! (= communication step), exactly the messages and bytes the real code put
//! on the wire, and nothing on a tag the trace does not model. This is what
//! licenses trusting the model's predictions at `P = 32768`. The cells here
//! are the world-size ladder, the skewed distributions and the empty-block
//! matrix; `conformance.rs` adds the phase timeline.

mod common;

use bruck_comm::{MeteredComm, Metrics, ThreadComm};
use bruck_core::{alltoall, AlltoallAlgorithm, EngineConfig};
use bruck_model::{uniform_trace, RankSample};
use bruck_workload::{Distribution, SizeMatrix};
use common::{assert_config_conforms, assert_conforms, metered_alltoallv};

/// Every non-uniform algorithm on `m`, each held to its named point's trace.
fn check_nonuniform(m: &SizeMatrix) {
    for (cfg, _) in EngineConfig::named_points() {
        assert_config_conforms(&cfg, m, &metered_alltoallv(&cfg, m));
    }
}

#[test]
fn nonuniform_traces_predict_real_wire_bytes_exactly() {
    for p in [2usize, 4, 5, 8, 12, 16, 32] {
        check_nonuniform(&SizeMatrix::generate(Distribution::Uniform, 0xAA55 + p as u64, p, 64));
    }
}

#[test]
fn nonuniform_traces_hold_for_skewed_distributions() {
    for dist in [Distribution::Normal, Distribution::POWER_LAW_STEEP, Distribution::Windowed { r: 25 }] {
        check_nonuniform(&SizeMatrix::generate(dist, 7, 12, 96));
    }
}

#[test]
fn nonuniform_traces_hold_with_empty_blocks() {
    // Rows with zeros exercise zero-length wire segments.
    let mut rows = vec![vec![0usize; 8]; 8];
    rows[1][6] = 33;
    rows[6][1] = 7;
    rows[3][3] = 12; // self block only
    check_nonuniform(&SizeMatrix::from_rows(rows));
}

#[test]
fn uniform_traces_predict_real_wire_bytes_exactly() {
    for p in [2usize, 4, 7, 8, 12, 16] {
        for n in [1usize, 32] {
            for algo in AlltoallAlgorithm::ALL {
                let trace = uniform_trace(algo, p, n, &RankSample::all(p));
                let metrics: Vec<Metrics> = ThreadComm::run(p, |comm| {
                    let meter = MeteredComm::new(comm);
                    let sendbuf = vec![0x5Au8; p * n];
                    let mut recvbuf = vec![0u8; p * n];
                    alltoall(algo, &meter, &sendbuf, &mut recvbuf, n).unwrap();
                    meter.metrics()
                });
                assert_conforms(&format!("{} P={p} n={n}", algo.name()), &metrics, &trace);
            }
        }
    }
}

#[test]
fn message_counts_match_trace_structure() {
    // Each tagged step is exactly one message per rank for the Bruck family.
    let m = SizeMatrix::generate(Distribution::Uniform, 3, 8, 40);
    for mm in metered_alltoallv(&EngineConfig::as_two_phase(), &m) {
        // log2(8) = 3 steps × (1 meta + 1 data) — plus the allreduce
        // (reserved tags).
        assert_eq!(mm.logical.sent_msgs, 6);
    }
}
