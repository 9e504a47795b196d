//! The engine's evidence: at each named config point — and at the off-point
//! candidates the tuner measures — the configurable engine must put **its
//! trace's schedule** on the wire and deliver **the oracle's bytes**.
//!
//! Two layers, per (config × distribution × world size):
//!
//! 1. **Closed-form schedule counts** — the engine's per-tag metered counts
//!    (messages *and* bytes, under [`MeteredComm`] on ThreadComm) must equal
//!    `bruck-model`'s byte-exact trace of the same [`EngineConfig`], and
//!    nothing may travel on a tag the trace does not predict (the one
//!    comparator, `tests/common/`). Equality against the *model*, not a
//!    sibling implementation, is what makes the engine's schedule provably
//!    the paper's.
//! 2. **Oracle byte identity** — the receive buffers must equal
//!    [`reference_alltoallv`]'s on ThreadComm, [`SimComm`] (two schedule
//!    seeds) and [`EventComm`] — and so must what [`alltoallv_discover`]
//!    returns, next to the `recvcounts` it found, on every path of its
//!    loops (blocking, and as a bare `EventComm`'s stored call), with the
//!    same per-tag wire counts under [`MeteredComm`].

mod common;

use bruck_bench::tune_candidates;
use bruck_comm::{Communicator, EventComm, MeteredComm, Metrics, SimComm, ThreadComm};
use bruck_core::{
    alltoallv_discover, configurable_alltoallv, packed_displs, reference_alltoallv, EngineConfig,
    PaddingRule,
};
use bruck_workload::{Distribution, SizeMatrix};
use common::{assert_config_conforms, power_law_and_sparse, same_on_every_path, PATH_SIZES};

/// Pattern byte for (src, dst, idx), distinct across blocks.
fn pat(src: usize, dst: usize, idx: usize) -> u8 {
    (src.wrapping_mul(131) ^ dst.wrapping_mul(23) ^ idx.wrapping_mul(7)) as u8
}

/// Build rank `me`'s packed send triple for `m`.
fn send_side(me: usize, m: &SizeMatrix) -> (Vec<u8>, Vec<usize>, Vec<usize>) {
    let sendcounts = m.sendcounts(me);
    let sdispls = packed_displs(&sendcounts);
    let mut sendbuf = vec![0u8; sendcounts.iter().sum()];
    for dst in 0..m.p() {
        for idx in 0..sendcounts[dst] {
            sendbuf[sdispls[dst] + idx] = pat(me, dst, idx);
        }
    }
    (sendbuf, sendcounts, sdispls)
}

/// Run the pairwise oracle on `comm`; return the receive buffer.
fn run_oracle<C: Communicator + ?Sized>(comm: &C, m: &SizeMatrix) -> Vec<u8> {
    let me = comm.rank();
    let (sendbuf, sendcounts, sdispls) = send_side(me, m);
    let recvcounts = m.recvcounts(me);
    let rdispls = packed_displs(&recvcounts);
    let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
    reference_alltoallv(comm, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls)
        .unwrap_or_else(|e| panic!("rank {me}: oracle failed: {e}"));
    recvbuf
}

/// Run the engine on `comm`; return the receive buffer.
fn run_engine<C: Communicator + ?Sized>(comm: &C, cfg: &EngineConfig, m: &SizeMatrix) -> Vec<u8> {
    let me = comm.rank();
    let (sendbuf, sendcounts, sdispls) = send_side(me, m);
    let recvcounts = m.recvcounts(me);
    let rdispls = packed_displs(&recvcounts);
    let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
    configurable_alltoallv(
        comm, cfg, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
    )
    .unwrap_or_else(|e| panic!("rank {me}: engine {} failed: {e}", cfg.key()));
    recvbuf
}

const DISTS: [Distribution; 3] =
    [Distribution::Uniform, Distribution::Normal, Distribution::POWER_LAW_STEEP];

/// One ThreadComm cell: the engine under a [`MeteredComm`] next to the
/// oracle. Asserts byte identity and returns the engine's per-rank metrics
/// for the closed-form check.
fn metered_cell(cfg: &EngineConfig, m: &SizeMatrix) -> Vec<Metrics> {
    let p = m.p();
    let results = ThreadComm::run(p, |comm| {
        let want = run_oracle(comm, m);
        let meter = MeteredComm::with_key(comm, cfg.key());
        let got = run_engine(&meter, cfg, m);
        (want, got, meter.metrics())
    });
    let mut metrics = Vec::with_capacity(p);
    for (rank, (want, got, mm)) in results.into_iter().enumerate() {
        assert_eq!(got, want, "{} rank {rank}: bytes differ from the oracle (P={p})", cfg.key());
        assert_eq!(mm.key.as_deref(), Some(cfg.key().as_str()));
        metrics.push(mm);
    }
    metrics
}

#[test]
fn engine_matches_model_and_oracle_on_thread_comm() {
    for p in [5usize, 8, 12] {
        for (di, dist) in DISTS.iter().enumerate() {
            let m = SizeMatrix::generate(*dist, 0x9E00 + (di * 31 + p) as u64, p, 48);
            for cfg in tune_candidates() {
                assert_config_conforms(&cfg, &m, &metered_cell(&cfg, &m));
            }
        }
    }
}

#[test]
fn engine_matches_model_and_oracle_with_empty_and_skewed_blocks() {
    // Degenerate shapes: all-zero (the padded family short-circuits every
    // send when the global maximum block is zero, and so does its trace),
    // single nonzero block, heavy skew.
    let zero = SizeMatrix::uniform(8, 0);
    let mut single = vec![vec![0usize; 8]; 8];
    single[2][5] = 40;
    let single = SizeMatrix::from_rows(single);
    let skew: Vec<Vec<usize>> = (0..9)
        .map(|src| (0..9).map(|dst| if dst == (src + 3) % 9 { 512 } else { 1 }).collect())
        .collect();
    let skew = SizeMatrix::from_rows(skew);
    for m in [&zero, &single, &skew] {
        for cfg in tune_candidates() {
            assert_config_conforms(&cfg, m, &metered_cell(&cfg, m));
        }
    }
}

#[test]
fn engine_byte_identical_to_oracle_on_sim_comm_across_seeds() {
    for p in [5usize, 8] {
        let m = SizeMatrix::generate(Distribution::Normal, 0x51D0 + p as u64, p, 32);
        for seed in [1u64, 0xFEED] {
            let want = SimComm::run(p, seed, |comm| run_oracle(comm, &m)).results;
            for (cfg, _) in EngineConfig::named_points() {
                let got = SimComm::run(p, seed, |comm| run_engine(comm, &cfg, &m)).results;
                assert_eq!(got, want, "{} on SimComm seed {seed} (P={p})", cfg.key());
            }
        }
    }
}

/// Run [`alltoallv_discover`] on `comm` twice, on both tag blocks; return
/// what each call found.
fn run_discover<C: Communicator + ?Sized>(
    comm: &C,
    cfg: &EngineConfig,
    m: &SizeMatrix,
) -> [(Vec<u8>, Vec<usize>); 2] {
    let me = comm.rank();
    let (sendbuf, sendcounts, sdispls) = send_side(me, m);
    [false, true].map(|odd_round| {
        alltoallv_discover(comm, cfg, &sendbuf, &sendcounts, &sdispls, odd_round)
            .unwrap_or_else(|e| panic!("rank {me}: discover {} failed: {e}", cfg.key()))
    })
}

#[test]
fn discovered_counts_and_bytes_are_the_oracle_s_on_every_backend() {
    // The named points, and off-points through each loop and the fallback.
    let mut configs: Vec<EngineConfig> = EngineConfig::named_points().map(|(c, _)| c).to_vec();
    configs.extend([
        EngineConfig { radix: 4, ..EngineConfig::as_two_phase() },
        EngineConfig { radix: 3, ..EngineConfig::as_sloav() },
        EngineConfig { throttle_window: Some(2), ..EngineConfig::as_spread_out() },
        EngineConfig { padding: PaddingRule::Threshold(64), ..EngineConfig::as_two_phase() },
    ]);
    for p in PATH_SIZES {
        for m in &power_law_and_sparse(p, 48) {
            let oracle = ThreadComm::run(p, |comm| run_oracle(comm, m));
            let want: Vec<[(Vec<u8>, Vec<usize>); 2]> = (0..p)
                .map(|me| [0; 2].map(|_| (oracle[me].clone(), m.recvcounts(me))))
                .collect();
            for cfg in &configs {
                let what = format!("discover {}", cfg.key());
                let got = same_on_every_path(p, &what, |comm| run_discover(comm, cfg, m));
                assert_eq!(got, want, "{what} (P={p})");
                // A second seed of the simulator's schedule.
                let sim = SimComm::run(p, 2, |comm| run_discover(comm, cfg, m)).results;
                assert_eq!(sim, want, "{what} on SimComm seed 2 (P={p})");
            }
        }
    }
}

#[test]
fn every_config_is_the_oracle_on_every_path() {
    let mut configs: Vec<EngineConfig> = EngineConfig::named_points().map(|(c, _)| c).to_vec();
    configs.extend([
        EngineConfig { radix: 3, ..EngineConfig::as_two_phase() },
        EngineConfig { radix: 3, ..EngineConfig::as_padded_bruck() },
        EngineConfig { padding: PaddingRule::Threshold(8), ..EngineConfig::as_spread_out() },
    ]);
    for p in PATH_SIZES {
        for m in &power_law_and_sparse(p, 48) {
            let oracle = ThreadComm::run(p, |comm| run_oracle(comm, m));
            for cfg in &configs {
                let got = same_on_every_path(p, &cfg.key(), |comm| run_engine(comm, cfg, m));
                assert_eq!(got, oracle, "{} (P={p})", cfg.key());
            }
        }
    }
}

#[test]
fn engine_byte_identical_to_oracle_on_event_comm() {
    let p = 12;
    let m = SizeMatrix::generate(Distribution::POWER_LAW_STEEP, 0xE7E7, p, 40);
    let want = EventComm::run_pooled(p, 3, |comm| run_oracle(comm, &m));
    for (cfg, _) in EngineConfig::named_points() {
        let got = EventComm::run_pooled(p, 3, |comm| run_engine(comm, &cfg, &m));
        assert_eq!(got, want, "{} on EventComm (P={p})", cfg.key());
    }
}
