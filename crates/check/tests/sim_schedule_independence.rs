//! Property: every algorithm in the dispatch enum is schedule-independent.
//!
//! Each `AlltoallvAlgorithm` runs under the deterministic simulator across
//! 16 different schedule seeds; every rank's received bytes must be
//! identical across all of them. Any dependence on message arrival order,
//! probe timing, or rank interleaving shows up as a byte diff with the
//! failing seed in the assertion message — replayable via the recorded
//! trace.

use bruck_comm::{Communicator, SimComm};
use bruck_core::{
    alltoallv, configurable_alltoallv, packed_displs, AlltoallvAlgorithm, EngineConfig,
    EngineTopology, IntermediateLayout, PaddingRule,
};
use bruck_workload::{Distribution, SizeMatrix};

const SCHED_SEEDS: std::ops::Range<u64> = 0..16;

/// One simulated exchange: returns every rank's recv buffer, and checks the
/// closed-form pattern so a wrong-but-stable result cannot slip through.
fn exchange(algo: AlltoallvAlgorithm, m: &SizeMatrix, sched_seed: u64) -> Vec<Vec<u8>> {
    let p = m.p();
    let run = SimComm::run(p, sched_seed, |comm| {
        let me = comm.rank();
        let sendcounts = m.sendcounts(me);
        let sdispls = packed_displs(&sendcounts);
        let mut sendbuf = vec![0u8; sendcounts.iter().sum()];
        for (i, b) in sendbuf.iter_mut().enumerate() {
            *b = (me.wrapping_mul(151) ^ i.wrapping_mul(29)) as u8;
        }
        let recvcounts = m.recvcounts(me);
        let rdispls = packed_displs(&recvcounts);
        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
        alltoallv(algo, comm, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls)
            .unwrap();
        for src in 0..p {
            let sender_displs = packed_displs(&m.sendcounts(src));
            for i in 0..recvcounts[src] {
                let expect = (src.wrapping_mul(151) ^ (sender_displs[me] + i).wrapping_mul(29)) as u8;
                assert_eq!(
                    recvbuf[rdispls[src] + i],
                    expect,
                    "{algo:?} sched_seed={sched_seed} src={src} i={i}"
                );
            }
        }
        recvbuf
    });
    run.results
}

#[test]
fn every_algorithm_delivers_identical_bytes_across_16_schedules() {
    let p = 5;
    let m = SizeMatrix::generate(Distribution::Normal, 0xA11, p, 32);
    for algo in AlltoallvAlgorithm::ALL {
        let baseline = exchange(algo, &m, SCHED_SEEDS.start);
        for seed in SCHED_SEEDS.start + 1..SCHED_SEEDS.end {
            let got = exchange(algo, &m, seed);
            assert_eq!(
                got, baseline,
                "{algo:?}: recv bytes differ between sched seeds {} and {seed}",
                SCHED_SEEDS.start
            );
        }
    }
}

/// Like [`exchange`], but by engine config rather than algorithm name, so
/// off-point knob combinations are swept too.
fn exchange_engine(cfg: &EngineConfig, m: &SizeMatrix, sched_seed: u64) -> Vec<Vec<u8>> {
    let p = m.p();
    let run = SimComm::run(p, sched_seed, |comm| {
        let me = comm.rank();
        let sendcounts = m.sendcounts(me);
        let sdispls = packed_displs(&sendcounts);
        let mut sendbuf = vec![0u8; sendcounts.iter().sum()];
        for (i, b) in sendbuf.iter_mut().enumerate() {
            *b = (me.wrapping_mul(151) ^ i.wrapping_mul(29)) as u8;
        }
        let recvcounts = m.recvcounts(me);
        let rdispls = packed_displs(&recvcounts);
        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
        configurable_alltoallv(
            comm, cfg, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
        )
        .unwrap();
        for src in 0..p {
            let sender_displs = packed_displs(&m.sendcounts(src));
            for i in 0..recvcounts[src] {
                let expect =
                    (src.wrapping_mul(151) ^ (sender_displs[me] + i).wrapping_mul(29)) as u8;
                assert_eq!(
                    recvbuf[rdispls[src] + i],
                    expect,
                    "{} sched_seed={sched_seed} src={src} i={i}",
                    cfg.key()
                );
            }
        }
        recvbuf
    });
    run.results
}

/// Every engine config — the nine named points plus off-point product-space
/// members — is schedule-independent across the same 16-seed sweep.
#[test]
fn every_engine_config_delivers_identical_bytes_across_16_schedules() {
    let p = 5;
    let m = SizeMatrix::generate(Distribution::Normal, 0xC33, p, 32);
    let mut configs: Vec<EngineConfig> =
        EngineConfig::named_points().iter().map(|(cfg, _)| *cfg).collect();
    configs.extend([
        EngineConfig { radix: 4, ..EngineConfig::as_two_phase() },
        EngineConfig { radix: 3, ..EngineConfig::as_sloav() },
        EngineConfig { throttle_window: Some(2), ..EngineConfig::as_spread_out() },
        EngineConfig {
            topology: EngineTopology::Bruck,
            radix: 2,
            throttle_window: None,
            padding: PaddingRule::Threshold(64),
            layout: IntermediateLayout::Monolithic,
            two_phase_split: true,
        },
    ]);
    for cfg in configs {
        let baseline = exchange_engine(&cfg, &m, SCHED_SEEDS.start);
        for seed in SCHED_SEEDS.start + 1..SCHED_SEEDS.end {
            assert_eq!(
                exchange_engine(&cfg, &m, seed),
                baseline,
                "{}: recv bytes differ between sched seeds {} and {seed}",
                cfg.key(),
                SCHED_SEEDS.start
            );
        }
    }
}

/// The skewed distribution exercises the zero-block and uneven-window edge
/// cases of every algorithm under the same 16-schedule sweep.
#[test]
fn every_algorithm_is_schedule_independent_under_skew() {
    let p = 5;
    let m = SizeMatrix::generate(Distribution::POWER_LAW_STEEP, 0xB22, p, 40);
    for algo in AlltoallvAlgorithm::ALL {
        let baseline = exchange(algo, &m, SCHED_SEEDS.start);
        for seed in SCHED_SEEDS.start + 1..SCHED_SEEDS.end {
            assert_eq!(
                exchange(algo, &m, seed),
                baseline,
                "{algo:?}: skewed recv bytes differ at sched seed {seed}"
            );
        }
    }
}
