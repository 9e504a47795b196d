//! The engine under fault injection.
//!
//! Two angles:
//!
//! 1. The by-name dispatch (`alltoallv`) routes every algorithm through the
//!    configurable engine, so the existing chaos harness (FaultComm →
//!    ReliableComm → `resilient_alltoallv`) exercises the engine's named
//!    points for free — assert a smoke cell stays clean.
//! 2. Off-point knob combinations (configs no algorithm name covers)
//!    compose with the ARQ layer directly: a lossy fault plan beneath
//!    `ReliableComm` must still deliver byte-correct buffers through
//!    `configurable_alltoallv`.

use std::time::Duration;

use bruck_check::chaos::{plan_battery, reliable_config, run_cell};
use bruck_comm::{Communicator, FaultComm, FaultPlan, ReliableComm, ThreadComm};
use bruck_core::{configurable_alltoallv, packed_displs, AlltoallvAlgorithm, EngineConfig};
use bruck_workload::{Distribution, SizeMatrix};

/// A chaos smoke cell through the engine-backed dispatch: the lossy plan
/// (drops + duplicates + corruption + delays) must complete lossless.
#[test]
fn chaos_smoke_cell_is_clean_through_the_engine_dispatch() {
    let p = 5;
    let seed = 0xE21;
    let lossy = plan_battery(p, seed)
        .into_iter()
        .find(|pf| pf.name == "lossy")
        .expect("plan battery always includes the lossy plan");
    let report = run_cell(
        AlltoallvAlgorithm::TwoPhaseBruck,
        p,
        16,
        &lossy,
        seed,
        Duration::from_secs(30),
    );
    assert!(
        report.violation.is_none(),
        "{}: {}",
        report.label,
        report.violation.unwrap()
    );
}

/// Off-point engine configs under a lossy link, repaired by the ARQ layer:
/// the generalized machinery must be oblivious to retransmissions.
#[test]
fn general_engine_survives_a_lossy_link_under_the_arq_layer() {
    let p = 5;
    let m = SizeMatrix::generate(Distribution::Normal, 0xFA17, p, 24);
    let configs = [
        EngineConfig { radix: 3, ..EngineConfig::as_two_phase() },
        EngineConfig { radix: 4, ..EngineConfig::as_sloav() },
        EngineConfig { throttle_window: Some(2), ..EngineConfig::as_spread_out() },
    ];
    for cfg in configs {
        let m2 = m.clone();
        let results = ThreadComm::run(p, move |comm| {
            let plan = FaultPlan::new(0xD0_0D).with_drop(0.06).with_duplicate(0.06);
            let fc = FaultComm::new(comm, plan);
            let rc = ReliableComm::with_config(&fc, reliable_config());
            let me = rc.rank();
            let sendcounts = m2.sendcounts(me);
            let sdispls = packed_displs(&sendcounts);
            let mut sendbuf = vec![0u8; sendcounts.iter().sum()];
            for dst in 0..p {
                for idx in 0..sendcounts[dst] {
                    sendbuf[sdispls[dst] + idx] =
                        (me.wrapping_mul(167) ^ dst.wrapping_mul(59) ^ idx.wrapping_mul(13)) as u8;
                }
            }
            let recvcounts = m2.recvcounts(me);
            let rdispls = packed_displs(&recvcounts);
            let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
            configurable_alltoallv(
                &rc, &cfg, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
            )
            .unwrap_or_else(|e| panic!("rank {me}: engine {} under faults: {e}", cfg.key()));
            let _ = rc.quiesce(Duration::from_millis(150), Duration::from_secs(2));
            (recvbuf, rdispls)
        });
        for (me, (recvbuf, rdispls)) in results.iter().enumerate() {
            for src in 0..p {
                for idx in 0..m.get(src, me) {
                    assert_eq!(
                        recvbuf[rdispls[src] + idx],
                        (src.wrapping_mul(167) ^ me.wrapping_mul(59) ^ idx.wrapping_mul(13)) as u8,
                        "{}: rank {me} block from {src} byte {idx}",
                        cfg.key()
                    );
                }
            }
        }
    }
}
