//! Property tests over the engine's knob space: **any** valid
//! [`EngineConfig`] — not just the eight named points — must deliver the
//! right bytes on a seeded workload, conserve bytes globally, and put
//! exactly its trace on the wire.
//!
//! A deterministic xorshift generator drives the sweep (the workspace is
//! std-only, so this is proptest-shaped without the dependency): each
//! iteration draws a config, a world size, and a distribution, runs the
//! generalized engine under [`MeteredComm`] on `ThreadComm`, and checks
//!
//! 1. every rank's receive buffer equals the pairwise reference expectation,
//! 2. world-total logical sent bytes == world-total logical received bytes,
//! 3. every rank's per-tag messages and bytes equal `bruck-model`'s trace of
//!    the drawn config, with no traffic on a tag the trace does not model —
//!    which is also what keeps a config inside its tag block.

mod common;

use bruck_comm::{Communicator, MeteredComm, Metrics, ThreadComm};
use bruck_core::{
    configurable_alltoallv, packed_displs, EngineConfig, EngineTopology,
    IntermediateLayout, PaddingRule,
};
use bruck_workload::{Distribution, SizeMatrix};
use common::assert_config_conforms;

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Draw an arbitrary *valid* config (validate() must accept everything this
/// produces; the engine must then deliver correct bytes for all of them).
fn arb_config(rng: &mut Rng) -> EngineConfig {
    let topology = match rng.below(4) {
        0 => EngineTopology::Oracle,
        1 => EngineTopology::Direct,
        2 => EngineTopology::Bruck,
        _ => EngineTopology::Leader { group: 1 + rng.below(6) as usize },
    };
    let padding = match rng.below(3) {
        0 => PaddingRule::Never,
        1 => PaddingRule::Always,
        _ => PaddingRule::Threshold(rng.below(96) as usize),
    };
    EngineConfig {
        topology,
        radix: 2 + rng.below(4) as usize,
        throttle_window: match rng.below(3) {
            0 => None,
            _ => Some(1 + rng.below(12) as usize),
        },
        padding,
        layout: if rng.below(2) == 0 {
            IntermediateLayout::Monolithic
        } else {
            IntermediateLayout::BlockViews
        },
        two_phase_split: rng.below(2) == 0,
    }
}

fn pat(src: usize, dst: usize, idx: usize) -> u8 {
    (src.wrapping_mul(131) ^ dst.wrapping_mul(23) ^ idx.wrapping_mul(7)) as u8
}

/// One world run: returns (per-rank recvbuf, per-rank metrics).
fn run_world(cfg: EngineConfig, m: &SizeMatrix) -> Vec<(Vec<u8>, Metrics)> {
    let p = m.p();
    ThreadComm::run(p, move |comm| {
        let metered = MeteredComm::with_key(comm, cfg.key());
        let me = metered.rank();
        let sendcounts = m.sendcounts(me);
        let sdispls = packed_displs(&sendcounts);
        let mut sendbuf = vec![0u8; sendcounts.iter().sum()];
        for dst in 0..p {
            for idx in 0..sendcounts[dst] {
                sendbuf[sdispls[dst] + idx] = pat(me, dst, idx);
            }
        }
        let recvcounts = m.recvcounts(me);
        let rdispls = packed_displs(&recvcounts);
        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
        configurable_alltoallv(
            &metered, &cfg, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
        )
        .unwrap_or_else(|e| panic!("rank {me}: engine {} failed: {e}", cfg.key()));
        (recvbuf, metered.metrics())
    })
}

/// Check one world's results against the three properties.
fn check_world(cfg: &EngineConfig, m: &SizeMatrix, results: &[(Vec<u8>, Metrics)]) {
    let p = m.p();
    let key = cfg.key();

    // Property 1: pairwise reference delivery.
    for (me, (recvbuf, _)) in results.iter().enumerate() {
        let recvcounts = m.recvcounts(me);
        let rdispls = packed_displs(&recvcounts);
        for src in 0..p {
            for idx in 0..recvcounts[src] {
                assert_eq!(
                    recvbuf[rdispls[src] + idx],
                    pat(src, me, idx),
                    "{key}: rank {me} block from {src} byte {idx} (P={p})"
                );
            }
        }
    }

    // Property 2: global byte conservation on the logical channel.
    let sent: u64 = results.iter().map(|(_, mm)| mm.logical.sent_bytes).sum();
    let recv: u64 = results.iter().map(|(_, mm)| mm.logical.recv_bytes).sum();
    assert_eq!(sent, recv, "{key}: logical bytes not conserved (P={p})");
    let sent_msgs: u64 = results.iter().map(|(_, mm)| mm.logical.sent_msgs).sum();
    let recv_msgs: u64 = results.iter().map(|(_, mm)| mm.logical.recv_msgs).sum();
    assert_eq!(sent_msgs, recv_msgs, "{key}: logical messages not conserved (P={p})");

    // Property 3: the wire carries exactly the config's trace (reserved tags
    // carry the sizing allreduce and are not the trace's business).
    assert_config_conforms(cfg, m, results.iter().map(|(_, mm)| mm));
}

#[test]
fn any_valid_config_delivers_conserves_and_stays_in_tag_block() {
    let mut rng = Rng(0xB1C0_55ED_DEAD_BEEF);
    let dists = [
        Distribution::Uniform,
        Distribution::Normal,
        Distribution::POWER_LAW_STEEP,
        Distribution::Hotspot { spacing: 4, damping: 8 },
    ];
    for iter in 0..40 {
        let cfg = arb_config(&mut rng);
        cfg.validate().unwrap_or_else(|e| panic!("iter {iter}: arb config invalid: {e}"));
        let p = 2 + rng.below(9) as usize;
        let dist = dists[rng.below(dists.len() as u64) as usize];
        let n_cap = 1 + rng.below(64) as usize;
        let m = SizeMatrix::generate(dist, 0xA5A5 + iter as u64, p, n_cap);
        let results = run_world(cfg, &m);
        check_world(&cfg, &m, &results);
    }
}

#[test]
fn named_points_satisfy_the_properties_too() {
    // The eight named points are members of the same space; run them through
    // the identical property harness on a fixed workload.
    let m = SizeMatrix::generate(Distribution::Normal, 0x0F1CE, 7, 48);
    for (cfg, _) in EngineConfig::named_points() {
        let results = run_world(cfg, &m);
        check_world(&cfg, &m, &results);
    }
}

#[test]
fn degenerate_worlds_hold_for_every_topology() {
    // P = 1 and P = 2 exercise the self-copy and single-partner paths of
    // every topology; a zero matrix exercises the n_max == 0 early returns.
    let mut rng = Rng(0x5EED_0001);
    for p in [1usize, 2] {
        for _ in 0..8 {
            let cfg = arb_config(&mut rng);
            let m = SizeMatrix::generate(Distribution::Uniform, 7 + p as u64, p, 16);
            let results = run_world(cfg, &m);
            check_world(&cfg, &m, &results);
        }
    }
    let zero = SizeMatrix::uniform(6, 0);
    for _ in 0..8 {
        let cfg = arb_config(&mut rng);
        let results = run_world(cfg, &zero);
        check_world(&cfg, &zero, &results);
    }
}
