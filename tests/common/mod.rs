//! The one "metered == trace" comparator, shared by every suite that holds a
//! real run under [`MeteredComm`] to a `bruck-model` trace, plus the metered
//! runner the byte-exactness suites drive it with.
//!
//! [`conformance_violations`] is a pure function returning violation strings,
//! so the negative fixtures in `conformance.rs` and `collectives_gauntlet.rs`
//! exercise the exact code path the positive cells assert empty.
//!
//! [`same_on_every_path`] is the equivalence suites' one runner for the
//! entry points whose loops are `async fn`s: it runs them blocking and as
//! stored calls, and holds every run to one answer.

#![allow(dead_code)] // each test crate uses its own subset

use std::collections::BTreeMap;
use std::fmt::Debug;

use bruck_comm::{
    Communicator, EventComm, MeteredComm, Metrics, SimComm, Tag, TagCounters, ThreadComm,
    RESERVED_TAG_BASE,
};
use bruck_core::probe::PhaseEvent;
use bruck_core::{configurable_alltoallv, packed_displs, EngineConfig};
use bruck_model::{nonuniform_trace, CommTrace, MatrixSource, RankSample};
use bruck_workload::SizeMatrix;

/// Compare one rank's metered counters against the model trace, exactly:
/// messages and bytes per wire tag, no logical traffic on a tag the trace
/// does not model, and channel totals fully explained. Returns one violation
/// string per mismatch; empty = conformant.
pub fn conformance_violations(rank: usize, metrics: &Metrics, trace: &CommTrace) -> Vec<String> {
    let mut v = metrics.consistency_errors();
    let wire_tags = trace.wire_tags();
    let mut predicted_msgs = 0u64;
    let mut predicted_bytes = 0u64;
    for &tag in &wire_tags {
        let Some(want_msgs) = trace.msgs_for_tag(rank, tag) else {
            v.push(format!("rank {rank}: trace does not cover rank for tag {tag:#x}"));
            continue;
        };
        let want_bytes = trace.bytes_for_tag(rank, tag).unwrap_or(0);
        predicted_msgs += want_msgs;
        predicted_bytes += want_bytes;
        let got = metrics.sent_for_tag(tag);
        if got.msgs != want_msgs {
            v.push(format!(
                "rank {rank} tag {tag:#x}: sent {} messages, model predicts {want_msgs}",
                got.msgs
            ));
        }
        if got.bytes != want_bytes {
            v.push(format!(
                "rank {rank} tag {tag:#x}: sent {} bytes, model predicts {want_bytes}",
                got.bytes
            ));
        }
    }
    for (&tag, sent) in &metrics.per_tag_sent {
        if tag < RESERVED_TAG_BASE && sent.msgs > 0 && !wire_tags.contains(&tag) {
            v.push(format!("rank {rank}: sent {} messages on unmodelled tag {tag:#x}", sent.msgs));
        }
    }
    // Channel totals must be fully explained by the trace.
    if metrics.logical.sent_msgs != predicted_msgs {
        v.push(format!(
            "rank {rank}: {} logical messages total, model explains {predicted_msgs}",
            metrics.logical.sent_msgs
        ));
    }
    if metrics.logical.sent_bytes != predicted_bytes {
        v.push(format!(
            "rank {rank}: {} logical bytes total, model explains {predicted_bytes}",
            metrics.logical.sent_bytes
        ));
    }
    v
}

/// Assert every rank of a metered run conforms to `trace`.
pub fn assert_conforms<'a>(
    label: &str,
    metrics: impl IntoIterator<Item = &'a Metrics>,
    trace: &CommTrace,
) {
    for (rank, mm) in metrics.into_iter().enumerate() {
        let v = conformance_violations(rank, mm, trace);
        assert!(v.is_empty(), "{label} rank {rank}:\n{}", v.join("\n"));
    }
}

/// Hold a metered run of `cfg` on `m` to `cfg`'s own trace.
pub fn assert_config_conforms<'a>(
    cfg: &EngineConfig,
    m: &SizeMatrix,
    metrics: impl IntoIterator<Item = &'a Metrics>,
) {
    let p = m.p();
    let trace = nonuniform_trace(*cfg, &MatrixSource(m), &RankSample::all(p));
    assert_conforms(&format!("{} (P={p})", cfg.key()), metrics, &trace);
}

/// Compare a rank's span timeline against the declared phase list: every
/// expected name must appear exactly `count` times, and nothing else at all.
pub fn phase_violations(
    rank: usize,
    events: &[PhaseEvent],
    expected: &[(&str, u64)],
) -> Vec<String> {
    let mut v = Vec::new();
    for &(name, count) in expected {
        let got = events.iter().filter(|e| e.name == name).count() as u64;
        if got != count {
            v.push(format!("rank {rank}: phase '{name}' recorded {got} times, expected {count}"));
        }
    }
    let total: u64 = expected.iter().map(|&(_, c)| c).sum();
    if events.len() as u64 != total {
        let unexpected: Vec<&str> = events
            .iter()
            .map(|e| e.name)
            .filter(|n| !expected.iter().any(|&(e, _)| e == *n))
            .collect();
        v.push(format!(
            "rank {rank}: {} phase events recorded, expected {total} (unexpected: {unexpected:?})",
            events.len()
        ));
    }
    v
}

/// Run `cfg` on `m` under a [`MeteredComm`] on `ThreadComm`; per-rank metrics.
pub fn metered_alltoallv(cfg: &EngineConfig, m: &SizeMatrix) -> Vec<Metrics> {
    ThreadComm::run(m.p(), |comm| {
        let meter = MeteredComm::new(comm);
        let me = meter.rank();
        let sendcounts = m.sendcounts(me);
        let sdispls = packed_displs(&sendcounts);
        let sendbuf = vec![0xABu8; sendcounts.iter().sum()];
        let recvcounts = m.recvcounts(me);
        let rdispls = packed_displs(&recvcounts);
        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
        configurable_alltoallv(
            &meter, cfg, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
        )
        .unwrap_or_else(|e| panic!("rank {me}: engine {} failed: {e}", cfg.key()));
        meter.metrics()
    })
}

/// World sizes the path-equivalence suites sweep.
pub const PATH_SIZES: [usize; 6] = [1, 2, 3, 5, 8, 13];

/// The two shapes of the path-equivalence suites at `p`: a power-law
/// matrix, and the same with every third block empty and rank 1 (rank 0 at
/// P = 1) silent.
pub fn power_law_and_sparse(p: usize, n_max: usize) -> [SizeMatrix; 2] {
    let power_law =
        SizeMatrix::generate(bruck_workload::Distribution::POWER_LAW_STEEP, 0xD15C + p as u64, p, n_max);
    let silent = 1 % p;
    let sparse = SizeMatrix::from_rows(
        (0..p)
            .map(|src| {
                (0..p)
                    .map(|dst| {
                        let quiet = src == silent || (src + 2 * dst) % 3 == 0;
                        if quiet { 0 } else { power_law.get(src, dst) }
                    })
                    .collect()
            })
            .collect(),
    );
    [power_law, sparse]
}

/// One rank's metered run: its output, per-tag sent counters and messages.
type Metered<T> = (T, BTreeMap<Tag, TagCounters>, u64);

/// Run one rank body on every path of the converted entry points and hold
/// them to one answer. A bare `EventComm` runs their loops as stored calls
/// (one and two workers, and the default pool); ThreadComm, SimComm and
/// `MeteredComm` over each of the three run them blocking. Every output must
/// equal ThreadComm's, every metered run's per-tag sent counters
/// `Metered(ThreadComm)`'s, and the bare one-worker world must deposit
/// exactly the metered message count. Returns ThreadComm's outputs.
pub fn same_on_every_path<T>(
    p: usize,
    what: &str,
    body: impl Fn(&dyn Communicator) -> T + Sync,
) -> Vec<T>
where
    T: PartialEq + Debug + Send,
{
    let thread = ThreadComm::run(p, |comm| body(comm));
    let (one_worker, report) = EventComm::run_report(p, 1, |comm| body(comm));
    let bare = [
        ("SimComm", SimComm::run(p, 1, |comm| body(comm)).results),
        ("EventComm (1 worker)", one_worker),
        ("EventComm (2 workers)", EventComm::run_pooled(p, 2, |comm| body(comm))),
        ("EventComm (default pool)", EventComm::run(p, |comm| body(comm))),
    ];
    for (path, got) in &bare {
        assert_eq!(got, &thread, "{what} on {path} (P = {p})");
    }
    let metered = |comm: &dyn Communicator| -> Metered<T> {
        let meter = MeteredComm::new(comm);
        let out = body(&meter);
        let m = meter.metrics();
        (out, m.per_tag_sent, m.logical.sent_msgs + m.reserved.sent_msgs)
    };
    let on_threads = ThreadComm::run(p, |comm| metered(comm));
    let wrapped = [
        ("Metered(SimComm)", SimComm::run(p, 2, |comm| metered(comm)).results),
        ("Metered(EventComm)", EventComm::run_pooled(p, 2, |comm| metered(comm))),
    ];
    for (rank, (out, tags, _)) in on_threads.iter().enumerate() {
        assert_eq!(out, &thread[rank], "{what} on Metered(ThreadComm) rank {rank} (P = {p})");
        for (path, runs) in &wrapped {
            assert_eq!(&runs[rank].0, out, "{what} on {path} rank {rank} (P = {p})");
            assert_eq!(&runs[rank].1, tags, "{what}: per-tag counts on {path} rank {rank} (P = {p})");
        }
    }
    let msgs: u64 = on_threads.iter().map(|run| run.2).sum();
    assert_eq!(report.messages as u64, msgs, "{what}: bare EventComm deposits (P = {p})");
    thread
}
