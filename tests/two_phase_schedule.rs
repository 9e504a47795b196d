//! What the unpadded Bruck loop puts on the wire, and what it does when a
//! peer puts something else there.
//!
//! * **The schedule.** Two-phase Bruck sends one metadata and one data
//!   message per step and nothing else — no sizing round — with the metadata
//!   one step ahead of the data, so the exchange blocks `⌈log₂ P⌉ + 1` times,
//!   not `2⌈log₂ P⌉` plus an allreduce. The messages themselves (tags,
//!   counts, bytes) are exactly what they were with the allreduce and the
//!   `P × N` working buffer: [`PARENT_TABLE`] was recorded from that code.
//! * **The passes.** `EventComm` re-executes a rank each time a receive parks
//!   it, so a one-worker run's `executions` counts the parks a schedule costs
//!   under the runtime's sweep of its ready set — pinned below per family.
//!   On a bare `EventComm` a parked exchange is a stored call that the
//!   scheduler resumes where it stopped, so those executions replay nothing
//!   and a rank's closure unwinds once per call.
//! * **The discovering wire.** `alltoallv_discover` posts no receive length,
//!   so its Bruck loop sends each sub-step as one `[sizes | payload]` frame
//!   on the data tag and nothing on the metadata tags, whatever the
//!   coupling knob says.
//! * **The wire format.** A size array of the wrong length, a body longer or
//!   shorter than announced, a malformed combined-coupling header, a routed
//!   block that disagrees with `recvcounts`, a frame shorter than its size
//!   array or whose sizes disagree with its payload: each must come back as a
//!   typed error from the honest rank — no panic, no hang — on every backend.

use bruck_bpra::{graph1_like, transitive_closure};
use bruck_comm::{
    CommError, Communicator, EventComm, MeteredComm, MsgBuf, ReduceOp, SimComm, Tag, ThreadComm,
};
use bruck_core::common::{add_mod, ceil_log2, data_tag, meta_tag, sub_mod, SPREAD_TAG};
use bruck_core::{
    allgatherv, allreduce, alltoall, alltoall_plan, alltoallv_discover, configurable_alltoallv,
    packed_displs, pattern, reduce_scatter, AllgathervAlgorithm, AllreduceAlgorithm,
    AlltoallAlgorithm, AlltoallvAlgorithm, EngineConfig, EngineTopology, IntermediateLayout,
    ReduceScatterAlgorithm,
};
use bruck_model::{nonuniform_trace, MatrixSource, RankSample};
use bruck_workload::{Distribution, SizeMatrix};

/// Run `cfg` on `m` at this rank, checking the delivered bytes.
fn exchange<C: Communicator + ?Sized>(comm: &C, cfg: &EngineConfig, m: &SizeMatrix) {
    let (p, me) = (m.p(), comm.rank());
    let sendcounts = m.sendcounts(me);
    let sdispls = packed_displs(&sendcounts);
    let mut sendbuf = vec![0u8; sendcounts.iter().sum()];
    for dst in 0..p {
        for idx in 0..sendcounts[dst] {
            sendbuf[sdispls[dst] + idx] = pattern(me, dst, idx);
        }
    }
    let recvcounts = m.recvcounts(me);
    let rdispls = packed_displs(&recvcounts);
    let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
    configurable_alltoallv(
        comm, cfg, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
    )
    .unwrap_or_else(|e| panic!("rank {me}: {}: {e}", cfg.key()));
    for src in 0..p {
        for idx in 0..recvcounts[src] {
            assert_eq!(recvbuf[rdispls[src] + idx], pattern(src, me, idx), "rank {me} from {src}");
        }
    }
}

/// World totals `(tag, messages, bytes)` of one two-phase exchange of
/// `SizeMatrix::generate(Uniform, 0x2B, 8, 32)`, recorded under
/// `MeteredComm` from the parent of the commit that deleted the sizing
/// allreduce (which additionally sent 24 reserved-tag messages).
const PARENT_TABLE: [(Tag, u64, u64); 6] = [
    (0x200, 8, 128),
    (0x201, 8, 128),
    (0x202, 8, 128),
    (0x300, 8, 570),
    (0x301, 8, 525),
    (0x302, 8, 459),
];

#[test]
fn two_phase_at_p8_is_six_messages_per_rank_on_four_latencies() {
    let m = SizeMatrix::generate(Distribution::Uniform, 0x2B, 8, 32);
    let cfg = EngineConfig::as_two_phase();
    let metrics = ThreadComm::run(8, |comm| {
        let meter = MeteredComm::new(comm);
        exchange(&meter, &cfg, &m);
        meter.metrics()
    });
    for mm in &metrics {
        assert_eq!(mm.logical.sent_msgs, 6, "rank {}: 3 metadata + 3 data", mm.rank);
        assert_eq!(mm.reserved.sent_msgs, 0, "rank {}: no sizing round", mm.rank);
    }
    let table: Vec<(Tag, u64, u64)> = PARENT_TABLE
        .iter()
        .map(|&(tag, _, _)| {
            let sent = metrics.iter().map(|mm| mm.sent_for_tag(tag));
            (tag, sent.clone().map(|s| s.msgs).sum(), sent.map(|s| s.bytes).sum())
        })
        .collect();
    assert_eq!(table, PARENT_TABLE, "same tags, same messages, same bytes");

    // The critical path, as the cost model prices it: the first metadata
    // message and every data message expose a latency; the other metadata
    // messages travel beside the previous step's data. The combined coupling
    // cannot run ahead and keeps two per step.
    let latencies = |cfg: EngineConfig| -> Vec<u32> {
        let trace = nonuniform_trace(cfg, &MatrixSource(&m), &RankSample::all(8));
        (0..8)
            .map(|q| trace.steps.iter().map(|st| st.load_of(q).expect("covered").seq_msgs).sum())
            .collect()
    };
    assert_eq!(latencies(cfg), [4; 8]);
    assert_eq!(latencies(EngineConfig { two_phase_split: false, ..cfg }), [6; 8]);
}

#[test]
fn a_discovering_bruck_exchange_sends_one_frame_per_sub_step() {
    // Every rank sends exactly one message per sub-step, on that step's data
    // tag, of 4 bytes per slot it carries plus the blocks in those slots;
    // nothing goes on a metadata tag or a reserved one.
    for p in [2usize, 5, 8, 12] {
        let m = SizeMatrix::generate(Distribution::Uniform, 0x45 + p as u64, p, 32);
        for (named, radix) in [2, 3, 4, p]
            .into_iter()
            .flat_map(|r| [(EngineConfig::as_two_phase(), r), (EngineConfig::as_sloav(), r)])
        {
            let cfg = EngineConfig { radix, ..named };
            let case = format!("P={p} {}", cfg.key());
            let metrics = ThreadComm::run(p, |comm| {
                let meter = MeteredComm::new(comm);
                let me = meter.rank();
                let sendcounts = m.sendcounts(me);
                let sdispls = packed_displs(&sendcounts);
                let sendbuf: Vec<u8> = (0..p)
                    .flat_map(|dst| (0..sendcounts[dst]).map(move |idx| pattern(me, dst, idx)))
                    .collect();
                let (recvbuf, recvcounts) =
                    alltoallv_discover(&meter, &cfg, &sendbuf, &sendcounts, &sdispls, false)
                        .unwrap_or_else(|e| panic!("{case} rank {me}: {e}"));
                assert_eq!(recvcounts, m.recvcounts(me), "{case}");
                let want: Vec<u8> = (0..p)
                    .flat_map(|src| (0..recvcounts[src]).map(move |idx| pattern(src, me, idx)))
                    .collect();
                assert_eq!(recvbuf, want, "{case} rank {me}");
                meter.metrics()
            });
            let downward = cfg.layout == IntermediateLayout::Monolithic;
            let plan = alltoall_plan(p, radix, downward);
            // `moved[i]`: how far slot `i`'s block has travelled so far, so
            // the block in slot `i` at rank `q` left rank `q − moved[i]`.
            let mut moved = vec![0usize; p];
            for (k, step) in plan.steps.iter().enumerate() {
                for (q, mm) in metrics.iter().enumerate() {
                    let block = |i: usize| {
                        let src = sub_mod(q, moved[i], p);
                        let dst = if downward { sub_mod(src, i, p) } else { add_mod(src, i, p) };
                        m.get(src, dst)
                    };
                    let payload: usize = step.offsets.iter().map(|&i| block(i)).sum();
                    let frame = mm.sent_for_tag(data_tag(k as u32));
                    let want = (1, (4 * step.offsets.len() + payload) as u64);
                    assert_eq!((frame.msgs, frame.bytes), want, "{case} rank {q} step {k}");
                    assert_eq!(mm.sent_for_tag(meta_tag(k as u32)).msgs, 0, "{case} rank {q}");
                }
                for &i in &step.offsets {
                    moved[i] = add_mod(moved[i], step.shift, p);
                }
            }
            for mm in &metrics {
                let steps = plan.steps.len() as u64;
                assert_eq!(mm.logical.sent_msgs, steps, "{case} rank {}", mm.rank);
                assert_eq!(mm.reserved.sent_msgs, 0, "{case} rank {}", mm.rank);
            }
        }
    }
}

/// Executions of a one-worker `EventComm` world of `p` ranks running `f`.
fn executions(p: usize, f: impl Fn(&EventComm<'_>) + Sync) -> u64 {
    resumed_passes(p, f).0
}

/// `(executions, replayed ops, resumes, closure unwinds)` of a one-worker
/// `EventComm` world of `p` ranks running `f`.
fn resumed_passes(p: usize, f: impl Fn(&EventComm<'_>) + Sync) -> (u64, u64, u64, u64) {
    let report = EventComm::run_report(p, 1, f).1;
    let unwinds = report.parks.total() - report.resumes;
    (report.executions, report.replayed_ops, report.resumes, unwinds)
}

#[test]
fn two_phase_parks_a_rank_at_most_once_per_step_on_the_event_runtime() {
    // At most one park for the first size array and one per data message,
    // plus the first execution of each rank — whatever order ranks run in.
    let p = 64;
    let m = SizeMatrix::generate(Distribution::Uniform, 7, p, 64);
    let cfg = EngineConfig::as_two_phase();
    let (_, report) = EventComm::run_report(p, 1, |comm| exchange(comm, &cfg, &m));
    let steps = ceil_log2(p) as u64;
    assert!(
        report.executions <= p as u64 * (steps + 1) + 1,
        "{} executions for {p} ranks × {steps} steps",
        report.executions
    );
    assert_eq!(report.messages as u64, p as u64 * 2 * steps, "metadata + data, nothing else");
}

#[test]
fn a_bruck_rank_parks_twice_not_once_per_step() {
    // Every Bruck receive comes from `me + 2ᵏ`: the first, ascending pass of
    // the runtime's ready set runs each rank before the rank it waits for (one
    // park); the descending pass runs every source before its receiver and
    // carries a rank through every step whose sources do not wrap past P − 1;
    // the wrapped remainder costs one more execution. Three per rank, where
    // serving ranks in arrival order takes ⌈log₂ P⌉.
    for p in [64usize, 256] {
        let m = SizeMatrix::generate(Distribution::Uniform, 7, p, 64);
        let two_phase = EngineConfig::as_two_phase();
        let counts: Vec<usize> = (0..p).map(|r| 1 + r % 7).collect();
        let displs = packed_displs(&counts);
        let block = 8;
        let runs = [
            ("two-phase", executions(p, |comm| exchange(comm, &two_phase, &m))),
            (
                "allgatherv(Bruck)",
                executions(p, |comm| {
                    let mut recv = vec![0u8; counts.iter().sum()];
                    let send = vec![comm.rank() as u8; counts[comm.rank()]];
                    allgatherv(AllgathervAlgorithm::Bruck, comm, &send, &mut recv, &counts, &displs)
                        .unwrap();
                }),
            ),
            (
                "alltoall(ZeroRotationBruck)",
                executions(p, |comm| {
                    let send = vec![comm.rank() as u8; p * block];
                    let mut recv = vec![0u8; p * block];
                    alltoall(AlltoallAlgorithm::ZeroRotationBruck, comm, &send, &mut recv, block)
                        .unwrap();
                }),
            ),
        ];
        for (name, execs) in runs {
            assert!(execs <= 3 * p as u64, "{name} at P = {p}: {execs} executions");
        }
    }
}

#[test]
fn one_way_doubling_parks_each_rank_once() {
    // Every round is one-way (send to `me + 2ᵏ`, receive from `me − 2ᵏ`), so
    // no two ranks wait on each other: every rank but one parks exactly once,
    // 2P − 1 executions at a power of two. The XOR butterfly this replaced
    // parked P/2 ranks at every step (P·(1 + log₂P / 2): 256 and 1,280).
    // Recursive halving is the same one-way shape, transposed.
    for p in [64usize, 256] {
        let execs = executions(p, |comm| {
            let mut v = [comm.rank() as u64; 8];
            allreduce(AllreduceAlgorithm::RecursiveDoubling, comm, &mut v, ReduceOp::Sum).unwrap();
        });
        assert_eq!(execs, 2 * p as u64 - 1, "P = {p}");
        let counts: Vec<usize> = (0..p).map(|r| 1 + r % 7).collect();
        let execs = executions(p, |comm| {
            let send = vec![comm.rank() as u64; counts.iter().sum()];
            let mut recv = vec![0u64; counts[comm.rank()]];
            let halving = ReduceScatterAlgorithm::RecursiveHalving;
            reduce_scatter(halving, comm, &send, &mut recv, &counts, ReduceOp::Sum).unwrap();
        });
        assert!(execs <= 5 * p as u64 / 2, "halving at P = {p}: {execs} executions");
    }
}

#[test]
fn the_pairwise_families_are_no_dearer_than_in_arrival_order() {
    // The windowed and the pairwise schedules advance as a wavefront; served
    // in arrival order they took 1,407 and 32,896 executions at P = 256.
    let p = 256;
    let m = SizeMatrix::generate(Distribution::Uniform, 7, p, 64);
    for (algo, bound) in
        [(AlltoallvAlgorithm::Vendor, 1_407), (AlltoallvAlgorithm::Reference, 16_800)]
    {
        let cfg = EngineConfig::from(algo);
        let execs = executions(p, |comm| exchange(comm, &cfg, &m));
        assert!(execs <= bound, "{algo:?}: {execs} executions, bound {bound}");
    }
}

#[test]
fn a_parked_exchange_resumes_where_it_stopped() {
    // On a bare `EventComm` each family's loop is a stored call: a wake polls
    // it where it parked, so no execution retraces a logged op. The parks —
    // and so the executions — are the ones replay cost: replay retraced
    // 238,884 / 7,170 / 15,055 / 3,585 / 3,331 ops here. The scheduler polls
    // a parked call itself, so a closure unwinds once, at its call's first
    // park: every other park is a resume, and the allreduce, which parks
    // each rank but one once, resumes nothing.
    let p = 256;
    let m = SizeMatrix::generate(Distribution::Uniform, 7, p, 64);
    let counts: Vec<usize> = (0..p).map(|r| 1 + r % 7).collect();
    let displs = packed_displs(&counts);
    let m = &m;
    let exchange_on = |cfg: EngineConfig| resumed_passes(p, move |comm| exchange(comm, &cfg, m));
    let runs = [
        ("vendor", exchange_on(EngineConfig::as_vendor()), (1_082, 0, 570, 256)),
        ("two-phase", exchange_on(EngineConfig::as_two_phase()), (765, 0, 253, 256)),
        ("padded Bruck", exchange_on(EngineConfig::as_padded_bruck()), (1_019, 0, 507, 256)),
        (
            "allgatherv(Bruck)",
            resumed_passes(p, |comm| {
                let mut recv = vec![0u8; counts.iter().sum()];
                let send = vec![comm.rank() as u8; counts[comm.rank()]];
                allgatherv(AllgathervAlgorithm::Bruck, comm, &send, &mut recv, &counts, &displs)
                    .unwrap();
            }),
            (765, 0, 253, 256),
        ),
        (
            "allreduce(RecursiveDoubling)",
            resumed_passes(p, |comm| {
                let mut v = [comm.rank() as u64; 8];
                allreduce(AllreduceAlgorithm::RecursiveDoubling, comm, &mut v, ReduceOp::Sum)
                    .unwrap();
            }),
            (511, 0, 0, 255),
        ),
    ];
    for (name, got, want) in runs {
        assert_eq!(got, want, "{name} at P = {p}: (executions, replayed ops, resumes, unwinds)");
    }
}

#[test]
fn a_transitive_closure_fixpoint_at_p8_pins_its_executions() {
    // One worker is fully deterministic, so the count is exact. In arrival
    // order this fixpoint took 325 executions, and 193 while every round ran
    // a uniform Bruck exchange of its counts before the data. A finished
    // round is one replay-log entry, so re-executions retrace 483 ops where
    // replaying every round's sends and receives retraced 6,730; 19 wakes
    // resume a parked round without re-running the closure's prefix, which
    // retraced 545 ops while every wake re-ran it.
    let edges = graph1_like(2, 10, 2, 1);
    let got = resumed_passes(8, |comm| {
        transitive_closure(comm, AlltoallvAlgorithm::TwoPhaseBruck, &edges).unwrap();
    });
    assert_eq!((got.0, got.1, got.2), (113, 483, 19));
}

#[test]
fn radix_four_two_phase_at_p8_deposits_64_messages() {
    // 4 sub-steps (digits 1..3 at weight 1, digit 1 at weight 4) × 2 messages
    // × 8 ranks; the sizing allreduce used to add 3 × 8.
    let m = SizeMatrix::generate(Distribution::Uniform, 7, 8, 64);
    let cfg = EngineConfig { radix: 4, ..EngineConfig::as_two_phase() };
    let (_, report) = EventComm::run_report(8, 1, |comm| exchange(comm, &cfg, &m));
    assert_eq!(report.messages, 64);
}

/// The entry point the honest rank of [`against_rogue_peer`] calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// `configurable_alltoallv`, with `recvcounts`.
    Alltoallv,
    /// `alltoallv_discover`, which learns every length off the wire.
    Discover,
}

/// What rank 0 of a P = 2 world reports when rank 1 is a rogue peer that
/// answers step 0 with `script` (tag, payload) in place of its own messages:
/// the engine's error, and the length of whatever is still queued afterwards
/// on the tag a block travels on (the data tag; the one tag of a direct
/// exchange).
fn against_rogue_peer<C: Communicator + ?Sized>(
    comm: &C,
    entry: Entry,
    cfg: &EngineConfig,
    script: &[(Tag, &[u8])],
) -> Option<(CommError, Option<usize>)> {
    let direct = cfg.topology == EngineTopology::Direct;
    if comm.rank() == 1 {
        for &(tag, payload) in script {
            comm.send_buf(0, tag, MsgBuf::copy_from_slice(payload)).unwrap();
        }
        // Consume what the honest rank has sent by the time it can fail: its
        // block, its frame, or its header always and its body under the
        // split coupling (posted first).
        let sent: &[Tag] = match (direct, entry, cfg.two_phase_split) {
            (true, _, _) => &[SPREAD_TAG],
            (false, Entry::Discover, _) => &[data_tag(0)],
            (false, Entry::Alltoallv, true) => &[meta_tag(0), data_tag(0)],
            (false, Entry::Alltoallv, false) => &[meta_tag(0)],
        };
        for &tag in sent {
            comm.recv_buf(0, tag).unwrap();
        }
        return None;
    }
    // Rank 0 keeps 3 bytes, sends 5 and expects 4 from rank 1.
    let (sendbuf, sendcounts, sdispls) = ([7u8; 8], [3, 5], [0, 3]);
    let (mut recvbuf, recvcounts, rdispls) = ([0u8; 7], [3, 4], [0, 3]);
    let err = match entry {
        Entry::Alltoallv => configurable_alltoallv(
            comm, cfg, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
        )
        .expect_err("a malformed step must not be accepted"),
        Entry::Discover => alltoallv_discover(comm, cfg, &sendbuf, &sendcounts, &sdispls, false)
            .expect_err("a malformed frame must not be accepted"),
    };
    let block_tag = if direct { SPREAD_TAG } else { data_tag(0) };
    Some((err, comm.probe(1, block_tag).unwrap()))
}

/// `(entry, config, rogue script, expected error, expected leftover)`.
type RogueCase = (Entry, EngineConfig, Vec<(Tag, &'static [u8])>, CommError, Option<usize>);

/// Every rogue-peer case: the split coupling's, the combined coupling's
/// header, a routed block of the wrong size through both topologies, and the
/// discovering exchange's frames.
fn rogue_cases() -> Vec<RogueCase> {
    use Entry::{Alltoallv, Discover};
    let split = EngineConfig::as_two_phase();
    let combined = EngineConfig { two_phase_split: false, ..split };
    let vendor = EngineConfig::as_vendor();
    let four: &[u8] = &[4, 0, 0, 0];
    let (meta, data) = (meta_tag(0), data_tag(0));
    let routed = CommError::BadArgument("routed size disagrees with recvcounts");
    let payload = CommError::BadArgument("data payload length mismatch");
    vec![
        // (a) one block is announced by 4 bytes, not 8.
        (
            Alltoallv,
            split,
            vec![(meta, &[4, 0, 0, 0, 9, 0, 0, 0])],
            CommError::BadArgument("metadata length mismatch"),
            None,
        ),
        // (b) a body longer than announced is refused, not consumed.
        (
            Alltoallv,
            split,
            vec![(meta, four), (data, &[1; 6])],
            CommError::Truncated { message_len: 6, buffer_len: 4 },
            Some(6),
        ),
        // (c) a body shorter than announced.
        (Alltoallv, split, vec![(meta, four), (data, &[1; 2])], payload.clone(), None),
        // (d) the combined coupling's header is 8 bytes, whatever they say.
        (
            Alltoallv,
            combined,
            vec![(meta, &[1, 2, 3])],
            CommError::BadArgument("bad size header"),
            None,
        ),
        // (e) a well-formed step routing 5 bytes into a 4-byte slot.
        (Alltoallv, split, vec![(meta, &[5, 0, 0, 0]), (data, &[1; 5])], routed, None),
        // (f) a 2-byte block for a 4-byte slot of a direct exchange…
        (
            Alltoallv,
            vendor,
            vec![(SPREAD_TAG, &[1; 2])],
            CommError::BadArgument("short collective payload"),
            None,
        ),
        // (g) …and a 6-byte one, which stays queued.
        (
            Alltoallv,
            vendor,
            vec![(SPREAD_TAG, &[1; 6])],
            CommError::Truncated { message_len: 6, buffer_len: 4 },
            Some(6),
        ),
        // (h) a frame shorter than its one-block size array;
        (
            Discover,
            split,
            vec![(data, &[4, 0, 0])],
            CommError::BadArgument("combined buffer length mismatch"),
            None,
        ),
        // (i) a frame whose size says more than its payload holds…
        (Discover, split, vec![(data, &[9, 0, 0, 0, 1, 1, 1, 1])], payload.clone(), None),
        // (j) …and one whose size says less.
        (Discover, split, vec![(data, &[2, 0, 0, 0, 1, 1, 1, 1])], payload, None),
    ]
}

#[test]
fn a_rogue_peer_gets_a_typed_error_on_thread_comm() {
    for (entry, cfg, script, want, leftover) in rogue_cases() {
        let got = ThreadComm::run(2, |comm| against_rogue_peer(comm, entry, &cfg, &script));
        assert_eq!(got[0], Some((want, leftover)), "{entry:?} {}: {script:?}", cfg.key());
    }
}

#[test]
fn a_rogue_peer_gets_a_typed_error_on_sim_comm() {
    for (entry, cfg, script, want, leftover) in rogue_cases() {
        let run = SimComm::run(2, 5, |comm| against_rogue_peer(comm, entry, &cfg, &script));
        assert_eq!(run.results[0], Some((want, leftover)), "{entry:?} {}: {script:?}", cfg.key());
    }
}

#[test]
fn a_rogue_peer_gets_a_typed_error_from_a_stored_call() {
    // Bare `EventComm`: the exchange is a resumed call, which parks on the
    // rogue's messages whenever rank 0 runs first.
    for (entry, cfg, script, want, leftover) in rogue_cases() {
        for workers in [1, 2] {
            let got = EventComm::run_pooled(2, workers, |comm| {
                assert!(comm.resumable().is_some(), "a bare EventComm runs the stored call");
                against_rogue_peer(comm, entry, &cfg, &script)
            });
            let case = format!("{entry:?} {}: {script:?}", cfg.key());
            assert_eq!(got[0], Some((want.clone(), leftover)), "{case}");
        }
    }
}

#[test]
fn a_stored_call_ends_on_the_deadlock_verdict_a_metered_one_gets() {
    // Rank 1 never takes part: rank 0 parks inside its stored call, the
    // runtime proves the world stuck, and the verdict reaches the call's
    // receive — through the scheduler's resume of it — as the typed error
    // the replayed path returns under a wrapper.
    let cfg = EngineConfig::as_two_phase();
    let m = SizeMatrix::generate(Distribution::Uniform, 3, 2, 16);
    let rank0 = |comm: &dyn Communicator| {
        let me = comm.rank();
        let sendcounts = m.sendcounts(me);
        let sdispls = packed_displs(&sendcounts);
        let sendbuf = vec![0u8; sendcounts.iter().sum()];
        let recvcounts = m.recvcounts(me);
        let rdispls = packed_displs(&recvcounts);
        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
        (me == 0).then(|| {
            configurable_alltoallv(
                comm, &cfg, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
            )
        })
    };
    let want = Some(Err(CommError::Deadlock { src: 1, tag: meta_tag(0) }));
    for workers in [1, 2] {
        let bare = EventComm::run_pooled(2, workers, |comm| rank0(comm));
        assert_eq!(bare[0], want, "{workers} workers");
    }
    let bare = EventComm::run(2, |comm| rank0(comm));
    let metered = EventComm::run(2, |comm| rank0(&MeteredComm::new(comm)));
    assert_eq!(bare[0], want);
    assert_eq!(metered[0], want);
}
