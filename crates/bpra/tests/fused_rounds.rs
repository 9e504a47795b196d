//! The fused control round (DESIGN.md §14.5): its message counts at P = 8,
//! and results identical to the three-collective driver it replaced.

use bruck_bpra::{
    decode_all, encode_all, exchange_tuples, graph1_like, kcfa_like_run, outboxes_at, owner,
    transitive_closure, KcfaConfig, Relation, Tuple, TUPLE_BYTES,
};
use bruck_comm::{Communicator, EventComm, MeteredComm, ReduceOp, SimComm, ThreadComm};
use bruck_core::{alltoallv, packed_displs, AlltoallvAlgorithm};

const ALGO: AlltoallvAlgorithm = AlltoallvAlgorithm::TwoPhaseBruck;

#[test]
fn a_round_is_nine_messages_with_data_and_three_without_at_p8() {
    let p = 8;
    let sent = ThreadComm::run(p, |comm| {
        let mc = MeteredComm::new(comm);
        let round = |outboxes: &[Vec<Tuple>]| {
            mc.reset();
            let (_, stats) = exchange_tuples(&mc, ALGO, outboxes, 0).unwrap();
            let m = mc.metrics();
            (stats.n_max, m.logical.sent_msgs, m.reserved.sent_msgs)
        };
        // One tuple from rank 3 to rank 5 is data for the whole world.
        let mut outboxes = vec![Vec::new(); p];
        if comm.rank() == 3 {
            outboxes[5].push((1, 2));
        }
        [round(&outboxes), round(&vec![Vec::new(); p])]
    });
    for [with_data, without] in sent {
        // 3 control + (3 metadata + 3 data) two-phase steps, nothing on
        // reserved tags: the engine sizes no buffer, so it runs no allreduce.
        assert_eq!(with_data, (TUPLE_BYTES, 9, 0));
        assert_eq!(without, (0, 3, 0));
    }
}

/// The parent's exchange: an allreduce for `N`, the blocking counts ring,
/// then the same `alltoallv`.
fn parent_exchange<C: Communicator + ?Sized>(
    comm: &C,
    outboxes: &[Vec<Tuple>],
) -> (Vec<Tuple>, usize) {
    let sendcounts: Vec<usize> = outboxes.iter().map(|b| b.len() * TUPLE_BYTES).collect();
    let sendbuf: Vec<u8> = outboxes.iter().flat_map(|b| encode_all(b)).collect();
    let local_max = sendcounts.iter().copied().max().unwrap_or(0);
    let n_max = comm.allreduce_u64(local_max as u64, ReduceOp::Max).unwrap() as usize;
    let recvcounts = comm.alltoall_counts(&sendcounts).unwrap();
    let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
    let (sdispls, rdispls) = (packed_displs(&sendcounts), packed_displs(&recvcounts));
    alltoallv(ALGO, comm, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls)
        .unwrap();
    (decode_all(&recvbuf), n_max)
}

/// Everything a rank's run leaves behind that does not depend on the clock:
/// its sorted result, the global total, and the per-iteration `(N, globally
/// new facts)` series.
type Outcome = (Vec<Tuple>, u64, Vec<(usize, u64)>);

/// The parent's closure loop: an allreduce per iteration decides termination.
fn parent_closure<C: Communicator + ?Sized>(comm: &C, edges: &[Tuple]) -> Outcome {
    let (p, me) = (comm.size(), comm.rank());
    let my_edges: Relation = edges.iter().copied().filter(|e| owner(e.0, p) == me).collect();
    let mut paths: Relation = edges.iter().copied().filter(|e| owner(e.1, p) == me).collect();
    let mut delta: Vec<Tuple> = paths.iter().copied().collect();
    let mut series = Vec::new();
    loop {
        let mut outboxes = vec![Vec::new(); p];
        my_edges.join_on_first(&delta, |x, _y, z| outboxes[owner(z, p)].push((x, z)));
        let (received, n_max) = parent_exchange(comm, &outboxes);
        delta = received.into_iter().filter(|&t| paths.insert(t)).collect();
        let new_paths = comm.allreduce_u64(delta.len() as u64, ReduceOp::Sum).unwrap();
        series.push((n_max, new_paths));
        if new_paths == 0 {
            break;
        }
    }
    let total = comm.allreduce_u64(paths.len() as u64, ReduceOp::Sum).unwrap();
    let mut shard: Vec<Tuple> = paths.iter().copied().collect();
    shard.sort_unstable();
    (shard, total, series)
}

fn fused_closure<C: Communicator + ?Sized>(comm: &C, edges: &[Tuple]) -> Outcome {
    let r = transitive_closure(comm, ALGO, edges).unwrap();
    assert_eq!(r.iterations, r.per_iteration.len());
    let mut shard: Vec<Tuple> = r.local_paths.iter().copied().collect();
    shard.sort_unstable();
    let series = r.per_iteration.iter().map(|i| (i.exchange.n_max, i.new_paths)).collect();
    (shard, r.total_paths, series)
}

const KCFA: KcfaConfig = KcfaConfig { iterations: 12, base_facts: 3, seed: 0xCFA8 };

fn parent_kcfa<C: Communicator + ?Sized>(comm: &C) -> Outcome {
    let (p, me) = (comm.size(), comm.rank());
    let (mut facts_received, mut series) = (0, Vec::new());
    for iter in 0..KCFA.iterations {
        let (received, n_max) = parent_exchange(comm, &outboxes_at(&KCFA, me, iter, p));
        facts_received += received.len() as u64;
        series.push((n_max, 0));
    }
    // The run keeps the count, not the facts.
    (Vec::new(), facts_received, series)
}

fn fused_kcfa<C: Communicator + ?Sized>(comm: &C) -> Outcome {
    let r = kcfa_like_run(comm, ALGO, &KCFA).unwrap();
    (Vec::new(), r.facts_received, r.per_iteration.iter().map(|s| (s.n_max, s.votes)).collect())
}

/// `body` on every backend the suite runs on: real threads, two simulator
/// schedules, the event runtime.
fn on_every_backend(
    p: usize,
    body: impl Fn(&dyn Communicator) -> Outcome + Sync + Copy,
) -> [Vec<Outcome>; 4] {
    [
        ThreadComm::run(p, |comm| body(comm)),
        SimComm::run(p, 1, |comm| body(comm)).results,
        SimComm::run(p, 2, |comm| body(comm)).results,
        EventComm::run(p, move |comm| body(comm)),
    ]
}

#[test]
fn closure_and_kcfa_results_are_the_parents_on_every_backend() {
    let p = 5;
    // Deep enough for a few dozen rounds, with rounds near the end that
    // carry only duplicates.
    let edges = graph1_like(2, 14, 4, 7);
    let want = ThreadComm::run(p, |comm| parent_closure(comm, &edges));
    assert!(want[0].2.len() > 10 && want[0].1 > 0, "{:?}", want[0].2);
    for got in on_every_backend(p, |comm| fused_closure(comm, &edges)) {
        assert_eq!(got, want);
    }
    let want = ThreadComm::run(p, parent_kcfa);
    assert!(want.iter().all(|(_, total, _)| *total > 0));
    for got in on_every_backend(p, |comm| fused_kcfa(comm)) {
        assert_eq!(got, want);
    }
}
