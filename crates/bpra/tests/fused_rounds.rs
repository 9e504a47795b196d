//! The one-exchange fixpoint round (DESIGN.md §14.5): its message counts at
//! P = 8, results identical to the three-collective driver it replaced, and
//! per-round wire counts pinned from before the closure shard's hash changed.

use bruck_bpra::{
    decode_all, encode_all, exchange_tuples, graph1_like, graph2_like, kcfa_like_run,
    outboxes_at, owner, transitive_closure, KcfaConfig, Relation, TcIteration, Tuple, TupleSet,
    TUPLE_BYTES,
};
use bruck_comm::{Communicator, EventComm, MeteredComm, ReduceOp, SimComm, ThreadComm};
use bruck_core::{alltoallv, packed_displs, AlltoallvAlgorithm};

/// The paper's swap: vendor `MPI_Alltoallv` against two-phase Bruck.
const ALGOS: [AlltoallvAlgorithm; 2] = [AlltoallvAlgorithm::TwoPhaseBruck, AlltoallvAlgorithm::Vendor];

#[test]
fn a_round_is_one_exchange_with_or_without_data_at_p8() {
    let p = 8;
    // Two-phase: one `[sizes | payload]` frame per sub-step, 3 in all;
    // vendor: one per peer. Nothing on reserved tags: no collective runs
    // beside the exchange.
    for (algo, msgs) in ALGOS.into_iter().zip([3, 7]) {
        let sent = ThreadComm::run(p, |comm| {
            let mc = MeteredComm::new(comm);
            let round = |outboxes: &[Vec<Tuple>], odd_round| {
                mc.reset();
                let (_, stats) = exchange_tuples(&mc, algo, outboxes, 0, odd_round).unwrap();
                let m = mc.metrics();
                (stats.n_max, m.logical.sent_msgs, m.reserved.sent_msgs)
            };
            // One tuple from rank 3 to rank 5 is data for the whole world.
            let mut outboxes = vec![Vec::new(); p];
            if comm.rank() == 3 {
                outboxes[5].push((1, 2));
            }
            [round(&outboxes, false), round(&vec![Vec::new(); p], true)]
        });
        for [with_data, without] in sent {
            assert_eq!(with_data, (TUPLE_BYTES, msgs, 0), "{algo:?}");
            assert_eq!(without, (0, msgs, 0), "{algo:?}");
        }
    }
}

/// The parent's exchange: an allreduce for `N`, the blocking counts ring,
/// then the same `alltoallv`.
fn parent_exchange<C: Communicator + ?Sized>(
    comm: &C,
    algo: AlltoallvAlgorithm,
    outboxes: &[Vec<Tuple>],
) -> (Vec<Tuple>, usize) {
    let sendcounts: Vec<usize> = outboxes.iter().map(|b| b.len() * TUPLE_BYTES).collect();
    let sendbuf: Vec<u8> = outboxes.iter().flat_map(|b| encode_all(b)).collect();
    let local_max = sendcounts.iter().copied().max().unwrap_or(0);
    let n_max = comm.allreduce_u64(local_max as u64, ReduceOp::Max).unwrap() as usize;
    let recvcounts = comm.alltoall_counts(&sendcounts).unwrap();
    let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
    let (sdispls, rdispls) = (packed_displs(&sendcounts), packed_displs(&recvcounts));
    alltoallv(algo, comm, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls)
        .unwrap();
    (decode_all(&recvbuf).unwrap(), n_max)
}

/// Everything a rank's run leaves behind that does not depend on the clock:
/// its sorted result, the global total, and the per-iteration `(N, globally
/// new facts)` series.
type Outcome = (Vec<Tuple>, u64, Vec<(usize, u64)>);

/// The parent's closure loop: an allreduce per iteration decides termination.
fn parent_closure<C: Communicator + ?Sized>(
    comm: &C,
    algo: AlltoallvAlgorithm,
    edges: &[Tuple],
) -> Outcome {
    let (p, me) = (comm.size(), comm.rank());
    let my_edges: Relation = edges.iter().copied().filter(|e| owner(e.0, p) == me).collect();
    // The first delta in input order, as the library's drivers seed theirs.
    let mut paths = TupleSet::default();
    let mut delta: Vec<Tuple> = edges.iter().copied().filter(|e| owner(e.1, p) == me).collect();
    delta.retain(|&e| paths.insert(e));
    let mut series = Vec::new();
    loop {
        let mut outboxes = vec![Vec::new(); p];
        my_edges.join_on_first(&delta, |x, _y, z| outboxes[owner(z, p)].push((x, z)));
        let (received, n_max) = parent_exchange(comm, algo, &outboxes);
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

fn fused_closure<C: Communicator + ?Sized>(
    comm: &C,
    algo: AlltoallvAlgorithm,
    edges: &[Tuple],
) -> Outcome {
    let r = transitive_closure(comm, algo, edges).unwrap();
    assert_eq!(r.iterations, r.per_iteration.len());
    let mut shard: Vec<Tuple> = r.local_paths.iter().copied().collect();
    shard.sort_unstable();
    let series = r.per_iteration.iter().map(|i| (i.exchange.n_max, i.new_paths)).collect();
    (shard, r.total_paths, series)
}

const KCFA: KcfaConfig = KcfaConfig { iterations: 12, base_facts: 3, seed: 0xCFA8 };

fn parent_kcfa<C: Communicator + ?Sized>(comm: &C, algo: AlltoallvAlgorithm) -> Outcome {
    let (p, me) = (comm.size(), comm.rank());
    let (mut facts_received, mut series) = (0, Vec::new());
    for iter in 0..KCFA.iterations {
        let (received, n_max) = parent_exchange(comm, algo, &outboxes_at(&KCFA, me, iter, p));
        facts_received += received.len() as u64;
        series.push((n_max, 0));
    }
    // The run keeps the count, not the facts.
    (Vec::new(), facts_received, series)
}

fn fused_kcfa<C: Communicator + ?Sized>(comm: &C, algo: AlltoallvAlgorithm) -> Outcome {
    let r = kcfa_like_run(comm, algo, &KCFA).unwrap();
    (Vec::new(), r.facts_received, r.per_iteration.iter().map(|s| (s.n_max, s.votes)).collect())
}

/// `body` on every backend the suite runs on: real threads, two simulator
/// schedules, the event runtime.
fn on_every_backend<T: Send>(
    p: usize,
    body: impl Fn(&dyn Communicator) -> T + Sync + Copy,
) -> [Vec<T>; 4] {
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
    for algo in ALGOS {
        let want = ThreadComm::run(p, |comm| parent_closure(comm, algo, &edges));
        assert!(want[0].2.len() > 10 && want[0].1 > 0, "{:?}", want[0].2);
        for got in on_every_backend(p, |comm| fused_closure(comm, algo, &edges)) {
            assert_eq!(got, want, "{algo:?}");
        }
        let want = ThreadComm::run(p, |comm| parent_kcfa(comm, algo));
        assert!(want.iter().all(|(_, total, _)| *total > 0));
        for got in on_every_backend(p, |comm| fused_kcfa(comm, algo)) {
            assert_eq!(got, want, "{algo:?}");
        }
    }
}

/// One round as a rank sees it: `(N, tuple bytes sent, tuples received,
/// globally new paths)`.
type Round = (usize, usize, usize, u64);

/// `graph1_like(2, 14, 4, 7)` at P = 5, per rank, captured while the closure
/// shard still hashed with std's `RandomState`.
#[rustfmt::skip]
const GRAPH1_ROUNDS: [[Round; 13]; 5] = [
    [
        (64, 64, 3, 30), (64, 48, 2, 27), (64, 32, 2, 23), (48, 32, 2, 20), (48, 32, 2, 18),
        (48, 32, 2, 16), (48, 32, 2, 14), (32, 32, 3, 11), (32, 48, 3, 9), (32, 48, 2, 7),
        (16, 32, 1, 3), (16, 16, 0, 1), (0, 0, 0, 0),
    ],
    [
        (64, 160, 8, 30), (64, 160, 7, 27), (64, 128, 6, 23), (48, 112, 6, 20), (48, 112, 5, 18),
        (48, 96, 5, 16), (48, 96, 4, 14), (32, 64, 3, 11), (32, 48, 2, 9), (32, 32, 2, 7),
        (16, 32, 1, 3), (16, 16, 0, 1), (0, 0, 0, 0),
    ],
    [
        (64, 96, 4, 30), (64, 80, 5, 27), (64, 96, 4, 23), (48, 80, 4, 20), (48, 80, 3, 18),
        (48, 64, 3, 16), (48, 64, 2, 14), (32, 48, 2, 11), (32, 48, 1, 9), (32, 32, 0, 7),
        (16, 0, 0, 3), (16, 0, 0, 1), (0, 0, 0, 0),
    ],
    [
        (64, 144, 10, 30), (64, 144, 9, 27), (64, 112, 9, 23), (48, 112, 7, 20), (48, 96, 7, 18),
        (48, 96, 5, 16), (48, 64, 5, 14), (32, 64, 3, 11), (32, 32, 3, 9), (32, 32, 2, 7),
        (16, 16, 1, 3), (16, 0, 1, 1), (0, 0, 0, 0),
    ],
    [
        (64, 32, 6, 30), (64, 32, 6, 27), (64, 32, 4, 23), (48, 16, 3, 20), (48, 0, 3, 18),
        (48, 0, 3, 16), (48, 0, 3, 14), (32, 0, 2, 11), (32, 0, 2, 9), (32, 0, 3, 7),
        (16, 0, 2, 3), (16, 0, 1, 1), (0, 0, 0, 0),
    ],
];

/// `graph2_like(32, 80, 7)` at P = 5, captured with [`GRAPH1_ROUNDS`].
#[rustfmt::skip]
const GRAPH2_ROUNDS: [[Round; 7]; 5] = [
    [
        (416, 128, 9, 165), (1152, 240, 18, 233), (864, 448, 29, 211), (784, 912, 24, 115),
        (688, 1056, 10, 34), (368, 512, 1, 5), (48, 64, 0, 0),
    ],
    [
        (416, 736, 51, 165), (1152, 1696, 114, 233), (864, 2704, 146, 211), (784, 2320, 140, 115),
        (688, 880, 64, 34), (368, 288, 20, 5), (48, 80, 5, 0),
    ],
    [
        (416, 640, 50, 165), (1152, 1264, 126, 233), (864, 1792, 137, 211), (784, 1216, 113, 115),
        (688, 512, 66, 34), (368, 288, 18, 5), (48, 48, 1, 0),
    ],
    [
        (416, 432, 37, 165), (1152, 880, 79, 233), (864, 1456, 116, 211), (784, 1888, 97, 115),
        (688, 1024, 62, 34), (368, 80, 26, 5), (48, 0, 4, 0),
    ],
    [
        (416, 1072, 41, 165), (1152, 2720, 88, 233), (864, 2496, 128, 211), (784, 1248, 100, 115),
        (688, 544, 49, 34), (368, 80, 13, 5), (48, 0, 2, 0),
    ],
];

#[test]
fn per_round_wire_counts_are_pinned_on_every_backend() {
    // The set a rank dedups against decides which tuples are new, not what
    // travels: a change of its hash must leave every count where it was.
    let cases = [
        (graph1_like(2, 14, 4, 7), GRAPH1_ROUNDS.map(Vec::from).to_vec()),
        (graph2_like(32, 80, 7), GRAPH2_ROUNDS.map(Vec::from).to_vec()),
    ];
    for (edges, want) in &cases {
        for algo in ALGOS {
            let rounds = |comm: &dyn Communicator| -> Vec<Round> {
                let r = transitive_closure(comm, algo, edges).unwrap();
                let round = |i: &TcIteration| {
                    let e = i.exchange;
                    (e.n_max, e.bytes_sent, e.tuples_received, i.new_paths)
                };
                r.per_iteration.iter().map(round).collect()
            };
            for got in on_every_backend(5, rounds) {
                assert_eq!(&got, want, "{algo:?}");
            }
        }
    }
}
