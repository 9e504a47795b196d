//! Distributed semi-naive transitive closure (§5.1).
//!
//! The classic BPRA formulation: edges `E(y, z)` are sharded by their first
//! column, paths `T(x, y)` by their second — so the semi-naive join
//! `ΔT(x, y) ⋈ E(y, z)` is entirely local, and only the *new* paths
//! `(x, z)` must be routed (to `owner(z)`) through one non-uniform all-to-all
//! per iteration. Iteration count equals the longest path length in the
//! graph, which is exactly why the paper's Graph 1 (deep) and Graph 2
//! (shallow, bushy) stress the all-to-all so differently.

use std::time::{Duration, Instant};

use bruck_comm::{CommResult, Communicator, ReduceOp};
use bruck_core::AlltoallvAlgorithm;

use crate::exchange::Fixpoint;
use crate::{owner, ExchangeStats, Relation, Tuple, TupleSet};

/// Instrumentation for one fixpoint iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcIteration {
    /// Globally new paths discovered this iteration (known one round late:
    /// it is the next round's vote sum).
    pub new_paths: u64,
    /// The iteration's all-to-all stats (N, bytes, time).
    pub exchange: ExchangeStats,
}

/// Result of a distributed transitive-closure run (per rank).
#[derive(Debug)]
pub struct TcResult {
    /// Fixpoint iterations executed (including the final empty one).
    pub iterations: usize,
    /// Total paths in the closure, globally.
    pub total_paths: u64,
    /// This rank's shard of the closure (paths `(x, y)` with
    /// `owner(y) == rank`).
    pub local_paths: TupleSet,
    /// Per-iteration instrumentation.
    pub per_iteration: Vec<TcIteration>,
    /// Total wall-clock time of the run.
    pub total_time: Duration,
    /// Time spent inside the all-to-all exchanges.
    pub comm_time: Duration,
}

/// Compute the transitive closure of `edges` (every rank passes the same
/// full edge list; sharding is internal). `algo` selects the all-to-all —
/// the single knob the paper's §5 experiments turn.
pub fn transitive_closure<C: Communicator + ?Sized>(
    comm: &C,
    algo: AlltoallvAlgorithm,
    edges: &[Tuple],
) -> CommResult<TcResult> {
    let start = Instant::now();
    let p = comm.size();
    let me = comm.rank();

    // Shard E by first column (join key).
    let my_edges: Relation = edges.iter().copied().filter(|e| owner(e.0, p) == me).collect();
    // T and the initial delta: paths sharded by second column, the delta in
    // input order (not hash order) so the wire bytes repeat run to run.
    let mut local_paths = TupleSet::default();
    let mut delta: Vec<Tuple> = edges.iter().copied().filter(|e| owner(e.1, p) == me).collect();
    delta.retain(|&e| local_paths.insert(e));

    let mut fixpoint = Fixpoint::default();
    loop {
        // Local join: ΔT(x, y) ⋈ E(y, z) → candidate paths (x, z).
        let mut outboxes: Vec<Vec<Tuple>> = vec![Vec::new(); p];
        my_edges.join_on_first(&delta, |x, _y, z| outboxes[owner(z, p)].push((x, z)));

        let Some(received) = fixpoint.round(comm, algo, &outboxes, delta.len() as u64)? else {
            break;
        };

        // Deduplicate against the local shard of T.
        delta.clear();
        delta.extend(received.into_iter().filter(|&t| local_paths.insert(t)));
    }

    #[expect(clippy::disallowed_methods, reason = "the one-off total after the fixpoint loop")]
    let total_paths = comm.allreduce_u64(local_paths.len() as u64, ReduceOp::Sum)?;
    let per_iteration: Vec<TcIteration> = fixpoint
        .rounds
        .into_iter()
        .map(|(new_paths, exchange)| TcIteration { new_paths, exchange })
        .collect();
    Ok(TcResult {
        iterations: per_iteration.len(),
        total_paths,
        local_paths,
        comm_time: per_iteration.iter().map(|i| i.exchange.comm_time).sum(),
        per_iteration,
        total_time: start.elapsed(),
    })
}

/// Sequential reference closure (tests and single-rank baselines).
pub fn sequential_closure(edges: &[Tuple]) -> TupleSet {
    let index: Relation = edges.iter().copied().collect();
    let mut closure = TupleSet::default();
    let mut delta: Vec<Tuple> = edges.to_vec();
    delta.retain(|&e| closure.insert(e));
    while !delta.is_empty() {
        let mut next = Vec::new();
        index.join_on_first(&delta, |x, _y, z| next.push((x, z)));
        delta.clear();
        for t in next {
            if closure.insert(t) {
                delta.push(t);
            }
        }
    }
    closure
}

#[cfg(test)]
mod tests {
    use super::*;
    use bruck_comm::ThreadComm;

    fn chain(n: u64) -> Vec<Tuple> {
        (0..n).map(|i| (i, i + 1)).collect()
    }

    #[test]
    fn sequential_closure_of_chain() {
        // Chain 0→1→2→3: closure has n(n+1)/2 = 6 paths.
        let c = sequential_closure(&chain(3));
        assert_eq!(c.len(), 6);
        assert!(c.contains(&(0, 3)));
        assert!(!c.contains(&(3, 0)));
    }

    #[test]
    fn distributed_matches_sequential_on_small_graphs() {
        let graphs: Vec<Vec<Tuple>> = vec![
            chain(6),
            vec![(0, 1), (1, 2), (2, 0)],                   // cycle
            vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],   // diamond + tail
            vec![(5, 5)],                                   // self loop
            vec![],                                         // empty
        ];
        for edges in graphs {
            let expect = sequential_closure(&edges);
            for algo in [AlltoallvAlgorithm::Vendor, AlltoallvAlgorithm::TwoPhaseBruck] {
                let edges2 = edges.clone();
                let results = ThreadComm::run(4, move |comm| {
                    let r = transitive_closure(comm, algo, &edges2).unwrap();
                    (r.total_paths, r.local_paths.iter().copied().collect::<Vec<_>>())
                });
                let mut all: Vec<Tuple> = Vec::new();
                for (total, local) in &results {
                    assert_eq!(*total, expect.len() as u64);
                    all.extend(local);
                }
                all.sort_unstable();
                let mut want: Vec<Tuple> = expect.iter().copied().collect();
                want.sort_unstable();
                assert_eq!(all, want, "algo {algo:?}, edges {edges:?}");
            }
        }
    }

    #[test]
    fn iteration_count_tracks_longest_path() {
        // Semi-naive extension adds one edge per iteration: a chain with L
        // edges takes L−1 productive iterations plus the final empty one.
        let l = 9;
        let results = ThreadComm::run(3, move |comm| {
            transitive_closure(comm, AlltoallvAlgorithm::TwoPhaseBruck, &chain(l))
                .unwrap()
                .iterations
        });
        for iters in results {
            assert_eq!(iters, l as usize);
        }
    }

    #[test]
    fn per_iteration_stats_are_recorded() {
        let results = ThreadComm::run(2, |comm| {
            transitive_closure(comm, AlltoallvAlgorithm::Vendor, &chain(4)).unwrap()
        });
        for r in results {
            assert_eq!(r.per_iteration.len(), r.iterations);
            assert_eq!(r.per_iteration.last().unwrap().new_paths, 0);
            assert!(r.total_time >= r.comm_time);
        }
    }

    #[test]
    fn works_on_single_rank() {
        let results = ThreadComm::run(1, |comm| {
            transitive_closure(comm, AlltoallvAlgorithm::TwoPhaseBruck, &chain(5))
                .unwrap()
                .total_paths
        });
        assert_eq!(results[0], 15);
    }
}
