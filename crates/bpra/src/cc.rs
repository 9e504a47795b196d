//! Distributed connected components by label propagation — a third
//! iterated-all-to-all application in the Figure 11 family, with the opposite
//! load profile to transitive closure: per-iteration traffic *shrinks* as
//! labels stabilize, sweeping an algorithm through the small-N regime where
//! the Bruck family wins.

use std::collections::HashMap;

use bruck_comm::{CommResult, Communicator, ReduceOp};
use bruck_core::AlltoallvAlgorithm;

use crate::exchange::Fixpoint;
use crate::{owner, ExchangeStats, Tuple};

/// Result of a distributed connected-components run (per rank).
#[derive(Debug)]
pub struct CcResult {
    /// Number of connected components (undirected) globally.
    pub components: u64,
    /// Label-propagation iterations until quiescence.
    pub iterations: usize,
    /// This rank's vertices and their final component labels (the label is
    /// the smallest vertex id in the component).
    pub local_labels: HashMap<u64, u64>,
    /// Per-iteration exchange stats.
    pub per_iteration: Vec<ExchangeStats>,
}

/// Compute connected components of the *undirected* view of `edges` (every
/// rank passes the same edge list). Vertices are the endpoints that appear.
pub fn connected_components<C: Communicator + ?Sized>(
    comm: &C,
    algo: AlltoallvAlgorithm,
    edges: &[Tuple],
) -> CommResult<CcResult> {
    let p = comm.size();
    let me = comm.rank();

    // Local adjacency for owned vertices (both directions).
    let mut adj: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut labels: HashMap<u64, u64> = HashMap::new();
    for &(a, b) in edges {
        for (x, y) in [(a, b), (b, a)] {
            if owner(x, p) == me {
                adj.entry(x).or_default().push(y);
                labels.insert(x, x);
            }
        }
    }

    // Changed set: vertices whose label improved since last broadcast.
    let mut changed: Vec<u64> = labels.keys().copied().collect();
    let mut fixpoint = Fixpoint::default();
    loop {
        // Push (neighbor, my_label) to each neighbor's owner.
        let mut outboxes: Vec<Vec<Tuple>> = vec![Vec::new(); p];
        for &v in &changed {
            let label = labels[&v];
            for &n in adj.get(&v).map_or(&[][..], Vec::as_slice) {
                outboxes[owner(n, p)].push((n, label));
            }
        }
        let Some(received) = fixpoint.round(comm, algo, &outboxes, changed.len() as u64)? else {
            break;
        };

        changed.clear();
        for (v, candidate) in received {
            let cur = labels.get_mut(&v).expect("owner holds every endpoint it is sent");
            if candidate < *cur {
                *cur = candidate;
                changed.push(v);
            }
        }
        changed.sort_unstable();
        changed.dedup();
    }

    let local_roots = labels.iter().filter(|(v, l)| v == l).count() as u64;
    let components = comm.allreduce_u64(local_roots, ReduceOp::Sum)?;
    let per_iteration: Vec<ExchangeStats> = fixpoint.rounds.into_iter().map(|r| r.1).collect();
    Ok(CcResult { components, iterations: per_iteration.len(), local_labels: labels, per_iteration })
}

/// Sequential union-find oracle.
pub fn sequential_components(edges: &[Tuple]) -> u64 {
    let mut parent: HashMap<u64, u64> = HashMap::new();
    fn find(parent: &mut HashMap<u64, u64>, mut x: u64) -> u64 {
        while parent[&x] != x {
            let gp = parent[&parent[&x]];
            parent.insert(x, gp);
            x = gp;
        }
        x
    }
    for &(a, b) in edges {
        parent.entry(a).or_insert(a);
        parent.entry(b).or_insert(b);
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent.insert(ra.max(rb), ra.min(rb));
        }
    }
    let keys: Vec<u64> = parent.keys().copied().collect();
    keys.into_iter().filter(|&v| find(&mut parent, v) == v).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{graph1_like, graph2_like};
    use bruck_comm::ThreadComm;

    #[test]
    fn sequential_oracle_counts_components() {
        assert_eq!(sequential_components(&[]), 0);
        assert_eq!(sequential_components(&[(1, 2), (2, 3)]), 1);
        assert_eq!(sequential_components(&[(1, 2), (3, 4)]), 2);
        assert_eq!(sequential_components(&[(5, 5)]), 1);
    }

    #[test]
    fn distributed_matches_oracle() {
        let graphs: Vec<Vec<Tuple>> = vec![
            vec![(1, 2), (2, 3), (10, 11), (20, 20)],
            graph1_like(3, 20, 8, 5),
            graph2_like(50, 120, 5),
            vec![],
        ];
        for edges in graphs {
            let expect = sequential_components(&edges);
            for p in [1usize, 2, 4, 7] {
                for algo in [AlltoallvAlgorithm::Vendor, AlltoallvAlgorithm::TwoPhaseBruck] {
                    let e = edges.clone();
                    let out = ThreadComm::run(p, move |comm| {
                        connected_components(comm, algo, &e).unwrap().components
                    });
                    assert!(out.iter().all(|&c| c == expect), "p={p} algo={algo:?}");
                }
            }
        }
    }

    #[test]
    fn labels_are_component_minima() {
        let edges = vec![(7u64, 3u64), (3, 9), (100, 101)];
        let results = ThreadComm::run(3, move |comm| {
            connected_components(comm, AlltoallvAlgorithm::TwoPhaseBruck, &edges).unwrap()
        });
        let mut all: HashMap<u64, u64> = HashMap::new();
        for r in results {
            all.extend(r.local_labels);
        }
        assert_eq!(all[&7], 3);
        assert_eq!(all[&3], 3);
        assert_eq!(all[&9], 3);
        assert_eq!(all[&100], 100);
        assert_eq!(all[&101], 100);
    }

    #[test]
    fn per_iteration_traffic_shrinks() {
        // Label propagation quiesces: late iterations carry less than the
        // first (the shrinking-N profile).
        let edges = graph1_like(2, 60, 10, 9);
        let results = ThreadComm::run(4, move |comm| {
            connected_components(comm, AlltoallvAlgorithm::Vendor, &edges).unwrap()
        });
        let r = &results[0];
        assert!(r.iterations > 3);
        let first = r.per_iteration.first().unwrap().n_max;
        let last_active = r.per_iteration[r.iterations - 2].n_max;
        assert!(last_active <= first, "first {first} vs late {last_active}");
    }
}
