//! Synthetic graph generators standing in for the paper's SuiteSparse inputs
//! (DESIGN.md §1): what matters for Figure 11 is the *per-iteration all-to-all
//! load profile*, which is set by graph depth vs. breadth.

use crate::kcfa::splitmix64;
use crate::Tuple;

/// *Graph 1*-like: deep and narrow. Several long chains with sparse random
/// forward shortcuts and light branching — the closure converges only after
/// ~`chain_len` iterations, each producing a modest number of new paths
/// (small per-iteration `N`, the regime where two-phase Bruck wins).
pub fn graph1_like(chains: usize, chain_len: usize, shortcuts: usize, seed: u64) -> Vec<Tuple> {
    let mut edges = Vec::with_capacity(chains * chain_len + shortcuts);
    let stride = chain_len as u64 + 1;
    for c in 0..chains as u64 {
        let base = c * stride;
        for i in 0..chain_len as u64 {
            edges.push((base + i, base + i + 1));
        }
    }
    // Forward shortcuts within a chain (keep the graph acyclic and deep).
    for s in 0..shortcuts as u64 {
        let h = splitmix64(seed ^ s.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let c = h % chains as u64;
        let span = chain_len as u64;
        let from = splitmix64(h) % span;
        let jump = 2 + splitmix64(h ^ 1) % 8; // short hops preserve depth
        let to = (from + jump).min(span);
        if to > from {
            edges.push((c * stride + from, c * stride + to));
        }
    }
    edges
}

/// *Graph 2*-like: shallow and bushy. A uniform random directed graph whose
/// diameter is ~log(n) — the closure converges in a handful of iterations,
/// each flooding the all-to-all with an order of magnitude more new paths
/// (large per-iteration `N`, where the Bruck family loses; §5.1's diverging
/// result).
pub fn graph2_like(vertices: usize, edges: usize, seed: u64) -> Vec<Tuple> {
    let n = vertices as u64;
    let mut out = Vec::with_capacity(edges);
    let mut i = 0u64;
    while out.len() < edges {
        let h = splitmix64(seed ^ i.wrapping_mul(0x9E6D_62D0_6F6A_9A9B));
        let a = h % n;
        let b = splitmix64(h) % n;
        if a != b {
            out.push((a, b));
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential_closure;

    #[test]
    fn graph1_is_deterministic_and_acyclic_shaped() {
        let a = graph1_like(4, 20, 10, 7);
        let b = graph1_like(4, 20, 10, 7);
        assert_eq!(a, b);
        // All edges point forward (acyclic).
        assert!(a.iter().all(|&(x, y)| y > x));
        assert!(a.len() >= 4 * 20);
    }

    #[test]
    fn graph2_is_deterministic_without_self_loops() {
        let a = graph2_like(50, 200, 3);
        assert_eq!(a, graph2_like(50, 200, 3));
        assert_eq!(a.len(), 200);
        assert!(a.iter().all(|&(x, y)| x != y && x < 50 && y < 50));
    }

    #[test]
    fn depth_profiles_differ_as_in_the_paper() {
        // Count semi-naive iterations (= longest-path depth) for both shapes.
        let deep = graph1_like(2, 40, 6, 1);
        let bushy = graph2_like(60, 240, 1);
        let depth = |edges: &[Tuple]| {
            let index: crate::Relation = edges.iter().copied().collect();
            let mut closure: crate::TupleSet = edges.iter().copied().collect();
            let mut delta: Vec<Tuple> = edges.to_vec();
            let mut iters = 0usize;
            while !delta.is_empty() && iters < 1000 {
                let mut next = Vec::new();
                index.join_on_first(&delta, |x, _y, z| next.push((x, z)));
                delta.clear();
                for t in next {
                    if closure.insert(t) {
                        delta.push(t);
                    }
                }
                iters += 1;
            }
            iters
        };
        let d1 = depth(&deep);
        let d2 = depth(&bushy);
        assert!(d1 > 3 * d2, "deep graph {d1} iters vs bushy {d2} iters");
    }

    #[test]
    fn per_iteration_load_is_larger_for_graph2() {
        // Paths-per-iteration (the all-to-all load) must be much higher for
        // the bushy graph — the cause of Figure 11's diverging result.
        let deep = graph1_like(2, 40, 6, 1);
        let bushy = graph2_like(60, 240, 1);
        let paths_per_iter = |edges: &[Tuple]| {
            let c = sequential_closure(edges);
            let index: crate::Relation = edges.iter().copied().collect();
            let mut closure: crate::TupleSet = edges.iter().copied().collect();
            let mut delta: Vec<Tuple> = edges.to_vec();
            let mut iters = 0usize;
            while !delta.is_empty() && iters < 1000 {
                let mut next = Vec::new();
                index.join_on_first(&delta, |x, _y, z| next.push((x, z)));
                delta.clear();
                for t in next {
                    if closure.insert(t) {
                        delta.push(t);
                    }
                }
                iters += 1;
            }
            c.len() as f64 / iters as f64
        };
        assert!(paths_per_iter(&bushy) > 5.0 * paths_per_iter(&deep));
    }
}
