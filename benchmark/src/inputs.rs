//! The set-up procedure: every input of a workload, generated from the seed,
//! and the oracle each output is compared with.
//!
//! Two seeds must measure the same amount of work, or the difference between
//! seeds would read as noise (measured: the closure of `graph2_like` moved
//! `tc_bushy_ms` by ±12 % between seeds, one burst more or less in a short
//! kCFA series moved `kcfa_ms` by 30 %). So the seed decides *where* things
//! land, not how much there is:
//!
//! * sizes: the multiset is fixed and the seed shuffles it — the exchange
//!   matrix is a seeded shuffle of evenly spaced quantiles of the distribution
//!   (the power-law generator already is a per-row permutation of one decay
//!   curve), `allgatherv` counts likewise;
//! * the deep graph carries one shortcut-free chain, so its fixpoint depth is
//!   `chain_len` wherever the seed puts the shortcuts;
//! * the bushy graph has one shape ([`SHAPE_SEED`]) and the seed renames its
//!   vertices, which sends every tuple to another owner;
//! * the kCFA volume series *is* the workload (the paper's Fig 12 schedule),
//!   so its seed is the constant [`SHAPE_SEED`];
//! * payload bytes follow the seed.

use bruck_bpra::{facts_at, graph1_like, graph2_like, sequential_closure, KcfaConfig, Tuple};
use bruck_comm::ReduceOp;
use bruck_core::{packed_displs, reference_allgatherv, reference_allreduce};
use bruck_workload::{splitmix64, Distribution, SizeMatrix, SplitMix64};

use crate::spans::{open, Ctx};
use crate::spec::Workload;

/// Seed of the two inputs whose shape, not only placement, a seed would change.
pub const SHAPE_SEED: u64 = 0xCFA8;

/// Independent stream `stream` of the run's seed.
fn stream(seed: u64, stream: u64) -> SplitMix64 {
    SplitMix64::new(splitmix64(
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    ))
}

fn shuffle<T>(rng: &mut SplitMix64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_usize(i + 1));
    }
}

/// `n` evenly spaced values covering `[lo, hi]`, in seeded random order.
fn shuffled_quantiles(rng: &mut SplitMix64, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let width = (hi - lo) as f64;
    let mut v: Vec<usize> = (0..n)
        .map(|i| lo + (width * (i as f64 + 0.5) / n as f64).round() as usize)
        .collect();
    shuffle(rng, &mut v);
    v
}

/// The exchange matrix of a workload.
fn exchange_matrix(dist: Distribution, rng: &mut SplitMix64, p: usize, n_max: usize) -> SizeMatrix {
    match dist {
        Distribution::Uniform => {
            let cells = shuffled_quantiles(rng, p * p, 0, n_max);
            SizeMatrix::from_rows(cells.chunks(p).map(<[usize]>::to_vec).collect())
        }
        _ => SizeMatrix::generate(dist, rng.next_u64(), p, n_max),
    }
}

/// One rank's side of an `alltoallv`, in the packed MPI layout.
#[derive(Debug, Clone)]
pub struct RankExchange {
    /// Packed send buffer.
    pub sendbuf: Vec<u8>,
    /// Bytes to each destination.
    pub sendcounts: Vec<usize>,
    /// Offset of each destination's block in `sendbuf`.
    pub sdispls: Vec<usize>,
    /// Bytes from each source.
    pub recvcounts: Vec<usize>,
    /// Offset of each source's block in the receive buffer.
    pub rdispls: Vec<usize>,
    /// Oracle: the receive buffer a correct exchange leaves.
    pub expected: Vec<u8>,
}

/// Inputs and oracle of the three exchange cells. Like every input type here,
/// `generate` leaves the oracle empty and `solve` fills it in, so that the
/// traced run can tell the two halves of set-up apart.
#[derive(Debug, Clone)]
pub struct ExchangeInput {
    /// Block sizes, `matrix[src][dst]`.
    pub matrix: SizeMatrix,
    /// Per-rank buffers.
    pub ranks: Vec<RankExchange>,
}

impl ExchangeInput {
    /// Generate a `p`-rank exchange.
    pub fn generate(dist: Distribution, seed: u64, p: usize, n_max: usize) -> ExchangeInput {
        let mut rng = stream(seed, 1);
        let matrix = exchange_matrix(dist, &mut rng, p, n_max);
        let ranks: Vec<RankExchange> = (0..p)
            .map(|me| {
                let sendcounts = matrix.sendcounts(me);
                let recvcounts = matrix.recvcounts(me);
                RankExchange {
                    sendbuf: rng.split().next_bytes(sendcounts.iter().sum()),
                    sdispls: packed_displs(&sendcounts),
                    sendcounts,
                    rdispls: packed_displs(&recvcounts),
                    expected: Vec::new(),
                    recvcounts,
                }
            })
            .collect();
        ExchangeInput { matrix, ranks }
    }

    /// Compute the oracle: what each rank must receive.
    pub fn solve(&mut self) {
        for dst in 0..self.ranks.len() {
            let mut expected = Vec::with_capacity(self.matrix.bytes_received(dst));
            for src in &self.ranks {
                let at = src.sdispls[dst];
                expected.extend_from_slice(&src.sendbuf[at..at + src.sendcounts[dst]]);
            }
            self.ranks[dst].expected = expected;
        }
    }

    /// The input with its oracle computed.
    pub fn solved(mut self) -> Self {
        self.solve();
        self
    }

    /// Bytes the whole world sends in one exchange.
    pub fn total_bytes(&self) -> usize {
        self.matrix.total_bytes()
    }
}

/// Inputs and oracle of the `allgatherv` cell.
#[derive(Debug, Clone)]
pub struct GatherInput {
    /// Contribution size per rank.
    pub counts: Vec<usize>,
    /// Packed displacements of `counts`.
    pub displs: Vec<usize>,
    /// Each rank's contribution.
    pub contributions: Vec<Vec<u8>>,
    /// Oracle: the gathered buffer.
    pub expected: Vec<u8>,
}

impl GatherInput {
    /// Generate `p` contributions with sizes covering `[lo, hi]`.
    pub fn generate(seed: u64, p: usize, (lo, hi): (usize, usize)) -> GatherInput {
        let mut rng = stream(seed, 2);
        let counts = shuffled_quantiles(&mut rng, p, lo, hi);
        let contributions: Vec<Vec<u8>> =
            counts.iter().map(|&c| rng.split().next_bytes(c)).collect();
        GatherInput {
            displs: packed_displs(&counts),
            expected: Vec::new(),
            counts,
            contributions,
        }
    }

    /// Compute the oracle with `reference_allgatherv`.
    pub fn solve(&mut self) {
        self.expected = reference_allgatherv(&self.contributions);
    }

    /// The input with its oracle computed.
    pub fn solved(mut self) -> Self {
        self.solve();
        self
    }
}

/// Inputs and oracle of the `allreduce` cell (wrapping sum).
#[derive(Debug, Clone)]
pub struct ReduceInput {
    /// Each rank's vector.
    pub contributions: Vec<Vec<u64>>,
    /// Oracle: the element-wise sum.
    pub expected: Vec<u64>,
}

impl ReduceInput {
    /// The operator every reduction in the benchmark uses.
    pub const OP: ReduceOp = ReduceOp::Sum;

    /// Generate `p` vectors of `len` elements.
    pub fn generate(seed: u64, p: usize, len: usize) -> ReduceInput {
        let mut rng = stream(seed, 3);
        let contributions: Vec<Vec<u64>> = (0..p)
            .map(|_| (0..len).map(|_| rng.next_u64()).collect())
            .collect();
        ReduceInput {
            expected: Vec::new(),
            contributions,
        }
    }

    /// Compute the oracle with `reference_allreduce`.
    pub fn solve(&mut self) {
        self.expected = reference_allreduce(&self.contributions, Self::OP);
    }

    /// The input with its oracle computed.
    pub fn solved(mut self) -> Self {
        self.solve();
        self
    }
}

/// Input and oracle of a transitive-closure cell.
#[derive(Debug, Clone)]
pub struct GraphInput {
    /// Edge list, identical on every rank.
    pub edges: Vec<Tuple>,
    /// Oracle: size of the closure (`sequential_closure`).
    pub total_paths: u64,
}

impl GraphInput {
    /// Compute the oracle with `sequential_closure`.
    pub fn solve(&mut self) {
        self.total_paths = sequential_closure(&self.edges).len() as u64;
    }

    /// Deep, narrow graph (Fig 11, Graph 1): `graph1_like` plus one plain chain.
    pub fn deep(seed: u64, (chains, chain_len, shortcuts): (usize, usize, usize)) -> GraphInput {
        let mut edges = graph1_like(chains, chain_len, shortcuts, stream(seed, 4).next_u64());
        let base = (chains * (chain_len + 1)) as u64;
        edges.extend((0..chain_len as u64).map(|i| (base + i, base + i + 1)));
        GraphInput {
            edges,
            total_paths: 0,
        }
    }

    /// Shallow, bushy graph (Fig 11, Graph 2): one shape, vertices renamed by the seed.
    pub fn bushy(seed: u64, (vertices, edges): (usize, usize)) -> GraphInput {
        let mut name: Vec<u64> = (0..vertices as u64).collect();
        shuffle(&mut stream(seed, 5), &mut name);
        let edges = graph2_like(vertices, edges, SHAPE_SEED)
            .into_iter()
            .map(|(a, b)| (name[a as usize], name[b as usize]))
            .collect();
        GraphInput {
            edges,
            total_paths: 0,
        }
    }
}

/// Input and oracle of the kCFA-like cell.
#[derive(Debug, Clone, Copy)]
pub struct KcfaInput {
    /// The run's configuration.
    pub cfg: KcfaConfig,
    /// Oracle: facts produced, hence received, by the whole world.
    pub total_facts: u64,
}

impl KcfaInput {
    /// The configuration; the same for every seed (see the module docs).
    pub fn generate((iterations, base_facts): (usize, usize)) -> KcfaInput {
        KcfaInput {
            cfg: KcfaConfig {
                iterations,
                base_facts,
                seed: SHAPE_SEED,
            },
            total_facts: 0,
        }
    }

    /// Compute the oracle for a `p`-rank run: every fact produced is received once.
    pub fn solve(&mut self, p: usize) {
        let cfg = self.cfg;
        self.total_facts = (0..p)
            .flat_map(|rank| (0..cfg.iterations).map(move |it| facts_at(&cfg, rank, it) as u64))
            .sum();
    }
}

/// Everything one workload's cells read.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The three exchange cells.
    pub exchange: ExchangeInput,
    /// The `allgatherv` cell.
    pub gather: GatherInput,
    /// The `allreduce` cell.
    pub reduce: ReduceInput,
    /// `tc_deep`.
    pub deep: GraphInput,
    /// `tc_bushy`.
    pub bushy: GraphInput,
    /// `kcfa`.
    pub kcfa: KcfaInput,
}

impl Inputs {
    /// Generate all inputs of `w` and compute their oracles.
    pub fn generate(w: &Workload, seed: u64, trace: Option<Ctx<'_>>) -> Inputs {
        let mut inputs = {
            let _span = open(trace, "setup.generate");
            Inputs {
                exchange: ExchangeInput::generate(w.dist, seed, w.p, w.n_max),
                gather: GatherInput::generate(seed, w.p, w.gv_bytes),
                reduce: ReduceInput::generate(seed, w.p, w.ar_len),
                deep: GraphInput::deep(seed, w.tc_deep),
                bushy: GraphInput::bushy(seed, w.tc_bushy),
                kcfa: KcfaInput::generate(w.kcfa),
            }
        };
        let _span = open(trace, "setup.oracle");
        inputs.exchange.solve();
        inputs.gather.solve();
        inputs.reduce.solve();
        inputs.deep.solve();
        inputs.bushy.solve();
        inputs.kcfa.solve(w.app_p);
        inputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn same_seed_same_inputs_and_seeds_differ() {
        let w = &WORKLOADS[2];
        let (a, b, c) = (
            Inputs::generate(w, 7, None),
            Inputs::generate(w, 7, None),
            Inputs::generate(w, 8, None),
        );
        assert_eq!(a.exchange.matrix, b.exchange.matrix);
        assert_eq!(a.exchange.ranks[3].sendbuf, b.exchange.ranks[3].sendbuf);
        assert_eq!(a.deep.edges, b.deep.edges);
        assert_ne!(a.exchange.ranks[3].sendbuf, c.exchange.ranks[3].sendbuf);
        assert_ne!(a.bushy.edges, c.bushy.edges);
    }

    #[test]
    fn every_seed_moves_the_same_bytes() {
        for w in &WORKLOADS[1..] {
            let total = |seed| {
                let i = Inputs::generate(w, seed, None);
                let paths = (i.deep.total_paths, i.bushy.total_paths);
                (
                    i.exchange.total_bytes(),
                    i.gather.expected.len(),
                    paths,
                    i.kcfa.total_facts,
                )
            };
            assert_eq!(total(1), total(2), "{}", w.name);
        }
    }

    #[test]
    fn expected_buffers_follow_the_matrix() {
        let mut x = ExchangeInput::generate(Distribution::Uniform, 3, 4, 100);
        x.solve();
        for (dst, r) in x.ranks.iter().enumerate() {
            assert_eq!(r.expected.len(), x.matrix.bytes_received(dst));
            let from2 = &x.ranks[2];
            let block = &from2.sendbuf[from2.sdispls[dst]..][..from2.sendcounts[dst]];
            assert_eq!(&r.expected[r.rdispls[2]..][..r.recvcounts[2]], block);
        }
    }
}
