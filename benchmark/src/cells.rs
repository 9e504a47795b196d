//! The operations the benchmark times. A [`Cell`] is one call into a public
//! entry point of the program, described the same way for every backend: the
//! buffers a rank prepares (untimed), the call itself (timed), and the
//! comparison with the set-up oracle (untimed, after the world is down).

use bruck_bpra::{kcfa_like_run, transitive_closure};
use bruck_comm::{CommResult, Communicator};
use bruck_core::{
    allgatherv, allreduce, alltoall, alltoallv, configurable_alltoallv,
    configurable_alltoallv_general, reduce_scatter, AllgathervAlgorithm, AllreduceAlgorithm,
    AlltoallAlgorithm, AlltoallvAlgorithm, EngineConfig, ReduceScatterAlgorithm,
};

use crate::inputs::{ExchangeInput, GatherInput, GraphInput, KcfaInput, ReduceInput};

/// One timed operation of an SPMD world.
pub trait Cell: Sync {
    /// What a rank holds across the `k` calls of a sample and hands back for
    /// checking: its output buffer, or an application's result.
    type State: Send;

    /// Name of the per-rank span around each call in the traced run.
    const SPAN: &'static str;

    /// Allocate rank `rank`'s output, filled so that an untouched byte fails
    /// the check.
    fn prepare(&self, rank: usize) -> Self::State;

    /// The call being measured.
    fn call<C: Communicator + ?Sized>(&self, comm: &C, state: &mut Self::State) -> CommResult<()>;

    /// Compare the world's outputs, after `calls` calls per rank, with the oracle.
    fn check(&self, states: &[Self::State], calls: usize) -> bool;
}

/// Byte no input generator emits often enough to fill a buffer with.
const POISON: u8 = 0xA5;

/// How an exchange reaches the engine.
#[derive(Debug, Clone, Copy)]
pub enum Dispatch {
    /// `alltoallv(algo, …)`, the public entry point.
    Algorithm(AlltoallvAlgorithm),
    /// `configurable_alltoallv`, which snaps named points to the legacy kernels.
    Legacy(EngineConfig),
    /// `configurable_alltoallv_general`, the one general kernel.
    General(EngineConfig),
}

/// A non-uniform all-to-all.
#[derive(Debug, Clone, Copy)]
pub struct Exchange<'a> {
    /// Buffers and oracle.
    pub input: &'a ExchangeInput,
    /// Which entry point.
    pub how: Dispatch,
}

impl Cell for Exchange<'_> {
    type State = Vec<u8>;
    const SPAN: &'static str = "core.alltoallv";

    fn prepare(&self, rank: usize) -> Vec<u8> {
        vec![POISON; self.input.ranks[rank].expected.len()]
    }

    fn call<C: Communicator + ?Sized>(&self, comm: &C, recvbuf: &mut Vec<u8>) -> CommResult<()> {
        let r = &self.input.ranks[comm.rank()];
        let (sb, sc, sd, rc, rd) = (
            &r.sendbuf,
            &r.sendcounts,
            &r.sdispls,
            &r.recvcounts,
            &r.rdispls,
        );
        match self.how {
            Dispatch::Algorithm(a) => alltoallv(a, comm, sb, sc, sd, recvbuf, rc, rd),
            Dispatch::Legacy(cfg) => {
                configurable_alltoallv(comm, &cfg, sb, sc, sd, recvbuf, rc, rd)
            }
            Dispatch::General(cfg) => {
                configurable_alltoallv_general(comm, &cfg, sb, sc, sd, recvbuf, rc, rd)
            }
        }
    }

    fn check(&self, states: &[Vec<u8>], _calls: usize) -> bool {
        states
            .iter()
            .zip(&self.input.ranks)
            .all(|(got, r)| *got == r.expected)
    }
}

/// A non-uniform all-gather.
#[derive(Debug, Clone, Copy)]
pub struct Gather<'a> {
    /// Contributions and oracle.
    pub input: &'a GatherInput,
    /// Schedule.
    pub algo: AllgathervAlgorithm,
}

impl Cell for Gather<'_> {
    type State = Vec<u8>;
    const SPAN: &'static str = "core.allgatherv";

    fn prepare(&self, _rank: usize) -> Vec<u8> {
        vec![POISON; self.input.expected.len()]
    }

    fn call<C: Communicator + ?Sized>(&self, comm: &C, recvbuf: &mut Vec<u8>) -> CommResult<()> {
        let i = self.input;
        allgatherv(
            self.algo,
            comm,
            &i.contributions[comm.rank()],
            recvbuf,
            &i.counts,
            &i.displs,
        )
    }

    fn check(&self, states: &[Vec<u8>], _calls: usize) -> bool {
        states.iter().all(|got| *got == self.input.expected)
    }
}

/// An in-place vector all-reduce. The `k` calls of a sample run back to back
/// on the same buffer, so no reset copy sits in the timed region: after the
/// first call every rank holds the sum `S`, and each further call multiplies
/// it by `P` (wrapping), which is what the check expects.
#[derive(Debug, Clone, Copy)]
pub struct Reduce<'a> {
    /// Vectors and oracle.
    pub input: &'a ReduceInput,
    /// Schedule.
    pub algo: AllreduceAlgorithm,
}

impl Cell for Reduce<'_> {
    type State = Vec<u64>;
    const SPAN: &'static str = "core.allreduce";

    fn prepare(&self, rank: usize) -> Vec<u64> {
        self.input.contributions[rank].clone()
    }

    fn call<C: Communicator + ?Sized>(&self, comm: &C, buf: &mut Vec<u64>) -> CommResult<()> {
        allreduce(self.algo, comm, buf, ReduceInput::OP)
    }

    fn check(&self, states: &[Vec<u64>], calls: usize) -> bool {
        let p = self.input.contributions.len() as u64;
        let scale = (1..calls).fold(1u64, |acc, _| acc.wrapping_mul(p));
        states.iter().all(|got| {
            got.iter()
                .zip(&self.input.expected)
                .all(|(g, e)| *g == e.wrapping_mul(scale))
        })
    }
}

/// A vector reduce-scatter over an even split of the reduce input (per-layer only).
#[derive(Debug, Clone)]
pub struct Scatter<'a> {
    /// Vectors; the oracle is the matching segment of the all-reduce oracle.
    pub input: &'a ReduceInput,
    /// Schedule.
    pub algo: ReduceScatterAlgorithm,
    /// Elements per rank.
    pub counts: Vec<usize>,
}

impl<'a> Scatter<'a> {
    /// Split `input` as evenly as its length allows.
    pub fn new(input: &'a ReduceInput, algo: ReduceScatterAlgorithm) -> Scatter<'a> {
        let (p, len) = (input.contributions.len(), input.expected.len());
        let counts = (0..p).map(|r| len / p + usize::from(r < len % p)).collect();
        Scatter {
            input,
            algo,
            counts,
        }
    }
}

impl Cell for Scatter<'_> {
    type State = Vec<u64>;
    const SPAN: &'static str = "core.reduce_scatter";

    fn prepare(&self, rank: usize) -> Vec<u64> {
        vec![u64::from(POISON); self.counts[rank]]
    }

    fn call<C: Communicator + ?Sized>(&self, comm: &C, recvbuf: &mut Vec<u64>) -> CommResult<()> {
        let send = &self.input.contributions[comm.rank()];
        reduce_scatter(
            self.algo,
            comm,
            send,
            recvbuf,
            &self.counts,
            ReduceInput::OP,
        )
    }

    fn check(&self, states: &[Vec<u64>], _calls: usize) -> bool {
        let mut at = 0;
        states.iter().all(|got| {
            let want = &self.input.expected[at..at + got.len()];
            at += got.len();
            got == want
        })
    }
}

/// A uniform all-to-all of `block`-byte blocks cut from the exchange input's
/// send buffers (per-layer only: padded Bruck's inner exchange).
#[derive(Debug, Clone)]
pub struct Uniform {
    /// Schedule.
    pub algo: AlltoallAlgorithm,
    /// Block size, bytes.
    pub block: usize,
    /// Per-rank send buffers, `P × block` bytes each.
    pub send: Vec<Vec<u8>>,
}

impl Uniform {
    /// `p` ranks sending `block`-byte blocks of deterministic bytes.
    pub fn new(algo: AlltoallAlgorithm, p: usize, block: usize) -> Uniform {
        let send = (0..p)
            .map(|src| {
                (0..p * block)
                    .map(|i| (src * 131 + i * 7 + i / block) as u8)
                    .collect()
            })
            .collect();
        Uniform { algo, block, send }
    }
}

impl Cell for Uniform {
    type State = Vec<u8>;
    const SPAN: &'static str = "core.alltoall";

    fn prepare(&self, _rank: usize) -> Vec<u8> {
        vec![POISON; self.send.len() * self.block]
    }

    fn call<C: Communicator + ?Sized>(&self, comm: &C, recvbuf: &mut Vec<u8>) -> CommResult<()> {
        alltoall(
            self.algo,
            comm,
            &self.send[comm.rank()],
            recvbuf,
            self.block,
        )
    }

    fn check(&self, states: &[Vec<u8>], _calls: usize) -> bool {
        let b = self.block;
        states.iter().enumerate().all(|(me, got)| {
            self.send
                .iter()
                .enumerate()
                .all(|(src, s)| got[src * b..][..b] == s[me * b..][..b])
        })
    }
}

/// What an application cell hands back.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AppResult {
    /// `total_paths` (closure) or this rank's `facts_received` (kCFA).
    pub result: u64,
    /// Fixpoint iterations.
    pub iterations: usize,
    /// Seconds inside `exchange_tuples`, as the application reports them.
    pub exchange_secs: f64,
}

/// Distributed transitive closure over two-phase Bruck.
#[derive(Debug, Clone, Copy)]
pub struct Closure<'a> {
    /// Edges and oracle.
    pub input: &'a GraphInput,
}

/// The all-to-all under every application cell (the paper's §5 swap).
pub const APP_ALGORITHM: AlltoallvAlgorithm = AlltoallvAlgorithm::TwoPhaseBruck;

impl Cell for Closure<'_> {
    type State = AppResult;
    const SPAN: &'static str = "bpra.transitive_closure";

    fn prepare(&self, _rank: usize) -> AppResult {
        AppResult::default()
    }

    fn call<C: Communicator + ?Sized>(&self, comm: &C, out: &mut AppResult) -> CommResult<()> {
        let r = transitive_closure(comm, APP_ALGORITHM, &self.input.edges)?;
        *out = AppResult {
            result: r.total_paths,
            iterations: r.iterations,
            exchange_secs: r.comm_time.as_secs_f64(),
        };
        Ok(())
    }

    fn check(&self, states: &[AppResult], _calls: usize) -> bool {
        states.iter().all(|s| s.result == self.input.total_paths)
    }
}

/// The kCFA-like iterated exchange over two-phase Bruck.
#[derive(Debug, Clone, Copy)]
pub struct Kcfa {
    /// Configuration and oracle.
    pub input: KcfaInput,
}

impl Cell for Kcfa {
    type State = AppResult;
    const SPAN: &'static str = "bpra.kcfa_like_run";

    fn prepare(&self, _rank: usize) -> AppResult {
        AppResult::default()
    }

    fn call<C: Communicator + ?Sized>(&self, comm: &C, out: &mut AppResult) -> CommResult<()> {
        let r = kcfa_like_run(comm, APP_ALGORITHM, &self.input.cfg)?;
        *out = AppResult {
            result: r.facts_received,
            iterations: r.per_iteration.len(),
            exchange_secs: r
                .per_iteration
                .iter()
                .map(|s| s.comm_time.as_secs_f64())
                .sum(),
        };
        Ok(())
    }

    fn check(&self, states: &[AppResult], _calls: usize) -> bool {
        states.iter().map(|s| s.result).sum::<u64>() == self.input.total_facts
    }
}
