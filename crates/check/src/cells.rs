//! The one cell registry.
//!
//! A [`Cell`] names one operation on one workload in one world size:
//! `{ op, dist, p, n_max, workload_seed }`, where [`Op`] is exhaustive over
//! everything reachable from a public `bruck-core` entry point, plus the two
//! `bruck-bpra` fixpoints the paper's §5 runs over them. A cell knows
//! the four things every harness needs and nothing else: how a rank fills its
//! input and runs the operation ([`Cell::run_rank`]), what the right bytes
//! are ([`Cell::expected`], built from [`bruck_core::pattern`] and the
//! `reference_*` oracles) and what to call itself ([`Cell::label`]). The
//! label is also how a cell survives a trace file ([`encode_meta`] /
//! [`decode_meta`]): `key=value` tokens by name — never by index into an
//! `ALL` array.
//!
//! Beside it sit the one [`Faults`] table (fault plan, [`Expectation`] and
//! retry/deadline budgets per named plan) and [`registry`]: the one list of
//! [`Row`]s — a cell plus the harness that interprets it, its fault plan,
//! its seed and its tier. The five harnesses are filters over that list
//! ([`rows`]); none of them enumerates algorithms itself, so a new algorithm
//! is one [`Op`] arm and one registry row (DESIGN.md §8.3).

use std::time::Duration;

use bruck_bpra::{
    encode_all, graph1_like, kcfa_like_run, outboxes_at, owner, sequential_closure,
    transitive_closure, KcfaConfig, Tuple, TUPLE_BYTES,
};
use bruck_comm::{CommError, CommResult, Communicator, ExchangePlan, FaultPlan, ReduceOp, ReliableConfig};
use bruck_core::{
    allgatherv, allreduce, alltoall, configurable_alltoallv, packed_displs, pattern, pattern_byte,
    pattern_u64, reduce_scatter, reference_allgatherv, reference_allreduce,
    reference_reduce_scatter, AllgathervAlgorithm, AllreduceAlgorithm, AlltoallAlgorithm,
    AlltoallvAlgorithm, EngineConfig, PaddingRule, ReduceScatterAlgorithm, ResilientConfig,
};
use bruck_workload::{Distribution, SizeMatrix};

/// SplitMix64 step for result digests.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fold rank `rank`'s output bytes into an order-sensitive digest.
pub fn digest_rank_buf(mut digest: u64, rank: usize, buf: &[u8]) -> u64 {
    digest = mix(digest ^ rank as u64);
    for chunk in buf.chunks(8) {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        digest = mix(digest ^ u64::from_le_bytes(b));
    }
    digest
}

fn squash(name: &str) -> String {
    name.replace(' ', "")
}

fn reduce_op_name(op: ReduceOp) -> &'static str {
    match op {
        ReduceOp::Max => "max",
        ReduceOp::Min => "min",
        ReduceOp::Sum => "sum",
    }
}

// ---------------------------------------------------------------------------
// Op: what runs
// ---------------------------------------------------------------------------

/// The multi-epoch tenants: a whole fixpoint of control + data rounds over
/// two-phase Bruck (the paper's §5 swap), reusing every tag round after round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fixpoint {
    /// `transitive_closure` of a deep graph: two chains of `n_max` edges
    /// with `n_max / 4` shortcuts, so about `n_max` rounds.
    Tc,
    /// `kcfa_like_run` for `n_max` iterations of two base facts per rank.
    Kcfa,
}

impl Fixpoint {
    /// Both tenants.
    pub const ALL: [Fixpoint; 2] = [Fixpoint::Tc, Fixpoint::Kcfa];
}

/// One operation reachable from a public entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Uniform `alltoall` by algorithm, with this block size in bytes.
    Alltoall(AlltoallAlgorithm, usize),
    /// Non-uniform `alltoallv` through the engine. Named algorithms *are*
    /// configs ([`EngineConfig::for_algorithm`]); they are labelled by name.
    Alltoallv(EngineConfig),
    /// `ExchangePlan::negotiate` from send counts only, then `alltoallv`
    /// with the negotiated arrays.
    Plan(AlltoallvAlgorithm),
    /// Vector all-gather by schedule.
    Allgatherv(AllgathervAlgorithm),
    /// Vector reduce-scatter by schedule and operator.
    ReduceScatter(ReduceScatterAlgorithm, ReduceOp),
    /// Vector allreduce by schedule and operator.
    Allreduce(AllreduceAlgorithm, ReduceOp),
    /// A `bruck-bpra` fixpoint, start to finish.
    Fixpoint(Fixpoint),
}

impl Op {
    /// The named `alltoallv` point for `algo`.
    pub fn named(algo: AlltoallvAlgorithm) -> Op {
        Op::Alltoallv(EngineConfig::for_algorithm(algo))
    }

    /// The eight collective schedules, reducing with `op` where they reduce.
    pub fn schedules(op: ReduceOp) -> Vec<Op> {
        let mut out: Vec<Op> = AllgathervAlgorithm::ALL.map(Op::Allgatherv).to_vec();
        out.extend(ReduceScatterAlgorithm::ALL.map(|a| Op::ReduceScatter(a, op)));
        out.extend(AllreduceAlgorithm::ALL.map(|a| Op::Allreduce(a, op)));
        out
    }

    /// The named algorithm the resilient driver can run this op as, if any
    /// (`resilient_alltoallv` selects by [`AlltoallvAlgorithm`]).
    pub fn resilient_algorithm(&self) -> Option<AlltoallvAlgorithm> {
        match self {
            Op::Alltoallv(cfg) => cfg.as_algorithm(),
            Op::Alltoall(..)
            | Op::Plan(_)
            | Op::Allgatherv(_)
            | Op::ReduceScatter(..)
            | Op::Allreduce(..)
            | Op::Fixpoint(_) => None,
        }
    }

    /// Whitespace-free label: the `op=` token of reports and trace `meta`
    /// lines. This is the one table of schedule names; `decode` reads it
    /// back through [`Op::schedules`].
    pub fn label(&self) -> String {
        let reduce = |name: &str, op: ReduceOp| format!("{name}:{}", reduce_op_name(op));
        match *self {
            Op::Alltoall(algo, block) => format!("alltoall:{}:{block}", algo.name()),
            Op::Alltoallv(cfg) => match cfg.as_algorithm() {
                Some(algo) if EngineConfig::for_algorithm(algo) == cfg => {
                    format!("alltoallv:{}", squash(algo.name()))
                }
                Some(_) | None => format!("engine:{}", cfg.key()),
            },
            Op::Plan(algo) => format!("plan:{}", squash(algo.name())),
            Op::Allgatherv(AllgathervAlgorithm::Ring) => "agv/ring".to_string(),
            Op::Allgatherv(AllgathervAlgorithm::Bruck) => "agv/bruck".to_string(),
            Op::Allgatherv(AllgathervAlgorithm::Pat) => "agv/pat".to_string(),
            Op::ReduceScatter(ReduceScatterAlgorithm::Pairwise, op) => reduce("rs/pairwise", op),
            Op::ReduceScatter(ReduceScatterAlgorithm::RecursiveHalving, op) => {
                reduce("rs/halving", op)
            }
            Op::ReduceScatter(ReduceScatterAlgorithm::Pat, op) => reduce("rs/pat", op),
            Op::Allreduce(AllreduceAlgorithm::RecursiveDoubling, op) => reduce("ar/doubling", op),
            Op::Allreduce(AllreduceAlgorithm::ReduceScatterAllgather, op) => reduce("ar/rsag", op),
            Op::Fixpoint(Fixpoint::Tc) => "fixpoint/tc".to_string(),
            Op::Fixpoint(Fixpoint::Kcfa) => "fixpoint/kcfa".to_string(),
        }
    }

    /// Parse an [`Op::label`] back: the two open-ended families by their
    /// parameters, everything else by looking the label up among the ops that
    /// exist. Errors name the bad token.
    pub fn decode(tok: &str) -> Result<Op, String> {
        let bad = || format!("unknown op {tok:?}");
        if let Some(key) = tok.strip_prefix("engine:") {
            let parsed = EngineConfig::parse_key(key).map(Op::Alltoallv);
            return parsed.map_err(|e| format!("bad engine key in op {tok:?}: {e}"));
        }
        if let Some((name, block)) = tok.strip_prefix("alltoall:").and_then(|r| r.rsplit_once(':')) {
            let algo = AlltoallAlgorithm::ALL.into_iter().find(|a| a.name() == name);
            return Ok(Op::Alltoall(algo.ok_or_else(bad)?, block.parse().map_err(|_| bad())?));
        }
        let mut known: Vec<Op> = AlltoallvAlgorithm::ALL.map(Op::named).to_vec();
        known.extend(AlltoallvAlgorithm::ALL.map(Op::Plan));
        known.extend(ReduceOp::ALL.into_iter().flat_map(Op::schedules));
        known.extend(Fixpoint::ALL.map(Op::Fixpoint));
        known.into_iter().find(|op| op.label() == tok).ok_or_else(bad)
    }
}

// ---------------------------------------------------------------------------
// Faults: the one fault-plan table
// ---------------------------------------------------------------------------

/// What a fault plan entitles a harness to demand of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// No rank is scripted to die: every rank must finish lossless.
    MustComplete,
    /// A rank is scripted to crash: the dead rank must fail typed; survivors
    /// must finish bounded with holes at most naming dead ranks' blocks.
    MayDegrade {
        /// The scripted-to-crash rank.
        dead: usize,
    },
}

/// The named fault plans. `None` is the plain transport (no fault stack at
/// all); every other plan runs under `FaultComm → ReliableComm →
/// MeteredComm` (see [`crate::runner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Faults {
    /// Plain transport, no wrappers.
    None,
    /// The full stack over a fault-free link.
    Clean,
    /// 8 % of frames dropped.
    Drop,
    /// 12 % of frames delivered twice.
    Duplicate,
    /// 8 % of frames with one byte flipped.
    Corrupt,
    /// Drops, duplicates, corruption and delays together.
    Lossy,
    /// Rank 1 sleeps 120 ms at its third data op.
    Stall,
    /// The last rank dies after four data ops.
    Crash,
}

impl Faults {
    /// Every plan: the plain transport, then the battery that runs under
    /// the fault stack.
    pub const ALL: [Faults; 8] = [
        Faults::None,
        Faults::Clean,
        Faults::Drop,
        Faults::Duplicate,
        Faults::Corrupt,
        Faults::Lossy,
        Faults::Stall,
        Faults::Crash,
    ];

    /// Length of the scripted stall.
    pub const STALL: Duration = Duration::from_millis(120);

    /// Retry policy under every plan: short timeouts (retransmissions are
    /// triggered by injected faults, not latency) with a budget deep enough
    /// that exhaustion on a live edge is out of reach — at the rates below
    /// the chance of one message failing all 13 attempts is < 1e-6.
    pub const RELIABLE: ReliableConfig = ReliableConfig {
        ack_timeout: Duration::from_millis(15),
        max_retries: 12,
        backoff_cap: Duration::from_millis(120),
    };

    /// Budgets of the resilient driver under every plan (set `algorithm`
    /// per cell). `deadline` bounds the primary attempt — and the whole
    /// operation for ops that run under `collective_with_deadline`.
    pub const RESILIENT: ResilientConfig = ResilientConfig {
        algorithm: AlltoallvAlgorithm::TwoPhaseBruck,
        deadline: Duration::from_secs(4),
        commit_timeout: Duration::from_millis(700),
        peer_timeout: Duration::from_millis(900),
        epoch: 0,
    };

    /// Post-operation ARQ service window: `(quiet, max_total)`. `quiet`
    /// exceeds [`Faults::RELIABLE`]'s backoff cap so a peer whose ack was
    /// lost is always re-acked before this rank leaves.
    pub const QUIESCE: (Duration, Duration) = (Duration::from_millis(150), Duration::from_secs(2));

    /// Stable name (labels and trace `meta` lines).
    pub fn name(self) -> &'static str {
        match self {
            Faults::None => "none",
            Faults::Clean => "clean",
            Faults::Drop => "drop",
            Faults::Duplicate => "duplicate",
            Faults::Corrupt => "corrupt",
            Faults::Lossy => "lossy",
            Faults::Stall => "stall",
            Faults::Crash => "crash",
        }
    }

    /// Parse a stable name back. Errors name the bad token.
    pub fn parse(name: &str) -> Result<Faults, String> {
        Faults::ALL
            .into_iter()
            .find(|f| f.name() == name)
            .ok_or_else(|| format!("unknown fault plan {name:?}"))
    }

    /// The injection plan for a `p`-rank world at `seed` (`None` for the
    /// plain transport).
    pub fn plan(self, seed: u64, p: usize) -> Option<FaultPlan> {
        let plan = FaultPlan::new(seed);
        Some(match self {
            Faults::None => return None,
            Faults::Clean => plan,
            Faults::Drop => plan.with_drop(0.08),
            Faults::Duplicate => plan.with_duplicate(0.12),
            Faults::Corrupt => plan.with_corrupt(0.08),
            Faults::Lossy => {
                plan.with_drop(0.05).with_duplicate(0.05).with_corrupt(0.04).with_delay(0.2, 48)
            }
            Faults::Stall => plan.with_stall(1 % p, 3, Faults::STALL.as_millis() as u64),
            Faults::Crash => plan.with_crash(p - 1, 4),
        })
    }

    /// The verdict contract for this plan in a `p`-rank world.
    pub fn expectation(self, p: usize) -> Expectation {
        match self {
            Faults::Crash => Expectation::MayDegrade { dead: p - 1 },
            Faults::None
            | Faults::Clean
            | Faults::Drop
            | Faults::Duplicate
            | Faults::Corrupt
            | Faults::Lossy
            | Faults::Stall => Expectation::MustComplete,
        }
    }

    /// Upper bound, on the communicator's own clock, for one operation under
    /// this plan to return on any rank of a `p`-rank world. Each phase is
    /// bounded by its deadline plus one full retransmission schedule — the
    /// oldest unacknowledged frame's, which a window-full send or a receive
    /// from a dying peer may sit out past the deadline; the resilient
    /// fallback pays one such schedule and one timed receive per peer.
    pub fn op_budget(self, p: usize, resilient: bool) -> Duration {
        let policy = Faults::RELIABLE.retry_policy();
        let send: Duration = (0..policy.attempts()).map(|k| policy.delay(k)).sum();
        let stall = if self == Faults::Stall { Faults::STALL } else { Duration::ZERO };
        let r = Faults::RESILIENT;
        let fallback = if resilient {
            r.commit_timeout + send + (r.peer_timeout + send) * (p as u32 - 1)
        } else {
            Duration::ZERO
        };
        r.deadline + send + stall + fallback
    }
}

// ---------------------------------------------------------------------------
// Cell: one op on one workload
// ---------------------------------------------------------------------------

/// The all-to-all under every fixpoint cell (and under the frozen
/// benchmark's application cells).
pub const FIXPOINT_ALGORITHM: AlltoallvAlgorithm = AlltoallvAlgorithm::TwoPhaseBruck;

/// Workload generators a cell may name; [`decode_meta`] looks labels up here.
pub const DISTRIBUTIONS: [Distribution; 5] = [
    Distribution::Uniform,
    Distribution::Windowed { r: 25 },
    Distribution::Normal,
    Distribution::POWER_LAW_STEEP,
    Distribution::Hotspot { spacing: 3, damping: 4 },
];

/// One typed cell. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// The operation under test.
    pub op: Op,
    /// Block-size distribution of the `alltoallv` workload (the collective
    /// and uniform families ignore it).
    pub dist: Distribution,
    /// World size.
    pub p: usize,
    /// Largest block (`alltoallv`), per-rank count (collectives) or length
    /// of the run in rounds (fixpoints).
    pub n_max: usize,
    /// Seed of the workload matrix / counts.
    pub workload_seed: u64,
}

/// Rank `me`'s `alltoallv` arguments for a cell: packed, pattern-filled.
pub struct VArgs {
    /// Bytes to each destination.
    pub sendcounts: Vec<usize>,
    /// Packed send displacements.
    pub sdispls: Vec<usize>,
    /// The pattern-filled send buffer.
    pub sendbuf: Vec<u8>,
    /// Bytes from each source.
    pub recvcounts: Vec<usize>,
    /// Packed receive displacements.
    pub rdispls: Vec<usize>,
}

impl Cell {
    /// The `alltoallv` size matrix (uniform `alltoall` cells: every block
    /// `block` bytes).
    pub fn matrix(&self) -> SizeMatrix {
        if let Op::Alltoall(_, block) = self.op {
            return SizeMatrix::uniform(self.p, block);
        }
        SizeMatrix::generate(self.dist, self.workload_seed, self.p, self.n_max)
    }

    /// Per-rank contribution/segment counts of the collective family:
    /// non-uniform in `1..=n_max`, a quarter of them zero, stirred by the
    /// workload seed so different seeds place the zeros differently.
    pub fn coll_counts(&self) -> Vec<usize> {
        (0..self.p as u64)
            .map(|i| {
                let x = (self.workload_seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                if x % 4 == 0 {
                    0
                } else {
                    (x % self.n_max.max(1) as u64) as usize + 1
                }
            })
            .collect()
    }

    /// Rank `me`'s pattern-filled `alltoallv` arguments.
    pub fn v_args(&self, me: usize) -> VArgs {
        let m = self.matrix();
        let sendcounts = m.sendcounts(me);
        let sdispls = packed_displs(&sendcounts);
        let mut sendbuf = vec![0u8; sendcounts.iter().sum()];
        for dst in 0..self.p {
            for idx in 0..sendcounts[dst] {
                sendbuf[sdispls[dst] + idx] = pattern(me, dst, idx);
            }
        }
        let recvcounts = m.recvcounts(me);
        let rdispls = packed_displs(&recvcounts);
        VArgs { sendcounts, sdispls, sendbuf, recvcounts, rdispls }
    }

    /// Every rank's input of a reduce-family cell, `len` elements each.
    fn u64_inputs(&self, len: usize) -> Vec<Vec<u64>> {
        (0..self.p).map(|r| (0..len).map(|i| pattern_u64(r, i)).collect()).collect()
    }

    /// Element count of an allreduce cell: seed-dependent and never empty.
    fn allreduce_len(&self) -> usize {
        self.coll_counts().iter().sum::<usize>() + 1
    }

    /// The input graph of a closure cell.
    fn tc_edges(&self) -> Vec<Tuple> {
        graph1_like(2, self.n_max, self.n_max / 4, self.workload_seed)
    }

    /// The schedule of a kCFA-like cell.
    fn kcfa_config(&self) -> KcfaConfig {
        KcfaConfig { iterations: self.n_max, base_facts: 2, seed: self.workload_seed }
    }

    /// A closure cell's output: the rank's shard, sorted, then the global
    /// path count.
    fn tc_output(mut shard: Vec<Tuple>, total: u64) -> Vec<u8> {
        shard.sort_unstable();
        let mut out = encode_all(&shard);
        out.extend(total.to_le_bytes());
        out
    }

    /// One `alltoallv` through the engine. With `negotiate`, first derive
    /// the receive side by `ExchangePlan::negotiate` from the send counts
    /// alone: the handshake must reproduce exactly the packed arrays the
    /// matrix implies (which the check harness layout-checks).
    fn run_v<C: Communicator + ?Sized>(
        &self,
        comm: &C,
        cfg: &EngineConfig,
        negotiate: bool,
    ) -> CommResult<Vec<u8>> {
        let a = self.v_args(comm.rank());
        if negotiate {
            let plan = ExchangePlan::negotiate(comm, a.sendcounts.clone())?;
            if (plan.sdispls(), plan.recvcounts(), plan.rdispls())
                != (&a.sdispls[..], &a.recvcounts[..], &a.rdispls[..])
            {
                return Err(CommError::BadArgument("negotiated plan diverges from the matrix"));
            }
        }
        let mut recvbuf = vec![0u8; a.recvcounts.iter().sum()];
        configurable_alltoallv(
            comm, cfg, &a.sendbuf, &a.sendcounts, &a.sdispls, &mut recvbuf, &a.recvcounts,
            &a.rdispls,
        )?;
        Ok(recvbuf)
    }

    /// Fill this rank's input, run the operation on `comm`, return this
    /// rank's output bytes (`u64` results little-endian).
    pub fn run_rank<C: Communicator + ?Sized>(&self, comm: &C) -> CommResult<Vec<u8>> {
        let me = comm.rank();
        let le = |v: Vec<u64>| v.iter().flat_map(|x| x.to_le_bytes()).collect();
        match self.op {
            Op::Alltoall(algo, block) => {
                let a = self.v_args(me);
                let mut recvbuf = vec![0u8; self.p * block];
                alltoall(algo, comm, &a.sendbuf, &mut recvbuf, block)?;
                Ok(recvbuf)
            }
            Op::Alltoallv(cfg) => self.run_v(comm, &cfg, false),
            Op::Plan(algo) => self.run_v(comm, &EngineConfig::for_algorithm(algo), true),
            Op::Allgatherv(algo) => {
                let counts = self.coll_counts();
                let input: Vec<u8> = (0..counts[me]).map(|i| pattern_byte(me, i)).collect();
                let mut recvbuf = vec![0u8; counts.iter().sum()];
                allgatherv(algo, comm, &input, &mut recvbuf, &counts, &packed_displs(&counts))?;
                Ok(recvbuf)
            }
            Op::ReduceScatter(algo, op) => {
                let counts = self.coll_counts();
                let input: Vec<u64> =
                    (0..counts.iter().sum()).map(|i| pattern_u64(me, i)).collect();
                let mut recvbuf = vec![0u64; counts[me]];
                reduce_scatter(algo, comm, &input, &mut recvbuf, &counts, op)?;
                Ok(le(recvbuf))
            }
            Op::Allreduce(algo, op) => {
                let mut buf: Vec<u64> =
                    (0..self.allreduce_len()).map(|i| pattern_u64(me, i)).collect();
                allreduce(algo, comm, &mut buf, op)?;
                Ok(le(buf))
            }
            Op::Fixpoint(Fixpoint::Tc) => {
                let r = transitive_closure(comm, FIXPOINT_ALGORITHM, &self.tc_edges())?;
                Ok(Cell::tc_output(r.local_paths.iter().copied().collect(), r.total_paths))
            }
            // The facts received, then the `N` of every iteration.
            Op::Fixpoint(Fixpoint::Kcfa) => {
                let r = kcfa_like_run(comm, FIXPOINT_ALGORITHM, &self.kcfa_config())?;
                let n_series = r.per_iteration.iter().map(|s| s.n_max as u64);
                Ok(le(std::iter::once(r.facts_received).chain(n_series).collect()))
            }
        }
    }

    /// Where the block from `src` lands in rank `me`'s output (all-to-all
    /// family; collectives have no per-source blocks).
    fn recv_block(&self, me: usize, src: usize) -> std::ops::Range<usize> {
        let m = self.matrix();
        let start: usize = (0..src).map(|s| m.get(s, me)).sum();
        start..start + m.get(src, me)
    }

    /// The bytes rank `me` must receive from `sources`, in that order — the
    /// all-to-all family's expected output on any (possibly shrunken) view.
    pub fn expected_from(&self, me: usize, sources: &[usize]) -> Vec<u8> {
        let m = self.matrix();
        sources
            .iter()
            .flat_map(|&src| (0..m.get(src, me)).map(move |idx| pattern(src, me, idx)))
            .collect()
    }

    /// The bytes rank `me` must end with.
    pub fn expected(&self, me: usize) -> Vec<u8> {
        let le = |v: &[u64]| v.iter().flat_map(|x| x.to_le_bytes()).collect();
        match self.op {
            Op::Alltoall(..) | Op::Alltoallv(_) | Op::Plan(_) => {
                self.expected_from(me, &(0..self.p).collect::<Vec<_>>())
            }
            Op::Allgatherv(_) => {
                let counts = self.coll_counts();
                let inputs: Vec<Vec<u8>> = (0..self.p)
                    .map(|r| (0..counts[r]).map(|i| pattern_byte(r, i)).collect())
                    .collect();
                reference_allgatherv(&inputs)
            }
            Op::ReduceScatter(_, op) => {
                let counts = self.coll_counts();
                let inputs = self.u64_inputs(counts.iter().sum());
                le(&reference_reduce_scatter(&inputs, &counts, op)[me])
            }
            Op::Allreduce(_, op) => {
                le(&reference_allreduce(&self.u64_inputs(self.allreduce_len()), op))
            }
            Op::Fixpoint(Fixpoint::Tc) => {
                let closure = sequential_closure(&self.tc_edges());
                let shard = closure.iter().copied().filter(|t| owner(t.1, self.p) == me);
                Cell::tc_output(shard.collect(), closure.len() as u64)
            }
            // Every fact produced is received once, by its owner; `N` is the
            // largest outbox anywhere that iteration.
            Op::Fixpoint(Fixpoint::Kcfa) => {
                let cfg = self.kcfa_config();
                let mut out = vec![0u64; 1 + cfg.iterations];
                for iter in 0..cfg.iterations {
                    for src in 0..self.p {
                        let outboxes = outboxes_at(&cfg, src, iter, self.p);
                        out[0] += outboxes[me].len() as u64;
                        let largest = outboxes.iter().map(Vec::len).max().unwrap_or(0);
                        out[1 + iter] = out[1 + iter].max((largest * TUPLE_BYTES) as u64);
                    }
                }
                le(&out)
            }
        }
    }

    /// The one block check: `got` must equal [`Cell::expected`] outside the
    /// blocks from `holes` (sources a degraded exchange named as lost).
    /// Returns a description of the first wrong byte.
    pub fn verify(&self, me: usize, got: &[u8], holes: &[usize]) -> Result<(), String> {
        let want = self.expected(me);
        if got.len() != want.len() {
            return Err(format!("output is {} bytes, want {}", got.len(), want.len()));
        }
        let holes: Vec<_> = holes.iter().map(|&src| self.recv_block(me, src)).collect();
        match (0..want.len()).find(|i| got[*i] != want[*i] && !holes.iter().any(|h| h.contains(i)))
        {
            None => Ok(()),
            Some(i) => {
                let from = match self.op {
                    Op::Alltoall(..) | Op::Alltoallv(_) | Op::Plan(_) => (0..self.p)
                        .find(|&src| self.recv_block(me, src).contains(&i))
                        .map_or(String::new(), |src| format!(" (block from rank {src})")),
                    Op::Allgatherv(_)
                    | Op::ReduceScatter(..)
                    | Op::Allreduce(..)
                    | Op::Fixpoint(_) => String::new(),
                };
                Err(format!("byte {i}{from}: got {:#04x}, want {:#04x}", got[i], want[i]))
            }
        }
    }

    /// The cell as whitespace-free `key=value` tokens, e.g.
    /// `op=alltoallv:Two-phaseBruck dist=normal p=8 n=16 wseed=7` — its name
    /// in reports and, verbatim, its description in a trace `meta` line.
    pub fn label(&self) -> String {
        format!(
            "op={} dist={} p={} n={} wseed={}",
            self.op.label(),
            squash(&self.dist.label()),
            self.p,
            self.n_max,
            self.workload_seed
        )
    }
}

/// The `meta` line of a trace recorded for `cell` under `faults` at
/// schedule seed `seed`: self-describing, so `--replay` needs only the file.
pub fn encode_meta(cell: &Cell, faults: Faults, seed: u64) -> String {
    format!("cell {} sseed={seed} fault={}", cell.label(), faults.name())
}

/// Parse [`encode_meta`] output back into `(cell, faults, seed)`. Errors
/// name the bad or missing token.
pub fn decode_meta(meta: &str) -> Result<(Cell, Faults, u64), String> {
    let rest = meta.strip_prefix("cell ").ok_or_else(|| format!("not a cell meta line: {meta:?}"))?;
    let (mut op, mut dist, mut faults) = (None, None, None);
    let mut nums = [None::<u64>; 4];
    for tok in rest.split_whitespace() {
        let (k, v) = tok.split_once('=').ok_or_else(|| format!("bad token {tok:?}"))?;
        match k {
            "op" => op = Some(Op::decode(v)?),
            "dist" => {
                let known = DISTRIBUTIONS.into_iter().find(|d| squash(&d.label()) == v);
                dist = Some(known.ok_or_else(|| format!("unknown distribution {v:?}"))?);
            }
            "fault" => faults = Some(Faults::parse(v)?),
            _ => {
                let at = ["p", "n", "wseed", "sseed"].iter().position(|name| *name == k);
                let at = at.ok_or_else(|| format!("unknown cell field {k:?}"))?;
                nums[at] = Some(v.parse().map_err(|_| format!("bad number in {tok:?}"))?);
            }
        }
    }
    let [p, n, wseed, sseed] = nums;
    let cell = Cell {
        op: op.ok_or("missing op")?,
        dist: dist.ok_or("missing dist")?,
        p: p.ok_or("missing p")? as usize,
        n_max: n.ok_or("missing n")? as usize,
        workload_seed: wseed.ok_or("missing wseed")?,
    };
    let faults = faults.ok_or("missing fault")?;
    // A fault plan scripts rank 1 and rank p − 1.
    if cell.p < 1 || (faults != Faults::None && cell.p < 2) {
        return Err(format!("p={} is too small for fault={}", cell.p, faults.name()));
    }
    Ok((cell, faults, sseed.ok_or("missing sseed")?))
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// Which crash phase a recovery row's scripted crash is calibrated into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseClass {
    /// Mid counts-handshake: the plan itself is the casualty.
    Negotiate,
    /// The negotiate/data boundary: the victim dies on its first data op.
    Pack,
    /// Mid data movement: survivors hold partial, asymmetric data.
    Data,
    /// The victim's last exchange op: survivors may already be lossless and
    /// must still re-execute on the shrunken view (commit needs the full
    /// view to confirm clean).
    Unpack,
}

impl PhaseClass {
    /// All four classes, in exchange order.
    pub const ALL: [PhaseClass; 4] =
        [PhaseClass::Negotiate, PhaseClass::Pack, PhaseClass::Data, PhaseClass::Unpack];

    /// Display name for cell labels.
    pub fn name(&self) -> &'static str {
        match self {
            PhaseClass::Negotiate => "negotiate",
            PhaseClass::Pack => "pack",
            PhaseClass::Data => "data",
            PhaseClass::Unpack => "unpack",
        }
    }
}

/// Which harness interprets a row, with the parameters only it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Harness {
    /// `bruck-check`: one recorded lowest-first `SimComm` run, every
    /// analysis pass, `expected`.
    Check,
    /// `bruck-sim`: seeded schedules on `SimComm`, run twice.
    Sim,
    /// `bruck-verify`: DPOR over recorded `SimComm` schedules.
    Verify {
        /// Execution budget.
        max_executions: u64,
        /// Must the exploration converge inside the budget?
        exhaustive: bool,
    },
    /// `bruck-chaos`: the fault battery, on `SimComm` unless `threads`.
    Chaos {
        /// Real-clock canary on `ThreadComm` instead of virtual time.
        threads: bool,
    },
    /// `bruck-chaos --recovery-smoke`: scripted crash in this phase class.
    Recovery(PhaseClass),
}

/// Gate tier: `Smoke` rows run always, `Full` rows only without `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// In the verify.sh gate.
    Smoke,
    /// Soak only.
    Full,
}

/// One registry row: a cell and how one harness runs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// The cell.
    pub cell: Cell,
    /// The interpreting harness.
    pub harness: Harness,
    /// Smoke or full.
    pub tier: Tier,
    /// The fault plan (`None` = plain transport).
    pub faults: Faults,
    /// Schedule seed; also the fault seed where a plan is set.
    pub seed: u64,
}

impl Row {
    /// Report label: the trace `meta` tokens. Recovery labels are the keys
    /// of `BENCH_PR8.json` instead.
    pub fn label(&self) -> String {
        let (cell, seed, fault) = (self.cell.label(), self.seed, self.faults.name());
        match (self.harness, self.cell.op.resilient_algorithm()) {
            (Harness::Recovery(phase), Some(algo)) => {
                format!("{}/{}/seed{seed}", algo.name(), phase.name())
            }
            (Harness::Check, _) => cell,
            (Harness::Chaos { threads: true }, _) => {
                format!("{cell} sseed={seed} fault={fault} threads")
            }
            (Harness::Sim | Harness::Verify { .. } | Harness::Chaos { .. } | Harness::Recovery(_), _) => {
                format!("{cell} sseed={seed} fault={fault}")
            }
        }
    }
}

/// Off-point engine configs every harness sweeps alongside the nine named
/// points — product-space members no algorithm name covers. Together with
/// the named points they hit every [`EngineConfig`] dimension on both sides
/// (`registry_covers_every_public_point` pins that).
pub fn engine_off_points() -> [EngineConfig; 4] {
    [
        // Radix-4 two-phase Bruck (separate metadata message).
        EngineConfig { radix: 4, ..EngineConfig::as_two_phase() },
        // Radix-3 block-view Bruck with the combined payload.
        EngineConfig { radix: 3, ..EngineConfig::as_sloav() },
        // Tightly throttled direct exchange.
        EngineConfig { throttle_window: Some(2), ..EngineConfig::as_spread_out() },
        // Threshold padding: pads small-cap matrices, so the Bruck topology
        // routes onto the uniform-step schedule.
        EngineConfig { padding: PaddingRule::Threshold(64), ..EngineConfig::as_two_phase() },
    ]
}

/// Seeds `bruck-chaos` sweeps unless `--seeds` overrides them.
pub const DEFAULT_SEEDS: [u64; 2] = [1, 2];

/// World size, victim rank and block cap of every recovery row.
pub const RECOVERY_WORLD: (usize, usize, usize) = (5, 2, 24);

/// Per-op exploration budget at P = 3 and whether it must converge. The
/// schedule space depends only on the communication *structure* (DPOR sees
/// op footprints, not byte counts), so these are stable per op. The
/// metadata-heavy two-phase family (> ~200k executions without converging)
/// and the composed reduce-scatter + allgather allreduce (> 60k) are too
/// large to exhaust: they run *bounded*, and their exhaustive proof is the
/// P = 2 cell. Padded Bruck converges at ~120k (measured), everything else
/// inside 45k.
fn p3_budget(op: Op) -> (u64, bool) {
    use AlltoallvAlgorithm::{PaddedBruck, RankaTwoStage, Sloav, TwoPhaseBruck};
    let bounded = [
        Op::named(TwoPhaseBruck),
        Op::named(Sloav),
        Op::named(RankaTwoStage),
        Op::Allreduce(AllreduceAlgorithm::ReduceScatterAllgather, ReduceOp::Sum),
    ];
    if bounded.contains(&op) {
        (20_000, false)
    } else if op == Op::named(PaddedBruck) {
        (200_000, true)
    } else {
        (60_000, true)
    }
}

fn cell(op: Op, dist: Distribution, p: usize, n_max: usize, workload_seed: u64) -> Cell {
    Cell { op, dist, p, n_max, workload_seed }
}

/// The one table. `seeds` are the fault seeds of the chaos battery; the
/// first is also the recovery matrix's seed (`--seeds` on `bruck-chaos`,
/// [`DEFAULT_SEEDS`] otherwise).
pub fn registry(seeds: &[u64]) -> Vec<Row> {
    use Distribution::{Normal, Uniform};
    use Tier::{Full, Smoke};
    const POWER_LAW: Distribution = Distribution::POWER_LAW_STEEP;
    let mut rows = Vec::new();
    let mut add = |harness, tier, faults, seed, cell| {
        rows.push(Row { cell, harness, tier, faults, seed });
    };
    let two_phase = Op::named(AlltoallvAlgorithm::TwoPhaseBruck);
    let spread_out = Op::named(AlltoallvAlgorithm::SpreadOut);
    let named = AlltoallvAlgorithm::ALL.map(Op::named);
    let schedules = Op::schedules(ReduceOp::Sum);
    // The public surface the named points and the schedules leave out.
    let others: Vec<Op> = engine_off_points()
        .map(Op::Alltoallv)
        .into_iter()
        .chain(AlltoallAlgorithm::ALL.map(|a| Op::Alltoall(a, 3)))
        .chain([Op::Plan(AlltoallvAlgorithm::TwoPhaseBruck)])
        .collect();

    // -- check: one recorded run. Powers of two, odd, prime, one. ----------
    let mut check = |cell| add(Harness::Check, Smoke, Faults::None, 0, cell);
    const SIZES: [usize; 5] = [1, 3, 4, 5, 8];
    // Uniform algorithms: a small odd block, and the degenerate all-empty
    // exchange (which must also be deadlock-free).
    for p in SIZES {
        for block in [0, 3] {
            for algo in AlltoallAlgorithm::ALL {
                check(cell(Op::Alltoall(algo, block), Uniform, p, block, 0));
            }
        }
    }
    // Named algorithms: every generator at every size; seeds vary with
    // (p, distribution index) so cells don't share matrices.
    for (di, dist) in DISTRIBUTIONS.into_iter().enumerate() {
        for p in SIZES {
            for op in named {
                check(cell(op, dist, p, 16, 0xC0FFEE + di as u64 * 31 + p as u64));
            }
        }
    }
    // The knob space by setting rather than by name, and negotiated plans,
    // at a prime and a power-of-two size.
    for p in [3usize, 8] {
        for op in named.into_iter().chain(engine_off_points().map(Op::Alltoallv)) {
            check(cell(op, Normal, p, 16, 0xE2617E + p as u64));
        }
        for algo in AlltoallvAlgorithm::ALL {
            check(cell(Op::Plan(algo), POWER_LAW, p, 16, 0xBEEF + p as u64));
        }
    }
    // The collective family (DESIGN.md §16): the reduce schedules sweep a
    // second operator to catch ordering bugs the Sum wrap would mask.
    for p in SIZES {
        for &op in &schedules {
            check(cell(op, Uniform, p, 9, 11));
        }
        for algo in ReduceScatterAlgorithm::ALL {
            check(cell(Op::ReduceScatter(algo, ReduceOp::Min), Uniform, p, 9, 11));
        }
        for algo in AllreduceAlgorithm::ALL {
            check(cell(Op::Allreduce(algo, ReduceOp::Max), Uniform, p, 9, 11));
        }
    }

    // The multi-epoch tenants: every tag reused round after round, control
    // and data exchanges alternating — at every size, and once for well over
    // a hundred rounds.
    for app in Fixpoint::ALL {
        for p in SIZES {
            check(cell(Op::Fixpoint(app), Uniform, p, 24, 0xF1C5 + p as u64));
        }
        check(cell(Op::Fixpoint(app), Uniform, 8, 160, 0xF1C5));
    }
    // Shortcut-free chains end on a round that derives nothing from a
    // non-empty delta: the `N == 0` exit, without which two control rounds
    // would run back to back on the same tags.
    check(cell(Op::Fixpoint(Fixpoint::Tc), Uniform, 8, 3, 0xF1C5));

    // -- sim: seeded schedules; the fault stack on the paper's algorithm. ---
    let mut sim = |tier, faults, seed, cell| add(Harness::Sim, tier, faults, seed, cell);
    for seed in 1..=2 {
        for op in named.into_iter().chain(schedules.iter().copied()) {
            sim(Smoke, Faults::None, seed, cell(op, Uniform, 5, 24, 11));
        }
        for faults in [Faults::Lossy, Faults::Stall] {
            sim(Smoke, faults, seed, cell(two_phase, Uniform, 5, 24, 11));
        }
        for app in Fixpoint::ALL {
            sim(Smoke, Faults::None, seed, cell(Op::Fixpoint(app), Uniform, 5, 24, 11));
        }
    }
    for &op in &others {
        sim(Smoke, Faults::None, 1, cell(op, Uniform, 5, 24, 11));
    }
    for seed in 1..=6 {
        for dist in [Uniform, Normal, POWER_LAW] {
            for op in named {
                sim(Full, Faults::None, seed, cell(op, dist, 7, 32, 11));
            }
        }
        for faults in [Faults::Clean, Faults::Lossy, Faults::Stall] {
            for op in [two_phase, spread_out] {
                sim(Full, faults, seed, cell(op, Uniform, 7, 32, 11));
            }
        }
        if seed <= 4 {
            for &op in &schedules {
                sim(Full, Faults::None, seed, cell(op, Uniform, 7, 32, 11));
            }
        }
    }

    // -- verify: DPOR. P = 2 exhaustive; P = 3 exhaustive where it
    // converges; P = 4 (full) bounded except Hierarchical, whose 2×2 grid
    // splits the world into near-independent halves. ------------------------
    let mut verify = |max_executions, exhaustive, tier, faults, cell| {
        add(Harness::Verify { max_executions, exhaustive }, tier, faults, 1, cell)
    };
    for op in named.into_iter().chain(schedules.iter().copied()) {
        verify(60_000, true, Smoke, Faults::None, cell(op, Uniform, 2, 3, 11));
        let (budget, exhaustive) = p3_budget(op);
        verify(budget, exhaustive, Smoke, Faults::None, cell(op, POWER_LAW, 3, 3, 11));
        if let Some(algo) = op.resilient_algorithm() {
            let converges = algo == AlltoallvAlgorithm::Hierarchical;
            let budget = if converges { 60_000 } else { 50_000 };
            verify(budget, converges, Full, Faults::None, cell(op, Normal, 4, 4, 11));
        }
    }
    // The fault stack: clock coupling defeats the reduction (dpor module
    // docs), so these are bounded systematic exploration, not proofs.
    verify(400, false, Smoke, Faults::Clean, cell(two_phase, Uniform, 2, 2, 11));
    // A whole fixpoint: rounds multiply the schedule space, so bounded.
    verify(2_000, false, Smoke, Faults::None, cell(Op::Fixpoint(Fixpoint::Tc), Uniform, 2, 3, 11));
    verify(800, false, Full, Faults::Lossy, cell(two_phase, Uniform, 3, 2, 11));

    // -- chaos: the plan battery on virtual time. The workload seed is the
    // fault seed, so every seed is a different matrix under different faults.
    let first = seeds.first().copied().unwrap_or(DEFAULT_SEEDS[0]);
    let mut chaos = |threads, tier, faults, seed, op, p, n_max| {
        add(Harness::Chaos { threads }, tier, faults, seed, cell(op, Uniform, p, n_max, seed))
    };
    for &seed in seeds {
        for &faults in &Faults::ALL[1..] {
            for op in [two_phase, spread_out] {
                chaos(false, Smoke, faults, seed, op, 5, 48);
            }
            for p in [4, 7] {
                for algo in [
                    AlltoallvAlgorithm::TwoPhaseBruck,
                    AlltoallvAlgorithm::PaddedBruck,
                    AlltoallvAlgorithm::SpreadOut,
                    AlltoallvAlgorithm::Vendor,
                ] {
                    chaos(false, Full, faults, seed, Op::named(algo), p, 96);
                }
            }
        }
        // One representative of each contract class — repaired, degraded —
        // for the collectives (plus the clean path) and for the rest of the
        // public surface; the smoke tier takes the first seed only.
        let tier = if seed == first { Smoke } else { Full };
        for faults in [Faults::Clean, Faults::Lossy, Faults::Crash] {
            for &op in &schedules {
                chaos(false, tier, faults, seed, op, 5, 9);
            }
            // A whole fixpoint through the reliable stack: the sequential
            // oracle's bytes where the link repairs, a typed end where a
            // rank dies mid-run.
            for app in Fixpoint::ALL {
                chaos(false, tier, faults, seed, Op::Fixpoint(app), 5, 24);
            }
        }
        for faults in [Faults::Lossy, Faults::Crash] {
            for &op in named.iter().filter(|&&op| op != two_phase && op != spread_out) {
                chaos(false, tier, faults, seed, op, 5, 48);
            }
            for &op in &others {
                chaos(false, tier, faults, seed, op, 5, 48);
            }
        }
    }
    // The matrix baseline: the same runner with no stack at all.
    chaos(false, Smoke, Faults::None, first, two_phase, 5, 48);
    // The real-clock canary: three cells on ThreadComm prove the virtual
    // clock is not hiding a wall-clock dependence (a lost wake-up, a
    // deadline that never fires) in the ARQ, the resilient driver's
    // fallback, or the collective deadline wrapper.
    chaos(true, Smoke, Faults::Lossy, first, two_phase, 5, 48);
    chaos(true, Smoke, Faults::Crash, first, two_phase, 5, 48);
    chaos(true, Smoke, Faults::Crash, first, Op::Allgatherv(AllgathervAlgorithm::Bruck), 5, 9);

    // -- recovery: every algorithm × crash phase class. ----------------------
    let (p, _victim, n_max) = RECOVERY_WORLD;
    for op in named {
        for phase in PhaseClass::ALL {
            add(Harness::Recovery(phase), Smoke, Faults::Crash, first, cell(op, Uniform, p, n_max, first));
        }
    }
    rows
}

/// Harness families, for [`rows`] (the parameters inside [`Harness`]
/// variants are per row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// [`Harness::Check`].
    Check,
    /// [`Harness::Sim`].
    Sim,
    /// [`Harness::Verify`].
    Verify,
    /// [`Harness::Chaos`].
    Chaos,
    /// [`Harness::Recovery`].
    Recovery,
}

impl Harness {
    /// The family this row belongs to.
    pub fn family(&self) -> Family {
        match self {
            Harness::Check => Family::Check,
            Harness::Sim => Family::Sim,
            Harness::Verify { .. } => Family::Verify,
            Harness::Chaos { .. } => Family::Chaos,
            Harness::Recovery(_) => Family::Recovery,
        }
    }
}

/// One harness's rows at one tier, from `registry(seeds)`.
pub fn rows(family: Family, tier: Tier, seeds: &[u64]) -> Vec<Row> {
    registry(seeds)
        .into_iter()
        .filter(|r| r.harness.family() == family && r.tier <= tier)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_phase(p: usize) -> Cell {
        cell(Op::named(AlltoallvAlgorithm::TwoPhaseBruck), Distribution::Uniform, p, 16, 7)
    }

    #[test]
    fn what_a_rank_sends_is_what_its_peer_expects() {
        let c = two_phase(4);
        // Rank 0's block for rank 2 is exactly the block rank 2 expects
        // from rank 0, at the place `verify` looks for it.
        let a = c.v_args(0);
        let block = &a.sendbuf[a.sdispls[2]..a.sdispls[2] + a.sendcounts[2]];
        let mut got = c.expected(2);
        assert_eq!(&got[c.recv_block(2, 0)], block);
        assert_eq!(c.verify(2, &got, &[]), Ok(()));
        // Flip one byte of that block and the check names it — unless the
        // block is a declared hole.
        let at = c.recv_block(2, 0).start;
        got[at] ^= 0xFF;
        let err = c.verify(2, &got, &[]).unwrap_err();
        assert!(err.contains(&format!("byte {at} (block from rank 0)")), "{err}");
        assert_eq!(c.verify(2, &got, &[0]), Ok(()));
        assert!(c.verify(2, &got[1..], &[]).is_err(), "a short buffer is wrong");
    }

    #[test]
    fn collective_counts_are_seeded_and_sprinkle_zeros() {
        let c = cell(Op::Allgatherv(AllgathervAlgorithm::Ring), Distribution::Uniform, 64, 9, 11);
        let counts = c.coll_counts();
        assert!(counts.contains(&0) && counts.iter().all(|&n| n <= 9));
        assert_ne!(counts, Cell { workload_seed: 12, ..c }.coll_counts());
        assert_eq!(c.expected(3).len(), counts.iter().sum::<usize>());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = digest_rank_buf(digest_rank_buf(1, 0, b"aa"), 1, b"bb");
        let b = digest_rank_buf(digest_rank_buf(1, 0, b"bb"), 1, b"aa");
        assert_ne!(a, b);
    }

    #[test]
    fn fault_table_round_trips_and_only_crash_may_degrade() {
        for f in Faults::ALL {
            assert_eq!(Faults::parse(f.name()), Ok(f));
            assert_eq!(f.plan(1, 5).is_none(), f == Faults::None);
            let degrades = f.expectation(5) == Expectation::MayDegrade { dead: 4 };
            assert_eq!(degrades, f == Faults::Crash);
        }
        assert!(Faults::parse("losy").is_err());
        // 15 + 30 + 60 + 10 × 120 ms of ack deadlines per exhausted send.
        assert_eq!(Faults::Clean.op_budget(5, false), Duration::from_millis(4000 + 1305));
        assert_eq!(
            Faults::Stall.op_budget(5, true),
            Duration::from_millis(4000 + 1305 + 120 + 700 + 1305 + 4 * (900 + 1305))
        );
    }
}
