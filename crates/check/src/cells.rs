//! The one cell registry.
//!
//! A [`Cell`] names one operation on one workload in one world size:
//! `{ op, dist, p, n_max, workload_seed }`, where [`Op`] is exhaustive over
//! everything reachable from a public `bruck-core` entry point, plus the two
//! `bruck-bpra` fixpoints the paper's §5 runs over them. A cell knows
//! the four things every harness needs and nothing else: how a rank fills its
//! input and runs the operation ([`Cell::run_rank`]), what the right bytes
//! are ([`Cell::expected_on`] a view, built from [`bruck_core::pattern`] and the
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
use bruck_comm::{CommError, CommResult, Communicator, FaultPlan, ReduceOp, ReliableConfig};
use bruck_core::{
    allgatherv, allreduce, alltoall, alltoallv_discover, configurable_alltoallv, packed_displs,
    pattern, pattern_byte, pattern_u64, reduce_scatter, reference_allgatherv, reference_allreduce,
    reference_reduce_scatter, AllgathervAlgorithm, AllreduceAlgorithm, AlltoallAlgorithm,
    AlltoallvAlgorithm, EngineConfig, PaddingRule, RecoveringConfig, ReduceScatterAlgorithm,
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

/// The multi-epoch tenants: a whole fixpoint of one-exchange rounds, whose
/// tags alternate between two blocks round after round.
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
    /// `alltoallv_discover` by algorithm: from the send side only, with the
    /// receive counts, which must be the matrix's, found on the wire.
    Discover(AlltoallvAlgorithm),
    /// Vector all-gather by schedule.
    Allgatherv(AllgathervAlgorithm),
    /// Vector reduce-scatter by schedule and operator.
    ReduceScatter(ReduceScatterAlgorithm, ReduceOp),
    /// Vector allreduce by schedule and operator.
    Allreduce(AllreduceAlgorithm, ReduceOp),
    /// A `bruck-bpra` fixpoint, start to finish, over this `alltoallv`.
    /// The algorithm picks how a round's receivers learn their counts: off
    /// two-phase Bruck's `[sizes | payload]` frames, off the vendor
    /// exchange's message lengths, or off a counts exchange in front of any
    /// other.
    Fixpoint(Fixpoint, AlltoallvAlgorithm),
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
            Op::Discover(algo) => format!("discover:{}", squash(algo.name())),
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
            Op::Fixpoint(Fixpoint::Tc, algo) => format!("fixpoint/tc:{}", squash(algo.name())),
            Op::Fixpoint(Fixpoint::Kcfa, algo) => format!("fixpoint/kcfa:{}", squash(algo.name())),
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
        known.extend(AlltoallvAlgorithm::ALL.map(Op::Discover));
        known.extend(ReduceOp::ALL.into_iter().flat_map(Op::schedules));
        for app in Fixpoint::ALL {
            known.extend(AlltoallvAlgorithm::ALL.map(|algo| Op::Fixpoint(app, algo)));
        }
        known.into_iter().find(|op| op.label() == tok).ok_or_else(bad)
    }
}

// ---------------------------------------------------------------------------
// Faults: the one fault-plan table
// ---------------------------------------------------------------------------

/// What a fault plan entitles a harness to demand of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// No rank is scripted to die: every rank must commit the first attempt
    /// on the whole world ([`RecoveryOutcome::Complete`]) with the right bytes.
    ///
    /// [`RecoveryOutcome::Complete`]: bruck_core::RecoveryOutcome::Complete
    MustComplete,
    /// A rank is scripted to crash: it must fail typed, and every survivor
    /// must recover on the survivor view with exactly it evicted, holding
    /// the bytes a fault-free run on that view produces.
    MustRecover {
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

    /// Budgets of the recovering driver every plan runs its cells under:
    /// a 2 s attempt deadline (the slowest non-crash cell of the full chaos
    /// tier, kCFA under `lossy`, takes 855 ms of virtual time, its confirm
    /// included); the confirm's round timeout is derived from it.
    pub fn recovering() -> RecoveringConfig {
        RecoveringConfig { deadline: Duration::from_secs(2), ..RecoveringConfig::default() }
    }

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
            Faults::Crash => Expectation::MustRecover { dead: p - 1 },
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
    /// this plan to return on any rank. Every attempt of
    /// [`Faults::recovering`] is bounded by its deadline plus one full
    /// retransmission schedule — the oldest unacknowledged frame's, which a
    /// window-full send or a receive from a dying peer may sit out past the
    /// deadline. Between attempts sit the retry backoffs, and every cycle
    /// pays one confirm: two round timeouts — the round that waits out a
    /// member that never answers, and the anchored slack of the next.
    pub fn op_budget(self) -> Duration {
        let cfg = Faults::recovering();
        let arq = Faults::RELIABLE.retry_policy();
        let send: Duration = arq.schedule().into_iter().sum();
        let attempts = cfg.retry.attempts();
        let backoff: Duration = cfg.retry.schedule().into_iter().take(attempts as usize - 1).sum();
        let confirm = cfg.round_timeout() * 2;
        let stall = if self == Faults::Stall { Faults::STALL } else { Duration::ZERO };
        (cfg.deadline + send) * attempts + backoff + confirm * attempts + stall
    }
}

// ---------------------------------------------------------------------------
// Cell: one op on one workload
// ---------------------------------------------------------------------------

/// The all-to-all under most fixpoint cells (and under the frozen
/// benchmark's application cells): its receivers read their counts off the
/// size array at the front of each sub-step's frame.
pub const FIXPOINT_ALGORITHM: AlltoallvAlgorithm = AlltoallvAlgorithm::TwoPhaseBruck;

/// The other two ways a fixpoint round finds its counts, each with its own
/// check and sim rows: message lengths (vendor) and the counts exchange in
/// front of a padded exchange.
pub const FIXPOINT_DISCOVERY: [AlltoallvAlgorithm; 2] =
    [AlltoallvAlgorithm::Vendor, AlltoallvAlgorithm::PaddedBruck];

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

    /// The whole world: the view a cell starts on.
    pub fn world(&self) -> Vec<usize> {
        (0..self.p).collect()
    }

    /// The collective counts of the members of `view`, in view order.
    fn coll_counts_on(&self, view: &[usize]) -> Vec<usize> {
        let counts = self.coll_counts();
        view.iter().map(|&r| counts[r]).collect()
    }

    /// Rank `me`'s pattern-filled `alltoallv` arguments.
    pub fn v_args(&self, me: usize) -> VArgs {
        self.v_args_on(me, &self.world())
    }

    /// Parent rank `me`'s pattern-filled `alltoallv` arguments to and from
    /// the members of `view` (parent ranks), in view order.
    pub fn v_args_on(&self, me: usize, view: &[usize]) -> VArgs {
        let m = self.matrix();
        let sendcounts: Vec<usize> = view.iter().map(|&dst| m.get(me, dst)).collect();
        let block = |dst: usize| (0..m.get(me, dst)).map(move |idx| pattern(me, dst, idx));
        let recvcounts: Vec<usize> = view.iter().map(|&src| m.get(src, me)).collect();
        VArgs {
            sdispls: packed_displs(&sendcounts),
            sendcounts,
            sendbuf: view.iter().flat_map(|&dst| block(dst)).collect(),
            rdispls: packed_displs(&recvcounts),
            recvcounts,
        }
    }

    /// The input of every member of `view` to a reduce-family cell, `len`
    /// elements each.
    fn u64_inputs(view: &[usize], len: usize) -> Vec<Vec<u64>> {
        view.iter().map(|&r| (0..len).map(|i| pattern_u64(r, i)).collect()).collect()
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

    /// Fill this rank's input, run the operation on `comm`, return this
    /// rank's output bytes (`u64` results little-endian).
    pub fn run_rank<C: Communicator + ?Sized>(&self, comm: &C) -> CommResult<Vec<u8>> {
        self.run_on(comm, &self.world())
    }

    /// [`Cell::run_rank`] on the `view` subset of the world: `comm` is dense
    /// over `view` (its rank `i` is parent rank `view[i]`), and every input
    /// is its parent rank's, restricted to the view — the operation a
    /// recovering driver re-runs on a survivor view.
    pub fn run_on<C>(&self, comm: &C, view: &[usize]) -> CommResult<Vec<u8>>
    where
        C: Communicator + ?Sized,
    {
        let (dense, me) = (comm.rank(), view[comm.rank()]);
        let le = |v: Vec<u64>| v.iter().flat_map(|x| x.to_le_bytes()).collect();
        let counts = self.coll_counts_on(view);
        match self.op {
            Op::Alltoall(algo, block) => {
                let a = self.v_args_on(me, view);
                let mut recvbuf = vec![0u8; view.len() * block];
                alltoall(algo, comm, &a.sendbuf, &mut recvbuf, block)?;
                Ok(recvbuf)
            }
            Op::Alltoallv(cfg) => {
                let a = self.v_args_on(me, view);
                let mut recvbuf = vec![0u8; a.recvcounts.iter().sum()];
                configurable_alltoallv(
                    comm, &cfg, &a.sendbuf, &a.sendcounts, &a.sdispls, &mut recvbuf,
                    &a.recvcounts, &a.rdispls,
                )?;
                Ok(recvbuf)
            }
            Op::Discover(algo) => {
                let a = self.v_args_on(me, view);
                let cfg = EngineConfig::for_algorithm(algo);
                let (recvbuf, recvcounts) =
                    alltoallv_discover(comm, &cfg, &a.sendbuf, &a.sendcounts, &a.sdispls, false)?;
                if recvcounts != a.recvcounts {
                    return Err(CommError::BadArgument("discovered counts diverge from the matrix"));
                }
                Ok(recvbuf)
            }
            Op::Allgatherv(algo) => {
                let input: Vec<u8> = (0..counts[dense]).map(|i| pattern_byte(me, i)).collect();
                let mut recvbuf = vec![0u8; counts.iter().sum()];
                allgatherv(algo, comm, &input, &mut recvbuf, &counts, &packed_displs(&counts))?;
                Ok(recvbuf)
            }
            Op::ReduceScatter(algo, op) => {
                let input: Vec<u64> =
                    (0..counts.iter().sum()).map(|i| pattern_u64(me, i)).collect();
                let mut recvbuf = vec![0u64; counts[dense]];
                reduce_scatter(algo, comm, &input, &mut recvbuf, &counts, op)?;
                Ok(le(recvbuf))
            }
            // Seed-dependent and never empty.
            Op::Allreduce(algo, op) => {
                let len = counts.iter().sum::<usize>() + 1;
                let mut buf: Vec<u64> = (0..len).map(|i| pattern_u64(me, i)).collect();
                allreduce(algo, comm, &mut buf, op)?;
                Ok(le(buf))
            }
            Op::Fixpoint(Fixpoint::Tc, algo) => {
                let r = transitive_closure(comm, algo, &self.tc_edges())?;
                Ok(Cell::tc_output(r.local_paths.iter().copied().collect(), r.total_paths))
            }
            // The facts received, then the `N` of every iteration.
            Op::Fixpoint(Fixpoint::Kcfa, algo) => {
                let r = kcfa_like_run(comm, algo, &self.kcfa_config())?;
                let n_series = r.per_iteration.iter().map(|s| s.n_max as u64);
                Ok(le(std::iter::once(r.facts_received).chain(n_series).collect()))
            }
        }
    }

    /// The bytes dense rank `dense` of [`Cell::run_on`]'s `view` must end
    /// with: what a fault-free run on the world of `view` alone produces.
    pub fn expected_on(&self, view: &[usize], dense: usize) -> Vec<u8> {
        let me = view[dense];
        let le = |v: &[u64]| v.iter().flat_map(|x| x.to_le_bytes()).collect();
        let counts = self.coll_counts_on(view);
        match self.op {
            Op::Alltoall(..) | Op::Alltoallv(_) | Op::Discover(_) => {
                let m = self.matrix();
                let block = |src: usize| (0..m.get(src, me)).map(move |idx| pattern(src, me, idx));
                view.iter().flat_map(|&src| block(src)).collect()
            }
            Op::Allgatherv(_) => {
                let inputs: Vec<Vec<u8>> = (view.iter().zip(&counts))
                    .map(|(&r, &n)| (0..n).map(|i| pattern_byte(r, i)).collect())
                    .collect();
                reference_allgatherv(&inputs)
            }
            Op::ReduceScatter(_, op) => {
                let inputs = Cell::u64_inputs(view, counts.iter().sum());
                le(&reference_reduce_scatter(&inputs, &counts, op)[dense])
            }
            Op::Allreduce(_, op) => {
                let inputs = Cell::u64_inputs(view, counts.iter().sum::<usize>() + 1);
                le(&reference_allreduce(&inputs, op))
            }
            Op::Fixpoint(Fixpoint::Tc, _) => {
                let closure = sequential_closure(&self.tc_edges());
                let shard = closure.iter().copied().filter(|t| owner(t.1, view.len()) == dense);
                Cell::tc_output(shard.collect(), closure.len() as u64)
            }
            // Every fact produced is received once, by its owner; `N` is the
            // largest outbox anywhere that iteration.
            Op::Fixpoint(Fixpoint::Kcfa, _) => {
                let (cfg, p) = (self.kcfa_config(), view.len());
                let mut out = vec![0u64; 1 + cfg.iterations];
                for iter in 0..cfg.iterations {
                    for src in 0..p {
                        let outboxes = outboxes_at(&cfg, src, iter, p);
                        out[0] += outboxes[dense].len() as u64;
                        let largest = outboxes.iter().map(Vec::len).max().unwrap_or(0);
                        out[1 + iter] = out[1 + iter].max((largest * TUPLE_BYTES) as u64);
                    }
                }
                le(&out)
            }
        }
    }

    /// The one output check: dense rank `dense` of [`Cell::run_on`]'s
    /// `view` must hold exactly [`Cell::expected_on`] that view. Returns a
    /// description of the first wrong byte.
    pub fn verify(&self, view: &[usize], dense: usize, got: &[u8]) -> Result<(), String> {
        let want = self.expected_on(view, dense);
        if got.len() != want.len() {
            return Err(format!("output is {} bytes, want {}", got.len(), want.len()));
        }
        let Some(i) = (0..want.len()).find(|&i| got[i] != want[i]) else {
            return Ok(());
        };
        let from = match self.op {
            Op::Alltoall(..) | Op::Alltoallv(_) | Op::Discover(_) => {
                // Blocks land packed in view order.
                let (m, me) = (self.matrix(), view[dense]);
                let mut end = 0;
                let src = view.iter().find(|&&src| {
                    end += m.get(src, me);
                    i < end
                });
                src.map_or(String::new(), |src| format!(" (block from rank {src})"))
            }
            Op::Allgatherv(_) | Op::ReduceScatter(..) | Op::Allreduce(..) | Op::Fixpoint(..) => {
                String::new()
            }
        };
        Err(format!("byte {i}{from}: got {:#04x}, want {:#04x}", got[i], want[i]))
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

/// Where in its operation a recovery row's victim crashes, as a share of
/// the data ops (`FaultComm::ops`) the victim's operation takes in a healthy
/// attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseClass {
    /// At op 1: the victim dies before it has sent much of anything.
    First,
    /// A quarter of the way through.
    Quarter,
    /// Halfway: survivors hold partial, asymmetric data.
    Half,
    /// At the victim's last op: survivors may already have finished and
    /// must still re-run on the shrunken view (commit needs the full view
    /// to confirm clean).
    Last,
}

impl PhaseClass {
    /// All four classes, in operation order.
    pub const ALL: [PhaseClass; 4] =
        [PhaseClass::First, PhaseClass::Quarter, PhaseClass::Half, PhaseClass::Last];

    /// Display name for cell labels.
    pub fn name(&self) -> &'static str {
        match self {
            PhaseClass::First => "first",
            PhaseClass::Quarter => "quarter",
            PhaseClass::Half => "half",
            PhaseClass::Last => "last",
        }
    }

    /// The `FaultComm` crash threshold for an operation the victim
    /// completes in `ops` data ops: the victim fails its op number
    /// `crash_point(ops)` (counting from 0), never before op 1. From six ops
    /// up the four points are distinct, `1 < quarter < half < ops − 1`, so
    /// the quarter point is at least op 2; below six they cannot all fit
    /// under `half = ops / 2`.
    pub fn crash_point(self, ops: u64) -> u64 {
        let at = match self {
            PhaseClass::First => 1,
            PhaseClass::Quarter if ops >= 6 => (ops / 4).max(2),
            PhaseClass::Quarter => ops / 4,
            PhaseClass::Half => ops / 2,
            PhaseClass::Last => ops.saturating_sub(1),
        };
        at.max(1)
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
    /// `bruck-chaos`'s recovery matrix: a scripted crash at this point of
    /// the operation, under the recovering driver on bare `FaultComm`.
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
    /// of `BENCH_PR8.json` instead: `op/class/seed`, an `alltoallv` named by
    /// its algorithm.
    pub fn label(&self) -> String {
        let (cell, seed, fault) = (self.cell.label(), self.seed, self.faults.name());
        match self.harness {
            Harness::Recovery(phase) => {
                let op = match self.cell.op {
                    Op::Discover(algo) => algo.name().to_string(),
                    op => op.label(),
                };
                format!("{op}/{}/seed{seed}", phase.name())
            }
            Harness::Check => cell,
            Harness::Chaos { threads: true } => {
                format!("{cell} sseed={seed} fault={fault} threads")
            }
            Harness::Sim | Harness::Verify { .. } | Harness::Chaos { .. } => {
                format!("{cell} sseed={seed} fault={fault}")
            }
        }
    }
}

/// Off-point engine configs every harness sweeps alongside the eight named
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

/// World size, victim rank and `n_max` of every recovery row.
pub const RECOVERY_WORLD: (usize, usize, usize) = (5, 2, 24);

/// Execution budget of the P = 4 `alltoallv` DPOR cells, all of which
/// converge, about 15 % above the largest of them. Measured explored /
/// inequivalent: padded `alltoall` 86,785 / 68,985, SLOAV 22,434 / 18,225,
/// padded Bruck 21,028 / 18,225, two-phase Bruck 8,892 / 6,415, Reference
/// 2,470 / 2,025, Spread-out and vendor 661 / 511, Hierarchical 70 / 64.
/// Every P = 2 and P = 3 cell converges inside 2,500 executions.
const P4_BUDGET: u64 = 100_000;

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
        .chain([Op::Discover(AlltoallvAlgorithm::TwoPhaseBruck)])
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
    // The knob space by setting rather than by name, and every algorithm
    // finding its counts on the wire, at a prime and a power-of-two size.
    for p in [3usize, 8] {
        for op in named.into_iter().chain(engine_off_points().map(Op::Alltoallv)) {
            check(cell(op, Normal, p, 16, 0xE2617E + p as u64));
        }
        for algo in AlltoallvAlgorithm::ALL {
            check(cell(Op::Discover(algo), POWER_LAW, p, 16, 0xBEEF + p as u64));
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

    // The multi-epoch tenants: every tag reused two rounds later, the round
    // in between on the other tag block — at every size, once for well over
    // a hundred rounds, and once per other way of finding the counts.
    for app in Fixpoint::ALL {
        let fixpoint = |algo| Op::Fixpoint(app, algo);
        for p in SIZES {
            check(cell(fixpoint(FIXPOINT_ALGORITHM), Uniform, p, 24, 0xF1C5 + p as u64));
        }
        check(cell(fixpoint(FIXPOINT_ALGORITHM), Uniform, 8, 160, 0xF1C5));
        for algo in FIXPOINT_DISCOVERY {
            check(cell(fixpoint(algo), Uniform, 5, 24, 0xF1C5 + 5));
        }
    }
    // Shortcut-free chains end on a round that derives nothing from a
    // non-empty delta: the `N == 0` exit, counted as the last round.
    check(cell(Op::Fixpoint(Fixpoint::Tc, FIXPOINT_ALGORITHM), Uniform, 8, 3, 0xF1C5));

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
            let op = Op::Fixpoint(app, FIXPOINT_ALGORITHM);
            sim(Smoke, Faults::None, seed, cell(op, Uniform, 5, 24, 11));
        }
    }
    for &op in &others {
        sim(Smoke, Faults::None, 1, cell(op, Uniform, 5, 24, 11));
    }
    for app in Fixpoint::ALL {
        for algo in FIXPOINT_DISCOVERY {
            sim(Smoke, Faults::None, 1, cell(Op::Fixpoint(app, algo), Uniform, 5, 24, 11));
        }
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

    // -- verify: DPOR, exhaustive at P = 2 and P = 3 and, for every
    // `alltoallv`, at P = 4: two-phase Bruck in the smoke tier, the rest in
    // the full tier (padded Bruck alone takes ~15 s there). -----------------
    let mut verify = |max_executions, exhaustive, tier, faults, cell| {
        add(Harness::Verify { max_executions, exhaustive }, tier, faults, 1, cell)
    };
    for op in named.into_iter().chain(schedules.iter().copied()) {
        verify(10_000, true, Smoke, Faults::None, cell(op, Uniform, 2, 3, 11));
        verify(10_000, true, Smoke, Faults::None, cell(op, POWER_LAW, 3, 3, 11));
        if named.contains(&op) {
            let tier = if op == two_phase { Smoke } else { Full };
            verify(P4_BUDGET, true, tier, Faults::None, cell(op, Normal, 4, 4, 11));
        }
    }
    // The fault stack under the recovering driver: clock coupling defeats
    // the reduction (dpor module docs), so these are bounded systematic
    // exploration, not proofs. Every run is a new class: 400 / 400 (clean,
    // ≈ 0.8 ms a run with its confirm) and 800 / 800 (lossy, ≈ 14 ms a run).
    verify(400, false, Smoke, Faults::Clean, cell(two_phase, Uniform, 2, 2, 11));
    // A whole fixpoint, three rounds of the closure: 81 classes.
    let tc = Op::Fixpoint(Fixpoint::Tc, FIXPOINT_ALGORITHM);
    verify(10_000, true, Smoke, Faults::None, cell(tc, Uniform, 2, 3, 11));
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
        // One representative of each contract class — repaired in one
        // attempt, recovered on the survivors — for the collectives (plus the
        // clean path) and for the rest of the public surface; the smoke tier
        // takes the first seed only.
        let tier = if seed == first { Smoke } else { Full };
        for faults in [Faults::Clean, Faults::Lossy, Faults::Crash] {
            for &op in &schedules {
                chaos(false, tier, faults, seed, op, 5, 9);
            }
            // A whole fixpoint through the reliable stack: the sequential
            // oracle's bytes where the link repairs, the survivors' oracle
            // bytes where a rank dies mid-run.
            for app in Fixpoint::ALL {
                chaos(false, tier, faults, seed, Op::Fixpoint(app, FIXPOINT_ALGORITHM), 5, 24);
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
    // deadline that never fires) in the ARQ or in the recovering driver's
    // deadline, agreement and backoff.
    chaos(true, Smoke, Faults::Lossy, first, two_phase, 5, 48);
    chaos(true, Smoke, Faults::Crash, first, two_phase, 5, 48);
    chaos(true, Smoke, Faults::Crash, first, Op::Allgatherv(AllgathervAlgorithm::Bruck), 5, 9);

    // -- recovery: every operation family × crash point: the eight
    // `alltoallv`s finding their counts on the wire (what
    // `recovering_alltoallv` runs), a whole fixpoint, the eight schedules. --
    let (p, _victim, n_max) = RECOVERY_WORLD;
    let discover = AlltoallvAlgorithm::ALL.map(Op::Discover);
    for op in discover.into_iter().chain([tc]).chain(schedules) {
        for phase in PhaseClass::ALL {
            add(Harness::Recovery(phase), Smoke, Faults::Crash, first, cell(op, Uniform, p, n_max, first));
        }
    }
    rows
}

/// The exact number of Mazurkiewicz classes of every exhaustive
/// [`Harness::Verify`] row, by cell label. `bruck-verify` fails an exhaustive
/// row that converges at any other count, or that has no entry: a
/// happens-before relation that orders too much finds fewer races and so
/// fewer classes, while every result it explores still checks out.
pub const VERIFY_CLASSES: [(&str, usize); 41] = [
    ("op=alltoallv:Reference dist=uniform p=2 n=3 wseed=11", 3),
    ("op=alltoallv:Reference dist=powerlaw(0.99) p=3 n=3 wseed=11", 49),
    ("op=alltoallv:Reference dist=normal p=4 n=4 wseed=11", 2_025),
    ("op=alltoallv:Spread-out dist=uniform p=2 n=3 wseed=11", 3),
    ("op=alltoallv:Spread-out dist=powerlaw(0.99) p=3 n=3 wseed=11", 25),
    ("op=alltoallv:Spread-out dist=normal p=4 n=4 wseed=11", 511),
    ("op=alltoallv:MPI_Alltoallv dist=uniform p=2 n=3 wseed=11", 3),
    ("op=alltoallv:MPI_Alltoallv dist=powerlaw(0.99) p=3 n=3 wseed=11", 25),
    ("op=alltoallv:MPI_Alltoallv dist=normal p=4 n=4 wseed=11", 511),
    ("op=alltoallv:PaddedBruck dist=uniform p=2 n=3 wseed=11", 9),
    ("op=alltoallv:PaddedBruck dist=powerlaw(0.99) p=3 n=3 wseed=11", 2_401),
    ("op=alltoallv:PaddedBruck dist=normal p=4 n=4 wseed=11", 18_225),
    ("op=alltoallv:PaddedAlltoall dist=uniform p=2 n=3 wseed=11", 9),
    ("op=alltoallv:PaddedAlltoall dist=powerlaw(0.99) p=3 n=3 wseed=11", 1_225),
    ("op=alltoallv:PaddedAlltoall dist=normal p=4 n=4 wseed=11", 68_985),
    ("op=alltoallv:Two-phaseBruck dist=uniform p=2 n=3 wseed=11", 7),
    ("op=alltoallv:Two-phaseBruck dist=powerlaw(0.99) p=3 n=3 wseed=11", 829),
    ("op=alltoallv:Two-phaseBruck dist=normal p=4 n=4 wseed=11", 6_415),
    ("op=alltoallv:SLOAV dist=uniform p=2 n=3 wseed=11", 9),
    ("op=alltoallv:SLOAV dist=powerlaw(0.99) p=3 n=3 wseed=11", 2_401),
    ("op=alltoallv:SLOAV dist=normal p=4 n=4 wseed=11", 18_225),
    ("op=alltoallv:Hierarchical dist=uniform p=2 n=3 wseed=11", 4),
    ("op=alltoallv:Hierarchical dist=powerlaw(0.99) p=3 n=3 wseed=11", 16),
    ("op=alltoallv:Hierarchical dist=normal p=4 n=4 wseed=11", 64),
    ("op=agv/ring dist=uniform p=2 n=3 wseed=11", 3),
    ("op=agv/ring dist=powerlaw(0.99) p=3 n=3 wseed=11", 49),
    ("op=agv/bruck dist=uniform p=2 n=3 wseed=11", 3),
    ("op=agv/bruck dist=powerlaw(0.99) p=3 n=3 wseed=11", 49),
    ("op=agv/pat dist=uniform p=2 n=3 wseed=11", 3),
    ("op=agv/pat dist=powerlaw(0.99) p=3 n=3 wseed=11", 49),
    ("op=rs/pairwise:sum dist=uniform p=2 n=3 wseed=11", 3),
    ("op=rs/pairwise:sum dist=powerlaw(0.99) p=3 n=3 wseed=11", 49),
    ("op=rs/halving:sum dist=uniform p=2 n=3 wseed=11", 3),
    ("op=rs/halving:sum dist=powerlaw(0.99) p=3 n=3 wseed=11", 49),
    ("op=rs/pat:sum dist=uniform p=2 n=3 wseed=11", 3),
    ("op=rs/pat:sum dist=powerlaw(0.99) p=3 n=3 wseed=11", 49),
    ("op=ar/doubling:sum dist=uniform p=2 n=3 wseed=11", 3),
    ("op=ar/doubling:sum dist=powerlaw(0.99) p=3 n=3 wseed=11", 49),
    ("op=ar/rsag:sum dist=uniform p=2 n=3 wseed=11", 9),
    ("op=ar/rsag:sum dist=powerlaw(0.99) p=3 n=3 wseed=11", 2_401),
    ("op=fixpoint/tc:Two-phaseBruck dist=uniform p=2 n=3 wseed=11", 81),
];

/// The class count [`VERIFY_CLASSES`] expects of `row`, if it lists the cell.
pub fn expected_classes(row: &Row) -> Option<usize> {
    let label = row.cell.label();
    VERIFY_CLASSES.iter().find(|(cell, _)| *cell == label).map(|&(_, classes)| classes)
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
        // Rank 3's block for rank 2 is exactly the block rank 2 expects from
        // rank 3, where `verify` looks for it: on the whole world, and on a
        // survivor view without rank 1 (dense rank 1 is parent rank 2).
        let a = c.v_args(3);
        let block = &a.sendbuf[a.sdispls[2]..a.sdispls[2] + a.sendcounts[2]];
        let m = c.matrix();
        let survivors = [0, 2, 3];
        for (view, dense) in [(&c.world()[..], 2), (&survivors[..], 1)] {
            let mut got = c.expected_on(view, dense);
            let at: usize = view.iter().take_while(|&&src| src != 3).map(|&src| m.get(src, 2)).sum();
            assert_eq!(&got[at..at + block.len()], block, "{view:?}");
            assert_eq!(c.verify(view, dense, &got), Ok(()));
            // Flip one byte of that block and the check names it.
            got[at] ^= 0xFF;
            let err = c.verify(view, dense, &got).unwrap_err();
            assert!(err.contains(&format!("byte {at} (block from rank 3)")), "{err}");
            assert!(c.verify(view, dense, &got[1..]).is_err(), "a short buffer is wrong");
        }
    }

    #[test]
    fn collective_counts_are_seeded_and_sprinkle_zeros() {
        let c = cell(Op::Allgatherv(AllgathervAlgorithm::Ring), Distribution::Uniform, 64, 9, 11);
        let counts = c.coll_counts();
        assert!(counts.contains(&0) && counts.iter().all(|&n| n <= 9));
        assert_ne!(counts, Cell { workload_seed: 12, ..c }.coll_counts());
        assert_eq!(c.expected_on(&c.world(), 3).len(), counts.iter().sum::<usize>());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = digest_rank_buf(digest_rank_buf(1, 0, b"aa"), 1, b"bb");
        let b = digest_rank_buf(digest_rank_buf(1, 0, b"bb"), 1, b"aa");
        assert_ne!(a, b);
    }

    #[test]
    fn fault_table_round_trips_and_only_crash_must_recover() {
        for f in Faults::ALL {
            assert_eq!(Faults::parse(f.name()), Ok(f));
            assert_eq!(f.plan(1, 5).is_none(), f == Faults::None);
            let recovers = f.expectation(5) == Expectation::MustRecover { dead: 4 };
            assert_eq!(recovers, f == Faults::Crash);
        }
        assert!(Faults::parse("losy").is_err());
        // Four attempts, each a 2 s deadline plus 15 + 30 + 60 + 10 × 120 ms
        // of ack deadlines per exhausted send; three backoffs, 50, 100 and
        // 200 ms plus their seeded jitter (+13.1 %, +19.3 %, +9.2 %); one
        // confirm per cycle, two 2.5 s agreement rounds.
        let backoff = 56_550 + 119_300 + 218_400;
        let clean = 4 * (2_000_000 + 1_305_000) + backoff + 4 * (2_500_000 + 2_500_000);
        assert_eq!(Faults::Clean.op_budget(), Duration::from_micros(clean));
        assert_eq!(Faults::Stall.op_budget(), Duration::from_micros(clean + 120_000));
    }
}
