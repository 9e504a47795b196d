//! How one [`Cell`] runs: the one world launcher, the one fault stack, the
//! one verdict, the one run-twice comparator.
//!
//! [`launch`] runs a rank body on every rank of a [`World`] — deterministic
//! ([`World::Sim`], `SimComm`) or real threads under a watchdog
//! ([`World::Threads`], the only `ThreadComm::run` call in this crate).
//! [`run_cell`] layers the production fault stack over it, `FaultComm →
//! ReliableComm → MeteredComm`, drives the cell through
//! `resilient_alltoallv` (named `alltoallv` points) or
//! `collective_with_deadline` (everything else), and judges every rank
//! against the crash-only contract:
//!
//! * **Never hang** — on virtual time a stuck world is *proved* stuck
//!   ([`CommError::Deadlock`] is the HANG verdict) and every rank must return
//!   inside [`Faults::op_budget`] / the quiesce window *exactly*, read from
//!   `comm.now()`; on real threads a watchdog bounds the cell.
//! * **Never silent corruption** — every output byte a rank does not name
//!   as a hole must equal [`Cell::expected`]; errors must be the typed fault
//!   errors.
//! * **Completion where promised** — [`Expectation::MustComplete`] plans end
//!   lossless on every rank; crash plans end with the dead rank failing typed
//!   and every survivor bounded.
//! * **Never meter drift** — the `MeteredComm` above the ARQ must stay
//!   internally consistent under every plan.
//!
//! The plain transport ([`Faults::None`]) is the same runner with no stack.

use std::sync::mpsc;
use std::time::Duration;

use bruck_comm::{
    shrink_choices, CommError, CommResult, Communicator, FaultComm, MeteredComm, ReliableComm,
    ScheduleTrace, SimComm, SimConfig, SimStep, ThreadComm,
};
use bruck_core::{
    collective_with_deadline, resilient_alltoallv, CollectiveOutcome, ExchangeOutcome,
    ResilientConfig,
};

use crate::cells::{digest_rank_buf, encode_meta, mix, Cell, Expectation, Faults};

// ---------------------------------------------------------------------------
// The world launcher
// ---------------------------------------------------------------------------

/// Where a cell runs.
#[derive(Debug, Clone)]
pub enum World {
    /// The deterministic simulator on virtual time.
    Sim {
        /// Seed of the scheduler's picks.
        sched_seed: u64,
        /// Recorded choices to replay instead of drawing from the seed.
        replay: Option<Vec<u32>>,
        /// Record enabled sets and op footprints (the DPOR explorer's input).
        record_steps: bool,
    },
    /// One OS thread per rank on real clocks, abandoned after `wall_bound`.
    Threads {
        /// Watchdog bound for the whole world.
        wall_bound: Duration,
    },
}

impl World {
    /// A seeded simulator world.
    pub fn sim(sched_seed: u64) -> World {
        World::Sim { sched_seed, replay: None, record_steps: false }
    }

    /// A simulator world forced down recorded `choices` (lowest-runnable
    /// fallback once they run out).
    pub fn replay(sched_seed: u64, choices: &[u32]) -> World {
        World::Sim { sched_seed, replay: Some(choices.to_vec()), record_steps: false }
    }
}

/// What [`launch`] hands back.
pub struct Launched<T> {
    /// Per rank: the body's result, or why there is none (it panicked, or
    /// its threaded world outlived the watchdog).
    pub ranks: Vec<Result<CommResult<T>, String>>,
    /// The executed schedule ([`World::Sim`] only).
    pub trace: Option<ScheduleTrace>,
    /// Recorded scheduling points (`record_steps` only).
    pub steps: Option<Vec<SimStep>>,
}

/// Run `body` on every rank of a fresh `p`-rank `world`. `meta` is copied
/// into a simulator trace. A [`World::Threads`] run that outlives its
/// watchdog is abandoned (the threads are left to the OS — with a rank
/// deadlocked there is nothing safe to join) and every rank reports `HANG`.
pub fn launch<T, F>(world: &World, p: usize, meta: &str, body: F) -> Launched<T>
where
    T: Send + 'static,
    F: Fn(&dyn Communicator) -> CommResult<T> + Send + Sync + 'static,
{
    match world {
        World::Sim { sched_seed, replay, record_steps } => {
            let cfg = SimConfig {
                seed: *sched_seed,
                replay: replay.clone(),
                meta: meta.to_string(),
                record_steps: *record_steps,
            };
            let report = SimComm::try_run(p, &cfg, |comm| body(comm));
            let ranks =
                report.outcomes.into_iter().map(|r| r.map_err(|m| format!("panicked: {m}")));
            Launched { ranks: ranks.collect(), trace: Some(report.trace), steps: report.steps }
        }
        World::Threads { wall_bound } => {
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let ranks = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ThreadComm::run(p, |comm| body(comm))
                }));
                #[expect(clippy::let_underscore_must_use, reason = "the watchdog may have gone")]
                let _ = tx.send(ranks);
            });
            let lost = |why: String| (0..p).map(|_| Err(why.clone())).collect();
            let ranks = match rx.recv_timeout(*wall_bound) {
                Ok(Ok(ranks)) => ranks.into_iter().map(Ok).collect(),
                Ok(Err(_)) => lost("a rank panicked".to_string()),
                Err(_) => lost(format!("HANG: exceeded wall bound {wall_bound:?}")),
            };
            Launched { ranks, trace: None, steps: None }
        }
    }
}

// ---------------------------------------------------------------------------
// The fault stack
// ---------------------------------------------------------------------------

/// How one rank's operation ended.
#[derive(Debug)]
enum Ending {
    /// Ran to completion; these are the output bytes.
    Complete(Vec<u8>),
    /// Degraded: every block not from `missing` is claimed correct.
    Partial { bytes: Vec<u8>, missing: Vec<usize> },
    /// A typed fault ended the attempt; no completion claim.
    Aborted(CommError),
}

/// One rank under the stack: its ending plus what the contract's clock and
/// meter clauses need.
struct RankRun {
    ending: Ending,
    /// Clock time the operation took, and the quiesce after it.
    elapsed: (Duration, Duration),
    /// `MeteredComm` consistency errors.
    drift: Vec<String>,
}

/// One rank's body: the plain op, or the op under the production fault
/// stack. Typed faults become [`Ending::Aborted`]; anything else — bad
/// arguments, truncation, a proved deadlock — stays an error.
fn run_rank(cell: &Cell, faults: Faults, seed: u64, comm: &dyn Communicator) -> CommResult<RankRun> {
    let zero = (Duration::ZERO, Duration::ZERO);
    let Some(plan) = faults.plan(seed, cell.p) else {
        let ending = Ending::Complete(cell.run_rank(comm)?);
        return Ok(RankRun { ending, elapsed: zero, drift: Vec::new() });
    };
    let fc = FaultComm::new(comm, plan);
    let rc = ReliableComm::with_config(&fc, Faults::RELIABLE);
    // Meter the logical channel (above the ARQ, so retransmissions are
    // invisible) and prove it never drifts under injected faults.
    let mc = MeteredComm::new(&rc);
    let start = mc.now();
    let ending = match cell.op.resilient_algorithm() {
        Some(algorithm) => {
            let a = cell.v_args(mc.rank());
            let mut bytes = vec![0u8; a.recvcounts.iter().sum()];
            resilient_alltoallv(
                &ResilientConfig { algorithm, ..Faults::RESILIENT }, &mc, &a.sendbuf, &a.sendcounts,
                &a.sdispls, &mut bytes, &a.recvcounts, &a.rdispls,
            )
            .map(|outcome| match outcome {
                ExchangeOutcome::Partial { report, .. } if !report.is_lossless() => {
                    Ending::Partial { bytes, missing: report.missing_sources }
                }
                ExchangeOutcome::Complete
                | ExchangeOutcome::Recovered { .. }
                | ExchangeOutcome::Partial { .. } => Ending::Complete(bytes),
            })
        }
        None => collective_with_deadline(&mc, Faults::RESILIENT.deadline, |dc| cell.run_rank(dc)).map(
            |outcome| match outcome {
                CollectiveOutcome::Complete(bytes) => Ending::Complete(bytes),
                CollectiveOutcome::Aborted { error } => Ending::Aborted(error),
            },
        ),
    };
    let ending = match ending {
        Err(e @ (CommError::Timeout { .. } | CommError::RankFailed { .. })) => Ending::Aborted(e),
        other => other?,
    };
    let done = mc.now();
    // Service peers' retransmissions before leaving so a lost ack near the
    // end cannot strand a survivor in its retry loop.
    #[expect(clippy::let_underscore_must_use, reason = "a crashed rank's quiesce fails typed")]
    let _ = rc.quiesce(Faults::QUIESCE.0, Faults::QUIESCE.1);
    let elapsed = (done.saturating_sub(start), mc.now().saturating_sub(done));
    Ok(RankRun { ending, elapsed, drift: mc.metrics().consistency_errors() })
}

// ---------------------------------------------------------------------------
// The verdict
// ---------------------------------------------------------------------------

/// How one rank ended, reduced to what determinism may compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankVerdict {
    /// Lossless finish with byte-correct output (retained).
    Lossless(Vec<u8>),
    /// Degraded finish; every other block verified, hole list retained.
    Holes(Vec<usize>),
    /// Typed fault error (the crash-only permitted failure).
    TypedError(String),
}

/// One execution of one cell in one world.
#[derive(Debug)]
pub struct CellOutcome {
    /// The first contract violation, if any.
    pub failure: Option<String>,
    /// Per-rank verdicts.
    pub verdicts: Vec<RankVerdict>,
    /// Order-sensitive digest of the verdicts, for byte-identical comparison
    /// across runs.
    pub digest: u64,
    /// The executed schedule ([`World::Sim`] only).
    pub trace: Option<ScheduleTrace>,
    /// Recorded scheduling points (`record_steps` only).
    pub steps: Option<Vec<SimStep>>,
}

impl CellOutcome {
    /// True when the cell met its contract.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// Judge one rank against the contract.
fn judge_rank(
    cell: &Cell,
    me: usize,
    run: Result<CommResult<RankRun>, String>,
    expect: Expectation,
    budget: Option<(Duration, Duration)>,
) -> Result<RankVerdict, String> {
    let run = match run {
        Ok(Ok(run)) => run,
        Ok(Err(e @ CommError::Deadlock { .. })) => return Err(format!("HANG: {e}")),
        Ok(Err(e)) => return Err(format!("non-fault error {e}")),
        Err(why) => return Err(why),
    };
    if let Some(err) = run.drift.first() {
        return Err(format!("METERING DRIFT: {err}"));
    }
    if let Some((op, quiesce)) = budget {
        if run.elapsed.0 > op {
            return Err(format!("OVER BUDGET: operation took {:?} > {op:?}", run.elapsed.0));
        }
        if run.elapsed.1 > quiesce {
            return Err(format!("OVER BUDGET: quiesce took {:?} > {quiesce:?}", run.elapsed.1));
        }
    }
    let must_complete = expect == Expectation::MustComplete;
    match run.ending {
        Ending::Complete(bytes) => {
            cell.verify(me, &bytes, &[]).map_err(|e| format!("SILENT CORRUPTION: {e}"))?;
            Ok(RankVerdict::Lossless(bytes))
        }
        Ending::Partial { missing, .. } if must_complete => {
            Err(format!("holes {missing:?} under a must-complete plan"))
        }
        Ending::Partial { bytes, missing } => {
            cell.verify(me, &bytes, &missing).map_err(|e| format!("SILENT CORRUPTION: {e}"))?;
            Ok(RankVerdict::Holes(missing))
        }
        Ending::Aborted(e) if must_complete => {
            Err(format!("typed error {e} under a must-complete plan"))
        }
        Ending::Aborted(e) => Ok(RankVerdict::TypedError(e.to_string())),
    }
}

/// Cross-rank shape checks that single-rank judgement cannot see. They
/// bind the resilient driver only: a collective's scripted-dead rank may
/// legitimately finish inside its four ops (a folded remainder rank), and
/// nothing promises a collective's survivors more than a typed abort.
fn judge_world(cell: &Cell, verdicts: &[RankVerdict], expect: Expectation) -> Result<(), String> {
    let (Expectation::MayDegrade { dead }, Some(_)) = (expect, cell.op.resilient_algorithm())
    else {
        return Ok(());
    };
    // The crash op count is low enough that the dead rank cannot have
    // finished an exchange first: a lossless claim from it is a bug.
    if matches!(verdicts.get(dead), Some(RankVerdict::Lossless(_))) {
        return Err(format!("scripted-dead rank {dead} reported lossless"));
    }
    // The fallback promises at least one survivor a usable result.
    let usable = |(r, v): (usize, &RankVerdict)| r != dead && !matches!(v, RankVerdict::TypedError(_));
    if !verdicts.iter().enumerate().any(usable) {
        return Err("no survivor produced a usable outcome".to_string());
    }
    Ok(())
}

/// Run `cell` once under `faults` (fault seed `seed`) in `world` and judge it.
pub fn run_cell(cell: &Cell, faults: Faults, seed: u64, world: &World) -> CellOutcome {
    let body = {
        let cell = *cell;
        move |comm: &dyn Communicator| run_rank(&cell, faults, seed, comm)
    };
    let launched = launch(world, cell.p, &encode_meta(cell, faults, seed), body);
    let expect = faults.expectation(cell.p);
    // Only virtual time has no scheduling slack to forgive.
    let budget = (matches!(world, World::Sim { .. }) && faults != Faults::None).then(|| {
        (faults.op_budget(cell.p, cell.op.resilient_algorithm().is_some()), Faults::QUIESCE.1)
    });
    let mut failure = None;
    let mut verdicts = Vec::with_capacity(cell.p);
    let mut digest = 0xC0FF_EE00_5EED_0001u64;
    for (me, run) in launched.ranks.into_iter().enumerate() {
        let verdict = judge_rank(cell, me, run, expect, budget).unwrap_or_else(|e| {
            failure.get_or_insert(format!("rank {me}: {e}"));
            RankVerdict::TypedError("violation".to_string())
        });
        digest = match &verdict {
            RankVerdict::Lossless(bytes) => digest_rank_buf(digest, me, bytes),
            RankVerdict::Holes(holes) => holes.iter().fold(mix(digest ^ 1), |d, &h| mix(d ^ h as u64)),
            RankVerdict::TypedError(e) => digest_rank_buf(mix(digest ^ 2), me, e.as_bytes()),
        };
        verdicts.push(verdict);
    }
    if failure.is_none() {
        failure = judge_world(cell, &verdicts, expect).err();
    }
    CellOutcome { failure, verdicts, digest, trace: launched.trace, steps: launched.steps }
}

// ---------------------------------------------------------------------------
// Run twice, compare; shrink
// ---------------------------------------------------------------------------

/// The one determinism check: run the same thing twice and require the same
/// scheduling choices and the same digest. Returns the first run and, if the
/// runs differ, what differed.
pub fn run_twice<R>(
    run: impl Fn() -> R,
    fingerprint: impl Fn(&R) -> (Vec<u32>, u64),
) -> (R, Option<String>) {
    let first = run();
    let (choices, digest) = fingerprint(&first);
    let (choices2, digest2) = fingerprint(&run());
    let diff = if choices != choices2 {
        Some(format!(
            "NONDETERMINISM: run 1 recorded {} scheduling choices, run 2 {}",
            choices.len(),
            choices2.len()
        ))
    } else if digest != digest2 {
        Some(format!("NONDETERMINISM: digest {digest:#018x} vs {digest2:#018x}"))
    } else {
        None
    };
    (first, diff)
}

/// ddmin-minimize a failing schedule of `cell`: the shortest choice list
/// found under which `fails` still holds.
pub fn shrink_trace(
    cell: &Cell,
    faults: Faults,
    seed: u64,
    trace: &ScheduleTrace,
    fails: impl Fn(&CellOutcome) -> bool,
) -> ScheduleTrace {
    let choices = shrink_choices(&trace.choices, |cand| {
        fails(&run_cell(cell, faults, seed, &World::replay(seed, cand)))
    });
    ScheduleTrace { choices, ..trace.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::Op;
    use bruck_core::{AllgathervAlgorithm, AlltoallvAlgorithm};
    use bruck_workload::Distribution;

    fn cell(op: Op, p: usize, n_max: usize, workload_seed: u64) -> Cell {
        Cell { op, dist: Distribution::Uniform, p, n_max, workload_seed }
    }

    fn two_phase() -> Op {
        Op::named(AlltoallvAlgorithm::TwoPhaseBruck)
    }

    #[test]
    fn one_body_two_worlds() {
        // A ring pass: both worlds run it to the same per-rank results.
        let ring = |comm: &dyn Communicator| {
            let (me, p) = (comm.rank(), comm.size());
            comm.send((me + 1) % p, 7, &[me as u8])?;
            Ok(comm.recv((me + p - 1) % p, 7)?[0])
        };
        let threads = World::Threads { wall_bound: Duration::from_secs(30) };
        for world in [World::sim(3), threads] {
            let launched = launch(&world, 4, "", ring);
            let got: Vec<u8> = launched.ranks.into_iter().map(|r| r.unwrap().unwrap()).collect();
            assert_eq!(got, [3, 0, 1, 2], "{world:?}");
        }
        // A receive nobody sends for: virtual time proves it stuck.
        let stuck = |comm: &dyn Communicator| comm.recv((comm.rank() + 1) % 2, 9);
        for rank in launch(&World::sim(3), 2, "", stuck).ranks {
            assert!(matches!(rank, Ok(Err(CommError::Deadlock { .. }))), "{rank:?}");
        }
    }

    /// Crash cells sit out their deadlines in virtual time: the resilient
    /// driver's dead rank fails typed and a survivor stays usable; a
    /// collective's dead rank (four fault-level ops is less than one
    /// doubling step's send + ack + recv + ack) aborts typed.
    #[test]
    fn crash_cells_degrade_typed_within_the_exact_budget() {
        let r = run_cell(&cell(two_phase(), 4, 32, 2), Faults::Crash, 2, &World::sim(2));
        assert!(r.ok(), "{:?}", r.failure);
        assert!(matches!(r.verdicts[3], RankVerdict::TypedError(_)));
        assert!(r.verdicts[..3].iter().any(|v| !matches!(v, RankVerdict::TypedError(_))));
        let agv = cell(Op::Allgatherv(AllgathervAlgorithm::Bruck), 5, 9, 2);
        let r = run_cell(&agv, Faults::Crash, 2, &World::sim(2));
        assert!(r.ok(), "{:?}", r.failure);
        assert!(matches!(r.verdicts[4], RankVerdict::TypedError(_)));
    }

    #[test]
    fn run_twice_names_what_differed() {
        let n = std::sync::atomic::AtomicU64::new(0);
        let tick = || n.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        assert_eq!(run_twice(|| 7u64, |r| (vec![1], *r)).1, None);
        let (first, diff) = run_twice(tick, |r| (vec![1], *r));
        assert_eq!(first, 0);
        assert!(diff.unwrap().contains("digest"));
        let (_, diff) = run_twice(tick, |r| (vec![0; *r as usize], 0));
        assert!(diff.unwrap().contains("scheduling choices"));
    }
}
