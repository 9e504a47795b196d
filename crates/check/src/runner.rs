//! How one [`Cell`] runs: the one world launcher, the one fault stack, the
//! one verdict, the one run-twice comparator.
//!
//! [`launch`] runs a rank body on every rank of a [`World`] — deterministic
//! ([`World::Sim`], `SimComm`) or real threads under a watchdog
//! ([`World::Threads`], the only `ThreadComm::run` call in this crate).
//! [`run_cell`] layers the production fault stack over it, `FaultComm →
//! ReliableComm → MeteredComm`, drives every cell through the one fault
//! path, `recovering` ([`recover_cell`]), and judges every rank against one
//! contract ([`judge`]):
//!
//! * **Never hang** — on virtual time a stuck world is *proved* stuck
//!   ([`CommError::Deadlock`] is the HANG verdict) and every rank must return
//!   inside [`Faults::op_budget`] / the quiesce window *exactly*, read from
//!   `comm.now()`; on real threads a watchdog bounds the cell.
//! * **Never a wrong byte** — every output must equal
//!   [`Cell::expected_on`] the view it was computed on; the only errors
//!   allowed are a scripted-dead rank's typed fault errors.
//! * **Completion on every rank** — [`Expectation::MustComplete`] plans end
//!   [`RecoveryOutcome::Complete`] on the whole world; under
//!   [`Expectation::MustRecover`] the dead rank fails typed and every
//!   survivor ends [`RecoveryOutcome::Recovered`] on the survivor view with
//!   exactly the dead rank evicted.
//! * **Never meter drift** — the `MeteredComm` above the ARQ must stay
//!   internally consistent under every plan.
//!
//! The plain transport ([`Faults::None`]) is the same runner with no stack
//! and no driver.

use std::sync::mpsc;
use std::time::Duration;

use bruck_comm::{
    shrink_choices, CommError, CommResult, Communicator, FaultComm, MeteredComm, ReliableComm,
    ScheduleTrace, SimComm, SimConfig, SimStep, ThreadComm,
};
use bruck_core::{recovering, Recovered, RecoveringConfig, RecoveryOutcome};

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

/// `cell`'s operation on the whole world of `comm` under the recovering
/// driver: the one rank body of every faulted cell. Also returns `fc`'s data
/// op count at the end of the last attempt's operation (a healthy run's is
/// what recovery rows place their crash points by). `comm` is `fc` or a
/// stack over it.
pub fn recover_cell<C>(
    cell: &Cell,
    cfg: &RecoveringConfig,
    comm: &dyn Communicator,
    fc: &FaultComm<'_, C>,
) -> CommResult<(Recovered<Vec<u8>>, u64)>
where
    C: Communicator + ?Sized,
{
    let mut ops = 0;
    let rec = recovering(cfg, comm, &cell.world(), |c, view| {
        let out = cell.run_on(c, view);
        ops = fc.ops();
        out
    })?;
    Ok((rec, ops))
}

/// One rank under the stack: how its operation ended plus what the
/// contract's clock and meter clauses need.
struct RankRun {
    /// What the operation returned on this rank.
    result: CommResult<Recovered<Vec<u8>>>,
    /// Clock time the operation took, and the quiesce after it.
    elapsed: (Duration, Duration),
    /// `MeteredComm` consistency errors.
    drift: Vec<String>,
}

/// One rank's body: the plain op, or [`recover_cell`] under the production
/// fault stack.
fn run_rank(cell: &Cell, faults: Faults, seed: u64, comm: &dyn Communicator) -> CommResult<RankRun> {
    let Some(plan) = faults.plan(seed, cell.p) else {
        let result = cell.run_rank(comm).map(|value| {
            Recovered { value, view: cell.world(), outcome: RecoveryOutcome::Complete }
        });
        return Ok(RankRun { result, elapsed: (Duration::ZERO, Duration::ZERO), drift: Vec::new() });
    };
    let fc = FaultComm::new(comm, plan);
    let rc = ReliableComm::with_config(&fc, Faults::RELIABLE);
    // Meter the logical channel (above the ARQ, so retransmissions are
    // invisible) and prove it never drifts under injected faults.
    let mc = MeteredComm::new(&rc);
    let start = mc.now();
    let result = recover_cell(cell, &Faults::recovering(), &mc, &fc).map(|(rec, _)| rec);
    let done = mc.now();
    // Service peers' retransmissions before leaving so a lost ack near the
    // end cannot strand a survivor in its retry loop.
    #[expect(clippy::let_underscore_must_use, reason = "a crashed rank's quiesce fails typed")]
    let _ = rc.quiesce(Faults::QUIESCE.0, Faults::QUIESCE.1);
    let elapsed = (done.saturating_sub(start), mc.now().saturating_sub(done));
    Ok(RankRun { result, elapsed, drift: mc.metrics().consistency_errors() })
}

// ---------------------------------------------------------------------------
// The verdict
// ---------------------------------------------------------------------------

/// How one rank ended, reduced to what determinism may compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankVerdict {
    /// One attempt on the whole world, byte-correct output (retained).
    Complete(Vec<u8>),
    /// Recovered on the survivor view, byte-correct output for that view
    /// and the recovery's shape and virtual-time MTTR (retained).
    Recovered(Vec<u8>, RecoveryOutcome),
    /// The scripted-dead rank's typed fault error.
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

/// The one contract over how rank `me` of `cell`'s world ended (see the
/// [module docs](self)): a value, or the error it ended with.
pub fn judge(
    cell: &Cell,
    me: usize,
    result: Result<&Recovered<Vec<u8>>, &CommError>,
    expect: Expectation,
) -> Result<RankVerdict, String> {
    let dead = match expect {
        Expectation::MustComplete => None,
        Expectation::MustRecover { dead } => Some(dead),
    };
    let rec = match result {
        Err(e @ CommError::Deadlock { .. }) => return Err(format!("HANG: {e}")),
        Err(e @ (CommError::RankFailed { .. } | CommError::Timeout { .. })) if dead == Some(me) => {
            return Ok(RankVerdict::TypedError(e.to_string()));
        }
        Err(e @ (CommError::RankFailed { .. } | CommError::Timeout { .. })) => {
            return Err(format!("typed error {e} on a rank that must finish"));
        }
        Err(e) => return Err(format!("non-fault error {e}")),
        Ok(_) if dead == Some(me) => return Err(format!("scripted-dead rank {me} finished")),
        Ok(rec) => rec,
    };
    let want: Vec<usize> = cell.world().into_iter().filter(|&r| Some(r) != dead).collect();
    if rec.view != want {
        return Err(format!("ended on view {:?}, want {want:?}", rec.view));
    }
    let as_promised = match (&rec.outcome, dead) {
        (RecoveryOutcome::Complete, None) => true,
        (RecoveryOutcome::Recovered { evicted, .. }, Some(dead)) => evicted == &[dead],
        (RecoveryOutcome::Complete | RecoveryOutcome::Recovered { .. }, _) => false,
    };
    if !as_promised {
        return Err(format!("ended {:?} under {expect:?}", rec.outcome));
    }
    let dense = want.iter().position(|&r| r == me).unwrap_or(0);
    cell.verify(&rec.view, dense, &rec.value).map_err(|e| format!("SILENT CORRUPTION: {e}"))?;
    Ok(match &rec.outcome {
        RecoveryOutcome::Complete => RankVerdict::Complete(rec.value.clone()),
        RecoveryOutcome::Recovered { .. } => {
            RankVerdict::Recovered(rec.value.clone(), rec.outcome.clone())
        }
    })
}

/// Judge one rank's run: the launcher's and the stack's clauses, then
/// [`judge`].
fn judge_rank(
    cell: &Cell,
    me: usize,
    run: Result<CommResult<RankRun>, String>,
    expect: Expectation,
    budget: Option<(Duration, Duration)>,
) -> Result<RankVerdict, String> {
    let run = match run {
        Ok(Ok(run)) => run,
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
    judge(cell, me, run.result.as_ref(), expect)
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
    let budget = (matches!(world, World::Sim { .. }) && faults != Faults::None)
        .then(|| (faults.op_budget(), Faults::QUIESCE.1));
    let mut failure = None;
    let mut verdicts = Vec::with_capacity(cell.p);
    let mut digest = 0xC0FF_EE00_5EED_0001u64;
    for (me, run) in launched.ranks.into_iter().enumerate() {
        let verdict = judge_rank(cell, me, run, expect, budget).unwrap_or_else(|e| {
            failure.get_or_insert(format!("rank {me}: {e}"));
            RankVerdict::TypedError("violation".to_string())
        });
        digest = match &verdict {
            RankVerdict::Complete(bytes) => digest_rank_buf(digest, me, bytes),
            RankVerdict::Recovered(bytes, outcome) => {
                let d = digest_rank_buf(mix(digest ^ 1), me, bytes);
                digest_rank_buf(d, me, format!("{outcome:?}").as_bytes())
            }
            RankVerdict::TypedError(e) => digest_rank_buf(mix(digest ^ 2), me, e.as_bytes()),
        };
        verdicts.push(verdict);
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
    use bruck_comm::{agree_survivors, FaultPlan, Suspicion};
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

    /// Crash cells sit out their deadlines in virtual time and recover:
    /// the dead rank fails typed, every survivor ends `Recovered` on the
    /// survivor view — an `alltoallv` and a collective alike.
    #[test]
    fn crash_cells_recover_within_the_exact_budget() {
        let agv = Op::Allgatherv(AllgathervAlgorithm::Bruck);
        for (op, p, n_max) in [(two_phase(), 4, 32), (agv, 5, 9)] {
            let r = run_cell(&cell(op, p, n_max, 2), Faults::Crash, 2, &World::sim(2));
            assert!(r.ok(), "{}: {:?}", op.label(), r.failure);
            assert!(matches!(r.verdicts[p - 1], RankVerdict::TypedError(_)), "{:?}", r.verdicts);
            assert!(r.verdicts[..p - 1].iter().all(|v| matches!(v, RankVerdict::Recovered(..))));
        }
    }

    /// Exit on evidence: a confirm under the chaos stack stops waiting for a
    /// dead member when the ARQ gives up on it — one retry schedule after
    /// the round-0 send — not at the round timeout.
    #[test]
    fn a_confirm_ends_on_the_arq_s_verdict_not_the_round_deadline() {
        let (p, dead) = (5, 4);
        let round = Faults::recovering().round_timeout();
        let arq: Duration = Faults::RELIABLE.retry_policy().schedule().into_iter().sum();
        assert_eq!((arq, round), (Duration::from_millis(1_305), Duration::from_millis(2_500)));
        for seed in 0..4 {
            let report = SimComm::try_run(p, &SimConfig::from_seed(seed), |comm| {
                let fc = FaultComm::new(comm, FaultPlan::new(seed).with_crash(dead, 0));
                let rc = ReliableComm::with_config(&fc, Faults::RELIABLE);
                let members: Vec<usize> = (0..p).collect();
                let out = agree_survivors(&rc, &members, 0, round, &Suspicion::none(p), false)?;
                Ok::<_, CommError>((out.survivors, rc.now()))
            });
            for (rank, o) in report.outcomes.iter().enumerate() {
                let o = o.as_ref().expect("no panic");
                if rank == dead {
                    assert_eq!(o, &Err(CommError::RankFailed { rank: dead }));
                    continue;
                }
                let (survivors, at) = o.as_ref().unwrap();
                assert_eq!(survivors, &[0, 1, 2, 3], "seed {seed} rank {rank}");
                assert_eq!(*at, arq, "seed {seed} rank {rank}");
            }
        }
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
