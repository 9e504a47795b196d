//! Multi-epoch self-healing: one driver — detect → agree → shrink → retry —
//! around any operation on a communicator.
//!
//! [`resilient_alltoallv`](super::resilient_alltoallv) degrades gracefully
//! *within* one exchange, but leaves the membership question to the caller:
//! the dead rank is still part of the world, and the next operation trips
//! over it again. [`recovering`] closes that loop, ULFM-style. Every attempt
//! is the same three steps (DESIGN.md §14.1):
//!
//! 1. **Execute.** Run the operation on a [`ShrinkComm`] of the current
//!    survivor view — a dense world whose epoch isolates this attempt's
//!    traffic from every other attempt's strays — through
//!    [`collective_with_deadline`]: the whole operation, however many
//!    exchanges it is, runs under one deadline, and a peer's death ends it
//!    as a typed abort instead of a hang.
//! 2. **Confirm.** Always [`detect_failures`] (seeded heartbeats over the
//!    view, on the trait clock), then [`agree_survivors`] (flooded suspicion
//!    bitmaps plus this rank's dirty vote: "my attempt aborted").
//! 3. **Commit or shrink.** An unchanged view with no dirty vote commits.
//!    Anything else evicts the agreed dead, backs off per the configured
//!    [`RetryPolicy`] (seeded jitter, on the trait clock) and re-runs the
//!    operation on the survivor view.
//!
//! The unit of agreement is the attempt, not an exchange: every rank leaves
//! an attempt — by finishing, by a fault or at the deadline — and enters the
//! same epoch's confirm, so an operation may be a whole fixpoint and issue
//! any collective it likes. [`recovering_alltoallv`] is the driver over one
//! `alltoallv`.
//!
//! The caller observes one of three endings: a value on the original view
//! ([`RecoveryOutcome::Complete`]), a value on a *shrunken* view plus an MTTR
//! breakdown ([`RecoveryOutcome::Recovered`]), or a typed error (this rank
//! died / was evicted / retries exhausted). Because every wait is on the
//! trait clock, the entire cycle is deterministic and replayable under
//! `SimComm`, and the MTTR numbers are virtual-time exact.

use std::time::Duration;

use bruck_comm::{
    agree_survivors, detect_failures, AgreeConfig, CommError, CommResult, Communicator,
    DetectorConfig, RetryPolicy, ShrinkComm, Suspicion,
};

use super::{alltoallv_discover, packed_displs, AlltoallvAlgorithm, EngineConfig};
use crate::collectives::{collective_with_deadline, CollectiveOutcome};
use crate::probe::span;

/// Budgets for every stage of the detect → agree → shrink → retry cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveringConfig {
    /// Budget for one attempt of the operation, shared by all of its
    /// receives.
    pub deadline: Duration,
    /// Heartbeat failure-detector policy.
    pub detector: DetectorConfig,
    /// Survivor-agreement policy.
    pub agreement: AgreeConfig,
    /// Backoff between attempts; its `attempts()` bounds the attempts
    /// (first try included).
    pub retry: RetryPolicy,
    /// Base epoch: attempt `k` runs at `epoch + k`. Bump it by
    /// `retry.attempts()` across calls on one communicator so no two
    /// recovering operations ever share tags.
    pub epoch: u32,
}

impl RecoveringConfig {
    /// Resize the detector and agreement windows so they cover the skew with
    /// which ranks leave one attempt and enter its confirm: one rank fails
    /// fast at its first operation, another waits out the whole `deadline`.
    ///
    /// A detector window smaller than that skew makes the early ranks give
    /// up on the laggards — false suspicion, mutual eviction, and a view
    /// that collapses to singletons. The generous windows are nearly free
    /// where it matters: the detector's all-proven early exit and the
    /// agreement's anchored round deadlines both finish at message speed
    /// when everyone is alive, so only genuine failures pay the window (and
    /// under `SimComm` virtual time even that is free).
    pub fn with_derived_windows(mut self) -> Self {
        let window = self.deadline + self.deadline / 4;
        self.detector.window = window;
        self.detector.heartbeat = (window / 8).max(Duration::from_millis(1));
        self.agreement.round_timeout = window;
        self
    }
}

impl Default for RecoveringConfig {
    fn default() -> Self {
        RecoveringConfig {
            deadline: Duration::from_secs(4),
            detector: DetectorConfig::default(),
            agreement: AgreeConfig::default(),
            retry: RetryPolicy::exponential(
                Duration::from_millis(50),
                Duration::from_millis(400),
                3,
            )
            .with_jitter(250, 0x5EED_BACC_0FF5_0001),
            epoch: 0,
        }
        .with_derived_windows()
    }
}

/// Mean-time-to-recovery breakdown on the trait clock (virtual-time exact
/// under the simulator). Detect / agree / repair accumulate across recovery
/// cycles; `reexecute` is the duration of the final, successful attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mttr {
    /// Time inside [`detect_failures`].
    pub detect: Duration,
    /// Time inside [`agree_survivors`].
    pub agree: Duration,
    /// Time spent renumbering the view.
    pub repair: Duration,
    /// Duration of the successful attempt, its confirm included.
    pub reexecute: Duration,
}

impl Mttr {
    /// Total detect → agree → repair → re-execute time.
    pub fn total(&self) -> Duration {
        self.detect + self.agree + self.repair + self.reexecute
    }
}

/// How a recovering operation ended (on this rank).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// No membership change was needed: the value is the operation's on the
    /// view the caller passed in.
    Complete,
    /// One or more recovery cycles ran; the value is the operation's on the
    /// (possibly shrunken) final view.
    Recovered {
        /// Parent ranks evicted across all cycles, ascending.
        evicted: Vec<usize>,
        /// Recovery cycles executed (detect → agree → repair).
        cycles: u32,
        /// Attempts consumed, first try included.
        attempts: u32,
        /// Where the recovery time went.
        mttr: Mttr,
    },
}

/// A committed recovering operation: its value plus the view it ran on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered<T> {
    /// What the committed attempt's operation returned on this rank.
    pub value: T,
    /// The final survivor view: sorted parent ranks, including the caller.
    /// Feed it back as the next call's `view` for multi-epoch tenancy.
    pub view: Vec<usize>,
    /// What it took.
    pub outcome: RecoveryOutcome,
}

/// Run `op` on the `view` subset of `comm`'s world until an attempt commits.
/// See the module docs for the protocol.
///
/// `op(comm, view)` gets a dense communicator over the current survivor
/// view (its rank `i` is parent rank `view[i]`) and must be SPMD over it:
/// every member calls the same operation. It runs once per attempt, so it
/// rebuilds its inputs for the view it is given.
///
/// Errors are crash-only: bad arguments, a non-fault error from `op`, this
/// rank dead or evicted, or retries exhausted (the last fault).
pub fn recovering<C, T, F>(
    cfg: &RecoveringConfig,
    comm: &C,
    view: &[usize],
    mut op: F,
) -> CommResult<Recovered<T>>
where
    C: Communicator + ?Sized,
    F: FnMut(&dyn Communicator, &[usize]) -> CommResult<T>,
{
    let me = comm.rank();
    if view.is_empty() || view.windows(2).any(|w| w[0] >= w[1]) {
        return Err(CommError::BadArgument("view must be sorted, unique, non-empty"));
    }
    if view.iter().any(|&r| r >= comm.size()) {
        return Err(CommError::BadArgument("view rank out of range"));
    }
    if !view.contains(&me) {
        return Err(CommError::BadArgument("calling rank not in view"));
    }

    let mut view = view.to_vec();
    let mut mttr = Mttr::default();
    let mut evicted: Vec<usize> = Vec::new();
    let mut cycles = 0u32;
    let mut last_fault: Option<CommError> = None;

    for attempt in 0..cfg.retry.attempts() {
        if attempt > 0 {
            cfg.retry.sleep_before_retry(comm, attempt - 1);
        }
        let epoch = cfg.epoch.wrapping_add(attempt);
        let exec_start = comm.now();
        let cur = ShrinkComm::new(comm, view.clone(), epoch)?;

        // Any fault that does not name *us* becomes this rank's abort vote.
        let local = {
            let _probe = span("recovering.attempt");
            collective_with_deadline(&cur, cfg.deadline, |dc| op(dc, &view))?
        };
        let local = match local {
            CollectiveOutcome::Complete(value) => Ok(value),
            CollectiveOutcome::Aborted { error } => match error {
                CommError::RankFailed { rank } if rank == me => return Err(error),
                _ => Err(error),
            },
        };

        // Confirmation: EVERY attempt — success or not — ends in detect +
        // agreement, because failure evidence is asymmetric (a peer's death
        // can abort one rank's operation while another's completes). The
        // flooded dirty vote turns those local verdicts into one global
        // decision: commit only if the view is intact and nobody failed.
        // The detector starts from empty suspicions on purpose: membership
        // verdicts come only from its own probes.
        let n = view.len();
        let members: Vec<usize> = (0..n).collect();
        let t0 = comm.now();
        let susp = {
            let _probe = span("recovering.detect");
            detect_failures(&cur, &members, epoch, &cfg.detector, &Suspicion::none(n))?
        };
        let t1 = comm.now();
        let agreed = {
            let _probe = span("recovering.agree");
            agree_survivors(&cur, &members, epoch, &cfg.agreement, &susp, local.is_err())?
        };
        let t2 = comm.now();
        if agreed.evicted_me {
            return Err(CommError::RankFailed { rank: me });
        }

        // `agreed.survivors` are dense positions into the current view.
        let keep = agreed.survivors;
        if keep.len() == n && !agreed.dirty {
            // Unanimous commit: a clean, full-view decision implies every
            // survivor — us included — completed the attempt, because our
            // dirty vote was part of the decided flood.
            let value = local?;
            let outcome = if cycles == 0 {
                RecoveryOutcome::Complete
            } else {
                mttr.reexecute = comm.now().saturating_sub(exec_start);
                RecoveryOutcome::Recovered {
                    evicted: evicted.clone(),
                    cycles,
                    attempts: attempt + 1,
                    mttr,
                }
            };
            return Ok(Recovered { value, view, outcome });
        }

        // Abort: at least one survivor failed, or the membership shrank.
        cycles = cycles.wrapping_add(1);
        last_fault = Some(match local {
            Err(e) => e,
            Ok(_) => CommError::Timeout {
                src: me,
                tag: 0,
                waited: comm.now().saturating_sub(exec_start),
            },
        });
        if keep.len() < n {
            let _probe = span("recovering.repair");
            evicted.extend((0..n).filter(|i| !keep.contains(i)).map(|i| view[i]));
            evicted.sort_unstable();
            view = keep.iter().map(|&i| view[i]).collect();
        }
        mttr.detect += t1.saturating_sub(t0);
        mttr.agree += t2.saturating_sub(t1);
        mttr.repair += comm.now().saturating_sub(t2);
    }

    // `retry.attempts()` is at least 1, so the loop ran and set a fault.
    Err(last_fault.unwrap_or(CommError::BadArgument("retry policy allows no attempts")))
}

/// Self-healing non-uniform all-to-all over the `view` subset of `comm`'s
/// world: [`recovering`] over one [`alltoallv_discover`] running `algo`.
/// `sendcounts[i]` bytes go to parent rank `view[i]`; `sendbuf` is packed by
/// `sendcounts`. Each attempt sends the blocks of the members still in the
/// view, and receivers learn their counts on the exchange's own wire.
///
/// The value is the received bytes, packed in final-view order, and the
/// count from each member of the final view. A `Recovered` value is
/// byte-identical to a fault-free exchange run directly on the final view.
pub fn recovering_alltoallv<C: Communicator + ?Sized>(
    cfg: &RecoveringConfig,
    comm: &C,
    algo: AlltoallvAlgorithm,
    view: &[usize],
    sendcounts: &[usize],
    sendbuf: &[u8],
) -> CommResult<Recovered<(Vec<u8>, Vec<usize>)>> {
    if sendcounts.len() != view.len() {
        return Err(CommError::BadArgument("sendcounts.len() != view.len()"));
    }
    if sendbuf.len() != sendcounts.iter().sum::<usize>() {
        return Err(CommError::BadArgument("sendbuf must be packed by sendcounts"));
    }
    let displs = packed_displs(sendcounts);
    let engine = EngineConfig::for_algorithm(algo);
    recovering(cfg, comm, view, |c, now| {
        // `now` is a subsequence of `view`: project the send side onto it.
        let (mut counts, mut buf) = (Vec::with_capacity(now.len()), Vec::new());
        for (i, dst) in view.iter().enumerate() {
            if now.binary_search(dst).is_ok() {
                counts.push(sendcounts[i]);
                buf.extend_from_slice(&sendbuf[displs[i]..displs[i] + sendcounts[i]]);
            }
        }
        alltoallv_discover(c, &engine, &buf, &counts, &packed_displs(&counts), false)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonuniform::testutil::pattern;
    use bruck_comm::{
        FaultComm, FaultPlan, MeteredComm, Metrics, SimComm, SimConfig, Tag, RESERVED_TAG_BASE,
    };

    fn quick() -> RecoveringConfig {
        RecoveringConfig {
            deadline: Duration::from_millis(600),
            retry: RetryPolicy::exponential(
                Duration::from_millis(10),
                Duration::from_millis(40),
                3,
            ),
            ..RecoveringConfig::default()
        }
        .with_derived_windows()
    }

    /// Packed (sendbuf, sendcounts) from `src` to each member of `view`,
    /// stamped with the parent-rank pattern.
    fn build_view_send(src: usize, view: &[usize], n: usize) -> (Vec<u8>, Vec<usize>) {
        let counts = vec![n; view.len()];
        let mut buf = Vec::with_capacity(n * view.len());
        for &dst in view {
            for idx in 0..n {
                buf.push(pattern(src, dst, idx));
            }
        }
        (buf, counts)
    }

    /// Messages a rank sent on `width` reserved tags from `base`, whatever
    /// the `ShrinkComm` context folded into them.
    fn sent_on(m: &Metrics, base: Tag, width: Tag) -> u64 {
        let ctx_bits: Tag = 0x3F << 24;
        let on = |tag: &&Tag| (base..base + width).contains(&(**tag & !ctx_bits));
        m.per_tag_sent.iter().filter(|(tag, _)| on(tag)).map(|(_, c)| c.msgs).sum()
    }

    #[test]
    fn a_healthy_exchange_is_one_discover_and_one_confirm() {
        // A plan handshake sent every rank P − 1 = 4 count messages on its
        // block (`RESERVED_TAG_BASE + 0x1000`), and the commit barrier
        // ⌈log₂ 5⌉ = 3 on the barrier tags; the attempt is now one
        // `alltoallv_discover`, so both are 0 and the data plane is the
        // plain exchange's, tag for tag.
        let (p, n, algo) = (5, 8, AlltoallvAlgorithm::TwoPhaseBruck);
        let report = SimComm::try_run(p, &SimConfig::from_seed(3), move |comm| {
            let mc = MeteredComm::new(comm);
            let view: Vec<usize> = (0..p).collect();
            let (buf, counts) = build_view_send(comm.rank(), &view, n);
            let cfg = quick();
            let rec = recovering_alltoallv(&cfg, &mc, algo, &view, &counts, &buf)?;
            let recovering = mc.metrics();
            mc.reset();
            // The plain exchange, in the first attempt's tag context.
            let sc = ShrinkComm::new(&mc, view, cfg.epoch)?;
            let engine = EngineConfig::for_algorithm(algo);
            let displs = packed_displs(&counts);
            let plain = alltoallv_discover(&sc, &engine, &buf, &counts, &displs, false)?;
            Ok::<_, CommError>((rec, recovering, plain, mc.metrics()))
        });
        for (rank, out) in report.outcomes.iter().enumerate() {
            let (rec, recovering, plain, plain_metrics) =
                out.as_ref().expect("no panic").as_ref().unwrap();
            assert_eq!(rec.outcome, RecoveryOutcome::Complete);
            assert_eq!(rec.view, (0..p).collect::<Vec<_>>());
            assert_eq!(&rec.value, plain, "rank {rank}");
            let (bytes, recvcounts) = &rec.value;
            assert_eq!(recvcounts, &vec![n; p]);
            for (src, block) in bytes.chunks(n).enumerate() {
                assert!(block.iter().enumerate().all(|(i, &b)| b == pattern(src, rank, i)));
            }
            assert_eq!(sent_on(recovering, RESERVED_TAG_BASE + 0x1000, 0x100), 0, "rank {rank}");
            assert_eq!(sent_on(recovering, RESERVED_TAG_BASE, 3), 0, "rank {rank}");
            // Everything else reserved is the one confirm.
            let confirm = sent_on(recovering, RESERVED_TAG_BASE + 0x3000, 0x200);
            assert_eq!(recovering.reserved.sent_msgs, confirm, "rank {rank}");
            let data = |m: &Metrics| {
                let below = m.per_tag_sent.iter().filter(|(tag, _)| **tag < RESERVED_TAG_BASE);
                below.map(|(tag, c)| (*tag, c.msgs, c.bytes)).collect::<Vec<_>>()
            };
            assert_eq!(data(recovering), data(plain_metrics), "rank {rank}");
            assert!(!data(plain_metrics).is_empty());
        }
    }

    #[test]
    fn mid_exchange_crash_recovers_on_the_shrunken_view() {
        let p = 5;
        let n = 8;
        let dead = 2usize;
        let report = SimComm::try_run(p, &SimConfig::from_seed(11), move |comm| {
            let fc = FaultComm::new(comm, FaultPlan::new(4).with_crash(dead, 3));
            let view: Vec<usize> = (0..p).collect();
            let (buf, counts) = build_view_send(fc.rank(), &view, n);
            let algo = AlltoallvAlgorithm::TwoPhaseBruck;
            recovering_alltoallv(&quick(), &fc, algo, &view, &counts, &buf)
        });
        for (rank, out) in report.outcomes.iter().enumerate() {
            let res = out.as_ref().expect("no panic");
            if rank == dead {
                assert!(
                    matches!(res, Err(CommError::RankFailed { rank }) if *rank == dead),
                    "dead rank must error, got {res:?}"
                );
                continue;
            }
            let rec = res.as_ref().unwrap();
            let survivors: Vec<usize> = (0..p).filter(|&r| r != dead).collect();
            assert_eq!(rec.view, survivors, "rank {rank}");
            match &rec.outcome {
                RecoveryOutcome::Recovered { evicted, cycles, attempts, mttr } => {
                    assert_eq!(evicted, &vec![dead], "rank {rank}");
                    assert!(*cycles >= 1 && attempts > cycles, "rank {rank}");
                    assert!(mttr.total() > Duration::ZERO, "rank {rank}");
                }
                other => panic!("rank {rank}: expected Recovered, got {other:?}"),
            }
            let (bytes, recvcounts) = &rec.value;
            assert_eq!(recvcounts, &vec![n; survivors.len()]);
            for (block, &src) in bytes.chunks(n).zip(&rec.view) {
                for (idx, &b) in block.iter().enumerate() {
                    assert_eq!(b, pattern(src, rank, idx), "rank {rank}: block from parent {src}");
                }
            }
        }
    }

    #[test]
    fn a_no_op_shrinks_the_view_around_a_dead_rank() {
        // Rank 1 is dead before the first attempt: the operation does
        // nothing, so only the confirm can find it.
        let p = 4;
        let report = SimComm::try_run(p, &SimConfig::from_seed(2), move |comm| {
            let fc = FaultComm::new(comm, FaultPlan::new(3).with_crash(1, 0));
            let view: Vec<usize> = (0..p).collect();
            recovering(&quick(), &fc, &view, |_, _| Ok(()))
        });
        for (rank, out) in report.outcomes.iter().enumerate() {
            let res = out.as_ref().expect("no panic");
            if rank == 1 {
                assert!(matches!(res, Err(CommError::RankFailed { rank: 1 })), "{res:?}");
                continue;
            }
            let rec = res.as_ref().unwrap();
            assert_eq!(rec.view, vec![0, 2, 3], "rank {rank}");
            let RecoveryOutcome::Recovered { evicted, cycles, attempts, .. } = &rec.outcome else {
                panic!("rank {rank}: {:?}", rec.outcome);
            };
            assert_eq!((evicted.as_slice(), *cycles, *attempts), (&[1][..], 1, 2), "rank {rank}");
        }
    }

    #[test]
    fn bad_arguments_are_typed_errors() {
        SimComm::try_run(3, &SimConfig::from_seed(0), |comm| {
            let cfg = quick();
            let algo = AlltoallvAlgorithm::TwoPhaseBruck;
            // Unsorted view.
            assert!(matches!(
                recovering_alltoallv(&cfg, comm, algo, &[1, 0, 2], &[0, 0, 0], &[]),
                Err(CommError::BadArgument(_))
            ));
            // Caller missing from view (only an error on the excluded rank).
            if comm.rank() == 2 {
                assert!(matches!(
                    recovering(&cfg, comm, &[0, 1], |_, _| Ok(())),
                    Err(CommError::BadArgument(_))
                ));
            }
            // sendbuf not packed by counts.
            let view: Vec<usize> = (0..3).collect();
            assert!(matches!(
                recovering_alltoallv(&cfg, comm, algo, &view, &[1, 1, 1], &[0u8; 2]),
                Err(CommError::BadArgument(_))
            ));
            Ok::<(), CommError>(())
        });
    }
}
