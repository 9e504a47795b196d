//! Multi-epoch self-healing `alltoallv`: detect → agree → shrink → retry.
//!
//! [`resilient_alltoallv`](super::resilient_alltoallv) degrades gracefully
//! *within* one exchange — it reports typed holes instead of hanging — but it
//! leaves the membership question to the caller: the dead rank is still part
//! of the world, and the next exchange will trip over it again. This module
//! closes that loop, ULFM-style:
//!
//! 1. **Execute.** Negotiate an [`ExchangePlan`] (counts handshake under a
//!    deadline — a rank can die *here*, between planning and data movement)
//!    and run `resilient_alltoallv` on the current survivor view, wrapped in
//!    a [`ShrinkComm`] whose epoch isolates this attempt's traffic from every
//!    other attempt's strays.
//! 2. **Detect.** On a degraded outcome, run [`detect_failures`]: seeded
//!    heartbeats over the current view with suspicion timeouts, on the trait
//!    clock.
//! 3. **Agree.** Feed the local suspicions to [`agree_survivors`], which
//!    floods bitmaps until every live rank holds the identical survivor set
//!    (tolerating further deaths *during* agreement).
//! 4. **Repair.** Renumber the survivors into a dense world
//!    ([`ShrinkComm`]), project the send buffer onto the survivor columns,
//!    and remap the pending plan with
//!    [`ExchangePlan::remap_survivors`] — re-negotiating only after *dirty*
//!    attempts (where plan possession may be asymmetric); a clean membership
//!    shrink keeps every survivor's plan and just remaps it.
//! 5. **Retry.** Back off per the configured [`RetryPolicy`] (seeded jitter,
//!    on the trait clock) and re-execute on the repaired world.
//!
//! The caller observes one of three endings: a lossless buffer on the
//! original view ([`RecoveryOutcome::Complete`]), a lossless buffer on a
//! *shrunken* view plus an MTTR breakdown ([`RecoveryOutcome::Recovered`]),
//! or a typed error (this rank died / was evicted / retries exhausted).
//! Because every wait is on the trait clock, the entire cycle is
//! deterministic and replayable under `SimComm`, and the MTTR numbers are
//! virtual-time exact.

use std::time::Duration;

use bruck_comm::{
    agree_survivors, detect_failures, AgreeConfig, CommError, CommResult, Communicator,
    DeadlineComm, DetectorConfig, ExchangePlan, RetryPolicy, ShrinkComm, Suspicion,
};

use super::resilient::{is_fault, resilient_alltoallv, ExchangeOutcome, ResilientConfig};
use super::packed_displs;
use crate::probe::span;

/// Budgets for every stage of the detect → agree → shrink → retry cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveringConfig {
    /// Per-attempt exchange budgets (its `epoch` field is ignored — the
    /// recovery loop stamps each attempt with its own epoch).
    pub resilient: ResilientConfig,
    /// Deadline for the counts handshake of each attempt.
    pub negotiate_timeout: Duration,
    /// Heartbeat failure-detector policy.
    pub detector: DetectorConfig,
    /// Survivor-agreement policy.
    pub agreement: AgreeConfig,
    /// Backoff between attempts; its `attempts()` bounds the exchange
    /// attempts (first try included).
    pub retry: RetryPolicy,
    /// Base epoch: attempt `k` runs at `epoch + k`. Bump it across calls on
    /// one communicator so no two recovering exchanges ever share tags.
    pub epoch: u32,
}

impl RecoveringConfig {
    /// Resize the detector and agreement windows so they cover the
    /// worst-case skew with which ranks abort one attempt and enter the
    /// confirmation round.
    ///
    /// Ranks reach the detector at very different times after a failed
    /// exchange: one aborts at the negotiate deadline, another only after
    /// the primary deadline, the commit barrier, and a string of fallback
    /// peer timeouts. A detector window smaller than that skew makes the
    /// early ranks give up on the laggards — false suspicion, mutual
    /// eviction, and a view that collapses to singletons. The generous
    /// windows are nearly free where it matters: the detector's all-proven
    /// early exit and the agreement's anchored round deadlines both finish
    /// at message speed when everyone is alive, so only genuine failures
    /// pay the window (and under `SimComm` virtual time even that is free).
    pub fn with_derived_windows(mut self) -> Self {
        let r = &self.resilient;
        let skew = self
            .negotiate_timeout
            .max(r.deadline + r.commit_timeout + 2 * r.peer_timeout);
        let window = skew + skew / 4;
        self.detector.window = window;
        self.detector.heartbeat = (window / 8).max(Duration::from_millis(1));
        self.agreement.round_timeout = window;
        self
    }
}

impl Default for RecoveringConfig {
    fn default() -> Self {
        RecoveringConfig {
            resilient: ResilientConfig::default(),
            negotiate_timeout: Duration::from_secs(1),
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
    /// Time spent renumbering, projecting buffers, and remapping the plan.
    pub repair: Duration,
    /// Duration of the successful re-execution (negotiate-if-needed + data).
    pub reexecute: Duration,
}

impl Mttr {
    /// Total detect → agree → repair → re-execute time.
    pub fn total(&self) -> Duration {
        self.detect + self.agree + self.repair + self.reexecute
    }
}

/// How a recovering exchange ended (on this rank).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// No membership change was needed: the buffer is lossless on the view
    /// the caller passed in.
    Complete,
    /// One or more recovery cycles ran; the buffer is lossless on the
    /// (possibly shrunken) final view.
    Recovered {
        /// Parent ranks evicted across all cycles, ascending.
        evicted: Vec<usize>,
        /// Recovery cycles executed (detect → agree → repair).
        cycles: u32,
        /// Exchange attempts consumed, first try included.
        attempts: u32,
        /// Where the recovery time went.
        mttr: Mttr,
    },
}

/// A completed recovering exchange: the received bytes plus the view they
/// are indexed by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Received bytes, packed by `recvcounts`.
    pub recvbuf: Vec<u8>,
    /// Bytes received from each member of `view`, in `view` order.
    pub recvcounts: Vec<usize>,
    /// Packed displacements for `recvcounts`.
    pub rdispls: Vec<usize>,
    /// The final survivor view: sorted parent ranks, including the caller.
    /// Feed it back as the next call's `view` for multi-epoch tenancy.
    pub view: Vec<usize>,
    /// What it took.
    pub outcome: RecoveryOutcome,
}

/// Self-healing non-uniform all-to-all over the `view` subset of `comm`'s
/// world. `sendcounts[i]` bytes go to parent rank `view[i]`; `sendbuf` is
/// packed by `sendcounts`. See the module docs for the protocol.
///
/// Errors are crash-only: bad arguments, this rank dead or evicted, or
/// retries exhausted (the last fault). A `Recovered` outcome's buffer is
/// byte-identical to a fault-free exchange run directly on the final view.
pub fn recovering_alltoallv<C: Communicator + ?Sized>(
    cfg: &RecoveringConfig,
    comm: &C,
    view: &[usize],
    sendcounts: &[usize],
    sendbuf: &[u8],
) -> CommResult<Recovery> {
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
    if sendcounts.len() != view.len() {
        return Err(CommError::BadArgument("sendcounts.len() != view.len()"));
    }
    if sendbuf.len() != sendcounts.iter().sum::<usize>() {
        return Err(CommError::BadArgument("sendbuf must be packed by sendcounts"));
    }

    let names_me = |e: &CommError| matches!(e, CommError::RankFailed { rank } if *rank == me);

    let mut view = view.to_vec();
    let mut counts = sendcounts.to_vec();
    let mut buf = sendbuf.to_vec();
    let mut plan: Option<ExchangePlan> = None;
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

        // One attempt: negotiate (if no plan survived) then exchange. Any
        // fault that does not name *us* becomes this rank's abort vote.
        let local: Result<Vec<u8>, CommError> = 'attempt: {
            let _probe = span("recovering.attempt");
            if plan.is_none() {
                let dc = DeadlineComm::new(&cur, cfg.negotiate_timeout);
                match ExchangePlan::negotiate_isolated(&dc, counts.clone(), epoch) {
                    Ok(p) => plan = Some(p),
                    Err(e) => break 'attempt Err(e),
                }
            }
            let Some(pl) = plan.as_ref() else {
                break 'attempt Err(CommError::BadArgument("no plan after negotiation"));
            };
            let mut recvbuf = pl.alloc_recvbuf();
            let rcfg = ResilientConfig { epoch, ..cfg.resilient };
            match resilient_alltoallv(
                &rcfg,
                &cur,
                &buf,
                pl.sendcounts(),
                pl.sdispls(),
                &mut recvbuf,
                pl.recvcounts(),
                pl.rdispls(),
            ) {
                Ok(out) if out.is_lossless() => Ok(recvbuf),
                Ok(ExchangeOutcome::Partial { trigger, .. }) => Err(trigger),
                Ok(_) => unreachable!("non-lossless outcomes are Partial"),
                Err(e) => Err(e),
            }
        };
        let local = match local {
            Err(e) if !is_fault(&e) || names_me(&e) => return Err(e),
            other => other,
        };

        // Confirmation: EVERY attempt — success or not — ends in detect +
        // agreement, because failure evidence is asymmetric (one rank's
        // fallback can be lossless while a peer's has holes; a commit
        // barrier can complete on some ranks and time out on others). The
        // flooded dirty vote turns those local verdicts into one global
        // decision: commit only if the view is intact and nobody failed.
        // The detector starts from empty suspicions on purpose — fault
        // errors name ranks in a mix of parent and dense numbering
        // depending on which layer raised them, so membership verdicts
        // come only from the detector's own probes.
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
            // Unanimous commit. A clean, full-view decision implies every
            // survivor — us included — had a lossless exchange: our dirty
            // vote was part of the decided flood.
            let recvbuf = match local {
                Ok(b) => b,
                Err(e) => return Err(e),
            };
            let Some(pl) = plan.as_ref() else {
                return Err(CommError::BadArgument("committed attempt has no plan"));
            };
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
            return Ok(Recovery {
                recvbuf,
                recvcounts: pl.recvcounts().to_vec(),
                rdispls: pl.rdispls().to_vec(),
                view,
                outcome,
            });
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
        if agreed.dirty {
            // A dirty attempt can die mid-negotiation at some ranks and
            // after it at others, leaving plan possession asymmetric; a
            // retry where only the plan-less ranks re-negotiate hangs into
            // exhaustion. The agreed dirty bit is the uniform signal: every
            // survivor drops its plan and the group re-negotiates together.
            // A clean shrink (`!dirty`) means every survivor was lossless,
            // hence negotiated, so the remap below is uniform.
            plan = None;
        }
        if keep.len() < n {
            let _probe = span("recovering.repair");
            let alive: Vec<bool> = {
                let mut mask = vec![false; n];
                for &i in &keep {
                    mask[i] = true;
                }
                mask
            };
            evicted.extend((0..n).filter(|&i| !alive[i]).map(|i| view[i]));
            evicted.sort_unstable();
            let displs = packed_displs(&counts);
            let mut nbuf = Vec::with_capacity(buf.len());
            let mut ncounts = Vec::with_capacity(keep.len());
            for &i in &keep {
                nbuf.extend_from_slice(&buf[displs[i]..displs[i] + counts[i]]);
                ncounts.push(counts[i]);
            }
            buf = nbuf;
            counts = ncounts;
            plan = match plan.take() {
                Some(p) => Some(p.remap_survivors(&alive)?),
                None => None,
            };
            view = keep.iter().map(|&i| view[i]).collect();
        }
        mttr.detect += t1.saturating_sub(t0);
        mttr.agree += t2.saturating_sub(t1);
        mttr.repair += comm.now().saturating_sub(t2);
    }

    // `retry.attempts()` is at least 1, so the loop ran and set a fault.
    Err(last_fault.unwrap_or(CommError::BadArgument("retry policy allows no attempts")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonuniform::testutil::pattern;
    use crate::nonuniform::AlltoallvAlgorithm;
    use bruck_comm::{FaultComm, FaultPlan, SimComm, SimConfig};

    fn quick() -> RecoveringConfig {
        RecoveringConfig {
            resilient: ResilientConfig {
                algorithm: AlltoallvAlgorithm::TwoPhaseBruck,
                deadline: Duration::from_millis(600),
                commit_timeout: Duration::from_millis(200),
                peer_timeout: Duration::from_millis(300),
                epoch: 0,
            },
            negotiate_timeout: Duration::from_millis(400),
            // Virtual time is free under the simulator, so both windows are
            // sized generously: survivors leave a degraded exchange up to a
            // full peer timeout apart, and the detector / agreement windows
            // must absorb that skew without false suspicions.
            detector: DetectorConfig {
                window: Duration::from_millis(1200),
                heartbeat: Duration::from_millis(150),
                seed: 7,
            },
            agreement: AgreeConfig {
                round_timeout: Duration::from_millis(900),
                stable_rounds: 2,
                max_rounds: 32,
            },
            retry: RetryPolicy::exponential(
                Duration::from_millis(10),
                Duration::from_millis(40),
                3,
            ),
            epoch: 0,
        }
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

    #[test]
    fn healthy_run_is_complete_on_the_original_view() {
        let p = 4;
        let n = 8;
        let report = SimComm::try_run(p, &SimConfig::from_seed(3), move |comm| {
            let me = comm.rank();
            let view: Vec<usize> = (0..p).collect();
            let (buf, counts) = build_view_send(me, &view, n);
            recovering_alltoallv(&quick(), comm, &view, &counts, &buf)
        });
        for (rank, out) in report.outcomes.iter().enumerate() {
            let rec = out.as_ref().expect("no panic").as_ref().unwrap();
            assert_eq!(rec.outcome, RecoveryOutcome::Complete);
            assert_eq!(rec.view, (0..p).collect::<Vec<_>>());
            for (i, &src) in rec.view.iter().enumerate() {
                for idx in 0..n {
                    assert_eq!(rec.recvbuf[rec.rdispls[i] + idx], pattern(src, rank, idx));
                }
            }
        }
    }

    #[test]
    fn mid_exchange_crash_recovers_on_the_shrunken_view() {
        let p = 5;
        let n = 8;
        let dead = 2usize;
        let report = SimComm::try_run(p, &SimConfig::from_seed(11), move |comm| {
            let fc = FaultComm::new(comm, FaultPlan::new(4).with_crash(dead, 20));
            let me = fc.rank();
            let view: Vec<usize> = (0..p).collect();
            let (buf, counts) = build_view_send(me, &view, n);
            recovering_alltoallv(&quick(), &fc, &view, &counts, &buf)
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
            for (i, &src) in rec.view.iter().enumerate() {
                for idx in 0..n {
                    assert_eq!(
                        rec.recvbuf[rec.rdispls[i] + idx],
                        pattern(src, rank, idx),
                        "rank {rank}: block from parent {src}"
                    );
                }
            }
        }
    }

    #[test]
    fn crash_during_negotiate_still_recovers() {
        // Op 1 lands inside the counts handshake: the plan never finishes on
        // the dead rank, survivors re-negotiate on the shrunken world.
        let p = 4;
        let n = 6;
        let dead = 1usize;
        let report = SimComm::try_run(p, &SimConfig::from_seed(9), move |comm| {
            let fc = FaultComm::new(comm, FaultPlan::new(8).with_crash(dead, 1));
            let me = fc.rank();
            let view: Vec<usize> = (0..p).collect();
            let (buf, counts) = build_view_send(me, &view, n);
            recovering_alltoallv(&quick(), &fc, &view, &counts, &buf)
        });
        for (rank, out) in report.outcomes.iter().enumerate() {
            let res = out.as_ref().expect("no panic");
            if rank == dead {
                assert!(res.is_err());
                continue;
            }
            let rec = res.as_ref().unwrap();
            assert_eq!(rec.view, (0..p).filter(|&r| r != dead).collect::<Vec<_>>());
            assert!(
                matches!(&rec.outcome, RecoveryOutcome::Recovered { evicted, .. } if evicted == &vec![dead]),
                "rank {rank}: {:?}",
                rec.outcome
            );
            for (i, &src) in rec.view.iter().enumerate() {
                for idx in 0..n {
                    assert_eq!(rec.recvbuf[rec.rdispls[i] + idx], pattern(src, rank, idx));
                }
            }
        }
    }

    #[test]
    fn bad_arguments_are_typed_errors() {
        SimComm::try_run(3, &SimConfig::from_seed(0), |comm| {
            let cfg = quick();
            // Unsorted view.
            assert!(matches!(
                recovering_alltoallv(&cfg, comm, &[1, 0, 2], &[0, 0, 0], &[]),
                Err(CommError::BadArgument(_))
            ));
            // Caller missing from view (only an error on the excluded rank).
            if comm.rank() == 2 {
                assert!(matches!(
                    recovering_alltoallv(&cfg, comm, &[0, 1], &[0, 0], &[]),
                    Err(CommError::BadArgument(_))
                ));
            }
            // sendbuf not packed by counts.
            let view: Vec<usize> = (0..3).collect();
            assert!(matches!(
                recovering_alltoallv(&cfg, comm, &view, &[1, 1, 1], &[0u8; 2]),
                Err(CommError::BadArgument(_))
            ));
            Ok::<(), CommError>(())
        });
    }
}
