//! Self-healing `alltoallv`: run the chosen algorithm under a deadline, and
//! degrade gracefully instead of hanging when ranks stall, crash, or the
//! network misbehaves.
//!
//! ## Protocol
//!
//! 1. **Primary attempt.** The configured algorithm (default: two-phase
//!    Bruck, the paper's §3.2 contribution) runs wrapped in a
//!    [`DeadlineComm`], so every blocking receive observes one shared
//!    wall-clock budget. A healthy exchange completes exactly as it would
//!    unwrapped.
//! 2. **Commit barrier.** A short timed barrier confirms *everyone* finished.
//!    Without it, a rank whose own receives all completed could report
//!    success while a peer is about to fall back — and the fallback needs
//!    every survivor participating.
//! 3. **Fallback.** On [`CommError::Timeout`] / [`CommError::RankFailed`] (or
//!    a failed commit), survivors re-exchange *all* blocks pairwise on a
//!    fresh tag — the abandoned primary may have left any subset of the
//!    receive buffer written, so no block from the primary is trusted. Each
//!    fallback receive has its own per-peer timeout; peers that never deliver
//!    become typed holes in the [`PartialExchange`] report rather than hangs.
//!
//! The crash-only contract: `resilient_alltoallv` either returns
//! [`ExchangeOutcome::Complete`] with a byte-correct buffer, a degraded
//! outcome *naming* every unusable block, or a typed error — it never hangs
//! past its budgets and never silently returns corrupt data.
//!
//! ## Reuse caveat
//!
//! A degraded exchange can leave messages in flight (a dead rank's mailbox,
//! an abandoned primary's data messages, barrier strays). The fallback tag is
//! epoch-versioned ([`ResilientConfig::epoch`]) so *fallback* traffic never
//! crosses between calls, but algorithm and collective tags are not — reuse a
//! communicator after a degraded exchange only with a bumped epoch and
//! algorithm-tag hygiene in mind (the chaos harness uses one world per run).

use std::time::Duration;

use bruck_comm::{CommError, CommResult, Communicator, DeadlineComm, MsgBuf};

use super::{alltoallv, validate_v, AlltoallvAlgorithm};
use crate::common::{add_mod, sub_mod, RESILIENT_EPOCH_SPAN, RESILIENT_FALLBACK_TAG};
use crate::probe::span;

/// The holes left by a degraded exchange (ranks are absolute).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartialExchange {
    /// Sources whose block never arrived: the corresponding receive-buffer
    /// block is unusable (it may hold zeros, stale primary bytes, or old
    /// caller data).
    pub missing_sources: Vec<usize>,
    /// Destinations that did not accept our block (send failed); they may or
    /// may not have our data.
    pub undelivered_dests: Vec<usize>,
}

impl PartialExchange {
    /// Whether the exchange actually lost anything.
    pub fn is_lossless(&self) -> bool {
        self.missing_sources.is_empty() && self.undelivered_dests.is_empty()
    }
}

/// How a resilient exchange ended (on this rank).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeOutcome {
    /// Primary algorithm finished and the commit barrier confirmed everyone
    /// did: the receive buffer is byte-identical to a fault-free run.
    Complete,
    /// Primary failed but the fallback recovered every block: the receive
    /// buffer is byte-identical to a fault-free run. `trigger` is the fault
    /// that forced the fallback.
    Recovered {
        /// The error that aborted the primary attempt.
        trigger: CommError,
    },
    /// Fallback completed with holes: every block *not* named in `report` is
    /// correct; named ones are unusable.
    Partial {
        /// Which blocks were lost, by rank.
        report: PartialExchange,
        /// The error that aborted the primary attempt.
        trigger: CommError,
    },
}

impl ExchangeOutcome {
    /// Whether every block in the receive buffer is trustworthy.
    pub fn is_lossless(&self) -> bool {
        match self {
            ExchangeOutcome::Complete | ExchangeOutcome::Recovered { .. } => true,
            ExchangeOutcome::Partial { report, .. } => report.is_lossless(),
        }
    }
}

/// Budgets and algorithm choice for [`resilient_alltoallv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilientConfig {
    /// Algorithm for the primary attempt.
    pub algorithm: AlltoallvAlgorithm,
    /// Wall-clock budget for the primary attempt (shared across all of its
    /// receives, not per receive).
    pub deadline: Duration,
    /// Budget for the commit barrier after a successful primary.
    pub commit_timeout: Duration,
    /// Per-peer receive budget in the fallback exchange.
    pub peer_timeout: Duration,
    /// Distinguishes successive resilient exchanges on one communicator:
    /// bump it per call so a previous call's fallback strays can never match
    /// this call's fallback receives.
    pub epoch: u32,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            algorithm: AlltoallvAlgorithm::TwoPhaseBruck,
            deadline: Duration::from_secs(4),
            commit_timeout: Duration::from_millis(800),
            peer_timeout: Duration::from_secs(2),
            epoch: 0,
        }
    }
}

/// Is this error a runtime fault (fall back) rather than a caller bug
/// (propagate)?
pub(crate) fn is_fault(e: &CommError) -> bool {
    matches!(e, CommError::Timeout { .. } | CommError::RankFailed { .. })
}

/// Non-uniform all-to-all with graceful degradation. See the
/// module docs for the protocol and the exact buffer guarantees per
/// [`ExchangeOutcome`].
///
/// Programming errors (bad arguments, invalid ranks) propagate as `Err` just
/// like the plain algorithms; `Err` is otherwise only returned when *this*
/// rank is the failed one and no recovery is possible from here.
#[allow(clippy::too_many_arguments)]
pub fn resilient_alltoallv<C: Communicator + ?Sized>(
    cfg: &ResilientConfig,
    comm: &C,
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
    recvbuf: &mut [u8],
    recvcounts: &[usize],
    rdispls: &[usize],
) -> CommResult<ExchangeOutcome> {
    validate_v(comm, sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls)?;
    let me = comm.rank();

    let primary = {
        let _probe = span("resilient.primary");
        let dc = DeadlineComm::new(comm, cfg.deadline);
        alltoallv(cfg.algorithm, &dc, sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls)
    }
    .and_then(|()| {
        let _probe = span("resilient.commit");
        DeadlineComm::new(comm, cfg.commit_timeout).barrier()
    });

    let trigger = match primary {
        Ok(()) => return Ok(ExchangeOutcome::Complete),
        Err(e) if is_fault(&e) => e,
        Err(e) => return Err(e),
    };
    // If *we* are the failed rank there is nothing to salvage from here:
    // every further operation would fail the same way.
    if matches!(trigger, CommError::RankFailed { rank } if rank == me) {
        return Err(trigger);
    }

    fallback(cfg, comm, sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls, trigger)
}

/// The degraded path: pairwise re-exchange of every block among survivors,
/// bounded per peer.
#[allow(clippy::too_many_arguments)]
fn fallback<C: Communicator + ?Sized>(
    cfg: &ResilientConfig,
    comm: &C,
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
    recvbuf: &mut [u8],
    recvcounts: &[usize],
    rdispls: &[usize],
    trigger: CommError,
) -> CommResult<ExchangeOutcome> {
    let _probe = span("resilient.fallback");
    let p = comm.size();
    let me = comm.rank();
    let tag = RESILIENT_FALLBACK_TAG + (cfg.epoch % RESILIENT_EPOCH_SPAN);

    // The self block never touches the network.
    recvbuf[rdispls[me]..rdispls[me] + recvcounts[me]]
        .copy_from_slice(&sendbuf[sdispls[me]..sdispls[me] + sendcounts[me]]);

    let mut undelivered_dests = Vec::new();
    let mut missing_sources = Vec::new();

    for i in 1..p {
        let dest = add_mod(me, i, p);
        let src = sub_mod(me, i, p);
        let block =
            MsgBuf::copy_from_slice(&sendbuf[sdispls[dest]..sdispls[dest] + sendcounts[dest]]);
        match comm.send_buf(dest, tag, block) {
            Ok(()) => {}
            Err(e @ CommError::RankFailed { rank }) => {
                if rank == me {
                    return Err(e); // we died mid-fallback
                }
                undelivered_dests.push(dest);
            }
            Err(e) if is_fault(&e) => undelivered_dests.push(dest),
            Err(e) => return Err(e),
        }
        match comm.recv_buf_timeout(src, tag, cfg.peer_timeout) {
            Ok(msg) if msg.len() == recvcounts[src] => {
                recvbuf[rdispls[src]..rdispls[src] + recvcounts[src]].copy_from_slice(&msg);
            }
            Ok(_) => missing_sources.push(src), // wrong-epoch stray or corrupt size
            Err(e @ CommError::RankFailed { rank }) => {
                if rank == me {
                    return Err(e);
                }
                missing_sources.push(src);
            }
            Err(e) if is_fault(&e) => missing_sources.push(src),
            Err(e) => return Err(e),
        }
    }

    missing_sources.sort_unstable();
    undelivered_dests.sort_unstable();
    let report = PartialExchange { missing_sources, undelivered_dests };
    if report.is_lossless() {
        Ok(ExchangeOutcome::Recovered { trigger })
    } else {
        Ok(ExchangeOutcome::Partial { report, trigger })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonuniform::testutil::{build_send, check_recv, pattern};
    use crate::packed_displs;
    use bruck_comm::{
        EdgeFaults, FaultComm, FaultPlan, ReliableComm, ReliableConfig, ThreadComm,
    };
    use bruck_workload::{Distribution, SizeMatrix};

    fn quick_reliable() -> ReliableConfig {
        ReliableConfig {
            ack_timeout: Duration::from_millis(10),
            max_retries: 5,
            backoff_cap: Duration::from_millis(40),
        }
    }

    fn quick_resilient() -> ResilientConfig {
        ResilientConfig {
            deadline: Duration::from_secs(3),
            commit_timeout: Duration::from_millis(500),
            peer_timeout: Duration::from_millis(800),
            ..ResilientConfig::default()
        }
    }

    #[test]
    fn healthy_run_is_complete_and_correct() {
        let p = 5;
        let m = SizeMatrix::generate(Distribution::Uniform, 3, p, 64);
        ThreadComm::run(p, |comm| {
            let me = comm.rank();
            let (sendbuf, sendcounts, sdispls) = build_send(me, &m);
            let recvcounts = m.recvcounts(me);
            let rdispls = packed_displs(&recvcounts);
            let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
            let out = resilient_alltoallv(
                &quick_resilient(),
                comm,
                &sendbuf,
                &sendcounts,
                &sdispls,
                &mut recvbuf,
                &recvcounts,
                &rdispls,
            )
            .unwrap();
            assert_eq!(out, ExchangeOutcome::Complete);
            check_recv(me, &m, &recvbuf, &rdispls);
        });
    }

    #[test]
    fn lossy_network_still_completes_under_reliable_layer() {
        let p = 4;
        let m = SizeMatrix::generate(Distribution::Uniform, 7, p, 32);
        ThreadComm::run(p, |comm| {
            let fc = FaultComm::new(
                comm,
                FaultPlan::new(21).with_drop(0.08).with_duplicate(0.08).with_corrupt(0.05),
            );
            let rc = ReliableComm::with_config(&fc, quick_reliable());
            let me = rc.rank();
            let (sendbuf, sendcounts, sdispls) = build_send(me, &m);
            let recvcounts = m.recvcounts(me);
            let rdispls = packed_displs(&recvcounts);
            let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
            let out = resilient_alltoallv(
                &quick_resilient(),
                &rc,
                &sendbuf,
                &sendcounts,
                &sdispls,
                &mut recvbuf,
                &recvcounts,
                &rdispls,
            )
            .unwrap();
            assert!(out.is_lossless(), "lossless expected, got {out:?}");
            check_recv(me, &m, &recvbuf, &rdispls);
            rc.quiesce(Duration::from_millis(100), Duration::from_secs(2)).unwrap();
        });
    }

    #[test]
    fn crashed_rank_becomes_typed_holes_not_a_hang() {
        let p = 4;
        let dead = 3usize;
        let n = 16usize; // uniform block size keeps expectations simple
        let outcomes = ThreadComm::run(p, move |comm| {
            let fc = FaultComm::new(comm, FaultPlan::new(5).with_crash(dead, 2));
            let rc = ReliableComm::with_config(&fc, quick_reliable());
            let me = rc.rank();
            let sendcounts = vec![n; p];
            let sdispls = packed_displs(&sendcounts);
            let mut sendbuf = vec![0u8; n * p];
            for dst in 0..p {
                for idx in 0..n {
                    sendbuf[sdispls[dst] + idx] = pattern(me, dst, idx);
                }
            }
            let recvcounts = vec![n; p];
            let rdispls = packed_displs(&recvcounts);
            let mut recvbuf = vec![0u8; n * p];
            let cfg = ResilientConfig {
                deadline: Duration::from_millis(1500),
                commit_timeout: Duration::from_millis(300),
                peer_timeout: Duration::from_millis(500),
                ..ResilientConfig::default()
            };
            let out = resilient_alltoallv(
                &cfg, &rc, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
            );
            let _ = rc.quiesce(Duration::from_millis(100), Duration::from_secs(1));
            // Verify whatever the outcome says is trustworthy, right here on
            // the rank: blocks not named missing must be byte-correct.
            match &out {
                Ok(ExchangeOutcome::Complete) | Ok(ExchangeOutcome::Recovered { .. }) => {
                    for src in 0..p {
                        for idx in 0..n {
                            assert_eq!(recvbuf[rdispls[src] + idx], pattern(src, me, idx));
                        }
                    }
                }
                Ok(ExchangeOutcome::Partial { report, .. }) => {
                    assert!(!report.missing_sources.contains(&me), "self block never missing");
                    for src in (0..p).filter(|s| !report.missing_sources.contains(s)) {
                        for idx in 0..n {
                            assert_eq!(
                                recvbuf[rdispls[src] + idx],
                                pattern(src, me, idx),
                                "rank {me}: non-hole block from {src} must be intact"
                            );
                        }
                    }
                }
                Err(e) => assert!(
                    matches!(e, CommError::RankFailed { .. } | CommError::Timeout { .. }),
                    "only typed fault errors allowed, got {e:?}"
                ),
            }
            (me, out.is_ok())
        });
        // The dead rank must have failed; at least one survivor must have
        // produced a usable (possibly partial) outcome.
        for (me, ok) in &outcomes {
            if *me == dead {
                assert!(!ok, "crashed rank cannot report success");
            }
        }
        assert!(outcomes.iter().any(|(me, ok)| *me != dead && *ok));
    }

    #[test]
    fn partial_report_names_exactly_the_crashed_rank() {
        // A single scripted crash must produce surgical reports on every
        // survivor: the dead rank is the *only* hole on either side, and every
        // survivor-pair block is byte-intact. Budgets are sized so fallback
        // skew (a survivor stuck in its dead-peer timeout while another waits
        // on it) stays well inside the per-peer window.
        let p = 4;
        let dead = 2usize;
        let n = 16usize;
        let outcomes = ThreadComm::run(p, move |comm| {
            let fc = FaultComm::new(comm, FaultPlan::new(9).with_crash(dead, 1));
            let rc = ReliableComm::with_config(
                &fc,
                ReliableConfig {
                    ack_timeout: Duration::from_millis(5),
                    max_retries: 3,
                    backoff_cap: Duration::from_millis(20),
                },
            );
            let me = rc.rank();
            let sendcounts = vec![n; p];
            let sdispls = packed_displs(&sendcounts);
            let mut sendbuf = vec![0u8; n * p];
            for dst in 0..p {
                for idx in 0..n {
                    sendbuf[sdispls[dst] + idx] = pattern(me, dst, idx);
                }
            }
            let recvcounts = vec![n; p];
            let rdispls = packed_displs(&recvcounts);
            let mut recvbuf = vec![0u8; n * p];
            let cfg = ResilientConfig {
                deadline: Duration::from_millis(800),
                commit_timeout: Duration::from_millis(200),
                peer_timeout: Duration::from_millis(1500),
                ..ResilientConfig::default()
            };
            let out = resilient_alltoallv(
                &cfg, &rc, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
            );
            let _ = rc.quiesce(Duration::from_millis(100), Duration::from_secs(1));
            if me != dead {
                match &out {
                    Ok(ExchangeOutcome::Partial { report, .. }) => {
                        assert_eq!(
                            report.missing_sources,
                            vec![dead],
                            "rank {me}: the crashed rank is the only legal receive hole"
                        );
                        assert!(
                            report.undelivered_dests.iter().all(|d| *d == dead),
                            "rank {me}: sends may only fail toward the crashed rank, got {:?}",
                            report.undelivered_dests
                        );
                    }
                    other => panic!("rank {me}: expected a Partial outcome, got {other:?}"),
                }
                // Every survivor-pair block (including self) must be intact.
                for src in (0..p).filter(|s| *s != dead) {
                    for idx in 0..n {
                        assert_eq!(
                            recvbuf[rdispls[src] + idx],
                            pattern(src, me, idx),
                            "rank {me}: survivor block from {src} must be intact"
                        );
                    }
                }
            }
            (me, out.is_ok())
        });
        for (me, ok) in &outcomes {
            assert_eq!(*me != dead, *ok, "only survivors report usable outcomes");
        }
    }

    #[test]
    fn programming_errors_propagate_not_degrade() {
        ThreadComm::run(2, |comm| {
            let cfg = quick_resilient();
            let mut recvbuf = vec![0u8; 4];
            // sendcounts has the wrong length: caller bug, not a fault.
            let err = resilient_alltoallv(
                &cfg,
                comm,
                &[0u8; 4],
                &[4],
                &[0],
                &mut recvbuf,
                &[2, 2],
                &[0, 2],
            )
            .unwrap_err();
            assert!(matches!(err, CommError::BadArgument(_)));
        });
    }

    #[test]
    fn stalled_rank_within_deadline_still_completes() {
        let p = 3;
        let m = SizeMatrix::generate(Distribution::Uniform, 11, p, 24);
        ThreadComm::run(p, |comm| {
            // Rank 1 freezes for 150ms mid-exchange; deadline is 3s, so the
            // primary must absorb the stall and complete.
            let fc = FaultComm::new(comm, FaultPlan::new(2).with_stall(1, 2, 150));
            let rc = ReliableComm::with_config(&fc, quick_reliable());
            let me = rc.rank();
            let (sendbuf, sendcounts, sdispls) = build_send(me, &m);
            let recvcounts = m.recvcounts(me);
            let rdispls = packed_displs(&recvcounts);
            let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
            let out = resilient_alltoallv(
                &quick_resilient(),
                &rc,
                &sendbuf,
                &sendcounts,
                &sdispls,
                &mut recvbuf,
                &recvcounts,
                &rdispls,
            )
            .unwrap();
            assert!(out.is_lossless(), "stall must be absorbed, got {out:?}");
            check_recv(me, &m, &recvbuf, &rdispls);
            rc.quiesce(Duration::from_millis(100), Duration::from_secs(1)).unwrap();
        });
    }

    #[test]
    fn fallback_recovers_when_one_edge_is_dead_for_the_primary() {
        // Drop every message on edge 0→1 *at the raw layer below the
        // reliable wrapper's view*: the reliable layer exhausts its retries,
        // the primary aborts with RankFailed, and the fallback (same dead
        // edge) records the hole — while all healthy edges recover.
        let p = 3;
        let n = 8usize;
        ThreadComm::run(p, move |comm| {
            let plan = FaultPlan::new(1)
                .with_edge(0, 1, EdgeFaults { drop: 1.0, ..EdgeFaults::default() });
            let fc = FaultComm::new(comm, plan);
            let rc = ReliableComm::with_config(
                &fc,
                ReliableConfig {
                    ack_timeout: Duration::from_millis(5),
                    max_retries: 3,
                    backoff_cap: Duration::from_millis(20),
                },
            );
            let me = rc.rank();
            let sendcounts = vec![n; p];
            let sdispls = packed_displs(&sendcounts);
            let mut sendbuf = vec![0u8; n * p];
            for dst in 0..p {
                for idx in 0..n {
                    sendbuf[sdispls[dst] + idx] = pattern(me, dst, idx);
                }
            }
            let recvcounts = vec![n; p];
            let rdispls = packed_displs(&recvcounts);
            let mut recvbuf = vec![0u8; n * p];
            let cfg = ResilientConfig {
                deadline: Duration::from_millis(1200),
                commit_timeout: Duration::from_millis(300),
                peer_timeout: Duration::from_millis(400),
                ..ResilientConfig::default()
            };
            let out = resilient_alltoallv(
                &cfg, &rc, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
            );
            let _ = rc.quiesce(Duration::from_millis(100), Duration::from_secs(1));
            if let Ok(outcome) = &out {
                // Whatever survived must be byte-correct. Rank 1 should list
                // source 0 as a hole if it reports Partial.
                let holes = match outcome {
                    ExchangeOutcome::Partial { report, .. } => report.missing_sources.clone(),
                    _ => Vec::new(),
                };
                for src in (0..p).filter(|s| !holes.contains(s)) {
                    for idx in 0..n {
                        assert_eq!(
                            recvbuf[rdispls[src] + idx],
                            pattern(src, me, idx),
                            "rank {me}: block from {src}"
                        );
                    }
                }
                if me == 1 {
                    assert!(
                        !outcome.is_lossless(),
                        "rank 1 cannot have received from 0 over a dead edge: {outcome:?}"
                    );
                }
            }
        });
    }
}
