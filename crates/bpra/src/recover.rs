//! Self-healing fixpoints: the BPRA tenant of the multi-epoch recovery
//! stack.
//!
//! [`crate::transitive_closure`] assumes the world never changes: a crashed
//! rank turns every later exchange and allreduce into a hang or a hole. This
//! module runs the same semi-naive fixpoint *recoverably*:
//!
//! * [`exchange_tuples_recovering`] routes one iteration's tuples through
//!   [`bruck_core::recovering_alltoallv`] — detect → agree → shrink → retry
//!   — and reports the (possibly shrunken) survivor view alongside the
//!   received tuples.
//! * [`recovering_closure`] drives whole fixpoint **epochs**: it runs the
//!   ordinary iteration loop on the current view, and whenever an exchange
//!   shrinks the view, it re-shards by the new dense world and restarts the
//!   fixpoint from the input edges. Because every rank holds the full edge
//!   list (the paper's replicated-input convention), a restart loses no
//!   information: the final closure on the shrunken world is byte-identical
//!   to a fault-free run on that world.
//!
//! The driver deliberately issues **no raw collectives**. A plain allreduce
//! faults asymmetrically under a crash — some ranks get their reduction,
//! others time out — and ranks that take different control-flow branches
//! drift to different epochs, whose detect/agree tags never meet again. So
//! the per-iteration termination votes ride the recovering exchange itself
//! as *control tuples* (reserved keys [`u64::MAX`] and `u64::MAX - 1`
//! carrying the sender's new-fact count and running closure size): every
//! decision a rank makes is derived either from the agreed survivor set or
//! from data all survivors received identically, so the whole group stays
//! in epoch lockstep by construction.
//!
//! All waiting is on the trait clock, so an entire crash-and-recover run is
//! deterministic and replayable under `bruck_comm::SimComm`.

use std::time::Duration;

use bruck_comm::{CommError, CommResult, Communicator};
use bruck_core::{recovering_alltoallv, Recovery, RecoveringConfig, RecoveryOutcome};

use crate::{decode_all, encode_into, owner, Relation, Tuple, TupleSet};

/// Reserved tuple key: the sender's per-iteration new-fact count. Each rank
/// appends one `(CTRL_DELTA, delta.len())` to every outbox, so each member
/// receives exactly `p` of them; their sum is the global new-fact count.
const CTRL_DELTA: u64 = u64::MAX;

/// Reserved tuple key: the sender's running closure size, summed the same
/// way. When the global delta hits zero the closure is already final, so
/// the totals that rode the same exchange are the final path count.
const CTRL_TOTAL: u64 = u64::MAX - 1;

/// Route `outboxes[i]` to view member `view[i]` with full detect → agree →
/// shrink → retry recovery. Returns the received tuples and the
/// [`Recovery`] record; when `recovery.view` differs from `view`, the
/// received tuples were routed under the *old* ownership and the caller
/// must re-shard (see [`recovering_closure`]).
pub fn exchange_tuples_recovering<C: Communicator + ?Sized>(
    comm: &C,
    cfg: &RecoveringConfig,
    view: &[usize],
    outboxes: &[Vec<Tuple>],
) -> CommResult<(Vec<Tuple>, Recovery)> {
    if outboxes.len() != view.len() {
        return Err(CommError::BadArgument("one outbox per view member"));
    }
    let sendcounts: Vec<usize> =
        outboxes.iter().map(|b| b.len() * crate::TUPLE_BYTES).collect();
    let mut sendbuf = Vec::with_capacity(sendcounts.iter().sum());
    for b in outboxes {
        for &t in b {
            encode_into(t, &mut sendbuf);
        }
    }
    let recovery = recovering_alltoallv(cfg, comm, view, &sendcounts, &sendbuf)?;
    let tuples = decode_all(&recovery.recvbuf)?;
    Ok((tuples, recovery))
}

/// Result of a [`recovering_closure`] run (per surviving rank).
#[derive(Debug)]
pub struct RecoveringTcResult {
    /// Fixpoint iterations of the final, successful epoch (including the
    /// terminal one whose exchange carried only zero control counts).
    pub iterations: usize,
    /// Fixpoint epochs executed: 1 means no membership change was needed.
    pub epochs: u32,
    /// Total paths in the closure over the final view, globally.
    pub total_paths: u64,
    /// This rank's shard of the closure, hash-partitioned by the *dense*
    /// numbering of the final view.
    pub local_paths: TupleSet,
    /// The final survivor view (sorted parent ranks).
    pub view: Vec<usize>,
    /// Parent ranks evicted across the run, ascending.
    pub evicted: Vec<usize>,
    /// Total detect → agree → repair → re-execute time across all recovery
    /// cycles, on the trait clock.
    pub recovery_time: Duration,
}

/// Transitive closure that survives rank failures: semi-naive fixpoint
/// epochs over a shrinking survivor view. Every rank passes the same full
/// edge list; node ids `>= u64::MAX - 1` are reserved for control tuples.
/// Crashed or evicted ranks get a typed error; survivors return the closure
/// over the final view. See the module docs.
pub fn recovering_closure<C: Communicator + ?Sized>(
    comm: &C,
    cfg: &RecoveringConfig,
    edges: &[Tuple],
) -> CommResult<RecoveringTcResult> {
    let me = comm.rank();
    let p0 = comm.size();
    if edges.iter().any(|e| e.0 >= CTRL_TOTAL || e.1 >= CTRL_TOTAL) {
        return Err(CommError::BadArgument("node ids >= u64::MAX - 1 are reserved"));
    }
    let mut view: Vec<usize> = (0..p0).collect();
    let mut next_epoch = cfg.epoch;
    let mut epochs = 0u32;
    let mut recovery_time = Duration::ZERO;

    // Each epoch restart is triggered by an agreed view change, which
    // strictly shrinks the view; the cap only guards against a bug looping
    // on a spurious restart.
    let max_epochs = (p0 as u32) * 2;

    'epoch: loop {
        epochs += 1;
        if epochs > max_epochs {
            return Err(CommError::Timeout { src: me, tag: 0, waited: recovery_time });
        }
        let p = view.len();
        let me_pos = view
            .iter()
            .position(|&r| r == me)
            .ok_or(CommError::BadArgument("caller evicted from its own view"))?;

        // Re-shard the replicated inputs by the dense world.
        let my_edges: Relation =
            edges.iter().copied().filter(|e| owner(e.0, p) == me_pos).collect();
        // The first delta in input order, so the wire bytes repeat run to
        // run (as in `transitive_closure`).
        let mut local_paths = TupleSet::default();
        let mut delta: Vec<Tuple> =
            edges.iter().copied().filter(|e| owner(e.1, p) == me_pos).collect();
        delta.retain(|&e| local_paths.insert(e));

        let mut iterations = 0usize;
        loop {
            let mut outboxes: Vec<Vec<Tuple>> = vec![Vec::new(); p];
            my_edges.join_on_first(&delta, |x, _y, z| outboxes[owner(z, p)].push((x, z)));
            // Termination votes piggyback on the exchange (module docs):
            // every member receives exactly `p` of each control key and
            // sums them, so all survivors see the same global counts and
            // take the same branch — no collectives, no epoch drift.
            for b in outboxes.iter_mut() {
                b.push((CTRL_DELTA, delta.len() as u64));
                b.push((CTRL_TOTAL, local_paths.len() as u64));
            }

            let ecfg = RecoveringConfig { epoch: next_epoch, ..*cfg };
            next_epoch = next_epoch.wrapping_add(cfg.retry.attempts());
            let (received, rec) = exchange_tuples_recovering(comm, &ecfg, &view, &outboxes)?;
            if let RecoveryOutcome::Recovered { mttr, .. } = &rec.outcome {
                recovery_time += mttr.total();
            }
            if rec.view != view {
                // Membership changed mid-iteration: the tuples we just
                // received were routed by the old ownership. Adopt the
                // survivor view and restart the fixpoint on it.
                view = rec.view;
                continue 'epoch;
            }
            iterations += 1;

            let mut global_delta = 0u64;
            let mut global_total = 0u64;
            delta.clear();
            for t in received {
                match t.0 {
                    CTRL_DELTA => global_delta += t.1,
                    CTRL_TOTAL => global_total += t.1,
                    _ => {
                        if local_paths.insert(t) {
                            delta.push(t);
                        }
                    }
                }
            }
            if global_delta == 0 {
                // Every delta was empty, so every data outbox was empty and
                // the totals that rode this exchange are final.
                let evicted: Vec<usize> =
                    (0..p0).filter(|r| view.binary_search(r).is_err()).collect();
                return Ok(RecoveringTcResult {
                    iterations,
                    epochs,
                    total_paths: global_total,
                    local_paths,
                    view,
                    evicted,
                    recovery_time,
                });
            }
        }
    }
}

/// Re-establish an agreed membership after a faulted collective or other
/// asymmetric failure: a zero-payload recovering exchange runs the full
/// detect → agree → shrink cycle and returns the agreed survivor view plus
/// the recovery time spent (zero when the view was already healthy).
/// [`recovering_closure`] avoids needing this by construction; tenants that
/// still issue raw collectives can call it when one faults.
pub fn heal_membership<C: Communicator + ?Sized>(
    comm: &C,
    cfg: &RecoveringConfig,
    view: &[usize],
) -> CommResult<(Vec<usize>, Duration)> {
    let zero = vec![0usize; view.len()];
    let rec = recovering_alltoallv(cfg, comm, view, &zero, &[])?;
    let spent = match &rec.outcome {
        RecoveryOutcome::Recovered { mttr, .. } => mttr.total(),
        RecoveryOutcome::Complete => Duration::ZERO,
    };
    Ok((rec.view, spent))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{graph2_like, sequential_closure};
    use bruck_comm::{
        FaultComm, FaultPlan, MsgBuf, SimComm, SimConfig, Tag, ThreadComm, RESERVED_TAG_BASE,
    };
    use bruck_core::{AlltoallvAlgorithm, ResilientConfig};
    use std::hash::{DefaultHasher, Hasher};
    use std::sync::Mutex;

    fn chain(n: u64) -> Vec<Tuple> {
        (0..n).map(|i| (i, i + 1)).collect()
    }

    fn sim_cfg() -> RecoveringConfig {
        RecoveringConfig {
            resilient: ResilientConfig {
                algorithm: AlltoallvAlgorithm::TwoPhaseBruck,
                deadline: Duration::from_millis(600),
                commit_timeout: Duration::from_millis(200),
                peer_timeout: Duration::from_millis(300),
                epoch: 0,
            },
            ..RecoveringConfig::default()
        }
        .with_derived_windows()
    }

    #[test]
    fn healthy_closure_matches_the_plain_driver() {
        let edges = chain(6);
        let expect = sequential_closure(&edges);
        let report = SimComm::try_run(4, &SimConfig::from_seed(5), move |comm| {
            recovering_closure(comm, &sim_cfg(), &chain(6))
        });
        let mut all: Vec<Tuple> = Vec::new();
        for out in &report.outcomes {
            let r = out.as_ref().expect("no panic").as_ref().unwrap();
            assert_eq!(r.epochs, 1);
            assert_eq!(r.view, vec![0, 1, 2, 3]);
            assert!(r.evicted.is_empty());
            assert_eq!(r.total_paths, expect.len() as u64);
            all.extend(r.local_paths.iter().copied());
        }
        all.sort_unstable();
        let mut want: Vec<Tuple> = expect.iter().copied().collect();
        want.sort_unstable();
        assert_eq!(all, want);
    }

    /// Forwards to `inner` and digests every data-plane `send_buf` payload
    /// in send order. Reserved tags (plan, failure detector, agreement) are
    /// left out: the detector's heartbeats follow the clock.
    struct Digesting<'a, C: Communicator + ?Sized> {
        inner: &'a C,
        sent: Mutex<Vec<(usize, Tag, u64)>>,
    }

    impl<C: Communicator + ?Sized> Communicator for Digesting<'_, C> {
        fn rank(&self) -> usize {
            self.inner.rank()
        }
        fn size(&self) -> usize {
            self.inner.size()
        }
        fn send_buf(&self, dest: usize, tag: Tag, buf: MsgBuf) -> CommResult<()> {
            if tag < RESERVED_TAG_BASE {
                let mut h = DefaultHasher::new();
                h.write(&buf);
                self.sent.lock().unwrap().push((dest, tag, h.finish()));
            }
            self.inner.send_buf(dest, tag, buf)
        }
        fn recv_match(
            &self,
            src: usize,
            tag: Tag,
            max_len: usize,
            timeout: Duration,
        ) -> CommResult<MsgBuf> {
            self.inner.recv_match(src, tag, max_len, timeout)
        }
        fn probe(&self, src: usize, tag: Tag) -> CommResult<Option<usize>> {
            self.inner.probe(src, tag)
        }
        fn now(&self) -> Duration {
            self.inner.now()
        }
        fn sleep(&self, d: Duration) {
            self.inner.sleep(d)
        }
        fn wait_arrival(&self, seen: u64, timeout: Duration) -> CommResult<u64> {
            self.inner.wait_arrival(seen, timeout)
        }
    }

    #[test]
    fn a_healthy_run_sends_the_same_bytes_every_time() {
        // Each run gets fresh rank threads, so a set keyed per thread (or per
        // instance) would hand the first round its tuples in another order.
        let edges = graph2_like(32, 80, 7);
        let run = || {
            ThreadComm::run(3, |comm| {
                let dc = Digesting { inner: comm, sent: Default::default() };
                let r = recovering_closure(&dc, &RecoveringConfig::default(), &edges).unwrap();
                assert_eq!(r.epochs, 1);
                dc.sent.into_inner().unwrap()
            })
        };
        let first = run();
        assert!(first.iter().all(|sent| sent.len() > 10), "{first:?}");
        assert_eq!(run(), first);
    }

    #[test]
    fn crash_mid_fixpoint_restarts_on_the_survivor_world() {
        // Rank 2 dies during the epoch-0 exchanges; survivors must converge
        // to the exact closure a fault-free run on the survivor world
        // produces (inputs are replicated, so nothing is lost).
        let p = 5;
        let dead = 2usize;
        let edges = chain(7);
        let expect = sequential_closure(&edges);
        let report = SimComm::try_run(p, &SimConfig::from_seed(13), move |comm| {
            let fc = FaultComm::new(comm, FaultPlan::new(6).with_crash(dead, 25));
            recovering_closure(&fc, &sim_cfg(), &chain(7))
        });
        let survivors: Vec<usize> = (0..p).filter(|&r| r != dead).collect();
        let mut all: Vec<Tuple> = Vec::new();
        for (rank, out) in report.outcomes.iter().enumerate() {
            let res = out.as_ref().expect("no panic");
            if rank == dead {
                assert!(res.is_err(), "dead rank must error, got {res:?}");
                continue;
            }
            let r = res.as_ref().unwrap();
            assert_eq!(r.view, survivors, "rank {rank}");
            assert_eq!(r.evicted, vec![dead], "rank {rank}");
            assert!(r.epochs >= 2, "rank {rank}: a restart must have happened");
            assert!(r.recovery_time > Duration::ZERO, "rank {rank}");
            assert_eq!(r.total_paths, expect.len() as u64, "rank {rank}");
            all.extend(r.local_paths.iter().copied());
        }
        all.sort_unstable();
        let mut want: Vec<Tuple> = expect.iter().copied().collect();
        want.sort_unstable();
        assert_eq!(all, want, "survivor shards must union to the full closure");
        // Shards must follow the dense numbering of the survivor world.
        for (rank, out) in report.outcomes.iter().enumerate() {
            if rank == dead {
                continue;
            }
            let r = out.as_ref().unwrap().as_ref().unwrap();
            let me_pos = survivors.iter().position(|&s| s == rank).unwrap();
            assert!(
                r.local_paths.iter().all(|t| owner(t.1, survivors.len()) == me_pos),
                "rank {rank}: shard keyed by dense survivor rank"
            );
        }
    }

    #[test]
    fn zero_payload_heal_shrinks_the_view() {
        // Exercise the heal path directly: rank 1 is already dead when the
        // heal runs, so the zero-payload exchange must evict it.
        let p = 4;
        let report = SimComm::try_run(p, &SimConfig::from_seed(2), move |comm| {
            let fc = FaultComm::new(comm, FaultPlan::new(3).with_crash(1, 0));
            let view: Vec<usize> = (0..p).collect();
            heal_membership(&fc, &sim_cfg(), &view)
        });
        for (rank, out) in report.outcomes.iter().enumerate() {
            let res = out.as_ref().expect("no panic");
            if rank == 1 {
                assert!(res.is_err());
            } else {
                let (got, _spent) = res.as_ref().unwrap();
                assert_eq!(got, &vec![0, 2, 3], "rank {rank}");
            }
        }
    }
}
