//! [`FaultComm`]: deterministic fault injection for testing recovery paths.
//!
//! This wrapper perturbs *delivery* and *timing*: it drops, duplicates,
//! corrupts, and delays messages, and can stall or crash a whole rank, all
//! according to a composable [`FaultPlan`].
//! Every decision is a pure function of `(seed, src, dest, per-edge message
//! index)` — never of wall-clock time or thread interleaving — so the same
//! plan injects the same fault sequence on every run, which is what makes
//! chaos soaks (`bruck-chaos`) reproducible and failures bisectable.
//!
//! The wrapper models a lossy *network*: faults apply to messages between
//! distinct ranks. Self-sends are process-local memory and pass through
//! unfaulted (local memory does not drop bytes).
//!
//! Recovery is someone else's job: layer [`crate::ReliableComm`] on top to
//! turn drop/duplicate/corrupt back into clean MPI semantics, and use the
//! deadline-aware receives to detect stalls and crashes.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use crate::{splitmix, CommError, CommResult, Communicator, MsgBuf, Tag};

/// Per-edge fault probabilities. All probabilities are in `[0, 1]` and are
/// evaluated independently per message, in the order delay → drop → corrupt
/// → duplicate (a delayed message may still be dropped; a corrupted one may
/// still be duplicated — duplicates carry the same corruption).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EdgeFaults {
    /// Probability a message is silently discarded.
    pub drop: f64,
    /// Probability a delivered message is delivered twice.
    pub duplicate: f64,
    /// Probability one payload byte is flipped in transit (empty payloads
    /// cannot corrupt).
    pub corrupt: f64,
    /// Probability the send is delayed (spin-yields before delivery), which
    /// reorders it relative to concurrent senders.
    pub delay: f64,
    /// Maximum yield iterations for a delayed send.
    pub max_delay_spins: u32,
}

/// A one-shot fault scripted against a specific rank's operation counter
/// (send/receive data operations, counted per rank). "Rank 3 crashes before
/// its 5th communication op" is `Crash { rank: 3, after_ops: 4 }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptedFault {
    /// The rank fails permanently once it has completed `after_ops` data
    /// operations: every subsequent operation returns
    /// [`CommError::RankFailed`] (the moral equivalent of the process dying).
    Crash {
        /// Rank that crashes.
        rank: usize,
        /// Data operations the rank completes before failing.
        after_ops: u64,
    },
    /// The rank sleeps once, at exactly its `after_ops`-th data operation —
    /// long enough to trip peers' deadlines without being dead.
    Stall {
        /// Rank that stalls.
        rank: usize,
        /// Data operation index at which the stall fires.
        after_ops: u64,
        /// Stall length in milliseconds.
        millis: u64,
    },
}

/// A composable, seeded description of what faults to inject.
///
/// Built with the `with_*` methods; consumed by [`FaultComm::new`]. The same
/// plan value injects the same fault sequence on every run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    default_edge: EdgeFaults,
    edges: Vec<((usize, usize), EdgeFaults)>,
    scripted: Vec<ScriptedFault>,
}

impl FaultPlan {
    /// A fault-free plan with the given seed. Compose faults with `with_*`.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, default_edge: EdgeFaults::default(), edges: Vec::new(), scripted: Vec::new() }
    }

    /// The seed all decisions derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Set the default per-message drop probability on every edge.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.default_edge.drop = p.clamp(0.0, 1.0);
        self
    }

    /// Set the default per-message duplication probability on every edge.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.default_edge.duplicate = p.clamp(0.0, 1.0);
        self
    }

    /// Set the default per-message corruption probability on every edge.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.default_edge.corrupt = p.clamp(0.0, 1.0);
        self
    }

    /// Set the default per-message delay probability and magnitude.
    pub fn with_delay(mut self, p: f64, max_spins: u32) -> Self {
        self.default_edge.delay = p.clamp(0.0, 1.0);
        self.default_edge.max_delay_spins = max_spins;
        self
    }

    /// Override the fault probabilities of one directed edge `src → dest`
    /// (takes precedence over the defaults).
    pub fn with_edge(mut self, src: usize, dest: usize, faults: EdgeFaults) -> Self {
        self.edges.push(((src, dest), faults));
        self
    }

    /// Script `rank` to crash after completing `after_ops` data operations.
    pub fn with_crash(mut self, rank: usize, after_ops: u64) -> Self {
        self.scripted.push(ScriptedFault::Crash { rank, after_ops });
        self
    }

    /// Script `rank` to stall for `millis` at its `after_ops`-th data op.
    pub fn with_stall(mut self, rank: usize, after_ops: u64, millis: u64) -> Self {
        self.scripted.push(ScriptedFault::Stall { rank, after_ops, millis });
        self
    }

    /// The effective fault probabilities for the directed edge `src → dest`.
    pub fn edge(&self, src: usize, dest: usize) -> EdgeFaults {
        self.edges
            .iter()
            .rev() // later overrides win
            .find(|((s, d), _)| *s == src && *d == dest)
            .map(|(_, f)| *f)
            .unwrap_or(self.default_edge)
    }

    /// True if the plan injects nothing (useful as a matrix baseline).
    pub fn is_benign(&self) -> bool {
        self.edges.is_empty()
            && self.scripted.is_empty()
            && self.default_edge == EdgeFaults::default()
    }
}

/// What [`FaultComm`] did to one message (or one rank), recorded in the
/// injection log for determinism assertions and failure forensics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Message discarded.
    Dropped,
    /// Message delivered twice.
    Duplicated,
    /// One payload byte flipped.
    Corrupted,
    /// Send delayed by this many spin-yields.
    Delayed(u32),
    /// This rank crashed (scripted).
    Crashed,
    /// This rank stalled for this many milliseconds (scripted).
    Stalled(u64),
}

/// One injected fault: what happened, to which message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The fault injected.
    pub kind: FaultKind,
    /// Destination rank of the affected message (this rank for
    /// `Crashed`/`Stalled`).
    pub dest: usize,
    /// Tag of the affected message (0 for rank-level faults).
    pub tag: Tag,
    /// Per-edge message index of the affected message (0 for rank-level
    /// faults).
    pub edge_msg: u64,
}

#[derive(Default)]
struct FaultState {
    /// Data operations performed by this rank (sends + receives).
    ops: u64,
    /// Messages sent per destination (the per-edge index fault draws key on).
    edge_msgs: BTreeMap<usize, u64>,
    /// Scripted stalls already fired (index into the plan's scripted list).
    fired: Vec<usize>,
    crashed: bool,
    log: Vec<FaultEvent>,
}

/// A fault-injecting wrapper around any [`Communicator`]. One wrapper per
/// rank; all ranks should be given the same [`FaultPlan`] value.
pub struct FaultComm<'a, C: Communicator + ?Sized> {
    inner: &'a C,
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

/// Uniform `[0, 1)` from a `u64` (53-bit mantissa path).
fn u01(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / 9007199254740992.0)
}

impl<'a, C: Communicator + ?Sized> FaultComm<'a, C> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: &'a C, plan: FaultPlan) -> Self {
        FaultComm { inner, plan, state: Mutex::new(FaultState::default()) }
    }

    /// The injection log so far, in this rank's program order. Per-edge
    /// subsequences are identical across runs with the same plan.
    pub fn log(&self) -> Vec<FaultEvent> {
        self.lock().log.clone()
    }

    /// Has this rank crashed (scripted)?
    pub fn is_crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Data-plane operations completed so far on this rank — the counter
    /// scripted faults key on. Run a scenario once fault-free and read this
    /// to calibrate `after_ops` thresholds that land a crash inside a
    /// specific protocol phase.
    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    fn lock(&self) -> MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The per-message decision key: a pure function of the plan seed and the
    /// message's (src, dest, per-edge index) coordinates. `salt` separates
    /// the independent draws made about one message.
    fn draw(&self, dest: usize, n: u64, salt: u64) -> f64 {
        let mut k = splitmix(self.plan.seed ^ (self.inner.rank() as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        k = splitmix(k ^ (dest as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25));
        k = splitmix(k ^ n.wrapping_mul(0x3C79_AC49_2BA7_B653));
        u01(splitmix(k ^ salt))
    }

    /// Account one data-plane operation: fail if crashed, fire scripted
    /// faults whose op threshold this operation crosses.
    fn data_op(&self) -> CommResult<()> {
        let me = self.inner.rank();
        let mut stall: Option<u64> = None;
        {
            let mut s = self.lock();
            if s.crashed {
                return Err(CommError::RankFailed { rank: me });
            }
            let k = s.ops;
            s.ops += 1;
            for (idx, f) in self.plan.scripted.iter().enumerate() {
                match *f {
                    ScriptedFault::Crash { rank, after_ops } if rank == me && k >= after_ops => {
                        s.crashed = true;
                        s.log.push(FaultEvent { kind: FaultKind::Crashed, dest: me, tag: 0, edge_msg: 0 });
                        return Err(CommError::RankFailed { rank: me });
                    }
                    ScriptedFault::Stall { rank, after_ops, millis }
                        if rank == me && k == after_ops && !s.fired.contains(&idx) =>
                    {
                        s.fired.push(idx);
                        s.log.push(FaultEvent {
                            kind: FaultKind::Stalled(millis),
                            dest: me,
                            tag: 0,
                            edge_msg: 0,
                        });
                        stall = Some(millis);
                    }
                    _ => {}
                }
            }
        }
        if let Some(millis) = stall {
            // Sleep outside the lock: a stalled rank must not block its own
            // mailbox bookkeeping (or the log readers). Taken on the inner
            // communicator's clock, so a stall under the deterministic
            // simulator costs virtual time, not wall-clock time.
            #[expect(clippy::disallowed_methods, reason = "the stall is the injected fault")]
            self.inner.sleep(Duration::from_millis(millis));
        }
        Ok(())
    }

    fn log_event(&self, kind: FaultKind, dest: usize, tag: Tag, edge_msg: u64) {
        self.lock().log.push(FaultEvent { kind, dest, tag, edge_msg });
    }
}

impl<C: Communicator + ?Sized> Communicator for FaultComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send_buf(&self, dest: usize, tag: Tag, buf: MsgBuf) -> CommResult<()> {
        self.data_op()?;
        let me = self.inner.rank();
        if dest == me {
            // Self-sends are process-local memory, not network traffic.
            return self.inner.send_buf(dest, tag, buf);
        }
        let n = {
            let mut s = self.lock();
            let counter = s.edge_msgs.entry(dest).or_insert(0);
            let n = *counter;
            *counter += 1;
            n
        };
        let faults = self.plan.edge(me, dest);

        if faults.delay > 0.0 && self.draw(dest, n, 1) < faults.delay {
            let spins =
                (self.draw(dest, n, 2) * f64::from(faults.max_delay_spins.max(1))) as u32 + 1;
            self.log_event(FaultKind::Delayed(spins), dest, tag, n);
            for _ in 0..spins {
                std::thread::yield_now();
            }
        }
        if faults.drop > 0.0 && self.draw(dest, n, 3) < faults.drop {
            self.log_event(FaultKind::Dropped, dest, tag, n);
            return Ok(());
        }
        let wire = if faults.corrupt > 0.0 && !buf.is_empty() && self.draw(dest, n, 4) < faults.corrupt
        {
            let x = splitmix(self.plan.seed ^ n.wrapping_mul(0x5851_F42D_4C95_7F2D));
            let mut bytes = buf.as_slice().to_vec();
            let idx = (x as usize) % bytes.len();
            bytes[idx] ^= ((x >> 17) as u8) | 1; // always a real flip
            self.log_event(FaultKind::Corrupted, dest, tag, n);
            MsgBuf::from_vec(bytes)
        } else {
            buf
        };
        self.inner.send_buf(dest, tag, wire.clone())?;
        if faults.duplicate > 0.0 && self.draw(dest, n, 5) < faults.duplicate {
            self.log_event(FaultKind::Duplicated, dest, tag, n);
            self.inner.send_buf(dest, tag, wire)?;
        }
        Ok(())
    }

    fn recv_match(
        &self,
        src: usize,
        tag: Tag,
        max_len: usize,
        timeout: Duration,
    ) -> CommResult<MsgBuf> {
        self.data_op()?;
        self.inner.recv_match(src, tag, max_len, timeout)
    }

    fn probe(&self, src: usize, tag: Tag) -> CommResult<Option<usize>> {
        // Probes are control-plane: no op accounting (recovery layers sweep
        // them at arbitrary rates), but a crashed rank stays crashed.
        if self.lock().crashed {
            return Err(CommError::RankFailed { rank: self.inner.rank() });
        }
        self.inner.probe(src, tag)
    }

    fn now(&self) -> Duration {
        self.inner.now()
    }

    #[expect(clippy::disallowed_methods, reason = "a wrapper forward; it waits for nothing")]
    fn sleep(&self, d: Duration) {
        self.inner.sleep(d)
    }

    fn wait_arrival(&self, seen: u64, timeout: Duration) -> CommResult<u64> {
        // Control-plane like `probe`: no op accounting, crashed stays crashed.
        if self.lock().crashed {
            return Err(CommError::RankFailed { rank: self.inner.rank() });
        }
        self.inner.wait_arrival(seen, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadComm;

    /// A fixed deterministic per-rank op sequence: every rank sends `k`
    /// messages to every other rank, then drains what actually arrived.
    fn scripted_traffic(comm: &FaultComm<'_, ThreadComm>, k: usize) -> Vec<FaultEvent> {
        let p = comm.size();
        let me = comm.rank();
        for round in 0..k {
            for dest in 0..p {
                if dest != me {
                    let _ = comm.send_buf(dest, 1, MsgBuf::copy_from_slice(&[round as u8; 8]));
                }
            }
        }
        comm.barrier_best_effort();
        comm.log()
    }

    impl FaultComm<'_, ThreadComm> {
        /// Drain every arrived message so worlds end clean (drops mean the
        /// count is unknown; consume whatever is present).
        fn barrier_best_effort(&self) {
            std::thread::sleep(Duration::from_millis(50));
            let me = self.inner.rank();
            for src in 0..self.inner.size() {
                if src == me {
                    continue;
                }
                while self.inner.probe(src, 1).unwrap().is_some() {
                    self.inner.recv_buf(src, 1).unwrap();
                }
            }
        }
    }

    #[test]
    fn same_seed_injects_the_same_fault_sequence() {
        // The determinism contract, in the spirit of
        // `shared_wrapper_advances_the_stream_atomically`: two runs under the
        // same plan produce identical per-rank injection logs, regardless of
        // how the OS interleaved the threads.
        let plan = FaultPlan::new(0xFA17)
            .with_drop(0.2)
            .with_duplicate(0.15)
            .with_corrupt(0.1)
            .with_delay(0.3, 32);
        let run = |plan: FaultPlan| {
            ThreadComm::run(5, move |comm| {
                let fc = FaultComm::new(comm, plan.clone());
                scripted_traffic(&fc, 40)
            })
        };
        let first = run(plan.clone());
        let second = run(plan);
        assert_eq!(first, second, "fault injection must be a pure function of the seed");
        // And the plan is actually injecting: every fault kind appears.
        let all: Vec<FaultKind> = first.iter().flatten().map(|e| e.kind).collect();
        for kind in [FaultKind::Dropped, FaultKind::Duplicated, FaultKind::Corrupted] {
            assert!(all.iter().any(|k| *k == kind), "expected some {kind:?} events");
        }
    }

    #[test]
    fn different_seeds_inject_different_sequences() {
        let mk = |seed| {
            ThreadComm::run(4, move |comm| {
                let fc = FaultComm::new(comm, FaultPlan::new(seed).with_drop(0.3));
                scripted_traffic(&fc, 30)
            })
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn crashed_rank_fails_every_subsequent_op() {
        ThreadComm::run(3, |comm| {
            let fc = FaultComm::new(comm, FaultPlan::new(0).with_crash(1, 2));
            let me = fc.rank();
            if me == 1 {
                // Two ops succeed, the third (and all after) fail.
                fc.send_buf(0, 1, MsgBuf::new()).unwrap();
                fc.send_buf(2, 1, MsgBuf::new()).unwrap();
                let err = fc.send_buf(0, 1, MsgBuf::new()).unwrap_err();
                assert_eq!(err, CommError::RankFailed { rank: 1 });
                assert!(fc.is_crashed());
                assert!(matches!(fc.probe(0, 1), Err(CommError::RankFailed { rank: 1 })));
                assert!(matches!(
                    fc.recv_buf_timeout(0, 9, Duration::from_millis(1)),
                    Err(CommError::RankFailed { rank: 1 })
                ));
            } else {
                // Consume the pre-crash messages so the world ends clean.
                fc.recv_buf(1, 1).unwrap();
            }
        });
    }

    #[test]
    fn self_sends_never_fault() {
        ThreadComm::run(2, |comm| {
            let fc = FaultComm::new(comm, FaultPlan::new(7).with_drop(1.0).with_corrupt(1.0));
            let payload = vec![9u8; 16];
            fc.send_buf(fc.rank(), 3, MsgBuf::copy_from_slice(&payload)).unwrap();
            assert_eq!(fc.recv_buf(fc.rank(), 3).unwrap().as_slice(), &payload[..]);
            assert!(fc.log().is_empty(), "self-edges are not network traffic");
        });
    }

    #[test]
    fn drop_one_discards_corrupt_one_flips() {
        ThreadComm::run(2, |comm| {
            let me = comm.rank();
            // Drop everything 0 → 1; deliver 1 → 0 corrupted.
            let plan = FaultPlan::new(3)
                .with_edge(0, 1, EdgeFaults { drop: 1.0, ..EdgeFaults::default() })
                .with_edge(1, 0, EdgeFaults { corrupt: 1.0, ..EdgeFaults::default() });
            let fc = FaultComm::new(comm, plan);
            if me == 0 {
                fc.send_buf(1, 1, MsgBuf::copy_from_slice(&[1, 2, 3])).unwrap();
                let got = fc.recv_buf(1, 1).unwrap();
                assert_eq!(got.len(), 3);
                assert_ne!(got.as_slice(), &[4, 5, 6], "must arrive corrupted");
            } else {
                fc.send_buf(0, 1, MsgBuf::copy_from_slice(&[4, 5, 6])).unwrap();
                // 0 → 1 was dropped: nothing ever arrives.
                assert!(matches!(
                    fc.recv_buf_timeout(0, 1, Duration::from_millis(30)),
                    Err(CommError::Timeout { src: 0, tag: 1, .. })
                ));
            }
        });
    }

    #[test]
    fn stall_delays_but_completes() {
        use std::time::Instant;
        ThreadComm::run(2, |comm| {
            let fc = FaultComm::new(comm, FaultPlan::new(0).with_stall(0, 0, 60));
            let start = Instant::now();
            if fc.rank() == 0 {
                fc.send_buf(1, 1, MsgBuf::new()).unwrap();
                assert!(start.elapsed() >= Duration::from_millis(60), "stall must fire");
            } else {
                fc.recv_buf(0, 1).unwrap();
            }
        });
    }
}
