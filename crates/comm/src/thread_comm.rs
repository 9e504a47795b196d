//! [`ThreadComm`]: the real, threaded backend.
//!
//! One OS thread per rank ("MPI everywhere": the paper maps one MPI rank per
//! core; we map one rank per thread). All ranks share a [`World`] holding the
//! per-rank mailboxes; a send is a queue push of a shared [`MsgBuf`] view into
//! the destination's mailbox — a reference-count bump, not a payload copy.

use std::sync::Arc;

use crate::mailbox::{Mailbox, StoreStats};
use crate::{CommResult, Communicator, MsgBuf, Tag};

/// Render a rank closure's panic payload for rank-attributed propagation.
pub(crate) fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Shared state of one communicator: the mailboxes of all ranks plus the
/// world-level message accounting.
pub struct World {
    mailboxes: Vec<Mailbox>,
    stats: Arc<StoreStats>,
}

impl World {
    /// Create a world for `size` ranks.
    pub fn new(size: usize) -> Arc<Self> {
        assert!(size > 0, "communicator must have at least one rank");
        let stats = StoreStats::new();
        Arc::new(World {
            mailboxes: (0..size).map(|_| Mailbox::with_stats(Arc::clone(&stats))).collect(),
            stats,
        })
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.mailboxes.len()
    }

    /// Undelivered messages across all ranks (should be 0 after a well-formed
    /// SPMD region completes; used by leak tests).
    ///
    /// O(1): reads the shared atomic maintained on every deposit/pop, rather
    /// than sweeping P mailbox locks (which at P = 32k used to cost more than
    /// the run being checked).
    pub fn pending_messages(&self) -> usize {
        self.stats.pending()
    }

    /// Match-map keys left behind by drained queues across all ranks: 0 by
    /// construction (a key is one message and leaves with it). Leak checks
    /// add it to [`World::pending_messages`].
    pub fn dead_match_keys(&self) -> usize {
        self.stats.dead_keys()
    }

    /// Total messages ever deposited in this world (throughput accounting).
    pub fn total_messages(&self) -> usize {
        self.stats.deposited()
    }

    /// O(P) structural sweep counting undelivered messages directly in the
    /// match maps. Cross-checks [`World::pending_messages`] in tests; prefer
    /// the O(1) form everywhere else.
    #[cfg(test)]
    fn pending_messages_scan(&self) -> usize {
        self.mailboxes.iter().map(Mailbox::pending).sum()
    }
}

/// One rank's handle onto a [`World`]. Cheap to clone-construct per thread.
pub struct ThreadComm {
    world: Arc<World>,
    rank: usize,
}

impl ThreadComm {
    /// A handle for `rank` in `world`.
    pub fn new(world: Arc<World>, rank: usize) -> Self {
        assert!(rank < world.size(), "rank {rank} out of range");
        ThreadComm { world, rank }
    }

    /// Run an SPMD region: spawn `size` threads, each executing `f` with its
    /// own rank's communicator, and return the per-rank results in rank order.
    ///
    /// This is the moral equivalent of `mpiexec -n <size>`. Threads get a
    /// modest stack (2 MiB) so that runs with hundreds of ranks stay cheap.
    ///
    /// # Panics
    /// Propagates a panic from any rank — after *all* threads are joined, and
    /// with the failing rank's id prefixed to the message (`rank <i>
    /// panicked: …`), because at hundreds of ranks a bare join error is
    /// undebuggable.
    pub fn run<T, F>(size: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&ThreadComm) -> T + Sync,
    {
        Self::run_with_stack(size, 2 << 20, f)
    }

    /// [`ThreadComm::run`] with an explicit per-rank stack size in bytes.
    pub fn run_with_stack<T, F>(size: usize, stack: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&ThreadComm) -> T + Sync,
    {
        let world = World::new(size);
        let f = &f;
        std::thread::scope(|scope| {
            #[expect(clippy::disallowed_methods, reason = "the rank-per-thread backend, by design")]
            #[expect(clippy::expect_used, reason = "`run` has no error path for a failed spawn")]
            let handles: Vec<_> = (0..size)
                .map(|rank| {
                    let world = Arc::clone(&world);
                    std::thread::Builder::new()
                        .name(format!("rank-{rank}"))
                        .stack_size(stack)
                        .spawn_scoped(scope, move || {
                            let comm = ThreadComm::new(world, rank);
                            f(&comm)
                        })
                        .expect("failed to spawn rank thread")
                })
                .collect();
            // Join *every* thread before propagating any panic: unwinding
            // out of the scope with panicked-but-unjoined threads would turn
            // one rank's bug into a double panic (process abort).
            let outcomes: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            let mut results = Vec::with_capacity(size);
            for (rank, outcome) in outcomes.into_iter().enumerate() {
                match outcome {
                    Ok(v) => results.push(v),
                    Err(payload) => {
                        panic!("rank {rank} panicked: {}", describe_panic(payload.as_ref()))
                    }
                }
            }
            results
        })
    }

    /// The shared world (for diagnostics).
    pub fn world(&self) -> &World {
        &self.world
    }
}

impl Communicator for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.world.size()
    }

    fn send_buf(&self, dest: usize, tag: Tag, buf: MsgBuf) -> CommResult<()> {
        self.check_rank(dest)?;
        self.world.mailboxes[dest].push(self.rank, tag, buf);
        Ok(())
    }

    fn recv_match(
        &self,
        src: usize,
        tag: Tag,
        max_len: usize,
        timeout: std::time::Duration,
    ) -> CommResult<MsgBuf> {
        self.check_rank(src)?;
        // Parks on the mailbox condvar (no polling), waking on arrival or
        // deadline; the length check happens under the mailbox lock.
        self.world.mailboxes[self.rank].pop(src, tag, max_len, timeout)
    }

    fn probe(&self, src: usize, tag: Tag) -> CommResult<Option<usize>> {
        self.check_rank(src)?;
        Ok(self.world.mailboxes[self.rank].probe(src, tag))
    }

    fn now(&self) -> std::time::Duration {
        crate::clock::wall_now()
    }

    fn sleep(&self, d: std::time::Duration) {
        crate::clock::wall_sleep(d)
    }

    fn wait_arrival(&self, seen: u64, timeout: std::time::Duration) -> CommResult<u64> {
        // Parks on the mailbox condvar every deposit notifies.
        Ok(self.world.mailboxes[self.rank].wait_arrival(seen, timeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CommError, ReduceOp};

    #[test]
    fn ring_pass_all_sizes() {
        for p in [1usize, 2, 3, 5, 8, 13] {
            let results = ThreadComm::run(p, |comm| {
                let me = comm.rank();
                let right = (me + 1) % comm.size();
                let left = (me + comm.size() - 1) % comm.size();
                comm.send(right, 5, &[me as u8]).unwrap();
                comm.recv(left, 5).unwrap()[0] as usize
            });
            for (me, got) in results.iter().enumerate() {
                assert_eq!(*got, (me + p - 1) % p);
            }
        }
    }

    #[test]
    fn self_send_works() {
        let r = ThreadComm::run(3, |comm| {
            comm.send(comm.rank(), 9, &[comm.rank() as u8 + 10]).unwrap();
            comm.recv(comm.rank(), 9).unwrap()[0]
        });
        assert_eq!(r, vec![10, 11, 12]);
    }

    #[test]
    fn send_buf_transfers_the_view_without_copying() {
        let ptrs = ThreadComm::run(2, |comm| {
            if comm.rank() == 0 {
                let region = MsgBuf::from_vec((0u8..64).collect());
                let ptr = region.as_slice().as_ptr() as usize;
                comm.send_buf(1, 0, region.slice(16..48)).unwrap();
                (ptr, 0)
            } else {
                let got = comm.recv_buf(0, 0).unwrap();
                assert_eq!(got, (16u8..48).collect::<Vec<u8>>());
                (0, got.as_slice().as_ptr() as usize)
            }
        });
        // The receiver's view aliases the sender's packed region.
        assert_eq!(ptrs[0].0 + 16, ptrs[1].1);
    }

    #[test]
    fn truncated_recv_is_non_destructive() {
        // Regression test: recv_into used to pop-then-error, silently
        // dropping the message it claimed to leave queued.
        ThreadComm::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, &(0u8..16).collect::<Vec<u8>>()).unwrap();
            } else {
                let mut small = [0u8; 4];
                let err = comm.recv_into(0, 0, &mut small).unwrap_err();
                assert_eq!(err, CommError::Truncated { message_len: 16, buffer_len: 4 });
                // The message must still be there: retry with room succeeds.
                let mut big = [0u8; 16];
                let n = comm.recv_into(0, 0, &mut big).unwrap();
                assert_eq!(n, 16);
                assert_eq!(big.to_vec(), (0u8..16).collect::<Vec<u8>>());
                assert_eq!(comm.world().pending_messages(), 0);
            }
        });
    }

    #[test]
    fn invalid_rank_errors() {
        ThreadComm::run(2, |comm| {
            assert!(matches!(comm.send(5, 0, &[]), Err(CommError::InvalidRank { rank: 5, size: 2 })));
            assert!(matches!(comm.probe(9, 0), Err(CommError::InvalidRank { rank: 9, size: 2 })));
        });
    }

    #[test]
    fn recv_timeout_errors_then_delivers() {
        use std::time::Duration;
        ThreadComm::run(2, |comm| {
            if comm.rank() == 0 {
                // Nothing sent yet: a typed Timeout naming (src, tag, waited).
                let err = comm.recv_timeout(1, 9, Duration::from_millis(20)).unwrap_err();
                match err {
                    CommError::Timeout { src: 1, tag: 9, waited } => {
                        assert!(waited >= Duration::from_millis(20));
                    }
                    other => panic!("expected Timeout, got {other:?}"),
                }
                comm.send(1, 1, &[0]).unwrap(); // release rank 1
                let got = comm.recv_timeout(1, 9, Duration::from_secs(5)).unwrap();
                assert_eq!(got, vec![42]);
            } else {
                comm.recv(0, 1).unwrap();
                comm.send(0, 9, &[42]).unwrap();
            }
        });
    }

    #[test]
    fn barrier_all_sizes() {
        for p in [1usize, 2, 3, 4, 7, 16, 33] {
            ThreadComm::run(p, |comm| {
                for _ in 0..3 {
                    comm.barrier().unwrap();
                }
            });
        }
    }

    #[test]
    fn alltoall_counts_is_transpose() {
        for p in [1usize, 2, 3, 4, 7, 16] {
            let out = ThreadComm::run(p, |comm| {
                let me = comm.rank();
                // sendcounts[d] encodes (me, d) so we can check the transpose.
                let counts: Vec<usize> = (0..p).map(|d| me * 1000 + d).collect();
                comm.alltoall_counts(&counts).unwrap()
            });
            for (me, got) in out.iter().enumerate() {
                for (src, &c) in got.iter().enumerate() {
                    assert_eq!(c, src * 1000 + me, "p={p} me={me} src={src}");
                }
            }
        }
    }

    #[test]
    fn nonovertaking_same_tag() {
        ThreadComm::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..100u8 {
                    comm.send(1, 3, &[i]).unwrap();
                }
            } else {
                for i in 0..100u8 {
                    assert_eq!(comm.recv(0, 3).unwrap(), vec![i]);
                }
            }
        });
    }

    #[test]
    fn no_leaked_messages_after_collectives() {
        let world = World::new(6);
        std::thread::scope(|scope| {
            for rank in 0..6 {
                let world = Arc::clone(&world);
                scope.spawn(move || {
                    let comm = ThreadComm::new(world, rank);
                    comm.barrier().unwrap();
                    comm.allreduce_u64(comm.rank() as u64, ReduceOp::Sum).unwrap();
                    comm.barrier().unwrap();
                });
            }
        });
        // Every message sent by the collectives must have been consumed.
        assert_eq!(world.pending_messages(), 0);
        assert_eq!(world.dead_match_keys(), 0);
        // The O(1) counter agrees with the O(P) structural sweep.
        assert_eq!(world.pending_messages_scan(), 0);
        assert!(world.total_messages() > 0, "collectives must have moved messages");
    }

    #[test]
    fn atomic_counters_match_structural_scan_mid_flight() {
        // Deposit without receiving: the cheap counters and the structural
        // sweeps must agree on the in-flight message count.
        let world = World::new(4);
        std::thread::scope(|scope| {
            for rank in 0..4 {
                let world = Arc::clone(&world);
                scope.spawn(move || {
                    let comm = ThreadComm::new(world, rank);
                    for dst in 0..4 {
                        comm.send(dst, 7, &[rank as u8]).unwrap();
                    }
                });
            }
        });
        assert_eq!(world.pending_messages(), 16);
        assert_eq!(world.pending_messages_scan(), 16);
        assert_eq!(world.total_messages(), 16);
        assert_eq!(world.dead_match_keys(), 0);
    }

    #[test]
    fn rank_panic_propagates_with_rank_id() {
        let caught = std::panic::catch_unwind(|| {
            ThreadComm::run(4, |comm| {
                if comm.rank() == 2 {
                    panic!("injected bug");
                }
                // Other ranks return immediately; run must join them all
                // before propagating rank 2's panic.
                comm.rank()
            })
        });
        let payload = caught.expect_err("rank 2 panicked");
        let msg = describe_panic(payload.as_ref());
        assert!(msg.contains("rank 2 panicked"), "missing rank id: {msg}");
        assert!(msg.contains("injected bug"), "missing original message: {msg}");
    }
}
