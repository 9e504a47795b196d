//! Planned exchanges: amortize the counts handshake across repeated
//! all-to-alls with a fixed (or slowly changing) load — the idea behind
//! Jackson & Booth's *planned AlltoAllv* (related work §6 of the paper), and
//! the natural API for fixpoint applications whose counts only change every
//! iteration.
//!
//! An [`ExchangePlan`] captures the `(sendcounts, recvcounts)` pair once;
//! [`ExchangePlan::displs`] are derived packed offsets. Executing the plan is
//! the caller's choice of algorithm (`bruck-core` takes the same arrays), so
//! this type is algorithm-agnostic and lives with the runtime.
//!
//! ## Handshake hygiene
//!
//! Negotiation is a pairwise count exchange. Two things can poison it:
//! a *stale* count message left over from an earlier negotiate that errored
//! mid-handshake, and the *orphans* a failing negotiate itself leaves behind.
//! [`ExchangePlan::negotiate_isolated`] addresses both — each plan instance
//! runs its handshake on its own tag (so a new negotiation can never match an
//! old instance's strays), and on error it drains whatever count messages for
//! this instance have already arrived, so the failure does not strand
//! messages for the next user of the communicator.

use crate::{CommError, CommResult, Communicator, MsgBuf, Tag, RESERVED_TAG_BASE};

/// First tag of the reserved block used by per-instance plan handshakes.
const PLAN_TAG_BASE: Tag = RESERVED_TAG_BASE + 0x1000;
/// Number of distinct plan-instance tags before reuse wraps around.
const PLAN_TAG_SPAN: u32 = 0x100;

/// A reusable non-uniform exchange plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangePlan {
    sendcounts: Vec<usize>,
    sdispls: Vec<usize>,
    recvcounts: Vec<usize>,
    rdispls: Vec<usize>,
}

/// Exclusive prefix sum with overflow checking: adversarial counts (e.g. two
/// `usize::MAX / 2` blocks) must surface as an error, not a wrapped
/// displacement that silently aliases earlier blocks.
fn packed(counts: &[usize]) -> CommResult<Vec<usize>> {
    let mut displs = Vec::with_capacity(counts.len());
    let mut at = 0usize;
    for &c in counts {
        displs.push(at);
        at = at
            .checked_add(c)
            .ok_or(CommError::BadArgument("displacement prefix sum overflows usize"))?;
    }
    Ok(displs)
}

impl ExchangePlan {
    /// Build a plan collectively: runs the counts handshake once so every
    /// rank learns its receive counts. Equivalent to
    /// [`ExchangePlan::negotiate_isolated`] with instance 0.
    pub fn negotiate<C: Communicator + ?Sized>(
        comm: &C,
        sendcounts: Vec<usize>,
    ) -> CommResult<Self> {
        Self::negotiate_isolated(comm, sendcounts, 0)
    }

    /// Build a plan collectively on a per-instance handshake tag.
    ///
    /// All ranks must pass the same `instance`. Distinct instances use
    /// distinct tags (modulo a reuse window of 256), so a negotiation that
    /// errored mid-handshake — leaving count messages in flight — cannot
    /// poison a later negotiation that uses a fresh instance number. On any
    /// handshake error this rank additionally drains already-arrived count
    /// messages for *this* instance before returning, so they are not
    /// stranded in the mailbox.
    pub fn negotiate_isolated<C: Communicator + ?Sized>(
        comm: &C,
        sendcounts: Vec<usize>,
        instance: u32,
    ) -> CommResult<Self> {
        if sendcounts.len() != comm.size() {
            return Err(CommError::BadArgument("sendcounts.len() != size"));
        }
        let tag = PLAN_TAG_BASE + (instance % PLAN_TAG_SPAN);
        match Self::handshake(comm, &sendcounts, tag) {
            Ok(recvcounts) => Self::from_counts(sendcounts, recvcounts),
            Err(e) => {
                Self::drain_instance(comm, tag);
                Err(e)
            }
        }
    }

    /// The pairwise count exchange on an instance tag (same schedule as
    /// [`Communicator::alltoall_counts`]).
    fn handshake<C: Communicator + ?Sized>(
        comm: &C,
        sendcounts: &[usize],
        tag: Tag,
    ) -> CommResult<Vec<usize>> {
        let p = comm.size();
        let me = comm.rank();
        let mut recvcounts = vec![0usize; p];
        recvcounts[me] = sendcounts[me];
        for i in 1..p {
            let dest = (me + i) % p;
            let src = (me + p - i) % p;
            comm.send_buf(
                dest,
                tag,
                MsgBuf::from_vec((sendcounts[dest] as u64).to_le_bytes().to_vec()),
            )?;
            let got = comm.recv_buf(src, tag)?;
            let bytes: [u8; 8] = got.as_slice().try_into().map_err(|_| {
                CommError::BadArgument("malformed count message (stale or corrupt handshake)")
            })?;
            recvcounts[src] = u64::from_le_bytes(bytes) as usize;
        }
        Ok(recvcounts)
    }

    /// Best-effort drain of already-arrived count messages on this instance's
    /// tag. Deliberately fallible-silent: we are already on an error path,
    /// and a peer may legitimately not have sent yet (those messages are
    /// unreachable until they arrive; the per-instance tag keeps them from
    /// matching anyone else).
    fn drain_instance<C: Communicator + ?Sized>(comm: &C, tag: Tag) {
        let me = comm.rank();
        for src in 0..comm.size() {
            if src == me {
                continue;
            }
            while let Ok(Some(_)) = comm.probe(src, tag) {
                if comm.recv_buf(src, tag).is_err() {
                    break;
                }
            }
        }
    }

    /// Build a plan from already-known counts (no communication). Errors if
    /// either packed layout's total size overflows `usize`.
    pub fn from_counts(sendcounts: Vec<usize>, recvcounts: Vec<usize>) -> CommResult<Self> {
        let sdispls = packed(&sendcounts)?;
        let rdispls = packed(&recvcounts)?;
        Ok(ExchangePlan { sendcounts, sdispls, recvcounts, rdispls })
    }

    /// Send counts per destination.
    pub fn sendcounts(&self) -> &[usize] {
        &self.sendcounts
    }

    /// Packed send displacements.
    pub fn sdispls(&self) -> &[usize] {
        &self.sdispls
    }

    /// Receive counts per source.
    pub fn recvcounts(&self) -> &[usize] {
        &self.recvcounts
    }

    /// Packed receive displacements.
    pub fn rdispls(&self) -> &[usize] {
        &self.rdispls
    }

    /// Total bytes this rank sends under the plan.
    pub fn send_bytes(&self) -> usize {
        self.sendcounts.iter().sum()
    }

    /// Total bytes this rank receives under the plan.
    pub fn recv_bytes(&self) -> usize {
        self.recvcounts.iter().sum()
    }

    /// Allocate a receive buffer sized for the plan.
    pub fn alloc_recvbuf(&self) -> Vec<u8> {
        vec![0u8; self.recv_bytes()]
    }

    /// Project a negotiated plan onto a shrunken world: keep only the rows
    /// and columns of ranks whose `alive` flag is set, in rank order, and
    /// re-pack the displacements densely. This remaps pending plan state
    /// across a membership repair (`crate::ShrinkComm`) **without a fresh
    /// counts handshake** — the surviving pairwise counts were already
    /// agreed in the dead epoch's negotiation and do not change when
    /// bystanders are evicted.
    ///
    /// `alive.len()` must equal the plan's world size and must keep at
    /// least one rank.
    pub fn remap_survivors(&self, alive: &[bool]) -> CommResult<ExchangePlan> {
        if alive.len() != self.sendcounts.len() {
            return Err(CommError::BadArgument("alive mask length != plan world size"));
        }
        if !alive.iter().any(|&a| a) {
            return Err(CommError::BadArgument("alive mask keeps no ranks"));
        }
        let keep = |counts: &[usize]| -> Vec<usize> {
            counts
                .iter()
                .zip(alive)
                .filter_map(|(&c, &a)| if a { Some(c) } else { None })
                .collect()
        };
        ExchangePlan::from_counts(keep(&self.sendcounts), keep(&self.recvcounts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Communicator, ThreadComm};

    #[test]
    fn negotiate_learns_the_transpose() {
        let p = 5;
        let plans = ThreadComm::run(p, |comm| {
            let me = comm.rank();
            let sendcounts: Vec<usize> = (0..p).map(|d| me * 10 + d).collect();
            ExchangePlan::negotiate(comm, sendcounts).unwrap()
        });
        for (me, plan) in plans.iter().enumerate() {
            for src in 0..p {
                assert_eq!(plan.recvcounts()[src], src * 10 + me);
            }
            assert_eq!(plan.sdispls()[0], 0);
            assert_eq!(plan.rdispls()[1], plan.recvcounts()[0]);
            assert_eq!(plan.recv_bytes(), plan.recvcounts().iter().sum::<usize>());
            assert_eq!(plan.alloc_recvbuf().len(), plan.recv_bytes());
        }
    }

    #[test]
    fn negotiate_rejects_wrong_length() {
        ThreadComm::run(2, |comm| {
            if comm.rank() == 0 {
                assert!(ExchangePlan::negotiate(comm, vec![1, 2, 3]).is_err());
            }
            // Rank 1 takes the valid path so nothing is left hanging.
        });
    }

    #[test]
    fn from_counts_is_pure() {
        let plan = ExchangePlan::from_counts(vec![2, 0, 3], vec![1, 1, 1]).unwrap();
        assert_eq!(plan.sdispls(), &[0, 2, 2]);
        assert_eq!(plan.rdispls(), &[0, 1, 2]);
        assert_eq!(plan.send_bytes(), 5);
        assert_eq!(plan.recv_bytes(), 3);
    }

    #[test]
    fn remap_survivors_projects_counts_and_repacks() {
        let plan =
            ExchangePlan::from_counts(vec![3, 5, 7, 2, 4], vec![10, 0, 6, 1, 9]).unwrap();
        // Evict ranks 1 and 3.
        let alive = [true, false, true, false, true];
        let shrunk = plan.remap_survivors(&alive).unwrap();
        assert_eq!(shrunk.sendcounts(), &[3, 7, 4]);
        assert_eq!(shrunk.recvcounts(), &[10, 6, 9]);
        assert_eq!(shrunk.sdispls(), &[0, 3, 10]);
        assert_eq!(shrunk.rdispls(), &[0, 10, 16]);
        assert!(plan.remap_survivors(&[true, false]).is_err(), "wrong length");
        assert!(plan.remap_survivors(&[false; 5]).is_err(), "empty world");
    }

    #[test]
    fn displacement_invariants_hold() {
        // The invariants every consumer (bruck-core's validate_v, the
        // bruck-check layout pass) relies on: packed displacements start at
        // zero, advance by exactly the preceding count (so blocks are
        // adjacent and non-overlapping), and end at the total byte count.
        let sendcounts = vec![3usize, 0, 7, 1, 0, 5];
        let recvcounts = vec![2usize, 2, 2, 0, 9, 1];
        let plan = ExchangePlan::from_counts(sendcounts.clone(), recvcounts.clone()).unwrap();
        for (counts, displs, total) in [
            (&sendcounts, plan.sdispls(), plan.send_bytes()),
            (&recvcounts, plan.rdispls(), plan.recv_bytes()),
        ] {
            assert_eq!(displs[0], 0);
            for i in 1..counts.len() {
                assert_eq!(displs[i], displs[i - 1] + counts[i - 1], "block {i} adjacency");
            }
            assert_eq!(displs[counts.len() - 1] + counts[counts.len() - 1], total);
        }
    }

    #[test]
    fn stale_messages_cannot_poison_a_new_instance() {
        // Regression: a count message stranded by an (aborted) instance-0
        // negotiation must not be matched by a later negotiation that uses a
        // fresh instance number.
        ThreadComm::run(2, |comm| {
            let me = comm.rank();
            if me == 1 {
                // Forge the orphan: an instance-0 count that nobody consumed.
                comm.send(0, PLAN_TAG_BASE, &999u64.to_le_bytes()).unwrap();
            }
            comm.barrier().unwrap();
            let plan =
                ExchangePlan::negotiate_isolated(comm, vec![me + 1, me + 2], 1).unwrap();
            if me == 0 {
                assert_eq!(plan.recvcounts(), &[1, 2], "must not see the stale 999");
                // The stale instance-0 message is still sitting there, intact.
                assert_eq!(comm.recv(1, PLAN_TAG_BASE).unwrap(), 999u64.to_le_bytes());
            } else {
                assert_eq!(plan.recvcounts(), &[2, 3]);
            }
        });
    }

    #[test]
    fn failed_negotiate_drains_its_instance_messages() {
        // Regression: when the handshake errors mid-way, count messages for
        // this instance that already arrived must be consumed, not stranded.
        // Without the drain, rank 1's second message below would outlive the
        // failed negotiation and the world would end dirty.
        let world = crate::World::new(3);
        let tag = PLAN_TAG_BASE + 7;
        std::thread::scope(|s| {
            let w = &world;
            s.spawn(move || {
                let comm = ThreadComm::new(w.clone(), 0);
                comm.barrier().unwrap();
                let err =
                    ExchangePlan::negotiate_isolated(&comm, vec![1, 1, 1], 7).unwrap_err();
                assert!(matches!(err, CommError::BadArgument(_)), "typed error, got {err:?}");
            });
            s.spawn(move || {
                let comm = ThreadComm::new(w.clone(), 1);
                // Garbage first (FIFO: this is what rank 0's handshake reads),
                // then a valid count that only the error-path drain will eat.
                comm.send(0, tag, &[1, 2, 3]).unwrap();
                comm.send(0, tag, &42u64.to_le_bytes()).unwrap();
                comm.barrier().unwrap();
                comm.recv(0, tag).unwrap(); // rank 0's step-1 count send
            });
            s.spawn(move || {
                let comm = ThreadComm::new(w.clone(), 2);
                comm.send(0, tag, &7u64.to_le_bytes()).unwrap();
                comm.barrier().unwrap();
                comm.recv(0, tag).unwrap(); // rank 0's step-2 count send
            });
        });
        assert_eq!(world.pending_messages(), 0, "drain must leave no orphans");
    }

    #[test]
    fn overflowing_counts_are_rejected() {
        let huge = vec![usize::MAX / 2 + 1, usize::MAX / 2 + 1];
        assert!(ExchangePlan::from_counts(huge.clone(), vec![0, 0]).is_err());
        assert!(ExchangePlan::from_counts(vec![0, 0], huge).is_err());
        // A single maximal block is fine: the *sum past it* is what overflows.
        assert!(ExchangePlan::from_counts(vec![usize::MAX, 0], vec![0, 0]).is_ok());
        assert!(ExchangePlan::from_counts(vec![0, usize::MAX], vec![0, 0]).is_ok());
    }
}
