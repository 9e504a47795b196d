//! Subcommunicators: `MPI_Comm_split` for the threaded runtime.
//!
//! A [`SubComm`] presents a contiguous `0..size` rank space over a subset of
//! a parent communicator's ranks. Traffic is isolated from the parent (and
//! from sibling groups that happen to reuse a rank pair, which cannot occur
//! under a partition split, but can across *successive* splits) by folding a
//! context id into the message tag, the same role MPI's communicator
//! contexts play.

use std::time::Duration;

use crate::splitmix;
use crate::{CommError, CommResult, Communicator, MsgBuf, Tag};

/// Bits of the tag reserved for the subcommunicator context.
const CTX_SHIFT: u32 = 24;
/// Maximum user tag usable through a [`SubComm`].
pub const SUBCOMM_MAX_TAG: Tag = 1 << CTX_SHIFT;
const CTX_MASK: Tag = 0x3F;

/// A view of a subset of a parent communicator's ranks.
pub struct SubComm<'a, C: Communicator + ?Sized> {
    parent: &'a C,
    /// Parent ranks of the members, in subcommunicator rank order.
    members: Vec<usize>,
    /// This rank's position in `members`.
    my_index: usize,
    /// Context id folded into tags (derived from the split color).
    ctx: Tag,
}

impl<'a, C: Communicator + ?Sized> SubComm<'a, C> {
    /// Collective split: ranks with equal `color` form one subcommunicator,
    /// ordered by `(key, parent rank)` — the `MPI_Comm_split` contract.
    ///
    /// Every rank of `parent` must call this (it allgathers the colors).
    pub fn split(parent: &'a C, color: u64, key: u64) -> CommResult<Self> {
        let me = parent.rank();
        // Pack (color-hash collisions are fine for grouping — we compare the
        // actual color values gathered below).
        let colors = parent.allgather_u64(color)?;
        let keys = parent.allgather_u64(key)?;
        let mut members: Vec<usize> =
            (0..parent.size()).filter(|&r| colors[r] == color).collect();
        members.sort_by_key(|&r| (keys[r], r));
        #[expect(clippy::expect_used, reason = "`members` includes this rank")]
        let my_index =
            members.iter().position(|&r| r == me).expect("caller is a member of its own color");
        // Context: derived from the color so sibling groups differ; 6 bits,
        // never 0 (0 is effectively the parent's own context).
        let ctx = ((splitmix(color) as Tag) & CTX_MASK).max(1);
        Ok(SubComm { parent, members, my_index, ctx })
    }

    /// Build from an explicit member list (every member must call this with
    /// the same list and a matching `ctx`). Useful for leader groups.
    pub fn from_members(parent: &'a C, members: Vec<usize>, ctx: Tag) -> CommResult<Self> {
        let me = parent.rank();
        let my_index = members
            .iter()
            .position(|&r| r == me)
            .ok_or(CommError::BadArgument("caller not in member list"))?;
        for &m in &members {
            parent.check_rank(m)?;
        }
        Ok(SubComm { parent, members, my_index, ctx: ctx & CTX_MASK })
    }

    /// The member list (parent ranks, in subcommunicator order).
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    fn map_tag(&self, tag: Tag) -> CommResult<Tag> {
        if tag >= crate::RESERVED_TAG_BASE {
            // Internal collective tags keep their reserved range but are
            // contexted in the bits below it.
            Ok(tag ^ (self.ctx << CTX_SHIFT))
        } else if tag >= SUBCOMM_MAX_TAG {
            Err(CommError::BadArgument("subcommunicator tags must be below 1 << 24"))
        } else {
            Ok(tag | (self.ctx << CTX_SHIFT))
        }
    }
}

/// The repaired communicator after a membership shrink: survivors of an
/// agreed eviction ([`crate::agree_survivors`]) renumbered into a dense
/// `0..survivors.len()` world over the original parent communicator.
///
/// This is [`SubComm`] machinery with recovery semantics layered on:
///
/// * The member list is the **agreed survivor set** — every survivor builds
///   the identical communicator from [`crate::AgreeOutcome::survivors`]
///   with no further handshake (agreement already synchronized the view;
///   a collective split here could itself trip over the dead ranks).
/// * The tag context is derived from the **membership epoch**
///   (`(epoch mod 63) + 1`), so consecutive epochs always map the same
///   logical tag to different wire tags: straggler traffic from the epoch
///   that died can never be matched by the repaired world's exchanges.
///
/// Dense rank `i` is `survivors[i]`; a recovering operation rebuilds its
/// per-destination state from that list on every attempt.
pub struct ShrinkComm<'a, C: Communicator + ?Sized> {
    sub: SubComm<'a, C>,
}

impl<'a, C: Communicator + ?Sized> ShrinkComm<'a, C> {
    /// Build the epoch-`epoch` repaired world over `parent` from the agreed
    /// `survivors` (sorted parent ranks; must include the caller). Purely
    /// local — no communication.
    pub fn new(parent: &'a C, survivors: Vec<usize>, epoch: u32) -> CommResult<Self> {
        if survivors.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CommError::BadArgument("survivors must be sorted and unique"));
        }
        let ctx = (epoch % 63) + 1;
        let sub = SubComm::from_members(parent, survivors, ctx)?;
        Ok(ShrinkComm { sub })
    }
}

impl<C: Communicator + ?Sized> Communicator for ShrinkComm<'_, C> {
    fn rank(&self) -> usize {
        self.sub.rank()
    }

    fn size(&self) -> usize {
        self.sub.size()
    }

    fn send_buf(&self, dest: usize, tag: Tag, buf: MsgBuf) -> CommResult<()> {
        self.sub.send_buf(dest, tag, buf)
    }

    fn recv_match(
        &self,
        src: usize,
        tag: Tag,
        max_len: usize,
        timeout: Duration,
    ) -> CommResult<MsgBuf> {
        self.sub.recv_match(src, tag, max_len, timeout)
    }

    fn probe(&self, src: usize, tag: Tag) -> CommResult<Option<usize>> {
        self.sub.probe(src, tag)
    }

    fn now(&self) -> Duration {
        self.sub.now()
    }

    #[expect(clippy::disallowed_methods, reason = "a wrapper forward; it waits for nothing")]
    fn sleep(&self, d: Duration) {
        self.sub.sleep(d)
    }

    fn wait_arrival(&self, seen: u64, timeout: Duration) -> CommResult<u64> {
        self.sub.wait_arrival(seen, timeout)
    }
}

impl<C: Communicator + ?Sized> Communicator for SubComm<'_, C> {
    fn rank(&self) -> usize {
        self.my_index
    }

    fn size(&self) -> usize {
        self.members.len()
    }

    fn send_buf(&self, dest: usize, tag: Tag, buf: MsgBuf) -> CommResult<()> {
        self.check_rank(dest)?;
        self.parent.send_buf(self.members[dest], self.map_tag(tag)?, buf)
    }

    fn recv_match(
        &self,
        src: usize,
        tag: Tag,
        max_len: usize,
        timeout: Duration,
    ) -> CommResult<MsgBuf> {
        self.check_rank(src)?;
        // A timeout or a proved deadlock names the receive that was stuck:
        // report it in this communicator's rank and tag space, not the parent's.
        self.parent.recv_match(self.members[src], self.map_tag(tag)?, max_len, timeout).map_err(
            |e| match e {
                CommError::Timeout { waited, .. } => CommError::Timeout { src, tag, waited },
                CommError::Deadlock { .. } => CommError::Deadlock { src, tag },
                other => other,
            },
        )
    }

    fn probe(&self, src: usize, tag: Tag) -> CommResult<Option<usize>> {
        self.check_rank(src)?;
        self.parent.probe(self.members[src], self.map_tag(tag)?)
    }

    fn now(&self) -> Duration {
        self.parent.now()
    }

    #[expect(clippy::disallowed_methods, reason = "a wrapper forward; it waits for nothing")]
    fn sleep(&self, d: Duration) {
        self.parent.sleep(d)
    }

    fn wait_arrival(&self, seen: u64, timeout: Duration) -> CommResult<u64> {
        // The parent's count: traffic for other members and contexts moves
        // it too, so this may return early — never late. A proved deadlock
        // names the waiting rank: this one, in this communicator's space.
        self.parent.wait_arrival(seen, timeout).map_err(|e| match e {
            CommError::Deadlock { tag, .. } => CommError::Deadlock { src: self.my_index, tag },
            other => other,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReduceOp, SimComm, ThreadComm};

    #[test]
    fn split_partitions_and_reranks() {
        // 6 ranks → even/odd groups; key reverses order within the group.
        let out = ThreadComm::run(6, |comm| {
            let me = comm.rank();
            let sub = SubComm::split(comm, (me % 2) as u64, (100 - me) as u64).unwrap();
            (me, sub.rank(), sub.size(), sub.members().to_vec())
        });
        for (me, sub_rank, sub_size, members) in out {
            assert_eq!(sub_size, 3);
            // Reverse key order: highest parent rank is sub rank 0.
            let expect: Vec<usize> =
                if me % 2 == 0 { vec![4, 2, 0] } else { vec![5, 3, 1] };
            assert_eq!(members, expect);
            assert_eq!(members[sub_rank], me);
        }
    }

    #[test]
    fn subcomm_collectives_are_isolated_per_group() {
        let sums = ThreadComm::run(8, |comm| {
            let me = comm.rank();
            let sub = SubComm::split(comm, (me / 4) as u64, me as u64).unwrap();
            sub.allreduce_u64(me as u64, ReduceOp::Sum).unwrap()
        });
        // Group 0 = ranks 0..4 (sum 6); group 1 = ranks 4..8 (sum 22).
        assert_eq!(sums, vec![6, 6, 6, 6, 22, 22, 22, 22]);
    }

    #[test]
    fn subcomm_p2p_routes_through_parent_ranks() {
        let got = ThreadComm::run(4, |comm| {
            let me = comm.rank();
            let sub = SubComm::split(comm, (me % 2) as u64, me as u64).unwrap();
            // Within each 2-rank group: ping the other member.
            let peer = 1 - sub.rank();
            sub.send(peer, 5, &[me as u8]).unwrap();
            sub.recv(peer, 5).unwrap()[0]
        });
        assert_eq!(got, vec![2, 3, 0, 1]);
    }

    #[test]
    fn concurrent_parent_and_sub_traffic_do_not_cross() {
        ThreadComm::run(4, |comm| {
            let me = comm.rank();
            let sub = SubComm::split(comm, 7, me as u64).unwrap(); // all in one group
            // Same (src, dst, tag) on parent and sub simultaneously.
            let peer = (me + 1) % 4;
            let back = (me + 3) % 4;
            comm.send(peer, 9, &[1]).unwrap();
            sub.send(peer, 9, &[2]).unwrap();
            assert_eq!(sub.recv(back, 9).unwrap(), vec![2]);
            assert_eq!(comm.recv(back, 9).unwrap(), vec![1]);
        });
    }

    #[test]
    fn a_proved_deadlock_is_reported_in_the_subcommunicator_s_space() {
        // Even parent ranks form a group ordered [2, 0]: sub-rank 0 is parent
        // rank 2 and waits on sub-rank 1 (parent rank 0), who sends nothing.
        let run = SimComm::run(4, 1, |comm| {
            let me = comm.rank();
            let sub = SubComm::split(comm, (me % 2) as u64, (100 - me) as u64).unwrap();
            (me == 2).then(|| {
                let stuck = sub.recv_buf(1, 5).unwrap_err();
                let seen = sub.wait_arrival(0, Duration::ZERO).unwrap();
                (stuck, sub.wait_arrival(seen, Duration::MAX).unwrap_err())
            })
        });
        let (recv, wait) = run.results[2].clone().expect("parent rank 2 is sub-rank 0");
        assert_eq!(recv, CommError::Deadlock { src: 1, tag: 5 }, "not parent rank 0 / mapped tag");
        assert_eq!(wait, CommError::Deadlock { src: 0, tag: 0 }, "not parent rank 2");
    }

    #[test]
    fn from_members_builds_leader_groups() {
        let out = ThreadComm::run(6, |comm| {
            let me = comm.rank();
            if me % 3 == 0 {
                // Leaders 0 and 3 form their own communicator.
                let leaders = SubComm::from_members(comm, vec![0, 3], 9).unwrap();
                Some(leaders.allreduce_u64(me as u64, ReduceOp::Sum).unwrap())
            } else {
                None
            }
        });
        assert_eq!(out[0], Some(3));
        assert_eq!(out[3], Some(3));
        assert!(out[1].is_none());
    }

    #[test]
    fn oversized_tags_rejected() {
        ThreadComm::run(2, |comm| {
            let sub = SubComm::split(comm, 0, comm.rank() as u64).unwrap();
            assert!(sub.send(0, SUBCOMM_MAX_TAG, &[]).is_err());
        });
    }

    #[test]
    fn shrink_renumbers_survivors_densely() {
        let out = ThreadComm::run(5, |comm| {
            let me = comm.rank();
            if me == 2 {
                return None; // the evicted rank builds nothing
            }
            let shrink = ShrinkComm::new(comm, vec![0, 1, 3, 4], 7).unwrap();
            // Ring ping on the dense world proves translation works.
            let peer = (shrink.rank() + 1) % shrink.size();
            shrink.send(peer, 3, &[me as u8]).unwrap();
            let from = shrink.recv((shrink.rank() + shrink.size() - 1) % shrink.size(), 3).unwrap();
            Some((shrink.rank(), shrink.size(), from[0]))
        });
        assert_eq!(out[0], Some((0, 4, 4)));
        assert_eq!(out[1], Some((1, 4, 0)));
        assert_eq!(out[3], Some((2, 4, 1)));
        assert_eq!(out[4], Some((3, 4, 3)));
    }

    #[test]
    fn consecutive_epochs_are_tag_isolated() {
        // Same members, same logical tag, two successive epochs: each
        // epoch's receive must match only its own epoch's send.
        ThreadComm::run(2, |comm| {
            let me = comm.rank();
            let old = ShrinkComm::new(comm, vec![0, 1], 4).unwrap();
            let new = ShrinkComm::new(comm, vec![0, 1], 5).unwrap();
            let peer = 1 - me;
            old.send(peer, 11, &[b'o', me as u8]).unwrap();
            new.send(peer, 11, &[b'n', me as u8]).unwrap();
            assert_eq!(new.recv(peer, 11).unwrap(), vec![b'n', peer as u8]);
            assert_eq!(old.recv(peer, 11).unwrap(), vec![b'o', peer as u8]);
        });
    }

    #[test]
    fn shrink_collectives_run_on_the_dense_world() {
        let sums = ThreadComm::run(4, |comm| {
            if comm.rank() == 1 {
                return 0;
            }
            let shrink = ShrinkComm::new(comm, vec![0, 2, 3], 1).unwrap();
            shrink.allreduce_u64(comm.rank() as u64, ReduceOp::Sum).unwrap()
        });
        assert_eq!(sums, vec![5, 0, 5, 5]);
    }

    #[test]
    fn shrink_rejects_unsorted_or_foreign_survivor_lists() {
        ThreadComm::run(3, |comm| {
            if comm.rank() == 0 {
                assert!(ShrinkComm::new(comm, vec![1, 0], 0).is_err(), "unsorted");
                assert!(ShrinkComm::new(comm, vec![1, 2], 0).is_err(), "caller evicted");
            }
        });
    }
}
