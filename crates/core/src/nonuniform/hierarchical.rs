//! Hierarchical (leader-based) `alltoallv` — the related-work baseline of
//! §6 (Jackson & Booth's *planned AlltoAllv*, Plummer & Refson's group-leader
//! scheme): partition the ranks into groups, funnel each group's traffic
//! through its leader, and run the all-to-all among leaders only.
//!
//! Three phases:
//! 1. **Gather** — every member ships its counts row and packed send data to
//!    its group leader (tag `0x500`).
//! 2. **Leader exchange** — leaders exchange, pairwise, a size matrix plus
//!    the blocks destined for each other's members (tag `0x501`).
//! 3. **Scatter** — each leader reassembles every member's incoming blocks
//!    in global source order and ships them down (tag `0x502`).
//!
//! This reduces the number of ranks on the network from `P` to `P/G` at the
//! cost of funneling all bytes through leaders twice — effective for
//! congested short-message exchanges on shared-memory nodes, poor for large
//! loads (the trade-off §6 describes).

use bruck_comm::{CommError, CommResult, Communicator, MsgBuf};

use super::validate_v;
use crate::common::{HIER_GATHER_TAG, HIER_LEADER_TAG, HIER_SCATTER_TAG};

/// Group size used by the [`super::AlltoallvAlgorithm::Hierarchical`]
/// dispatcher (≈ ranks per node in the paper's related-work setting).
pub(super) const DEFAULT_GROUP_SIZE: usize = 8;

#[inline]
fn group_of(rank: usize, group: usize) -> usize {
    rank / group
}

#[inline]
fn leader_of(rank: usize, group: usize) -> usize {
    group_of(rank, group) * group
}

#[inline]
fn group_members(g: usize, group: usize, p: usize) -> std::ops::Range<usize> {
    (g * group)..((g + 1) * group).min(p)
}

/// Hierarchical `alltoallv` with explicit group size (`group >= 1`;
/// `group = 1` degenerates to a leaders-only pairwise exchange, i.e. plain
/// spread-out).
#[allow(clippy::too_many_arguments)]
pub(super) fn hierarchical_alltoallv<C: Communicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
    recvbuf: &mut [u8],
    recvcounts: &[usize],
    rdispls: &[usize],
    group: usize,
) -> CommResult<()> {
    let p = validate_v(comm, sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls)?;
    let me = comm.rank();
    if group == 0 {
        return Err(CommError::BadArgument("group size must be at least 1"));
    }
    let my_group = group_of(me, group);
    let my_leader = leader_of(me, group);
    let n_groups = p.div_ceil(group);

    // ---- Phase 1: gather at leaders ------------------------------------
    if me != my_leader {
        let mut msg = Vec::with_capacity(8 * p + sendcounts.iter().sum::<usize>());
        for &c in sendcounts {
            msg.extend_from_slice(&(c as u64).to_le_bytes());
        }
        for dst in 0..p {
            msg.extend_from_slice(&sendbuf[sdispls[dst]..sdispls[dst] + sendcounts[dst]]);
        }
        comm.send_buf(my_leader, HIER_GATHER_TAG, MsgBuf::from_vec(msg))?;
        // ---- Phase 3 (member side): receive own blocks in src order ----
        let flat = comm.recv_buf(my_leader, HIER_SCATTER_TAG)?;
        let mut at = 0;
        for src in 0..p {
            let want = recvcounts[src];
            recvbuf[rdispls[src]..rdispls[src] + want].copy_from_slice(&flat[at..at + want]);
            at += want;
        }
        if at != flat.len() {
            return Err(CommError::BadArgument("scatter payload length mismatch"));
        }
        return Ok(());
    }

    // Leader: collect every member's counts row and packed data. Each
    // member's data stays a view of its gather message — never re-copied.
    let members: Vec<usize> = group_members(my_group, group, p).collect();
    let mut member_counts: Vec<Vec<usize>> = Vec::with_capacity(members.len());
    let mut member_data: Vec<MsgBuf> = Vec::with_capacity(members.len());
    for &m in &members {
        if m == me {
            let mut packed = Vec::with_capacity(sendcounts.iter().sum());
            for dst in 0..p {
                packed.extend_from_slice(&sendbuf[sdispls[dst]..sdispls[dst] + sendcounts[dst]]);
            }
            member_counts.push(sendcounts.to_vec());
            member_data.push(MsgBuf::from_vec(packed));
        } else {
            let msg = comm.recv_buf(m, HIER_GATHER_TAG)?;
            if msg.len() < 8 * p {
                return Err(CommError::BadArgument("gather payload too short"));
            }
            #[expect(clippy::expect_used, reason = "`chunks_exact(8)` yields 8-byte slices")]
            let counts: Vec<usize> = msg[..8 * p]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte count")) as usize)
                .collect();
            member_counts.push(counts);
            member_data.push(msg.slice(8 * p..));
        }
    }
    // Packed offset of member i's block for global destination `dst`.
    let member_displ = |i: usize, dst: usize| -> usize {
        member_counts[i][..dst].iter().sum()
    };

    // ---- Phase 2: leader pairwise exchange -----------------------------
    // Outgoing to leader h: [u32 sizes (s asc, d asc)][blocks in that order].
    for off in 1..n_groups {
        let h = (my_group + off) % n_groups;
        let dst_members: Vec<usize> = group_members(h, group, p).collect();
        let mut msg = Vec::new();
        for (i, _) in members.iter().enumerate() {
            for &d in &dst_members {
                let sz = member_counts[i][d] as u32;
                msg.extend_from_slice(&sz.to_le_bytes());
            }
        }
        for (i, _) in members.iter().enumerate() {
            for &d in &dst_members {
                let at = member_displ(i, d);
                msg.extend_from_slice(&member_data[i][at..at + member_counts[i][d]]);
            }
        }
        comm.isend_buf(h * group, HIER_LEADER_TAG, MsgBuf::from_vec(msg))?;
    }
    // Incoming: per source group, the (s, d) size matrix and blocks.
    // incoming[src_rank][local_dst_index] = a view of the leader message.
    let mut incoming: Vec<Vec<MsgBuf>> = vec![Vec::new(); p];
    for off in 1..n_groups {
        let h = (my_group + n_groups - off) % n_groups;
        let src_members: Vec<usize> = group_members(h, group, p).collect();
        let msg = comm.recv_buf(h * group, HIER_LEADER_TAG)?;
        let header = src_members.len() * members.len() * 4;
        if msg.len() < header {
            return Err(CommError::BadArgument("leader payload too short"));
        }
        #[expect(clippy::expect_used, reason = "`chunks_exact(4)` yields 4-byte slices")]
        let mut sizes = msg[..header]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte size")) as usize);
        let mut at = header;
        for &s in &src_members {
            let mut per_dst = Vec::with_capacity(members.len());
            for _ in 0..members.len() {
                #[expect(clippy::expect_used, reason = "the header has one size per member pair")]
                let sz = sizes.next().expect("size matrix entry");
                per_dst.push(msg.slice(at..at + sz));
                at += sz;
            }
            incoming[s] = per_dst;
        }
        if at != msg.len() {
            return Err(CommError::BadArgument("leader payload length mismatch"));
        }
    }
    // Local group's own blocks never cross the leader network.
    for (i, &s) in members.iter().enumerate() {
        let per_dst = members
            .iter()
            .map(|&d| {
                let at = member_displ(i, d);
                member_data[i].slice(at..at + member_counts[i][d])
            })
            .collect();
        incoming[s] = per_dst;
    }

    // ---- Phase 3: scatter to members (and deliver own) -----------------
    for (di, &d) in members.iter().enumerate() {
        if d == me {
            for (src, per_dst) in incoming.iter().enumerate() {
                let block = &per_dst[di];
                recvbuf[rdispls[src]..rdispls[src] + block.len()].copy_from_slice(block);
            }
        } else {
            let mut flat = Vec::new();
            for per_dst in &incoming {
                flat.extend_from_slice(&per_dst[di]);
            }
            comm.send_buf(d, HIER_SCATTER_TAG, MsgBuf::from_vec(flat))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{run_and_check_matrix, TEST_SIZES};
    use super::*;
    use bruck_comm::ThreadComm;
    use bruck_workload::{Distribution, SizeMatrix};

    fn run_with_group(m: &SizeMatrix, group: usize) {
        let p = m.p();
        ThreadComm::run(p, |comm| {
            let me = comm.rank();
            let (sendbuf, sendcounts, sdispls) = super::super::testutil::build_send(me, m);
            let recvcounts = m.recvcounts(me);
            let rdispls = crate::packed_displs(&recvcounts);
            let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
            hierarchical_alltoallv(
                comm, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls, group,
            )
            .unwrap();
            super::super::testutil::check_recv(me, m, &recvbuf, &rdispls);
        });
    }

    #[test]
    fn correct_across_group_sizes_and_p() {
        for p in TEST_SIZES {
            for group in [1usize, 2, 3, 4, 8, 16] {
                let m = SizeMatrix::generate(Distribution::Uniform, (p * 31 + group) as u64, p, 40);
                run_with_group(&m, group);
            }
        }
    }

    #[test]
    fn group_larger_than_p_is_single_leader() {
        let m = SizeMatrix::generate(Distribution::Normal, 5, 6, 64);
        run_with_group(&m, 100);
    }

    #[test]
    fn default_dispatch_is_correct() {
        for p in [4usize, 12, 17] {
            let m = SizeMatrix::generate(Distribution::Uniform, p as u64, p, 32);
            run_and_check_matrix(super::super::AlltoallvAlgorithm::Hierarchical, &m);
        }
    }

    #[test]
    fn zero_blocks_everywhere() {
        run_with_group(&SizeMatrix::uniform(9, 0), 3);
    }

    #[test]
    fn group_helpers() {
        assert_eq!(leader_of(5, 4), 4);
        assert_eq!(leader_of(3, 4), 0);
        assert_eq!(group_members(1, 4, 10).collect::<Vec<_>>(), vec![4, 5, 6, 7]);
        assert_eq!(group_members(2, 4, 10).collect::<Vec<_>>(), vec![8, 9]);
    }
}
