//! Failure detection: proof-of-life heartbeat sweeps with suspicion
//! timeouts, over any [`Communicator`].
//!
//! An operation can *report* a fault (a timeout, a
//! [`crate::CommError::RankFailed`] from an ARQ layer), but a single error
//! names at most one peer and may be a symptom, not the root cause. This
//! module turns "something went wrong" into a concrete local *suspicion
//! set*: which members of a group failed to prove they are alive within a
//! window.
//!
//! ## Protocol
//!
//! Every live member enters [`detect_failures`] (SPMD, like a collective)
//! and immediately sends a PING to every other unsuspected member. It then
//! services its mailbox until the window closes, answering incoming PINGs
//! with PONGs and collecting proof of life, and between service passes parks
//! on arrival ([`Communicator::wait_arrival`]) until the next heartbeat is
//! due or the window closes — there is no poll quantum. The crucial
//! asymmetry-absorbing rule:
//! **any** detector message for this epoch — PING or PONG — proves its
//! sender alive. Sends are eager, so a member that enters the sweep late
//! still finds the early birds' PINGs already in its mailbox, and the early
//! birds collect the laggard's PINGs as proof without needing a full
//! round-trip. While waiting, unproven members are re-PINGed every
//! heartbeat period, jittered by a seeded splitmix draw so heartbeats from
//! different ranks spread out instead of phase-locking.
//!
//! A member is *suspected* when the window closes without proof of life, or
//! when an underlying reliability layer reports it dead
//! ([`crate::CommError::RankFailed`]) during a send. Suspicions are local
//! and may differ across ranks (a member that dies mid-window may have
//! proved itself to some peers only); [`crate::agree_survivors`] is the
//! protocol that makes them consistent.
//!
//! All waiting happens on the trait clock ([`Communicator::now`] /
//! [`Communicator::wait_arrival`]), so the detector runs identically on
//! [`crate::ThreadComm`] (wall time), [`crate::SimComm`] (virtual time, a
//! 100 ms window costs microseconds of wall clock), and [`crate::EventComm`].
//!
//! ## Tag budget
//!
//! PINGs and PONGs travel on reserved tags `RESERVED_TAG_BASE + 0x3000 +
//! 2·(epoch mod 128)` and `+1`, and every frame carries the full epoch for
//! filtering — traffic from a previous membership epoch can never be
//! mistaken for proof of life in the current one.

use std::time::Duration;

use crate::communicator::await_arrival;
use crate::splitmix;
use crate::{CommError, CommResult, Communicator, MsgBuf, Tag, RESERVED_TAG_BASE};

/// Base of the failure-detector tag block (`0x3000..0x30FF` above
/// [`RESERVED_TAG_BASE`]): 128 epochs × (ping, pong).
pub(crate) const DETECT_TAG_BASE: Tag = RESERVED_TAG_BASE + 0x3000;

fn ping_tag(epoch: u32) -> Tag {
    DETECT_TAG_BASE + 2 * (epoch % 0x80)
}

fn pong_tag(epoch: u32) -> Tag {
    ping_tag(epoch) + 1
}

fn heartbeat_frame(epoch: u32) -> MsgBuf {
    MsgBuf::from_vec(epoch.to_le_bytes().to_vec())
}

fn frame_epoch(frame: &MsgBuf) -> Option<u32> {
    Some(u32::from_le_bytes(frame.as_slice().try_into().ok()?))
}

/// A set of suspected members, indexed by *position* in the member list the
/// detector / agreement ran over (not by parent rank). Dense and cheap to
/// put on the wire: agreement floods these bitmaps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suspicion {
    n: usize,
    bits: Vec<u64>,
}

impl Suspicion {
    /// An empty suspicion set over `n` members.
    pub fn none(n: usize) -> Suspicion {
        Suspicion { n, bits: vec![0; n.div_ceil(64)] }
    }

    /// Number of members the set ranges over.
    pub fn members(&self) -> usize {
        self.n
    }

    /// Mark member position `i` as suspected.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.n, "suspicion index {i} out of range {}", self.n);
        self.bits[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether member position `i` is suspected.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.n, "suspicion index {i} out of range {}", self.n);
        self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Union `other` into `self`; returns whether anything changed.
    pub fn union(&mut self, other: &Suspicion) -> bool {
        assert_eq!(self.n, other.n, "suspicion sets over different member counts");
        let mut changed = false;
        for (w, o) in self.bits.iter_mut().zip(&other.bits) {
            let merged = *w | *o;
            changed |= merged != *w;
            *w = merged;
        }
        changed
    }

    /// How many members are suspected.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The suspected member positions, ascending.
    pub fn positions(&self) -> Vec<usize> {
        (0..self.n).filter(|&i| self.get(i)).collect()
    }

    /// Wire encoding: the bit words, little-endian. The member count is
    /// implied by the group both sides already share.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.bits.len() * 8);
        for w in &self.bits {
            v.extend_from_slice(&w.to_le_bytes());
        }
        v
    }

    /// Decode a wire bitmap for an `n`-member group; `None` if the length
    /// is wrong or a bit beyond `n` is set (corrupt or mis-grouped frame).
    pub fn from_bytes(n: usize, bytes: &[u8]) -> Option<Suspicion> {
        let words = n.div_ceil(64);
        if bytes.len() != words * 8 {
            return None;
        }
        let mut bits = Vec::with_capacity(words);
        for chunk in bytes.chunks_exact(8) {
            bits.push(u64::from_le_bytes(chunk.try_into().ok()?));
        }
        if n % 64 != 0 {
            if let Some(last) = bits.last() {
                if *last >> (n % 64) != 0 {
                    return None;
                }
            }
        }
        Some(Suspicion { n, bits })
    }
}

/// Timing policy for one [`detect_failures`] sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Total suspicion window: a member unproven when it closes is
    /// suspected. Must cover the entry skew between ranks (a rank may start
    /// the sweep late — e.g. only after burning a full exchange deadline)
    /// plus, when the detector runs above an ARQ layer, that layer's full
    /// retry budget for a send to a dead peer.
    pub window: Duration,
    /// Re-PING period for members that have not yet proved themselves.
    pub heartbeat: Duration,
    /// Seeded jitter of up to one heartbeat period is added to each rank's
    /// re-PING schedule from this seed (spreads heartbeats; keeps replays
    /// deterministic).
    pub seed: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            window: Duration::from_millis(100),
            heartbeat: Duration::from_millis(20),
            seed: 0,
        }
    }
}

/// Map a send-side error to the member position it incriminates, if any.
/// `RankFailed` naming *us* (we are the crashed rank) and non-liveness
/// errors are returned to the caller instead.
fn suspect_of<C: Communicator + ?Sized>(
    comm: &C,
    members: &[usize],
    e: &CommError,
) -> Option<usize> {
    match e {
        CommError::RankFailed { rank } if *rank != comm.rank() => {
            members.iter().position(|&m| m == *rank)
        }
        _ => None,
    }
}

/// One SPMD proof-of-life sweep over `members` (sorted parent ranks, which
/// must include the calling rank). Returns the local suspicion set:
/// `initial` plus every member that failed to prove itself within
/// [`DetectorConfig::window`]. Suspected members are never pinged or
/// waited on.
///
/// Errors only when the *calling* rank cannot participate (it crashed, or
/// the arguments are malformed) — a dead peer is a finding, not an error.
pub fn detect_failures<C: Communicator + ?Sized>(
    comm: &C,
    members: &[usize],
    epoch: u32,
    cfg: &DetectorConfig,
    initial: &Suspicion,
) -> CommResult<Suspicion> {
    let me = comm.rank();
    let n = members.len();
    if initial.members() != n {
        return Err(CommError::BadArgument("initial suspicion set size != members"));
    }
    if members.windows(2).any(|w| w[0] >= w[1]) {
        return Err(CommError::BadArgument("members must be sorted and unique"));
    }
    let Some(me_pos) = members.iter().position(|&m| m == me) else {
        return Err(CommError::BadArgument("calling rank not in members"));
    };
    if initial.get(me_pos) {
        return Err(CommError::BadArgument("calling rank is pre-suspected"));
    }
    for &m in members {
        comm.check_rank(m)?;
    }

    let mut suspected = initial.clone();
    let mut proven = vec![false; n];
    proven[me_pos] = true;

    // Initial PING volley to every unsuspected peer. A RankFailed from an
    // ARQ layer below is immediate, definitive proof of death.
    for i in 0..n {
        if i == me_pos || suspected.get(i) {
            continue;
        }
        if let Err(e) = comm.send_buf(members[i], ping_tag(epoch), heartbeat_frame(epoch)) {
            match suspect_of(comm, members, &e) {
                Some(pos) => suspected.set(pos),
                None => return Err(e),
            }
        }
    }

    let start = comm.now();
    let deadline = start + cfg.window;
    let hb_jitter = {
        let draw = splitmix(cfg.seed ^ (u64::from(epoch) << 24) ^ me as u64);
        Duration::from_nanos(draw % (cfg.heartbeat.as_nanos().max(1) as u64))
    };
    let mut next_hb = start + cfg.heartbeat + hb_jitter;
    let mut seen = comm.wait_arrival(0, Duration::ZERO)?;

    loop {
        let mut handled = 0usize;
        for i in 0..n {
            if i == me_pos {
                continue;
            }
            let peer = members[i];
            // PINGs prove the sender alive and deserve a PONG (even from
            // already-proven peers: their heartbeat loop is still waiting).
            while comm.probe(peer, ping_tag(epoch))?.is_some() {
                let frame = comm.recv_buf(peer, ping_tag(epoch))?;
                handled += 1;
                if frame_epoch(&frame) != Some(epoch) {
                    continue;
                }
                proven[i] = true;
                if let Err(e) = comm.send_buf(peer, pong_tag(epoch), heartbeat_frame(epoch)) {
                    match suspect_of(comm, members, &e) {
                        Some(pos) => suspected.set(pos),
                        None => return Err(e),
                    }
                }
            }
            while comm.probe(peer, pong_tag(epoch))?.is_some() {
                let frame = comm.recv_buf(peer, pong_tag(epoch))?;
                handled += 1;
                if frame_epoch(&frame) == Some(epoch) {
                    proven[i] = true;
                }
            }
        }

        let all_proven =
            (0..n).all(|i| proven[i] || suspected.get(i));
        if all_proven {
            break;
        }
        let now = comm.now();
        if now >= deadline {
            break;
        }
        if now >= next_hb {
            for i in 0..n {
                if i == me_pos || proven[i] || suspected.get(i) {
                    continue;
                }
                if let Err(e) =
                    comm.send_buf(members[i], ping_tag(epoch), heartbeat_frame(epoch))
                {
                    match suspect_of(comm, members, &e) {
                        Some(pos) => suspected.set(pos),
                        None => return Err(e),
                    }
                }
            }
            next_hb = now + cfg.heartbeat + hb_jitter;
        }
        // An empty pass parks until something arrives, the next heartbeat
        // is due, or the window closes.
        let budget = next_hb.min(deadline).saturating_sub(now);
        seen = await_arrival(comm, seen, handled == 0, budget)?;
    }

    for i in 0..n {
        if i != me_pos && !proven[i] {
            suspected.set(i);
        }
    }
    Ok(suspected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultComm, FaultPlan, SimComm, SimConfig, ThreadComm};

    fn quick() -> DetectorConfig {
        DetectorConfig {
            window: Duration::from_millis(60),
            heartbeat: Duration::from_millis(10),
            seed: 7,
        }
    }

    #[test]
    fn all_alive_proves_everyone() {
        ThreadComm::run(4, |comm| {
            let members = [0, 1, 2, 3];
            let s = detect_failures(comm, &members, 0, &quick(), &Suspicion::none(4)).unwrap();
            assert_eq!(s.count(), 0, "rank {}: {:?}", comm.rank(), s.positions());
        });
    }

    #[test]
    fn silent_rank_is_suspected_by_all_survivors() {
        // Rank 2 never enters the sweep; everyone else must suspect exactly
        // it, within roughly the window.
        ThreadComm::run(4, |comm| {
            if comm.rank() == 2 {
                return Vec::new();
            }
            let members = [0, 1, 2, 3];
            let s = detect_failures(comm, &members, 1, &quick(), &Suspicion::none(4)).unwrap();
            s.positions()
        })
        .into_iter()
        .enumerate()
        .for_each(|(r, pos)| {
            if r != 2 {
                assert_eq!(pos, vec![2], "rank {r}");
            }
        });
    }

    #[test]
    fn initially_suspected_members_are_skipped_not_pinged() {
        ThreadComm::run(3, |comm| {
            if comm.rank() == 0 {
                return Vec::new();
            }
            let mut initial = Suspicion::none(3);
            initial.set(0);
            let s = detect_failures(comm, &[0, 1, 2], 2, &quick(), &initial).unwrap();
            s.positions()
        })
        .into_iter()
        .skip(1)
        .for_each(|pos| assert_eq!(pos, vec![0]));
    }

    #[test]
    fn crashed_rank_under_fault_comm_is_found_deterministically_in_sim() {
        // Under SimComm the sweep runs in virtual time; across schedule
        // seeds the survivors' verdicts must be identical.
        for seed in 0..8u64 {
            let report = SimComm::try_run(4, &SimConfig::from_seed(seed), |comm| {
                let plan = FaultPlan::new(1).with_crash(1, 0);
                let fc = FaultComm::new(comm, plan);
                detect_failures(&fc, &[0, 1, 2, 3], 3, &quick(), &Suspicion::none(4))
                    .map(|s| s.positions())
            });
            for (rank, out) in report.outcomes.iter().enumerate() {
                let r = out.as_ref().expect("no panics");
                if rank == 1 {
                    assert!(
                        matches!(r, Err(CommError::RankFailed { rank: 1 })),
                        "crashed rank must error out, got {r:?}"
                    );
                } else {
                    assert_eq!(r.as_ref().unwrap(), &vec![1], "seed {seed} rank {rank}");
                }
            }
        }
    }

    #[test]
    fn suspicion_bitmap_round_trips_and_rejects_garbage() {
        let mut s = Suspicion::none(70);
        s.set(0);
        s.set(63);
        s.set(69);
        let bytes = s.to_bytes();
        assert_eq!(Suspicion::from_bytes(70, &bytes), Some(s.clone()));
        assert_eq!(Suspicion::from_bytes(65, &bytes), None, "set bit beyond smaller group");
        assert_eq!(Suspicion::from_bytes(129, &bytes), None, "wrong word count");
        assert_eq!(Suspicion::from_bytes(70, &bytes[1..]), None, "wrong length");
        let mut high = bytes;
        let last = high.len() - 1;
        high[last] |= 0x80;
        assert_eq!(Suspicion::from_bytes(70, &high), None, "bit beyond n");
    }
}
