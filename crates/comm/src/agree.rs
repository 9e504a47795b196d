//! All-survivor agreement: one SPMD flood that finds the dead members of a
//! group and decides, identically at every live rank, who survives — the
//! ULFM `MPI_Comm_agree` idiom, and the whole of a recovering operation's
//! confirm.
//!
//! It runs a flooding consensus over suspicion bitmaps ([`Suspicion`]):
//!
//! 1. **Rounds.** Each round, every participating rank sends its current
//!    bitmap to every member it does not suspect, then collects one frame
//!    from each such member and unions what it receives. Round 0 from an
//!    empty set is the proof-of-life sweep: a member that produces no frame
//!    by the round's deadline joins the suspicion set, and so does one that
//!    an operation addressed to it reports dead
//!    ([`crate::CommError::RankFailed`] from a send, or from a probe once an
//!    ARQ layer below has given up on it — no need to wait out the round).
//!    Failures *during* agreement simply re-enter the flood as new bits, and
//!    the round structure re-runs on the shrunken view until a fixpoint.
//! 2. **Stability.** A rank's view is *stable* when a round changes
//!    nothing: its own set did not grow and every collected frame echoed
//!    exactly its set. After two consecutive stable rounds (the second gives
//!    a freshly-propagated suspicion a round to reach everyone) the rank
//!    *decides*.
//! 3. **Decision flooding.** A deciding rank broadcasts a DECIDED frame
//!    carrying the final bitmap to every member (best-effort, including
//!    suspected ones — a falsely-suspected live rank learns its eviction
//!    here) and returns. Any rank that receives a DECIDED frame mid-round
//!    immediately adopts the decided set, re-floods it, and returns — so
//!    one decision propagates even if its originator crashes mid-flood,
//!    as long as any live rank received it.
//!
//! A healthy agreement is therefore three frames to every peer: rounds 0
//! and 1, then the DECIDED flood.
//!
//! Two deciding ranks always decide the same set: deciding requires two
//! rounds in which *every* live participant echoed the decider's exact
//! bitmap, so concurrent deciders have pairwise-equal bitmaps, and any
//! later rank adopts a flooded decision instead of deciding independently.
//! The one unavoidable wrinkle (crash-stop consensus with real timeouts):
//! a member that dies *after* the last flood it participated in may still
//! appear in the decided survivor set. That is not a safety violation for
//! the recovery stack — the next epoch's exchange trips over the stale
//! member and the whole agree → shrink cycle runs again (this is what makes
//! recovery *multi*-epoch).
//!
//! A rank that finds its own position suspected in any received bitmap is
//! **evicted**: it keeps merging, stops sending, and returns with
//! [`AgreeOutcome::evicted_me`] set so its driver can fail the local rank
//! deliberately instead of hanging. Newly-suspected members are sent one
//! *courtesy* copy of the accusing bitmap for exactly this purpose.
//!
//! Alongside the bitmap, every frame floods a **dirty flag** — a unanimous
//! commit/abort vote in the style of ULFM's `MPI_Comm_agree`. A rank whose
//! preceding exchange failed enters with `dirty = true`; the flag is OR-ed
//! into every view it touches and is part of the stability condition, so
//! the decided `(survivors, dirty)` pair is identical at every live rank.
//! This is what lets a driver whose failure evidence is *asymmetric* (one
//! rank's fallback was lossless, a peer's was not; a collective faulted on
//! some ranks and completed on others) converge on one global verdict:
//! either every survivor commits the epoch, or every survivor retries it.
//!
//! Frames travel on the reserved tag `RESERVED_TAG_BASE + 0x3100 + (epoch
//! mod 256)` and carry the full epoch; stale-epoch frames are discarded on
//! receipt. All waiting is on the trait clock — a collecting rank parks on
//! arrival ([`Communicator::wait_arrival`]) until a frame lands or the
//! anchored round deadline, with no poll quantum — so agreement is
//! deterministic (and nearly free) under [`crate::SimComm`].

use std::time::Duration;

use crate::{CommError, CommResult, Communicator, MsgBuf, Tag, RESERVED_TAG_BASE};

/// Base of the agreement tag block (`0x3100..0x31FF` above
/// [`RESERVED_TAG_BASE`]): 256 epochs.
pub(crate) const AGREE_TAG_BASE: Tag = RESERVED_TAG_BASE + 0x3100;

fn agree_tag(epoch: u32) -> Tag {
    AGREE_TAG_BASE + (epoch % 0x100)
}

/// Consecutive stable rounds before a rank decides.
const STABLE_ROUNDS: u32 = 2;
/// Rounds before a wedged agreement fails loudly with
/// [`crate::CommError::Timeout`] rather than spinning.
const MAX_ROUNDS: u32 = 64;

const KIND_ROUND: u8 = 0;
const KIND_DECIDED: u8 = 1;

const FLAG_DIRTY: u8 = 1;

/// A set of suspected members, indexed by *position* in the member list the
/// agreement runs over (not by parent rank). Dense and cheap to put on the
/// wire: agreement floods these bitmaps.
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

fn frame(kind: u8, dirty: bool, epoch: u32, round: u32, bits: &Suspicion) -> MsgBuf {
    let body = bits.to_bytes();
    let mut v = Vec::with_capacity(10 + body.len());
    v.push(kind);
    v.push(if dirty { FLAG_DIRTY } else { 0 });
    v.extend_from_slice(&epoch.to_le_bytes());
    v.extend_from_slice(&round.to_le_bytes());
    v.extend_from_slice(&body);
    MsgBuf::from_vec(v)
}

fn parse_frame(n: usize, epoch: u32, buf: &MsgBuf) -> Option<(u8, bool, u32, Suspicion)> {
    if buf.len() < 10 {
        return None;
    }
    let kind = buf[0];
    let dirty = buf[1] & FLAG_DIRTY != 0;
    let fep = u32::from_le_bytes(buf[2..6].try_into().ok()?);
    let round = u32::from_le_bytes(buf[6..10].try_into().ok()?);
    if fep != epoch {
        return None;
    }
    let bits = Suspicion::from_bytes(n, &buf[10..])?;
    Some((kind, dirty, round, bits))
}

/// What agreement concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgreeOutcome {
    /// The agreed survivor set, as sorted parent ranks (the member list
    /// minus the agreed suspicions). The dense renumbering is its index
    /// order — position `i` in this vector is rank `i` of the shrunken
    /// world.
    pub survivors: Vec<usize>,
    /// The agreed suspicion set over member positions.
    pub suspected: Suspicion,
    /// Rounds executed before deciding (or adopting).
    pub rounds: u32,
    /// This rank is itself in the agreed suspicion set: it must not use the
    /// survivor communicator (peers will not talk to it) — its driver
    /// should fail the local rank.
    pub evicted_me: bool,
    /// The decision was adopted from a peer's DECIDED flood rather than
    /// reached by local stability.
    pub adopted: bool,
    /// The agreed dirty flag: true iff *any* participant entered agreement
    /// with `dirty = true`. Drivers use it as a unanimous commit/abort vote
    /// — "did every live rank's preceding exchange succeed?" — so either
    /// all survivors commit the epoch or all retry it.
    pub dirty: bool,
}

/// Flood-and-decide agreement over `members` (sorted parent ranks,
/// including the caller): see the module docs for the protocol. `initial`
/// seeds the flood with suspicions this rank already holds (a confirm
/// passes [`Suspicion::none`]: round 0 finds the dead itself); `dirty`
/// seeds the flooded commit/abort vote (pass `true` when this rank's
/// preceding exchange failed — the decided [`AgreeOutcome::dirty`] is then
/// true at every survivor).
///
/// Round deadlines are **anchored**: round `r`'s collection at a rank ends
/// at `entry + (r+1) · round_timeout`, where `entry` is when that rank
/// called `agree_survivors`. Anchoring is what keeps ranks from drifting
/// apart — a rank that burns a full window suspecting a dead peer in round
/// `r` is still inside every other rank's round-`r+1` deadline, provided
/// `round_timeout` exceeds the entry skew (plus, above an ARQ layer, that
/// layer's retry budget for one send to a dead peer). Rounds do **not**
/// wait out their deadline: a round completes the moment every expected
/// frame has arrived or its sender is proven dead, so an all-alive
/// agreement runs at message speed and only a silent member costs the
/// window.
///
/// Errors only for local failure (this rank crashed, malformed arguments)
/// or protocol non-termination within 64 rounds.
pub fn agree_survivors<C: Communicator + ?Sized>(
    comm: &C,
    members: &[usize],
    epoch: u32,
    round_timeout: Duration,
    initial: &Suspicion,
    dirty: bool,
) -> CommResult<AgreeOutcome> {
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
    for &m in members {
        comm.check_rank(m)?;
    }
    let tag = agree_tag(epoch);

    let mut susp = initial.clone();
    let mut dirty = dirty;
    // Members suspected before agreement began: high confidence, never
    // contacted. Members that become suspected *during*
    // agreement get one courtesy frame so a falsely-accused live rank can
    // learn its eviction.
    let mut courtesy_done: Vec<bool> = (0..n).map(|i| susp.get(i)).collect();
    let mut stable = 0u32;
    let start = comm.now();
    let mut seen = comm.wait_arrival(0, Duration::ZERO)?;

    let outcome = |survivor_bits: Suspicion, rounds: u32, adopted: bool, dirty: bool| {
        let evicted_me = survivor_bits.get(me_pos);
        let survivors: Vec<usize> = (0..n)
            .filter(|&i| !survivor_bits.get(i))
            .map(|i| members[i])
            .collect();
        AgreeOutcome { survivors, suspected: survivor_bits, rounds, evicted_me, adopted, dirty }
    };

    for round in 0..MAX_ROUNDS {
        let sent_bits = susp.clone();
        let sent_dirty = dirty;
        let round_frame = frame(KIND_ROUND, sent_dirty, epoch, round, &sent_bits);

        // Send to every unsuspected peer; one courtesy copy to the newly
        // suspected. A failure reported by an operation addressed to a peer
        // incriminates that peer, unless it names us.
        for i in 0..n {
            if i == me_pos {
                continue;
            }
            let is_susp = susp.get(i);
            if is_susp && courtesy_done[i] {
                continue;
            }
            match comm.send_buf(members[i], tag, round_frame.clone()) {
                Err(CommError::RankFailed { rank }) if rank != me => susp.set(i),
                other => other?,
            }
            if is_susp {
                courtesy_done[i] = true;
            }
        }

        // Collect one frame from every peer we did not suspect at round
        // start. Collection is concurrent (probe-driven over all pending
        // peers) against a deadline **anchored** to our entry time, so a
        // peer that burned its full round-`r` window on a member we had
        // already suspected is still inside our round-`r+1` window.
        let deadline = start + round_timeout * (round + 1);
        let mut pending: Vec<usize> =
            (0..n).filter(|&i| i != me_pos && !sent_bits.get(i)).collect();
        let mut all_echoed_exactly = true;
        while !pending.is_empty() {
            let mut progressed = false;
            let mut k = 0;
            while k < pending.len() {
                let i = pending[k];
                let peer = members[i];
                let polled = match comm.probe(peer, tag) {
                    Ok(Some(_)) => comm.recv_buf(peer, tag).map(Some),
                    Ok(None) => Ok(None),
                    Err(e) => Err(e),
                };
                match polled {
                    Ok(None) => {
                        k += 1;
                    }
                    Ok(Some(buf)) => {
                        progressed = true;
                        let Some((kind, fdirty, _round, bits)) = parse_frame(n, epoch, &buf)
                        else {
                            continue; // stale epoch or corrupt — re-probe
                        };
                        if kind == KIND_DECIDED {
                            // Adopt: re-flood so the decision survives its
                            // originator, then return it verbatim.
                            let decided = frame(KIND_DECIDED, fdirty, epoch, round, &bits);
                            for j in 0..n {
                                if j != me_pos && j != i {
                                    if comm.send_buf(members[j], tag, decided.clone()).is_err() {
                                        // Best-effort flood: unreachable
                                        // peers learn from someone else or
                                        // from the next epoch.
                                    }
                                }
                            }
                            return Ok(outcome(bits, round + 1, true, fdirty));
                        }
                        if bits != sent_bits || fdirty != sent_dirty {
                            all_echoed_exactly = false;
                        }
                        susp.union(&bits);
                        dirty |= fdirty;
                        pending.swap_remove(k);
                    }
                    Err(CommError::RankFailed { rank }) if rank != me => {
                        // Evidence, not silence: the peer is proven dead
                        // before the round's deadline.
                        progressed = true;
                        susp.set(i);
                        all_echoed_exactly = false;
                        pending.swap_remove(k);
                    }
                    Err(e) => return Err(e),
                }
            }
            if pending.is_empty() {
                break;
            }
            let now = comm.now();
            if now >= deadline {
                // Whoever has not produced a frame by the anchored deadline
                // is suspected; the next round floods that news.
                for &i in &pending {
                    susp.set(i);
                }
                all_echoed_exactly = false;
                break;
            }
            // An empty pass parks until something arrives or the anchored
            // deadline; a productive one only refreshes the count. The count
            // is read before the next sweep either way, so a frame landing
            // mid-sweep is never slept through.
            let budget = if progressed { Duration::ZERO } else { deadline - now };
            seen = comm.wait_arrival(seen, budget)?;
        }

        if susp.get(me_pos) {
            // Someone (perhaps everyone) suspects us. Participate no
            // further; report eviction with our best view.
            return Ok(outcome(susp, round + 1, false, dirty));
        }
        if susp == sent_bits && dirty == sent_dirty && all_echoed_exactly {
            stable += 1;
        } else {
            stable = 0;
        }
        if stable >= STABLE_ROUNDS {
            // Decide and flood, best-effort, to every member — including
            // suspected ones, so a falsely-suspected rank learns.
            let decided = frame(KIND_DECIDED, dirty, epoch, round, &susp);
            for j in 0..n {
                if j != me_pos {
                    if comm.send_buf(members[j], tag, decided.clone()).is_err() {
                        // Best-effort: a dead peer cannot learn anyway.
                    }
                }
            }
            return Ok(outcome(susp, round + 1, false, dirty));
        }
    }

    Err(CommError::Timeout {
        src: me,
        tag,
        waited: comm.now().saturating_sub(start),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimComm, SimConfig, ThreadComm};

    const ROUND: Duration = Duration::from_millis(150);

    #[test]
    fn empty_suspicions_decide_full_membership() {
        ThreadComm::run(4, |comm| {
            let out =
                agree_survivors(comm, &[0, 1, 2, 3], 0, ROUND, &Suspicion::none(4), false)
                    .unwrap();
            assert_eq!(out.survivors, vec![0, 1, 2, 3]);
            assert!(!out.evicted_me);
            assert!(!out.dirty);
            out
        });
    }

    #[test]
    fn one_dirty_entrant_makes_the_whole_decision_dirty() {
        // Rank 1 enters with a failed-exchange vote; everyone must decide
        // dirty = true with the full survivor set.
        let outs = ThreadComm::run(4, |comm| {
            let dirty = comm.rank() == 1;
            agree_survivors(comm, &[0, 1, 2, 3], 3, ROUND, &Suspicion::none(4), dirty)
                .unwrap()
        });
        for (r, out) in outs.iter().enumerate() {
            assert_eq!(out.survivors, vec![0, 1, 2, 3], "rank {r}");
            assert!(out.dirty, "rank {r}: dirty vote must flood to everyone");
        }
    }

    #[test]
    fn one_sided_suspicion_floods_to_everyone() {
        // Only rank 0 suspects the (absent) rank 2; all participants must
        // converge on the same survivor set {0, 1, 3}.
        let outs = ThreadComm::run(4, |comm| {
            if comm.rank() == 2 {
                return None;
            }
            let mut initial = Suspicion::none(4);
            if comm.rank() == 0 {
                initial.set(2);
            }
            Some(
                agree_survivors(comm, &[0, 1, 2, 3], 1, ROUND, &initial, false)
                    .unwrap(),
            )
        });
        for (r, out) in outs.iter().enumerate() {
            if r == 2 {
                continue;
            }
            let out = out.as_ref().unwrap();
            assert_eq!(out.survivors, vec![0, 1, 3], "rank {r}");
            assert!(!out.evicted_me, "rank {r}");
        }
    }

    #[test]
    fn survivor_sets_agree_under_sim_across_schedules() {
        for seed in 0..6u64 {
            let report = SimComm::try_run(5, &SimConfig::from_seed(seed), |comm| {
                if comm.rank() == 3 {
                    return Ok(None); // plays dead
                }
                let mut initial = Suspicion::none(5);
                if comm.rank() % 2 == 0 {
                    initial.set(3);
                }
                agree_survivors(comm, &[0, 1, 2, 3, 4], 2, ROUND, &initial, false).map(Some)
            });
            let mut sets = Vec::new();
            for (rank, o) in report.outcomes.iter().enumerate() {
                if rank == 3 {
                    continue;
                }
                let out = o.as_ref().expect("no panic").as_ref().unwrap().clone().unwrap();
                assert!(!out.evicted_me, "seed {seed} rank {rank}");
                sets.push(out.survivors);
            }
            for s in &sets {
                assert_eq!(s, &vec![0, 1, 2, 4], "seed {seed}");
            }
        }
    }

    #[test]
    fn a_silent_member_is_dropped_by_every_survivor_at_the_round_deadline() {
        // Rank 2 never enters. Round 0 is the proof-of-life sweep: everyone
        // else suspects exactly it when the round closes, one round timeout
        // after entry, and rounds 1 and 2 run at message speed — virtual
        // time does not move again before the decision.
        for seed in 0..4u64 {
            let report = SimComm::try_run(4, &SimConfig::from_seed(seed), |comm| {
                if comm.rank() == 2 {
                    return Ok(None);
                }
                let out = agree_survivors(comm, &[0, 1, 2, 3], 1, ROUND, &Suspicion::none(4), false)?;
                Ok::<_, CommError>(Some((out, comm.now())))
            });
            for (rank, o) in report.outcomes.iter().enumerate() {
                let Some((out, at)) = o.as_ref().expect("no panic").as_ref().unwrap() else {
                    assert_eq!(rank, 2);
                    continue;
                };
                assert_eq!(out.survivors, vec![0, 1, 3], "seed {seed} rank {rank}");
                assert_eq!((out.rounds, out.adopted, out.evicted_me), (3, false, false));
                assert_eq!(*at, ROUND, "seed {seed} rank {rank}");
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
