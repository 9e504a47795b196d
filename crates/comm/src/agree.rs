//! All-survivor agreement: turn per-rank suspicion sets into one survivor
//! set that every live rank decides identically.
//!
//! [`crate::detect_failures`] produces *local* suspicions — a member that
//! died mid-window may have proved itself to some peers and not others, and
//! a member can keep dying while agreement itself is running. This module
//! runs a flooding consensus over suspicion bitmaps
//! ([`crate::Suspicion`]):
//!
//! 1. **Rounds.** Each round, every participating rank sends its current
//!    bitmap to every member it does not suspect, then collects one frame
//!    from each such member (with a timeout) and unions what it receives.
//!    A member that times out — or whose send fails with
//!    [`crate::CommError::RankFailed`] — joins the suspicion set, so
//!    failures *during* agreement simply re-enter the flood as new bits and
//!    the round structure re-runs on the shrunken view until a fixpoint.
//! 2. **Stability.** A rank's view is *stable* when a round changes
//!    nothing: its own set did not grow and every collected frame echoed
//!    exactly its set. After [`AgreeConfig::stable_rounds`] consecutive
//!    stable rounds the rank *decides*.
//! 3. **Decision flooding.** A deciding rank broadcasts a DECIDED frame
//!    carrying the final bitmap to every member (best-effort, including
//!    suspected ones — a falsely-suspected live rank learns its eviction
//!    here) and returns. Any rank that receives a DECIDED frame mid-round
//!    immediately adopts the decided set, re-floods it, and returns — so
//!    one decision propagates even if its originator crashes mid-flood,
//!    as long as any live rank received it.
//!
//! Two deciding ranks always decide the same set: deciding requires two
//! rounds in which *every* live participant echoed the decider's exact
//! bitmap, so concurrent deciders have pairwise-equal bitmaps, and any
//! later rank adopts a flooded decision instead of deciding independently.
//! The one unavoidable wrinkle (crash-stop consensus with real timeouts):
//! a member that dies *after* the last flood it participated in may still
//! appear in the decided survivor set. That is not a safety violation for
//! the recovery stack — the next epoch's exchange trips over the stale
//! member and the whole detect → agree → shrink cycle runs again (this is
//! what makes recovery *multi*-epoch).
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

use crate::communicator::await_arrival;
use crate::detect::Suspicion;
use crate::{CommError, CommResult, Communicator, MsgBuf, Tag, RESERVED_TAG_BASE};

/// Base of the agreement tag block (`0x3100..0x31FF` above
/// [`RESERVED_TAG_BASE`]): 256 epochs.
pub(crate) const AGREE_TAG_BASE: Tag = RESERVED_TAG_BASE + 0x3100;

fn agree_tag(epoch: u32) -> Tag {
    AGREE_TAG_BASE + (epoch % 0x100)
}

const KIND_ROUND: u8 = 0;
const KIND_DECIDED: u8 = 1;

const FLAG_DIRTY: u8 = 1;

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

/// Timing and termination policy for [`agree_survivors`].
///
/// Round deadlines are **anchored**: round `r`'s collection at a rank ends
/// at `entry + (r+1) · round_timeout`, where `entry` is when that rank
/// called [`agree_survivors`]. Anchoring is what keeps ranks from drifting
/// apart — a rank that burns a full window suspecting a dead peer in round
/// `r` is still inside every other rank's round-`r+1` deadline, provided
/// `round_timeout` exceeds the entry skew. Rounds do **not** busy-wait to
/// their deadline: a round completes the moment every expected frame has
/// arrived, so an all-alive agreement runs at message speed and only
/// rounds that witness a failure pay the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgreeConfig {
    /// Per-round collection window. Must exceed the entry skew between
    /// ranks (detection may end at different instants on different ranks)
    /// plus, above an ARQ layer, that layer's retry budget for one send to
    /// a dead peer.
    pub round_timeout: Duration,
    /// Consecutive stable rounds required before deciding (≥ 1; 2 gives a
    /// freshly-propagated suspicion a round to reach everyone first).
    pub stable_rounds: u32,
    /// Hard cap on rounds; exceeding it returns
    /// [`crate::CommError::Timeout`] (crash-only: a wedged agreement fails
    /// loudly rather than spinning).
    pub max_rounds: u32,
}

impl Default for AgreeConfig {
    fn default() -> Self {
        AgreeConfig {
            round_timeout: Duration::from_millis(200),
            stable_rounds: 2,
            max_rounds: 64,
        }
    }
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
/// seeds the flood with this rank's detector verdicts; `dirty` seeds the
/// flooded commit/abort vote (pass `true` when this rank's preceding
/// exchange failed — the decided [`AgreeOutcome::dirty`] is then true at
/// every survivor).
///
/// Errors only for local failure (this rank crashed, malformed arguments)
/// or protocol non-termination within [`AgreeConfig::max_rounds`].
pub fn agree_survivors<C: Communicator + ?Sized>(
    comm: &C,
    members: &[usize],
    epoch: u32,
    cfg: &AgreeConfig,
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
    if cfg.stable_rounds == 0 || cfg.max_rounds == 0 {
        return Err(CommError::BadArgument("stable_rounds and max_rounds must be >= 1"));
    }
    for &m in members {
        comm.check_rank(m)?;
    }
    let tag = agree_tag(epoch);

    let mut susp = initial.clone();
    let mut dirty = dirty;
    // Members suspected before agreement began (detector verdicts): high
    // confidence, never contacted. Members that become suspected *during*
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

    for round in 0..cfg.max_rounds {
        let sent_bits = susp.clone();
        let sent_dirty = dirty;
        let round_frame = frame(KIND_ROUND, sent_dirty, epoch, round, &sent_bits);

        // Send to every unsuspected peer; one courtesy copy to the newly
        // suspected. Send failures incriminate the peer, not us.
        for i in 0..n {
            if i == me_pos {
                continue;
            }
            let is_susp = susp.get(i);
            if is_susp && courtesy_done[i] {
                continue;
            }
            if let Err(e) = comm.send_buf(members[i], tag, round_frame.clone()) {
                match e {
                    CommError::RankFailed { rank } if rank != me => {
                        if let Some(pos) = members.iter().position(|&m| m == rank) {
                            susp.set(pos);
                        }
                    }
                    other => return Err(other),
                }
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
        let deadline = start + cfg.round_timeout * (round + 1);
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
                        progressed = true;
                        if let Some(pos) = members.iter().position(|&m| m == rank) {
                            susp.set(pos);
                        }
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
            // An empty pass parks until a frame arrives or the anchored
            // deadline.
            seen = await_arrival(comm, seen, !progressed, deadline - now)?;
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
        if stable >= cfg.stable_rounds {
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
    use crate::detect::Suspicion;
    use crate::{SimComm, SimConfig, ThreadComm};

    fn quick() -> AgreeConfig {
        AgreeConfig {
            round_timeout: Duration::from_millis(150),
            stable_rounds: 2,
            max_rounds: 32,
        }
    }

    #[test]
    fn empty_suspicions_decide_full_membership() {
        ThreadComm::run(4, |comm| {
            let out =
                agree_survivors(comm, &[0, 1, 2, 3], 0, &quick(), &Suspicion::none(4), false)
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
            agree_survivors(comm, &[0, 1, 2, 3], 3, &quick(), &Suspicion::none(4), dirty)
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
                agree_survivors(comm, &[0, 1, 2, 3], 1, &quick(), &initial, false)
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
                agree_survivors(comm, &[0, 1, 2, 3, 4], 2, &quick(), &initial, false).map(Some)
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
}
