//! Tuple redistribution: one non-uniform all-to-all per fixpoint round, whose
//! receivers learn their counts from the exchange itself (DESIGN.md §14.5).

use std::time::{Duration, Instant};

use bruck_comm::{CommError, CommResult, Communicator};
use bruck_core::{alltoallv_discover, packed_displs, AlltoallvAlgorithm, EngineConfig};

use crate::tuple::{decode_into, le_u64};
use crate::{encode_into, Tuple, TUPLE_BYTES};

/// Bytes of the lane header at the front of every destination segment:
/// `(my largest block, my vote)` as little-endian `u64`s.
const HEADER_BYTES: usize = 16;

/// Instrumentation for one exchange (the data behind Figure 12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Global maximum block size this iteration (bytes) — the paper's `N`.
    pub n_max: usize,
    /// Sum of every rank's `vote` (see [`exchange_tuples`]).
    pub votes: u64,
    /// Tuple bytes this rank sent (all destinations, including the self
    /// block; the lane headers are not counted).
    pub bytes_sent: usize,
    /// Tuples this rank received.
    pub tuples_received: usize,
    /// Wall-clock time of the exchange.
    pub comm_time: Duration,
}

/// Route every tuple in `outboxes[dst]` to rank `dst` using the chosen
/// `alltoallv` algorithm; returns the tuples received and the exchange stats.
///
/// This is the single communication primitive of every BPRA application: the
/// paper swaps `MPI_Alltoallv` for two-phase Bruck here and nowhere else
/// (§5: "this step was simple as our algorithm has the same function
/// signature as MPI_Alltoallv").
///
/// It is one [`alltoallv_discover`]: every destination segment starts with a
/// 16-byte lane header, so each rank reads the global `N` (the max of the
/// first lane) and the sum of the callers' `vote`s (a fixpoint's
/// termination; 0 without one) off what it receives, and the engine finds
/// the receive counts on the exchange's own wire: an unpadded Bruck
/// algorithm (two-phase, SLOAV) sends one `[sizes | payload]` frame per
/// sub-step, 3 messages per rank at P = 8, and a direct one's receivers read
/// message lengths. Consecutive calls on one communicator must alternate
/// `odd_round`.
///
/// Every length here is a peer's word: a segment shorter than its header or
/// with a partial tuple, like an `outboxes` of the wrong length, is a
/// [`CommError::BadArgument`].
pub fn exchange_tuples<C: Communicator + ?Sized>(
    comm: &C,
    algo: AlltoallvAlgorithm,
    outboxes: &[Vec<Tuple>],
    vote: u64,
    odd_round: bool,
) -> CommResult<(Vec<Tuple>, ExchangeStats)> {
    if outboxes.len() != comm.size() {
        return Err(CommError::BadArgument("one outbox per rank"));
    }

    // Encode every outbox, behind its header, straight into the single packed
    // send region — no per-destination staging buffer.
    let local_max = outboxes.iter().map(Vec::len).max().unwrap_or(0) * TUPLE_BYTES;
    let sendcounts: Vec<usize> =
        outboxes.iter().map(|b| HEADER_BYTES + b.len() * TUPLE_BYTES).collect();
    let sdispls = packed_displs(&sendcounts);
    let mut sendbuf = Vec::with_capacity(sendcounts.iter().sum());
    for b in outboxes {
        sendbuf.extend_from_slice(&(local_max as u64).to_le_bytes());
        sendbuf.extend_from_slice(&vote.to_le_bytes());
        for &t in b {
            encode_into(t, &mut sendbuf);
        }
    }

    let start = Instant::now();
    let cfg = EngineConfig::for_algorithm(algo);
    let (recvbuf, recvcounts) =
        alltoallv_discover(comm, &cfg, &sendbuf, &sendcounts, &sdispls, odd_round)?;
    let comm_time = start.elapsed();

    // The iteration's global maximum block size (Figure 12's N series).
    let (mut n_max, mut votes) = (0u64, 0u64);
    let mut received = Vec::with_capacity(recvbuf.len() / TUPLE_BYTES);
    let mut segments = recvbuf.as_slice();
    for count in recvcounts {
        let (segment, rest) = segments.split_at(count);
        segments = rest;
        if segment.len() < HEADER_BYTES {
            return Err(CommError::BadArgument("tuple segment shorter than its header"));
        }
        let (header, tuples) = segment.split_at(HEADER_BYTES);
        n_max = n_max.max(le_u64(header));
        votes = votes.saturating_add(le_u64(&header[8..]));
        decode_into(tuples, &mut received)?;
    }
    let stats = ExchangeStats {
        n_max: n_max as usize,
        votes,
        bytes_sent: sendbuf.len() - HEADER_BYTES * outboxes.len(),
        tuples_received: received.len(),
        comm_time,
    };
    Ok((received, stats))
}

/// The driver of a semi-naive loop. Round `r` ships what the caller
/// derived from round `r − 1`'s delta and votes that delta's size, so the
/// exchange of round `r` also tells whether round `r − 1` was the last: the
/// verdict is one round late and costs no allreduce.
#[derive(Debug, Default)]
pub(crate) struct Fixpoint {
    /// Per data round: the globally new facts it produced (filled in by the
    /// next round's votes) and its exchange stats.
    pub rounds: Vec<(u64, ExchangeStats)>,
}

impl Fixpoint {
    /// Run one round; `None` at the fixpoint. New facts come only from
    /// received tuples and outboxes only from new facts, so the loop is over
    /// when the previous round found nothing anywhere (this round moved no
    /// tuples: its exchange is booked to that one) or when this one has
    /// `N == 0` (counted, as the round that found nothing).
    pub fn round<C: Communicator + ?Sized>(
        &mut self,
        comm: &C,
        algo: AlltoallvAlgorithm,
        outboxes: &[Vec<Tuple>],
        new_facts: u64,
    ) -> CommResult<Option<Vec<Tuple>>> {
        // Every call but the last pushes a round, so this alternates.
        let odd_round = self.rounds.len() % 2 == 1;
        let (received, stats) = exchange_tuples(comm, algo, outboxes, new_facts, odd_round)?;
        if let Some(last) = self.rounds.last_mut() {
            last.0 = stats.votes;
            if stats.votes == 0 {
                debug_assert_eq!(stats.n_max, 0, "tuples derived from an empty delta");
                last.1.comm_time += stats.comm_time;
                return Ok(None);
            }
        }
        self.rounds.push((0, stats));
        Ok((stats.n_max > 0).then_some(received))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bruck_comm::{SimComm, ThreadComm};
    use crate::owner;

    #[test]
    fn exchange_routes_tuples_to_their_destination() {
        let p = 6;
        // Counts off the Bruck frames, off the message lengths, and off the
        // counts exchange in front of a padded one.
        for algo in [
            AlltoallvAlgorithm::Vendor,
            AlltoallvAlgorithm::TwoPhaseBruck,
            AlltoallvAlgorithm::PaddedBruck,
        ] {
            let results = ThreadComm::run(p, |comm| {
                let me = comm.rank() as u64;
                // Send (me, dst) to each dst, and two tuples to dst 0.
                let mut outboxes: Vec<Vec<Tuple>> = vec![Vec::new(); p];
                for (dst, outbox) in outboxes.iter_mut().enumerate() {
                    outbox.push((me, dst as u64));
                }
                outboxes[0].push((me, 999));
                let (got, stats) = exchange_tuples(comm, algo, &outboxes, 0, false).unwrap();
                assert_eq!(stats.bytes_sent, (p + 1) * crate::TUPLE_BYTES);
                (comm.rank(), got, stats)
            });
            for (rank, mut got, stats) in results {
                got.sort_unstable();
                let mut expect: Vec<Tuple> = (0..p as u64).map(|s| (s, rank as u64)).collect();
                if rank == 0 {
                    expect.extend((0..p as u64).map(|s| (s, 999)));
                }
                expect.sort_unstable();
                assert_eq!(got, expect, "algo {algo:?} rank {rank}");
                assert_eq!(stats.tuples_received, expect.len());
                // Rank 0 receives 2 tuples per source: N = 32 bytes.
                assert_eq!(stats.n_max, 2 * crate::TUPLE_BYTES);
            }
        }
    }

    #[test]
    fn empty_exchange_works() {
        ThreadComm::run(4, |comm| {
            let outboxes = vec![Vec::new(); 4];
            let (got, stats) =
                exchange_tuples(comm, AlltoallvAlgorithm::TwoPhaseBruck, &outboxes, 0, false)
                    .unwrap();
            assert!(got.is_empty());
            assert_eq!(stats.n_max, 0);
        });
    }

    /// What each rank of a P = 3 world gets from one exchange when rank 1 is
    /// a rogue peer that sends rank 0 `segment` in place of a lane header and
    /// tuples (and everyone else an honest empty segment), or, with
    /// `segment = None`, when every rank passes one outbox too many.
    fn against_rogue_peer(comm: &dyn Communicator, segment: Option<&[u8]>) -> Option<CommError> {
        let p = comm.size();
        let algo = AlltoallvAlgorithm::TwoPhaseBruck;
        let Some(segment) = segment else {
            return exchange_tuples(comm, algo, &vec![Vec::new(); p + 1], 0, false).err();
        };
        if comm.rank() != 1 {
            return exchange_tuples(comm, algo, &vec![Vec::new(); p], 0, false).err();
        }
        let mut counts = vec![HEADER_BYTES; p];
        counts[0] = segment.len();
        let mut sendbuf = segment.to_vec();
        sendbuf.resize(counts.iter().sum(), 0);
        let cfg = EngineConfig::for_algorithm(algo);
        alltoallv_discover(comm, &cfg, &sendbuf, &counts, &packed_displs(&counts), false).err()
    }

    /// The rogue segments and wrong outboxes, with what each rank must get.
    fn rogue_cases() -> [(Option<&'static [u8]>, Vec<Option<CommError>>); 3] {
        let short = CommError::BadArgument("tuple segment shorter than its header");
        let partial = CommError::BadArgument("truncated tuple buffer");
        let outboxes = CommError::BadArgument("one outbox per rank");
        [
            (Some(&[7; 7]), vec![Some(short), None, None]),
            (Some(&[7; HEADER_BYTES + 5]), vec![Some(partial), None, None]),
            (None, vec![Some(outboxes); 3]),
        ]
    }

    #[test]
    fn a_rogue_peer_gets_a_typed_error_on_thread_comm() {
        for (segment, want) in rogue_cases() {
            assert_eq!(ThreadComm::run(3, |comm| against_rogue_peer(comm, segment)), want);
        }
    }

    #[test]
    fn a_rogue_peer_gets_a_typed_error_on_sim_comm() {
        for (segment, want) in rogue_cases() {
            for seed in [1, 2] {
                let run = SimComm::run(3, seed, |comm| against_rogue_peer(comm, segment));
                assert_eq!(run.results, want, "seed {seed}");
            }
        }
    }

    #[test]
    fn hash_partitioned_tuples_land_at_their_owner() {
        let p = 5;
        let results = ThreadComm::run(p, |comm| {
            let me = comm.rank() as u64;
            let mut outboxes = vec![Vec::new(); p];
            // Each rank generates 50 tuples and routes by owner of the key.
            for i in 0..50u64 {
                let t = (me * 1000 + i, i);
                outboxes[owner(t.1, p)].push(t);
            }
            let (got, _) =
                exchange_tuples(comm, AlltoallvAlgorithm::TwoPhaseBruck, &outboxes, 0, false)
                    .unwrap();
            (comm.rank(), got)
        });
        for (rank, got) in results {
            assert!(got.iter().all(|t| owner(t.1, p) == rank));
        }
    }
}
