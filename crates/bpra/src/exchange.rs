//! Tuple redistribution: one control exchange and one non-uniform all-to-all
//! per fixpoint round (DESIGN.md §14.5).

use std::time::{Duration, Instant};

use bruck_comm::{CommResult, Communicator};
use bruck_core::{alltoall, alltoallv, packed_displs, AlltoallAlgorithm, AlltoallvAlgorithm};

use crate::{decode_all, encode_into, Tuple};

/// Bytes of one control block: `(bytes I send you, my largest block, my
/// vote)` as little-endian `u64`s.
const CONTROL_BYTES: usize = 24;

/// Instrumentation for one exchange (the data behind Figure 12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Global maximum block size this iteration (bytes) — the paper's `N`.
    pub n_max: usize,
    /// Sum of every rank's `vote` (see [`exchange_tuples`]).
    pub votes: u64,
    /// Bytes this rank sent (all destinations, including self block).
    pub bytes_sent: usize,
    /// Tuples this rank received.
    pub tuples_received: usize,
    /// Wall-clock time of the control exchange plus the all-to-all.
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
/// What the ranks must agree on first rides one uniform Bruck all-to-all of
/// 24-byte blocks: the receive counts, the global `N`, and the sum of the
/// callers' `vote`s (a fixpoint's termination; 0 without one). With `N == 0`
/// every rank knows nothing moves, and the data exchange is skipped.
pub fn exchange_tuples<C: Communicator + ?Sized>(
    comm: &C,
    algo: AlltoallvAlgorithm,
    outboxes: &[Vec<Tuple>],
    vote: u64,
) -> CommResult<(Vec<Tuple>, ExchangeStats)> {
    assert_eq!(outboxes.len(), comm.size(), "one outbox per rank");

    // Encode every outbox straight into the single packed send region — no
    // per-destination staging buffer; the alltoallv below sends views of it.
    let sendcounts: Vec<usize> = outboxes.iter().map(|b| b.len() * crate::TUPLE_BYTES).collect();
    let sdispls = packed_displs(&sendcounts);
    let mut sendbuf = Vec::with_capacity(sendcounts.iter().sum());
    for b in outboxes {
        for &t in b {
            encode_into(t, &mut sendbuf);
        }
    }
    let local_max = sendcounts.iter().copied().max().unwrap_or(0) as u64;
    let lanes = sendcounts.iter().flat_map(|&count| [count as u64, local_max, vote]);
    let control: Vec<u8> = lanes.flat_map(u64::to_le_bytes).collect();

    let start = Instant::now();
    let mut gathered = vec![0u8; control.len()];
    alltoall(AlltoallAlgorithm::ZeroRotationBruck, comm, &control, &mut gathered, CONTROL_BYTES)?;
    let word = |w: &[u8]| u64::from_le_bytes(std::array::from_fn(|b| w[b]));
    let lane = |i: usize| gathered.chunks_exact(8).skip(i).step_by(CONTROL_BYTES / 8).map(word);
    let recvcounts: Vec<usize> = lane(0).map(|n| n as usize).collect();
    // The iteration's global maximum block size (Figure 12's N series).
    let n_max = lane(1).max().unwrap_or(0) as usize;
    let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
    if n_max > 0 {
        let rdispls = packed_displs(&recvcounts);
        alltoallv(algo, comm, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls)?;
    }
    let comm_time = start.elapsed();

    let received = decode_all(&recvbuf);
    let stats = ExchangeStats {
        n_max,
        votes: lane(2).sum(),
        bytes_sent: sendbuf.len(),
        tuples_received: received.len(),
        comm_time,
    };
    Ok((received, stats))
}

/// The driver of a semi-naive loop. Round `r` ships what the caller
/// derived from round `r − 1`'s delta and votes that delta's size, so the
/// control exchange that sizes round `r` also tells whether round `r − 1` was
/// the last: the verdict is one round late and costs no allreduce.
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
    /// data: its control exchange is booked to that one) or when this one has
    /// `N == 0` (counted, as the round that found nothing).
    pub fn round<C: Communicator + ?Sized>(
        &mut self,
        comm: &C,
        algo: AlltoallvAlgorithm,
        outboxes: &[Vec<Tuple>],
        new_facts: u64,
    ) -> CommResult<Option<Vec<Tuple>>> {
        let (received, stats) = exchange_tuples(comm, algo, outboxes, new_facts)?;
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
    use bruck_comm::ThreadComm;
    use crate::owner;

    #[test]
    fn exchange_routes_tuples_to_their_destination() {
        let p = 6;
        for algo in [AlltoallvAlgorithm::Vendor, AlltoallvAlgorithm::TwoPhaseBruck] {
            let results = ThreadComm::run(p, |comm| {
                let me = comm.rank() as u64;
                // Send (me, dst) to each dst, and two tuples to dst 0.
                let mut outboxes: Vec<Vec<Tuple>> = vec![Vec::new(); p];
                for (dst, outbox) in outboxes.iter_mut().enumerate() {
                    outbox.push((me, dst as u64));
                }
                outboxes[0].push((me, 999));
                let (got, stats) = exchange_tuples(comm, algo, &outboxes, 0).unwrap();
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
                exchange_tuples(comm, AlltoallvAlgorithm::TwoPhaseBruck, &outboxes, 0).unwrap();
            assert!(got.is_empty());
            assert_eq!(stats.n_max, 0);
        });
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
            let (got, _) = exchange_tuples(comm, AlltoallvAlgorithm::TwoPhaseBruck, &outboxes, 0)
                .unwrap();
            (comm.rank(), got)
        });
        for (rank, got) in results {
            assert!(got.iter().all(|t| owner(t.1, p) == rank));
        }
    }
}
