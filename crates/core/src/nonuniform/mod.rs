//! Non-uniform all-to-all (`MPI_Alltoallv` signature): §3 of the paper.
//!
//! Contract (identical to `MPI_Alltoallv`): rank `p` sends
//! `sendbuf[sdispls[i] .. sdispls[i] + sendcounts[i]]` to rank `i` and
//! receives rank `i`'s block for `p` into
//! `recvbuf[rdispls[i] .. rdispls[i] + recvcounts[i]]`. As in MPI, the caller
//! already knows `recvcounts` (apply [`bruck_comm::Communicator::alltoall_counts`]
//! first if it does not).

mod engine;
mod hierarchical;
mod recovering;
mod reference;

// `configurable_alltoallv_general` is the same function under the name the
// frozen `benchmark/` crate imports.
pub use engine::{
    alltoallv_discover, configurable_alltoallv,
    configurable_alltoallv as configurable_alltoallv_general, EngineConfig, EngineTopology,
    IntermediateLayout, PaddingRule, VENDOR_WINDOW,
};
pub use recovering::{
    recovering, recovering_alltoallv, Mttr, Recovered, RecoveringConfig, RecoveryOutcome,
};
pub use reference::{pattern, reference_alltoallv};

use bruck_comm::{CommError, CommResult, Communicator};

/// The non-uniform algorithms evaluated in §4 (Figures 6–13) plus the SLOAV
/// baseline reimplementation (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlltoallvAlgorithm {
    /// Pairwise oracle for tests.
    Reference,
    /// Non-blocking point-to-point, all pairs in flight.
    SpreadOut,
    /// Throttled spread-out standing in for the vendor `MPI_Alltoallv`.
    Vendor,
    /// Pad to uniform, Bruck exchange, scan (§3.1).
    PaddedBruck,
    /// Pad to uniform, vendor-style uniform all-to-all, scan (§4.1's
    /// `PaddedAlltoall` baseline).
    PaddedAlltoall,
    /// Coupled metadata/data exchange over a monolithic working buffer (§3.2).
    TwoPhaseBruck,
    /// Reimplementation of SLOAV (Xu et al.) with its combined-buffer metadata, block
    /// pointer array, and final scan (§6.1 describes these drawbacks).
    Sloav,
    /// Leader-based hierarchical exchange (related work, §6) with groups of
    /// eight ([`EngineConfig::as_hierarchical`]).
    Hierarchical,
}

impl AlltoallvAlgorithm {
    /// All algorithms, baselines first.
    pub const ALL: [AlltoallvAlgorithm; 8] = [
        AlltoallvAlgorithm::Reference,
        AlltoallvAlgorithm::SpreadOut,
        AlltoallvAlgorithm::Vendor,
        AlltoallvAlgorithm::PaddedBruck,
        AlltoallvAlgorithm::PaddedAlltoall,
        AlltoallvAlgorithm::TwoPhaseBruck,
        AlltoallvAlgorithm::Sloav,
        AlltoallvAlgorithm::Hierarchical,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            AlltoallvAlgorithm::Reference => "Reference",
            AlltoallvAlgorithm::SpreadOut => "Spread-out",
            AlltoallvAlgorithm::Vendor => "MPI_Alltoallv",
            AlltoallvAlgorithm::PaddedBruck => "Padded Bruck",
            AlltoallvAlgorithm::PaddedAlltoall => "PaddedAlltoall",
            AlltoallvAlgorithm::TwoPhaseBruck => "Two-phase Bruck",
            AlltoallvAlgorithm::Sloav => "SLOAV",
            AlltoallvAlgorithm::Hierarchical => "Hierarchical",
        }
    }
}

/// Run a non-uniform all-to-all by algorithm id: the configurable engine at
/// the named config point [`EngineConfig::for_algorithm`] gives for `algo`.
#[allow(clippy::too_many_arguments)]
pub fn alltoallv<C: Communicator + ?Sized>(
    algo: AlltoallvAlgorithm,
    comm: &C,
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
    recvbuf: &mut [u8],
    recvcounts: &[usize],
    rdispls: &[usize],
) -> CommResult<()> {
    configurable_alltoallv(
        comm,
        &EngineConfig::for_algorithm(algo),
        sendbuf,
        sendcounts,
        sdispls,
        recvbuf,
        recvcounts,
        rdispls,
    )
}

/// Exclusive prefix sums: the packed displacement array for a counts array.
pub fn packed_displs(counts: &[usize]) -> Vec<usize> {
    let mut displs = Vec::with_capacity(counts.len());
    let mut at = 0;
    for &c in counts {
        displs.push(at);
        at += c;
    }
    displs
}

/// Validate an `alltoallv` argument set; returns `P`.
pub(crate) fn validate_v<C: Communicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
    recvbuf: &[u8],
    recvcounts: &[usize],
    rdispls: &[usize],
) -> CommResult<usize> {
    let p = validate_send(comm, sendbuf, sendcounts, sdispls)?;
    if recvcounts.len() != p || rdispls.len() != p {
        return Err(CommError::BadArgument("recvcounts/rdispls must have length P"));
    }
    for i in 0..p {
        if rdispls[i].checked_add(recvcounts[i]).is_none_or(|end| end > recvbuf.len()) {
            return Err(CommError::BadArgument("recv block out of bounds"));
        }
    }
    // The self block never travels: it is copied, so both sides must agree.
    let me = comm.rank();
    if sendcounts[me] != recvcounts[me] {
        return Err(CommError::BadArgument("sendcounts and recvcounts disagree on the self block"));
    }
    Ok(p)
}

/// Validate the send side of an `alltoallv` argument set; returns `P`.
pub(crate) fn validate_send<C: Communicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    sendcounts: &[usize],
    sdispls: &[usize],
) -> CommResult<usize> {
    let p = comm.size();
    if sendcounts.len() != p || sdispls.len() != p {
        return Err(CommError::BadArgument("sendcounts/sdispls must have length P"));
    }
    for i in 0..p {
        if sdispls[i].checked_add(sendcounts[i]).is_none_or(|end| end > sendbuf.len()) {
            return Err(CommError::BadArgument("send block out of bounds"));
        }
    }
    Ok(p)
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use bruck_comm::ThreadComm;
    use bruck_workload::SizeMatrix;

    pub use super::pattern;

    /// Build rank `src`'s packed (sendbuf, sendcounts, sdispls) for a matrix.
    pub fn build_send(src: usize, m: &SizeMatrix) -> (Vec<u8>, Vec<usize>, Vec<usize>) {
        let counts = m.sendcounts(src);
        let displs = packed_displs(&counts);
        let total: usize = counts.iter().sum();
        let mut buf = vec![0u8; total];
        for dst in 0..m.p() {
            for idx in 0..counts[dst] {
                buf[displs[dst] + idx] = pattern(src, dst, idx);
            }
        }
        (buf, counts, displs)
    }

    /// Check rank `me`'s receive buffer against the matrix and pattern.
    pub fn check_recv(me: usize, m: &SizeMatrix, recvbuf: &[u8], rdispls: &[usize]) {
        for src in 0..m.p() {
            let len = m.get(src, me);
            for idx in 0..len {
                assert_eq!(
                    recvbuf[rdispls[src] + idx],
                    pattern(src, me, idx),
                    "rank {me}: byte {idx} of block from {src} (len {len})"
                );
            }
        }
    }

    /// Run the exchange `cfg` describes on every rank for the given size
    /// matrix and verify the output.
    pub fn run_and_check_config(cfg: &EngineConfig, m: &SizeMatrix) {
        let p = m.p();
        ThreadComm::run(p, |comm| {
            let me = comm.rank();
            let (sendbuf, sendcounts, sdispls) = build_send(me, m);
            let recvcounts = m.recvcounts(me);
            let rdispls = packed_displs(&recvcounts);
            let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
            configurable_alltoallv(
                comm, cfg, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
            )
            .unwrap_or_else(|e| panic!("{} failed: {e}", cfg.key()));
            check_recv(me, m, &recvbuf, &rdispls);
        });
    }

    /// Run `algo`'s named config point for the given size matrix.
    pub fn run_and_check_matrix(algo: AlltoallvAlgorithm, m: &SizeMatrix) {
        run_and_check_config(&EngineConfig::for_algorithm(algo), m);
    }

    /// Run `algo` over a generated workload.
    pub fn run_and_check(algo: AlltoallvAlgorithm, p: usize, n_max: usize, seed: u64) {
        let m = SizeMatrix::generate(bruck_workload::Distribution::Uniform, seed, p, n_max);
        run_and_check_matrix(algo, &m);
    }

    /// The sizes every variant must survive: powers of two, odd, prime, one.
    pub const TEST_SIZES: [usize; 9] = [1, 2, 3, 4, 5, 8, 12, 16, 17];
}

#[cfg(test)]
mod tests {
    use super::testutil::{run_and_check_matrix, TEST_SIZES};
    use super::*;
    use bruck_workload::{Distribution, SizeMatrix};

    /// Every algorithm on one matrix; the label names the case on failure.
    fn check_all(label: &str, m: &SizeMatrix) {
        for algo in AlltoallvAlgorithm::ALL {
            eprintln!("{} / {label} / P={}", algo.name(), m.p());
            run_and_check_matrix(algo, m);
        }
    }

    #[test]
    fn every_algorithm_correct_on_the_case_table() {
        // Powers of two, odd, prime, one.
        for p in TEST_SIZES {
            check_all("uniform", &SizeMatrix::generate(Distribution::Uniform, 0xBEEF, p, 48));
        }
        // P > window exercises the vendor batching loop.
        check_all("beyond the window", &SizeMatrix::generate(Distribution::Uniform, 0xFEED, 40, 16));
        for dist in [
            Distribution::Uniform,
            Distribution::Windowed { r: 30 },
            Distribution::Normal,
            Distribution::POWER_LAW_STEEP,
        ] {
            check_all(&dist.label(), &SizeMatrix::generate(dist, 7, 12, 96));
        }
        check_all("all-zero", &SizeMatrix::uniform(8, 0));
        // When every block is the same size, padding is a no-op.
        check_all("degenerate uniform", &SizeMatrix::uniform(7, 24));
        // Only rank 2 sends anything, and only to rank 5.
        let mut single = vec![vec![0usize; 8]; 8];
        single[2][5] = 40;
        check_all("single non-zero block", &SizeMatrix::from_rows(single));
        // One huge block per rank among tiny ones exercises the W staging.
        let skew = (0..9)
            .map(|src| (0..9).map(|dst| if dst == (src + 3) % 9 { 512 } else { 1 }).collect())
            .collect();
        check_all("one-huge-block skew", &SizeMatrix::from_rows(skew));
    }

    #[test]
    fn packed_displs_is_exclusive_prefix_sum() {
        assert_eq!(packed_displs(&[3, 0, 5, 1]), vec![0, 3, 3, 8]);
        assert_eq!(packed_displs(&[]), Vec::<usize>::new());
    }

    #[test]
    fn an_inconsistent_self_block_is_a_typed_error_on_every_path() {
        // The self block never travels, so a rank whose send and receive
        // counts for itself disagree cannot be served. Every rank here
        // disagrees with itself, so every rank refuses before it sends and
        // no peer waits on one that returned.
        for algo in AlltoallvAlgorithm::ALL {
            for p in [1usize, 3] {
                for (send, recv) in [(3usize, 4usize), (4, 3)] {
                    let got = bruck_comm::ThreadComm::run(p, |comm| {
                        let me = comm.rank();
                        let (mut sendcounts, mut recvcounts) = (vec![2; p], vec![2; p]);
                        (sendcounts[me], recvcounts[me]) = (send, recv);
                        let sendbuf = vec![7u8; sendcounts.iter().sum()];
                        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
                        alltoallv(
                            algo,
                            comm,
                            &sendbuf,
                            &sendcounts,
                            &packed_displs(&sendcounts),
                            &mut recvbuf,
                            &recvcounts,
                            &packed_displs(&recvcounts),
                        )
                    });
                    let want = Err(CommError::BadArgument(
                        "sendcounts and recvcounts disagree on the self block",
                    ));
                    assert!(
                        got.iter().all(|r| *r == want),
                        "{} at P={p}, send {send} / receive {recv}: {got:?}",
                        algo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn validate_rejects_out_of_bounds_blocks() {
        bruck_comm::ThreadComm::run(2, |comm| {
            let send = vec![0u8; 4];
            let recv = vec![0u8; 4];
            // block 1 reaches byte 5 > 4.
            let err = validate_v(comm, &send, &[2, 3], &[0, 2], &recv, &[2, 2], &[0, 2]);
            assert!(err.is_err());
            // block 1's end overflows `usize`.
            let err = validate_v(comm, &send, &[2, 2], &[0, usize::MAX], &recv, &[2, 2], &[0, 2]);
            assert!(matches!(err, Err(CommError::BadArgument(_))));
            let err = validate_v(comm, &send, &[2, 2], &[0, 2], &recv, &[2, 2], &[0, usize::MAX]);
            assert!(matches!(err, Err(CommError::BadArgument(_))));
        });
    }
}
