//! Index arithmetic shared by every Bruck variant.

use bruck_comm::Tag;

/// Number of communication steps: ⌈log₂ P⌉ (0 for P = 1).
#[inline]
pub fn ceil_log2(p: usize) -> u32 {
    debug_assert!(p >= 1);
    usize::BITS - (p - 1).leading_zeros()
}

/// The rotation index array of Zero Rotation Bruck and two-phase Bruck
/// (§2.1, §3.2): `I[j] = (2p − j) mod P` for this rank `p`, mapping an
/// *absolute working slot* `j` back to the original send-buffer block that
/// modified Bruck's initial rotation would have placed there.
pub fn rotation_index(rank: usize, p: usize) -> Vec<usize> {
    (0..p).map(|j| ((2 * rank + p) - j) % p).collect()
}

/// Bytes of piece `i` (of `p`) of a `len`-byte block split into near-equal
/// pieces: `len/p`, plus one for the first `len mod p` pieces. The
/// Rabenseifner allreduce splits its vector this way.
#[inline]
pub fn piece_len(len: usize, i: usize, p: usize) -> usize {
    len / p + usize::from(i < len % p)
}

/// `(a − b) mod p` without underflow.
#[inline]
pub fn sub_mod(a: usize, b: usize, p: usize) -> usize {
    (a + p - b % p) % p
}

/// `(a + b) mod p`.
#[inline]
pub fn add_mod(a: usize, b: usize, p: usize) -> usize {
    (a + b) % p
}

// ---------------------------------------------------------------------------
// Tag conventions. All well below `bruck_comm::RESERVED_TAG_BASE`. The cost
// model and `MeteredComm`-based validation group traffic per step by tag.
// ---------------------------------------------------------------------------

/// Tag for the data message of uniform-Bruck step `k`.
pub fn uniform_step_tag(k: u32) -> Tag {
    0x0100 + k
}

/// Tag for the metadata message of non-uniform step `k` (two-phase, SLOAV).
pub fn meta_tag(k: u32) -> Tag {
    0x0200 + k
}

/// Tag for the data message of non-uniform step `k`.
pub fn data_tag(k: u32) -> Tag {
    0x0300 + k
}

/// Tag for spread-out / pairwise point-to-point payloads.
pub const SPREAD_TAG: Tag = 0x0400;

/// Tag for the hierarchical algorithm's member→leader gather phase.
pub const HIER_GATHER_TAG: Tag = 0x0500;

/// Tag for the hierarchical algorithm's leader↔leader exchange phase.
pub const HIER_LEADER_TAG: Tag = 0x0501;

/// Tag for the hierarchical algorithm's leader→member scatter phase.
pub const HIER_SCATTER_TAG: Tag = 0x0502;

// ---------------------------------------------------------------------------
// The wider collective family (allgatherv / reduce_scatter / allreduce /
// PAT) owns the 0x0800..0x0FFF block — disjoint from every alltoallv tag
// above, so composed collectives (the reduce_scatter + allgatherv allreduce)
// can never match a stray alltoallv frame. The collectives' plans carry these
// tags and `bruck-model` prices the plans, so the two crates share one
// definition of every tag.
// ---------------------------------------------------------------------------

/// Tag for ring-allgatherv step `s` (one hop per step, `P − 1` steps).
pub fn agv_ring_tag(s: u32) -> Tag {
    0x0800 + s
}

/// Tag for Bruck (distance-doubling) allgatherv step `k`.
pub fn agv_bruck_tag(k: u32) -> Tag {
    0x0900 + k
}

/// Tag for every round of the pairwise-exchange reduce_scatter.
pub const RS_PAIRWISE_TAG: Tag = 0x0A00;

/// Tag for recursive-halving reduce_scatter step `k`.
pub fn rs_halving_tag(k: u32) -> Tag {
    0x0B00 + k
}

/// Tag for distance-doubling allreduce round `k`.
pub fn ar_doubling_tag(k: u32) -> Tag {
    0x0C00 + k
}

/// Tag for PAT all-gather phase `k` (descending-bit binomial trees).
pub fn pat_ag_tag(k: u32) -> Tag {
    0x0D00 + k
}

/// Tag for PAT reduce-scatter phase `k` (ascending-bit mirrored trees).
pub fn pat_rs_tag(k: u32) -> Tag {
    0x0E00 + k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn piece_arithmetic_partitions_blocks() {
        for len in [0usize, 1, 7, 64, 65, 1023] {
            for p in [1usize, 2, 5, 8, 13] {
                let pieces: Vec<usize> = (0..p).map(|i| piece_len(len, i, p)).collect();
                assert_eq!(pieces.iter().sum::<usize>(), len, "len={len} p={p}");
                // Balanced within one byte, the longer pieces first.
                assert!(pieces.windows(2).all(|w| w[0] >= w[1]), "len={len} p={p}");
                assert!(pieces[0] - pieces[p - 1] <= 1, "len={len} p={p}");
            }
        }
    }

    #[test]
    fn ceil_log2_matches_definition() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn rotation_index_is_self_inverse_shift() {
        for p in [1usize, 2, 5, 8] {
            for rank in 0..p {
                let idx = rotation_index(rank, p);
                // I[I[j]] = j (the map j ↦ 2p − j is an involution mod P).
                for j in 0..p {
                    assert_eq!(idx[idx[j]], j);
                }
                // The self block maps to itself: I[rank] = rank.
                assert_eq!(idx[rank], rank);
            }
        }
    }
}
