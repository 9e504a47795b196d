//! Memory-footprint model: the auxiliary space each engine config allocates
//! beyond the user's send/receive buffers.
//!
//! §3.2 is explicit that two-phase Bruck "requires more space in the
//! transfer phases to optimize communication time". The paper spends that
//! space on a monolithic `P × N` working buffer; this engine spends it on the
//! receive regions themselves — a forwarded block stays where it arrived, and
//! every step's region is kept until the exchange ends — so the footprint
//! follows the bytes that pass through the rank, not `N`: far below `P × N`
//! when the mean block is far below the maximum, above it when most blocks
//! are near `N` and `P` is large (every block hops ≈ ½·log₂ P times).
//!
//! Padded alltoall holds two `P × N` images (send and receive) whatever the
//! sizes are. Padded Bruck holds none: its first pack of each block pads it
//! on the wire, and its uniform loop forwards from the receive regions and
//! strips each slot on delivery, so what it holds is the `N`-byte slots that
//! pass through the rank — about `½·⌈log₂ P⌉` images at radix 2 plus one
//! step's wire buffer, *more* than padded alltoall's two images and their
//! staging once `P > 32` — the trade two-phase makes too, paid for the
//! receive image's per-hop copies and the final scan it no longer runs.
//!
//! This module quantifies the trade-off so a selection can respect a memory
//! budget: filter the candidate slice by [`memory_overhead_bytes`] before
//! handing it to `bruck_model::AutoTuner::select` — the budget is a filter,
//! not a second selector.

use crate::collectives::alltoall_plan;
use crate::nonuniform::{EngineConfig, EngineTopology};

/// Auxiliary bytes allocated by one call of `cfg` (an [`EngineConfig`] or an
/// `AlltoallvAlgorithm`, i.e. its named point) on one rank, excluding the
/// caller's own send/receive buffers and O(P) index arrays.
///
/// * `p` — communicator size; `n_max` — global maximum block size;
/// * `send_total` / `recv_total` — this rank's total send/receive volume.
pub fn memory_overhead_bytes(
    cfg: impl Into<EngineConfig>,
    p: usize,
    n_max: usize,
    send_total: usize,
    recv_total: usize,
) -> usize {
    let cfg = cfg.into();
    // One step's wire buffer: ≈ (P+1)/2 blocks of ~N/avg each.
    let step_wire = |avg_factor: usize| p.div_ceil(2) * (n_max / avg_factor);
    // A Bruck loop forwards blocks from the receive regions they arrived in
    // and keeps every region to the end (nearly all of them hold a block the
    // last step forwards), so the peak is everything that passed through the
    // rank — each sub-step brings in about 1/radix of the receive volume —
    // plus the outgoing wire buffer.
    let radix = cfg.radix.max(2); // an unvalidated config may hold less
    let steps = alltoall_plan(p, radix, true).steps.len();
    let passed_through = |recv: usize| recv * steps / radix;
    let pads = cfg.padding.fires(n_max);
    match cfg.topology {
        // Pairwise sends straight out of user buffers.
        EngineTopology::Oracle => 0,
        // Padded send and receive images, plus one step's pack and unpack
        // staging.
        EngineTopology::Direct if pads => 2 * p * n_max + 2 * step_wire(1),
        EngineTopology::Direct => 0,
        // `N`-byte slots through the rank; the packs pad, so no send image.
        EngineTopology::Bruck if pads => passed_through(p * n_max) + step_wire(1),
        EngineTopology::Bruck => passed_through(recv_total) + step_wire(2),
        // Leaders hold the whole group's data both ways; amortized per rank
        // this is a send + receive image.
        EngineTopology::Leader { group: _ } => send_total + recv_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonuniform::{AlltoallvAlgorithm, PaddingRule};

    #[test]
    fn footprints_order_as_the_paper_describes() {
        let (p, n) = (1024, 512);
        let totals = p * n / 2;
        let of = |a: AlltoallvAlgorithm| memory_overhead_bytes(a, p, n, totals, totals);
        assert_eq!(of(AlltoallvAlgorithm::Vendor), 0);
        // Padded alltoall holds two P × N images (+ two 512-slot staging
        // steps); padded Bruck none, only the slots through the rank: 10
        // steps × half of P × N (+ one staging step); two-phase what passed
        // through the rank (10 steps × half the receive volume here) + one
        // half-size staging step.
        let image = p * n;
        assert_eq!(of(AlltoallvAlgorithm::PaddedAlltoall), 2 * image + 2 * 512 * n);
        assert_eq!(of(AlltoallvAlgorithm::PaddedAlltoall), 1_572_864);
        assert_eq!(of(AlltoallvAlgorithm::PaddedBruck), 5 * image + 512 * n);
        assert_eq!(of(AlltoallvAlgorithm::PaddedBruck), 2_883_584);
        assert_eq!(of(AlltoallvAlgorithm::TwoPhaseBruck), 5 * totals + 512 * n / 2);
        assert_eq!(of(AlltoallvAlgorithm::TwoPhaseBruck), 1_441_792);
        assert!(of(AlltoallvAlgorithm::PaddedBruck) > of(AlltoallvAlgorithm::PaddedAlltoall));
        assert_eq!(of(AlltoallvAlgorithm::Sloav), of(AlltoallvAlgorithm::TwoPhaseBruck));
        // No P × N term: a skewed exchange (mean ≪ N) costs a fraction of it.
        let skewed = memory_overhead_bytes(AlltoallvAlgorithm::TwoPhaseBruck, p, n, p * 8, p * 8);
        assert!(skewed < p * n / 2, "{skewed}");
    }

    #[test]
    fn a_threshold_rule_costs_the_padded_images_only_when_it_fires() {
        let (p, totals) = (64, 64 * 16);
        let cfg = EngineConfig {
            padding: PaddingRule::Threshold(64),
            ..EngineConfig::as_two_phase()
        };
        let padded = AlltoallvAlgorithm::PaddedBruck;
        let two_phase = AlltoallvAlgorithm::TwoPhaseBruck;
        assert_eq!(
            memory_overhead_bytes(cfg, p, 32, totals, totals),
            memory_overhead_bytes(padded, p, 32, totals, totals)
        );
        assert_eq!(
            memory_overhead_bytes(cfg, p, 512, totals, totals),
            memory_overhead_bytes(two_phase, p, 512, totals, totals)
        );
    }
}
