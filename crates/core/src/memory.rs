//! Memory-footprint model: the auxiliary space each engine config allocates
//! beyond the user's send/receive buffers.
//!
//! §3.2 is explicit that two-phase Bruck "requires more space in the
//! transfer phases to optimize communication time". The paper spends that
//! space on a monolithic `P × N` working buffer; this engine spends it on the
//! receive regions themselves — a forwarded block stays where it arrived, and
//! every step's region is kept until the exchange ends — so the footprint
//! follows the bytes that pass through the rank, not `N`: far below `P × N` when the
//! mean block is far below the maximum, above it when most blocks are near
//! `N` and `P` is large (every block hops ≈ ½·log₂ P times). Padding costs
//! two `P × N` images whatever the sizes are. This module quantifies
//! the trade-off so a selection can respect a memory budget: filter the
//! candidate slice by [`memory_overhead_bytes`] before handing it to
//! `bruck_model::AutoTuner::select` — the budget is a filter, not a second
//! selector.

use crate::nonuniform::{EngineConfig, EngineTopology};
use crate::radix::radix_schedule;

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
    // Padded send and receive images of the whole exchange, plus one step's
    // pack and unpack staging.
    let padded = 2 * p * n_max + 2 * step_wire(1);
    match cfg.topology {
        // Pairwise sends straight out of user buffers.
        EngineTopology::Oracle => 0,
        EngineTopology::Direct => {
            if cfg.padding.fires(n_max) {
                padded
            } else {
                0
            }
        }
        EngineTopology::Bruck if cfg.padding.fires(n_max) => padded,
        // Either layout forwards blocks from the receive regions they
        // arrived in and keeps every region to the end (nearly all of them
        // hold a block the last step forwards), so the peak is everything
        // that passed through the rank — each sub-step brings in about
        // 1/radix of the receive volume — plus the outgoing wire buffer.
        EngineTopology::Bruck => {
            let radix = cfg.radix.max(2); // an unvalidated config may hold less
            recv_total * radix_schedule(p, radix).len() / radix + step_wire(2)
        }
        // Leaders hold the whole group's data both ways; amortized per rank
        // this is a send + receive image.
        EngineTopology::Leader { group: _ } => send_total + recv_total,
        // Intermediates hold one piece of every block: a full send image in
        // aggregate, 1/P per rank of the global volume ≈ send_total.
        EngineTopology::TwoStage => send_total + recv_total / p.max(1),
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
        // Padding holds two P × N images; two-phase holds what passed through
        // the rank (10 steps × half the receive volume here).
        assert!(of(AlltoallvAlgorithm::PaddedBruck) > of(AlltoallvAlgorithm::TwoPhaseBruck));
        assert_eq!(of(AlltoallvAlgorithm::PaddedAlltoall), of(AlltoallvAlgorithm::PaddedBruck));
        assert!(of(AlltoallvAlgorithm::TwoPhaseBruck) >= 5 * totals);
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
