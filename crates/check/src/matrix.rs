//! The **check** interpretation of the registry: every [`Family::Check`]
//! row run once on `SimComm` under the lowest-runnable-first schedule, with
//! the wire log recorded.
//!
//! Each case runs the cell's one rank body through
//! [`crate::schedule::record`], verifies every rank's output against
//! [`Cell::expected`](crate::cells::Cell::expected),
//! layout-checks the `alltoallv` argument arrays, and runs the full analysis
//! suite from [`crate::analysis`] over the schedule.

use crate::analysis::{analyze, check_layout, Finding};
use bruck_comm::SimConfig;

use crate::cells::{rows, Cell, Family, Op, Tier, DEFAULT_SEEDS};
use crate::schedule::{lowest_first, record, Extraction};

/// One verified case: a label and whatever findings it produced.
#[derive(Debug)]
pub struct CaseReport {
    /// The cell's label, e.g. `"alltoallv:Two-phase Bruck/normal/p=8/n=16/w=…"`.
    pub name: String,
    /// All findings from output verification and schedule analysis.
    pub findings: Vec<Finding>,
}

impl CaseReport {
    /// No findings at all?
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Verify one cell on the lowest-first recorded run.
pub fn check_cell(cell: &Cell) -> CaseReport {
    check_cell_in(cell, &lowest_first()).0
}

/// [`check_cell`] under any simulator schedule; also hands back the
/// extraction the findings were read from.
fn check_cell_in(cell: &Cell, cfg: &SimConfig) -> (CaseReport, Extraction) {
    let (extraction, outputs) = record(cell.p, cfg, |comm| cell.run_rank(comm));
    let mut findings = Vec::new();
    // Rank errors and stalls are the analyses' to explain (with the cycle,
    // the tag, the orphaned receive); wrong bytes are only visible here.
    for (rank, out) in outputs.iter().enumerate() {
        if let Ok(Ok(bytes)) = out {
            if let Err(detail) = cell.verify(rank, bytes, &[]) {
                findings.push(Finding::WrongOutput { rank, detail });
            }
        }
    }
    match cell.op {
        Op::Alltoallv(_) | Op::Discover(_) => {
            for me in 0..cell.p {
                let a = cell.v_args(me);
                let recv_len = a.recvcounts.iter().sum();
                findings.extend(check_layout(
                    &format!("rank {me} sdispls"), &a.sendcounts, &a.sdispls, a.sendbuf.len(),
                ));
                findings.extend(check_layout(
                    &format!("rank {me} rdispls"), &a.recvcounts, &a.rdispls, recv_len,
                ));
            }
        }
        Op::Alltoall(..)
        | Op::Allgatherv(_)
        | Op::ReduceScatter(..)
        | Op::Allreduce(..)
        | Op::Fixpoint(..) => {}
    }
    findings.extend(analyze(&extraction));
    (CaseReport { name: cell.label(), findings }, extraction)
}

/// Run the full verification matrix. This is what `bruck-check` (the binary)
/// and `scripts/verify.sh` gate on.
pub fn run_full_matrix() -> Vec<CaseReport> {
    rows(Family::Check, Tier::Full, &DEFAULT_SEEDS).iter().map(|row| check_cell(&row.cell)).collect()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    /// One message: its `(src, dst, tag)`, payload, whether it was received,
    /// and its vector-clock verdict against its predecessor on the same key
    /// (per-sender program order, so "predecessor" means the same thing under
    /// every schedule).
    type MessageRow = ((usize, usize, u32), Vec<u8>, bool, Option<bool>);

    /// The message table as a multiset.
    fn message_table(ext: &Extraction) -> Vec<MessageRow> {
        let mut last = BTreeMap::new();
        let mut table: Vec<_> = (ext.schedule.messages.iter().enumerate())
            .map(|(i, m)| {
                let key = (m.src, m.dst, m.tag);
                let overlaps =
                    last.insert(key, i).map(|prev| ext.schedule.concurrent_in_flight(prev, i));
                (key, m.payload.to_vec(), m.recv_event.is_some(), overlaps)
            })
            .collect();
        table.sort();
        table
    }

    #[test]
    fn the_analyses_do_not_depend_on_the_lowest_first_schedule() {
        let all = rows(Family::Check, Tier::Full, &DEFAULT_SEEDS);
        let order = |ext: &Extraction| -> Vec<_> {
            ext.schedule.messages.iter().map(|m| (m.src, m.dst, m.tag)).collect()
        };
        let mut reordered = 0;
        for row in all.iter().step_by(13) {
            let (base, base_ext) = check_cell_in(&row.cell, &lowest_first());
            assert!(!base_ext.schedule.messages.is_empty() || row.cell.p == 1, "{}", base.name);
            for seed in [1, 2, 3] {
                let (seeded, ext) = check_cell_in(&row.cell, &SimConfig::from_seed(seed));
                assert_eq!(seeded.findings, base.findings, "{} under seed {seed}", base.name);
                assert!(
                    message_table(&ext) == message_table(&base_ext),
                    "{}: message table moved under seed {seed}",
                    base.name
                );
                reordered += usize::from(order(&ext) != order(&base_ext));
            }
        }
        assert!(reordered > 0, "the seeds never left the lowest-first send order");
    }
}
