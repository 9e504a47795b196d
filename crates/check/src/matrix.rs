//! The **check** interpretation of the registry: every [`Family::Check`]
//! row symbolically executed under [`World::Model`].
//!
//! Each case runs the cell's one rank body through
//! [`crate::model::extract`], verifies every rank's output against
//! [`Cell::expected`](crate::cells::Cell::expected), layout-checks the
//! `alltoallv` argument arrays, and runs the full analysis suite from
//! [`crate::analysis`] over the extracted schedule. Keep `p` small (≤ 12)
//! in check rows: symbolic execution replays each rank's body once per
//! blocking receive.

use crate::analysis::{analyze, check_layout, Finding};
use bruck_comm::Communicator;

use crate::cells::{rows, Cell, Family, Op, Tier, DEFAULT_SEEDS};
use crate::runner::{launch, World};

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

/// Verify one cell under symbolic execution.
pub fn check_cell(cell: &Cell) -> CaseReport {
    let body = {
        let cell = *cell;
        move |comm: &dyn Communicator| cell.run_rank(comm)
    };
    let launched = launch(&World::Model, cell.p, "", body);
    let mut findings = Vec::new();
    // Rank errors and stalls are the analyses' to explain (with the cycle,
    // the tag, the orphaned receive); wrong bytes are only visible here.
    for (rank, out) in launched.ranks.iter().enumerate() {
        if let Ok(Ok(bytes)) = out {
            if let Err(detail) = cell.verify(rank, bytes, &[]) {
                findings.push(Finding::WrongOutput { rank, detail });
            }
        }
    }
    match cell.op {
        Op::Alltoallv(_) | Op::Plan(_) => {
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
        Op::Alltoall(..) | Op::Allgatherv(_) | Op::ReduceScatter(..) | Op::Allreduce(..) => {}
    }
    if let Some(extraction) = &launched.extraction {
        findings.extend(analyze(extraction));
    }
    CaseReport { name: cell.label(), findings }
}

/// Run the full verification matrix. This is what `bruck-check` (the binary)
/// and `scripts/verify.sh` gate on.
pub fn run_full_matrix() -> Vec<CaseReport> {
    rows(Family::Check, Tier::Full, &DEFAULT_SEEDS).iter().map(|row| check_cell(&row.cell)).collect()
}
