//! The self-healing recovery matrix: a scripted crash at four points of
//! every operation family, under the deterministic simulator.
//!
//! Each row runs a 5-rank `SimComm` world whose victim rank a
//! [`FaultComm`] crashes at a share of the data ops its operation takes —
//! the victim's [`FaultComm::ops`] at the end of the operation, read in a
//! healthy run of the same driver — and drives the operation through
//! [`recovering`](bruck_core::recovering)'s execute → agree → shrink →
//! retry. The `alltoallv` rows call [`recovering_alltoallv`]; every other
//! row runs [`recover_cell`], the chaos soak's rank body, over the bare
//! `FaultComm` instead of the ARQ stack. Per row the harness asserts the
//! chaos crash contract ([`judge`] under [`Expectation::MustRecover`]):
//!
//! * **Typed endings** — the victim fails with a fault error; every survivor
//!   returns [`RecoveryOutcome::Recovered`] naming exactly the victim as
//!   evicted, on the dense survivor view.
//! * **Byte-correct on the survivor world** — every survivor's output is
//!   [`Cell::expected_on`] the survivor view: what a fault-free run on the
//!   survivor set alone produces (`direct_survivor_runs_match` re-proves that
//!   equality by running it).
//! * **Deterministic** — the row is run twice with the same seed and the
//!   two runs must fold to byte-identical digests (outcomes, views, outputs,
//!   and virtual-time MTTR included).
//!
//! The virtual-time MTTR breakdown (agree / repair / re-execute) of
//! the slowest survivor is reported per row and can be emitted as line-JSON
//! (`bruck-chaos --smoke --out BENCH_PR8.json`) and regression
//! checked against a committed baseline (`--check-against`).

use std::time::Duration;

use bruck_comm::{CommError, CommResult, Communicator, FaultComm, FaultPlan};
use bruck_core::{recovering_alltoallv, Mttr, Recovered, RecoveringConfig, RecoveryOutcome};

use crate::cells::{
    digest_rank_buf, rows, Cell, Expectation, Family, Harness, Op, Row, Tier, RECOVERY_WORLD,
};
use crate::runner::{judge, launch, recover_cell, run_twice, Launched, World};

/// The recovering budgets every row runs under: tight enough that a whole
/// row is a few simulated seconds, with the confirm's round window derived
/// from the deadline ([`RecoveringConfig::round_timeout`]).
pub fn recovery_config() -> RecoveringConfig {
    RecoveringConfig { deadline: Duration::from_millis(600), ..RecoveringConfig::default() }
}

/// Virtual-time MTTR of one row's slowest survivor, plus retry shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellMttr {
    /// The slowest survivor's breakdown.
    pub mttr: Mttr,
    /// Recovery cycles that survivor went through.
    pub cycles: u32,
    /// Attempts it used (first try included).
    pub attempts: u32,
}

/// One recovery row's outcome.
#[derive(Debug)]
pub struct RecoveryCellReport {
    /// `op/class/seed` label.
    pub label: String,
    /// Violation description, if the row failed.
    pub violation: Option<String>,
    /// Slowest-survivor MTTR (absent if the row failed before extraction).
    pub mttr: Option<CellMttr>,
    /// The victim's crash threshold.
    pub crash_after_ops: u64,
}

/// One rank's recovered output, and its `FaultComm::ops()` at the end of
/// the last operation it ran through [`recovering`] itself.
type RankValue = (Recovered<Vec<u8>>, u64);
type RankOutcome = CommResult<RankValue>;

/// One rank of a recovery row: `cell`'s operation under the recovering
/// driver over bare `fc` ([`recover_cell`]). With `entry`, an `alltoallv`
/// row goes through [`recovering_alltoallv`] instead, the public entry
/// point over the same operation (op count 0: only a run without `entry`
/// reads one).
fn recover_rank<C>(cell: &Cell, fc: &FaultComm<'_, C>, entry: bool) -> RankOutcome
where
    C: Communicator + ?Sized,
{
    let cfg = recovery_config();
    let algo = match cell.op {
        Op::Discover(algo) if entry => algo,
        _ => return recover_cell(cell, &cfg, fc, fc),
    };
    let me = fc.rank();
    let a = cell.v_args(me);
    let rec = recovering_alltoallv(&cfg, fc, algo, &cell.world(), &a.sendcounts, &a.sendbuf)?;
    let (bytes, recvcounts) = rec.value;
    if recvcounts != cell.v_args_on(me, &rec.view).recvcounts {
        return Err(CommError::BadArgument("recovered counts diverge from the matrix"));
    }
    Ok((Recovered { value: bytes, view: rec.view, outcome: rec.outcome }, 0))
}

/// Run a recovery row's world under `plan` (see [`recover_rank`]).
fn run_world(cell: &Cell, plan: &FaultPlan, seed: u64, entry: bool) -> Launched<RankValue> {
    let (cell, plan) = (*cell, plan.clone());
    let body = move |comm: &dyn Communicator| {
        recover_rank(&cell, &FaultComm::new(comm, plan.clone()), entry)
    };
    launch(&World::sim(seed), cell.p, "", body)
}

/// The victim's data ops over one healthy attempt of the row's operation.
pub fn calibrate(cell: &Cell, victim: usize, seed: u64) -> Result<u64, String> {
    match run_world(cell, &FaultPlan::new(seed), seed, false).ranks.into_iter().nth(victim) {
        Some(Ok(Ok((_, ops)))) => Ok(ops),
        Some(Ok(Err(e))) => Err(format!("calibration comm error: {e}")),
        Some(Err(why)) => Err(format!("calibration {why}")),
        None => Err("victim out of range".to_string()),
    }
}

/// Fold one world's outcomes — errors, outputs, views, evictions, retry
/// shape and virtual-time MTTR, everything `Debug` shows — into an
/// order-sensitive digest.
fn digest_world(outcomes: &[Result<RankOutcome, String>]) -> u64 {
    let fold = |d, (rank, out)| digest_rank_buf(d, rank, format!("{out:?}").as_bytes());
    outcomes.iter().enumerate().fold(0xD1_6E57, fold)
}

/// Check one world against the recovery contract ([`judge`] under
/// [`Expectation::MustRecover`]); returns the slowest survivor's MTTR on
/// success.
fn check_world(
    cell: &Cell,
    victim: usize,
    outcomes: &[Result<RankOutcome, String>],
) -> Result<CellMttr, String> {
    let mut slowest: Option<CellMttr> = None;
    for (rank, out) in outcomes.iter().enumerate() {
        let res = out.as_ref().map_err(|why| format!("rank {rank} {why}"))?;
        let result = res.as_ref().map(|(rec, _)| rec);
        judge(cell, rank, result, Expectation::MustRecover { dead: victim })
            .map_err(|e| format!("rank {rank}: {e}"))?;
        if let Ok((rec, _)) = res {
            if let RecoveryOutcome::Recovered { cycles, attempts, mttr, .. } = &rec.outcome {
                let cm = CellMttr { mttr: *mttr, cycles: *cycles, attempts: *attempts };
                if slowest.map_or(true, |s| cm.mttr.total() > s.mttr.total()) {
                    slowest = Some(cm);
                }
            }
        }
    }
    slowest.ok_or_else(|| "no survivor produced an outcome".to_string())
}

/// Run one recovery row: calibrate, run twice, check the contract and
/// digest equality.
pub fn run_recovery_cell(row: &Row) -> RecoveryCellReport {
    let (label, cell, seed, victim) = (row.label(), &row.cell, row.seed, RECOVERY_WORLD.1);
    let fail = |violation: String| RecoveryCellReport {
        label: label.clone(),
        violation: Some(violation),
        mttr: None,
        crash_after_ops: 0,
    };
    let Harness::Recovery(phase) = row.harness else {
        return fail("not a recovery row".to_string());
    };
    let after_ops = match calibrate(cell, victim, seed) {
        Ok(ops) => phase.crash_point(ops),
        Err(e) => return fail(e),
    };
    let plan = FaultPlan::new(seed).with_crash(victim, after_ops);
    let (first, diff) = run_twice(
        || run_world(cell, &plan, seed, true),
        |w| (w.trace.as_ref().map_or(Vec::new(), |t| t.choices.clone()), digest_world(&w.ranks)),
    );
    let (violation, mttr) = match check_world(cell, victim, &first.ranks) {
        Ok(cm) => (diff, Some(cm)),
        Err(e) => (Some(e), None),
    };
    RecoveryCellReport { label, violation, mttr, crash_after_ops: after_ops }
}

/// Run every recovery row at `seed` (workload, schedule and fault seed at
/// once).
pub fn run_recovery_matrix(
    seed: u64,
    mut progress: impl FnMut(&RecoveryCellReport),
) -> Vec<RecoveryCellReport> {
    rows(Family::Recovery, Tier::Smoke, &[seed])
        .iter()
        .map(|row| {
            let r = run_recovery_cell(row);
            progress(&r);
            r
        })
        .collect()
}

/// Render one passing row as a `BENCH_PR8.json` line.
pub fn bench_json_line(r: &RecoveryCellReport) -> Option<String> {
    let cm = r.mttr?;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    Some(format!(
        "{{\"cell\":\"{}\",\"mttr_total_ms\":{:.3},\"agree_ms\":{:.3},\"repair_ms\":{:.3},\
         \"reexecute_ms\":{:.3},\"cycles\":{},\"attempts\":{},\"crash_after_ops\":{}}}",
        r.label,
        ms(cm.mttr.total()),
        ms(cm.mttr.agree),
        ms(cm.mttr.repair),
        ms(cm.mttr.reexecute),
        cm.cycles,
        cm.attempts,
        r.crash_after_ops,
    ))
}

/// Pull a numeric field out of a line-JSON record (same minimal convention
/// as bruck-bench's `scale` reader — the check crate keeps its own copy so
/// the bench binary stays independent of it).
pub fn field_f64(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Find the baseline line for `cell` in a committed BENCH_PR8.json body.
pub fn find_cell_line<'a>(body: &'a str, cell: &str) -> Option<&'a str> {
    let pat = format!("\"cell\":\"{cell}\"");
    body.lines().find(|l| l.contains(&pat))
}

/// Compare fresh MTTRs against a committed baseline. Virtual-time MTTR is
/// deterministic for a fixed build, so drift means the protocol changed:
/// ratios past `1.6×` (either way) are advisory, past `8×` fatal. Returns
/// `(advisories, fatals)`.
pub fn check_against_baseline(
    baseline: &str,
    reports: &[RecoveryCellReport],
) -> (Vec<String>, Vec<String>) {
    let mut advisories = Vec::new();
    let mut fatals = Vec::new();
    for r in reports {
        let Some(cm) = r.mttr else { continue };
        let new_ms = cm.mttr.total().as_secs_f64() * 1e3;
        let Some(line) = find_cell_line(baseline, &r.label) else {
            advisories.push(format!("{}: no baseline entry", r.label));
            continue;
        };
        let Some(old_ms) = field_f64(line, "mttr_total_ms") else {
            advisories.push(format!("{}: baseline entry unreadable", r.label));
            continue;
        };
        if old_ms <= 0.0 || new_ms <= 0.0 {
            continue;
        }
        let ratio = if new_ms > old_ms { new_ms / old_ms } else { old_ms / new_ms };
        if ratio > 8.0 {
            fatals.push(format!(
                "{}: MTTR {new_ms:.1}ms vs baseline {old_ms:.1}ms ({ratio:.1}x)",
                r.label
            ));
        } else if ratio > 1.6 {
            advisories.push(format!(
                "{}: MTTR {new_ms:.1}ms vs baseline {old_ms:.1}ms ({ratio:.1}x)",
                r.label
            ));
        }
    }
    (advisories, fatals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{Fixpoint, PhaseClass};
    use bruck_comm::SimComm;
    use bruck_core::AlltoallvAlgorithm;

    /// The registry's recovery row for `op` × `phase` at `seed`.
    fn row(op: Op, phase: PhaseClass, seed: u64) -> Row {
        rows(Family::Recovery, Tier::Smoke, &[seed])
            .into_iter()
            .find(|r| r.harness == Harness::Recovery(phase) && r.cell.op == op)
            .expect("every recovered op x phase has a recovery row")
    }

    fn two_phase() -> Op {
        Op::Discover(AlltoallvAlgorithm::TwoPhaseBruck)
    }

    #[test]
    fn crash_points_are_ordered_inside_the_operation() {
        let ops_of = |op| calibrate(&row(op, PhaseClass::Half, 1).cell, RECOVERY_WORLD.1, 1);
        let points = |ops| PhaseClass::ALL.map(|ph: PhaseClass| ph.crash_point(ops));
        // A discovering two-phase exchange at P = 5 is three framed sub-steps,
        // one send and one receive each: a quarter of its six ops rounds down
        // onto the first, as for every three-step schedule at P = 5.
        let ops = ops_of(two_phase()).unwrap();
        assert_eq!((ops, points(ops)), (6, [1, 1, 3, 5]));
        let tc = Op::Fixpoint(Fixpoint::Tc, AlltoallvAlgorithm::TwoPhaseBruck);
        let ops = ops_of(tc).unwrap();
        assert!(ops > 8, "a fixpoint at P = 5 is more than a handful of ops: {ops}");
        let points = points(ops);
        assert_eq!((points[0], points[3]), (1, ops - 1));
        assert!(points.windows(2).all(|w| w[0] < w[1]), "{points:?}");
    }

    #[test]
    fn half_crash_rows_recover_byte_correct_and_deterministic() {
        let tc = Op::Fixpoint(Fixpoint::Tc, AlltoallvAlgorithm::TwoPhaseBruck);
        for op in [two_phase(), tc] {
            let r = run_recovery_cell(&row(op, PhaseClass::Half, 1));
            assert!(r.violation.is_none(), "{}: {:?}", r.label, r.violation);
            let cm = r.mttr.expect("survivor MTTR extracted");
            assert!(cm.cycles >= 1);
            assert!(cm.mttr.total() > Duration::ZERO);
        }
    }

    #[test]
    fn direct_survivor_runs_match_the_recovered_outputs() {
        // The rows check outputs against `expected_on`; this closes the loop
        // by running the operation fault-free on the survivor world alone.
        let (victim, seed) = (RECOVERY_WORLD.1, 1u64);
        let tc = Op::Fixpoint(Fixpoint::Tc, AlltoallvAlgorithm::TwoPhaseBruck);
        for op in [two_phase(), tc] {
            let cell = row(op, PhaseClass::Half, seed).cell;
            let after = PhaseClass::Half.crash_point(calibrate(&cell, victim, seed).unwrap());
            let plan = FaultPlan::new(seed).with_crash(victim, after);
            let recovered = run_world(&cell, &plan, seed, true);
            let survivors: Vec<usize> = (0..cell.p).filter(|&r| r != victim).collect();
            let sv = &survivors;
            let direct = SimComm::run(sv.len(), seed, |comm| cell.run_on(comm, sv).unwrap());
            for (j, &rank) in survivors.iter().enumerate() {
                let (rec, _) = recovered.ranks[rank].as_ref().unwrap().as_ref().unwrap();
                assert_eq!(rec.value, direct.results[j], "{}: rank {rank}", op.label());
            }
        }
    }

    #[test]
    fn bench_line_roundtrips_through_the_reader() {
        let r = RecoveryCellReport {
            label: "Two-phase Bruck/half/seed1".to_string(),
            violation: None,
            mttr: Some(CellMttr {
                mttr: Mttr {
                    agree: Duration::from_millis(200),
                    repair: Duration::from_micros(500),
                    reexecute: Duration::from_millis(40),
                },
                cycles: 1,
                attempts: 2,
            }),
            crash_after_ops: 33,
        };
        let line = bench_json_line(&r).unwrap();
        assert_eq!(field_f64(&line, "mttr_total_ms"), Some(240.5));
        assert_eq!(field_f64(&line, "agree_ms"), Some(200.0));
        assert_eq!(field_f64(&line, "cycles"), Some(1.0));
        assert!(find_cell_line(&line, "Two-phase Bruck/half/seed1").is_some());
        let (adv, fatal) = check_against_baseline(&line, &[r]);
        assert!(adv.is_empty() && fatal.is_empty(), "{adv:?} {fatal:?}");
    }
}
