//! The self-healing recovery matrix: scripted crash in every exchange phase
//! class × every `alltoallv` algorithm, under the deterministic simulator.
//!
//! Each cell runs a 5-rank `SimComm` world with a [`bruck_comm::FaultComm`]
//! scripting the victim rank to crash at an op count *calibrated* to land in
//! one of four phase classes — counts **negotiate**, **pack** (the
//! negotiate/data boundary), **data** (mid data movement), **unpack** (the
//! victim's last exchange op) — and drives
//! [`bruck_core::recovering_alltoallv`] through its full detect → agree →
//! shrink → retry cycle. Per cell the harness asserts:
//!
//! * **Typed endings** — the victim fails with a fault error; every survivor
//!   returns [`RecoveryOutcome::Recovered`] naming exactly the victim as
//!   evicted, on the dense survivor view.
//! * **Byte-correct on the survivor world** — every received block matches
//!   the closed-form [`bruck_core::pattern`] for its (survivor source,
//!   destination) pair, which is exactly what a fault-free direct run on the
//!   survivor set produces (the chaos and sim matrices prove that equality
//!   for healthy worlds; `direct_survivor_run_matches` re-proves it here).
//! * **Deterministic** — the cell is run twice with the same seed and the
//!   two runs must fold to byte-identical digests (outcomes, views, buffers,
//!   and virtual-time MTTR included).
//!
//! The virtual-time MTTR breakdown (detect / agree / repair / re-execute) of
//! the slowest survivor is reported per cell and can be emitted as line-JSON
//! (`bruck-chaos --recovery-smoke --out BENCH_PR8.json`) and regression
//! checked against a committed baseline (`--check-against`).

use std::time::Duration;

use bruck_comm::{
    CommError, CommResult, Communicator, DeadlineComm, ExchangePlan, FaultComm, FaultPlan,
    ShrinkComm,
};
use bruck_core::{
    recovering_alltoallv, resilient_alltoallv, AlltoallvAlgorithm, Mttr, RecoveringConfig,
    RecoveryOutcome, ResilientConfig,
};

use crate::cells::{
    digest_rank_buf, rows, Cell, Family, Harness, PhaseClass, Row, Tier, RECOVERY_WORLD,
};
use crate::runner::{launch, run_twice, Launched, World};

/// The recovering-exchange budgets every cell runs under: tight enough that
/// a whole cell is a few hundred simulated milliseconds, with the detector
/// and agreement windows derived from the abort skew
/// ([`RecoveringConfig::with_derived_windows`]).
pub fn recovery_config(algorithm: AlltoallvAlgorithm) -> RecoveringConfig {
    RecoveringConfig {
        resilient: ResilientConfig {
            algorithm,
            deadline: Duration::from_millis(600),
            commit_timeout: Duration::from_millis(200),
            peer_timeout: Duration::from_millis(300),
            epoch: 0,
        },
        negotiate_timeout: Duration::from_millis(400),
        ..RecoveringConfig::default()
    }
    .with_derived_windows()
}

/// Virtual-time MTTR of one cell's slowest survivor, plus retry shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellMttr {
    /// The slowest survivor's breakdown.
    pub mttr: Mttr,
    /// Recovery cycles that survivor went through.
    pub cycles: u32,
    /// Exchange attempts it used (first try included).
    pub attempts: u32,
}

/// One recovery cell's outcome.
#[derive(Debug)]
pub struct RecoveryCellReport {
    /// `algorithm/phase/seed` label.
    pub label: String,
    /// Violation description, if the cell failed.
    pub violation: Option<String>,
    /// Slowest-survivor MTTR (absent if the cell failed before extraction).
    pub mttr: Option<CellMttr>,
    /// The calibrated crash op count.
    pub crash_after_ops: u64,
}

/// The algorithm a recovery cell names (recovery rows are named points).
fn algorithm(cell: &Cell) -> AlltoallvAlgorithm {
    cell.op.resilient_algorithm().unwrap_or(AlltoallvAlgorithm::TwoPhaseBruck)
}

/// Calibrate the victim's op counts on a healthy same-seed world: returns
/// `(negotiate_ops, exchange_ops)` — the victim's [`FaultComm::ops`] counter
/// right after plan negotiation and right after the full exchange. The
/// calibration replays the exact op sequence of `recovering_alltoallv`'s
/// first attempt (same epoch, same wrappers), so a crash threshold placed
/// between those marks lands inside the intended phase.
pub fn calibrate_phases(cell: &Cell, victim: usize, seed: u64) -> Result<(u64, u64), String> {
    let cfg = recovery_config(algorithm(cell));
    let (cell, p) = (*cell, cell.p);
    let body = move |comm: &dyn Communicator| {
        let fc = FaultComm::new(comm, FaultPlan::new(seed));
        let a = cell.v_args(fc.rank());
        let sc = ShrinkComm::new(&fc, (0..p).collect(), cfg.epoch)?;
        let dc = DeadlineComm::new(&sc, cfg.negotiate_timeout);
        let plan = ExchangePlan::negotiate_isolated(&dc, a.sendcounts, cfg.epoch)?;
        let negotiate_ops = fc.ops();
        let mut recvbuf = plan.alloc_recvbuf();
        resilient_alltoallv(
            &ResilientConfig { epoch: cfg.epoch, ..cfg.resilient },
            &sc,
            &a.sendbuf,
            plan.sendcounts(),
            plan.sdispls(),
            &mut recvbuf,
            plan.recvcounts(),
            plan.rdispls(),
        )?;
        Ok((negotiate_ops, fc.ops()))
    };
    match launch(&World::sim(seed), p, "", body).ranks.into_iter().nth(victim) {
        Some(Ok(Ok(marks))) => Ok(marks),
        Some(Ok(Err(e))) => Err(format!("calibration comm error: {e}")),
        Some(Err(why)) => Err(format!("calibration {why}")),
        None => Err("victim out of range".to_string()),
    }
}

/// Map a phase class to a crash threshold given the calibration marks.
pub fn crash_point(phase: PhaseClass, negotiate_ops: u64, exchange_ops: u64) -> u64 {
    match phase {
        PhaseClass::Negotiate => (negotiate_ops / 2).max(1),
        PhaseClass::Pack => negotiate_ops,
        PhaseClass::Data => negotiate_ops + (exchange_ops.saturating_sub(negotiate_ops)) / 2,
        PhaseClass::Unpack => exchange_ops.saturating_sub(1),
    }
}

/// One rank's recovered `(recvbuf, recvcounts, view, outcome)`.
type Recovered = (Vec<u8>, Vec<usize>, Vec<usize>, RecoveryOutcome);
type RankOutcome = CommResult<Recovered>;

/// Run the recovering exchange with `victim` scripted to crash after
/// `after_ops` data ops. The recovering driver brings its own detector and
/// epoch retry, so only the fault injector sits under it.
fn run_world(cell: &Cell, victim: usize, after_ops: u64, seed: u64) -> Launched<Recovered> {
    let cfg = recovery_config(algorithm(cell));
    let (cell, p) = (*cell, cell.p);
    let body = move |comm: &dyn Communicator| {
        let fc = FaultComm::new(comm, FaultPlan::new(seed).with_crash(victim, after_ops));
        let a = cell.v_args(fc.rank());
        let view: Vec<usize> = (0..p).collect();
        recovering_alltoallv(&cfg, &fc, &view, &a.sendcounts, &a.sendbuf)
            .map(|rec| (rec.recvbuf, rec.recvcounts, rec.view, rec.outcome))
    };
    launch(&World::sim(seed), p, "", body)
}

/// Fold one world's outcomes — errors, buffers, views, evictions, retry
/// shape and virtual-time MTTR, everything `Debug` shows — into an
/// order-sensitive digest.
fn digest_world(outcomes: &[Result<RankOutcome, String>]) -> u64 {
    let fold = |d, (rank, out)| digest_rank_buf(d, rank, format!("{out:?}").as_bytes());
    outcomes.iter().enumerate().fold(0xD1_6E57, fold)
}

/// Check one world against the recovery contract; returns the slowest
/// survivor's MTTR on success.
fn check_world(
    cell: &Cell,
    victim: usize,
    outcomes: &[Result<RankOutcome, String>],
) -> Result<CellMttr, String> {
    let survivors: Vec<usize> = (0..cell.p).filter(|&r| r != victim).collect();
    let mut slowest: Option<CellMttr> = None;
    for (rank, out) in outcomes.iter().enumerate() {
        let res = match out {
            Ok(r) => r,
            Err(why) => return Err(format!("rank {rank} {why}")),
        };
        if rank == victim {
            match res {
                Err(CommError::RankFailed { .. } | CommError::Timeout { .. }) => {}
                other => return Err(format!("victim must fail typed, got {other:?}")),
            }
            continue;
        }
        let (recvbuf, recvcounts, view, outcome) = match res {
            Ok(r) => r,
            Err(e) => return Err(format!("survivor {rank} failed: {e}")),
        };
        if view != &survivors {
            return Err(format!("survivor {rank}: view {view:?}, want {survivors:?}"));
        }
        let cm = match outcome {
            RecoveryOutcome::Recovered { evicted, cycles, attempts, mttr } => {
                if evicted != &[victim] {
                    return Err(format!("survivor {rank}: evicted {evicted:?}"));
                }
                CellMttr { mttr: *mttr, cycles: *cycles, attempts: *attempts }
            }
            RecoveryOutcome::Complete => {
                return Err(format!("survivor {rank}: Complete despite scripted crash"));
            }
        };
        if slowest.map_or(true, |s| cm.mttr.total() > s.mttr.total()) {
            slowest = Some(cm);
        }
        // Byte-correctness on the shrunken view: block j must be exactly
        // what parent rank view[j] sends rank `rank` in a fault-free world.
        let m = cell.matrix();
        if let Some((j, &src)) =
            view.iter().enumerate().find(|&(j, &src)| recvcounts[j] != m.get(src, rank))
        {
            return Err(format!(
                "survivor {rank}: block from {src} has {} bytes, want {}",
                recvcounts[j],
                m.get(src, rank)
            ));
        }
        let want = cell.expected_from(rank, view);
        if let Some(i) = (0..want.len()).find(|&i| recvbuf.get(i) != Some(&want[i])) {
            return Err(format!(
                "survivor {rank}: SILENT CORRUPTION at byte {i}: got {:?}, want {}",
                recvbuf.get(i),
                want[i]
            ));
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
    let (neg, ex) = match calibrate_phases(cell, victim, seed) {
        Ok(marks) => marks,
        Err(e) => return fail(e),
    };
    let after_ops = crash_point(phase, neg, ex);
    let (first, diff) = run_twice(
        || run_world(cell, victim, after_ops, seed),
        |w| (w.trace.as_ref().map_or(Vec::new(), |t| t.choices.clone()), digest_world(&w.ranks)),
    );
    let (violation, mttr) = match check_world(cell, victim, &first.ranks) {
        Ok(cm) => (diff, Some(cm)),
        Err(e) => (Some(e), None),
    };
    RecoveryCellReport { label, violation, mttr, crash_after_ops: after_ops }
}

/// Run every algorithm × phase-class row at `seed` (workload, schedule and
/// fault seed at once).
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

/// Render one passing cell as a `BENCH_PR8.json` line.
pub fn bench_json_line(r: &RecoveryCellReport) -> Option<String> {
    let cm = r.mttr?;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    Some(format!(
        "{{\"cell\":\"{}\",\"mttr_total_ms\":{:.3},\"detect_ms\":{:.3},\
         \"agree_ms\":{:.3},\"repair_ms\":{:.3},\"reexecute_ms\":{:.3},\
         \"cycles\":{},\"attempts\":{},\"crash_after_ops\":{}}}",
        r.label,
        ms(cm.mttr.total()),
        ms(cm.mttr.detect),
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
    use bruck_comm::SimComm;
    use bruck_core::{alltoallv, packed_displs, pattern};

    /// The registry's recovery row for `algo` × `phase` at `seed`.
    fn row(algo: AlltoallvAlgorithm, phase: PhaseClass, seed: u64) -> Row {
        rows(Family::Recovery, Tier::Smoke, &[seed])
            .into_iter()
            .find(|r| r.harness == Harness::Recovery(phase) && algorithm(&r.cell) == algo)
            .expect("every algorithm x phase has a recovery row")
    }

    #[test]
    fn calibration_marks_are_ordered() {
        let cell = row(AlltoallvAlgorithm::TwoPhaseBruck, PhaseClass::Data, 1).cell;
        let (neg, ex) = calibrate_phases(&cell, 2, 1).unwrap();
        assert!(neg > 0, "negotiation moves messages");
        assert!(ex > neg, "the exchange moves more");
        let points: Vec<u64> =
            PhaseClass::ALL.iter().map(|&ph| crash_point(ph, neg, ex)).collect();
        for w in points.windows(2) {
            assert!(w[0] <= w[1], "phase crash points are ordered: {points:?}");
        }
    }

    #[test]
    fn data_crash_cell_recovers_byte_correct_and_deterministic() {
        let r = run_recovery_cell(&row(AlltoallvAlgorithm::TwoPhaseBruck, PhaseClass::Data, 1));
        assert!(r.violation.is_none(), "{:?}", r.violation);
        let cm = r.mttr.expect("survivor MTTR extracted");
        assert!(cm.cycles >= 1);
        assert!(cm.mttr.total() > Duration::ZERO);
    }

    #[test]
    fn negotiate_crash_cell_recovers() {
        let r = run_recovery_cell(&row(AlltoallvAlgorithm::SpreadOut, PhaseClass::Negotiate, 3));
        assert!(r.violation.is_none(), "{:?}", r.violation);
    }

    #[test]
    fn direct_survivor_run_matches_recovered_buffers() {
        // The cell checks bytes against the closed-form pattern; this test
        // closes the loop by running an actual fault-free exchange on the
        // survivor world and comparing buffers block by block.
        let (victim, seed) = (2usize, 1u64);
        let cell = row(AlltoallvAlgorithm::TwoPhaseBruck, PhaseClass::Data, seed).cell;
        let (neg, ex) = calibrate_phases(&cell, victim, seed).unwrap();
        let recovered = run_world(&cell, victim, crash_point(PhaseClass::Data, neg, ex), seed);

        let survivors: Vec<usize> = (0..cell.p).filter(|&r| r != victim).collect();
        // Direct run: survivor s at dense position j exchanges the same
        // blocks the recovered world settled on.
        let (m, sv) = (cell.matrix(), &survivors);
        let direct = SimComm::run(survivors.len(), seed, |comm| {
            let me = sv[comm.rank()];
            let sendcounts: Vec<usize> = sv.iter().map(|&d| m.get(me, d)).collect();
            let sdispls = packed_displs(&sendcounts);
            let mut sendbuf = vec![0u8; sendcounts.iter().sum()];
            for (j, &dst) in sv.iter().enumerate() {
                for idx in 0..sendcounts[j] {
                    sendbuf[sdispls[j] + idx] = pattern(me, dst, idx);
                }
            }
            let recvcounts: Vec<usize> = sv.iter().map(|&s| m.get(s, me)).collect();
            let rdispls = packed_displs(&recvcounts);
            let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
            alltoallv(
                AlltoallvAlgorithm::TwoPhaseBruck, comm, &sendbuf, &sendcounts, &sdispls,
                &mut recvbuf, &recvcounts, &rdispls,
            )
            .unwrap();
            recvbuf
        });
        for (j, &rank) in survivors.iter().enumerate() {
            let rec = recovered.ranks[rank].as_ref().unwrap().as_ref().unwrap();
            assert_eq!(rec.0, direct.results[j], "rank {rank}: recovered buffer == direct run");
        }
    }

    #[test]
    fn bench_line_roundtrips_through_the_reader() {
        let r = RecoveryCellReport {
            label: "TwoPhaseBruck/data/seed1".to_string(),
            violation: None,
            mttr: Some(CellMttr {
                mttr: Mttr {
                    detect: Duration::from_millis(120),
                    agree: Duration::from_millis(80),
                    repair: Duration::from_micros(500),
                    reexecute: Duration::from_millis(40),
                },
                cycles: 1,
                attempts: 2,
            }),
            crash_after_ops: 33,
        };
        let line = bench_json_line(&r).unwrap();
        assert_eq!(field_f64(&line, "detect_ms"), Some(120.0));
        assert_eq!(field_f64(&line, "cycles"), Some(1.0));
        assert!(find_cell_line(&line, "TwoPhaseBruck/data/seed1").is_some());
        let (adv, fatal) = check_against_baseline(&line, &[r]);
        assert!(adv.is_empty() && fatal.is_empty(), "{adv:?} {fatal:?}");
    }
}
