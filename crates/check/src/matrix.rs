//! The checkable matrix: every algorithm × workload combination the verifier
//! sweeps.
//!
//! Each case symbolically executes one collective (uniform all-to-all,
//! non-uniform all-to-allv, a negotiated [`ExchangePlan`] execution, or a
//! vector allgatherv) under [`crate::model::extract`], verifies the output
//! bytes against the deterministic workload pattern, and runs the full
//! analysis suite from [`crate::analysis`] over the extracted schedule.
//!
//! ## Adding an algorithm to the matrix
//!
//! New `bruck-core` variants are picked up automatically when added to
//! `AlltoallAlgorithm::ALL` / `AlltoallvAlgorithm::ALL`. An algorithm outside
//! those enums needs one new `CaseReport` constructor here: build
//! deterministic per-rank inputs, call the algorithm inside `extract`, push a
//! [`Finding::WrongOutput`] on any output mismatch, and `analyze` the
//! extraction. Keep `p` small (≤ 12): symbolic execution replays each rank's
//! body once per blocking receive.

use std::sync::Mutex;

use bruck_comm::{Communicator, ExchangePlan, ReduceOp};
use bruck_core::{
    allgatherv, allreduce, alltoall, alltoallv, configurable_alltoallv, packed_displs,
    pattern_byte, pattern_u64, reduce_scatter, reference_allgatherv, reference_allreduce,
    reference_reduce_scatter, AllgathervAlgorithm, AllreduceAlgorithm, AlltoallAlgorithm,
    AlltoallvAlgorithm, EngineConfig, EngineTopology, IntermediateLayout, PaddingRule,
    ReduceScatterAlgorithm,
};
use bruck_workload::{Distribution, SizeMatrix};

use crate::analysis::{analyze, check_layout, Finding};
use crate::model::extract;

/// One verified case: a label and whatever findings it produced.
#[derive(Debug)]
pub struct CaseReport {
    /// Human-readable case id, e.g. `"alltoallv/Two-phase Bruck/normal/p=8"`.
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

/// Deterministic pattern byte for (source, destination, offset-in-block) —
/// same convention as the `bruck-core` test utilities, so a `WrongOutput`
/// here reproduces under `cargo test` too.
fn pattern(src: usize, dst: usize, idx: usize) -> u8 {
    (src.wrapping_mul(167) ^ dst.wrapping_mul(59) ^ idx.wrapping_mul(13)) as u8
}

/// Communicator sizes the matrix sweeps: powers of two, odd, prime, one.
const MATRIX_SIZES: [usize; 5] = [1, 3, 4, 5, 8];

/// Workload generators the non-uniform cases sweep.
fn matrix_distributions() -> Vec<Distribution> {
    vec![
        Distribution::Uniform,
        Distribution::Windowed { r: 25 },
        Distribution::Normal,
        Distribution::POWER_LAW_STEEP,
        Distribution::Hotspot { spacing: 3, damping: 4 },
    ]
}

/// Verify one uniform algorithm at one size/block.
pub fn check_uniform(algo: AlltoallAlgorithm, p: usize, block: usize) -> CaseReport {
    let name = format!("alltoall/{}/p={p}/block={block}", algo.name());
    let wrong: Mutex<Vec<Finding>> = Mutex::new(Vec::new());
    let ext = extract(p, |comm| {
        let me = comm.rank();
        let mut sendbuf = vec![0u8; p * block];
        for dst in 0..p {
            for idx in 0..block {
                sendbuf[dst * block + idx] = pattern(me, dst, idx);
            }
        }
        let mut recvbuf = vec![0u8; p * block];
        alltoall(algo, comm, &sendbuf, &mut recvbuf, block)?;
        // This tail runs exactly once per rank: the body only reaches it on
        // the attempt that completes, after which the rank is never re-run.
        for src in 0..p {
            for idx in 0..block {
                let got = recvbuf[src * block + idx];
                let want = pattern(src, me, idx);
                if got != want {
                    wrong.lock().unwrap_or_else(|e| e.into_inner()).push(Finding::WrongOutput {
                        rank: me,
                        detail: format!(
                            "byte {idx} of block from rank {src}: got {got:#04x}, want {want:#04x}"
                        ),
                    });
                    break;
                }
            }
        }
        Ok(())
    });
    let mut findings = wrong.into_inner().unwrap_or_else(|e| e.into_inner());
    findings.extend(analyze(&ext));
    CaseReport { name, findings }
}

/// Verify one non-uniform algorithm against one size matrix.
pub fn check_alltoallv(algo: AlltoallvAlgorithm, m: &SizeMatrix, label: &str) -> CaseReport {
    let p = m.p();
    let name = format!("alltoallv/{}/{label}/p={p}", algo.name());
    let wrong: Mutex<Vec<Finding>> = Mutex::new(Vec::new());
    let ext = extract(p, |comm| {
        let me = comm.rank();
        let sendcounts = m.sendcounts(me);
        let sdispls = packed_displs(&sendcounts);
        let mut sendbuf = vec![0u8; sendcounts.iter().sum()];
        for dst in 0..p {
            for idx in 0..sendcounts[dst] {
                sendbuf[sdispls[dst] + idx] = pattern(me, dst, idx);
            }
        }
        let recvcounts = m.recvcounts(me);
        let rdispls = packed_displs(&recvcounts);
        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
        alltoallv(algo, comm, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls)?;
        verify_v(me, m, &recvbuf, &rdispls, &wrong);
        Ok(())
    });
    let mut findings = wrong.into_inner().unwrap_or_else(|e| e.into_inner());
    findings.extend(analyze(&ext));
    CaseReport { name, findings }
}

/// Verify one engine config against one size matrix — this is what holds
/// the knob-space product points, not just the named ones, to the
/// symbolic-execution analyses.
pub fn check_engine(cfg: &EngineConfig, m: &SizeMatrix, label: &str) -> CaseReport {
    let p = m.p();
    let name = format!("engine/{}/{label}/p={p}", cfg.key());
    let wrong: Mutex<Vec<Finding>> = Mutex::new(Vec::new());
    let ext = extract(p, |comm| {
        let me = comm.rank();
        let sendcounts = m.sendcounts(me);
        let sdispls = packed_displs(&sendcounts);
        let mut sendbuf = vec![0u8; sendcounts.iter().sum()];
        for dst in 0..p {
            for idx in 0..sendcounts[dst] {
                sendbuf[sdispls[dst] + idx] = pattern(me, dst, idx);
            }
        }
        let recvcounts = m.recvcounts(me);
        let rdispls = packed_displs(&recvcounts);
        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
        configurable_alltoallv(
            comm, cfg, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
        )?;
        verify_v(me, m, &recvbuf, &rdispls, &wrong);
        Ok(())
    });
    let mut findings = wrong.into_inner().unwrap_or_else(|e| e.into_inner());
    findings.extend(analyze(&ext));
    CaseReport { name, findings }
}

/// Off-point engine configs the matrix sweeps alongside the nine named
/// points — product-space members no algorithm name covers.
fn engine_off_points() -> Vec<EngineConfig> {
    vec![
        // Radix-4 two-phase Bruck (separate metadata message).
        EngineConfig { radix: 4, ..EngineConfig::as_two_phase() },
        // Radix-3 block-view Bruck with the combined payload.
        EngineConfig { radix: 3, ..EngineConfig::as_sloav() },
        // Tightly throttled direct exchange.
        EngineConfig { throttle_window: Some(2), ..EngineConfig::as_spread_out() },
        // Threshold padding: pads these 16-byte-cap matrices, so the Bruck
        // topology routes onto the uniform-step schedule.
        EngineConfig {
            topology: EngineTopology::Bruck,
            radix: 2,
            throttle_window: None,
            padding: PaddingRule::Threshold(64),
            layout: IntermediateLayout::Monolithic,
            two_phase_split: true,
        },
    ]
}

/// Verify a negotiated-plan execution: `ExchangePlan::negotiate` from send
/// counts only, layout-check the plan's displacements, then run `algo` with
/// the plan's arrays.
pub fn check_plan(algo: AlltoallvAlgorithm, m: &SizeMatrix, label: &str) -> CaseReport {
    let p = m.p();
    let name = format!("plan/{}/{label}/p={p}", algo.name());
    let wrong: Mutex<Vec<Finding>> = Mutex::new(Vec::new());
    let ext = extract(p, |comm| {
        let me = comm.rank();
        let plan = ExchangePlan::negotiate(comm, m.sendcounts(me))?;
        let mut sendbuf = vec![0u8; plan.send_bytes()];
        for dst in 0..p {
            for idx in 0..plan.sendcounts()[dst] {
                sendbuf[plan.sdispls()[dst] + idx] = pattern(me, dst, idx);
            }
        }
        let mut recvbuf = plan.alloc_recvbuf();
        {
            let mut w = wrong.lock().unwrap_or_else(|e| e.into_inner());
            w.extend(check_layout(
                &format!("rank {me} plan sdispls"),
                plan.sendcounts(),
                plan.sdispls(),
                sendbuf.len(),
            ));
            w.extend(check_layout(
                &format!("rank {me} plan rdispls"),
                plan.recvcounts(),
                plan.rdispls(),
                recvbuf.len(),
            ));
        }
        alltoallv(
            algo,
            comm,
            &sendbuf,
            plan.sendcounts(),
            plan.sdispls(),
            &mut recvbuf,
            plan.recvcounts(),
            plan.rdispls(),
        )?;
        verify_v(me, m, &recvbuf, plan.rdispls(), &wrong);
        Ok(())
    });
    let mut findings = wrong.into_inner().unwrap_or_else(|e| e.into_inner());
    findings.extend(analyze(&ext));
    CaseReport { name, findings }
}

/// Per-rank contribution/segment counts for the collective-family cases:
/// non-uniform with zero-sized segments sprinkled in.
fn coll_counts(p: usize) -> Vec<usize> {
    (0..p).map(|i| if i % 4 == 3 { 0 } else { (i * 5 + 3) % 7 + 1 }).collect()
}

/// Verify one `bruck-core` allgatherv schedule under symbolic execution:
/// output equals the concatenation reference on every rank, and the
/// extracted wire schedule passes the full analysis suite (deadlock-free,
/// no tag collisions, balanced matches).
pub fn check_collective_allgatherv(algo: AllgathervAlgorithm, p: usize) -> CaseReport {
    let name = format!("collective/allgatherv/{}/p={p}", algo.name());
    let counts = coll_counts(p);
    let displs = packed_displs(&counts);
    let inputs: Vec<Vec<u8>> =
        (0..p).map(|r| (0..counts[r]).map(|i| pattern_byte(r, i)).collect()).collect();
    let want = reference_allgatherv(&inputs);
    let wrong: Mutex<Vec<Finding>> = Mutex::new(Vec::new());
    let ext = extract(p, |comm| {
        let me = comm.rank();
        let mut recvbuf = vec![0u8; counts.iter().sum()];
        allgatherv(algo, comm, &inputs[me], &mut recvbuf, &counts, &displs)?;
        if recvbuf != want {
            wrong.lock().unwrap_or_else(|e| e.into_inner()).push(Finding::WrongOutput {
                rank: me,
                detail: format!("allgatherv result diverges from concatenation of {counts:?}"),
            });
        }
        Ok(())
    });
    let mut findings = wrong.into_inner().unwrap_or_else(|e| e.into_inner());
    findings.extend(analyze(&ext));
    CaseReport { name, findings }
}

/// Verify one `bruck-core` reduce_scatter schedule under symbolic execution.
pub fn check_collective_reduce_scatter(
    algo: ReduceScatterAlgorithm,
    p: usize,
    op: ReduceOp,
) -> CaseReport {
    let name = format!("collective/reduce_scatter/{}/{op:?}/p={p}", algo.name());
    let counts = coll_counts(p);
    let total: usize = counts.iter().sum();
    let inputs: Vec<Vec<u64>> =
        (0..p).map(|r| (0..total).map(|i| pattern_u64(r, i)).collect()).collect();
    let want = reference_reduce_scatter(&inputs, &counts, op);
    let wrong: Mutex<Vec<Finding>> = Mutex::new(Vec::new());
    let ext = extract(p, |comm| {
        let me = comm.rank();
        let mut recvbuf = vec![0u64; counts[me]];
        reduce_scatter(algo, comm, &inputs[me], &mut recvbuf, &counts, op)?;
        if recvbuf != want[me] {
            wrong.lock().unwrap_or_else(|e| e.into_inner()).push(Finding::WrongOutput {
                rank: me,
                detail: format!("reduce_scatter segment diverges from the {op:?} fold"),
            });
        }
        Ok(())
    });
    let mut findings = wrong.into_inner().unwrap_or_else(|e| e.into_inner());
    findings.extend(analyze(&ext));
    CaseReport { name, findings }
}

/// Verify one `bruck-core` allreduce schedule under symbolic execution.
pub fn check_collective_allreduce(algo: AllreduceAlgorithm, p: usize, op: ReduceOp) -> CaseReport {
    let name = format!("collective/allreduce/{}/{op:?}/p={p}", algo.name());
    let n = 2 * p + 1;
    let inputs: Vec<Vec<u64>> =
        (0..p).map(|r| (0..n).map(|i| pattern_u64(r, i)).collect()).collect();
    let want = reference_allreduce(&inputs, op);
    let wrong: Mutex<Vec<Finding>> = Mutex::new(Vec::new());
    let ext = extract(p, |comm| {
        let me = comm.rank();
        let mut buf = inputs[me].clone();
        allreduce(algo, comm, &mut buf, op)?;
        if buf != want {
            wrong.lock().unwrap_or_else(|e| e.into_inner()).push(Finding::WrongOutput {
                rank: me,
                detail: format!("allreduce result diverges from the sequential {op:?} fold"),
            });
        }
        Ok(())
    });
    let mut findings = wrong.into_inner().unwrap_or_else(|e| e.into_inner());
    findings.extend(analyze(&ext));
    CaseReport { name, findings }
}

/// Run the full verification matrix. This is what `bruck-check` (the binary)
/// and `scripts/verify.sh` gate on.
pub fn run_full_matrix() -> Vec<CaseReport> {
    let mut reports = Vec::new();
    // Uniform algorithms: every size, a small and an odd block (block = 0 is
    // the degenerate all-empty exchange and must also be deadlock-free).
    for &p in &MATRIX_SIZES {
        for block in [0, 3] {
            for algo in AlltoallAlgorithm::ALL {
                reports.push(check_uniform(algo, p, block));
            }
        }
    }
    // Non-uniform algorithms: every generator at every size. Seeds vary with
    // (p, distribution index) so cases don't share matrices.
    for (di, dist) in matrix_distributions().into_iter().enumerate() {
        for &p in &MATRIX_SIZES {
            let m = SizeMatrix::generate(dist, 0xC0FFEE + di as u64 * 31 + p as u64, p, 16);
            for algo in AlltoallvAlgorithm::ALL {
                reports.push(check_alltoallv(algo, &m, &dist.label()));
            }
        }
    }
    // Engine configs by knob setting rather than by name: the nine named
    // points plus off-point members of the knob space, at a prime and a
    // power-of-two size.
    for &p in &[3usize, 8] {
        let m = SizeMatrix::generate(Distribution::Normal, 0xE2617E + p as u64, p, 16);
        for (cfg, _) in EngineConfig::named_points() {
            reports.push(check_engine(&cfg, &m, "normal"));
        }
        for cfg in engine_off_points() {
            reports.push(check_engine(&cfg, &m, "normal"));
        }
    }
    // Negotiated plans: the counts handshake composes with every variant.
    for &p in &[3usize, 8] {
        let m = SizeMatrix::generate(Distribution::POWER_LAW_STEEP, 0xBEEF + p as u64, p, 16);
        for algo in AlltoallvAlgorithm::ALL {
            reports.push(check_plan(algo, &m, "powerlaw"));
        }
    }
    // The collective family (DESIGN.md §16): every schedule at every size;
    // the reduce family additionally sweeps a non-commutative-looking pair
    // of operators to catch ordering bugs the Sum wrap would mask.
    for &p in &MATRIX_SIZES {
        for algo in AllgathervAlgorithm::ALL {
            reports.push(check_collective_allgatherv(algo, p));
        }
        for algo in ReduceScatterAlgorithm::ALL {
            for op in [ReduceOp::Sum, ReduceOp::Min] {
                reports.push(check_collective_reduce_scatter(algo, p, op));
            }
        }
        for algo in AllreduceAlgorithm::ALL {
            for op in [ReduceOp::Sum, ReduceOp::Max] {
                reports.push(check_collective_allreduce(algo, p, op));
            }
        }
    }
    reports
}

fn verify_v(
    me: usize,
    m: &SizeMatrix,
    recvbuf: &[u8],
    rdispls: &[usize],
    wrong: &Mutex<Vec<Finding>>,
) {
    for src in 0..m.p() {
        let len = m.get(src, me);
        for idx in 0..len {
            let got = recvbuf[rdispls[src] + idx];
            let want = pattern(src, me, idx);
            if got != want {
                wrong.lock().unwrap_or_else(|e| e.into_inner()).push(Finding::WrongOutput {
                    rank: me,
                    detail: format!(
                        "byte {idx} of block from rank {src} (len {len}): got {got:#04x}, want {want:#04x}"
                    ),
                });
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full matrix runs in the `bruck-check` binary and the crate's
    // integration test; here we spot-check one case per family so unit runs
    // stay fast.

    #[test]
    fn one_uniform_case_is_clean() {
        let r = check_uniform(AlltoallAlgorithm::ZeroRotationBruck, 5, 3);
        assert!(r.is_clean(), "{}: {:?}", r.name, r.findings);
    }

    #[test]
    fn one_alltoallv_case_is_clean() {
        let m = SizeMatrix::generate(Distribution::Normal, 7, 5, 16);
        let r = check_alltoallv(AlltoallvAlgorithm::TwoPhaseBruck, &m, "normal");
        assert!(r.is_clean(), "{}: {:?}", r.name, r.findings);
    }

    #[test]
    fn one_plan_case_is_clean() {
        let m = SizeMatrix::generate(Distribution::Uniform, 11, 4, 16);
        let r = check_plan(AlltoallvAlgorithm::Sloav, &m, "uniform");
        assert!(r.is_clean(), "{}: {:?}", r.name, r.findings);
    }

    #[test]
    fn one_engine_case_is_clean() {
        let m = SizeMatrix::generate(Distribution::Normal, 13, 5, 16);
        let cfg = EngineConfig { radix: 3, ..EngineConfig::as_two_phase() };
        let r = check_engine(&cfg, &m, "normal");
        assert!(r.is_clean(), "{}: {:?}", r.name, r.findings);
    }

    #[test]
    fn allgatherv_case_is_clean() {
        let r = check_collective_allgatherv(AllgathervAlgorithm::Ring, 6);
        assert!(r.is_clean(), "{}: {:?}", r.name, r.findings);
    }
}
