//! Traces for the radix-r generalizations in `bruck-core::radix`.
//!
//! Same byte-exactness contract as the binary generators: validated against
//! `MeteredComm` per-tag counters of the real radix implementations.

use crate::source::SizeSource;
use crate::trace::{CommTrace, RankLoad, Step, StepKind};
use crate::tracegen::collective_step;
use crate::RankSample;

/// The radix-r schedule: `(step_index, weight, digit)` in execution order —
/// mirrors `bruck_core::radix_schedule` (checked by integration test).
pub fn radix_schedule(p: usize, radix: usize) -> Vec<(u32, usize, usize)> {
    assert!(radix >= 2, "radix must be at least 2");
    let mut steps = Vec::new();
    let mut weight = 1usize;
    let mut idx = 0u32;
    while weight < p {
        for d in 1..radix {
            if d.saturating_mul(weight) >= p {
                break; // no larger digit moves anything, however large the radix
            }
            steps.push((idx, weight, d));
            idx += 1;
        }
        weight = weight.saturating_mul(radix);
    }
    steps
}

#[inline]
fn digit(i: usize, weight: usize, radix: usize) -> usize {
    (i / weight) % radix
}

fn step_count(p: usize, weight: usize, d: usize, radix: usize) -> u64 {
    (1..p).filter(|&i| digit(i, weight, radix) == d).count() as u64
}

/// Exact bytes rank `q` sends at sub-step `(weight, d)` of a radix-`r`
/// two-phase Bruck: a block with relative index `i` has, before this
/// sub-step, absorbed exactly its lower-weight digit hops (`i mod weight`).
fn radix_step_bytes<S: SizeSource + ?Sized>(
    s: &S,
    q: usize,
    weight: usize,
    d: usize,
    radix: usize,
) -> u64 {
    let p = s.p();
    let mut total = 0u64;
    for i in (1..p).filter(|&i| digit(i, weight, radix) == d) {
        let src = (q + (i % weight)) % p;
        let dst = (src + p - i) % p;
        total += s.size(src, dst) as u64;
    }
    total
}

/// Trace of the radix-`r` Zero Rotation Bruck (uniform, `n`-byte blocks).
pub fn zero_rotation_radix_trace(
    p: usize,
    n: usize,
    radix: usize,
    sample: &RankSample,
) -> CommTrace {
    let mut steps = vec![local_index_step(p, sample)];
    for (idx, weight, d) in radix_schedule(p, radix) {
        let bytes = step_count(p, weight, d, radix) * n as u64;
        let load = RankLoad {
            seq_msgs: 1,
            bytes_out: bytes,
            bytes_in: bytes,
            copy_bytes: 2 * bytes,
            ..Default::default()
        };
        steps.push(Step {
            kind: StepKind::UniformData(idx),
            loads: sample.ranks().iter().map(|&r| (r, load)).collect(),
        });
    }
    CommTrace { p, steps }
}

fn local_index_step(p: usize, sample: &RankSample) -> Step {
    Step {
        kind: StepKind::Local,
        loads: sample
            .ranks()
            .iter()
            .map(|&r| (r, RankLoad { copy_bytes: 8 * p as u64, ..Default::default() }))
            .collect(),
    }
}

/// Trace of the radix-`r` two-phase Bruck over a size source.
pub fn two_phase_radix_trace<S: SizeSource + ?Sized>(
    source: &S,
    radix: usize,
    sample: &RankSample,
) -> CommTrace {
    let p = source.p();
    let mut steps = Vec::new();
    if p <= 1 {
        return CommTrace { p, steps };
    }
    steps.push(collective_step(p, sample));
    for (idx, weight, d) in radix_schedule(p, radix) {
        let count = step_count(p, weight, d, radix);
        let meta = RankLoad {
            seq_msgs: 1,
            bytes_out: 4 * count,
            bytes_in: 4 * count,
            ..Default::default()
        };
        steps.push(Step {
            kind: StepKind::Meta(idx),
            loads: sample.ranks().iter().map(|&r| (r, meta)).collect(),
        });
        let loads = sample
            .ranks()
            .iter()
            .map(|&q| {
                let out = radix_step_bytes(source, q, weight, d, radix);
                let peer = (q + d * weight) % p;
                let inb = radix_step_bytes(source, peer, weight, d, radix);
                (
                    q,
                    RankLoad {
                        seq_msgs: 1,
                        bytes_out: out,
                        bytes_in: inb,
                        copy_bytes: out + inb,
                        ..Default::default()
                    },
                )
            })
            .collect();
        steps.push(Step { kind: StepKind::Data(idx), loads });
    }
    CommTrace { p, steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistSource, MachineModel, NonuniformAlgo, UniformAlgo};
    use bruck_workload::Distribution;

    #[test]
    fn radix_two_traces_equal_binary_traces() {
        let p = 16;
        let sample = RankSample::all(p);
        let r2 = zero_rotation_radix_trace(p, 32, 2, &sample);
        let bin = crate::uniform_trace(UniformAlgo::ZeroRotationBruck, p, 32, &sample);
        assert_eq!(r2, bin);

        let s = DistSource::new(Distribution::Uniform, 3, p, 64);
        let t2 = two_phase_radix_trace(&s, 2, &sample);
        let tb = crate::nonuniform_trace(NonuniformAlgo::TwoPhaseBruck, &s, &sample);
        assert_eq!(t2, tb);
    }

    #[test]
    fn radix_conserves_total_data_bytes() {
        // Over all sub-steps, a block is transmitted once per non-zero digit
        // of its offset, whatever the radix.
        let p = 27;
        let s = DistSource::new(Distribution::Uniform, 5, p, 80);
        for radix in [2usize, 3, 4, 9] {
            let t = two_phase_radix_trace(&s, radix, &RankSample::all(p));
            let data: u64 = t
                .steps
                .iter()
                .filter(|st| matches!(st.kind, StepKind::Data(_)))
                .flat_map(|st| st.loads.iter().map(|(_, l)| l.bytes_out))
                .sum();
            let mut expect = 0u64;
            for src in 0..p {
                for dst in 0..p {
                    let mut i = (src + p - dst) % p;
                    let mut hops = 0u64;
                    while i > 0 {
                        if i % radix != 0 {
                            hops += 1;
                        }
                        i /= radix;
                    }
                    expect += (s.size(src, dst) as u64) * hops;
                }
            }
            assert_eq!(data, expect, "radix {radix}");
        }
    }

    #[test]
    fn higher_radix_trades_latency_for_bandwidth() {
        // More sub-steps (latency), less forwarded data (bandwidth).
        let p = 4096;
        let s = DistSource::new(Distribution::Uniform, 7, p, 512);
        let sample = RankSample::auto(p);
        let t2 = two_phase_radix_trace(&s, 2, &sample);
        let t8 = two_phase_radix_trace(&s, 8, &sample);
        let msgs = |t: &CommTrace| t.steps.iter().filter(|s| s.kind.tag().is_some()).count();
        assert!(msgs(&t8) > msgs(&t2), "radix 8 must have more message rounds");
        assert!(
            t8.total_wire_bytes() < t2.total_wire_bytes(),
            "radix 8 must forward less data"
        );
        // Under a latency-heavy machine, radix 2 wins; the bandwidth saving
        // must show up for large blocks.
        let m = MachineModel::theta_like();
        let s_big = DistSource::new(Distribution::Uniform, 7, p, 4096);
        let big2 = two_phase_radix_trace(&s_big, 2, &sample).time(&m);
        let big8 = two_phase_radix_trace(&s_big, 8, &sample).time(&m);
        assert!(big8 < big2, "radix 8 should win at N=4096: {big8} vs {big2}");
        let s_small = DistSource::new(Distribution::Uniform, 7, p, 16);
        let small2 = two_phase_radix_trace(&s_small, 2, &sample).time(&m);
        let small8 = two_phase_radix_trace(&s_small, 8, &sample).time(&m);
        assert!(small2 < small8, "radix 2 should win at N=16: {small2} vs {small8}");
    }
}
