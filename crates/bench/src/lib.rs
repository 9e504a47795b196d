//! # bruck-bench — the measuring crate: figure regeneration and one
//! regression bin.
//!
//! Measurement has two homes. `benchmark/` (its own workspace) is the only
//! place a speed claim is made. This crate holds the reproduction — the
//! `figures` binary — and `bruck-bench`, the regression bin that runs the
//! event-runtime scale cells and the tuner's candidate sweep against one
//! committed baseline ([`regress`]).
//!
//! Two measurement paths, per DESIGN.md:
//! * **Real execution**, one timing loop per backend: [`time_on_threads`]
//!   (the actual `bruck-core` implementations on a threaded communicator,
//!   P ≤ a few hundred, timed like the paper: median of repeated iterations,
//!   max across ranks per iteration) and [`run_on_events`] (one whole world
//!   on the event runtime, P up to 32768).
//! * **Model prediction** — `bruck-model` trace sweeps up to P = 32768
//!   (driven from `src/bin/figures.rs`).

#![deny(missing_docs)]

pub mod export;
pub mod regress;

use std::time::Instant;

use bruck_comm::{Communicator, EventComm, EventReport, MeteredComm, ThreadComm};
use bruck_core::{
    alltoall, configurable_alltoallv, packed_displs, probe, AlltoallAlgorithm, AlltoallvAlgorithm,
    EngineConfig, PaddingRule,
};
use bruck_workload::SizeMatrix;

use export::PhaseTimeline;

/// The candidate set `bruck-bench tune` measures, calibrates on and selects
/// from: all eight named points plus four off-point members of the knob space
/// no algorithm name covers. Shared with the workspace tests, which hold
/// every one of them to its model trace.
pub fn tune_candidates() -> Vec<EngineConfig> {
    let mut out: Vec<EngineConfig> =
        EngineConfig::named_points().iter().map(|(cfg, _)| *cfg).collect();
    out.extend([
        // Radix-4 two-phase Bruck: fewer phases, more steps per phase.
        EngineConfig { radix: 4, ..EngineConfig::as_two_phase() },
        // Radix-4 block-view (SLOAV-style) Bruck.
        EngineConfig { radix: 4, ..EngineConfig::as_sloav() },
        // Tightly throttled direct exchange (window 8 instead of the vendor 32).
        EngineConfig { throttle_window: Some(8), ..EngineConfig::as_spread_out() },
        // Adaptive padding: pad only when the global max block is small.
        EngineConfig { padding: PaddingRule::Threshold(64), ..EngineConfig::as_two_phase() },
    ]);
    out
}

/// Median of a sample (not-NaN f64s).
#[expect(clippy::expect_used, reason = "the samples are elapsed wall seconds, never NaN")]
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Byte every send buffer is filled with, so a receiver can spot-check its
/// buffer without knowing the matrix.
const FILL: u8 = 0x5A;

/// One rank's exchange inputs: packed send buffer plus both count/displacement
/// pairs. Immutable, so one set can serve every rank of a uniform world.
#[derive(Debug, Clone)]
pub struct Descriptors {
    /// Packed send data, one constant byte throughout.
    pub sendbuf: Vec<u8>,
    /// Bytes sent to each peer.
    pub sendcounts: Vec<usize>,
    /// Packed send displacements.
    pub sdispls: Vec<usize>,
    /// Bytes received from each peer.
    pub recvcounts: Vec<usize>,
    /// Packed receive displacements.
    pub rdispls: Vec<usize>,
}

impl Descriptors {
    fn new(sendcounts: Vec<usize>, recvcounts: Vec<usize>) -> Descriptors {
        Descriptors {
            sendbuf: vec![FILL; sendcounts.iter().sum()],
            sdispls: packed_displs(&sendcounts),
            rdispls: packed_displs(&recvcounts),
            sendcounts,
            recvcounts,
        }
    }

    /// Rank `me`'s row and column of `m`.
    pub fn for_rank(m: &SizeMatrix, me: usize) -> Descriptors {
        Descriptors::new(m.sendcounts(me), m.recvcounts(me))
    }

    /// Every rank sends `block` bytes to every peer — the same descriptors on
    /// every rank, built without the P × P matrix.
    pub fn uniform(p: usize, block: usize) -> Descriptors {
        Descriptors::new(vec![block; p], vec![block; p])
    }

    /// Bytes this rank receives.
    pub fn recv_len(&self) -> usize {
        self.recvcounts.iter().sum()
    }

    /// Run `cfg` through the engine's one entry point (so config and argument
    /// validation are inside whatever times this). Panics on a failed
    /// exchange and on a corrupted receive buffer — a spot check: every
    /// received byte is the fill; full byte equality is
    /// tests/backend_equivalence.rs's job.
    pub fn exchange<C: Communicator + ?Sized>(
        &self,
        comm: &C,
        cfg: &EngineConfig,
        recvbuf: &mut [u8],
    ) {
        let p = comm.size();
        configurable_alltoallv(
            comm, cfg, &self.sendbuf, &self.sendcounts, &self.sdispls, recvbuf, &self.recvcounts,
            &self.rdispls,
        )
        .unwrap_or_else(|e| panic!("{} at p={p} failed: {e}", cfg.key()));
        if recvbuf.last().is_some_and(|&b| b != FILL) {
            panic!("{} at p={p}: corrupted receive buffer", cfg.key());
        }
    }
}

/// The threaded timing loop (the paper's §2.2 methodology): every rank of a
/// [`ThreadComm`] world builds its [`Descriptors`] from `m`, then runs `op`
/// for one warm-up and `iters` timed, barrier-aligned iterations. Each
/// iteration's time is the maximum across ranks; the reported seconds are
/// the median across iterations. With `probed`, the timed iterations run
/// under the `bruck-probe` recorder and every rank's span timeline is
/// returned (empty otherwise).
#[expect(clippy::unwrap_used, reason = "a timing driver: a failed run aborts loudly")]
pub fn time_on_threads<F>(
    m: &SizeMatrix,
    iters: usize,
    probed: bool,
    op: F,
) -> (f64, Vec<PhaseTimeline>)
where
    F: Fn(&ThreadComm, &Descriptors, &mut [u8]) + Sync,
{
    let per_rank = ThreadComm::run(m.p(), |comm| {
        let d = Descriptors::for_rank(m, comm.rank());
        let mut recvbuf = vec![0u8; d.recv_len()];
        let mut times = Vec::with_capacity(iters);
        for it in 0..=iters {
            if probed && it == 1 {
                probe::install();
            }
            comm.barrier().unwrap();
            let start = Instant::now();
            op(comm, &d, &mut recvbuf);
            if it > 0 {
                times.push(start.elapsed().as_secs_f64());
            }
        }
        (times, PhaseTimeline { rank: comm.rank(), events: probe::take() })
    });
    let mut per_iter: Vec<f64> = (0..iters)
        .map(|i| per_rank.iter().map(|(t, _)| t[i]).fold(0.0f64, f64::max))
        .collect();
    (median(&mut per_iter), per_rank.into_iter().map(|(_, timeline)| timeline).collect())
}

/// Time a non-uniform all-to-all with [`time_on_threads`].
pub fn time_alltoallv(algo: AlltoallvAlgorithm, m: &SizeMatrix, iters: usize) -> f64 {
    let cfg = EngineConfig::from(algo);
    time_on_threads(m, iters, false, |comm, d, recvbuf| d.exchange(comm, &cfg, recvbuf)).0
}

/// Time a uniform all-to-all the same way.
#[expect(clippy::unwrap_used, reason = "a timing driver: a failed run aborts loudly")]
pub fn time_alltoall(algo: AlltoallAlgorithm, p: usize, block: usize, iters: usize) -> f64 {
    let m = SizeMatrix::uniform(p, block);
    time_on_threads(&m, iters, false, |comm, d, recvbuf| {
        alltoall(algo, comm, &d.sendbuf, recvbuf, block).unwrap()
    })
    .0
}

/// Where an event-runtime world's ranks get their [`Descriptors`].
pub enum Workload<'a> {
    /// One shared set for every rank (see [`Descriptors::uniform`]): a
    /// per-rank copy would cost O(P²) harness memory at P = 32k before the
    /// algorithm even runs. A per-rank meter is the same kind of state — and
    /// a replayed rank would rebuild it at every park — so these worlds run
    /// unmetered.
    Uniform(Descriptors),
    /// Each rank's row and column of a size matrix, exchanged under a
    /// [`MeteredComm`] whose consistency checks must hold.
    Matrix(&'a SizeMatrix),
}

/// The event-runtime timing loop: one whole `cfg` exchange on
/// [`EventComm`] over `workers` pool threads. Returns the wall seconds of
/// the world — timed around it, because a replayed rank closure would
/// re-read the clock — and its scheduler report. Panics on a failed or
/// corrupted exchange ([`Descriptors::exchange`]), on a metering
/// inconsistency, and on a transport leak.
pub fn run_on_events(
    cfg: &EngineConfig,
    work: &Workload<'_>,
    workers: usize,
) -> (f64, EventReport) {
    let key = cfg.key();
    let p = match work {
        Workload::Uniform(d) => d.sendcounts.len(),
        Workload::Matrix(m) => m.p(),
    };
    let start = Instant::now();
    let (_, report) = EventComm::run_report(p, workers, |comm| match work {
        Workload::Uniform(d) => d.exchange(comm, cfg, &mut vec![0u8; d.recv_len()]),
        Workload::Matrix(m) => {
            let metered = MeteredComm::with_key(comm, key.as_str());
            let d = Descriptors::for_rank(m, metered.rank());
            d.exchange(&metered, cfg, &mut vec![0u8; d.recv_len()]);
            let errors = metered.metrics().consistency_errors();
            assert!(errors.is_empty(), "{key} at p={p}: metered consistency errors: {errors:?}");
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    // The O(1) leak gate from the shared store counters: at P = 32k an O(P)
    // sweep per cell would dominate the bench itself.
    if report.pending_messages != 0 || report.dead_match_keys != 0 {
        panic!(
            "{key} at p={p}: transport leak ({} pending, {} dead keys)",
            report.pending_messages, report.dead_match_keys
        );
    }
    (wall_s, report)
}

/// One labelled series of (x, seconds) points for table rendering.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (matches the paper's figure legends).
    pub label: String,
    /// y-values, aligned with the table's x-axis.
    pub ys: Vec<f64>,
}

/// Render series as an aligned text table, x down the side, one column per
/// series — the textual equivalent of one subplot.
pub fn print_table(title: &str, x_name: &str, xs: &[usize], series: &[Series], unit: &str) {
    println!("\n== {title} ==");
    print!("{x_name:>10}");
    for s in series {
        print!(" | {:>18}", s.label);
    }
    println!(" ({unit})");
    println!("{}", "-".repeat(11 + series.len() * 21));
    for (i, &x) in xs.iter().enumerate() {
        print!("{x:>10}");
        for s in series {
            let y = s.ys.get(i).copied().unwrap_or(f64::NAN);
            print!(" | {:>18.4}", y);
        }
        println!();
    }
}

/// Format seconds as milliseconds for tables.
pub fn to_ms(seconds: f64) -> f64 {
    seconds * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use bruck_workload::Distribution;

    #[test]
    fn median_of_odd_and_even_samples() {
        let mut xs = [5.0, 1.0, 3.0];
        assert_eq!(median(&mut xs), 3.0);
        let mut even = [1.0, 2.0, 3.0, 10.0];
        assert_eq!(median(&mut even), 2.5);
    }

    #[test]
    fn real_timing_runs_and_is_positive() {
        let m = SizeMatrix::generate(Distribution::Uniform, 1, 8, 64);
        for algo in [AlltoallvAlgorithm::Vendor, AlltoallvAlgorithm::TwoPhaseBruck] {
            let t = time_alltoallv(algo, &m, 3);
            assert!(t > 0.0 && t < 5.0, "{algo:?}: {t}");
        }
        let t = time_alltoall(AlltoallAlgorithm::ZeroRotationBruck, 8, 32, 3);
        assert!(t > 0.0 && t < 5.0);
    }

    #[test]
    fn thread_runner_produces_consistent_counts_and_timelines() {
        let m = SizeMatrix::generate(Distribution::Uniform, 3, 6, 32);
        let cfg = EngineConfig::as_two_phase();
        let (seconds, timelines) = time_on_threads(&m, 2, true, |comm, d, recvbuf| {
            let metered = MeteredComm::new(comm);
            d.exchange(&metered, &cfg, recvbuf);
            let metrics = metered.metrics();
            assert_eq!(metrics.consistency_errors(), Vec::<String>::new());
            assert!(metrics.logical.sent_msgs > 0 && metrics.logical.sent_bytes > 0);
            assert_eq!(metrics.reserved.sent_msgs, 0, "two-phase runs no collective");
        });
        assert!(seconds > 0.0);
        assert_eq!(timelines.len(), 6);
        for (rank, tl) in timelines.iter().enumerate() {
            assert_eq!(tl.rank, rank);
            let data_spans = tl.events.iter().filter(|e| e.name == "two_phase.data").count();
            // ⌈log₂ 6⌉ = 3 steps per exchange; the warm-up is not recorded.
            assert_eq!(data_spans, 2 * 3, "rank {rank} timeline: {:?}", tl.events);
        }
        let (_, unprobed) = time_on_threads(&m, 1, false, |comm, d, r| d.exchange(comm, &cfg, r));
        assert!(unprobed.iter().all(|tl| tl.events.is_empty()));
    }

    #[test]
    fn event_runner_meters_matrix_worlds_and_counts_messages() {
        let m = SizeMatrix::generate(Distribution::Uniform, 5, 8, 16);
        let cfg = EngineConfig::as_spread_out();
        let (wall_s, report) = run_on_events(&cfg, &Workload::Matrix(&m), 2);
        assert!(wall_s > 0.0);
        assert_eq!(report.messages, 8 * 7, "spread-out: one message per ordered pair");
        let shared = Workload::Uniform(Descriptors::uniform(8, 16));
        assert_eq!(run_on_events(&cfg, &shared, 2).1.messages, 8 * 7);
    }
}
