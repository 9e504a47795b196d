//! Machine-readable exporters for instrumented bench runs.
//!
//! Three artifacts, all hand-rolled JSON (the workspace is std-only):
//!
//! * **Chrome trace** ([`chrome_trace_json`]) — the `trace_events` format
//!   understood by `chrome://tracing` and Perfetto. Every
//!   [`PhaseEvent`] from the `bruck-core`
//!   span layer becomes a complete (`"ph": "X"`) slice; ranks map to
//!   threads (`tid`), bench cells to processes (`pid`).
//! * **Bench report** ([`bench_report_json`]) — the `BENCH_PR4.json`
//!   artifact: one record per smoke-matrix cell with bare vs metered
//!   wall-clock and the aggregated [`bruck_comm::Metrics`] channel totals.
//! * **Scheduler report** ([`scheduler_report_json`]) — an event-runtime
//!   run's [`EventReport`]: the wire totals next to the scheduler counters
//!   (parks by kind, wakes, replayed ops), so a slow `EventComm` cell points
//!   at a counter.
//!
//! [`measure_metered`] is the producer: it times an algorithm bare (via
//! [`crate::time_alltoallv`]) and again under [`MeteredComm`], then runs one
//! extra instrumented iteration with the probe recorder installed to collect
//! the per-rank phase timeline.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use bruck_comm::{Communicator, EventReport, MeteredComm, ThreadComm};
use bruck_core::probe::{self, PhaseEvent};
use bruck_core::{alltoallv, packed_displs, AlltoallvAlgorithm};
use bruck_workload::SizeMatrix;

/// One rank's phase timeline from an instrumented run.
#[derive(Debug, Clone)]
pub struct PhaseTimeline {
    /// Rank that produced the events.
    pub rank: usize,
    /// Spans in drop order, timestamps relative to the rank's install origin.
    pub events: Vec<PhaseEvent>,
}

/// One cell of the smoke matrix, measured bare and under [`MeteredComm`].
#[derive(Debug, Clone)]
pub struct MeteredRun {
    /// Algorithm name (legend label).
    pub algorithm: String,
    /// Workload distribution label.
    pub distribution: String,
    /// Communicator size.
    pub p: usize,
    /// Nominal per-pair block size fed to the workload generator.
    pub n: usize,
    /// Median wall-clock of the bare run (seconds).
    pub bare_s: f64,
    /// Median wall-clock under `MeteredComm` (seconds).
    pub metered_s: f64,
    /// Sum over ranks of logical-channel messages sent.
    pub logical_msgs: u64,
    /// Sum over ranks of logical-channel bytes sent.
    pub logical_bytes: u64,
    /// Sum over ranks of reserved-channel (collective) messages sent.
    pub reserved_msgs: u64,
    /// Sum over ranks of reserved-channel bytes sent.
    pub reserved_bytes: u64,
    /// Total `Metrics::consistency_errors` across ranks (must be 0).
    pub consistency_errors: usize,
}

impl MeteredRun {
    /// Metered / bare wall-clock ratio (1.0 = metering is free).
    pub fn overhead_ratio(&self) -> f64 {
        if self.bare_s > 0.0 {
            self.metered_s / self.bare_s
        } else {
            f64::NAN
        }
    }
}

/// Escape a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render phase timelines as a chrome `trace_events` document. `pid` labels
/// the bench cell (one process row per cell in the viewer), `tid` the rank.
pub fn chrome_trace_json(cells: &[(String, Vec<PhaseTimeline>)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for (pid, (label, timelines)) in cells.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(label)
        );
        for tl in timelines {
            for ev in &tl.events {
                let _ = write!(
                    out,
                    ",{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                     \"pid\":{pid},\"tid\":{}}}",
                    json_escape(ev.name),
                    ev.start_ns as f64 / 1e3,
                    ev.dur_ns as f64 / 1e3,
                    tl.rank
                );
            }
        }
    }
    out.push_str("]}");
    out
}

/// Render the smoke-matrix runs as the `BENCH_PR4.json` artifact.
pub fn bench_report_json(runs: &[MeteredRun]) -> String {
    let max_overhead =
        runs.iter().map(MeteredRun::overhead_ratio).fold(f64::NAN, f64::max);
    let mut out = String::from("{\"schema\":\"bruck-bench/BENCH_PR4\",");
    let _ = write!(out, "\"max_overhead_ratio\":{max_overhead:.4},\"runs\":[");
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"algorithm\":\"{}\",\"distribution\":\"{}\",\"p\":{},\"n\":{},\
             \"bare_s\":{:.6},\"metered_s\":{:.6},\"overhead_ratio\":{:.4},\
             \"logical_msgs\":{},\"logical_bytes\":{},\
             \"reserved_msgs\":{},\"reserved_bytes\":{},\
             \"consistency_errors\":{}}}",
            json_escape(&r.algorithm),
            json_escape(&r.distribution),
            r.p,
            r.n,
            r.bare_s,
            r.metered_s,
            r.overhead_ratio(),
            r.logical_msgs,
            r.logical_bytes,
            r.reserved_msgs,
            r.reserved_bytes,
            r.consistency_errors,
        );
    }
    out.push_str("]}");
    out
}

/// Render one event-runtime run's scheduler and transport telemetry.
pub fn scheduler_report_json(r: &EventReport) -> String {
    format!(
        "{{\"schema\":\"bruck-bench/scheduler\",\"workers\":{},\"messages\":{},\
         \"executions\":{},\"wakes\":{},\"replayed_ops\":{},\
         \"parks\":{{\"recv\":{},\"timed_recv\":{},\"sleep\":{},\"arrival\":{}}},\
         \"pending_messages\":{},\"dead_match_keys\":{}}}",
        r.workers,
        r.messages,
        r.executions,
        r.wakes,
        r.replayed_ops,
        r.parks.recv,
        r.parks.timed_recv,
        r.parks.sleep,
        r.parks.arrival,
        r.pending_messages,
        r.dead_match_keys,
    )
}

/// Write an artifact, creating parent directories as needed.
pub fn write_text(path: &Path, text: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    fs::write(path, text)
}

/// Measure one smoke cell: `algo` on `m`, bare then metered (same
/// median-of-per-iteration-max methodology as [`crate::time_alltoallv`]),
/// plus one instrumented iteration that collects each rank's phase timeline.
pub fn measure_metered(
    algo: AlltoallvAlgorithm,
    m: &SizeMatrix,
    dist_label: &str,
    n: usize,
    iters: usize,
) -> (MeteredRun, Vec<PhaseTimeline>) {
    let bare_s = crate::time_alltoallv(algo, m, iters);
    let p = m.p();
    let per_rank = ThreadComm::run(p, |comm| {
        let mc = MeteredComm::new(comm);
        let me = mc.rank();
        let sendcounts = m.sendcounts(me);
        let sdispls = packed_displs(&sendcounts);
        let sendbuf: Vec<u8> = (0..sendcounts.iter().sum()).map(|i| i as u8).collect();
        let recvcounts = m.recvcounts(me);
        let rdispls = packed_displs(&recvcounts);
        let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
        let mut times = Vec::with_capacity(iters);
        for it in 0..=iters {
            mc.barrier().unwrap();
            let start = Instant::now();
            alltoallv(
                algo, &mc, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls,
            )
            .unwrap();
            if it > 0 {
                times.push(start.elapsed().as_secs_f64());
            }
        }
        // One extra instrumented pass for the timeline; excluded from timing.
        probe::install();
        alltoallv(algo, &mc, &sendbuf, &sendcounts, &sdispls, &mut recvbuf, &recvcounts, &rdispls)
            .unwrap();
        let events = probe::take();
        (times, mc.metrics(), events)
    });

    let mut per_iter: Vec<f64> = (0..iters)
        .map(|i| per_rank.iter().map(|(t, _, _)| t[i]).fold(0.0f64, f64::max))
        .collect();
    let metered_s = crate::median(&mut per_iter);

    let mut run = MeteredRun {
        algorithm: format!("{algo:?}"),
        distribution: dist_label.to_string(),
        p,
        n,
        bare_s,
        metered_s,
        logical_msgs: 0,
        logical_bytes: 0,
        reserved_msgs: 0,
        reserved_bytes: 0,
        consistency_errors: 0,
    };
    let mut timelines = Vec::with_capacity(p);
    for (rank, (_, metrics, events)) in per_rank.into_iter().enumerate() {
        run.logical_msgs += metrics.logical.sent_msgs;
        run.logical_bytes += metrics.logical.sent_bytes;
        run.reserved_msgs += metrics.reserved.sent_msgs;
        run.reserved_bytes += metrics.reserved.sent_bytes;
        run.consistency_errors += metrics.consistency_errors().len();
        timelines.push(PhaseTimeline { rank, events });
    }
    (run, timelines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bruck_workload::Distribution;

    #[test]
    fn json_escaping_is_safe() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn chrome_trace_shape() {
        let cells = vec![(
            "two_phase/uniform".to_string(),
            vec![PhaseTimeline {
                rank: 1,
                events: vec![PhaseEvent { name: "x.y", start_ns: 1500, dur_ns: 2500 }],
            }],
        )];
        let doc = chrome_trace_json(&cells);
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains("\"traceEvents\":["));
        assert!(doc.contains("\"name\":\"x.y\""));
        assert!(doc.contains("\"ts\":1.500"));
        assert!(doc.contains("\"dur\":2.500"));
        assert!(doc.contains("\"tid\":1"));
        assert!(doc.contains("\"ph\":\"M\""), "cell label metadata event");
    }

    #[test]
    fn scheduler_report_carries_the_park_kinds() {
        use bruck_comm::EventComm;
        use std::time::Duration;
        let (_, report) = EventComm::run_report(2, 1, |comm| {
            if comm.rank() == 0 {
                comm.sleep(Duration::from_millis(1));
                comm.send(1, 1, &[1]).unwrap();
            } else {
                let seen = comm.wait_arrival(0, Duration::ZERO).unwrap();
                comm.wait_arrival(seen, Duration::from_secs(1)).unwrap();
                comm.recv(0, 1).unwrap();
            }
        });
        let doc = scheduler_report_json(&report);
        assert!(doc.starts_with("{\"schema\":\"bruck-bench/scheduler\""), "{doc}");
        assert!(doc.contains("\"executions\":4,\"wakes\":2,"), "{doc}");
        assert!(
            doc.contains("\"parks\":{\"recv\":0,\"timed_recv\":0,\"sleep\":1,\"arrival\":1}"),
            "{doc}"
        );
    }

    #[test]
    fn measure_metered_produces_consistent_counts_and_timelines() {
        let m = SizeMatrix::generate(Distribution::Uniform, 3, 6, 32);
        let (run, timelines) =
            measure_metered(AlltoallvAlgorithm::TwoPhaseBruck, &m, "uniform", 32, 2);
        assert_eq!(run.p, 6);
        assert_eq!(run.consistency_errors, 0);
        assert!(run.logical_msgs > 0 && run.logical_bytes > 0);
        assert!(run.reserved_msgs > 0, "barriers + allreduce land on the reserved channel");
        assert_eq!(timelines.len(), 6);
        for tl in &timelines {
            assert!(
                tl.events.iter().any(|e| e.name == "two_phase.data"),
                "rank {} timeline missing data spans: {:?}",
                tl.rank,
                tl.events
            );
        }
        let report = bench_report_json(&[run]);
        assert!(report.contains("\"schema\":\"bruck-bench/BENCH_PR4\""));
        assert!(report.contains("\"consistency_errors\":0"));
    }
}
