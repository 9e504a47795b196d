//! Machine-readable exporters for instrumented runs, hand-rolled JSON (the
//! workspace is std-only):
//!
//! * **Chrome trace** ([`chrome_trace_json`]) — the `trace_events` format
//!   understood by `chrome://tracing` and Perfetto. Every
//!   [`PhaseEvent`] from the `bruck-core`
//!   span layer becomes a complete (`"ph": "X"`) slice; ranks map to
//!   threads (`tid`), bench cells to processes (`pid`). The producer is
//!   [`crate::time_on_threads`] with probing on; `figures -- ablation`
//!   writes its cells to `target/bruck-bench/ablation.trace.json`.
//! * **Scheduler report** ([`scheduler_report_json`]) — an event-runtime
//!   run's [`EventReport`]: the wire totals next to the scheduler counters
//!   (sweeps, parks by kind, wakes, resumes, replayed ops), so a slow
//!   `EventComm` cell points at a counter. Embedded in every `scale` row of
//!   the `bruck-bench` artifact.

use std::fs;
use std::io;
use std::path::Path;

use bruck_comm::EventReport;
use bruck_core::probe::PhaseEvent;

/// One rank's phase timeline from an instrumented run.
#[derive(Debug, Clone)]
pub struct PhaseTimeline {
    /// Rank that produced the events.
    pub rank: usize,
    /// Spans in drop order, timestamps relative to the rank's install origin.
    pub events: Vec<PhaseEvent>,
}

/// Escape a string for embedding in a JSON document.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
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
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(label)
        ));
        for tl in timelines {
            for ev in &tl.events {
                out.push_str(&format!(
                    ",{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                     \"pid\":{pid},\"tid\":{}}}",
                    json_escape(ev.name),
                    ev.start_ns as f64 / 1e3,
                    ev.dur_ns as f64 / 1e3,
                    tl.rank
                ));
            }
        }
    }
    out.push_str("]}");
    out
}

/// Render one event-runtime run's scheduler and transport telemetry.
pub fn scheduler_report_json(r: &EventReport) -> String {
    format!(
        "{{\"schema\":\"bruck-bench/scheduler\",\"workers\":{},\"messages\":{},\
         \"executions\":{},\"sweeps\":{},\"wakes\":{},\"resumes\":{},\"replayed_ops\":{},\
         \"parks\":{{\"recv\":{},\"timed_recv\":{},\"sleep\":{},\"arrival\":{}}},\
         \"pending_messages\":{},\"dead_match_keys\":{}}}",
        r.workers,
        r.messages,
        r.executions,
        r.sweeps,
        r.wakes,
        r.resumes,
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

#[cfg(test)]
mod tests {
    use super::*;

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
        use bruck_comm::{Communicator, EventComm};
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
        // Each wake readies the rank behind the sweep's position: two turns.
        assert!(doc.contains("\"executions\":4,\"sweeps\":2,\"wakes\":2,"), "{doc}");
        assert!(
            doc.contains("\"parks\":{\"recv\":0,\"timed_recv\":0,\"sleep\":1,\"arrival\":1}"),
            "{doc}"
        );
    }
}
