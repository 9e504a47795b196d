//! The traced run's span recorder. Spans are recorded from the benchmark's
//! own files, around each call into a layer's public function; nothing under
//! `crates/` knows about them. They stay in memory: after every round the
//! driver folds the round's spans into a per-name table of self times, keeps
//! the first few rounds verbatim for the chrome trace, and writes both when
//! the run ends.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::escape;

/// Rounds whose spans are written to the chrome trace in full; later rounds
/// only feed the self-time table, or the file would run to hundreds of MB.
const KEEP_ROUNDS: usize = 1;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Shared by all spans of one sample (one execution of one cell).
    pub sample: u64,
    /// `setup.generate`, `cell.two_phase`, `core.alltoallv`, `two_phase.pack`, …
    pub name: String,
    /// 0 is the driver thread; rank `r` of a world is lane `r + 1`.
    pub lane: u32,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

/// Where a new span hangs: its parent, its sample and its lane.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'r> {
    rec: &'r Recorder,
    /// Parent span id (0 at the root).
    parent: u64,
    /// Sample id.
    sample: u64,
    /// Lane of spans opened through this context.
    lane: u32,
}

/// Per-name totals of the self-time table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their durations minus the part their children cover, ns.
    pub self_ns: u64,
}

/// Collects spans from every thread of a traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    next_sample: AtomicU64,
    open: Mutex<Vec<Span>>,
    kept: Mutex<Vec<Span>>,
    table: Mutex<BTreeMap<String, SelfTime>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            next_sample: AtomicU64::new(1),
            open: Mutex::new(Vec::new()),
            kept: Mutex::new(Vec::new()),
            table: Mutex::new(BTreeMap::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Root context of a new sample, on the driver's lane.
    pub fn sample(&self) -> Ctx<'_> {
        Ctx {
            rec: self,
            parent: 0,
            sample: self.next_sample.fetch_add(1, Ordering::Relaxed),
            lane: 0,
        }
    }

    fn push(&self, span: Span) {
        self.open.lock().expect("span buffer lock").push(span);
    }

    /// Fold the spans recorded since the last call into the self-time table.
    pub fn fold_round(&self, round: usize) {
        let spans = std::mem::take(&mut *self.open.lock().expect("span buffer lock"));
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut table = self.table.lock().expect("self-time table lock");
        for s in &spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let row = table.entry(s.name.clone()).or_default();
            row.count += 1;
            row.total_ns += s.end_ns - s.start_ns;
            row.self_ns += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        if round < KEEP_ROUNDS {
            self.kept.lock().expect("kept spans lock").extend(spans);
        }
    }

    /// The self-time table so far.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        self.table.lock().expect("self-time table lock").clone()
    }

    /// The kept rounds as a chrome `trace_events` document (load it in
    /// `chrome://tracing` or Perfetto).
    pub fn chrome_trace(&self) -> String {
        let kept = self.kept.lock().expect("kept spans lock");
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in kept.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"sample\":{}}}}}",
                escape(&s.name),
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.sample,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut at) = (0, start);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(at), e.min(end));
        if e > s {
            covered += e - s;
            at = e;
        }
    }
    covered
}

impl<'r> Ctx<'r> {
    /// Open a child span; it ends when the guard is dropped.
    pub fn open(&self, name: impl Into<String>) -> Open<'r> {
        let rec = self.rec;
        Open {
            rec,
            span: Span {
                id: rec.next_id.fetch_add(1, Ordering::Relaxed),
                parent: self.parent,
                sample: self.sample,
                name: name.into(),
                lane: self.lane,
                start_ns: rec.now_ns(),
                end_ns: 0,
            },
        }
    }

    /// Record an already-measured child span (a `bruck_core::probe` event).
    pub fn record(&self, name: &str, start_ns: u64, dur_ns: u64) {
        self.rec.push(Span {
            id: self.rec.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.parent,
            sample: self.sample,
            name: name.to_string(),
            lane: self.lane,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    /// The recorder's clock.
    pub fn now_ns(&self) -> u64 {
        self.rec.now_ns()
    }

    /// The same context on another lane (a rank's thread).
    pub fn on_lane(self, lane: u32) -> Ctx<'r> {
        Ctx { lane, ..self }
    }
}

/// An open span.
#[derive(Debug)]
pub struct Open<'r> {
    rec: &'r Recorder,
    span: Span,
}

impl<'r> Open<'r> {
    /// Context for spans caused by this one.
    pub fn ctx(&self) -> Ctx<'r> {
        Ctx {
            rec: self.rec,
            parent: self.span.id,
            sample: self.span.sample,
            lane: self.span.lane,
        }
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        self.span.end_ns = self.rec.now_ns();
        self.rec.push(self.span.clone());
    }
}

/// Open `name` under `ctx` when tracing, nothing otherwise.
pub fn open<'r>(ctx: Option<Ctx<'r>>, name: &str) -> Option<Open<'r>> {
    ctx.map(|c| c.open(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_children_is_clipped_and_not_double_counted() {
        let mut c = vec![(5, 15), (10, 20), (40, 60), (0, 2)];
        assert_eq!(covered_ns(&mut c, 0, 50), 2 + 15 + 10);
    }

    #[test]
    fn self_time_subtracts_children() {
        let rec = Recorder::new();
        let root = rec.sample();
        {
            let cell = root.open("cell.x");
            let at = cell.ctx().now_ns();
            cell.ctx().on_lane(1).record("core.y", at, 0);
            cell.ctx().on_lane(2).record("core.y", at, 0);
        }
        rec.fold_round(0);
        let t = rec.self_times();
        assert_eq!(t["core.y"].count, 2);
        assert_eq!(t["cell.x"].count, 1);
        assert!(t["cell.x"].self_ns <= t["cell.x"].total_ns);
        let trace = rec.chrome_trace();
        assert_eq!(trace.matches("\"ph\":\"X\"").count(), 3);
    }
}
