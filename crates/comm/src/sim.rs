//! `SimSched` — a deterministic simulation runtime for schedule exploration.
//!
//! The threaded backend ([`crate::ThreadComm`]) exercises exactly one
//! OS-chosen interleaving per run; this module runs the *same unmodified
//! algorithms* under a cooperative token-passing scheduler instead:
//!
//! * **One runnable rank at a time.** Each rank is still an OS thread (so
//!   algorithm code needs no changes), but a token — guarded by one mutex and
//!   condition variable — lets exactly one of them execute. Every
//!   communicator operation (send, receive, probe, sleep, arrival wait) is
//!   a yield point where the central scheduler picks the next runnable rank.
//! * **Seeded choice.** The scheduler draws each pick from a SplitMix64
//!   stream, so a `(program, seed)` pair fully determines the interleaving.
//!   The sequence of picked ranks is the *schedule trace*
//!   ([`ScheduleTrace`]), serializable to a file and replayable bit-for-bit.
//! * **Virtual time.** [`SimComm::now`] reads a virtual clock that only
//!   advances when every rank is blocked, jumping straight to the earliest
//!   pending deadline. A timed receive and `wait_arrival` therefore fire
//!   after *exactly* their budget of virtual time and zero wall-clock time, and
//!   [`crate::DeadlineComm`] / [`crate::FaultComm`] stalls compose with it
//!   unchanged.
//! * **Deadlock as a value.** If every live rank is blocked and no pending
//!   wait carries a timeout, no schedule can make progress; the scheduler
//!   proves the deadlock and wakes every blocked rank with
//!   [`CommError::Deadlock`] instead of hanging.
//!
//! Replay consumes a recorded choice list; once it is exhausted (or a
//! recorded choice names a rank that is not runnable, which happens when the
//! program diverged) the scheduler falls back to the lowest runnable rank.
//! Every choice-list prefix is therefore a complete, runnable schedule —
//! the property the delta-debugging shrinker ([`shrink_choices`]) relies on
//! to minimize a failing schedule by deleting choices.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
#[expect(clippy::disallowed_types, reason = "the token condvar that sequences SimComm's ranks")]
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::splitmix;
use crate::mailbox::{MatchStore, StoreStats};
use crate::{CommError, CommResult, Communicator, MsgBuf, Tag};

// ---------------------------------------------------------------------------
// Schedule traces.
// ---------------------------------------------------------------------------

/// A recorded schedule: the exact sequence of ranks the scheduler picked,
/// plus the world size and seed that produced it. Serializable to a small
/// text file so a failing interleaving can be attached to a bug report and
/// replayed anywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// World size the schedule was recorded against.
    pub p: usize,
    /// RNG seed the schedule was recorded from (provenance; replay does not
    /// re-draw from it).
    pub seed: u64,
    /// Free-form single-line context (e.g. the `bruck-sim` cell that failed).
    pub meta: String,
    /// The picked rank at every scheduling point, in order.
    pub choices: Vec<u32>,
}

impl ScheduleTrace {
    /// Serialize to the `bruck-sim-trace v1` text format.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str("bruck-sim-trace v1\n");
        out.push_str(&format!("p {}\n", self.p));
        out.push_str(&format!("seed {}\n", self.seed));
        if !self.meta.is_empty() {
            out.push_str(&format!("meta {}\n", self.meta));
        }
        out.push_str("choices");
        for c in &self.choices {
            out.push_str(&format!(" {c}"));
        }
        out.push('\n');
        out
    }

    /// Parse the `bruck-sim-trace v1` text format. Error messages name the
    /// offending line (1-based) and quote its content, so a corrupted or
    /// hand-edited trace file points straight at the damage.
    pub fn parse(text: &str) -> Result<ScheduleTrace, String> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, "bruck-sim-trace v1")) => {}
            Some((_, other)) => {
                return Err(format!("line 1: bad trace header {other:?} (want \"bruck-sim-trace v1\")"))
            }
            None => return Err("line 1: empty input (want \"bruck-sim-trace v1\" header)".into()),
        }
        let mut p = None;
        let mut seed = None;
        let mut meta = String::new();
        let mut choices = None;
        for (idx, line) in lines {
            let lineno = idx + 1;
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "p" => {
                    p = Some(rest.parse::<usize>().map_err(|e| {
                        format!("line {lineno}: bad p in {line:?}: {e}")
                    })?)
                }
                "seed" => {
                    seed = Some(rest.parse::<u64>().map_err(|e| {
                        format!("line {lineno}: bad seed in {line:?}: {e}")
                    })?)
                }
                "meta" => meta = rest.to_string(),
                "choices" => {
                    let mut v = Vec::new();
                    for tok in rest.split_whitespace() {
                        v.push(tok.parse::<u32>().map_err(|e| {
                            format!("line {lineno}: bad choice {tok:?} in choices line: {e}")
                        })?);
                    }
                    choices = Some(v);
                }
                other => {
                    return Err(format!("line {lineno}: unknown trace field {other:?} in {line:?}"))
                }
            }
        }
        Ok(ScheduleTrace {
            p: p.ok_or("truncated trace: missing \"p\" line")?,
            seed: seed.ok_or("truncated trace: missing \"seed\" line")?,
            meta,
            choices: choices.ok_or("truncated trace: missing \"choices\" line")?,
        })
    }

    /// Write the trace to `path` in the text format.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.serialize())
    }

    /// Read a trace previously written by [`ScheduleTrace::save`].
    pub fn load(path: &std::path::Path) -> std::io::Result<ScheduleTrace> {
        let text = std::fs::read_to_string(path)?;
        ScheduleTrace::parse(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

impl std::fmt::Display for ScheduleTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.serialize())
    }
}

// ---------------------------------------------------------------------------
// Step recording: the dependency footprint a model checker needs.
// ---------------------------------------------------------------------------

/// The dependency footprint of the operation a rank will execute the next
/// time it is scheduled. Recorded (when [`SimConfig::record_steps`] is set)
/// for every rank in the enabled set at every scheduling point, so an
/// external explorer (DPOR in `bruck-check`) can decide which pairs of
/// scheduling choices commute without re-running the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimOp {
    /// The rank has attached but not yet reached its first communicator
    /// call: its first slice of execution is purely local.
    Spawn,
    /// About to deposit into `dest`'s store under key `(self, tag)`.
    Send {
        /// Destination rank.
        dest: usize,
        /// Message tag.
        tag: Tag,
    },
    /// About to pop (or block on) key `(src, tag)` in its own store.
    Recv {
        /// Source rank.
        src: usize,
        /// Message tag.
        tag: Tag,
        /// True for a receive with a timeout: the op also observes the
        /// virtual clock, so it is dependent on every other clock-coupled op.
        timed: bool,
    },
    /// About to peek key `(src, tag)` in its own store.
    Probe {
        /// Source rank.
        src: usize,
        /// Message tag.
        tag: Tag,
    },
    /// Virtual-time sleep (clock-coupled).
    Sleep,
    /// About to read (or park on) its own store's arrival count
    /// (`wait_arrival`): observes every deposit into that store, whatever
    /// the key, and the virtual clock.
    Arrival,
}

/// One recorded scheduling point: which rank the scheduler picked and every
/// rank that was runnable at that moment, each with the footprint of the op
/// it would have executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimStep {
    /// The rank the scheduler picked (mirrors the entry appended to
    /// [`ScheduleTrace::choices`] at this point).
    pub chosen: u32,
    /// Every runnable rank at this point, ascending, with its pending op.
    pub enabled: Vec<(u32, SimOp)>,
}

/// One thing a recorded run did on the wire. The log (present when
/// [`SimConfig::record_steps`] is set) is appended under the scheduler lock,
/// so its order is the order the world saw; `bruck-check` builds its
/// vector-clocked schedule from it.
#[derive(Debug, Clone)]
pub struct WireEvent {
    /// The acting rank.
    pub rank: usize,
    /// The other end: the destination of a send, the source otherwise.
    pub peer: usize,
    /// Message tag.
    pub tag: Tag,
    /// What happened.
    pub kind: WireKind,
}

/// What a [`WireEvent`] records.
#[derive(Debug, Clone)]
pub enum WireKind {
    /// Deposited this payload (a shared view) for `peer`.
    Send(MsgBuf),
    /// Consumed the oldest message on `(peer, tag)`.
    Recv,
    /// Probed `(peer, tag)`: `Some(len)` if a matching message had arrived.
    Probe(Option<usize>),
    /// The scheduler proved the world stuck while the rank was parked on
    /// `(peer, tag)` (an arrival wait reports itself and tag 0). One per
    /// parked rank, logged at the verdict — before any error path runs.
    Stuck,
}

// ---------------------------------------------------------------------------
// Scheduler configuration and reports.
// ---------------------------------------------------------------------------

/// How the scheduler makes its picks.
#[derive(Debug, Clone)]
enum SchedMode {
    /// Draw every pick from the seeded SplitMix64 stream.
    Random,
    /// Consume a recorded choice list; after exhaustion (or on a choice that
    /// names a non-runnable rank) fall back to the lowest runnable rank, so
    /// any prefix of a recording is a complete deterministic schedule.
    Replay(VecDeque<u32>),
}

/// Configuration for one simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for the scheduler's random picks (ignored by replay).
    pub seed: u64,
    /// Recorded choices to replay instead of drawing from the seed.
    pub replay: Option<Vec<u32>>,
    /// Free-form context copied into the resulting [`ScheduleTrace::meta`].
    pub meta: String,
    /// Record a [`SimStep`] (enabled set + op footprints) at every
    /// scheduling point and a [`WireEvent`] per wire operation. Off by
    /// default: recording allocates per pick, and only `bruck-check` reads it.
    pub record_steps: bool,
}

impl SimConfig {
    /// Random scheduling from `seed`.
    pub fn from_seed(seed: u64) -> SimConfig {
        SimConfig { seed, replay: None, meta: String::new(), record_steps: false }
    }

    /// Replay the choices of a recorded trace (deterministic lowest-ready
    /// fallback once they run out).
    pub fn replay_trace(trace: &ScheduleTrace) -> SimConfig {
        SimConfig {
            seed: trace.seed,
            replay: Some(trace.choices.clone()),
            meta: trace.meta.clone(),
            record_steps: false,
        }
    }
}

/// Outcome of [`SimComm::try_run`]: per-rank results with panics captured as
/// strings, plus the recorded schedule.
#[derive(Debug)]
pub struct SimReport<T, E = String> {
    /// One entry per rank: the closure's return value, or the panic payload
    /// rendered as a string.
    pub outcomes: Vec<Result<T, E>>,
    /// The schedule that was actually executed.
    pub trace: ScheduleTrace,
    /// Per-scheduling-point enabled sets and op footprints, present iff
    /// [`SimConfig::record_steps`] was set. Aligned 1:1 with
    /// [`ScheduleTrace::choices`].
    pub steps: Option<Vec<SimStep>>,
    /// The wire log, present iff [`SimConfig::record_steps`] was set.
    pub wire: Option<Vec<WireEvent>>,
}

impl<T> SimReport<T> {
    /// True if no rank panicked.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.is_ok())
    }
}

/// Outcome of [`SimComm::run`]: per-rank results plus the recorded schedule.
#[derive(Debug)]
pub struct SimRun<T> {
    /// One entry per rank, indexed by rank.
    pub results: Vec<T>,
    /// The schedule that was actually executed.
    pub trace: ScheduleTrace,
}

// ---------------------------------------------------------------------------
// Scheduler state.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankState {
    /// Thread not yet attached (startup only).
    NotStarted,
    /// Runnable, waiting to be picked. The flags carry the *reason* a
    /// blocked rank was woken so its pending receive can surface the right
    /// result when it is next scheduled.
    Ready { timed_out: bool, deadlocked: bool },
    /// Holds the token.
    Running,
    /// Parked in a receive with no matching message.
    Blocked { src: usize, tag: Tag, deadline: Option<Duration>, since: Duration },
    /// Parked in a virtual-time sleep.
    Sleeping { until: Duration },
    /// Parked in `wait_arrival`: any deposit into this rank's store wakes
    /// it, as does the deadline (`None` = unbounded wait).
    Waiting { deadline: Option<Duration> },
    /// Closure returned (or panicked).
    Done,
}

struct SimState {
    /// Per-destination matching stores (the same [`MatchStore`] engine the
    /// threaded mailbox and the event runtime use): `(src, tag)` → FIFO of
    /// payloads. Deposits happen in token order, so per-edge FIFO gives the
    /// same non-overtaking guarantee as the threaded mailbox.
    queues: Vec<MatchStore>,
    ranks: Vec<RankState>,
    /// Rank currently holding the token (None during startup/shutdown).
    current: Option<usize>,
    /// The virtual clock. Advances only in `pick_next`, when no rank is
    /// runnable, jumping to the earliest pending deadline.
    now: Duration,
    rng: u64,
    mode: SchedMode,
    /// Every pick made so far — the schedule trace being recorded.
    choices: Vec<u32>,
    /// The op each rank will execute when next scheduled. Registered at op
    /// entry, *before* the yield, so every scheduling point sees a current
    /// footprint for every enabled rank.
    pending: Vec<SimOp>,
    /// Recorded scheduling points (empty unless `record` is set).
    steps: Vec<SimStep>,
    /// Recorded wire operations (empty unless `record` is set).
    wire: Vec<WireEvent>,
    /// Whether to record [`SimStep`]s and [`WireEvent`]s.
    record: bool,
    /// Threads attached so far; scheduling starts when all `p` are in.
    started: usize,
}

/// The shared world of one simulated run: scheduler state + the condition
/// variable rank threads park on while they do not hold the token.
pub struct SimWorld {
    state: Mutex<SimState>,
    #[expect(clippy::disallowed_types, reason = "the token condvar (see the import)")]
    cv: Condvar,
    p: usize,
    seed: u64,
}

impl SimWorld {
    #[expect(clippy::disallowed_types, reason = "the token condvar (see the import)")]
    fn new(p: usize, cfg: &SimConfig) -> SimWorld {
        let mode = match &cfg.replay {
            Some(choices) => SchedMode::Replay(choices.iter().copied().collect()),
            None => SchedMode::Random,
        };
        let stats = StoreStats::new();
        SimWorld {
            state: Mutex::new(SimState {
                queues: (0..p).map(|_| MatchStore::new(Arc::clone(&stats))).collect(),
                ranks: vec![RankState::NotStarted; p],
                current: None,
                now: Duration::ZERO,
                rng: splitmix(cfg.seed ^ 0x51ED_5EED_0BAD_CAFE),
                mode,
                choices: Vec::new(),
                pending: vec![SimOp::Spawn; p],
                steps: Vec::new(),
                wire: Vec::new(),
                record: cfg.record_steps,
                started: 0,
            }),
            cv: Condvar::new(),
            p,
            seed: cfg.seed,
        }
    }

    /// Poison-tolerant lock: a panicking rank thread is caught before it can
    /// unwind through scheduler code, but recover anyway so one bug cannot
    /// wedge the whole run.
    fn lock(&self) -> MutexGuard<'_, SimState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Pick the next rank to run and hand it the token, advancing the
    /// virtual clock (or proving a deadlock) if nothing is runnable. Every
    /// other rank thread is parked on a token it does not hold, so they are
    /// only woken when the token leaves `caller`.
    fn pick_next(&self, st: &mut SimState, caller: usize) {
        st.current = None;
        loop {
            let ready: Vec<usize> = (0..self.p)
                .filter(|&r| matches!(st.ranks[r], RankState::Ready { .. }))
                .collect();
            if let Some(&first) = ready.first() {
                let pick = match &mut st.mode {
                    SchedMode::Replay(q) => match q.pop_front() {
                        Some(c) if ready.contains(&(c as usize)) => c as usize,
                        // Diverged or exhausted recording: lowest runnable.
                        _ => first,
                    },
                    SchedMode::Random => {
                        st.rng = splitmix(st.rng);
                        ready[(st.rng % ready.len() as u64) as usize]
                    }
                };
                st.choices.push(pick as u32);
                if st.record {
                    let enabled =
                        ready.iter().map(|&r| (r as u32, st.pending[r])).collect();
                    st.steps.push(SimStep { chosen: pick as u32, enabled });
                }
                st.current = Some(pick);
                if pick != caller {
                    self.cv.notify_all();
                }
                return;
            }
            if st.ranks.iter().all(|r| *r == RankState::Done) {
                self.cv.notify_all();
                return;
            }
            // Nothing runnable: advance virtual time to the earliest pending
            // deadline, or prove a deadlock if there is none.
            let next_deadline = st
                .ranks
                .iter()
                .filter_map(|r| match r {
                    RankState::Blocked { deadline, .. } | RankState::Waiting { deadline } => {
                        *deadline
                    }
                    RankState::Sleeping { until } => Some(*until),
                    _ => None,
                })
                .min();
            match next_deadline {
                Some(t) => {
                    st.now = st.now.max(t);
                    for r in st.ranks.iter_mut() {
                        match *r {
                            RankState::Blocked { deadline: Some(d), .. }
                            | RankState::Waiting { deadline: Some(d) }
                                if d <= st.now =>
                            {
                                *r = RankState::Ready { timed_out: true, deadlocked: false };
                            }
                            RankState::Sleeping { until } if until <= st.now => {
                                *r = RankState::Ready { timed_out: false, deadlocked: false };
                            }
                            _ => {}
                        }
                    }
                }
                None => {
                    // Every live rank is blocked without a timeout: no
                    // schedule can make progress. Wake them all with the
                    // deadlock verdict.
                    for (rank, r) in st.ranks.iter_mut().enumerate() {
                        let (peer, tag) = match *r {
                            RankState::Blocked { src, tag, .. } => (src, tag),
                            RankState::Waiting { .. } => (rank, 0),
                            _ => continue,
                        };
                        if st.record {
                            st.wire.push(WireEvent { rank, peer, tag, kind: WireKind::Stuck });
                        }
                        *r = RankState::Ready { timed_out: false, deadlocked: true };
                    }
                }
            }
        }
    }

    /// Park until `rank` holds the token; returns with the rank `Running`
    /// and the wake-reason flags of the `Ready` state it left.
    fn wait_for_token<'a>(
        &'a self,
        mut st: MutexGuard<'a, SimState>,
        rank: usize,
    ) -> (MutexGuard<'a, SimState>, bool, bool) {
        while st.current != Some(rank) {
            st = self.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let (timed_out, deadlocked) = match st.ranks[rank] {
            RankState::Ready { timed_out, deadlocked } => (timed_out, deadlocked),
            _ => (false, false),
        };
        st.ranks[rank] = RankState::Running;
        (st, timed_out, deadlocked)
    }

    /// A scheduling point: give up the token, let the scheduler pick (it may
    /// re-pick this rank), and return once this rank is picked again.
    fn yield_turn<'a>(
        &'a self,
        mut st: MutexGuard<'a, SimState>,
        rank: usize,
    ) -> MutexGuard<'a, SimState> {
        st.ranks[rank] = RankState::Ready { timed_out: false, deadlocked: false };
        self.pick_next(&mut st, rank);
        let (st, _, _) = self.wait_for_token(st, rank);
        st
    }

    /// First scheduling point of a rank thread: enter as `Ready`, start the
    /// scheduler once the last rank is in, and park until first picked.
    fn attach(&self, rank: usize) {
        let mut st = self.lock();
        st.ranks[rank] = RankState::Ready { timed_out: false, deadlocked: false };
        st.started += 1;
        if st.started == self.p {
            self.pick_next(&mut st, rank);
        }
        drop(self.wait_for_token(st, rank));
    }

    /// Last scheduling point of a rank thread: mark it done and pass the
    /// token on.
    fn detach(&self, rank: usize) {
        let mut st = self.lock();
        st.ranks[rank] = RankState::Done;
        if st.current == Some(rank) {
            self.pick_next(&mut st, rank);
        }
    }

    fn sim_send(&self, rank: usize, dest: usize, tag: Tag, buf: MsgBuf) -> CommResult<()> {
        if dest >= self.p {
            return Err(CommError::InvalidRank { rank: dest, size: self.p });
        }
        let mut st = self.lock();
        st.pending[rank] = SimOp::Send { dest, tag };
        st = self.yield_turn(st, rank);
        if st.record {
            st.wire.push(WireEvent { rank, peer: dest, tag, kind: WireKind::Send(buf.clone()) });
        }
        st.queues[dest].push(rank, tag, buf);
        // Hand-off: a rank parked in a matching receive — or waiting for any
        // arrival — becomes runnable.
        let wakes = match st.ranks[dest] {
            RankState::Blocked { src, tag: t, .. } => src == rank && t == tag,
            RankState::Waiting { .. } => true,
            _ => false,
        };
        if wakes {
            st.ranks[dest] = RankState::Ready { timed_out: false, deadlocked: false };
        }
        Ok(())
    }

    /// The receive: yields, then blocks until a matching message, timeout,
    /// or proved deadlock. A match longer than `max_len` fails with
    /// [`CommError::Truncated`] *without consuming* the message;
    /// `Duration::MAX` (or a deadline past the end of the clock) is untimed.
    fn sim_recv(
        &self,
        rank: usize,
        src: usize,
        tag: Tag,
        max_len: usize,
        timeout: Duration,
    ) -> CommResult<MsgBuf> {
        if src >= self.p {
            return Err(CommError::InvalidRank { rank: src, size: self.p });
        }
        let timed = timeout != Duration::MAX;
        let mut st = self.lock();
        st.pending[rank] = SimOp::Recv { src, tag, timed };
        st = self.yield_turn(st, rank);
        let op_start = st.now;
        let deadline = op_start.checked_add(timeout).filter(|_| timed);
        loop {
            match st.queues[rank].try_pop(src, tag, max_len) {
                Some(Ok(msg)) => {
                    if st.record {
                        st.wire.push(WireEvent { rank, peer: src, tag, kind: WireKind::Recv });
                    }
                    return Ok(msg);
                }
                // Too long: error out *without* consuming, exactly like the
                // threaded mailbox.
                Some(Err(message_len)) => {
                    return Err(CommError::Truncated { message_len, buffer_len: max_len });
                }
                None => {}
            }
            st.ranks[rank] = RankState::Blocked { src, tag, deadline, since: op_start };
            self.pick_next(&mut st, rank);
            let (g, timed_out, deadlocked) = self.wait_for_token(st, rank);
            st = g;
            // A message beats a simultaneous wake verdict: re-check the
            // queue first (another deadlock-woken rank may have sent to us
            // from its error path before we were scheduled).
            let has_msg = st.queues[rank].peek_len(src, tag).is_some();
            if !has_msg {
                if deadlocked {
                    return Err(CommError::Deadlock { src, tag });
                }
                if timed_out {
                    return Err(CommError::Timeout {
                        src,
                        tag,
                        waited: st.now.saturating_sub(op_start),
                    });
                }
            }
        }
    }

    fn sim_probe(&self, rank: usize, src: usize, tag: Tag) -> CommResult<Option<usize>> {
        if src >= self.p {
            return Err(CommError::InvalidRank { rank: src, size: self.p });
        }
        let mut st = self.lock();
        st.pending[rank] = SimOp::Probe { src, tag };
        st = self.yield_turn(st, rank);
        let found = st.queues[rank].peek_len(src, tag);
        if st.record {
            st.wire.push(WireEvent { rank, peer: src, tag, kind: WireKind::Probe(found) });
        }
        Ok(found)
    }

    fn sim_sleep(&self, rank: usize, d: Duration) {
        let mut st = self.lock();
        st.pending[rank] = SimOp::Sleep;
        if d.is_zero() {
            drop(self.yield_turn(st, rank));
            return;
        }
        let until = st.now + d;
        st.ranks[rank] = RankState::Sleeping { until };
        self.pick_next(&mut st, rank);
        drop(self.wait_for_token(st, rank));
    }

    fn sim_now(&self) -> Duration {
        self.lock().now
    }

    /// Arrival wait: yields, then parks until a deposit, the deadline, or a
    /// proved deadlock. A zero timeout is a pure read of the count.
    fn sim_wait_arrival(&self, rank: usize, seen: u64, timeout: Duration) -> CommResult<u64> {
        let mut st = self.lock();
        st.pending[rank] = SimOp::Arrival;
        st = self.yield_turn(st, rank);
        if st.queues[rank].deposits() != seen || timeout.is_zero() {
            return Ok(st.queues[rank].deposits());
        }
        // `Duration::MAX`, or a timeout the clock cannot represent, is an
        // unbounded wait (at virtual time 0 the add alone would succeed).
        let deadline = st.now.checked_add(timeout).filter(|_| timeout != Duration::MAX);
        st.ranks[rank] = RankState::Waiting { deadline };
        self.pick_next(&mut st, rank);
        let (st, _, deadlocked) = self.wait_for_token(st, rank);
        // A deposit beats a simultaneous deadlock verdict, as in `sim_recv`.
        let count = st.queues[rank].deposits();
        if deadlocked && count == seen {
            return Err(CommError::Deadlock { src: rank, tag: 0 });
        }
        Ok(count)
    }
}

// ---------------------------------------------------------------------------
// The per-rank communicator handle.
// ---------------------------------------------------------------------------

/// A rank's handle onto a [`SimWorld`]. Implements [`Communicator`], so every
/// algorithm and wrapper stack in the workspace runs under the deterministic
/// scheduler unmodified.
pub struct SimComm<'w> {
    world: &'w SimWorld,
    rank: usize,
}

impl SimComm<'_> {
    /// Run `f` on every rank of a `p`-rank simulated world scheduled from
    /// `seed`, mirroring [`crate::ThreadComm::run`]. Panics on any rank are
    /// propagated after all threads join.
    pub fn run<T, F>(p: usize, seed: u64, f: F) -> SimRun<T>
    where
        F: Fn(&SimComm<'_>) -> T + Sync,
        T: Send,
    {
        let report = Self::run_inner(p, &SimConfig::from_seed(seed), &f);
        let mut results = Vec::with_capacity(p);
        for o in report.outcomes {
            match o {
                Ok(v) => results.push(v),
                Err(payload) => resume_unwind(payload),
            }
        }
        SimRun { results, trace: report.trace }
    }

    /// Run `f` on every rank under `cfg`, capturing panics as per-rank
    /// failures instead of propagating them — the harness entry point for
    /// fuzzing, replay, and shrinking.
    pub fn try_run<T, F>(p: usize, cfg: &SimConfig, f: F) -> SimReport<T>
    where
        F: Fn(&SimComm<'_>) -> T + Sync,
        T: Send,
    {
        let report = Self::run_inner(p, cfg, &f);
        let outcomes = report
            .outcomes
            .into_iter()
            .map(|o| {
                o.map_err(|payload| {
                    if let Some(s) = payload.downcast_ref::<&str>() {
                        (*s).to_string()
                    } else if let Some(s) = payload.downcast_ref::<String>() {
                        s.clone()
                    } else {
                        "panic (non-string payload)".to_string()
                    }
                })
            })
            .collect();
        SimReport { outcomes, trace: report.trace, steps: report.steps, wire: report.wire }
    }

    fn run_inner<T, F>(p: usize, cfg: &SimConfig, f: &F) -> SimReport<T, Box<dyn std::any::Any + Send>>
    where
        F: Fn(&SimComm<'_>) -> T + Sync,
        T: Send,
    {
        assert!(p > 0, "world size must be at least 1");
        let world = SimWorld::new(p, cfg);
        let outcomes = std::thread::scope(|scope| {
            #[expect(clippy::disallowed_methods, reason = "one cooperative thread per rank")]
            let handles: Vec<_> = (0..p)
                .map(|rank| {
                    let world = &world;
                    scope.spawn(move || {
                        world.attach(rank);
                        let comm = SimComm { world, rank };
                        // Catch here so a panicking rank releases the token
                        // (detach) and the rest of the world keeps running —
                        // typically into a proved deadlock, not a hang.
                        let out = catch_unwind(AssertUnwindSafe(|| f(&comm)));
                        world.detach(rank);
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|payload| Err(payload)))
                .collect::<Vec<_>>()
        });
        let mut st = world.lock();
        let trace = ScheduleTrace {
            p,
            seed: world.seed,
            meta: cfg.meta.clone(),
            choices: st.choices.clone(),
        };
        let steps = cfg.record_steps.then(|| std::mem::take(&mut st.steps));
        let wire = cfg.record_steps.then(|| std::mem::take(&mut st.wire));
        drop(st);
        SimReport { outcomes, trace, steps, wire }
    }
}

impl Communicator for SimComm<'_> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.world.p
    }

    fn send_buf(&self, dest: usize, tag: Tag, buf: MsgBuf) -> CommResult<()> {
        self.world.sim_send(self.rank, dest, tag, buf)
    }

    fn recv_match(
        &self,
        src: usize,
        tag: Tag,
        max_len: usize,
        timeout: Duration,
    ) -> CommResult<MsgBuf> {
        self.world.sim_recv(self.rank, src, tag, max_len, timeout)
    }

    fn probe(&self, src: usize, tag: Tag) -> CommResult<Option<usize>> {
        self.world.sim_probe(self.rank, src, tag)
    }

    fn now(&self) -> Duration {
        self.world.sim_now()
    }

    fn sleep(&self, d: Duration) {
        self.world.sim_sleep(self.rank, d)
    }

    fn wait_arrival(&self, seen: u64, timeout: Duration) -> CommResult<u64> {
        self.world.sim_wait_arrival(self.rank, seen, timeout)
    }
}

// ---------------------------------------------------------------------------
// Delta-debugging shrinker.
// ---------------------------------------------------------------------------

/// Minimize a failing choice list with ddmin-style chunk deletion.
///
/// `still_fails(candidate)` must re-run the program replaying `candidate`
/// (deterministic lowest-ready fallback past its end — what
/// [`SimConfig::replay_trace`] does) and report whether the failure still
/// reproduces. The returned list always still fails. Chunks are tried from
/// the tail first, so the common "everything after the race is irrelevant"
/// case collapses to a prefix in the first passes.
pub fn shrink_choices(
    choices: &[u32],
    mut still_fails: impl FnMut(&[u32]) -> bool,
) -> Vec<u32> {
    if still_fails(&[]) {
        return Vec::new();
    }
    let mut cur = choices.to_vec();
    let mut n = 2usize;
    while cur.len() >= 2 {
        let chunk = cur.len().div_ceil(n);
        let chunks = cur.len().div_ceil(chunk);
        let mut reduced = false;
        for i in (0..chunks).rev() {
            let lo = i * chunk;
            let hi = ((i + 1) * chunk).min(cur.len());
            let mut cand = Vec::with_capacity(cur.len() - (hi - lo));
            cand.extend_from_slice(&cur[..lo]);
            cand.extend_from_slice(&cur[hi..]);
            if still_fails(&cand) {
                cur = cand;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
        }
        if !reduced {
            if chunk == 1 {
                break;
            }
            n = (n * 2).min(cur.len());
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReduceOp;

    #[test]
    fn same_seed_same_trace_and_results() {
        let body = |comm: &SimComm<'_>| {
            let me = comm.rank() as u64;
            comm.allreduce_u64(me, ReduceOp::Sum).unwrap()
        };
        let a = SimComm::run(4, 7, body);
        let b = SimComm::run(4, 7, body);
        assert_eq!(a.results, vec![6, 6, 6, 6]);
        assert_eq!(a.results, b.results);
        assert_eq!(a.trace, b.trace);
        assert!(!a.trace.choices.is_empty());
    }

    #[test]
    fn different_seeds_explore_different_schedules() {
        let body = |comm: &SimComm<'_>| {
            comm.barrier().unwrap();
            comm.rank()
        };
        // Not guaranteed for any single pair, so scan a few seeds; with 4
        // ranks in a barrier at least one pair of seeds must differ.
        let traces: Vec<_> = (0..8).map(|s| SimComm::run(4, s, body).trace.choices).collect();
        assert!(traces.windows(2).any(|w| w[0] != w[1]), "all 8 seeds gave one schedule");
    }

    #[test]
    fn replay_reproduces_the_recorded_schedule() {
        let body = |comm: &SimComm<'_>| {
            let peer = comm.size() - 1 - comm.rank();
            if peer == comm.rank() {
                return 0;
            }
            comm.send(peer, 5, &[comm.rank() as u8]).unwrap();
            comm.recv(peer, 5).unwrap()[0] as usize
        };
        let rec = SimComm::run(5, 99, body);
        let rep = SimComm::try_run(5, &SimConfig::replay_trace(&rec.trace), body);
        assert!(rep.all_ok());
        assert_eq!(rep.trace.choices, rec.trace.choices);
    }

    #[test]
    fn virtual_timeout_fires_at_exactly_the_budget_instantly() {
        let budget = Duration::from_secs(3600); // an hour of virtual time
        let wall = std::time::Instant::now();
        let run = SimComm::run(2, 1, |comm| {
            if comm.rank() == 0 {
                // Rank 1 never sends on tag 9.
                comm.recv_buf_timeout(1, 9, budget)
            } else {
                comm.sleep(Duration::from_millis(5));
                Err(CommError::BadArgument("unused"))
            }
        });
        match &run.results[0] {
            Err(CommError::Timeout { waited, .. }) => assert_eq!(*waited, budget),
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(wall.elapsed() < budget, "virtual time must not consume wall-clock time");
    }

    #[test]
    fn sleep_advances_virtual_clock_exactly() {
        let run = SimComm::run(1, 0, |comm| {
            let t0 = comm.now();
            comm.sleep(Duration::from_millis(250));
            comm.now() - t0
        });
        assert_eq!(run.results[0], Duration::from_millis(250));
    }

    #[test]
    fn deadlock_is_proved_not_hung() {
        let run = SimComm::run(2, 3, |comm| {
            // Both ranks receive first: a textbook deadlock.
            let peer = 1 - comm.rank();
            comm.recv_buf(peer, 1)
        });
        for r in &run.results {
            assert!(
                matches!(r, Err(CommError::Deadlock { .. })),
                "expected proved deadlock, got {r:?}"
            );
        }
    }

    #[test]
    fn unbounded_arrival_wait_at_time_zero_is_a_deadlock_not_a_deadline() {
        // `ZERO.checked_add(MAX)` succeeds: read as a deadline at `MAX`, the
        // stuck world would jump the clock there instead of proving itself
        // stuck.
        let run = SimComm::run(2, 3, |comm| {
            let seen = comm.wait_arrival(0, Duration::ZERO).unwrap();
            (comm.wait_arrival(seen, Duration::MAX), comm.now())
        });
        for (r, now) in &run.results {
            assert!(matches!(r, Err(CommError::Deadlock { .. })), "got {r:?}");
            assert_eq!(*now, Duration::ZERO);
        }
    }

    #[test]
    fn timed_wait_escapes_a_deadlock() {
        // One rank has a timeout, so the world is not deadlocked: virtual
        // time advances to its deadline and it unblocks (then sends).
        let run = SimComm::run(2, 3, |comm| {
            let peer = 1 - comm.rank();
            if comm.rank() == 0 {
                let first = comm.recv_buf_timeout(peer, 1, Duration::from_millis(10));
                comm.send(peer, 1, b"go").unwrap();
                first.map(|_| ()).map_err(|e| e)
            } else {
                comm.recv_buf(peer, 1).map(|_| ()).map_err(|e| e)
            }
        });
        assert!(matches!(run.results[0], Err(CommError::Timeout { .. })));
        assert!(run.results[1].is_ok());
    }

    #[test]
    fn truncated_recv_into_is_non_destructive_under_sim() {
        let run = SimComm::run(2, 11, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 2, &[1, 2, 3, 4]).unwrap();
                0
            } else {
                let mut small = [0u8; 2];
                let err = comm.recv_into(0, 2, &mut small).unwrap_err();
                assert!(matches!(err, CommError::Truncated { message_len: 4, buffer_len: 2 }));
                let mut big = [0u8; 8];
                comm.recv_into(0, 2, &mut big).unwrap()
            }
        });
        assert_eq!(run.results[1], 4);
    }

    #[test]
    fn panic_on_one_rank_does_not_hang_the_world() {
        let report = SimComm::try_run(2, &SimConfig::from_seed(5), |comm| {
            if comm.rank() == 0 {
                panic!("injected bug on rank 0");
            }
            // Rank 1 waits for a message that can now never arrive; the
            // scheduler proves the deadlock instead of hanging.
            comm.recv_buf(0, 1).map(|_| ()).map_err(|e| e)
        });
        assert!(report.outcomes[0].as_ref().is_err_and(|m| m.contains("injected bug")));
        assert!(matches!(report.outcomes[1], Ok(Err(CommError::Deadlock { .. }))));
    }

    #[test]
    fn trace_round_trips_through_text_and_file() {
        let t = ScheduleTrace {
            p: 4,
            seed: 0xDEAD_BEEF,
            meta: "algo=TwoPhaseBruck dist=uniform".into(),
            choices: vec![0, 3, 3, 1, 2, 0],
        };
        let parsed = ScheduleTrace::parse(&t.serialize()).unwrap();
        assert_eq!(parsed, t);
        let path = std::env::temp_dir().join("bruck-sim-roundtrip.trace");
        t.save(&path).unwrap();
        assert_eq!(ScheduleTrace::load(&path).unwrap(), t);
        let _ = std::fs::remove_file(&path);
        assert!(ScheduleTrace::parse("not a trace").is_err());
    }

    #[test]
    fn parse_rejects_bad_header_naming_the_line() {
        let err = ScheduleTrace::parse("bruck-sim-trace v9\np 2\nseed 1\nchoices 0\n")
            .unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        assert!(err.contains("bruck-sim-trace v9"), "{err}");
        let err = ScheduleTrace::parse("").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn parse_rejects_non_numeric_fields_naming_the_line() {
        let err = ScheduleTrace::parse("bruck-sim-trace v1\np two\nseed 1\nchoices 0\n")
            .unwrap_err();
        assert!(err.starts_with("line 2:") && err.contains("bad p"), "{err}");
        let err = ScheduleTrace::parse("bruck-sim-trace v1\np 2\nseed xx\nchoices 0\n")
            .unwrap_err();
        assert!(err.starts_with("line 3:") && err.contains("bad seed"), "{err}");
        let err = ScheduleTrace::parse("bruck-sim-trace v1\np 2\nseed 1\nchoices 0 1 oops 3\n")
            .unwrap_err();
        assert!(err.starts_with("line 4:") && err.contains("\"oops\""), "{err}");
        let err = ScheduleTrace::parse("bruck-sim-trace v1\np 2\nbogus 7\nchoices 0\n")
            .unwrap_err();
        assert!(err.starts_with("line 3:") && err.contains("unknown trace field"), "{err}");
    }

    #[test]
    fn parse_rejects_truncated_traces() {
        let err = ScheduleTrace::parse("bruck-sim-trace v1\nseed 1\nchoices 0\n").unwrap_err();
        assert!(err.contains("missing \"p\""), "{err}");
        let err = ScheduleTrace::parse("bruck-sim-trace v1\np 2\nchoices 0\n").unwrap_err();
        assert!(err.contains("missing \"seed\""), "{err}");
        let err = ScheduleTrace::parse("bruck-sim-trace v1\np 2\nseed 1\n").unwrap_err();
        assert!(err.contains("missing \"choices\""), "{err}");
    }

    #[test]
    fn trace_roundtrip_property_over_seeded_traces() {
        // Property: serialize ∘ parse is the identity for arbitrary traces,
        // including empty choice lists and meta with internal spaces.
        let mut z = 0xBADC_0FFE_u64;
        for case in 0..64 {
            z = splitmix(z);
            let n = (z % 40) as usize;
            let mut choices = Vec::with_capacity(n);
            for _ in 0..n {
                z = splitmix(z);
                choices.push((z % 8) as u32);
            }
            let t = ScheduleTrace {
                p: (case % 7) + 1,
                seed: z,
                meta: if case % 3 == 0 { String::new() } else { format!("cell a=b c={case}") },
                choices,
            };
            let parsed = ScheduleTrace::parse(&t.serialize()).unwrap();
            assert_eq!(parsed, t, "round-trip failed for case {case}");
        }
    }

    #[test]
    fn recorded_steps_align_with_choices_and_carry_footprints() {
        let mut cfg = SimConfig::from_seed(42);
        cfg.record_steps = true;
        let report = SimComm::try_run(2, &cfg, |comm| {
            let peer = 1 - comm.rank();
            if comm.rank() == 0 {
                comm.send(peer, 7, b"x").unwrap();
            } else {
                comm.recv(peer, 7).unwrap();
            }
        });
        assert!(report.all_ok());
        let steps = report.steps.as_ref().expect("steps recorded");
        assert_eq!(steps.len(), report.trace.choices.len());
        for (step, &choice) in steps.iter().zip(&report.trace.choices) {
            assert_eq!(step.chosen, choice);
            assert!(step.enabled.iter().any(|&(r, _)| r == choice));
        }
        // The send and the matching recv footprints must both appear.
        let all: Vec<SimOp> =
            steps.iter().flat_map(|s| s.enabled.iter().map(|&(_, op)| op)).collect();
        assert!(all.contains(&SimOp::Send { dest: 1, tag: 7 }));
        assert!(all.contains(&SimOp::Recv { src: 0, tag: 7, timed: false }));
        // Recording off → no steps.
        let off = SimComm::try_run(2, &SimConfig::from_seed(42), |comm| comm.rank());
        assert!(off.steps.is_none());
    }

    #[test]
    fn shrinker_reduces_to_the_minimal_failing_core() {
        // A synthetic oracle: "fails" iff the list contains at least three
        // 2s. ddmin must strip everything else.
        let noisy: Vec<u32> =
            vec![0, 1, 2, 3, 0, 2, 1, 1, 3, 2, 0, 1, 3, 0, 2, 1, 0, 3, 1, 0];
        let fails = |c: &[u32]| c.iter().filter(|&&x| x == 2).count() >= 3;
        assert!(fails(&noisy));
        let min = shrink_choices(&noisy, fails);
        assert_eq!(min, vec![2, 2, 2]);
    }

    #[test]
    fn collectives_work_under_every_seed() {
        for seed in 0..10 {
            let run = SimComm::run(5, seed, |comm| {
                comm.allreduce_u64(comm.rank() as u64, ReduceOp::Sum).unwrap()
            });
            assert_eq!(run.results, vec![10; 5], "seed {seed}");
        }
    }
}
