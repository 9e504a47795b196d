//! The event-driven scheduler behind [`EventComm`]: a fixed pool of worker
//! OS threads multiplexing many lightweight rank tasks.
//!
//! ## Task lifecycle
//!
//! Each rank is a *task slot* cycling through:
//!
//! ```text
//!            ┌────────────────────────────────────────────┐
//!            v                                            │
//! Queued ─> Running ──(returns)──> Done                   │
//!            │  │                                         │
//!            │  └─(waker hits mid-unwind)─> RunningWake ──┘
//!            └──(parks)──> Parked ──(wake)──> Queued
//! ```
//!
//! A worker takes the next rank of the ready set's sweep (rank order from the
//! rank served last, turning round only when nothing is ahead — the disk
//! elevator) and bumps the slot's *epoch*. A task parked in a stored call is
//! *resumed*: the worker polls the call and runs no closure until it has
//! finished (see `event.rs`). The closure runs against a fresh [`EventComm`],
//! replaying the logged prefix. A pick ends one of three ways: the task
//! returns (`Done`), panics for real (`Done`, payload propagated with the rank
//! id), or parks — then the worker *commits the park*: it stores the log and
//! the stored call back in the slot and either parks the task or, if a waker
//! already flagged it mid-poll or mid-unwind (`RunningWake`), re-queues it.
//! This two-phase park is what makes "sender deposits the message while the
//! receiver is still unwinding" race-free: the waiter is registered in the
//! inbox *before* the unwind starts, and a depositor that takes it while the
//! slot is still `Running` just flips it to `RunningWake`.
//!
//! ## Wakeups, timers, quiescence
//!
//! Message wakes are delivered by the depositing sender in batches (one
//! scheduler lock per flushed outbox). Deadlines (timed receives, arrival
//! waits, sleeps) sit in a min-heap keyed by virtual time and tagged with
//! the park's epoch,
//! so a stale entry — the task was woken by a message first — is skipped by
//! construction. The virtual clock only advances at *global quiescence*:
//! every worker idle and nothing runnable. The last idle worker then jumps
//! the clock to the earliest pending deadline and fires it; if no deadline
//! is pending at quiescence, the world can provably never progress, and the
//! worker wakes every parked task with the [`CommError::Deadlock`] verdict
//! (`CommError` is what each parked receive then returns) — the same
//! semantics [`crate::SimComm`] pioneered, now on a parallel backend.
//!
//! ## Worker-pool sizing
//!
//! Tasks never block an OS thread (blocking is parking), so workers are pure
//! CPU: [`EventComm::run`] defaults to `2 × available_parallelism`, and
//! anything ≥ 1 is correct — `run_pooled(p, 1, …)` is fully deterministic:
//! with one worker the sweep's order is a function of the program alone.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the scheduler is the sanctioned site for worker threads and condvars"
)]

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::Poll;
use std::time::Duration;

use crate::splitmix;
use crate::clock::VirtualClock;
use crate::event::{CallState, EventComm, ExecCtx, Inbox, Park, ReplayLog, TaskYield, Wake};
use crate::mailbox::{MatchStore, StoreStats};
use crate::sim::{ScheduleTrace, SimConfig};
use crate::thread_comm::describe_panic;
use crate::Tag;

/// Scheduling state of one rank task. See the module docs for the lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// In the ready set, waiting for a worker.
    Queued,
    /// A worker is executing (or unwinding) it, or polling its stored call.
    Running,
    /// Running, and a waker already fired: re-queue at park-commit instead
    /// of parking.
    RunningWake,
    /// Parked: waiting on its registered waiter and/or a timer.
    Parked,
    /// Completed (returned or panicked).
    Done,
}

/// One rank's task slot: state machine + the suspended replay log and
/// resumed call.
struct TaskSlot {
    state: TaskState,
    /// The task's replay log while it is not executing.
    log: Option<ReplayLog>,
    /// The resumed call the task is parked in, or its output once the
    /// scheduler's poll finished it; dropped at `Done`.
    call: Option<CallState>,
    /// Wake verdict to hand the next execution.
    wake: Option<Wake>,
    /// Incremented at each execution start; waiters and timers registered by
    /// execution N are valid only while the slot is `Parked` at epoch N.
    epoch: u64,
    /// This task's share of the run's scheduler counters, bumped under the
    /// slot lock the execution's start and end already take and summed into
    /// the [`EventReport`] once the pool has drained.
    counters: SchedCounters,
}

/// How often tasks parked, by the operation they parked in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParkCounts {
    /// Parks in an untimed receive (`recv_buf` / `recv_into`).
    pub recv: u64,
    /// Parks in `recv_buf_timeout`.
    pub timed_recv: u64,
    /// Parks in `sleep`.
    pub sleep: u64,
    /// Parks in `wait_arrival`.
    pub arrival: u64,
}

impl ParkCounts {
    /// Parks of every kind.
    pub fn total(&self) -> u64 {
        self.recv + self.timed_recv + self.sleep + self.arrival
    }
}

/// Scheduler counters of one task (and, summed, of one run).
#[derive(Debug, Clone, Copy, Default)]
struct SchedCounters {
    parks: ParkCounts,
    wakes: u64,
    resumes: u64,
    replayed_ops: u64,
}

impl SchedCounters {
    /// Account one finished execution: the ops it retraced and, if it ended
    /// in a park request, the kind it parked in.
    fn note_execution(&mut self, ctx: &ExecCtx, park: Option<&Park>) {
        self.replayed_ops += ctx.replayed() as u64;
        match park {
            Some(Park::Recv { deadline: None }) => self.parks.recv += 1,
            Some(Park::Recv { deadline: Some(_) }) => self.parks.timed_recv += 1,
            Some(Park::Sleep { .. }) => self.parks.sleep += 1,
            Some(Park::Arrival { .. }) => self.parks.arrival += 1,
            None => {}
        }
    }

    fn merge(&mut self, other: SchedCounters) {
        self.parks.recv += other.parks.recv;
        self.parks.timed_recv += other.parks.timed_recv;
        self.parks.sleep += other.parks.sleep;
        self.parks.arrival += other.parks.arrival;
        self.wakes += other.wakes;
        self.resumes += other.resumes;
        self.replayed_ops += other.replayed_ops;
    }
}

/// A pending virtual-time deadline. Min-heap order by deadline (field order
/// matters for the derived `Ord`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TimerEntry {
    deadline: Duration,
    rank: usize,
    epoch: u64,
    kind: TimerKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TimerKind {
    /// A `recv_buf_timeout` or `wait_arrival` deadline: deregister the
    /// waiter and wake with [`Wake::TimedOut`].
    RecvDeadline,
    /// A `sleep` wake-up: wake with [`Wake::SleepElapsed`].
    Sleep,
}

// ---------------------------------------------------------------------------
// Scheduled (verification) mode: deterministic single-worker pick policy.
// ---------------------------------------------------------------------------

/// One recorded scheduling point of a scheduled run
/// ([`EventComm::run_scheduled`]): which rank the single worker picked and
/// every rank that was runnable at that moment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventStep {
    /// The rank picked (mirrors the entry appended to the trace's choices).
    pub chosen: u32,
    /// Every runnable rank at this point, ascending.
    pub enabled: Vec<u32>,
}

/// Pick policy for scheduled runs: replay a choice list (lowest-runnable
/// fallback, same contract as the simulator) or draw from a seeded stream;
/// records every pick and its enabled set either way.
struct PickPolicy {
    replay: Option<VecDeque<u32>>,
    rng: u64,
    choices: Vec<u32>,
    steps: Vec<EventStep>,
    /// Runtime-detected no-progress verdict (scheduled mode converts the
    /// "stuck" invariant panic into a reported value so the explorer can
    /// treat it as a finding, not a crash).
    verdict: Option<String>,
}

impl PickPolicy {
    /// Pick one rank out of the ready set and record the step. The set is
    /// non-empty; the sweep position plays no part in a scheduled run.
    fn pick(&mut self, ready: &mut BTreeSet<usize>) -> usize {
        let enabled: Vec<u32> = ready.iter().map(|&r| r as u32).collect();
        let pick = match &mut self.replay {
            Some(q) => match q.pop_front() {
                Some(c) if enabled.binary_search(&c).is_ok() => c as usize,
                // Diverged or exhausted recording: lowest runnable.
                _ => enabled[0] as usize,
            },
            None => {
                self.rng = splitmix(self.rng);
                enabled[(self.rng % enabled.len() as u64) as usize] as usize
            }
        };
        self.choices.push(pick as u32);
        self.steps.push(EventStep { chosen: pick as u32, enabled });
        ready.remove(&pick);
        pick
    }
}

/// Options for [`EventComm::run_scheduled`] — the verification entry point.
#[derive(Debug, Default, Clone)]
pub struct EventVerifyOpts {
    lost_wakeup_bug: bool,
}

impl EventVerifyOpts {
    /// Arm the guarded lost-wakeup bug in the message wake path: a woken
    /// task is marked `Queued` but never enqueued. Detection of exactly
    /// this bug is pinned by bruck-verify's regression tests.
    pub fn with_lost_wakeup_bug(mut self) -> EventVerifyOpts {
        self.lost_wakeup_bug = true;
        self
    }
}

/// Outcome of one scheduled run: per-rank results (with panics captured),
/// the recorded schedule, the per-step enabled sets, and — when the runtime
/// could not finish the world — the no-progress verdict.
#[derive(Debug)]
pub struct EventRun<T> {
    /// One entry per rank: `None` if the rank never completed (the runtime
    /// got stuck), else the closure's return or its panic as a string.
    pub outcomes: Vec<Option<Result<T, String>>>,
    /// The schedule that was executed, replayable via
    /// [`EventComm::run_scheduled`] with `SimConfig::replay_trace`.
    pub trace: ScheduleTrace,
    /// Enabled set at every scheduling point, aligned with the trace.
    pub steps: Vec<EventStep>,
    /// Set when the scheduler proved it could make no progress with live
    /// tasks left (the symptom a lost wakeup manifests as), or when the
    /// worker died on a runtime invariant.
    pub stuck: Option<String>,
    /// The happens-before audit log: every wake-protocol transition of the
    /// run, in the order the one worker made them.
    pub audit: Vec<AuditEvent>,
}

// ---------------------------------------------------------------------------
// Happens-before audit layer (recorded by scheduled runs only).
// ---------------------------------------------------------------------------

/// A vector logical clock: one component per actor.
///
/// Maintained with the classic protocol: an actor ticks its own component
/// before stamping an event and joins every clock that reaches it (a
/// message's send clock, a waker's clock). For two stamped events `a` (by
/// actor `ra`) and `b`, `a` happens before (or is) `b` iff
/// `a.get(ra) <= b.get(ra)`; [`VectorClock::le`] is the componentwise order.
/// Clocks that are joined or compared must have the same width: a `p`-wide
/// schedule clock never silently meets a `p + 1`-wide audit clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorClock(Vec<u64>);

impl VectorClock {
    /// The zero clock over `width` actors.
    pub fn new(width: usize) -> Self {
        VectorClock(vec![0; width])
    }

    /// Advance `actor`'s own component by one.
    pub fn tick(&mut self, actor: usize) {
        self.0[actor] += 1;
    }

    /// Componentwise maximum with `other` (the receive-side join).
    pub fn join(&mut self, other: &VectorClock) {
        assert_eq!(self.0.len(), other.0.len(), "joining vector clocks of different widths");
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// `actor`'s component.
    pub fn get(&self, actor: usize) -> u64 {
        self.0[actor]
    }

    /// Componentwise `<=` (the happens-before-or-equal partial order).
    pub fn le(&self, other: &VectorClock) -> bool {
        assert_eq!(self.0.len(), other.0.len(), "comparing vector clocks of different widths");
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }
}

/// Who performed a wake-path transition, for the audit log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeSource {
    /// A depositing sender (the flushing rank).
    Sender(usize),
    /// The quiescence timer step.
    Timer,
    /// The deadlock sweep.
    Sweep,
    /// Park-commit requeue (a wake landed mid-unwind).
    ParkCommit,
}

/// One wake-protocol transition, recorded by the audit layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditKind {
    /// A message was deposited into `dest`'s store.
    Deposit {
        /// Sending rank.
        src: usize,
        /// Destination rank.
        dest: usize,
        /// Message tag.
        tag: Tag,
    },
    /// A parking receive (or `wait_arrival`) registered its readiness-list
    /// entry.
    WaiterArmed {
        /// The parking rank.
        rank: usize,
        /// Source the receive matches on (the parking rank itself for an
        /// any-source `wait_arrival`).
        src: usize,
        /// Tag the receive matches on (0 for `wait_arrival`).
        tag: Tag,
        /// Epoch of the parking execution.
        epoch: u64,
    },
    /// A waiter was removed from the readiness list. Every taken waiter
    /// must be followed by a wake of that `(rank, epoch)` — the lost-wakeup
    /// invariant the auditor checks.
    WaiterTaken {
        /// The rank whose waiter was taken.
        rank: usize,
        /// Epoch the waiter was registered under.
        epoch: u64,
        /// Who took it.
        by: WakeSource,
    },
    /// A task was made runnable.
    Enqueued {
        /// The woken rank.
        rank: usize,
        /// The slot epoch the wake was applied at.
        epoch: u64,
        /// Who applied it.
        by: WakeSource,
    },
    /// A wake landed while the task was still unwinding (`RunningWake`):
    /// park-commit will requeue it.
    WakeFlagged {
        /// The woken rank.
        rank: usize,
        /// The slot epoch at flag time.
        epoch: u64,
    },
    /// A worker started executing the task at the given (fresh) epoch.
    ExecStart {
        /// The executing rank.
        rank: usize,
        /// The new epoch.
        epoch: u64,
    },
    /// Park-commit completed: the task is `Parked` at the given epoch.
    ParkCommitted {
        /// The parked rank.
        rank: usize,
        /// The parked epoch.
        epoch: u64,
    },
    /// The task completed (returned or panicked).
    TaskDone {
        /// The finished rank.
        rank: usize,
    },
    /// A stale wake (epoch or state mismatch) was correctly dropped.
    StaleDrop {
        /// The target rank.
        rank: usize,
        /// Epoch the wake was registered under.
        wake_epoch: u64,
        /// The slot's current epoch.
        slot_epoch: u64,
    },
}

/// One audit-log entry: the transition, the acting context (`rank`, or `p`
/// for the scheduler's timer/sweep steps), and the actor's vector clock
/// *after* the transition. Clocks have `p + 1` components; a woken task
/// joins its waker's clock at its next `ExecStart`, so "taken happens-before
/// the wake's observation" is checkable even on multi-worker runs where log
/// order is not causality.
#[derive(Debug, Clone)]
pub struct AuditEvent {
    /// The recorded transition.
    pub kind: AuditKind,
    /// Acting context: a rank, or `p` for scheduler steps.
    pub actor: usize,
    /// The actor's vector clock after this transition.
    pub clock: VectorClock,
}

struct AuditState {
    events: Vec<AuditEvent>,
    /// One clock per actor (`p` ranks + the scheduler context).
    clocks: Vec<VectorClock>,
    /// Per rank, the join of every clock that woke it: its next `ExecStart`
    /// joins it (a wake it has already joined is dominated, so re-joining
    /// it changes nothing).
    wakers: Vec<VectorClock>,
}

impl AuditState {
    fn new(p: usize) -> AuditState {
        AuditState {
            events: Vec::new(),
            clocks: vec![VectorClock::new(p + 1); p + 1],
            wakers: vec![VectorClock::new(p + 1); p],
        }
    }

    fn record(&mut self, actor: usize, kind: AuditKind) {
        if let AuditKind::ExecStart { rank, .. } = kind {
            self.clocks[rank].join(&self.wakers[rank]);
        }
        self.clocks[actor].tick(actor);
        let clock = self.clocks[actor].clone();
        if let AuditKind::Enqueued { rank, .. } | AuditKind::WakeFlagged { rank, .. } = kind {
            self.wakers[rank].join(&clock);
        }
        self.events.push(AuditEvent { kind, actor, clock });
    }
}

/// The runnable ranks, served like a disk elevator (SCAN): in rank order from
/// the sweep position, reversing only when nothing is ahead. A rank that
/// becomes ready ahead of the position is served in this sweep, one behind it
/// on the way back, so no rank waits through more than one reversal — and a
/// chain of ranks each waiting for its neighbour (Bruck receives from
/// `me + 2ᵏ`, the pairwise schedules from `me − i`) unwinds whole in the pass
/// that runs against it, where arrival order advances it one link per pass.
#[derive(Default)]
struct ReadySet {
    ranks: BTreeSet<usize>,
    /// Sweep position, a gap between ranks: `head..` is ahead while
    /// ascending, `..head` while descending. Serving `r` leaves it just
    /// behind the position, so a rank re-queued the moment it was served
    /// (the `RunningWake` requeue) waits for the way back and cannot spin.
    head: usize,
    descending: bool,
    /// Direction reversals so far.
    sweeps: u64,
}

impl ReadySet {
    /// Remove and return the ready rank nearest the position in the sweep
    /// direction, turning round first if nothing is ahead.
    fn take(&mut self) -> Option<usize> {
        let ahead = |s: &ReadySet| match s.descending {
            true => s.ranks.range(..s.head).next_back().copied(),
            false => s.ranks.range(s.head..).next().copied(),
        };
        let rank = ahead(self).or_else(|| {
            self.ranks.first()?;
            self.descending = !self.descending;
            self.sweeps += 1;
            ahead(self)
        })?;
        self.ranks.remove(&rank);
        self.head = if self.descending { rank } else { rank + 1 };
        Some(rank)
    }
}

/// Scheduler shared state (one mutex; workers also park on its condvar).
struct Sched {
    ready: ReadySet,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    /// Workers currently waiting for work.
    idle: usize,
    /// Tasks not yet `Done`.
    live: usize,
    /// Total picks (first runs + wakes) — scheduler telemetry.
    executions: u64,
    /// A worker died on a runtime invariant violation: everyone bail out so
    /// the panic propagates instead of hanging the pool.
    aborted: bool,
    /// Deterministic pick policy for scheduled (verification) runs.
    policy: Option<PickPolicy>,
}

/// The shared world of one event-driven run: per-rank inboxes (sharded
/// locks), task slots, the scheduler, and the virtual clock.
pub struct EventWorld {
    inboxes: Vec<Mutex<Inbox>>,
    slots: Vec<Mutex<TaskSlot>>,
    sched: Mutex<Sched>,
    work: Condvar,
    clock: VirtualClock,
    stats: Arc<StoreStats>,
    workers: usize,
    /// The happens-before audit log (armed only by scheduled runs).
    audit: Option<Mutex<AuditState>>,
    /// Guarded seeded bug: drop the enqueue of a message-woken parked task
    /// (armed only through [`EventVerifyOpts`]).
    lost_wakeup_bug: bool,
}

/// Lock order (outermost first): inbox < slot < sched < clock. `ExecCtx`'s
/// own mutex is only ever touched by the task's current worker, outside all
/// of these.
impl EventWorld {
    fn new(p: usize, workers: usize) -> EventWorld {
        Self::new_opts(p, workers, None, false)
    }

    /// A world whose pick `policy`, when present, makes it a scheduled
    /// (verification) run: only those record the audit log.
    fn new_opts(
        p: usize,
        workers: usize,
        policy: Option<PickPolicy>,
        lost_wakeup_bug: bool,
    ) -> EventWorld {
        assert!(p > 0, "communicator must have at least one rank");
        let audit = policy.is_some().then(|| Mutex::new(AuditState::new(p)));
        let stats = StoreStats::new();
        EventWorld {
            inboxes: (0..p)
                .map(|_| {
                    Mutex::new(Inbox { store: MatchStore::new(Arc::clone(&stats)), waiter: None })
                })
                .collect(),
            slots: (0..p)
                .map(|_| {
                    Mutex::new(TaskSlot {
                        state: TaskState::Queued,
                        log: Some(ReplayLog::default()),
                        call: None,
                        wake: None,
                        epoch: 0,
                        counters: SchedCounters::default(),
                    })
                })
                .collect(),
            sched: Mutex::new(Sched {
                ready: ReadySet { ranks: (0..p).collect(), ..ReadySet::default() },
                timers: BinaryHeap::new(),
                idle: 0,
                live: p,
                executions: 0,
                aborted: false,
                policy,
            }),
            work: Condvar::new(),
            clock: VirtualClock::new(),
            stats,
            workers,
            audit,
            lost_wakeup_bug,
        }
    }

    /// Record one audit transition (no-op unless the run armed the audit).
    #[inline]
    pub(crate) fn audit_record(&self, actor: usize, kind: AuditKind) {
        if let Some(a) = &self.audit {
            a.lock().unwrap_or_else(|p| p.into_inner()).record(actor, kind);
        }
    }

    /// The scheduler-context actor index for audit clocks.
    fn sched_actor(&self) -> usize {
        self.size()
    }

    pub(crate) fn size(&self) -> usize {
        self.inboxes.len()
    }

    pub(crate) fn clock_now(&self) -> Duration {
        self.clock.now()
    }

    pub(crate) fn inbox(&self, rank: usize) -> MutexGuard<'_, Inbox> {
        self.inboxes[rank].lock().unwrap_or_else(|p| p.into_inner())
    }

    fn slot(&self, rank: usize) -> MutexGuard<'_, TaskSlot> {
        self.slots[rank].lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lock_sched(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Transition ranks whose waiter a depositor just took. Called by the
    /// flushing sender (`by`) with no inbox lock held.
    pub(crate) fn wake_on_message(&self, by: usize, ranks: &[usize]) {
        let mut runnable = Vec::with_capacity(ranks.len());
        for &rank in ranks {
            let mut slot = self.slot(rank);
            match slot.state {
                // Still unwinding from its park: flag it so park-commit
                // re-queues instead of parking.
                TaskState::Running => {
                    slot.wake = Some(Wake::Message);
                    slot.state = TaskState::RunningWake;
                    self.audit_record(by, AuditKind::WakeFlagged { rank, epoch: slot.epoch });
                }
                TaskState::Parked => {
                    slot.wake = Some(Wake::Message);
                    slot.state = TaskState::Queued;
                    if self.lost_wakeup_bug {
                        // Seeded bug: the state transition happens but the
                        // ready-set insert is lost. Schedule-dependent — it
                        // only fires when the receiver parked before this
                        // sender's flush — and manifests as a stuck world.
                        continue;
                    }
                    self.audit_record(
                        by,
                        AuditKind::Enqueued { rank, epoch: slot.epoch, by: WakeSource::Sender(by) },
                    );
                    runnable.push(rank);
                }
                // A taken waiter is a single-shot wake: any other state
                // means the readiness list and the slot disagree.
                other => panic!("message wake for rank {rank} in state {other:?}"),
            }
        }
        if !runnable.is_empty() {
            self.enqueue(&runnable);
        }
    }

    fn enqueue(&self, ranks: &[usize]) {
        let mut s = self.lock_sched();
        s.ready.ranks.extend(ranks.iter().copied());
        // No lost wake: a worker counts itself `idle` under this lock before
        // the condvar releases it, so at `idle == 0` every worker is running
        // or yet to re-check the set under the lock, and a notify would be a
        // futex syscall that wakes nobody (always so with one worker).
        match (s.idle, ranks.len()) {
            (0, _) => {}
            (_, 1) => self.work.notify_one(),
            _ => self.work.notify_all(),
        }
    }

    fn add_timer(&self, deadline: Duration, rank: usize, epoch: u64, kind: TimerKind) {
        self.lock_sched().timers.push(Reverse(TimerEntry { deadline, rank, epoch, kind }));
    }

    fn task_done(&self) {
        let mut s = self.lock_sched();
        s.live -= 1;
        if s.live == 0 {
            self.work.notify_all();
        }
    }

    fn abort(&self) {
        let mut s = self.lock_sched();
        s.aborted = true;
        self.work.notify_all();
    }

    /// At quiescence: advance the virtual clock to the earliest pending
    /// deadline and pop everything due. `None` if no timers are pending
    /// (deadlock-sweep territory). Caller holds the scheduler lock.
    fn pop_due_timers(&self, s: &mut Sched) -> Option<Vec<TimerEntry>> {
        let Reverse(first) = *s.timers.peek()?;
        // advance_to never overshoots another pending deadline: `first` is
        // the heap minimum, so every other entry is ≥ the new clock. (A
        // stale entry can advance the clock early, but never past a live
        // deadline — timed receives still wait exactly their budget.)
        let now = self.clock.advance_to(first.deadline);
        let mut due = Vec::new();
        while let Some(&Reverse(e)) = s.timers.peek() {
            if e.deadline > now {
                break;
            }
            due.push(e);
            s.timers.pop();
        }
        Some(due)
    }

    /// Deliver due timers: remove matching waiters, wake matching parks.
    /// Stale entries (epoch moved on, or the task is no longer parked) are
    /// dropped. Returns the ranks made runnable.
    fn fire_timers(&self, due: &[TimerEntry]) -> Vec<usize> {
        let mut runnable = Vec::new();
        for e in due {
            if e.kind == TimerKind::RecvDeadline {
                // Deregister the readiness entry first so a late sender
                // cannot double-wake the task after its timeout fired.
                let mut inbox = self.inbox(e.rank);
                if inbox.waiter.as_ref().is_some_and(|w| w.epoch == e.epoch) {
                    inbox.waiter = None;
                    self.audit_record(
                        self.sched_actor(),
                        AuditKind::WaiterTaken {
                            rank: e.rank,
                            epoch: e.epoch,
                            by: WakeSource::Timer,
                        },
                    );
                }
            }
            let mut slot = self.slot(e.rank);
            if slot.state == TaskState::Parked && slot.epoch == e.epoch {
                slot.wake = Some(match e.kind {
                    TimerKind::RecvDeadline => Wake::TimedOut,
                    TimerKind::Sleep => Wake::SleepElapsed,
                });
                slot.state = TaskState::Queued;
                self.audit_record(
                    self.sched_actor(),
                    AuditKind::Enqueued { rank: e.rank, epoch: e.epoch, by: WakeSource::Timer },
                );
                runnable.push(e.rank);
            } else {
                self.audit_record(
                    self.sched_actor(),
                    AuditKind::StaleDrop {
                        rank: e.rank,
                        wake_epoch: e.epoch,
                        slot_epoch: slot.epoch,
                    },
                );
            }
        }
        runnable
    }

    /// Drop every call still stored in a slot once the pool has drained: a
    /// stored call holds the world, so one left behind by a task that never
    /// finished would keep the world alive.
    fn release_calls(&self) {
        for rank in 0..self.size() {
            self.slot(rank).call = None;
        }
    }

    /// Quiescent with no pending deadline: no schedule can make progress.
    /// Wake every parked task with the deadlock verdict (its blocked receive
    /// returns [`crate::CommError::Deadlock`]; a message that raced in still
    /// beats the verdict at re-execution).
    fn deadlock_sweep(&self) -> Vec<usize> {
        let mut runnable = Vec::new();
        for rank in 0..self.size() {
            let waiter = self.inbox(rank).waiter.take();
            let Some(w) = waiter else { continue };
            self.audit_record(
                self.sched_actor(),
                AuditKind::WaiterTaken { rank, epoch: w.epoch, by: WakeSource::Sweep },
            );
            let mut slot = self.slot(rank);
            if slot.state == TaskState::Parked && slot.epoch == w.epoch {
                slot.wake = Some(Wake::Deadlocked);
                slot.state = TaskState::Queued;
                self.audit_record(
                    self.sched_actor(),
                    AuditKind::Enqueued { rank, epoch: w.epoch, by: WakeSource::Sweep },
                );
                runnable.push(rank);
            } else {
                panic!("rank {rank}: dangling waiter (slot {:?} epoch {})", slot.state, slot.epoch);
            }
        }
        runnable
    }
}

/// Sets the abort flag if the worker unwinds on a runtime bug, so sibling
/// workers return (and the panic propagates) instead of waiting forever.
struct AbortOnPanic<'w>(&'w EventWorld);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

type Outcome<T> = Result<T, Box<dyn Any + Send>>;

/// Park `rank`'s task (arming the park's deadline, if any), or re-queue it if
/// a waker flagged it while it was still running (`RunningWake`).
fn commit_park(
    world: &EventWorld,
    rank: usize,
    mut slot: MutexGuard<'_, TaskSlot>,
    epoch: u64,
    park: Park,
) {
    match slot.state {
        TaskState::Running => {
            slot.state = TaskState::Parked;
            match park {
                Park::Recv { deadline: Some(d) } | Park::Arrival { deadline: Some(d) } => {
                    world.add_timer(d, rank, epoch, TimerKind::RecvDeadline)
                }
                Park::Sleep { until } => world.add_timer(until, rank, epoch, TimerKind::Sleep),
                Park::Recv { deadline: None } | Park::Arrival { deadline: None } => {}
            }
            drop(slot);
            world.audit_record(rank, AuditKind::ParkCommitted { rank, epoch });
        }
        // A sender deposited our message while we were unwinding or
        // polling: skip the park, go straight back to the ready set.
        TaskState::RunningWake => {
            slot.state = TaskState::Queued;
            drop(slot);
            world.audit_record(
                rank,
                AuditKind::Enqueued { rank, epoch, by: WakeSource::ParkCommit },
            );
            world.enqueue(&[rank]);
        }
        other => panic!("park-commit for rank {rank} in state {other:?}"),
    }
}

/// Retire `rank`'s task, its outcome recorded.
fn retire(world: &EventWorld, rank: usize, mut slot: MutexGuard<'_, TaskSlot>) {
    slot.state = TaskState::Done;
    slot.log = None;
    drop(slot);
    world.audit_record(rank, AuditKind::TaskDone { rank });
    world.task_done();
}

/// Poll the call `rank` is parked in, if any, and run no closure: a pending
/// poll parks the task again, a panic is its outcome (the pick is over,
/// `true`), and a finished poll leaves the output for `execute`'s closure.
/// Kept out of `execute`, whose frame every closure unwind lands in.
#[inline(never)]
fn resume<T>(world: &EventWorld, rank: usize, results: &[Mutex<Option<Outcome<T>>>]) -> bool {
    let mut slot = world.slot(rank);
    let Some(CallState::Stored(mut stored)) = slot.call.take() else { return false };
    assert_eq!(slot.state, TaskState::Queued, "resuming rank {rank}");
    slot.state = TaskState::Running;
    slot.epoch += 1;
    let (wake, epoch) = (slot.wake.take(), slot.epoch);
    slot.counters.wakes += u64::from(wake.is_some());
    drop(slot);
    let timed = matches!(wake, Some(Wake::TimedOut | Wake::SleepElapsed));
    assert!(!timed, "rank {rank}: a stored call parked with a deadline");
    world.audit_record(rank, AuditKind::ExecStart { rank, epoch });
    let polled = stored.poll(world, rank, wake, epoch);
    let mut slot = world.slot(rank);
    match polled {
        // No waiter is armed: nothing wakes the task before `execute` runs it.
        Ok(Poll::Ready(out)) => {
            slot.call = Some(CallState::Finished(out));
            slot.state = TaskState::Queued;
            return false;
        }
        Ok(Poll::Pending) => {
            slot.counters.resumes += 1;
            slot.counters.parks.recv += 1;
            slot.call = Some(CallState::Stored(stored));
            commit_park(world, rank, slot, epoch, Park::Recv { deadline: None });
        }
        Err(payload) => {
            *results[rank].lock().unwrap_or_else(|p| p.into_inner()) = Some(Err(payload));
            retire(world, rank, slot);
        }
    }
    true
}

/// Execute one scheduled task until it completes, panics, or parks.
fn execute<T, F>(
    world: &Arc<EventWorld>,
    rank: usize,
    f: &F,
    results: &[Mutex<Option<Outcome<T>>>],
) where
    T: Send,
    F: Fn(&EventComm<'_>) -> T + Sync,
{
    let (ctx, epoch) = {
        let mut slot = world.slot(rank);
        if slot.state != TaskState::Queued {
            panic!("executing rank {rank} in state {:?}", slot.state);
        }
        slot.state = TaskState::Running;
        slot.epoch += 1;
        let log = slot.log.take().unwrap_or_default();
        let call = slot.call.take();
        let wake = slot.wake.take();
        slot.counters.wakes += u64::from(wake.is_some());
        (ExecCtx::new(log, call, wake, slot.epoch), slot.epoch)
    };
    world.audit_record(rank, AuditKind::ExecStart { rank, epoch });
    let comm = EventComm::attach(world, rank, ctx);
    let out = catch_unwind(AssertUnwindSafe(|| f(&comm)));
    let mut ctx = comm.detach();
    // Deliver any sends still buffered — on every exit path: trailing sends
    // of a completed task, sends before a park (usually already flushed),
    // and sends a panicking task completed before dying (they returned Ok,
    // so they must be delivered; peers then unblock or prove a deadlock).
    EventComm::flush_outbox(world, rank, &mut ctx);
    match out {
        Ok(v) => {
            if ctx.replaying() {
                panic!(
                    "rank {rank}: closure returned while {} logged ops were still \
                     unreplayed (nondeterministic closure?)",
                    ctx.unreplayed()
                );
            }
            *results[rank].lock().unwrap_or_else(|p| p.into_inner()) = Some(Ok(v));
            let mut slot = world.slot(rank);
            slot.counters.note_execution(&ctx, None);
            retire(world, rank, slot);
        }
        Err(payload) if payload.is::<TaskYield>() => {
            let park = match ctx.take_park() {
                Some(p) => p,
                None => panic!("rank {rank}: yielded without a park request"),
            };
            let mut slot = world.slot(rank);
            slot.counters.note_execution(&ctx, Some(&park));
            let (log, call) = ctx.into_parts();
            slot.log = Some(log);
            slot.call = call;
            commit_park(world, rank, slot, epoch, park);
        }
        Err(payload) => {
            *results[rank].lock().unwrap_or_else(|p| p.into_inner()) = Some(Err(payload));
            let mut slot = world.slot(rank);
            slot.counters.note_execution(&ctx, None);
            retire(world, rank, slot);
        }
    }
}

fn worker_loop<T, F>(world: &Arc<EventWorld>, f: &F, results: &[Mutex<Option<Outcome<T>>>])
where
    T: Send,
    F: Fn(&EventComm<'_>) -> T + Sync,
{
    let _abort_guard = AbortOnPanic(world.as_ref());
    loop {
        let rank = {
            let mut s = world.lock_sched();
            loop {
                if s.aborted {
                    return;
                }
                let Sched { ready, policy, .. } = &mut *s;
                // Scheduled mode: the policy chooses among every runnable
                // rank and records the scheduling point; otherwise the sweep.
                let next = match policy {
                    Some(pol) => (!ready.ranks.is_empty()).then(|| pol.pick(&mut ready.ranks)),
                    None => ready.take(),
                };
                if let Some(r) = next {
                    s.executions += 1;
                    break r;
                }
                if s.live == 0 {
                    world.work.notify_all();
                    return;
                }
                s.idle += 1;
                if s.idle == world.workers {
                    // Global quiescence: this worker performs the progress
                    // step. Uncount ourselves first so a sibling's spurious
                    // condvar wake cannot see idle == workers and start a
                    // concurrent (and then falsely-stuck) progress attempt.
                    s.idle -= 1;
                    match world.pop_due_timers(&mut s) {
                        Some(due) => {
                            drop(s);
                            let runnable = world.fire_timers(&due);
                            s = world.lock_sched();
                            if !runnable.is_empty() {
                                s.ready.ranks.extend(runnable.iter().copied());
                                world.work.notify_all();
                            }
                        }
                        None => {
                            drop(s);
                            let runnable = world.deadlock_sweep();
                            s = world.lock_sched();
                            if runnable.is_empty() {
                                if s.live > 0 && s.ready.ranks.is_empty() {
                                    let msg = format!(
                                        "event runtime stuck: {} live tasks but nothing \
                                         runnable, no timers, no waiters",
                                        s.live
                                    );
                                    // Scheduled mode reports the no-progress
                                    // verdict as a value (the lost-wakeup
                                    // symptom the explorer hunts); normal
                                    // runs keep the loud invariant panic.
                                    match &mut s.policy {
                                        Some(pol) => {
                                            pol.verdict = Some(msg);
                                            s.aborted = true;
                                            return;
                                        }
                                        None => panic!("{msg}"),
                                    }
                                }
                            } else {
                                s.ready.ranks.extend(runnable.iter().copied());
                                world.work.notify_all();
                            }
                        }
                    }
                    continue;
                }
                s = world.work.wait(s).unwrap_or_else(|p| p.into_inner());
                s.idle -= 1;
            }
        };
        if !resume(world, rank, results) {
            execute(world, rank, f, results);
        }
    }
}

/// Summary of one [`EventComm::run_report`] run: scheduler and transport
/// telemetry for throughput benchmarks (`bruck-bench`) and leak checks.
#[derive(Debug, Clone)]
pub struct EventReport {
    /// Total messages deposited across the run.
    pub messages: usize,
    /// Picks of a task: `p` first runs plus one per wake, whether it
    /// re-executed the closure or only resumed a stored call (`resumes`).
    /// `executions / p` is the replay amplification factor.
    pub executions: u64,
    /// Direction reversals of the ready set's sweep: how many passes over
    /// the ranks the world took, less one.
    pub sweeps: u64,
    /// Worker threads the pool ran on.
    pub workers: usize,
    /// Messages still undelivered at the end (0 for well-formed programs).
    pub pending_messages: usize,
    /// Drained-but-unremoved match keys at the end: 0 by construction (a
    /// match key is one message); leak checks add it to `pending_messages`.
    pub dead_match_keys: usize,
    /// Picks that ended in a park (an unwind or a pending resume), by the
    /// operation parked in (`parks.total() == executions - p` at the end).
    pub parks: ParkCounts,
    /// Picks started by a wake verdict (message, timer or deadlock sweep).
    pub wakes: u64,
    /// Logged ops retraced by re-executions before they went live — the
    /// work replay spends on resumption (a finished call is one op; a
    /// stored call's own progress is never retraced).
    pub replayed_ops: u64,
    /// Picks that polled a stored call, found it pending and parked again
    /// without running the closure (`parks.total() − resumes` unwinds).
    pub resumes: u64,
}

/// Worker-pool size for [`EventComm::run`]: tasks never block an OS thread,
/// so a small multiple of the core count saturates the machine.
fn default_workers() -> usize {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    (cores * 2).clamp(1, 64)
}

fn run_inner<T, F>(p: usize, workers: usize, f: &F) -> (Vec<Outcome<T>>, EventReport)
where
    T: Send,
    F: Fn(&EventComm<'_>) -> T + Sync,
{
    assert!(p > 0, "world size must be at least 1");
    let workers = workers.max(1);
    let world = Arc::new(EventWorld::new(p, workers));
    let results: Vec<Mutex<Option<Outcome<T>>>> = (0..p).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let world = &world;
            let results = &results;
            std::thread::Builder::new()
                .name(format!("bruck-worker-{w}"))
                .spawn_scoped(scope, move || worker_loop(world, f, results))
                .unwrap_or_else(|e| panic!("failed to spawn worker {w}: {e}"));
        }
    });
    world.release_calls();
    let report = {
        let mut total = SchedCounters::default();
        for rank in 0..p {
            total.merge(world.slot(rank).counters);
        }
        let s = world.lock_sched();
        EventReport {
            messages: world.stats.deposited(),
            executions: s.executions,
            sweeps: s.ready.sweeps,
            workers,
            pending_messages: world.stats.pending(),
            dead_match_keys: world.stats.dead_keys(),
            parks: total.parks,
            wakes: total.wakes,
            replayed_ops: total.replayed_ops,
            resumes: total.resumes,
        }
    };
    let outcomes = results
        .into_iter()
        .enumerate()
        .map(|(rank, cell)| {
            cell.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .take()
                .unwrap_or_else(|| panic!("rank {rank} never completed"))
        })
        .collect();
    (outcomes, report)
}

fn propagate<T>(outcomes: Vec<Outcome<T>>) -> Vec<T> {
    let mut results = Vec::with_capacity(outcomes.len());
    for (rank, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(v) => results.push(v),
            Err(payload) => {
                panic!("rank {rank} panicked: {}", describe_panic(payload.as_ref()))
            }
        }
    }
    results
}

impl EventComm<'_> {
    /// Run an SPMD region on the event-driven runtime: `p` lightweight rank
    /// tasks multiplexed over a default-sized worker pool (2 × cores; always
    /// ≤ 2 × CPU count OS threads). Mirrors [`crate::ThreadComm::run`] —
    /// same closure shape, same rank-ordered results — but scales to
    /// P = 32,768 and beyond.
    ///
    /// The closure must be deterministic and free of external side effects:
    /// it may be executed several times per rank, with the completed prefix
    /// replayed from a log (see the module docs of `event.rs`).
    ///
    /// # Panics
    /// Propagates a rank's panic after the whole pool drains, with the
    /// failing rank's id prefixed (`rank <i> panicked: …`).
    pub fn run<T, F>(p: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&EventComm<'_>) -> T + Sync,
    {
        Self::run_pooled(p, default_workers(), f)
    }

    /// [`EventComm::run`] with an explicit worker-pool size (≥ 1).
    pub fn run_pooled<T, F>(p: usize, workers: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&EventComm<'_>) -> T + Sync,
    {
        propagate(run_inner(p, workers, &f).0)
    }

    /// [`EventComm::run_pooled`] that also returns scheduler/transport
    /// telemetry ([`EventReport`]) — the `bruck-bench` entry point.
    pub fn run_report<T, F>(p: usize, workers: usize, f: F) -> (Vec<T>, EventReport)
    where
        T: Send,
        F: Fn(&EventComm<'_>) -> T + Sync,
    {
        let (outcomes, report) = run_inner(p, workers, &f);
        (propagate(outcomes), report)
    }

    /// Run an SPMD region under the *scheduled* (verification) mode: a
    /// single worker whose every pick among the runnable ranks is made by a
    /// deterministic policy — replayed from `cfg.replay` (lowest-runnable
    /// fallback, same contract as [`crate::SimComm`]) or drawn from
    /// `cfg.seed` — and recorded as a [`ScheduleTrace`] plus per-step
    /// enabled sets.
    ///
    /// Unlike [`EventComm::run`], nothing panics out of this entry point:
    /// per-rank panics are captured as strings, ranks that never completed
    /// come back as `None`, and a no-progress world (the lost-wakeup
    /// symptom) is reported in [`EventRun::stuck`]. This is the substrate
    /// `bruck-verify`'s wakeup-protocol auditor explores.
    pub fn run_scheduled<T, F>(p: usize, cfg: &SimConfig, opts: EventVerifyOpts, f: F) -> EventRun<T>
    where
        T: Send,
        F: Fn(&EventComm<'_>) -> T + Sync,
    {
        assert!(p > 0, "world size must be at least 1");
        let policy = PickPolicy {
            replay: cfg.replay.clone().map(VecDeque::from),
            rng: splitmix(cfg.seed ^ 0x5eed_5c4e_d01e_d001),
            choices: Vec::new(),
            steps: Vec::new(),
            verdict: None,
        };
        let world = Arc::new(EventWorld::new_opts(p, 1, Some(policy), opts.lost_wakeup_bug));
        let results: Vec<Mutex<Option<Outcome<T>>>> = (0..p).map(|_| Mutex::new(None)).collect();
        let f = &f;
        let join_err = std::thread::scope(|scope| {
            let world = &world;
            let results = &results;
            let h = std::thread::Builder::new()
                .name("bruck-verify-worker".into())
                .spawn_scoped(scope, move || worker_loop(world, f, results))
                .unwrap_or_else(|e| panic!("failed to spawn scheduled worker: {e}"));
            h.join().err()
        });
        world.release_calls();
        let pol = {
            let mut s = world.lock_sched();
            match s.policy.take() {
                Some(p) => p,
                None => panic!("scheduled run lost its pick policy"),
            }
        };
        let stuck = match join_err {
            Some(payload) => {
                Some(format!("worker panicked: {}", describe_panic(payload.as_ref())))
            }
            None => pol.verdict,
        };
        let outcomes = results
            .into_iter()
            .map(|cell| {
                cell.into_inner().unwrap_or_else(|p| p.into_inner()).take().map(|o| match o {
                    Ok(v) => Ok(v),
                    Err(payload) => Err(describe_panic(payload.as_ref())),
                })
            })
            .collect();
        let audit = world
            .audit
            .as_ref()
            .map(|m| std::mem::take(&mut m.lock().unwrap_or_else(|p| p.into_inner()).events))
            .unwrap_or_default();
        EventRun {
            outcomes,
            trace: ScheduleTrace {
                p,
                seed: cfg.seed,
                meta: cfg.meta.clone(),
                choices: pol.choices,
            },
            steps: pol.steps,
            stuck,
            audit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CommError, Communicator, MsgBuf, ReduceOp};
    use std::time::Duration;

    /// Repetitions of the multi-worker no-hang loops.
    const WAKE_REPS: usize = 200;

    fn ready(ranks: impl IntoIterator<Item = usize>) -> ReadySet {
        ReadySet { ranks: ranks.into_iter().collect(), ..ReadySet::default() }
    }

    #[test]
    fn clock_ordering_basics() {
        let mut a = VectorClock::new(3);
        a.tick(0);
        let mut b = a.clone();
        b.tick(1);
        assert!(a.le(&b));
        assert!(!b.le(&a));
        let mut c = VectorClock::new(3);
        c.tick(2);
        assert!(!a.le(&c) && !c.le(&a), "independent events are concurrent");
        b.join(&c);
        assert!(c.le(&b));
        assert_eq!((b.get(0), b.get(1), b.get(2)), (1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "comparing vector clocks of different widths")]
    fn clocks_of_different_widths_do_not_meet() {
        // A `p`-wide schedule clock and a `p + 1`-wide audit clock: zipping
        // them would drop the last component without a word.
        let (p_wide, audit_wide) = (VectorClock::new(2), VectorClock::new(3));
        let join = catch_unwind(AssertUnwindSafe(|| p_wide.clone().join(&audit_wide)));
        assert!(join.is_err(), "join accepted clocks of different widths");
        let _ = p_wide.le(&audit_wide);
    }

    #[test]
    fn ready_set_serves_in_rank_order_and_reverses_only_when_nothing_is_ahead() {
        let mut r = ready(0..5);
        assert_eq!(std::iter::from_fn(|| r.take()).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
        // Draining is not a reversal, and neither is asking an empty set.
        assert_eq!((r.take(), r.sweeps), (None, 0));
        // Everything is behind the position now: one reversal, then downwards.
        r.ranks.extend([1, 3]);
        assert_eq!((r.take(), r.sweeps), (Some(3), 1));
        // Ahead of a descending sweep is below it: 0 rides this pass, 4 the next.
        r.ranks.extend([0, 4]);
        assert_eq!((r.take(), r.take(), r.sweeps), (Some(1), Some(0), 1));
        assert_eq!((r.take(), r.sweeps), (Some(4), 2));
    }

    #[test]
    fn a_rank_readied_ahead_rides_this_sweep_and_one_behind_the_way_back() {
        let mut r = ready([2, 9]);
        assert_eq!(r.take(), Some(2));
        r.ranks.extend([0, 5]);
        assert_eq!((r.take(), r.take(), r.sweeps), (Some(5), Some(9), 0));
        assert_eq!((r.take(), r.sweeps), (Some(0), 1));
    }

    #[test]
    fn the_rank_just_served_is_behind_the_position_and_cannot_spin() {
        // The `RunningWake` requeue: a rank re-inserted the moment it was
        // served does not pre-empt what is ahead…
        let mut r = ready([2, 4]);
        assert_eq!(r.take(), Some(2));
        r.ranks.insert(2);
        assert_eq!((r.take(), r.sweeps), (Some(4), 0));
        // …and alone in the set it is still served, one reversal a time.
        for sweeps in 1..=4 {
            assert_eq!((r.take(), r.sweeps), (Some(2), sweeps));
            r.ranks.insert(2);
        }
    }

    #[test]
    fn no_ready_rank_waits_through_more_than_one_reversal() {
        // The fairness arrival order gave for free, and the reason the design
        // is a sweep and not strict rank priority (under which a low rank
        // that keeps re-readying itself starves the high ones).
        const P: u64 = 48;
        let mut r = ready([]);
        let mut readied_at = [None; P as usize];
        let mut rng = 0x5eed;
        for _ in 0..10_000 {
            rng = splitmix(rng);
            let rank = (rng % P) as usize;
            if rng >> 32 & 1 == 0 {
                if r.ranks.insert(rank) {
                    readied_at[rank] = Some(r.sweeps);
                }
            } else if let Some(served) = r.take() {
                let since = readied_at[served].take().expect("served a rank nobody readied");
                assert!(r.sweeps - since <= 1, "rank {served} waited {} reversals", r.sweeps - since);
            }
        }
    }

    #[test]
    fn ring_pass_all_sizes_and_pools() {
        for p in [1usize, 2, 3, 5, 8, 13] {
            for workers in [1usize, 2, 4] {
                // Repeated on the multi-worker pools: a wake that `enqueue`
                // skipped wrongly would leave a worker asleep and hang here.
                for _ in 0..if workers > 1 { WAKE_REPS } else { 1 } {
                    let results = EventComm::run_pooled(p, workers, |comm| {
                        let me = comm.rank();
                        let right = (me + 1) % comm.size();
                        let left = (me + comm.size() - 1) % comm.size();
                        comm.send(right, 5, &[me as u8]).unwrap();
                        comm.recv(left, 5).unwrap()[0] as usize
                    });
                    for (me, got) in results.iter().enumerate() {
                        assert_eq!(*got, (me + p - 1) % p, "p={p} workers={workers}");
                    }
                }
            }
        }
    }

    #[test]
    fn self_send_is_visible_through_the_outbox_flush() {
        let r = EventComm::run(3, |comm| {
            comm.send(comm.rank(), 9, &[comm.rank() as u8 + 10]).unwrap();
            comm.recv(comm.rank(), 9).unwrap()[0]
        });
        assert_eq!(r, vec![10, 11, 12]);
    }

    #[test]
    fn more_ranks_than_workers_multiplexes() {
        // 64 ranks on 2 and 4 workers: the whole point of the runtime.
        for workers in [2, 4] {
            for _ in 0..WAKE_REPS {
                let sums = EventComm::run_pooled(64, workers, |comm| {
                    comm.allreduce_u64(comm.rank() as u64, ReduceOp::Sum).unwrap()
                });
                assert!(sums.iter().all(|&s| s == 64 * 63 / 2));
            }
        }
    }

    #[test]
    fn collectives_match_threaded_semantics() {
        for p in [1usize, 2, 3, 5, 9, 16] {
            let out = EventComm::run(p, |comm| {
                comm.barrier().unwrap();
                let sum = comm.allreduce_u64(comm.rank() as u64, ReduceOp::Sum).unwrap();
                let counts: Vec<usize> = (0..p).map(|d| comm.rank() * 1000 + d).collect();
                let t = comm.alltoall_counts(&counts).unwrap();
                (sum, t)
            });
            let expect_sum = (p as u64 * (p as u64 - 1)) / 2;
            for (me, (sum, t)) in out.iter().enumerate() {
                assert_eq!(*sum, expect_sum);
                for (src, &c) in t.iter().enumerate() {
                    assert_eq!(c, src * 1000 + me);
                }
            }
        }
    }

    #[test]
    fn scheduled_runs_are_deterministic_and_replayable() {
        let ring = |comm: &EventComm<'_>| {
            let me = comm.rank();
            let right = (me + 1) % comm.size();
            let left = (me + comm.size() - 1) % comm.size();
            comm.send(right, 5, &[me as u8]).unwrap();
            comm.recv(left, 5).unwrap()[0] as usize
        };
        let cfg = SimConfig::from_seed(42);
        let a = EventComm::run_scheduled(3, &cfg, EventVerifyOpts::default(), ring);
        assert!(a.stuck.is_none(), "stuck: {:?}", a.stuck);
        for (me, out) in a.outcomes.iter().enumerate() {
            assert_eq!(*out, Some(Ok((me + 2) % 3)));
        }
        assert_eq!(a.steps.len(), a.trace.choices.len());
        for (step, &choice) in a.steps.iter().zip(&a.trace.choices) {
            assert_eq!(step.chosen, choice);
            assert!(step.enabled.contains(&choice));
        }
        // Same seed reproduces the schedule; replaying the trace does too.
        let b = EventComm::run_scheduled(3, &cfg, EventVerifyOpts::default(), ring);
        assert_eq!(b.trace.choices, a.trace.choices);
        let c = EventComm::run_scheduled(
            3,
            &SimConfig::replay_trace(&a.trace),
            EventVerifyOpts::default(),
            ring,
        );
        assert_eq!(c.trace.choices, a.trace.choices);
        assert_eq!(c.steps, a.steps);
    }

    #[test]
    fn scheduled_replay_forces_the_chosen_interleaving() {
        // Force rank 1 to run (and park) before rank 0 ever executes.
        let cfg = SimConfig { replay: Some(vec![1, 0]), ..SimConfig::from_seed(0) };
        let run = EventComm::run_scheduled(2, &cfg, EventVerifyOpts::default(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, &[7]).unwrap();
                0
            } else {
                comm.recv(0, 3).unwrap()[0]
            }
        });
        assert!(run.stuck.is_none());
        assert_eq!(run.outcomes[1], Some(Ok(7)));
        assert_eq!(&run.trace.choices[..2], &[1, 0]);
    }

    #[test]
    fn audit_log_records_the_wake_protocol() {
        let cfg = SimConfig { replay: Some(vec![1, 0]), ..SimConfig::from_seed(0) };
        let run = EventComm::run_scheduled(2, &cfg, EventVerifyOpts::default(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, &[7]).unwrap();
            } else {
                comm.recv(0, 3).unwrap();
            }
        });
        assert!(run.stuck.is_none());
        // Rank 1 parked first, so the protocol must show: waiter armed by 1,
        // deposit + waiter taken + enqueue by 0, then rank 1 finishing.
        let kinds: Vec<&AuditKind> = run.audit.iter().map(|e| &e.kind).collect();
        assert!(kinds
            .iter()
            .any(|k| matches!(k, AuditKind::WaiterArmed { rank: 1, src: 0, tag: 3, .. })));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, AuditKind::Deposit { src: 0, dest: 1, tag: 3 })));
        assert!(kinds.iter().any(|k| matches!(
            k,
            AuditKind::WaiterTaken { rank: 1, by: WakeSource::Sender(0), .. }
        )));
        assert!(kinds.iter().any(|k| matches!(
            k,
            AuditKind::Enqueued { rank: 1, by: WakeSource::Sender(0), .. }
        )));
        assert!(kinds.iter().any(|k| matches!(k, AuditKind::TaskDone { rank: 1 })));
        // The woken rank's next ExecStart joins the waker's clock: its clock
        // must dominate the enqueue event's clock (happens-before visible).
        let enqueued = run
            .audit
            .iter()
            .find(|e| matches!(e.kind, AuditKind::Enqueued { rank: 1, .. }))
            .expect("enqueue recorded");
        let wake_exec = run
            .audit
            .iter()
            .filter(|e| matches!(e.kind, AuditKind::ExecStart { rank: 1, .. }))
            .next_back()
            .expect("rank 1 re-executed");
        assert!(enqueued.clock.le(&wake_exec.clock), "wake exec clock must dominate the enqueue's");
    }

    #[test]
    fn a_resume_records_the_lifecycle_of_an_execution() {
        use crate::{CallOutput, Port};
        // Rank 0 parks in its call on tag 7 (the closure unwinds), is resumed
        // and parks again on tag 8, then is resumed to the end and runs its
        // closure once more to collect the output.
        let cfg = SimConfig::replay_trace(&ScheduleTrace {
            p: 2,
            seed: 0,
            meta: String::new(),
            choices: vec![0, 1, 0, 1, 0],
        });
        let run = EventComm::run_scheduled(2, &cfg, EventVerifyOpts::default(), |comm| {
            if comm.rank() == 1 {
                comm.send(0, 7, &[7]).unwrap();
                comm.recv(0, 9).unwrap();
                comm.send(0, 8, &[8]).unwrap();
                return Vec::new();
            }
            let hook = comm.resumable().expect("a bare EventComm offers its hook");
            let out = hook.call(|port| {
                Box::pin(async move {
                    let a = port.recv_match(1, 7, usize::MAX).await?;
                    port.send_buf(1, 9, MsgBuf::from_vec(Vec::new()))?;
                    let b = port.recv_match(1, 8, usize::MAX).await?;
                    Ok(CallOutput { bytes: [a.to_vec(), b.to_vec()].concat(), counts: Vec::new() })
                })
            });
            out.unwrap().bytes
        });
        assert!(run.stuck.is_none(), "stuck: {:?}", run.stuck);
        assert_eq!(run.outcomes[0], Some(Ok(vec![7, 8])));
        let lifecycle: Vec<String> = run
            .audit
            .iter()
            .filter_map(|e| match e.kind {
                AuditKind::ExecStart { rank: 0, .. } => Some("start".to_string()),
                AuditKind::WaiterArmed { rank: 0, tag, .. } => Some(format!("armed {tag}")),
                AuditKind::ParkCommitted { rank: 0, .. } => Some("parked".to_string()),
                AuditKind::Enqueued { rank: 0, by: WakeSource::ParkCommit, .. } => {
                    Some("requeued".to_string())
                }
                AuditKind::TaskDone { rank: 0 } => Some("done".to_string()),
                _ => None,
            })
            .collect();
        // The unwinding execution, the resume that parks again, the resume
        // that finishes the call, and the closure's run to its end.
        let want = [
            "start", "armed 7", "parked", "start", "armed 8", "parked", "start", "start", "done",
        ];
        assert_eq!(lifecycle, want);
    }

    #[test]
    fn seeded_lost_wakeup_goes_stuck_under_a_parking_schedule() {
        // Receiver parks first, then the sender's flush loses the enqueue.
        let ping = |picks: Vec<u32>| {
            let cfg = SimConfig { replay: Some(picks), ..SimConfig::from_seed(0) };
            let opts = EventVerifyOpts::default().with_lost_wakeup_bug();
            EventComm::run_scheduled(2, &cfg, opts, |comm| {
                if comm.rank() == 0 {
                    comm.send(1, 3, &[7]).unwrap();
                    0
                } else {
                    comm.recv(0, 3).unwrap()[0]
                }
            })
        };
        let run = ping(vec![1, 0]);
        let stuck = run.stuck.expect("lost wakeup must leave the world stuck");
        assert!(stuck.contains("stuck"), "unexpected verdict: {stuck}");
        assert_eq!(run.outcomes[0], Some(Ok(0)), "sender still completes");
        assert_eq!(run.outcomes[1], None, "lost receiver never completes");
        // The sender-first schedule dodges the bug: the message is already
        // in the store when the receiver first executes, so nobody parks.
        let ok = ping(vec![0, 1]);
        assert!(ok.stuck.is_none(), "schedule-dependent bug fired unconditionally");
        assert_eq!(ok.outcomes[1], Some(Ok(7)));
    }

    #[test]
    fn truncated_recv_is_non_destructive() {
        EventComm::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, &(0u8..16).collect::<Vec<u8>>()).unwrap();
            } else {
                let mut small = [0u8; 4];
                let err = comm.recv_into(0, 0, &mut small).unwrap_err();
                assert_eq!(err, CommError::Truncated { message_len: 16, buffer_len: 4 });
                let mut big = [0u8; 16];
                assert_eq!(comm.recv_into(0, 0, &mut big).unwrap(), 16);
                assert_eq!(big.to_vec(), (0u8..16).collect::<Vec<u8>>());
            }
        });
    }

    #[test]
    fn virtual_timeout_fires_at_exactly_the_budget_instantly() {
        let budget = Duration::from_secs(3600); // an hour of virtual time
        let wall = std::time::Instant::now();
        let results = EventComm::run(2, |comm| {
            if comm.rank() == 0 {
                comm.recv_buf_timeout(1, 9, budget).map(|_| ())
            } else {
                comm.sleep(Duration::from_millis(5));
                Ok(())
            }
        });
        match &results[0] {
            Err(CommError::Timeout { src: 1, tag: 9, waited }) => assert_eq!(*waited, budget),
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(wall.elapsed() < budget, "virtual time must not consume wall-clock time");
    }

    #[test]
    fn sleep_advances_virtual_clock_exactly() {
        let results = EventComm::run(1, |comm| {
            let t0 = comm.now();
            comm.sleep(Duration::from_millis(250));
            comm.now() - t0
        });
        assert_eq!(results[0], Duration::from_millis(250));
    }

    #[test]
    fn deadlock_is_proved_not_hung() {
        let results = EventComm::run(2, |comm| {
            // Both ranks receive first: a textbook deadlock.
            let peer = 1 - comm.rank();
            comm.recv_buf(peer, 1)
        });
        for r in &results {
            assert!(
                matches!(r, Err(CommError::Deadlock { .. })),
                "expected proved deadlock, got {r:?}"
            );
        }
    }

    #[test]
    fn timed_wait_escapes_a_deadlock() {
        let results = EventComm::run(2, |comm| {
            let peer = 1 - comm.rank();
            if comm.rank() == 0 {
                let first = comm.recv_buf_timeout(peer, 1, Duration::from_millis(10));
                comm.send(peer, 1, b"go").unwrap();
                first.map(|_| ())
            } else {
                comm.recv_buf(peer, 1).map(|_| ())
            }
        });
        assert!(matches!(results[0], Err(CommError::Timeout { .. })));
        assert!(results[1].is_ok());
    }

    #[test]
    fn panic_on_one_rank_propagates_with_rank_id_not_a_hang() {
        let caught = std::panic::catch_unwind(|| {
            EventComm::run(2, |comm| {
                if comm.rank() == 0 {
                    panic!("injected bug on rank 0");
                }
                // Rank 1 blocks on a message that can never arrive; the
                // runtime proves the deadlock so the pool drains, then
                // rank 0's real panic is propagated.
                let _ = comm.recv_buf(0, 1);
            })
        });
        let payload = caught.expect_err("rank 0 panicked");
        let msg = describe_panic(payload.as_ref());
        assert!(msg.contains("rank 0 panicked"), "{msg}");
        assert!(msg.contains("injected bug"), "{msg}");
    }

    #[test]
    fn a_panic_inside_a_stored_call_propagates_and_frees_the_world() {
        use crate::{CallOutput, Port};
        use std::sync::Weak;
        // One worker runs rank 0 first: it parks inside the call and fails
        // on the scheduler's resume of it. Two may also deliver rank 1's
        // message while the call's first poll runs.
        for workers in [1, 2] {
            let world: Mutex<Option<Weak<EventWorld>>> = Mutex::new(None);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                EventComm::run_pooled(2, workers, |comm| {
                    *world.lock().unwrap() = Some(Arc::downgrade(comm.world));
                    if comm.rank() == 1 {
                        comm.send(0, 7, &[1]).unwrap();
                        return;
                    }
                    let hook = comm.resumable().expect("a bare EventComm offers its hook");
                    let _ = hook.call(|port| {
                        Box::pin(async move {
                            let got = port.recv_match(1, 7, usize::MAX).await;
                            assert!(got.is_err(), "injected bug inside a resumed call");
                            Ok(CallOutput::default())
                        })
                    });
                })
            }));
            let msg = describe_panic(caught.expect_err("rank 0 panicked").as_ref());
            assert!(msg.contains("rank 0 panicked"), "{workers} workers: {msg}");
            assert!(msg.contains("injected bug inside a resumed call"), "{workers} workers: {msg}");
            let world = world.into_inner().unwrap().expect("the closure ran");
            assert!(world.upgrade().is_none(), "{workers} workers: the world outlived its run");
        }
    }

    #[test]
    fn a_stored_call_resumes_without_replaying_and_is_logged_once() {
        use crate::{CallOutput, Port};
        // Rank 0 parks twice: inside its call, then on its own receive after
        // it. The second wake re-runs the closure past the finished call,
        // which returns its logged output as one op: rank 0 retraces the
        // call and its send, rank 1 its first send.
        let (out, report) = EventComm::run_report(2, 1, |comm| {
            if comm.rank() == 1 {
                comm.send(0, 7, &[1, 2]).unwrap();
                comm.recv(0, 9).unwrap();
                comm.send(0, 8, &[3]).unwrap();
                return Vec::new();
            }
            let hook = comm.resumable().expect("a bare EventComm offers its hook");
            let got = hook
                .call(|port| {
                    Box::pin(async move {
                        let msg = port.recv_match(1, 7, usize::MAX).await?;
                        Ok(CallOutput { bytes: msg.to_vec(), counts: vec![msg.len()] })
                    })
                })
                .unwrap();
            assert_eq!(got.counts, [2]);
            comm.send(1, 9, &[]).unwrap();
            let tail = comm.recv(1, 8).unwrap();
            [got.bytes, tail].concat()
        });
        assert_eq!(out[0], [1, 2, 3]);
        assert_eq!((report.executions, report.replayed_ops), (5, 3));
    }

    #[test]
    fn nonovertaking_same_tag_across_replays() {
        EventComm::run_pooled(2, 2, |comm| {
            if comm.rank() == 0 {
                for i in 0..100u8 {
                    comm.send(1, 3, &[i]).unwrap();
                }
            } else {
                for i in 0..100u8 {
                    assert_eq!(comm.recv(0, 3).unwrap(), vec![i]);
                }
            }
        });
    }

    #[test]
    fn report_counts_messages_and_replays_without_leaks() {
        let (_, report) = EventComm::run_report(8, 2, |comm| {
            comm.barrier().unwrap();
            comm.allreduce_u64(1, ReduceOp::Sum).unwrap()
        });
        assert!(report.messages > 0);
        assert!(report.executions >= 8, "each rank executes at least once");
        assert_eq!(report.workers, 2);
        assert_eq!(report.pending_messages, 0, "no leaked messages");
        assert_eq!(report.dead_match_keys, 0, "no stranded match keys");
    }

    #[test]
    fn zero_copy_on_first_delivery() {
        // The receiver's first (live) delivery aliases the sender's region —
        // the replay log keeps its own copy, but the algorithm-visible path
        // stays zero-copy.
        let ptrs = EventComm::run_pooled(2, 1, |comm| {
            if comm.rank() == 0 {
                let region = MsgBuf::from_vec((0u8..64).collect());
                let ptr = region.as_slice().as_ptr() as usize;
                comm.send_buf(1, 0, region.slice(16..48)).unwrap();
                // Keep rank 0 alive until rank 1 received, so the region's
                // refcount proves sharing (not required for correctness).
                (ptr, 0)
            } else {
                let got = comm.recv_buf(0, 0).unwrap();
                assert_eq!(got, (16u8..48).collect::<Vec<u8>>());
                (0, got.as_slice().as_ptr() as usize)
            }
        });
        assert_eq!(ptrs[0].0 + 16, ptrs[1].1);
    }

    #[test]
    fn probe_sees_deposited_messages() {
        let results = EventComm::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 4, &[1, 2, 3]).unwrap();
                // Force the outbox out: probe flushes on entry.
                comm.probe(0, 99).unwrap();
                comm.recv(1, 5).unwrap();
                0
            } else {
                // Wait for the message, then probe its length.
                let got = comm.recv_buf(0, 4).unwrap();
                comm.send(0, 5, &[]).unwrap();
                got.len()
            }
        });
        assert_eq!(results[1], 3);
    }

    #[test]
    fn wrapper_stack_composes_metered_over_event() {
        use crate::MeteredComm;
        let totals = EventComm::run_pooled(4, 2, |comm| {
            let metered = MeteredComm::new(comm);
            metered.barrier().unwrap();
            let sum = metered.allreduce_u64(metered.rank() as u64, ReduceOp::Sum).unwrap();
            assert_eq!(sum, 6);
            let m = metered.metrics();
            m.logical.sent_msgs + m.reserved.sent_msgs
        });
        assert!(totals.iter().all(|&t| t > 0), "every rank metered its sends: {totals:?}");
    }
}
