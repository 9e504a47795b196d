//! [`EventComm`]: the event-driven backend — thousands of lightweight rank
//! tasks multiplexed onto a small, fixed pool of worker OS threads.
//!
//! ## Why
//!
//! The paper's regime is P = 32,768 ranks. [`crate::ThreadComm`]'s
//! one-OS-thread-per-rank design tops out around P ≈ 512 (thread stacks and
//! scheduler pressure), and [`crate::SimComm`] still spawns one thread per
//! rank even though only one runs at a time. `EventComm` runs the *same
//! unmodified algorithms* with a bounded thread count: every blocking
//! [`crate::Communicator`] operation is a yield point instead of a condvar
//! park, so one worker thread can drive thousands of ranks.
//!
//! ## How a task blocks without owning a thread
//!
//! This workspace is `unsafe`-free and dependency-free, so a blocked task
//! cannot capture its OS stack (no fibers, no hand-rolled coroutines). A
//! rank's *exchanges* are resumable values; the rest of its closure is
//! replayed:
//!
//! 1. **Resumed calls.** The step loops of the exchanges and collectives are
//!    `async fn`s over [`crate::Port`]. On a bare `EventComm`
//!    [`Communicator::resumable`] hands the entry point a hook ([`Resume`]):
//!    the entry builds a `'static` future ([`Call`]) that owns copies of its
//!    inputs and its output buffer, and the hook polls it on an
//!    [`EventPort`]. A receive that finds nothing arms the rank's waiter —
//!    the one parking protocol below — and returns `Pending`; the hook keeps
//!    the future in the task's slot and unwinds the closure, once per call.
//!    Each wake, the scheduler polls the future where it stopped, and only a
//!    finished call re-runs the closure to the hook, which returns it as one
//!    replay-log entry, its output or its error.
//! 2. **Replay.** Every other operation of the closure appends to a compact
//!    per-task [`ReplayLog`]. When a receive finds no matching message, the
//!    task registers a *waiter* in its inbox and unwinds off the worker with
//!    [`TaskYield`] (by `resume_unwind`: no panic hook sees a park); the
//!    worker thread is immediately free to run another task. A sender that
//!    deposits a matching message takes the waiter and marks the task
//!    runnable. When a worker re-executes it, the closure runs from the top,
//!    but the logged prefix is *replayed*: sends are suppressed, receives
//!    return the logged payload bytes, clock reads return logged values, a
//!    finished call returns its logged output. Replay performs no
//!    communication and reaches the parked operation in O(completed ops)
//!    straight-line time, then execution goes live again.
//!
//! Both park the same way: a receive arms the waiter under the parking
//! execution's epoch (`arm_waiter`), and every send, the closure's own or a
//! stored call's, is deposited by one function (`deposit`) that takes a
//! matching waiter and wakes its rank.
//!
//! The contract this imposes: the rank closure must be **deterministic**
//! (replay must retrace it) and must not perform external side effects that
//! are unsafe to repeat. Every algorithm and wrapper in this workspace
//! qualifies — wrappers ([`crate::FaultComm`], [`crate::ReliableComm`],
//! [`crate::MeteredComm`], …) are constructed inside the closure, so each
//! re-execution rebuilds their state identically from the replayed prefix.
//! A wrapper offers no hook, so its state sees every op, and a loop run
//! through one is replayed like any other op sequence.
//! Payload identity is *not* preserved across replay: a replayed
//! `recv_buf` returns a fresh copy of the logged bytes, not the sender's
//! original region (byte equality is preserved; pointer aliasing is not).
//!
//! ## Virtual time
//!
//! Like the simulator, the runtime's clock is virtual: [`Communicator::now`]
//! reads it; [`Communicator::sleep`], timed receives and
//! [`Communicator::wait_arrival`] park the *task* with a deadline. The clock
//! advances only at global quiescence (every worker
//! idle, no task runnable), jumping to the earliest pending deadline — so
//! timeouts fire after exactly their budget of virtual time and zero
//! wall-clock time, and a world where every live task is parked with no
//! deadline is a *proved deadlock* ([`CommError::Deadlock`]), never a hang.
//!
//! The scheduler itself (worker pool, task states, wake lists, clock
//! advance) lives in [`crate::runtime`].

use std::future::Future;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use crate::mailbox::MatchStore;
use crate::runtime::{AuditKind, EventWorld, WakeSource};
use crate::{CommError, CommResult, Communicator, MsgBuf, Port, Tag, RESERVED_TAG_BASE};

/// Sentinel payload a task unwinds with when its current operation cannot
/// complete yet. Raised with `resume_unwind`, which runs no panic hook, and
/// caught by the worker, which parks the task instead of treating it as a
/// failure.
pub(crate) struct TaskYield;

/// Why a parked task was made runnable again. Delivered to the first live
/// (non-replayed) blocking operation of the next execution — which, by
/// determinism, is exactly the operation that parked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wake {
    /// A matching message was deposited for the parked receive.
    Message,
    /// The parked receive's deadline elapsed (virtual time).
    TimedOut,
    /// The parked sleep's wake-up instant was reached (virtual time).
    SleepElapsed,
    /// The runtime proved a global deadlock while this task was parked in a
    /// deadline-less receive.
    Deadlocked,
}

/// A parked wait registered in a rank's inbox: the readiness list entry a
/// depositing sender checks. At most one per rank (a task parks on exactly
/// one operation), tagged with the parking execution's epoch so stale wakes
/// are provably ignorable.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Waiter {
    /// The `(src, tag)` a parked receive matches on; `None` for a parked
    /// `wait_arrival`, which any deposit satisfies.
    pub(crate) key: Option<(usize, Tag)>,
    pub(crate) epoch: u64,
}

impl Waiter {
    fn matches(&self, src: usize, tag: Tag) -> bool {
        self.key.is_none_or(|k| k == (src, tag))
    }
}

/// One rank's inbox: the matching store plus its readiness registration.
pub(crate) struct Inbox {
    pub(crate) store: MatchStore,
    pub(crate) waiter: Option<Waiter>,
}

/// What an unwinding task asks the scheduler to do with it.
pub(crate) enum Park {
    /// Parked in a receive; `deadline` is set for timed receives.
    Recv {
        /// Virtual-time deadline for `recv_buf_timeout`.
        deadline: Option<Duration>,
    },
    /// Parked in a sleep until the given virtual instant.
    Sleep {
        /// Virtual instant at which the sleep elapses.
        until: Duration,
    },
    /// Parked in `wait_arrival` behind an any-source waiter.
    Arrival {
        /// Virtual-time deadline; `None` waits unbounded.
        deadline: Option<Duration>,
    },
}

// Replay-log operation kinds: one byte per completed operation. Keeping the
// kind stream separate from the per-kind side arrays keeps the log compact
// enough for O(P)-operation ranks at P = 32k (a send costs 1 byte, a recv
// 5 bytes + payload).
const K_SEND: u8 = 0;
const K_RECV: u8 = 1;
const K_ERR: u8 = 2;
const K_PROBE: u8 = 3;
const K_NOW: u8 = 4;
const K_SLEEP: u8 = 5;
const K_ARRIVAL: u8 = 6;
const K_CALL: u8 = 7;

fn kind_name(k: u8) -> &'static str {
    match k {
        K_SEND => "send",
        K_RECV => "recv",
        K_ERR => "error",
        K_PROBE => "probe",
        K_NOW => "now",
        K_SLEEP => "sleep",
        K_ARRIVAL => "wait_arrival",
        K_CALL => "call",
        _ => "unknown",
    }
}

/// The compact log of one task's completed communicator operations,
/// replayed on every re-execution. Column-oriented: `kinds` is the 1-byte
/// op stream; each kind consumes the next entry of its side array.
#[derive(Default)]
pub(crate) struct ReplayLog {
    kinds: Vec<u8>,
    /// Payload length per `K_RECV`, in order; payload bytes are appended
    /// contiguously to `arena`, so offsets are running sums.
    recv_lens: Vec<u32>,
    /// Received payload bytes, contiguous in receive order.
    arena: Vec<u8>,
    /// Error value per `K_ERR` (timeouts, truncations, deadlock verdicts).
    errs: Vec<CommError>,
    /// Result per `K_PROBE`.
    probes: Vec<Option<u32>>,
    /// Virtual-clock reading (nanoseconds) per `K_NOW`.
    nows: Vec<u64>,
    /// Arrival count returned per `K_ARRIVAL`.
    arrivals: Vec<u64>,
    /// Result per `K_CALL`: a finished resumed call's output or error.
    calls: Vec<CommResult<CallOutput>>,
}

/// Replay progress through a [`ReplayLog`]: one cursor per column.
#[derive(Default, Clone, Copy)]
struct Cursor {
    op: usize,
    recv: usize,
    arena: usize,
    err: usize,
    probe: usize,
    now: usize,
    arrival: usize,
    call: usize,
}

/// Per-execution state of one task, owned by the [`EventComm`] handle the
/// worker passes to the rank closure.
pub(crate) struct ExecCtx {
    log: ReplayLog,
    cur: Cursor,
    /// Sends buffered for batched delivery: flushed at every receive/probe
    /// entry (so self-sends and probe loops observe them), at a size
    /// threshold, and when the execution parks, completes, or panics.
    outbox: Vec<(usize, Tag, MsgBuf)>,
    /// The wake verdict this execution was started with, if it was parked.
    wake: Option<Wake>,
    /// Set just before unwinding with [`TaskYield`].
    park: Option<Park>,
    /// This execution's epoch (== the task slot's epoch while it runs).
    epoch: u64,
    /// Ops already in the log when this execution started (its replay debt).
    logged: usize,
    /// A finished call's output for the hook, or the call its first poll parked in.
    call: Option<CallState>,
}

/// Buffered sends per flush. Batching amortizes inbox locking and wake
/// notifications; the flush-on-receive rule keeps it semantically invisible.
const OUTBOX_BATCH: usize = 64;

impl ExecCtx {
    pub(crate) fn new(
        log: ReplayLog,
        call: Option<CallState>,
        wake: Option<Wake>,
        epoch: u64,
    ) -> ExecCtx {
        let logged = log.kinds.len();
        let cur = Cursor::default();
        ExecCtx { log, cur, outbox: Vec::new(), wake, park: None, epoch, logged, call }
    }

    /// Still retracing the previous executions' completed prefix?
    pub(crate) fn replaying(&self) -> bool {
        self.cur.op < self.log.kinds.len()
    }

    /// Logged ops this execution has not retraced yet (0 once it is live).
    pub(crate) fn unreplayed(&self) -> usize {
        self.log.kinds.len() - self.cur.op
    }

    /// Logged ops this execution retraced before going live (or ending).
    pub(crate) fn replayed(&self) -> usize {
        self.cur.op.min(self.logged)
    }

    pub(crate) fn take_park(&mut self) -> Option<Park> {
        self.park.take()
    }

    /// The log and the stored call, for the slot to keep across the park.
    pub(crate) fn into_parts(self) -> (ReplayLog, Option<CallState>) {
        (self.log, self.call)
    }

    /// A live op other than the hook while a finished call waits for it: the
    /// closure did not retrace its previous execution.
    fn check_live(&self, rank: usize, live: &str) {
        if self.call.is_some() {
            panic!(
                "EventComm rank {rank}: nondeterministic rank closure: it parked inside a \
                 resumed call but its re-execution issued a {live} before reaching it"
            );
        }
    }

    fn diverged(&self, rank: usize, live: &str) -> ! {
        panic!(
            "EventComm rank {rank}: nondeterministic rank closure: replay log has a \
             {} at op {} but the live code issued a {live}; EventComm requires the \
             closure to retrace identically on re-execution",
            kind_name(self.log.kinds[self.cur.op]),
            self.cur.op,
        )
    }

    // -- live-mode append helpers (cursor stays pinned at the end) --

    fn append_send(&mut self) {
        self.log.kinds.push(K_SEND);
        self.cur.op += 1;
    }

    fn append_recv(&mut self, payload: &[u8]) {
        self.log.kinds.push(K_RECV);
        self.log.recv_lens.push(payload.len() as u32);
        self.log.arena.extend_from_slice(payload);
        self.cur.op += 1;
        self.cur.recv += 1;
        self.cur.arena += payload.len();
    }

    fn append_err(&mut self, e: CommError) {
        self.log.kinds.push(K_ERR);
        self.log.errs.push(e);
        self.cur.op += 1;
        self.cur.err += 1;
    }

    fn append_probe(&mut self, len: Option<usize>) {
        self.log.kinds.push(K_PROBE);
        self.log.probes.push(len.map(|l| l as u32));
        self.cur.op += 1;
        self.cur.probe += 1;
    }

    fn append_now(&mut self, t: Duration) {
        self.log.kinds.push(K_NOW);
        self.log.nows.push(t.as_nanos() as u64);
        self.cur.op += 1;
        self.cur.now += 1;
    }

    fn append_sleep(&mut self) {
        self.log.kinds.push(K_SLEEP);
        self.cur.op += 1;
    }

    fn append_arrival(&mut self, count: u64) {
        self.log.kinds.push(K_ARRIVAL);
        self.log.arrivals.push(count);
        self.cur.op += 1;
        self.cur.arrival += 1;
    }

    fn append_call(&mut self, out: CommResult<CallOutput>) {
        self.log.kinds.push(K_CALL);
        self.log.calls.push(out);
        self.cur.op += 1;
        self.cur.call += 1;
    }

    // -- replay-mode consume helpers --

    fn replay_send(&mut self, rank: usize) -> CommResult<()> {
        match self.log.kinds[self.cur.op] {
            K_SEND => {
                self.cur.op += 1;
                Ok(())
            }
            _ => self.diverged(rank, "send"),
        }
    }

    fn replay_recv(&mut self, rank: usize) -> CommResult<MsgBuf> {
        match self.log.kinds[self.cur.op] {
            K_RECV => {
                self.cur.op += 1;
                let len = self.log.recv_lens[self.cur.recv] as usize;
                self.cur.recv += 1;
                let start = self.cur.arena;
                self.cur.arena += len;
                Ok(MsgBuf::copy_from_slice(&self.log.arena[start..start + len]))
            }
            K_ERR => self.replay_err(),
            _ => self.diverged(rank, "recv"),
        }
    }

    fn replay_probe(&mut self, rank: usize) -> CommResult<Option<usize>> {
        match self.log.kinds[self.cur.op] {
            K_PROBE => {
                self.cur.op += 1;
                let len = self.log.probes[self.cur.probe].map(|l| l as usize);
                self.cur.probe += 1;
                Ok(len)
            }
            _ => self.diverged(rank, "probe"),
        }
    }

    fn replay_now(&mut self, rank: usize) -> Duration {
        match self.log.kinds[self.cur.op] {
            K_NOW => {
                self.cur.op += 1;
                let t = Duration::from_nanos(self.log.nows[self.cur.now]);
                self.cur.now += 1;
                t
            }
            _ => self.diverged(rank, "now"),
        }
    }

    fn replay_sleep(&mut self, rank: usize) {
        match self.log.kinds[self.cur.op] {
            K_SLEEP => self.cur.op += 1,
            _ => self.diverged(rank, "sleep"),
        }
    }

    fn replay_arrival(&mut self, rank: usize) -> CommResult<u64> {
        match self.log.kinds[self.cur.op] {
            K_ARRIVAL => {
                self.cur.op += 1;
                let count = self.log.arrivals[self.cur.arrival];
                self.cur.arrival += 1;
                Ok(count)
            }
            K_ERR => self.replay_err(),
            _ => self.diverged(rank, "wait_arrival"),
        }
    }

    fn replay_call(&mut self, rank: usize) -> CommResult<CallOutput> {
        match self.log.kinds[self.cur.op] {
            K_CALL => {
                self.cur.op += 1;
                let out = self.log.calls[self.cur.call].clone();
                self.cur.call += 1;
                out
            }
            _ => self.diverged(rank, "call"),
        }
    }

    fn replay_err<T>(&mut self) -> CommResult<T> {
        self.cur.op += 1;
        let e = self.log.errs[self.cur.err].clone();
        self.cur.err += 1;
        Err(e)
    }
}

/// Deliver sends of `rank`: deposit each into its destination inbox (taking
/// a matching waiter) and hand the woken ranks to the scheduler in one batch.
/// The one deposit path: the closure's outbox and a stored call's both
/// flush through it.
fn deposit(world: &EventWorld, rank: usize, sends: impl IntoIterator<Item = (usize, Tag, MsgBuf)>) {
    let mut woken = Vec::new();
    for (dest, tag, buf) in sends {
        let mut inbox = world.inbox(dest);
        inbox.store.push(rank, tag, buf);
        world.audit_record(rank, AuditKind::Deposit { src: rank, dest, tag });
        let matches = inbox.waiter.as_ref().is_some_and(|w| w.matches(rank, tag));
        if matches {
            if let Some(w) = inbox.waiter.take() {
                world.audit_record(
                    rank,
                    AuditKind::WaiterTaken {
                        rank: dest,
                        epoch: w.epoch,
                        by: WakeSource::Sender(rank),
                    },
                );
                woken.push(dest);
            }
        }
    }
    if !woken.is_empty() {
        world.wake_on_message(rank, &woken);
    }
}

/// Register `rank`'s one waiter — `key` is the `(src, tag)` a receive
/// matches on, `None` for `wait_arrival` — under the parking execution's
/// `epoch`, and release the inbox. The one way a task parks on its inbox.
fn arm_waiter(
    world: &EventWorld,
    rank: usize,
    mut inbox: MutexGuard<'_, Inbox>,
    key: Option<(usize, Tag)>,
    epoch: u64,
) {
    if inbox.waiter.is_some() {
        panic!("rank {rank}: second waiter registered");
    }
    inbox.waiter = Some(Waiter { key, epoch });
    drop(inbox);
    let (src, tag) = key.unwrap_or((rank, 0));
    world.audit_record(rank, AuditKind::WaiterArmed { rank, src, tag, epoch });
}

/// What a finished resumed call returns, and what its replay-log entry
/// keeps: the output bytes, plus the per-source counts of a call that
/// discovers them (empty otherwise).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallOutput {
    /// The output buffer.
    pub bytes: Vec<u8>,
    /// Per-source byte counts, for a call that learns them.
    pub counts: Vec<usize>,
}

/// A resumable call: a `'static` future over an [`EventPort`] that owns its
/// inputs and its output buffer, so the runtime can keep it across parks.
pub type Call = Pin<Box<dyn Future<Output = CommResult<CallOutput>> + Send>>;

/// What a stored call's port and its poll share: the port's buffered sends,
/// and the poll's wake verdict, epoch and park request.
#[derive(Default)]
struct PortIo {
    outbox: Vec<(usize, Tag, MsgBuf)>,
    /// The verdict the task was woken with; the poll's first receive takes it.
    wake: Option<Wake>,
    /// Epoch of the execution polling the call.
    epoch: u64,
    /// A receive armed the waiter and returned `Pending`.
    parked: bool,
}

/// A call parked in the task's slot, with the state its port shares.
pub(crate) struct StoredCall {
    fut: Call,
    io: Arc<Mutex<PortIo>>,
}

impl StoredCall {
    /// Poll the call as `rank`'s execution at `epoch` (the first receive takes
    /// `wake`) and deliver its sends, also a panicking poll's (then `Err`).
    pub(crate) fn poll(
        &mut self,
        world: &EventWorld,
        rank: usize,
        wake: Option<Wake>,
        epoch: u64,
    ) -> std::thread::Result<Poll<CommResult<CallOutput>>> {
        let mut io = lock_io(&self.io);
        (io.wake, io.epoch) = (wake, epoch);
        drop(io);
        let (fut, io) = (&mut self.fut, &self.io);
        let polled = catch_unwind(AssertUnwindSafe(|| {
            let polled = fut.as_mut().poll(&mut Context::from_waker(Waker::noop()));
            if polled.is_pending() && !std::mem::take(&mut lock_io(io).parked) {
                panic!("rank {rank}: a resumed call is pending without a parked receive");
            }
            polled
        }));
        deposit(world, rank, std::mem::take(&mut lock_io(io).outbox));
        polled
    }
}

/// A task's resumed call between its executions.
pub(crate) enum CallState {
    /// Parked in a receive: the scheduler polls it at the next wake.
    Stored(StoredCall),
    /// Finished by the scheduler's poll: the closure's hook returns it.
    Finished(CommResult<CallOutput>),
}

fn lock_io(io: &Mutex<PortIo>) -> MutexGuard<'_, PortIo> {
    io.lock().unwrap_or_else(|p| p.into_inner())
}

/// The [`Port`] a resumed call runs on: an owned handle onto the world, so
/// the call can outlive the execution that started it. Sends batch like the
/// closure's own and leave through the same deposit; a receive that cannot
/// complete arms the rank's waiter exactly as [`EventComm`]'s does and
/// returns `Pending`.
pub struct EventPort {
    world: Arc<EventWorld>,
    rank: usize,
    /// Bits OR-ed into every algorithm tag (an odd-round tag block).
    tag_bits: Tag,
    io: Arc<Mutex<PortIo>>,
}

impl EventPort {
    #[inline]
    fn tag(&self, tag: Tag) -> Tag {
        if tag < RESERVED_TAG_BASE {
            tag | self.tag_bits
        } else {
            tag
        }
    }

    fn flush(&self, io: &mut PortIo) {
        if !io.outbox.is_empty() {
            deposit(&self.world, self.rank, io.outbox.drain(..));
        }
    }

    /// One attempt at the receive; see [`EventComm`]'s `recv_match`, whose
    /// untimed path this is.
    fn poll_recv(&self, src: usize, tag: Tag, max_len: usize) -> Poll<CommResult<MsgBuf>> {
        if src >= self.world.size() {
            return Poll::Ready(Err(CommError::InvalidRank { rank: src, size: self.world.size() }));
        }
        let mut io = lock_io(&self.io);
        self.flush(&mut io);
        let wake = io.wake.take();
        let mut inbox = self.world.inbox(self.rank);
        match inbox.store.try_pop(src, tag, max_len) {
            Some(Err(message_len)) => {
                Poll::Ready(Err(CommError::Truncated { message_len, buffer_len: max_len }))
            }
            // A message beats a simultaneous wake verdict.
            Some(Ok(msg)) => Poll::Ready(Ok(msg)),
            None if wake == Some(Wake::Deadlocked) => {
                Poll::Ready(Err(CommError::Deadlock { src, tag }))
            }
            None => {
                arm_waiter(&self.world, self.rank, inbox, Some((src, tag)), io.epoch);
                io.parked = true;
                Poll::Pending
            }
        }
    }
}

impl Port for EventPort {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.world.size()
    }

    fn send_buf(&self, dest: usize, tag: Tag, buf: MsgBuf) -> CommResult<()> {
        if dest >= self.world.size() {
            return Err(CommError::InvalidRank { rank: dest, size: self.world.size() });
        }
        let mut io = lock_io(&self.io);
        io.outbox.push((dest, self.tag(tag), buf));
        if io.outbox.len() >= OUTBOX_BATCH {
            self.flush(&mut io);
        }
        Ok(())
    }

    fn recv_match(
        &self,
        src: usize,
        tag: Tag,
        max_len: usize,
    ) -> impl Future<Output = CommResult<MsgBuf>> + Send + '_ {
        let tag = self.tag(tag);
        std::future::poll_fn(move |_| self.poll_recv(src, tag, max_len))
    }
}

/// The event runtime's hook, from [`Communicator::resumable`]: runs a
/// [`Call`] that the runtime keeps across parks.
pub struct Resume<'a> {
    comm: &'a EventComm<'a>,
    tag_bits: Tag,
}

impl<'a> Resume<'a> {
    /// The same hook with `bits` OR-ed into every algorithm tag (below
    /// [`RESERVED_TAG_BASE`]) the call sends and receives on.
    pub fn with_tag_bits(self, bits: Tag) -> Resume<'a> {
        Resume { tag_bits: self.tag_bits | bits, ..self }
    }

    /// Run the call `build` makes on this rank's [`EventPort`], and return
    /// its output.
    ///
    /// `build` runs once per call: when the call parks, the runtime keeps it,
    /// unwinds the closure and polls the call at each wake without it; the
    /// closure re-runs to this hook once the call has finished. A finished
    /// call is one replay-log entry, so a later re-execution gets its output
    /// back without running it.
    pub fn call(self, build: impl FnOnce(EventPort) -> Call) -> CommResult<CallOutput> {
        let comm = self.comm;
        let mut ctx = comm.ctx();
        if ctx.replaying() {
            return ctx.replay_call(comm.rank);
        }
        if let Some(CallState::Finished(out)) = ctx.call.take() {
            ctx.append_call(out.clone());
            return out;
        }
        // The closure's own sends leave before the call's.
        comm.flush(&mut ctx);
        let (wake, epoch) = (ctx.wake.take(), ctx.epoch);
        drop(ctx);
        let io = Arc::new(Mutex::new(PortIo::default()));
        let port = EventPort {
            world: Arc::clone(comm.world),
            rank: comm.rank,
            tag_bits: self.tag_bits,
            io: Arc::clone(&io),
        };
        let mut stored = StoredCall { fut: build(port), io };
        let polled = stored
            .poll(comm.world, comm.rank, wake, epoch)
            .unwrap_or_else(|payload| resume_unwind(payload));
        let mut ctx = comm.ctx();
        match polled {
            Poll::Ready(out) => {
                ctx.append_call(out.clone());
                out
            }
            Poll::Pending => {
                ctx.call = Some(CallState::Stored(stored));
                ctx.park = Some(Park::Recv { deadline: None });
                drop(ctx);
                resume_unwind(Box::new(TaskYield))
            }
        }
    }
}

/// A rank's handle onto an event-driven world. Implements [`Communicator`],
/// so every algorithm and wrapper stack runs on the bounded worker pool
/// unmodified. Constructed per execution by the runtime's workers; user code
/// only ever sees `&EventComm` inside the closure passed to
/// [`EventComm::run`].
pub struct EventComm<'w> {
    pub(crate) world: &'w Arc<EventWorld>,
    rank: usize,
    ctx: Mutex<ExecCtx>,
}

impl<'w> EventComm<'w> {
    pub(crate) fn attach(world: &'w Arc<EventWorld>, rank: usize, ctx: ExecCtx) -> EventComm<'w> {
        EventComm { world, rank, ctx: Mutex::new(ctx) }
    }

    pub(crate) fn detach(self) -> ExecCtx {
        self.ctx.into_inner().unwrap_or_else(|p| p.into_inner())
    }

    /// The trait requires `&self`, so the per-task context sits behind a
    /// mutex; it is only ever locked by the worker currently executing this
    /// task, so the lock is uncontended (and poison-recovered: an algorithm
    /// panic must not wedge the diagnostics path).
    fn ctx(&self) -> MutexGuard<'_, ExecCtx> {
        self.ctx.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Deliver every buffered send of the closure.
    pub(crate) fn flush_outbox(world: &EventWorld, rank: usize, ctx: &mut ExecCtx) {
        if !ctx.outbox.is_empty() {
            deposit(world, rank, ctx.outbox.drain(..));
        }
    }

    fn flush(&self, ctx: &mut ExecCtx) {
        Self::flush_outbox(self.world, self.rank, ctx);
    }
}

impl Communicator for EventComm<'_> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.world.size()
    }

    fn send_buf(&self, dest: usize, tag: Tag, buf: MsgBuf) -> CommResult<()> {
        self.check_rank(dest)?;
        let mut ctx = self.ctx();
        if ctx.replaying() {
            // Replayed sends are suppressed: the original execution already
            // delivered this message.
            return ctx.replay_send(self.rank);
        }
        ctx.check_live(self.rank, "send");
        ctx.append_send();
        ctx.outbox.push((dest, tag, buf));
        if ctx.outbox.len() >= OUTBOX_BATCH {
            self.flush(&mut ctx);
        }
        Ok(())
    }

    /// Replay, complete immediately, or park the task. A match longer than
    /// `max_len` fails with [`CommError::Truncated`] *without consuming* the
    /// message, exactly like the other backends; only a timed receive reads
    /// the clock.
    fn recv_match(
        &self,
        src: usize,
        tag: Tag,
        max_len: usize,
        timeout: Duration,
    ) -> CommResult<MsgBuf> {
        self.check_rank(src)?;
        let mut ctx = self.ctx();
        if ctx.replaying() {
            return ctx.replay_recv(self.rank);
        }
        ctx.check_live(self.rank, "recv");
        self.flush(&mut ctx);
        // By determinism the first live blocking op is the op that parked,
        // so this execution's wake verdict (if any) belongs to us.
        let wake = ctx.wake.take();
        let mut inbox = self.world.inbox(self.rank);
        match inbox.store.try_pop(src, tag, max_len) {
            Some(Err(message_len)) => {
                drop(inbox);
                let e = CommError::Truncated { message_len, buffer_len: max_len };
                ctx.append_err(e.clone());
                Err(e)
            }
            // A message beats a simultaneous wake verdict, matching the
            // simulator: if one raced in, deliver it and drop the verdict.
            Some(Ok(msg)) => {
                drop(inbox);
                ctx.append_recv(&msg);
                Ok(msg)
            }
            None => match wake {
                Some(Wake::TimedOut) => {
                    drop(inbox);
                    // Virtual time advanced exactly to the deadline, so the
                    // wait equals the budget (same exactness the sim tests).
                    let e = CommError::Timeout { src, tag, waited: timeout };
                    ctx.append_err(e.clone());
                    Err(e)
                }
                Some(Wake::Deadlocked) => {
                    drop(inbox);
                    let e = CommError::Deadlock { src, tag };
                    ctx.append_err(e.clone());
                    Err(e)
                }
                // None (first arrival at this op) or a message wake whose
                // message we cannot see yet never happens for Message (only
                // this rank pops its inbox), but parking again is always
                // safe and correct.
                _ => {
                    arm_waiter(self.world, self.rank, inbox, Some((src, tag)), ctx.epoch);
                    // `Duration::MAX`, or a deadline past the end of the
                    // clock, is an untimed receive.
                    let deadline = (timeout != Duration::MAX)
                        .then(|| self.world.clock_now().checked_add(timeout))
                        .flatten();
                    ctx.park = Some(Park::Recv { deadline });
                    drop(ctx);
                    resume_unwind(Box::new(TaskYield))
                }
            },
        }
    }

    fn probe(&self, src: usize, tag: Tag) -> CommResult<Option<usize>> {
        self.check_rank(src)?;
        let mut ctx = self.ctx();
        if ctx.replaying() {
            return ctx.replay_probe(self.rank);
        }
        ctx.check_live(self.rank, "probe");
        self.flush(&mut ctx);
        let len = self.world.inbox(self.rank).store.peek_len(src, tag);
        ctx.append_probe(len);
        Ok(len)
    }

    fn now(&self) -> Duration {
        let mut ctx = self.ctx();
        if ctx.replaying() {
            return ctx.replay_now(self.rank);
        }
        ctx.check_live(self.rank, "now");
        let t = self.world.clock_now();
        ctx.append_now(t);
        t
    }

    fn sleep(&self, d: Duration) {
        let mut ctx = self.ctx();
        if ctx.replaying() {
            ctx.replay_sleep(self.rank);
            return;
        }
        ctx.check_live(self.rank, "sleep");
        let wake = ctx.wake.take();
        if matches!(wake, Some(Wake::SleepElapsed)) || d.is_zero() {
            ctx.append_sleep();
            return;
        }
        // Park the *task* with a virtual deadline — the worker thread never
        // sleeps on behalf of a rank.
        self.flush(&mut ctx);
        let until = self.world.clock_now() + d;
        ctx.park = Some(Park::Sleep { until });
        drop(ctx);
        resume_unwind(Box::new(TaskYield))
    }

    fn wait_arrival(&self, seen: u64, timeout: Duration) -> CommResult<u64> {
        let mut ctx = self.ctx();
        if ctx.replaying() {
            return ctx.replay_arrival(self.rank);
        }
        ctx.check_live(self.rank, "wait_arrival");
        self.flush(&mut ctx);
        // As in `recv_match`: the first live blocking op is the op that parked,
        // so this execution's wake verdict (if any) belongs to us.
        let wake = ctx.wake.take();
        let inbox = self.world.inbox(self.rank);
        let count = inbox.store.deposits();
        // A deposit beats a simultaneous wake verdict; a timer wake means
        // virtual time reached the deadline exactly.
        if count != seen || timeout.is_zero() || wake == Some(Wake::TimedOut) {
            drop(inbox);
            ctx.append_arrival(count);
            return Ok(count);
        }
        if wake == Some(Wake::Deadlocked) {
            drop(inbox);
            let e = CommError::Deadlock { src: self.rank, tag: 0 };
            ctx.append_err(e.clone());
            return Err(e);
        }
        arm_waiter(self.world, self.rank, inbox, None, ctx.epoch);
        // `Duration::MAX`, or a timeout the clock cannot represent, is an
        // unbounded wait (at virtual time 0 the add alone would succeed).
        let deadline =
            self.world.clock_now().checked_add(timeout).filter(|_| timeout != Duration::MAX);
        ctx.park = Some(Park::Arrival { deadline });
        drop(ctx);
        resume_unwind(Box::new(TaskYield))
    }

    fn resumable(&self) -> Option<Resume<'_>> {
        Some(Resume { comm: self, tag_bits: 0 })
    }
}
