//! Running one sample of a [`Cell`]: bring a world up, run the cell's call
//! `k` times on every rank, take the world down, check outputs and leaks.
//!
//! * `ThreadComm`: the `k` calls sit between two barriers inside one world
//!   and the sample is the slowest rank's time between them. Alignment
//!   barriers always go over the bare communicator, also under a wrapper stack.
//! * `EventComm`: the sample is one whole `EventComm::run_report(p, 1, …)`
//!   call, timed from outside, because the runtime re-executes the rank
//!   closure on every wake and a stopwatch inside it would be replayed. One
//!   worker: with two, samples measure the OS scheduler.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bruck_comm::{
    Communicator, CountingComm, DeadlineComm, EventComm, FaultComm, FaultPlan, MeteredComm,
    ReliableComm, ReliableConfig, ThreadComm, World,
};
use bruck_core::probe::{self, PhaseEvent};

use crate::cells::Cell;
use crate::spans::{open, Ctx};

/// Communicator wrappers between the cell and the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// None.
    Bare,
    /// `MeteredComm`; the sample reports messages and bytes sent.
    Metered,
    /// `CountingComm`; the sample reports bytes copied on the send path.
    Counting,
    /// `ReliableComm` alone.
    Reliable,
    /// `Metered(Deadline(Reliable(Fault(no-fault plan))))`, the stack
    /// `crates/check/src/chaos.rs` soaks, with nothing injected.
    Full,
}

/// Where a sample runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Place {
    /// `EventComm` with one worker instead of `ThreadComm`.
    pub event: bool,
    /// World size.
    pub p: usize,
    /// Wrappers around each rank's communicator.
    pub stack: Stack,
}

/// Budget of the stack's `DeadlineComm`: never reached, so only its
/// bookkeeping is measured.
const DEADLINE: Duration = Duration::from_secs(3600);

/// ARQ settings of the stack's `ReliableComm`. The ack timeout is far above
/// any scheduling stall of this box, so no frame is ever retransmitted and
/// wire message counts repeat exactly.
const RELIABLE: ReliableConfig = ReliableConfig {
    ack_timeout: Duration::from_secs(30),
    max_retries: 2,
    backoff_cap: Duration::from_secs(30),
};

impl Place {
    /// `p` ranks on `ThreadComm` under `stack`.
    pub fn threads(p: usize, stack: Stack) -> Place {
        Place {
            event: false,
            p,
            stack,
        }
    }
}

/// One sample, without the ranks' outputs.
#[derive(Debug)]
pub struct Run {
    /// Seconds for the `k` calls (see the module docs for what that spans).
    pub secs: f64,
    /// Outputs equal the oracle and nothing was left in any mailbox.
    pub ok: bool,
    /// Undelivered messages plus dead match keys when the world came down.
    pub leaked: u64,
    /// Messages deposited in the world, alignment barriers included.
    pub wire_msgs: u64,
    /// Rank-closure executions (`EventComm` only; `p` means no replay).
    pub executions: u64,
    /// Messages sent through the meter, all ranks (`Metered` and `Full`).
    pub sent_msgs: u64,
    /// Bytes sent through the meter, all ranks (`Metered` and `Full`).
    pub sent_bytes: u64,
    /// Bytes copied by compat-path sends, all ranks (`Counting`).
    pub bytes_copied: u64,
    /// Each rank's `bruck_core::probe` events (traced `ThreadComm` samples).
    pub phases: Vec<Vec<PhaseEvent>>,
}

/// A fault the benchmark cannot continue from: a typed communication error
/// or a panicked rank leaves the other ranks of the world blocked for ever.
pub fn fatal(what: &str) -> ! {
    eprintln!("bruck-benchmark: fatal: {what}");
    std::process::exit(3)
}

struct RankOut<S> {
    secs: f64,
    state: S,
    sent_msgs: u64,
    sent_bytes: u64,
    bytes_copied: u64,
    phases: Vec<PhaseEvent>,
}

/// What one rank does. `bare` is set on `ThreadComm`, where the rank aligns
/// with the others and holds the stopwatch.
fn rank_body<B, C, Ce>(
    cell: &Ce,
    bare: Option<&B>,
    comm: &C,
    k: usize,
    trace: Option<Ctx<'_>>,
) -> RankOut<Ce::State>
where
    B: Communicator + ?Sized,
    C: Communicator + ?Sized,
    Ce: Cell,
{
    let rank = comm.rank();
    let align = || {
        if let Some(b) = bare {
            b.barrier()
                .unwrap_or_else(|e| fatal(&format!("rank {rank}: barrier: {e}")));
        }
    };
    let trace = trace.map(|c| c.on_lane(rank as u32 + 1));
    let mut state = cell.prepare(rank);
    let mut phases = Vec::new();
    align();
    let start = bare.map(|_| Instant::now());
    for _ in 0..k {
        let result = match trace {
            None => cell.call(comm, &mut state),
            Some(ctx) => {
                let installed_ns = ctx.now_ns();
                probe::install();
                let span = ctx.open(Ce::SPAN);
                let result = cell.call(comm, &mut state);
                let under = span.ctx();
                drop(span);
                let events = probe::take();
                for e in &events {
                    under.record(e.name, installed_ns + e.start_ns, e.dur_ns);
                }
                phases.extend(events);
                result
            }
        };
        result.unwrap_or_else(|e| fatal(&format!("rank {rank}: {}: {e}", Ce::SPAN)));
    }
    align();
    let secs = start.map_or(0.0, |s| s.elapsed().as_secs_f64());
    RankOut {
        secs,
        state,
        sent_msgs: 0,
        sent_bytes: 0,
        bytes_copied: 0,
        phases,
    }
}

/// Add what the meter saw (algorithm and reserved-tag traffic) to a rank's output.
fn metered<C: Communicator + ?Sized, S>(
    mc: &MeteredComm<'_, C>,
    mut out: RankOut<S>,
) -> RankOut<S> {
    let m = mc.metrics();
    out.sent_msgs = m.logical.sent_msgs + m.reserved.sent_msgs;
    out.sent_bytes = m.logical.sent_bytes + m.reserved.sent_bytes;
    out
}

/// Wrap `base` as `stack` says and run the rank's body over the result.
fn stacked<B: Communicator, Ce: Cell>(
    cell: &Ce,
    base: &B,
    align: bool,
    stack: Stack,
    k: usize,
    trace: Option<Ctx<'_>>,
) -> RankOut<Ce::State> {
    let bare = align.then_some(base);
    match stack {
        Stack::Bare => rank_body(cell, bare, base, k, trace),
        Stack::Metered => {
            let mc = MeteredComm::new(base);
            let out = rank_body(cell, bare, &mc, k, trace);
            metered(&mc, out)
        }
        Stack::Counting => {
            let cc = CountingComm::new(base);
            let mut out = rank_body(cell, bare, &cc, k, trace);
            out.bytes_copied = cc.bytes_copied() as u64;
            out
        }
        Stack::Reliable => {
            let rc = ReliableComm::with_config(base, RELIABLE);
            rank_body(cell, bare, &rc, k, trace)
        }
        Stack::Full => {
            let fc = FaultComm::new(base, FaultPlan::new(0));
            let rc = ReliableComm::with_config(&fc, RELIABLE);
            let dc = DeadlineComm::new(&rc, DEADLINE);
            let mc = MeteredComm::new(&dc);
            let out = rank_body(cell, bare, &mc, k, trace);
            metered(&mc, out)
        }
    }
}

/// Run one sample of `cell` at `place`: `k` calls per rank. `trace` is the
/// context of the enclosing `cell.<name>` span in the traced run. Returns the
/// sample and each rank's state after the last call.
pub fn run<Ce: Cell>(
    cell: &Ce,
    place: Place,
    k: usize,
    trace: Option<Ctx<'_>>,
) -> (Run, Vec<Ce::State>) {
    let Place { event, p, stack } = place;
    let (outs, secs, leaked, wire_msgs, executions) = if event {
        let start = Instant::now();
        let (outs, report) =
            EventComm::run_report(p, 1, |comm| stacked(cell, comm, false, stack, k, None));
        let secs = start.elapsed().as_secs_f64();
        let leaked = (report.pending_messages + report.dead_match_keys) as u64;
        (
            outs,
            secs,
            leaked,
            report.messages as u64,
            report.executions,
        )
    } else {
        let spawn = open(trace, "world.spawn");
        let world = World::new(p);
        let outs: Vec<RankOut<Ce::State>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..p)
                .map(|rank| {
                    let comm = ThreadComm::new(Arc::clone(&world), rank);
                    scope.spawn(move || stacked(cell, &comm, true, stack, k, trace))
                })
                .collect();
            drop(spawn);
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| fatal("a rank panicked")))
                .collect()
        });
        let secs = outs.iter().map(|o| o.secs).fold(0.0, f64::max);
        let leaked = (world.pending_messages() + world.dead_match_keys()) as u64;
        (outs, secs, leaked, world.total_messages() as u64, 0)
    };

    let mut run = Run {
        secs,
        ok: leaked == 0,
        leaked,
        wire_msgs,
        executions,
        sent_msgs: 0,
        sent_bytes: 0,
        bytes_copied: 0,
        phases: Vec::with_capacity(p),
    };
    let mut states = Vec::with_capacity(p);
    for o in outs {
        run.sent_msgs += o.sent_msgs;
        run.sent_bytes += o.sent_bytes;
        run.bytes_copied += o.bytes_copied;
        states.push(o.state);
        run.phases.push(o.phases);
    }
    run.ok &= cell.check(&states, k);
    (run, states)
}

/// The last step of set-up: bring one world of the workload's backend and
/// size up and down around a single barrier.
pub fn bounce_world(event: bool, p: usize, trace: Option<Ctx<'_>>) {
    let _span = open(trace, "world.spawn");
    let barrier = |comm: &dyn Communicator| {
        comm.barrier()
            .unwrap_or_else(|e| fatal(&format!("set-up barrier: {e}")))
    };
    if event {
        EventComm::run_pooled(p, 1, |comm| barrier(comm));
    } else {
        ThreadComm::run(p, |comm| barrier(comm));
    }
}
