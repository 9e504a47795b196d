//! # bruck-comm — a threaded, MPI-like message-passing runtime
//!
//! This crate is the substrate beneath the all-to-all algorithms in
//! `bruck-core`. It provides exactly the slice of MPI the HPDC '22 paper
//! *Optimizing the Bruck Algorithm for Non-uniform All-to-all Communication*
//! relies on:
//!
//! * **SPMD ranks** — [`ThreadComm::run`] plays the role of `mpiexec -n P`,
//!   mapping one rank to one OS thread ("MPI everywhere").
//! * **One narrow waist** — [`Communicator`] requires eight primitives
//!   (`rank`, `size`, `send_buf`, `recv_match`, `probe`, and the clock group
//!   `now`, `sleep`, `wait_arrival`), none with a default body. The one
//!   receive takes a length bound and a timeout (`MAX` = unbounded);
//!   `recv_buf` / `recv_into` / `recv_buf_timeout` are provided corners of it.
//!   A backend or wrapper implements the eight and nothing else; the compiler
//!   rejects one that forgets any. [`MeteredComm::send`] is the one observing
//!   override of a provided method.
//! * **Tagged point-to-point** — eager [`Communicator::send`] /
//!   blocking [`Communicator::recv`] with `(source, tag)` matching and MPI's
//!   non-overtaking guarantee, plus `isend`/`sendrecv` forms. Matching is
//!   lazy, so receive order is the waitall; there is no posted-receive
//!   handle.
//! * **Collectives** — dissemination [`Communicator::barrier`], recursive-
//!   doubling [`Communicator::allreduce_u64`], ring
//!   [`Communicator::allgather_u64`], and the counts handshake
//!   [`Communicator::alltoall_counts`] — all built from point-to-point as
//!   provided trait methods, so every backend shares the exact same message
//!   schedule.
//! * **Instrumentation** — [`MeteredComm`] is the one meter: per-channel and
//!   per-tag message/byte counters, the sent-size histogram, and the copy
//!   audit (which sends packed their payload). The cost model in
//!   `bruck-model` is validated against its per-tag counters.
//! * **Fault tolerance** — [`FaultComm`] injects seeded message drop /
//!   duplication / corruption / delay and scripted rank stall / crash;
//!   [`ReliableComm`] repairs a lossy transport back to exactly-once in-order
//!   delivery with a go-back-N sliding-window ARQ (one sequenced stream per
//!   peer, checksums, cumulative acks, retransmission with bounded backoff):
//!   a send returns without waiting a round trip, [`ReliableComm::flush`]
//!   (and dropping the wrapper) settles what is in flight, and every wait
//!   parks on arrival ([`Communicator::wait_arrival`]) rather than polling;
//!   [`DeadlineComm`] bounds every blocking receive by a shared
//!   wall-clock budget, surfacing [`CommError::Timeout`] /
//!   [`CommError::RankFailed`] for graceful-degradation drivers.
//! * **Membership** — [`detect_failures`] (heartbeat sweep),
//!   [`agree_survivors`] (flooded survivor agreement with a commit/abort
//!   vote) and [`ShrinkComm`] (the dense survivor world of one epoch): the
//!   pieces `bruck-core`'s recovering driver confirms and shrinks with.
//! * **Deterministic simulation** — [`SimComm`] runs the same unmodified
//!   algorithms under a seeded cooperative scheduler with a virtual clock:
//!   one runnable rank at a time, recorded/replayable schedules
//!   ([`ScheduleTrace`]), proved deadlocks instead of hangs,
//!   delta-debugging minimization of failing schedules ([`shrink_choices`]),
//!   and a recorded wire log ([`WireEvent`]) `bruck-check` builds its
//!   vector-clocked schedules from.
//! * **Event-driven scale-out** — [`EventComm`] multiplexes many lightweight
//!   rank tasks over a fixed pool of worker OS threads (run-to-block +
//!   log-replay suspension), so the full algorithm suite executes at
//!   P = 32,768 ranks on a handful of threads, with a virtual clock, proved
//!   deadlocks, and scheduler telemetry ([`EventReport`]).
//!
//! ## Example
//!
//! ```
//! use bruck_comm::{Communicator, ReduceOp, ThreadComm};
//!
//! let sums = ThreadComm::run(4, |comm| {
//!     comm.allreduce_u64(comm.rank() as u64, ReduceOp::Sum).unwrap()
//! });
//! assert_eq!(sums, vec![6, 6, 6, 6]);
//! ```

#![deny(missing_docs)]

mod clock;
mod communicator;
mod deadline;
mod error;
mod event;
mod fault;
mod mailbox;
mod metered;
mod msgbuf;
mod agree;
mod detect;
mod reliable;
mod reduce;
mod retry;
mod runtime;
mod sim;
mod subcomm;
mod thread_comm;

pub use communicator::{Communicator, RESERVED_TAG_BASE};
pub use deadline::DeadlineComm;
pub use error::{CommError, CommResult};
pub use event::EventComm;
pub use fault::{EdgeFaults, FaultComm, FaultEvent, FaultKind, FaultPlan, ScriptedFault};
pub use metered::{ChannelTotals, Histogram, MeteredComm, Metrics, TagCounters, HIST_BUCKETS};
pub use msgbuf::MsgBuf;
pub use agree::{agree_survivors, AgreeConfig, AgreeOutcome};
pub use detect::{detect_failures, DetectorConfig, Suspicion};
pub use reliable::{ReliableComm, ReliableConfig};
pub use reduce::ReduceOp;
pub use retry::RetryPolicy;
pub use runtime::{
    AuditEvent, AuditKind, EventReport, EventRun, EventStep, EventVerifyOpts, EventWorld,
    ParkCounts,
    WakeSource,
};
pub use sim::{
    shrink_choices, ScheduleTrace, SimComm, SimConfig, SimOp, SimReport, SimRun, SimStep,
    SimWorld, WireEvent, WireKind,
};
pub use subcomm::{ShrinkComm, SubComm, SUBCOMM_MAX_TAG};
pub use thread_comm::{ThreadComm, World};

/// The name of the send-log wrapper [`MeteredComm`] absorbed, kept for
/// callers that only want the copy audit ([`MeteredComm::bytes_copied`]).
pub type CountingComm<'a, C> = MeteredComm<'a, C>;

/// Message tag. Algorithms in this workspace tag data messages with their
/// communication-step index; tags at or above [`RESERVED_TAG_BASE`] are
/// reserved for the built-in collectives.
pub type Tag = u32;

/// The splitmix64 finalizer: the seeded hash behind every deterministic draw
/// in this crate (fault decisions, schedule seeds, ARQ checksums, backoff
/// jitter, split contexts).
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
