//! # bruck-core — uniform and non-uniform all-to-all algorithms
//!
//! The primary contribution of *Optimizing the Bruck Algorithm for
//! Non-uniform All-to-all Communication* (Fan et al., HPDC '22), implemented
//! from scratch over the [`bruck_comm`] runtime.
//!
//! ## Uniform (`MPI_Alltoall` signature) — §2
//!
//! One entry point, [`alltoall`], dispatching on [`AlltoallAlgorithm`]:
//!
//! | Variant | Paper name | Rotations |
//! |---|---|---|
//! | `BasicBruck` / `BasicBruckDt` | BasicBruck(-dt) | initial + final |
//! | `ModifiedBruck` / `ModifiedBruckDt` | ModifiedBruck(-dt) | initial |
//! | `ZeroCopyBruckDt` | ZeroCopyBruck-dt | initial |
//! | `ZeroRotationBruck` | ZeroRotationBruck | **none** |
//! | `SpreadOut` | Spread-out | — |
//!
//! Every Bruck variant runs the steps of one schedule, [`alltoall_plan`]:
//! radix 2, upward for basic Bruck and downward for the others
//! ([`zero_rotation_bruck_radix`] runs it at any radix).
//!
//! ## Non-uniform (`MPI_Alltoallv` signature) — §3
//!
//! One engine, [`configurable_alltoallv`], runs every algorithm; an
//! [`EngineConfig`] says which. The paper's algorithms are its named points,
//! also reachable by [`AlltoallvAlgorithm`] through [`alltoallv`]:
//!
//! * [`EngineConfig::as_padded_bruck`] — uniform Zero Rotation Bruck over
//!   `N`-byte slots, each block padded as it is packed and stripped as it is
//!   delivered (§3.1)
//! * [`EngineConfig::as_two_phase`] — coupled metadata/data exchange, each
//!   block forwarded from the receive region it arrived in (§3.2,
//!   Algorithm 1)
//! * [`EngineConfig::as_spread_out`], [`EngineConfig::as_vendor`] — the
//!   linear baselines
//! * [`EngineConfig::as_padded_alltoall`] — pad → vendor uniform all-to-all
//!   → scan
//! * [`EngineConfig::as_sloav`] — the SLOAV (Xu et al.) prior art,
//!   reimplemented (§6.1)
//!
//! [`alltoallv_discover`] runs the same configs for a caller that knows only
//! its send side, as a fixpoint round does: it returns what arrived, packed
//! in source order, with the `recvcounts` it found on the exchange's wire.
//!
//! ## Beyond alltoallv — the collective family
//!
//! [`allgatherv`] (ring / Bruck doubling / PAT), [`reduce_scatter`]
//! (pairwise / recursive halving / PAT), and [`allreduce`] (distance
//! doubling / reduce_scatter+allgather), dispatched through
//! [`AllgathervAlgorithm`], [`ReduceScatterAlgorithm`], and
//! [`AllreduceAlgorithm`] — see the [`collectives`] module. Every schedule
//! is one message per rank per step at any `P`: the six block schedules are
//! step [`Plan`]s ([`allgatherv_plan`], [`reduce_scatter_plan`]) run by one
//! in-place executor, and `bruck-model` prices the same plans.
//! [`Plan`] is the one schedule type: the engine's radix Bruck loops and
//! every uniform Bruck kernel read an [`alltoall_plan`].
//!
//! ## Faults and recovery
//!
//! [`recovering`] is the one fault path: it runs an operation on a survivor
//! view under one deadline, confirms every attempt with one agreement that
//! finds the dead and decides the survivors, and shrinks the view and retries until an attempt commits
//! ([`Recovered`], [`RecoveringConfig`]). A caller ends with its operation's
//! value, on the whole view or on the survivors, or with a typed error.
//! [`recovering_alltoallv`] is that driver over one `alltoallv`.
//!
//! ## Model — §3.3
//!
//! The cost model lives in `bruck-model`, keyed by [`EngineConfig`]: its
//! byte-exact traces price every config, its `AutoTuner::select` ranks a
//! candidate slice (`adaptive_alltoallv` is that selection run at call
//! time), and the paper's equations (1)–(3) are closed forms there. What
//! this crate contributes to a selection is [`memory_overhead_bytes`], the
//! budget filter.
//!
//! ## Example
//!
//! ```
//! use bruck_comm::{Communicator, ThreadComm};
//! use bruck_core::{configurable_alltoallv, packed_displs, EngineConfig};
//!
//! // 4 ranks; rank p sends p+1 bytes of value p to every rank.
//! ThreadComm::run(4, |comm| {
//!     let me = comm.rank();
//!     let sendcounts = vec![me + 1; 4];
//!     let sdispls = packed_displs(&sendcounts);
//!     let sendbuf = vec![me as u8; 4 * (me + 1)];
//!     let recvcounts: Vec<usize> = (0..4).map(|src| src + 1).collect();
//!     let rdispls = packed_displs(&recvcounts);
//!     let mut recvbuf = vec![0u8; recvcounts.iter().sum()];
//!     configurable_alltoallv(
//!         comm, &EngineConfig::as_two_phase(), &sendbuf, &sendcounts, &sdispls,
//!         &mut recvbuf, &recvcounts, &rdispls,
//!     ).unwrap();
//!     for src in 0..4 {
//!         assert!(recvbuf[rdispls[src]..rdispls[src] + src + 1]
//!             .iter().all(|&b| b == src as u8));
//!     }
//! });
//! ```

#![deny(missing_docs)]

pub mod collectives;
pub mod common;
mod memory;
mod nonuniform;
pub mod probe;
mod radix;
mod uniform;

pub use collectives::{
    allgatherv, allgatherv_plan, allreduce, alltoall_plan, pattern_byte, pattern_u64,
    reduce_scatter, reduce_scatter_plan, reference_allgatherv, reference_allreduce,
    reference_reduce_scatter,
    AllgathervAlgorithm, AllreduceAlgorithm, Plan, PlanStep, ReduceScatterAlgorithm,
};
pub use common::piece_len;
pub use memory::memory_overhead_bytes;
pub use nonuniform::{
    alltoallv, alltoallv_discover, configurable_alltoallv, configurable_alltoallv_general, packed_displs, pattern,
    recovering, recovering_alltoallv, reference_alltoallv, AlltoallvAlgorithm,
    EngineConfig, EngineTopology, IntermediateLayout, Mttr, PaddingRule, Recovered,
    RecoveringConfig, RecoveryOutcome, VENDOR_WINDOW,
};
pub use radix::zero_rotation_bruck_radix;
pub use uniform::{alltoall, reference_alltoall, AlltoallAlgorithm};
