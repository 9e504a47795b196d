//! # bruck-model — α–β–γ cost model and communication-trace simulator
//!
//! Stands in for the Theta / Cori / Stampede supercomputers of the paper's
//! evaluation. There is **one cost function**: the time of a byte-exact
//! trace under a [`MachineModel`],
//! `nonuniform_trace(cfg, …).time(&machine)`. [`nonuniform_trace`] is keyed
//! by `bruck_core::EngineConfig` (an `AlltoallvAlgorithm` is its named
//! point), so every exchange the engine can run — named or not — is priced
//! by replicating its routing without moving payloads; [`uniform_trace`] and
//! the [`collective`] traces are keyed by `bruck-core`'s own algorithm enums
//! the same way. [`predict`], [`crossover_n`], [`calibrate`] and
//! the [`AutoTuner`] (`refit`, `select`, [`adaptive_alltoallv`]) are all that
//! one function applied; the paper's §3.3 equations are kept as closed forms
//! ([`padded_bruck_cost`], [`two_phase_bruck_cost`], [`spread_out_cost`],
//! [`padded_beats_two_phase`]) that nothing selects with. This is what lets the figure
//! harnesses sweep to `P = 32768` on a laptop.
//!
//! Validation: integration tests in the workspace root run the real
//! implementations under `bruck_comm::MeteredComm` and assert the traces
//! predict the wire messages and bytes of every rank at every step exactly.
//!
//! ```
//! use bruck_model::{predict, MachineModel, NonuniformAlgo};
//! use bruck_workload::Distribution;
//!
//! let theta = MachineModel::theta_like();
//! let two_phase = predict(
//!     NonuniformAlgo::TwoPhaseBruck, Distribution::Uniform, 1, 4096, 256, &theta);
//! let vendor = predict(
//!     NonuniformAlgo::Vendor, Distribution::Uniform, 1, 4096, 256, &theta);
//! assert!(two_phase < vendor); // the paper's headline regime
//! ```

#![deny(missing_docs)]

mod closed_form;
pub mod collective;
mod fit;
mod machine;
mod par;
mod source;
mod sweep;
mod trace;
mod tracegen;
mod tuner;

/// The algorithm id of a non-uniform exchange. Not a model-side enum: the
/// third alias (with `bruck_core::configurable_alltoallv_general` and
/// `bruck_comm::CountingComm`) kept only because the frozen `benchmark/`
/// crate imports the name — ROADMAP item 1's PR A drops all three. New code
/// passes an `EngineConfig` or a `bruck_core::AlltoallvAlgorithm`.
pub use bruck_core::AlltoallvAlgorithm as NonuniformAlgo;
pub use closed_form::{
    padded_beats_two_phase, padded_bruck_cost, spread_out_cost, two_phase_bruck_cost,
};
pub use collective::{allgatherv_trace, allreduce_trace, reduce_scatter_trace};
pub use fit::{calibrate, fit_error, FitSample};
pub use machine::MachineModel;
pub use par::par_map;
pub use source::{DistSource, MatrixSource, SizeSource};
pub use sweep::{crossover_n, predict};
pub use trace::{CommTrace, RankLoad, Step, StepKind};
pub use tracegen::{nonuniform_trace, uniform_trace, zero_rotation_radix_trace, RankSample};
pub use tuner::{adaptive_alltoallv, AutoTuner};
