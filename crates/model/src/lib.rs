//! # bruck-model — α–β–γ cost model and communication-trace simulator
//!
//! Stands in for the Theta / Cori / Stampede supercomputers of the paper's
//! evaluation: every algorithm in `bruck-core` has a *byte-exact* trace
//! generator here ([`uniform_trace`], [`nonuniform_trace`]) that replicates
//! its routing without moving payloads, and a [`MachineModel`] prices each
//! step (latency α, injection overhead, bandwidth β, memcpy γ, datatype
//! engine overhead). This is what lets the figure harnesses sweep to
//! `P = 32768` on a laptop.
//!
//! Validation: integration tests in the workspace root run the real
//! implementations under `bruck_comm::MeteredComm` and assert the traces
//! predict the wire bytes of every rank at every step exactly.
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

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod collective;
mod fit;
mod machine;
mod par;
mod radix;
mod source;
mod sweep;
mod trace;
mod tracegen;
mod tuner;

pub use collective::{
    allgatherv_trace, allreduce_trace, reduce_scatter_trace, AllgathervModel, AllreduceModel,
    ReduceScatterModel,
};
pub use fit::{calibrate, fit_error, FitSample};
pub use par::par_map;
pub use machine::MachineModel;
pub use radix::{
    radix_schedule as radix_trace_schedule, two_phase_radix_trace, zero_rotation_radix_trace,
};
pub use source::{DistSource, MatrixSource, SizeSource};
pub use sweep::{crossover_n, predict, sweep, SweepPoint};
pub use trace::{CommTrace, RankLoad, Step, StepKind};
pub use tracegen::{nonuniform_trace, uniform_trace, NonuniformAlgo, RankSample, UniformAlgo};
pub use tuner::{
    predict_config, AutoTuner, TuningEntry, TuningKey, TuningTable, TUNING_TABLE_HEADER,
};
