//! # ruck — non-uniform all-to-all communication with optimized Bruck algorithms
//!
//! Facade crate re-exporting the full workspace API. See the individual crates:
//! [`bruck_comm`], [`bruck_datatype`], [`bruck_core`], [`bruck_workload`],
//! [`bruck_model`], [`bruck_bpra`]. The `bruck-check` verifier lives outside
//! the facade; run it via `cargo run -p bruck-check --bin bruck-check` (a
//! stage of `scripts/verify.sh`, like the workspace's `cargo clippy` gate).

#![deny(missing_docs)]

pub use bruck_bpra as bpra;
pub use bruck_comm as comm;
pub use bruck_core as core;
pub use bruck_datatype as datatype;
pub use bruck_model as model;
pub use bruck_workload as workload;
