//! # bruck-workload — evaluation workload generators
//!
//! Reproduces the block-size distributions used in the paper's evaluation
//! (§4): every rank owns `P` data blocks whose byte sizes are drawn from one
//! of the following schemes, all parameterized by the *maximum block size* `N`:
//!
//! * [`Distribution::Uniform`] — continuous uniform on `[0, N]` (§4.1; mean `N/2`).
//! * [`Distribution::Windowed`] — uniform on `[(100−r)% · N, N]` (§4.2
//!   sensitivity analysis; the paper writes these as `(100−r)-r`, e.g. `50-50`).
//! * [`Distribution::Normal`] — Gaussian windowed to `(−3σ, +3σ)` and mapped
//!   onto `[0, N]` (§4.3; mean `N/2`, σ = `N/6`).
//! * [`Distribution::PowerLaw`] — exponential/power-law decay with a
//!   configurable base (§4.3 evaluates bases 0.99 and a steeper one).
//!
//! Generators are deterministic given a seed, per-rank independent (rank `r`
//! derives its stream from `(seed, r)`), and produce either one rank's row
//! ([`Distribution::sample_row`]) or a full `P×P` [`SizeMatrix`] with
//! `matrix[src][dst]` = bytes sent from `src` to `dst`.

#![deny(missing_docs)]

mod distribution;
mod matrix;
mod rng;
mod stats;

pub use distribution::{Distribution, SizeRow};
pub use matrix::SizeMatrix;
pub use rng::{splitmix64, SplitMix64};
pub use stats::{histogram, DistStats};
