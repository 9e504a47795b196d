//! # bruck-benchmark — the repo's one repeatable benchmark
//!
//! Three workloads, nine end-to-end metrics sampled in rounds, and a
//! traced mode that attributes time and traffic to layers. README.md has the
//! protocol, the tables and the predictions; `BENCHMARK.json` at the repo
//! root declares the same names this crate prints.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod backend;
pub mod bench;
pub mod cells;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod output;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod sysinfo;
