//! # bruck-bpra — balanced parallel relational algebra over iterated all-to-all
//!
//! The application substrate of the paper's §5: relations are sets of binary
//! tuples hash-partitioned across ranks; fixpoint computations iterate a
//! local join, a non-uniform all-to-all redistribution of the new facts, and
//! a deduplication — thousands of `alltoallv` calls with iteration-varying
//! loads. The all-to-all algorithm is a plug-in
//! ([`bruck_core::AlltoallvAlgorithm`]), which is exactly the paper's
//! experiment: vendor `MPI_Alltoallv` vs two-phase Bruck, same application.
//!
//! * [`transitive_closure`] — §5.1 graph mining, with per-iteration stats.
//! * [`kcfa_like_run`] — §5.2's program-analysis-style spiky load schedule.
//! * [`graph1_like`] / [`graph2_like`] — the two topology regimes of Fig. 11.
//!
//! ```
//! use bruck_comm::ThreadComm;
//! use bruck_core::AlltoallvAlgorithm;
//! use bruck_bpra::{graph1_like, transitive_closure};
//!
//! let edges = graph1_like(2, 10, 3, 42);
//! let totals = ThreadComm::run(4, |comm| {
//!     transitive_closure(comm, AlltoallvAlgorithm::TwoPhaseBruck, &edges)
//!         .unwrap()
//!         .total_paths
//! });
//! assert!(totals.iter().all(|&t| t == totals[0] && t > 0));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cc;
pub mod datalog;
#[cfg(test)]
mod datalog_tests;
mod exchange;
mod graphs;
mod kcfa;
pub mod parser;
mod recover;
pub mod pointsto;
mod relation;
mod tc;
mod tuple;

pub use cc::{connected_components, sequential_components, CcResult};
pub use datalog::{
    evaluate as datalog_evaluate, AtomPat, DatalogIteration, DatalogResult, Program, RelId, Rule,
    Term,
};
pub use exchange::{exchange_tuples, ExchangeStats};
pub use parser::{parse_program, ParseError, ParsedProgram, SYMBOL_BASE};
pub use pointsto::{
    points_to_analysis, points_to_program, sequential_points_to, PointsToInput,
};
pub use graphs::{graph1_like, graph2_like};
pub use kcfa::{facts_at, kcfa_like_run, outboxes_at, volume_multiplier, KcfaConfig, KcfaResult};
pub use recover::{
    exchange_tuples_recovering, heal_membership, recovering_closure, RecoveringTcResult,
};
pub use relation::Relation;
pub use tc::{sequential_closure, transitive_closure, TcIteration, TcResult};
pub use tuple::{decode_all, encode_all, encode_into, owner, Tuple, TUPLE_BYTES};
