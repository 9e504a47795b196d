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
//! The public surface is the paper's two §5 applications and what they are
//! made of:
//!
//! * [`transitive_closure`] → [`TcResult`] / [`TcIteration`] — §5.1 graph
//!   mining, with per-iteration stats; [`sequential_closure`] is its oracle.
//! * [`kcfa_like_run`] over a [`KcfaConfig`] → [`KcfaResult`] — §5.2's
//!   program-analysis-style spiky load schedule; [`facts_at`] and
//!   [`outboxes_at`] are the schedule itself, for oracles.
//! * [`graph1_like`] / [`graph2_like`] — the two topology regimes of Fig. 11.
//! * [`exchange_tuples`] → [`ExchangeStats`] — the one communication step of
//!   both: one `alltoallv` whose receivers learn their counts, `N` and the
//!   termination vote from what it delivers.
//! * [`Relation`] (a join side: edges with their first-column index) and
//!   [`TupleSet`] (a fixpoint's result: each path once), both under one
//!   unkeyed word hash, so their iteration order depends only on the inserts.
//! * [`Tuple`] ([`TUPLE_BYTES`] on the wire via [`encode_into`] /
//!   [`encode_all`] / [`decode_all`]) and [`owner`], the hash partitioning.
//!
//! A fixpoint that survives rank failures needs no code here: it is one
//! operation for `bruck_core::recovering`, which re-runs it on the survivor
//! view until an attempt commits —
//! `recovering(&cfg, comm, &view, |c, _| transitive_closure(c, algo, &edges))`.
//! Every rank holds the whole input, so a re-run on the shrunken world loses
//! nothing and shards by its dense ranks.
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

#![deny(missing_docs)]

mod exchange;
mod graphs;
mod kcfa;
mod relation;
mod tc;
mod tuple;

pub use exchange::{exchange_tuples, ExchangeStats};
pub use graphs::{graph1_like, graph2_like};
pub use kcfa::{facts_at, kcfa_like_run, outboxes_at, KcfaConfig, KcfaResult};
pub use relation::{Relation, TupleSet};
pub use tc::{sequential_closure, transitive_closure, TcIteration, TcResult};
pub use tuple::{decode_all, encode_all, encode_into, owner, Tuple, TUPLE_BYTES};
