//! # bruck-datatype — derived-datatype layouts
//!
//! The `-dt` Bruck variants in the paper (`BasicBruck-dt`, `ModifiedBruck-dt`,
//! `ZeroCopyBruck-dt`) describe the non-contiguous set of data blocks moved at
//! each communication step with *MPI-derived datatypes*
//! (`MPI_Type_create_struct` over byte blocks) instead of packing them by hand
//! with `memcpy`. This crate is the freestanding equivalent: an
//! [`IndexedBlocks`] layout is an ordered list of `(displacement, length)`
//! byte blocks over some buffer, with explicit [`IndexedBlocks::pack_into`] /
//! [`IndexedBlocks::unpack_from`] operations.
//!
//! The paper's measurement (its Figure 2) is that datatype-driven transfers
//! *lose* to explicit `memcpy` management for sub-250-byte blocks, because of
//! the pack/unpack engine's bookkeeping. To let the benchmarks reproduce that
//! effect honestly, the pack/unpack routines here intentionally mirror a
//! general datatype engine: they walk a block-descriptor tape per transfer
//! rather than special-casing what a hand-written `memcpy` loop would fuse.

#![deny(missing_docs)]

mod combinators;
mod layout;

pub use layout::{DatatypeError, IndexedBlocks};
