//! [`MsgBuf`]: the reference-counted message payload behind the zero-copy
//! transport path.
//!
//! A `MsgBuf` is a cheap view (`{Arc<Vec<u8>>, start, len}`) of a shared,
//! immutable byte region — the std-only equivalent of `bytes::Bytes`. Cloning
//! or [`slicing`](MsgBuf::slice) a `MsgBuf` bumps a reference count and never
//! touches the payload, which is what lets one packed send region feed `P`
//! outgoing messages with zero per-message allocation or copy.
//!
//! ## Ownership model
//!
//! * The backing region is **immutable** once wrapped: a `MsgBuf` hands out
//!   `&[u8]` only. Producers build a `Vec<u8>`, then convert it with
//!   [`MsgBuf::from_vec`] (free — the `Vec` is moved behind the `Arc`, not
//!   copied).
//! * [`MsgBuf::slice`] produces disjoint or overlapping sub-views that all
//!   share the same backing region. A send hands its view to the runtime;
//!   the region is freed when the last view (sender-side or queued in a
//!   mailbox) drops.
//! * [`MsgBuf::into_vec`] recovers an owned `Vec<u8>`: free when this view is
//!   the sole owner of the whole region (the common receive path), a single
//!   copy otherwise.
//!
//! The only *intentional* copy on the zero-copy path is the initial pack into
//! the region; [`crate::MeteredComm`] counts every other copy so tests can
//! assert there are none.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::{Arc, OnceLock};

/// A cheap, clonable, immutable slice of a reference-counted byte region.
///
/// See the module docs for the ownership model.
#[derive(Clone)]
pub struct MsgBuf {
    /// `Arc<Vec<u8>>` rather than `Arc<[u8]>`: converting a `Vec` into an
    /// `Arc<[u8]>` copies the payload into a fresh allocation, while
    /// `Arc::new(vec)` just moves the (pointer, len, cap) triple.
    data: Arc<Vec<u8>>,
    start: usize,
    len: usize,
}

impl MsgBuf {
    /// An empty message. Shares one static region: repeated calls (barriers
    /// send millions of empty messages) allocate nothing after the first.
    pub fn new() -> Self {
        static EMPTY: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
        let data = Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new())));
        MsgBuf { data, start: 0, len: 0 }
    }

    /// Wrap an owned `Vec` without copying it.
    pub fn from_vec(v: Vec<u8>) -> Self {
        let len = v.len();
        MsgBuf { data: Arc::new(v), start: 0, len }
    }

    /// Copy a borrowed slice into a fresh region (the compat-path pack).
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Self::from_vec(s.to_vec())
    }

    /// A sub-view of this view. Shares the backing region: no allocation, no
    /// copy. Accepts any range syntax (`a..b`, `a..`, `..b`, `..`).
    ///
    /// # Panics
    /// If the range is out of bounds of *this view* (not the whole region).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(lo <= hi && hi <= self.len, "slice {lo}..{hi} out of bounds of view of len {}", self.len);
        MsgBuf { data: Arc::clone(&self.data), start: self.start + lo, len: hi - lo }
    }

    /// Byte length of this view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether this view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes of this view.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.start + self.len]
    }

    /// Recover an owned `Vec<u8>`.
    ///
    /// Free (pointer steal) when this view is the unique owner of the whole
    /// region — the common case for a just-received whole message. Otherwise
    /// one copy of this view's bytes.
    pub fn into_vec(self) -> Vec<u8> {
        if self.start == 0 && self.len == self.data.len() {
            match Arc::try_unwrap(self.data) {
                Ok(v) => return v,
                Err(shared) => return shared[..self.len].to_vec(),
            }
        }
        self.as_slice().to_vec()
    }

    /// Number of live views of the backing region (diagnostics/tests).
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.data)
    }
}

impl Default for MsgBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for MsgBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for MsgBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for MsgBuf {
    fn from(v: Vec<u8>) -> Self {
        Self::from_vec(v)
    }
}

impl From<&[u8]> for MsgBuf {
    fn from(s: &[u8]) -> Self {
        Self::copy_from_slice(s)
    }
}

impl std::fmt::Debug for MsgBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MsgBuf")
            .field("start", &self.start)
            .field("len", &self.len)
            .field("region", &self.data.len())
            .finish()
    }
}

impl PartialEq for MsgBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for MsgBuf {}

impl PartialEq<[u8]> for MsgBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for MsgBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_does_not_copy() {
        let v = vec![1u8, 2, 3];
        let ptr = v.as_ptr();
        let b = MsgBuf::from_vec(v);
        assert_eq!(b.as_slice().as_ptr(), ptr, "from_vec must move, not copy");
        let back = b.into_vec();
        assert_eq!(back.as_ptr(), ptr, "unique into_vec must steal the region");
    }

    #[test]
    fn slices_share_the_region() {
        let b = MsgBuf::from_vec((0u8..32).collect());
        let lo = b.slice(..16);
        let hi = b.slice(16..);
        assert_eq!(lo.len(), 16);
        assert_eq!(&hi[..4], &[16, 17, 18, 19]);
        assert_eq!(b.ref_count(), 3);
        // Sub-slicing composes: offsets are relative to the view.
        assert_eq!(hi.slice(4..8), b.slice(20..24));
        drop((lo, hi));
        assert_eq!(b.ref_count(), 1);
    }

    #[test]
    fn shared_into_vec_copies_just_the_view() {
        let b = MsgBuf::from_vec(vec![9u8; 64]);
        let part = b.slice(8..24);
        assert_eq!(part.into_vec(), vec![9u8; 16]);
        assert_eq!(b.len(), 64); // original untouched
    }

    #[test]
    fn empty_is_shared_and_cheap() {
        let a = MsgBuf::new();
        let b = MsgBuf::new();
        assert!(a.is_empty() && b.is_empty());
        assert_eq!(a, b);
        assert!(a.ref_count() >= 2, "empty buffers share one static region");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        MsgBuf::from_vec(vec![0; 4]).slice(2..6);
    }

    #[test]
    fn equality_and_conversions() {
        let b: MsgBuf = vec![1u8, 2, 3].into();
        assert_eq!(b, vec![1u8, 2, 3]);
        assert_eq!(b, *[1u8, 2, 3].as_slice());
        let c: MsgBuf = [1u8, 2, 3].as_slice().into();
        assert_eq!(b, c);
    }
}
