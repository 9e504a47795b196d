//! Layout combinators: build complex derived datatypes from simpler ones,
//! mirroring MPI's constructor family (`MPI_Type_contiguous`,
//! `MPI_Type_vector`, `MPI_Type_indexed`, `MPI_Type_create_struct`,
//! `MPI_Type_create_resized`), plus the coalescing optimization every real
//! datatype engine performs before committing a type.

use crate::{DatatypeError, IndexedBlocks};

impl IndexedBlocks {
    /// `count` repetitions of this layout, each shifted by `stride` bytes —
    /// `MPI_Type_contiguous`/`MPI_Type_hvector` over a derived type.
    pub fn repeat(&self, count: usize, stride: usize) -> Result<IndexedBlocks, DatatypeError> {
        let mut blocks = Vec::with_capacity(self.block_count() * count);
        for rep in 0..count {
            let base = rep
                .checked_mul(stride)
                .ok_or(DatatypeError::BadArgument("repeat stride overflows"))?;
            for &(d, l) in self.blocks() {
                blocks.push((
                    base.checked_add(d).ok_or(DatatypeError::BadArgument("repeat offset overflows"))?,
                    l,
                ));
            }
        }
        IndexedBlocks::new(blocks)
    }

    /// Concatenate layouts at explicit byte displacements —
    /// `MPI_Type_create_struct` over derived types.
    pub fn structure(parts: &[(usize, &IndexedBlocks)]) -> Result<IndexedBlocks, DatatypeError> {
        let mut blocks = Vec::new();
        for &(base, part) in parts {
            for &(d, l) in part.blocks() {
                blocks.push((
                    base.checked_add(d)
                        .ok_or(DatatypeError::BadArgument("struct offset overflows"))?,
                    l,
                ));
            }
        }
        IndexedBlocks::new(blocks)
    }

    /// Shift every block by `offset` bytes — the displacement part of
    /// `MPI_Type_create_resized`.
    pub fn shifted(&self, offset: usize) -> Result<IndexedBlocks, DatatypeError> {
        IndexedBlocks::new(
            self.blocks()
                .iter()
                .map(|&(d, l)| {
                    d.checked_add(offset)
                        .map(|nd| (nd, l))
                        .ok_or(DatatypeError::BadArgument("shift overflows"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        )
    }

    /// Merge adjacent and drop empty blocks without changing pack order —
    /// the *commit-time normalization* real MPI datatype engines apply.
    /// Packing through the normalized layout is byte-identical but walks
    /// fewer descriptors.
    #[expect(clippy::expect_used, reason = "merging adjacent valid blocks keeps ends in range")]
    pub fn normalized(&self) -> IndexedBlocks {
        let mut blocks: Vec<(usize, usize)> = Vec::with_capacity(self.block_count());
        for &(d, l) in self.blocks() {
            if l == 0 {
                continue;
            }
            if let Some(last) = blocks.last_mut() {
                if last.0 + last.1 == d {
                    last.1 += l;
                    continue;
                }
            }
            blocks.push((d, l));
        }
        IndexedBlocks::new(blocks).expect("normalization preserves validity")
    }

    /// True when the layout is one contiguous block starting at 0 — the fast
    /// path where a transfer needs no pack/unpack at all.
    pub fn is_contiguous(&self) -> bool {
        let n = self.normalized();
        matches!(n.blocks(), [] | [(0, _)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ty(blocks: &[(usize, usize)]) -> IndexedBlocks {
        IndexedBlocks::new(blocks.to_vec()).unwrap()
    }

    #[test]
    fn repeat_builds_vectors() {
        let base = ty(&[(0, 2)]);
        let v = base.repeat(3, 5).unwrap();
        assert_eq!(v.blocks(), &[(0, 2), (5, 2), (10, 2)]);
        assert_eq!(v.packed_len(), 6);
        // Equivalent to the direct strided constructor.
        assert_eq!(v, IndexedBlocks::strided(3, 2, 5).unwrap());
    }

    #[test]
    fn repeat_of_multi_block_layout() {
        let base = ty(&[(0, 1), (3, 1)]);
        let v = base.repeat(2, 8).unwrap();
        assert_eq!(v.blocks(), &[(0, 1), (3, 1), (8, 1), (11, 1)]);
    }

    #[test]
    fn structure_concatenates_at_offsets() {
        let a = ty(&[(0, 2)]);
        let b = ty(&[(1, 3)]);
        let s = IndexedBlocks::structure(&[(0, &a), (10, &b)]).unwrap();
        assert_eq!(s.blocks(), &[(0, 2), (11, 3)]);
        assert_eq!(s.packed_len(), 5);
    }

    #[test]
    fn shifted_moves_all_blocks() {
        let a = ty(&[(0, 2), (4, 1)]);
        let s = a.shifted(100).unwrap();
        assert_eq!(s.blocks(), &[(100, 2), (104, 1)]);
        assert_eq!(s.packed_len(), a.packed_len());
    }

    #[test]
    fn normalized_merges_adjacent_and_drops_empty() {
        let a = ty(&[(0, 2), (2, 3), (7, 0), (9, 1), (10, 2)]);
        let n = a.normalized();
        assert_eq!(n.blocks(), &[(0, 5), (9, 3)]);
        // Packing is unchanged.
        let src: Vec<u8> = (0..16).collect();
        assert_eq!(a.pack(&src).unwrap(), n.pack(&src).unwrap());
    }

    #[test]
    fn normalized_does_not_merge_out_of_order_blocks() {
        // (4,2) then (0,2): address-adjacent in reverse order must NOT merge
        // (pack order differs from address order).
        let a = ty(&[(4, 2), (0, 2)]);
        let n = a.normalized();
        assert_eq!(n.blocks(), &[(4, 2), (0, 2)]);
    }

    #[test]
    fn contiguity_detection() {
        assert!(ty(&[(0, 8)]).is_contiguous());
        assert!(ty(&[(0, 3), (3, 5)]).is_contiguous());
        assert!(ty(&[]).is_contiguous());
        assert!(ty(&[(0, 0), (0, 4)]).is_contiguous());
        assert!(!ty(&[(1, 4)]).is_contiguous());
        assert!(!ty(&[(0, 2), (3, 2)]).is_contiguous());
    }

    #[test]
    fn composed_roundtrip() {
        // struct(vector, shifted single) — pack/unpack roundtrips.
        let v = IndexedBlocks::strided(2, 3, 4).unwrap();
        let single = ty(&[(0, 2)]).shifted(1).unwrap();
        let s = IndexedBlocks::structure(&[(0, &v), (16, &single)]).unwrap();
        let src: Vec<u8> = (0..32).map(|i| i * 3).collect();
        let packed = s.pack(&src).unwrap();
        let mut dst = vec![0u8; 32];
        s.unpack_from(&packed, &mut dst).unwrap();
        for &(d, l) in s.blocks() {
            assert_eq!(&dst[d..d + l], &src[d..d + l]);
        }
    }
}
