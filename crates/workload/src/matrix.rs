//! Full `P×P` block-size matrices for small-to-moderate process counts.

use crate::Distribution;

/// A dense `P×P` matrix of block sizes: `matrix[src][dst]` is the number of
/// bytes rank `src` sends to rank `dst`.
///
/// Sizes are stored as `u32` (the paper's sweeps top out at `N = 2048` bytes)
/// so that a `P = 4096` matrix stays at 64 MiB. For `P` beyond that the cost
/// model samples rows lazily via [`Distribution::sample_row`] instead of
/// materializing a matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeMatrix {
    p: usize,
    sizes: Vec<u32>,
}

impl SizeMatrix {
    /// Generate a matrix for `p` ranks from `dist` with maximum size `n_max`.
    #[expect(clippy::expect_used, reason = "sizes are u32: a 4 GiB block is a caller error")]
    pub fn generate(dist: Distribution, seed: u64, p: usize, n_max: usize) -> Self {
        let mut sizes = Vec::with_capacity(p * p);
        for src in 0..p {
            let row = dist.sample_row(seed, src, p, n_max);
            sizes.extend(row.into_iter().map(|s| {
                u32::try_from(s).expect("block size exceeds u32; use lazy row sampling")
            }));
        }
        SizeMatrix { p, sizes }
    }

    /// Build from an explicit row-major size table (tests, custom workloads).
    #[expect(clippy::expect_used, reason = "sizes are u32: a 4 GiB block is a caller error")]
    pub fn from_rows(rows: Vec<Vec<usize>>) -> Self {
        let p = rows.len();
        let mut sizes = Vec::with_capacity(p * p);
        for row in &rows {
            assert_eq!(row.len(), p, "size matrix must be square");
            sizes.extend(row.iter().map(|&s| u32::try_from(s).expect("block size exceeds u32")));
        }
        SizeMatrix { p, sizes }
    }

    /// A uniform matrix: every block exactly `n` bytes.
    #[expect(clippy::expect_used, reason = "sizes are u32: a 4 GiB block is a caller error")]
    pub fn uniform(p: usize, n: usize) -> Self {
        SizeMatrix { p, sizes: vec![u32::try_from(n).expect("block size exceeds u32"); p * p] }
    }

    /// Number of ranks.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Bytes sent from `src` to `dst`.
    #[inline]
    pub fn get(&self, src: usize, dst: usize) -> usize {
        self.sizes[src * self.p + dst] as usize
    }

    /// Row view: all sizes `src` sends, indexed by destination.
    pub fn row(&self, src: usize) -> impl Iterator<Item = usize> + '_ {
        self.sizes[src * self.p..(src + 1) * self.p].iter().map(|&s| s as usize)
    }

    /// Row as a `Vec<usize>` (the `sendcounts` array of an `alltoallv`).
    pub fn sendcounts(&self, src: usize) -> Vec<usize> {
        self.row(src).collect()
    }

    /// Column as a `Vec<usize>` (the `recvcounts` array of an `alltoallv`).
    pub fn recvcounts(&self, dst: usize) -> Vec<usize> {
        (0..self.p).map(|src| self.get(src, dst)).collect()
    }

    /// Largest block size in the whole matrix (the paper's global `N`).
    pub fn global_max(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0) as usize
    }

    /// Total bytes rank `src` sends (including its self-block).
    pub fn bytes_sent(&self, src: usize) -> usize {
        self.row(src).sum()
    }

    /// Total bytes rank `dst` receives (including its self-block).
    pub fn bytes_received(&self, dst: usize) -> usize {
        self.recvcounts(dst).iter().sum()
    }

    /// Total bytes crossing the communicator (sum of all blocks).
    pub fn total_bytes(&self) -> usize {
        self.sizes.iter().map(|&s| s as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_matches_sample_row() {
        let m = SizeMatrix::generate(Distribution::Uniform, 5, 8, 100);
        for src in 0..8 {
            let row = Distribution::Uniform.sample_row(5, src, 8, 100);
            assert_eq!(m.sendcounts(src), row);
        }
    }

    #[test]
    fn recvcounts_is_column() {
        let rows = vec![vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]];
        let m = SizeMatrix::from_rows(rows);
        assert_eq!(m.recvcounts(0), vec![1, 4, 7]);
        assert_eq!(m.recvcounts(2), vec![3, 6, 9]);
        assert_eq!(m.bytes_sent(1), 15);
        assert_eq!(m.bytes_received(1), 15);
        assert_eq!(m.total_bytes(), 45);
        assert_eq!(m.global_max(), 9);
    }

    #[test]
    fn uniform_matrix() {
        let m = SizeMatrix::uniform(4, 32);
        assert_eq!(m.total_bytes(), 4 * 4 * 32);
        assert_eq!(m.global_max(), 32);
        assert!(m.row(2).all(|s| s == 32));
    }

    #[test]
    #[should_panic(expected = "square")]
    fn from_rows_rejects_ragged() {
        SizeMatrix::from_rows(vec![vec![1, 2], vec![3]]);
    }
}
