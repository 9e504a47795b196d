//! Block-size sources: where a trace generator reads `size(src, dst)` from.

use bruck_workload::{Distribution, SizeMatrix, SizeRow};

/// Anything that can answer "how many bytes does `src` send to `dst`?".
///
/// Implementations must be cheap per query — trace generation at
/// `P = 32768` issues hundreds of millions of queries.
pub trait SizeSource: Sync {
    /// Communicator size.
    fn p(&self) -> usize;
    /// Bytes sent from `src` to `dst`.
    fn size(&self, src: usize, dst: usize) -> usize;
    /// The global maximum block size `N` (the padding bound the algorithms
    /// obtain via allreduce).
    fn n_max(&self) -> usize;

    /// Total bytes `src` sends.
    fn row_sum(&self, src: usize) -> u64 {
        (0..self.p()).map(|d| self.size(src, d) as u64).sum()
    }

    /// Total bytes `dst` receives.
    fn col_sum(&self, dst: usize) -> u64 {
        (0..self.p()).map(|s| self.size(s, dst) as u64).sum()
    }
}

/// A lazy source backed by a keyed [`Distribution`] — O(1) per query, no
/// `P × P` materialization, usable at `P = 32768`. What it does hold is one
/// [`SizeRow`] per rank: the part of the keyed function that depends only on
/// the source rank (the power-law permutation above all) is paid `P` times
/// at construction instead of once per query.
#[derive(Debug, Clone)]
pub struct DistSource {
    rows: Vec<SizeRow>,
    n_cap: usize,
}

impl DistSource {
    /// The `(dist, seed)` workload on `p` ranks with maximum block size
    /// parameter `n_cap`.
    pub fn new(dist: Distribution, seed: u64, p: usize, n_cap: usize) -> Self {
        DistSource { rows: (0..p).map(|src| dist.row(seed, src, p, n_cap)).collect(), n_cap }
    }
}

impl SizeSource for DistSource {
    fn p(&self) -> usize {
        self.rows.len()
    }

    fn size(&self, src: usize, dst: usize) -> usize {
        self.rows[src].size(dst)
    }

    /// The distribution cap. For every scheme the realized global maximum of
    /// `P²` draws converges to the cap (uniform/windowed/normal are bounded
    /// by it and hit it w.h.p.; power-law's `j = 0` block *is* it).
    fn n_max(&self) -> usize {
        self.n_cap
    }
}

/// A source backed by an explicit matrix (tests, application workloads).
pub struct MatrixSource<'a>(pub &'a SizeMatrix);

impl SizeSource for MatrixSource<'_> {
    fn p(&self) -> usize {
        self.0.p()
    }

    fn size(&self, src: usize, dst: usize) -> usize {
        self.0.get(src, dst)
    }

    fn n_max(&self) -> usize {
        self.0.global_max()
    }

    fn row_sum(&self, src: usize) -> u64 {
        self.0.bytes_sent(src) as u64
    }

    fn col_sum(&self, dst: usize) -> u64 {
        self.0.bytes_received(dst) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_source_matches_sample_rows() {
        let s = DistSource::new(Distribution::Uniform, 77, 32, 200);
        for src in [0usize, 5, 31] {
            let row = Distribution::Uniform.sample_row(77, src, 32, 200);
            for (dst, &sz) in row.iter().enumerate() {
                assert_eq!(s.size(src, dst), sz);
            }
            assert_eq!(s.row_sum(src), row.iter().map(|&x| x as u64).sum::<u64>());
        }
    }

    #[test]
    fn matrix_source_agrees_with_matrix() {
        let m = SizeMatrix::generate(Distribution::Normal, 3, 10, 100);
        let s = MatrixSource(&m);
        assert_eq!(s.p(), 10);
        assert_eq!(s.n_max(), m.global_max());
        assert_eq!(s.col_sum(4), m.bytes_received(4) as u64);
        assert_eq!(s.size(2, 7), m.get(2, 7));
    }

    #[test]
    fn row_and_col_sums_are_transposes() {
        let s = DistSource::new(Distribution::Uniform, 5, 16, 64);
        let total_rows: u64 = (0..16).map(|r| s.row_sum(r)).sum();
        let total_cols: u64 = (0..16).map(|c| s.col_sum(c)).sum();
        assert_eq!(total_rows, total_cols);
    }
}
