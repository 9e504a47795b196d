//! Sample statistics. A metric's value is the **mean of the best twentieth**
//! of its samples (at least three).
//!
//! Why the low tail (AA_REPORT.md has the numbers): `run.sh` pins a run to one
//! CPU, so the program under test is deterministic and everything else on the
//! shared host can only add time. A cell's samples are a floor plus
//! interference whose amount changes from minute to minute; the median of a
//! cell moves by a third between identical runs, the mean of its fastest
//! twentieth by a few percent. The lower the tail the better it repeats (best
//! decile, best twentieth, best three and minimum rank in that order on all
//! three workloads); a twentieth of the 80 or more samples a run takes keeps
//! four of them in the mean, so one lucky sample does not decide the value.

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending-sorted,
/// non-empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// What is printed for one series of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Mean of the fastest twentieth of the samples (at least three, or all
    /// there are): the metric's value.
    pub best: f64,
    /// Median, printed for the reader only.
    pub median: f64,
    /// 90th percentile, printed for the reader only.
    pub p90: f64,
    /// Smallest sample, printed for the reader only.
    pub min: f64,
    /// Number of samples.
    pub n: usize,
}

/// Summarise a non-empty series of samples.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let twentieth = ((sorted.len() as f64 / 20.0).round() as usize)
        .max(3)
        .min(sorted.len());
    Summary {
        best: sorted[..twentieth].iter().sum::<f64>() / twentieth as f64,
        median: quantile_sorted(&sorted, 0.5),
        p90: quantile_sorted(&sorted, 0.9),
        min: sorted[0],
        n: sorted.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&xs, 0.0), 1.0);
        assert_eq!(quantile_sorted(&xs, 0.5), 3.0);
        assert_eq!(quantile_sorted(&xs, 1.0), 5.0);
        assert!((quantile_sorted(&xs, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(quantile_sorted(&[7.0], 0.1), 7.0);
    }

    #[test]
    fn summary_of_unsorted_samples() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!((s.min, s.best, s.median, s.n), (1.0, 3.0, 50.5, 100));
        assert_eq!(summarize(&samples[80..]).best, 2.0);
        assert_eq!(summarize(&[5.0, 1.0]).best, 3.0);
    }
}
