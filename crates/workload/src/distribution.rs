//! Block-size distributions (§4.1–§4.3 of the paper).
//!
//! Sizes are *keyed*: [`Distribution::block_size`] is a pure O(1) function of
//! `(seed, src, dst)`, so the cost model can evaluate exact per-step traffic
//! at `P = 32768` without materializing a `P×P` matrix. Row sampling is
//! defined in terms of the keyed function.

/// A block-size distribution scheme. All schemes are parameterized at sample
/// time by the maximum block size `N` (bytes), matching the paper's sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Continuous uniform on `[0, N]` — §4.1. Mean block size `N/2`.
    Uniform,
    /// Uniform on `[(100 − r)% · N, N]` — §4.2 sensitivity analysis.
    /// `r = 100` degenerates to [`Distribution::Uniform`]; `r = 0` makes every
    /// block exactly `N` bytes.
    Windowed {
        /// Window width percentage `r ∈ [0, 100]`.
        r: u32,
    },
    /// Gaussian with mean `N/2`, σ = `N/6`, windowed to `(−3σ, +3σ)` (i.e.
    /// `[0, N]`) — §4.3. Out-of-window draws are re-sampled.
    Normal,
    /// Power-law (exponential) decay: the rank's `P` blocks take sizes
    /// `N · baseʲ` for `j = 0..P`, assigned to destinations by a keyed
    /// pseudorandom permutation — §4.3. The paper evaluates a base of 0.99
    /// and a second, heavier variant; we use 0.999 for the latter
    /// (see DESIGN.md).
    PowerLaw {
        /// Decay base in `(0, 1)`.
        base: f64,
    },
    /// Destination-hotspot imbalance: one destination rank in every
    /// `spacing` receives full-`N` blocks while all others receive
    /// `N / damping` uniform blocks — the "degree of imbalance" axis the
    /// paper's abstract sweeps, in its incast form.
    Hotspot {
        /// Every `spacing`-th destination is hot (≥ 1).
        spacing: u32,
        /// Cold destinations draw from `[0, N / damping]` (≥ 1).
        damping: u32,
    },
}

impl Distribution {
    /// The steeper power-law variant evaluated in the paper's Figure 10.
    pub const POWER_LAW_STEEP: Distribution = Distribution::PowerLaw { base: 0.99 };
    /// The heavier power-law variant (larger total volume).
    pub const POWER_LAW_HEAVY: Distribution = Distribution::PowerLaw { base: 0.999 };

    /// Expected block size in bytes for maximum size `n_max` and `p` blocks.
    ///
    /// Used by the analytic cost model; exact for `Uniform`/`Windowed`,
    /// the ±3σ window makes `Normal` effectively exact at `n_max/2`, and
    /// `PowerLaw` follows the geometric series sum.
    pub fn mean_size(&self, n_max: usize, p: usize) -> f64 {
        let n = n_max as f64;
        match *self {
            Distribution::Uniform => n / 2.0,
            Distribution::Windowed { r } => {
                let lo = n * (100 - r.min(100)) as f64 / 100.0;
                (lo + n) / 2.0
            }
            Distribution::Normal => n / 2.0,
            Distribution::PowerLaw { base } => {
                if p == 0 {
                    0.0
                } else {
                    n * (1.0 - base.powi(p as i32)) / ((1.0 - base) * p as f64)
                }
            }
            Distribution::Hotspot { spacing, damping } => {
                let spacing = f64::from(spacing.max(1));
                let cold_mean = n / (2.0 * f64::from(damping.max(1)));
                (n / 2.0) / spacing + cold_mean * (1.0 - 1.0 / spacing)
            }
        }
    }

    /// Short label used by the figure harnesses.
    pub fn label(&self) -> String {
        match *self {
            Distribution::Uniform => "uniform".into(),
            Distribution::Windowed { r } => format!("{}-{}", 100 - r.min(100), r.min(100)),
            Distribution::Normal => "normal".into(),
            Distribution::PowerLaw { base } => format!("powerlaw({base})"),
            Distribution::Hotspot { spacing, damping } => {
                format!("hotspot(1/{spacing}, /{damping})")
            }
        }
    }

    /// The exact byte size of the block rank `src` sends to rank `dst`, for a
    /// `p`-rank communicator and maximum block size `n_max`.
    ///
    /// Pure and O(1) in `(seed, src, dst)` (amortized O(1) for `Normal`'s
    /// rejection loop), deterministic across platforms. Many queries against
    /// one `src` are cheaper through [`Distribution::row`].
    pub fn block_size(&self, seed: u64, src: usize, dst: usize, p: usize, n_max: usize) -> usize {
        self.row(seed, src, p, n_max).size(dst)
    }

    /// Rank `src`'s row of the keyed size function, with everything that
    /// depends only on `(seed, src)` — the row hash, the power-law
    /// permutation — computed once: `row.size(dst)` is
    /// [`Distribution::block_size`].
    pub fn row(&self, seed: u64, src: usize, p: usize, n_max: usize) -> SizeRow {
        debug_assert!(src < p);
        let (affine, zero_from) = match *self {
            Distribution::PowerLaw { base } => {
                assert!(base > 0.0 && base < 1.0, "power-law base must be in (0, 1)");
                // Keyed pseudorandom permutation of destinations onto decay
                // positions: an affine bijection j = (a·dst + b) mod p with
                // gcd(a, p) = 1.
                let h = splitmix64(seed ^ (src as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                // N·baseʲ < ½ rounds to zero from j = ln(2N) / −ln(base) on;
                // two positions of margin (a factor base² ≪ 1 − ulp) make
                // skipping `powi` there exact.
                let zero_from = ((2.0 * n_max as f64).ln() / -base.ln()).ceil() as usize + 2;
                (affine_coeffs(h, p), zero_from)
            }
            _ => ((0, 0), 0),
        };
        SizeRow {
            dist: *self,
            seed,
            src: src as u64,
            key: row_key(seed, src as u64),
            p,
            n_max,
            affine,
            zero_from,
        }
    }

    /// Sample one rank's row of `p` destination block sizes with maximum
    /// `n_max`: `row[dst] = block_size(seed, rank, dst, p, n_max)`.
    pub fn sample_row(&self, seed: u64, rank: usize, p: usize, n_max: usize) -> Vec<usize> {
        let row = self.row(seed, rank, p, n_max);
        (0..p).map(|dst| row.size(dst)).collect()
    }
}

/// One rank's row of a [`Distribution`]'s keyed size function — see
/// [`Distribution::row`].
#[derive(Debug, Clone, Copy)]
pub struct SizeRow {
    dist: Distribution,
    seed: u64,
    src: u64,
    /// `(seed, src)` mixed: the row half of the `(seed, src, dst)` hash.
    key: u64,
    p: usize,
    n_max: usize,
    /// Power-law only: the permutation `j = (a·dst + b) mod p`.
    affine: (usize, usize),
    /// Power-law only: decay positions from here on round to zero bytes.
    zero_from: usize,
}

impl SizeRow {
    /// Bytes this row's rank sends to rank `dst`.
    pub fn size(&self, dst: usize) -> usize {
        debug_assert!(dst < self.p);
        let n = self.n_max as f64;
        let unit = || unit_f64(mix_dst(self.key, dst as u64));
        match self.dist {
            Distribution::Uniform => (unit() * n).round() as usize,
            Distribution::Windowed { r } => {
                let lo = (n * (100 - r.min(100)) as f64 / 100.0).round();
                (lo + unit() * (n - lo)).round() as usize
            }
            Distribution::Normal => {
                let (mean, sigma) = (n / 2.0, n / 6.0);
                let mut ctr = 0u64;
                loop {
                    // Out-of-window draws re-key the whole hash with a counter.
                    let x1 = if ctr == 0 {
                        mix_dst(self.key, dst as u64)
                    } else {
                        let seed = self.seed ^ ctr.wrapping_mul(0xA24B_AED4_963E_E407);
                        mix_dst(row_key(seed, self.src), dst as u64)
                    };
                    let z = box_muller(unit_open_f64(x1), unit_f64(splitmix64(x1)));
                    if z.abs() <= 3.0 {
                        return (mean + sigma * z).round().clamp(0.0, n) as usize;
                    }
                    ctr += 1;
                }
            }
            Distribution::Hotspot { spacing, damping } => {
                if dst as u32 % spacing.max(1) == 0 {
                    (unit() * n).round() as usize
                } else {
                    (unit() * n / f64::from(damping.max(1))).round() as usize
                }
            }
            Distribution::PowerLaw { base } => {
                let (a, b) = self.affine;
                let j = (a * dst + b) % self.p;
                if j >= self.zero_from {
                    0
                } else {
                    (n * base.powi(j as i32)).round() as usize
                }
            }
        }
    }
}

/// Affine permutation coefficients for modulus `p`: `a` coprime to `p`,
/// arbitrary offset `b`.
fn affine_coeffs(h: u64, p: usize) -> (usize, usize) {
    let b = (splitmix64(h) % p.max(1) as u64) as usize;
    let mut a = (h % p.max(1) as u64) as usize | 1; // odd helps for even p
    if a == 0 {
        a = 1;
    }
    while gcd(a, p) != 1 {
        a += 2;
        if a >= p {
            a = 1;
        }
    }
    (a, b)
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

use crate::rng::splitmix64;

/// The row half of the `(seed, src, dst)` hash…
#[inline]
fn row_key(seed: u64, src: u64) -> u64 {
    splitmix64(seed ^ src.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// …and the destination half: together one well-distributed u64 per block.
#[inline]
fn mix_dst(row_key: u64, dst: u64) -> u64 {
    splitmix64(row_key ^ dst.wrapping_mul(0xCA5A_8268_5916_3693))
}

/// Map a u64 to [0, 1].
#[inline]
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Map a u64 to (0, 1] (safe for `ln`).
#[inline]
fn unit_open_f64(x: u64) -> f64 {
    ((x >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// One standard-normal draw via Box–Muller from two uniforms.
#[inline]
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_row_is_bounded_and_deterministic() {
        let a = Distribution::Uniform.sample_row(42, 3, 100, 256);
        let b = Distribution::Uniform.sample_row(42, 3, 100, 256);
        assert_eq!(a, b);
        assert!(a.iter().all(|&s| s <= 256));
        let c = Distribution::Uniform.sample_row(42, 4, 100, 256);
        assert_ne!(a, c, "different ranks must get independent rows");
    }

    #[test]
    fn block_size_is_consistent_with_rows() {
        for dist in [Distribution::Uniform, Distribution::Normal, Distribution::POWER_LAW_STEEP] {
            let row = dist.sample_row(9, 5, 64, 500);
            for (dst, &sz) in row.iter().enumerate() {
                assert_eq!(sz, dist.block_size(9, 5, dst, 64, 500));
            }
        }
    }

    #[test]
    fn uniform_mean_is_half_n() {
        let row = Distribution::Uniform.sample_row(7, 0, 20_000, 1000);
        let mean = row.iter().sum::<usize>() as f64 / row.len() as f64;
        assert!((mean - 500.0).abs() < 15.0, "mean {mean} too far from 500");
    }

    #[test]
    fn windowed_row_respects_window() {
        for r in [0u32, 20, 50, 80, 100] {
            let row = Distribution::Windowed { r }.sample_row(1, 0, 2000, 1000);
            let lo = (1000 * (100 - r) as usize) / 100;
            assert!(row.iter().all(|&s| s >= lo && s <= 1000), "r={r}");
        }
    }

    #[test]
    fn windowed_zero_is_constant_n() {
        let row = Distribution::Windowed { r: 0 }.sample_row(1, 5, 64, 512);
        assert!(row.iter().all(|&s| s == 512));
    }

    #[test]
    fn normal_row_statistics() {
        let row = Distribution::Normal.sample_row(3, 0, 50_000, 600);
        assert!(row.iter().all(|&s| s <= 600));
        let mean = row.iter().sum::<usize>() as f64 / row.len() as f64;
        assert!((mean - 300.0).abs() < 5.0, "mean {mean}");
        let var = row.iter().map(|&s| (s as f64 - mean).powi(2)).sum::<f64>() / row.len() as f64;
        let sigma = var.sqrt();
        assert!((sigma - 100.0).abs() < 5.0, "sigma {sigma}");
    }

    #[test]
    fn power_law_is_permuted_geometric_decay() {
        // P well past the position where blocks round to zero bytes, so the
        // row's skip of `powi` there is held to the formula too.
        for (base, p, n) in [(0.99f64, 512usize, 1024usize), (0.99, 4096, 1024), (0.999, 20_000, 7), (0.5, 64, 0)] {
            let row = Distribution::PowerLaw { base }.sample_row(9, 2, p, n);
            let mut sorted = row.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let expect: Vec<usize> =
                (0..p).map(|j| (n as f64 * base.powi(j as i32)).round() as usize).collect();
            assert_eq!(sorted, expect, "base {base} p {p} n {n}");
        }
    }

    #[test]
    fn power_law_permutations_differ_across_ranks() {
        let p = 128;
        let r0 = Distribution::POWER_LAW_STEEP.sample_row(9, 0, p, 1024);
        let r1 = Distribution::POWER_LAW_STEEP.sample_row(9, 1, p, 1024);
        assert_ne!(r0, r1);
    }

    #[test]
    fn power_law_total_tracks_geometric_sum() {
        // The paper: total per-process volume with base 0.99 is ~100·N;
        // the heavy variant is many times that.
        let p = 4096;
        let steep: usize = Distribution::POWER_LAW_STEEP.sample_row(1, 0, p, 1024).iter().sum();
        let heavy: usize = Distribution::POWER_LAW_HEAVY.sample_row(1, 0, p, 1024).iter().sum();
        assert!(steep < 110 * 1024, "steep total {steep}");
        assert!(heavy > 5 * steep, "heavy {heavy} vs steep {steep}");
    }

    #[test]
    fn mean_size_matches_samples() {
        let p = 20_000;
        for dist in [
            Distribution::Uniform,
            Distribution::Windowed { r: 30 },
            Distribution::Normal,
            Distribution::POWER_LAW_STEEP,
        ] {
            let row = dist.sample_row(11, 0, p, 800);
            let emp = row.iter().sum::<usize>() as f64 / p as f64;
            let model = dist.mean_size(800, p);
            assert!(
                (emp - model).abs() / model.max(1.0) < 0.05,
                "{}: empirical {emp} vs model {model}",
                dist.label()
            );
        }
    }

    #[test]
    fn hotspot_concentrates_on_spaced_destinations() {
        let dist = Distribution::Hotspot { spacing: 4, damping: 16 };
        let p = 4096;
        let row = dist.sample_row(3, 0, p, 1024);
        let hot: Vec<usize> = row.iter().copied().step_by(4).collect();
        let cold: Vec<usize> = row.iter().copied().skip(1).step_by(4).collect();
        let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len() as f64;
        assert!(mean(&hot) > 10.0 * mean(&cold), "hot {} cold {}", mean(&hot), mean(&cold));
        assert!(row.iter().all(|&s| s <= 1024));
        // mean_size matches the sampled mean.
        let emp = mean(&row);
        let model = dist.mean_size(1024, p);
        assert!((emp - model).abs() / model < 0.05, "emp {emp} vs model {model}");
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(Distribution::Windowed { r: 50 }.label(), "50-50");
        assert_eq!(Distribution::Windowed { r: 80 }.label(), "20-80");
        assert_eq!(Distribution::Uniform.label(), "uniform");
        assert_eq!(Distribution::Hotspot { spacing: 8, damping: 32 }.label(), "hotspot(1/8, /32)");
    }

    #[test]
    fn affine_coeffs_always_coprime() {
        for p in [2usize, 3, 4, 6, 12, 17, 100, 4096] {
            for h in 0..50u64 {
                let (a, _) = affine_coeffs(splitmix64(h), p);
                assert_eq!(gcd(a, p), 1, "p={p} h={h} a={a}");
                // And the affine map is a bijection.
                let b = 3 % p;
                let mut seen = vec![false; p];
                for x in 0..p {
                    let y = (a * x + b) % p;
                    assert!(!seen[y]);
                    seen[y] = true;
                }
            }
        }
    }
}
