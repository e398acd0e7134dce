//! Deterministic pseudo-random number generation.
//!
//! The simulator must be bit-for-bit reproducible across runs and platforms,
//! so we implement our own small generators rather than depending on an
//! external crate whose stream might change between versions:
//!
//! * [`Rng`] (xoshiro256\*\*) — the general-purpose generator used by every
//!   stochastic model (arrival processes, runtime jitter, input generation),
//!   seeded from a single `u64` through SplitMix64.

/// SplitMix64 generator (Steele, Lea & Flood), used for seeding.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\* generator (Blackman & Vigna): fast, high-quality, and
/// fully deterministic for a given seed.
///
/// # Examples
///
/// ```
/// use microfaas_sim::Rng;
///
/// let mut rng = Rng::new(7);
/// let roll = rng.range_u64(1, 7); // a six-sided die
/// assert!((1..=6).contains(&roll));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator, expanding `seed` with SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Rng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniformly distributed integer in `[lo, hi)` using rejection
    /// sampling (no modulo bias).
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        let zone = rejection_zone(span);
        loop {
            let v = self.next_u64();
            if v <= zone {
                return lo + v % span;
            }
        }
    }

    /// Returns a uniformly distributed `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.range_u64(0, n as u64) as usize
    }

    /// Returns a uniformly distributed value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bad range [{lo}, {hi})"
        );
        lo + self.next_f64() * (hi - lo)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.next_f64() < p
    }

    /// Draws from an exponential distribution with the given mean
    /// (inter-arrival times of a Poisson process).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "mean must be positive, got {mean}"
        );
        // Inverse-CDF; 1 - u avoids ln(0).
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Draws from a normal distribution via Box–Muller.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is not finite.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(
            mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0,
            "bad normal parameters ({mean}, {std_dev})"
        );
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        mean + std_dev * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fills `buf` with pseudo-random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Draws an index from the discrete distribution `cdf` describes.
    /// Consumes exactly one `f64` draw regardless of table size (binary
    /// search), which keeps multi-way choices — function popularity,
    /// tenant classes — a fixed cost on the RNG stream.
    ///
    /// # Examples
    ///
    /// ```
    /// use microfaas_sim::{CdfTable, Rng};
    ///
    /// // 80% item 0, 20% item 1.
    /// let mut rng = Rng::new(7);
    /// let cdf = CdfTable::new(vec![0.8, 1.0]);
    /// let hits = (0..10_000).filter(|_| rng.cdf_index(&cdf) == 0).count();
    /// assert!((7_700..8_300).contains(&hits), "got {hits}");
    /// ```
    pub fn cdf_index(&mut self, cdf: &CdfTable) -> usize {
        let table = &cdf.0;
        let target = self.next_f64() * table[table.len() - 1];
        // First entry strictly above the target; the final entry catches
        // target == total only when rounding produces it (next_f64 < 1).
        table.partition_point(|&w| w <= target).min(table.len() - 1)
    }
}

/// A discrete distribution as a cumulative weight table, checked once
/// when it is built so that [`Rng::cdf_index`] draws without checking:
/// entry `i` holds the total weight of items `0..=i`, so the table is
/// non-decreasing and ends at the total weight. Weights need not be
/// normalized.
#[derive(Debug, Clone, PartialEq)]
pub struct CdfTable(Vec<f64>);

impl CdfTable {
    /// Checks and wraps a cumulative weight table.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty, non-monotone, or its total weight
    /// is not positive and finite.
    pub fn new(cdf: Vec<f64>) -> Self {
        let total = *cdf.last().expect("cumulative table must be non-empty");
        assert!(
            total.is_finite() && total > 0.0,
            "total weight must be positive, got {total}"
        );
        assert!(
            cdf.windows(2).all(|w| w[0] <= w[1]),
            "cumulative table must be non-decreasing"
        );
        CdfTable(cdf)
    }
}

/// The largest draw `range_u64` accepts for a nonzero `span`. Above it
/// lie the `(u64::MAX % span + 1) % span` values that would bias the
/// modulo; `u64::MAX % span + 1` is at most `span`, so the outer modulo
/// only maps `span` to zero, and one division does.
fn rejection_zone(span: u64) -> u64 {
    let r = u64::MAX % span;
    u64::MAX - if r + 1 == span { 0 } else { r + 1 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(123);
        let mut b = Rng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::new(9);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v), "out of range: {v}");
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = Rng::new(4);
        for _ in 0..10_000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn range_hits_all_values() {
        let mut rng = Rng::new(5);
        let mut seen = [false; 6];
        for _ in 0..1_000 {
            seen[rng.range_u64(0, 6) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some die faces never rolled");
    }

    /// `range_u64` with its rejection zone computed by two divisions, the
    /// reference for the one-division zone.
    fn two_division_range(rng: &mut Rng, lo: u64, hi: u64) -> u64 {
        let span = hi - lo;
        let zone = u64::MAX - (u64::MAX % span + 1) % span;
        loop {
            let v = rng.next_u64();
            if v <= zone {
                return lo + v % span;
            }
        }
    }

    const ZONE_SPANS: [u64; 9] = [1, 2, 3, 17, 1024, 16384, 1 << 63, (1 << 63) + 1, u64::MAX];

    #[test]
    fn one_division_zone_matches_two_divisions() {
        for span in ZONE_SPANS {
            assert_eq!(
                rejection_zone(span),
                u64::MAX - (u64::MAX % span + 1) % span,
                "span {span}"
            );
        }
    }

    #[test]
    fn draws_match_the_two_division_reference() {
        for (i, span) in ZONE_SPANS.into_iter().enumerate() {
            let lo = [0, 5, u64::MAX - span][i % 3];
            let mut fast = Rng::new(span);
            let mut reference = fast.clone();
            for _ in 0..100_000 {
                assert_eq!(
                    fast.range_u64(lo, lo + span),
                    two_division_range(&mut reference, lo, lo + span),
                    "span {span}"
                );
            }
            assert_eq!(fast, reference, "both consumed the same stream");
        }
        let mut fast = Rng::new(2022);
        let mut reference = fast.clone();
        for n in (1..=340).cycle().take(100_000) {
            let want = two_division_range(&mut reference, 0, n as u64) as usize;
            assert_eq!(fast.index(n), want);
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = Rng::new(11);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| rng.exponential(2.0)).sum();
        let mean = total / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean} too far from 2.0");
    }

    #[test]
    fn normal_moments_converge() {
        let mut rng = Rng::new(13);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05);
        assert!((var - 4.0).abs() < 0.15);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::new(23);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = Rng::new(29);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn cdf_index_respects_weights() {
        let mut rng = Rng::new(37);
        // Weights 1 : 3 : 6 (unnormalized).
        let cdf = CdfTable::new(vec![1.0, 4.0, 10.0]);
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            counts[rng.cdf_index(&cdf)] += 1;
        }
        assert!((800..1_200).contains(&counts[0]), "{counts:?}");
        assert!((2_700..3_300).contains(&counts[1]), "{counts:?}");
        assert!((5_700..6_300).contains(&counts[2]), "{counts:?}");
    }

    #[test]
    fn cdf_index_handles_zero_weight_prefix() {
        let mut rng = Rng::new(41);
        // Item 0 carries no mass; it must never be drawn.
        let cdf = CdfTable::new(vec![0.0, 1.0]);
        assert!((0..1_000).all(|_| rng.cdf_index(&cdf) == 1));
    }

    #[test]
    #[should_panic(expected = "must be non-decreasing")]
    fn cdf_index_rejects_non_monotone_tables() {
        CdfTable::new(vec![2.0, 1.0, 3.0]);
    }
}
