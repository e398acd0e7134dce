//! Measurement helpers: online summary statistics, sample sets with
//! percentiles, and time-weighted values (the basis of energy metering).

use crate::time::SimTime;

/// Streaming mean/variance via Welford's algorithm.
///
/// # Examples
///
/// ```
/// use microfaas_sim::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for v in [2.0, 4.0, 6.0] {
///     s.record(v);
/// }
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    /// Same as [`OnlineStats::new`]. (A derived `Default` would
    /// zero-initialize `min`/`max`, poisoning the first comparison.)
    fn default() -> Self {
        OnlineStats::new()
    }
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite(), "cannot record non-finite value {value}");
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 if fewer than two observations).
    fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (std dev ÷ mean), the scale-free
    /// burstiness measure: exponential inter-arrival gaps give CV ≈ 1,
    /// a fixed tick gives 0, and bursty (MMPP) traffic gives CV > 1.
    /// `NaN` when the mean is zero or nothing was recorded.
    pub fn coefficient_of_variation(&self) -> f64 {
        if self.count == 0 || self.mean == 0.0 {
            f64::NAN
        } else {
            self.std_dev() / self.mean
        }
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A sample collection that retains observations for exact percentiles.
///
/// # Examples
///
/// ```
/// use microfaas_sim::Samples;
///
/// let mut s = Samples::new();
/// s.extend((1..=100).map(f64::from));
/// assert_eq!(s.percentile(50.0), Some(50.0));
/// assert_eq!(s.percentile(99.0), Some(99.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Records one observation.
    ///
    /// The sort cache used by [`Samples::percentile`] survives
    /// monotone appends: recording a value no smaller than the current
    /// maximum of an already-sorted set keeps the set sorted, so
    /// percentile queries interleaved with in-order inserts never
    /// re-sort.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite(), "cannot record non-finite value {value}");
        if self.sorted {
            if let Some(&last) = self.values.last() {
                if value < last {
                    self.sorted = false;
                }
            }
        }
        self.values.push(value);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns true if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (`None` if empty).
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// The `p`-th percentile (nearest-rank), `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.values.is_empty() {
            return None;
        }
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
            self.sorted = true;
        }
        let rank = ((p / 100.0) * self.values.len() as f64).ceil() as usize;
        Some(self.values[rank.saturating_sub(1)])
    }

    /// Immutable view of the recorded values (unspecified order).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl Extend<f64> for Samples {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Samples::new();
        s.extend(iter);
        s
    }
}

/// A streaming quantile estimator with bounded relative error and O(1)
/// memory — the log-bucketed histogram behind the simulator's
/// streaming results path (the DDSketch idea).
///
/// Values map to geometric buckets `γ^i ≤ v < γ^(i+1)` where
/// `γ = (1+ε)/(1−ε)`; a quantile query walks the cumulative counts and
/// returns the matched bucket's midpoint, which is within `ε` relative
/// error of the exact nearest-rank answer. A day-long run's latencies
/// (µs to hours, nine decades) fit in ~2100 buckets at ε = 1%, so
/// memory stays constant no matter how many observations stream
/// through — this is what lets a 10M-job open-loop run report p95
/// without materializing a per-job vector (see `docs/SCALING.md`).
///
/// Recording and querying are fully deterministic: same observations,
/// same answers, on every platform.
///
/// # Examples
///
/// ```
/// use microfaas_sim::QuantileSketch;
///
/// let mut sketch = QuantileSketch::with_relative_error(0.01);
/// for v in 1..=1000 {
///     sketch.record(f64::from(v));
/// }
/// let p95 = sketch.quantile(95.0).expect("non-empty");
/// assert!((p95 / 950.0 - 1.0).abs() <= 0.01, "±1% of exact: {p95}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Bucket value ratio `(1+ε)/(1−ε)`: the spread a bucket's true
    /// value range may cover while midpoint reporting stays within ε.
    gamma: f64,
    /// Buckets per octave: a value's index is `floor(s(v) · mult)`
    /// where `s` approximates `log2` (see [`Self::index_of`]). On the
    /// fast path `mult` is inflated so the approximation error still
    /// keeps every bucket's value spread within `gamma`.
    mult: f64,
    /// Lower bound of bucket `i` is `2^(i / mult) · low_bias`
    /// (`2^−δ`, the approximation slack; 1 on the exact path).
    low_bias: f64,
    /// Whether the cubic bit-twiddled `log2` is in use (true unless
    /// `epsilon` is so small that its error budget would swamp γ).
    fast: bool,
    /// Geometric bucket counts for indices `offset + i`. The vector is
    /// kept exact-fit to the observed index range (first and last
    /// slots are always non-zero), so two sketches over the same
    /// observations compare equal regardless of insertion or merge
    /// order, and a quantile walk is a linear scan in value order with
    /// no sort.
    offset: i32,
    counts: Vec<u64>,
    /// Exact zeros (no logarithm to take).
    zeros: u64,
    total: u64,
}

/// Cubic minimax fit of `log2(1+f)` on `[0, 1]` with the endpoints
/// pinned (`q(0) = 0`, `q(1) = 1`, so the mantissa spline glues
/// continuously and monotonically across octaves):
/// `q(f) = f + f(f−1)(A + Bf)`, max absolute error < [`CUBIC_LOG2_ERR`]
/// (asserted over a dense grid in the tests).
const CUBIC_LOG2_A: f64 = -0.422_862_587;
const CUBIC_LOG2_B: f64 = 0.159_212_608_3;
/// Upper bound on the cubic's `log2` error, with margin.
const CUBIC_LOG2_ERR: f64 = 0.0009;

impl QuantileSketch {
    /// Creates a sketch whose quantile answers are within `epsilon`
    /// relative error of exact (`0 < epsilon < 1`; 0.01 is the usual
    /// choice).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is outside `(0, 1)`.
    pub fn with_relative_error(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "relative error must be in (0, 1), got {epsilon}"
        );
        let gamma = (1.0 + epsilon) / (1.0 - epsilon);
        let log2_gamma = gamma.ln() / std::f64::consts::LN_2;
        // The approximate log2 widens each bucket's true value range
        // by 2^(2δ); shrinking the target octave fraction by 2δ keeps
        // the range within γ. Fall back to the exact logarithm when ε
        // is so tight the compensation would dominate.
        let fast = log2_gamma > 4.0 * CUBIC_LOG2_ERR;
        let delta = if fast { CUBIC_LOG2_ERR } else { 0.0 };
        QuantileSketch {
            gamma,
            mult: 1.0 / (log2_gamma - 2.0 * delta),
            low_bias: (-delta).exp2(),
            fast,
            offset: 0,
            counts: Vec::new(),
            zeros: 0,
            total: 0,
        }
    }

    /// The bucket index of a positive finite value:
    /// `floor(s(value) · mult)` with `s ≈ log2`. On the fast path `s`
    /// splits the float into exponent and mantissa and runs the cubic
    /// spline on the mantissa — no libm call per observation
    /// (subnormals, which the exponent split cannot decode, take
    /// `log2` directly; `s` stays within δ of `log2` either way).
    #[inline]
    fn index_of(&self, value: f64) -> i32 {
        const EXP_MASK: u64 = 0x7FF0_0000_0000_0000;
        const MANT_MASK: u64 = 0x000F_FFFF_FFFF_FFFF;
        const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;
        let bits = value.to_bits();
        let s = if self.fast && (bits & EXP_MASK) != 0 {
            let e = ((bits >> 52) as i32 - 1023) as f64;
            let f = f64::from_bits((bits & MANT_MASK) | ONE_BITS) - 1.0;
            e + f + f * (f - 1.0) * (CUBIC_LOG2_A + CUBIC_LOG2_B * f)
        } else {
            value.log2()
        };
        // floor() without the libm call the x86-64 baseline would
        // emit: shift into positive range (exact — the bias is an
        // integer power of two), truncate, shift back. The 2^-32
        // quantization this adds near bucket edges is orders of
        // magnitude inside the spline's compensated error budget.
        const FLOOR_BIAS: i64 = 1 << 20;
        ((s * self.mult + FLOOR_BIAS as f64) as i64 - FLOOR_BIAS) as i32
    }

    /// The bucket slot for `index`, growing the exact-fit range as
    /// needed. Growth always lands a non-zero count in the new extreme
    /// slot, so the first/last-non-zero invariant holds.
    fn bucket_mut(&mut self, index: i32) -> &mut u64 {
        if self.counts.is_empty() {
            self.offset = index;
            self.counts.push(0);
        } else if index < self.offset {
            let pad = (self.offset - index) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, pad));
            self.offset = index;
        } else if index - self.offset >= self.counts.len() as i32 {
            self.counts.resize((index - self.offset) as usize + 1, 0);
        }
        &mut self.counts[(index - self.offset) as usize]
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or not finite.
    pub fn record(&mut self, value: f64) {
        assert!(
            value.is_finite() && value >= 0.0,
            "sketch values must be finite and non-negative, got {value}"
        );
        self.total += 1;
        if value == 0.0 {
            self.zeros += 1;
            return;
        }
        let index = self.index_of(value);
        *self.bucket_mut(index) += 1;
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `p`-th percentile (nearest-rank over buckets), within the
    /// configured relative error of the exact answer. `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.total == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        if rank <= self.zeros {
            return Some(0.0);
        }
        let mut seen = self.zeros;
        for (i, &count) in self.counts.iter().enumerate() {
            seen += count;
            if count > 0 && seen >= rank {
                // The bucket's true value range spans at most a γ
                // ratio, so the arithmetic midpoint is within ε of any
                // value that hashed into it.
                let low = ((self.offset + i as i32) as f64 / self.mult).exp2() * self.low_bias;
                return Some(low * (1.0 + self.gamma) / 2.0);
            }
        }
        unreachable!("cumulative bucket counts must reach the total");
    }

    /// Merges another sketch into this one.
    ///
    /// # Panics
    ///
    /// Panics if the sketches were built with different `epsilon`.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            self.gamma == other.gamma,
            "cannot merge sketches with different relative errors"
        );
        // Skipping empty slots keeps the exact-fit invariant: the
        // merged extent is the union of observed extents, exactly what
        // sequential recording would have produced.
        for (i, &count) in other.counts.iter().enumerate() {
            if count > 0 {
                *self.bucket_mut(other.offset + i as i32) += count;
            }
        }
        self.zeros += other.zeros;
        self.total += other.total;
    }
}

/// A piecewise-constant value tracked over simulated time, with exact
/// integration — used to turn a power trace (watts) into energy (joules).
///
/// # Examples
///
/// ```
/// use microfaas_sim::{SimTime, TimeWeighted};
///
/// let mut power = TimeWeighted::new(SimTime::ZERO, 0.0);
/// power.set(SimTime::from_secs(1), 10.0); // 10 W from t=1s
/// power.set(SimTime::from_secs(3), 0.0);  // off at t=3s
/// assert_eq!(power.integral(SimTime::from_secs(3)), 20.0); // 10 W x 2 s
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWeighted {
    last_time: SimTime,
    value: f64,
    integral: f64,
    start: SimTime,
}

impl TimeWeighted {
    /// Starts tracking at `start` with the given initial value.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is not finite.
    pub fn new(start: SimTime, initial: f64) -> Self {
        assert!(initial.is_finite(), "initial value must be finite");
        TimeWeighted {
            last_time: start,
            value: initial,
            integral: 0.0,
            start,
        }
    }

    /// The current value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Updates the value at instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous update or `value` is not finite.
    #[inline]
    pub fn set(&mut self, at: SimTime, value: f64) {
        assert!(value.is_finite(), "value must be finite, got {value}");
        let dt = at.duration_since(self.last_time);
        self.integral += self.value * dt.as_secs_f64();
        self.last_time = at;
        self.value = value;
    }

    /// Adds `delta` to the current value at instant `at`.
    #[inline]
    pub fn add(&mut self, at: SimTime, delta: f64) {
        let next = self.value + delta;
        self.set(at, next);
    }

    /// The integral of the value from the start instant to `until`
    /// (value × seconds).
    ///
    /// # Panics
    ///
    /// Panics if `until` precedes the last update.
    pub fn integral(&self, until: SimTime) -> f64 {
        let dt = until.duration_since(self.last_time);
        self.integral + self.value * dt.as_secs_f64()
    }

    /// Time-weighted average of the value from start to `until`.
    /// Returns the current value if no time has elapsed.
    pub fn time_average(&self, until: SimTime) -> f64 {
        let total = until.duration_since(self.start);
        if total.is_zero() {
            self.value
        } else {
            self.integral(until) / total.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_accumulator_tracks_min_and_max_like_new() {
        let mut via_default = OnlineStats::default();
        via_default.record(140.0);
        via_default.record(158.0);
        assert_eq!(via_default.min(), Some(140.0));
        assert_eq!(via_default.max(), Some(158.0));

        let mut negative = OnlineStats::default();
        negative.record(-3.0);
        assert_eq!(negative.max(), Some(-3.0));
    }

    #[test]
    fn coefficient_of_variation_separates_fixed_from_bursty() {
        let mut fixed = OnlineStats::new();
        for _ in 0..100 {
            fixed.record(2.0);
        }
        assert_eq!(fixed.coefficient_of_variation(), 0.0);

        let mut bursty = OnlineStats::new();
        for v in [0.1, 0.1, 0.1, 0.1, 0.1, 9.5] {
            bursty.record(v);
        }
        assert!(bursty.coefficient_of_variation() > 1.5);

        assert!(OnlineStats::new().coefficient_of_variation().is_nan());
    }

    #[test]
    fn online_stats_mean_and_variance() {
        let mut s = OnlineStats::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.std_dev(), 2.0);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut combined = OnlineStats::new();
        for &v in &all {
            combined.record(v);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &v in &all[..37] {
            left.record(v);
        }
        for &v in &all[37..] {
            right.record(v);
        }
        left.merge(&right);
        assert!((left.mean() - combined.mean()).abs() < 1e-9);
        assert!((left.variance() - combined.variance()).abs() < 1e-9);
        assert_eq!(left.count(), combined.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = OnlineStats::new();
        s.record(3.0);
        let before = s.clone();
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s: Samples = (1..=10).map(f64::from).collect();
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(10.0), Some(1.0));
        assert_eq!(s.percentile(50.0), Some(5.0));
        assert_eq!(s.percentile(100.0), Some(10.0));
    }

    #[test]
    fn percentile_of_empty_is_none() {
        let mut s = Samples::new();
        assert_eq!(s.percentile(50.0), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn percentile_sort_cache_survives_monotone_appends() {
        // Out-of-order inserts dirty the cache; the first percentile
        // query sorts once.
        let mut s = Samples::new();
        s.record(3.0);
        s.record(1.0);
        assert!(!s.sorted);
        assert_eq!(s.percentile(50.0), Some(1.0));
        assert!(s.sorted);

        // In-order appends (>= current max) must not invalidate it...
        s.record(3.0);
        s.record(7.0);
        assert!(s.sorted, "monotone append re-dirtied the sort cache");
        assert_eq!(s.percentile(100.0), Some(7.0));

        // ...while an out-of-order append must, and the next query
        // must still be correct.
        s.record(2.0);
        assert!(!s.sorted);
        assert_eq!(s.percentile(0.0), Some(1.0));
        // Sorted view is now [1, 2, 3, 3, 7]; nearest-rank p50 is the
        // 3rd element.
        assert_eq!(s.percentile(50.0), Some(3.0));
        let sorted_view = s.values();
        assert!(sorted_view.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn time_weighted_integral_piecewise() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 5.0);
        tw.set(SimTime::from_secs(2), 10.0);
        tw.set(SimTime::from_secs(4), 0.0);
        // 5 W x 2 s + 10 W x 2 s + 0 W x 6 s = 30 J
        assert_eq!(tw.integral(SimTime::from_secs(10)), 30.0);
        assert_eq!(tw.time_average(SimTime::from_secs(10)), 3.0);
    }

    #[test]
    fn time_weighted_add_tracks_deltas() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.add(SimTime::from_secs(1), 2.0);
        tw.add(SimTime::from_secs(2), 2.0);
        tw.add(SimTime::from_secs(3), -4.0);
        assert_eq!(tw.value(), 0.0);
        // 0x1 + 2x1 + 4x1 = 6
        assert_eq!(tw.integral(SimTime::from_secs(3)), 6.0);
    }

    #[test]
    fn time_weighted_is_four_words() {
        // The last update, the value, the running integral and the start:
        // a power meter keeps one per channel, two to a cache line.
        assert_eq!(std::mem::size_of::<TimeWeighted>(), 32);
    }

    #[test]
    fn time_average_at_start_is_current_value() {
        let tw = TimeWeighted::new(SimTime::from_secs(5), 7.5);
        assert_eq!(tw.time_average(SimTime::from_secs(5)), 7.5);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn recording_nan_panics() {
        OnlineStats::new().record(f64::NAN);
    }

    #[test]
    fn sketch_tracks_exact_percentiles_within_relative_error() {
        let mut sketch = QuantileSketch::with_relative_error(0.01);
        let mut exact = Samples::new();
        // A spread resembling latencies: three decades, skewed tail.
        for i in 1..=10_000u32 {
            let v = f64::from(i).sqrt() * 0.37 + f64::from(i % 97) * 0.01;
            sketch.record(v);
            exact.record(v);
        }
        assert_eq!(sketch.count(), 10_000);
        for p in [10.0, 50.0, 90.0, 95.0, 99.0, 99.9] {
            let approx = sketch.quantile(p).expect("non-empty");
            let truth = exact.percentile(p).expect("non-empty");
            assert!(
                (approx / truth - 1.0).abs() <= 0.011,
                "p{p}: sketch {approx} vs exact {truth}"
            );
        }
    }

    #[test]
    fn sketch_handles_zeros_and_empty() {
        let mut sketch = QuantileSketch::with_relative_error(0.05);
        assert_eq!(sketch.quantile(50.0), None);
        sketch.record(0.0);
        sketch.record(0.0);
        sketch.record(8.0);
        assert_eq!(sketch.quantile(50.0), Some(0.0));
        let p100 = sketch.quantile(100.0).expect("non-empty");
        assert!((p100 / 8.0 - 1.0).abs() <= 0.05);
    }

    #[test]
    fn sketch_merge_matches_sequential() {
        let values: Vec<f64> = (1..500).map(|i| f64::from(i) * 0.013).collect();
        let mut combined = QuantileSketch::with_relative_error(0.01);
        for &v in &values {
            combined.record(v);
        }
        let mut left = QuantileSketch::with_relative_error(0.01);
        let mut right = QuantileSketch::with_relative_error(0.01);
        for &v in &values[..200] {
            left.record(v);
        }
        for &v in &values[200..] {
            right.record(v);
        }
        left.merge(&right);
        assert_eq!(left, combined, "merge is exact on bucket counts");
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn sketch_rejects_negative_values() {
        QuantileSketch::with_relative_error(0.01).record(-1.0);
    }

    #[test]
    fn cubic_log2_spline_error_is_within_documented_bound() {
        // The fast bucket mapping leans on |q(f) − log2(1+f)| ≤ δ; the
        // multiplier compensation is sized from this constant, so the
        // ε guarantee is only as good as the bound.
        let n = 500_000;
        let mut worst = 0.0f64;
        for i in 0..=n {
            let f = i as f64 / n as f64;
            let q = f + f * (f - 1.0) * (CUBIC_LOG2_A + CUBIC_LOG2_B * f);
            worst = worst.max((q - (1.0 + f).log2()).abs());
        }
        assert!(
            worst < CUBIC_LOG2_ERR,
            "cubic log2 spline error {worst} exceeds documented bound {CUBIC_LOG2_ERR}"
        );
    }

    #[test]
    fn sketch_accuracy_holds_on_the_exact_log_fallback() {
        // An ε below the spline's error budget takes the libm path;
        // the guarantee must be identical.
        let mut sketch = QuantileSketch::with_relative_error(0.0005);
        let mut exact = Samples::new();
        for i in 1..=5_000u32 {
            let v = f64::from(i) * 0.004 + 0.3;
            sketch.record(v);
            exact.record(v);
        }
        for p in [10.0, 50.0, 99.0] {
            let approx = sketch.quantile(p).expect("non-empty");
            let truth = exact.percentile(p).expect("non-empty");
            assert!(
                (approx / truth - 1.0).abs() <= 0.0006,
                "p{p}: sketch {approx} vs exact {truth}"
            );
        }
    }

    mod merge_props {
        use super::*;
        use proptest::prelude::*;

        const EPSILON: f64 = 0.01;

        fn sketch_of(values: &[f64]) -> QuantileSketch {
            let mut s = QuantileSketch::with_relative_error(EPSILON);
            for &v in values {
                s.record(v);
            }
            s
        }

        fn stats_of(values: &[f64]) -> OnlineStats {
            let mut s = OnlineStats::new();
            for &v in values {
                s.record(v);
            }
            s
        }

        /// |a - b| within `tol` relative to the larger magnitude.
        fn close(a: f64, b: f64, tol: f64) -> bool {
            (a - b).abs() <= tol * a.abs().max(b.abs()).max(1e-12)
        }

        proptest! {
            #[test]
            fn online_stats_merge_matches_sequential(
                xs in prop::collection::vec(-1.0e6f64..1.0e6, 0..200),
                split in 0usize..=200,
            ) {
                let k = split.min(xs.len());
                let sequential = stats_of(&xs);
                let mut merged = stats_of(&xs[..k]);
                merged.merge(&stats_of(&xs[k..]));
                prop_assert_eq!(merged.count(), sequential.count());
                prop_assert_eq!(merged.min(), sequential.min());
                prop_assert_eq!(merged.max(), sequential.max());
                prop_assert!(close(merged.mean(), sequential.mean(), 1e-9));
                prop_assert!(close(merged.variance(), sequential.variance(), 1e-6));
            }

            #[test]
            fn online_stats_merge_commutes_on_disjoint_streams(
                lows in prop::collection::vec(0.001f64..1.0, 1..100),
                highs in prop::collection::vec(10.0f64..1000.0, 1..100),
            ) {
                let (a, b) = (stats_of(&lows), stats_of(&highs));
                let mut ab = a.clone();
                ab.merge(&b);
                let mut ba = b.clone();
                ba.merge(&a);
                prop_assert_eq!(ab.count(), ba.count());
                prop_assert_eq!(ab.min(), ba.min());
                prop_assert_eq!(ab.max(), ba.max());
                prop_assert!(close(ab.mean(), ba.mean(), 1e-9));
                prop_assert!(close(ab.variance(), ba.variance(), 1e-9));
            }

            #[test]
            fn sketch_merge_matches_sequential(
                xs in prop::collection::vec(0.0f64..1.0e4, 0..300),
                split in 0usize..=300,
            ) {
                let k = split.min(xs.len());
                let sequential = sketch_of(&xs);
                let mut merged = sketch_of(&xs[..k]);
                merged.merge(&sketch_of(&xs[k..]));
                // Bucket counts are integers, so the merge is exact.
                prop_assert_eq!(merged, sequential);
            }

            #[test]
            fn sketch_merge_commutes_on_disjoint_streams(
                lows in prop::collection::vec(0.0001f64..1.0, 1..100),
                highs in prop::collection::vec(100.0f64..10000.0, 1..100),
            ) {
                let (a, b) = (sketch_of(&lows), sketch_of(&highs));
                let mut ab = a.clone();
                ab.merge(&b);
                let mut ba = b;
                ba.merge(&a);
                prop_assert_eq!(ab, ba);
            }

            #[test]
            fn sketch_merge_preserves_relative_error_bound(
                xs in prop::collection::vec(0.0001f64..1.0e4, 1..300),
                split in 0usize..=300,
            ) {
                let k = split.min(xs.len());
                let mut merged = sketch_of(&xs[..k]);
                merged.merge(&sketch_of(&xs[k..]));
                let mut sorted = xs.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                for p in [50.0, 95.0, 99.0] {
                    let estimate = merged.quantile(p).expect("non-empty");
                    // The estimate must sit within ε (relative) of the
                    // nearest-rank neighborhood of the exact answer.
                    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
                    let lower = sorted[rank.saturating_sub(2).min(sorted.len() - 1)];
                    let upper = sorted[rank.min(sorted.len() - 1)];
                    prop_assert!(
                        estimate >= lower * (1.0 - 1.5 * EPSILON) - 1e-12
                            && estimate <= upper * (1.0 + 1.5 * EPSILON) + 1e-12,
                        "p{}: estimate {} outside [{}, {}]",
                        p, estimate, lower, upper
                    );
                }
            }
        }
    }
}
