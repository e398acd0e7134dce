//! Simulated time.
//!
//! The simulator counts microseconds in a [`SimTime`] newtype, with
//! [`SimDuration`] for spans. Microsecond resolution is fine enough to
//! resolve NIC serialization delays (a 64-byte frame at 100 Mb/s lasts
//! ~5 µs) while leaving headroom for multi-day TCO horizons in a `u64`.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant in simulated time, in microseconds since the start
/// of the simulation.
///
/// # Examples
///
/// ```
/// use microfaas_sim::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(1_500);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// # Examples
///
/// ```
/// use microfaas_sim::SimDuration;
///
/// let d = SimDuration::from_millis(250) + SimDuration::from_micros(500);
/// assert_eq!(d.as_micros(), 250_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `micros` microseconds after the simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after the simulation start.
    ///
    /// # Panics
    ///
    /// Panics if the instant overflows `u64` microseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(to_micros(millis, 1_000))
    }

    /// Creates an instant `secs` seconds after the simulation start.
    ///
    /// # Panics
    ///
    /// Panics if the instant overflows `u64` microseconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(to_micros(secs, 1_000_000))
    }

    /// Returns the instant as microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the instant as (possibly fractional) seconds since start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; event handlers should
    /// never observe time running backwards.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since called with a later instant ({earlier} > {self})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration of `millis` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the duration overflows `u64` microseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(to_micros(millis, 1_000))
    }

    /// Creates a duration of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if the duration overflows `u64` microseconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(to_micros(secs, 1_000_000))
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative, got {secs}"
        );
        SimDuration(round_to_u64(secs * 1e6))
    }

    /// Returns the duration in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration in (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the duration in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration scaled by `factor`, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        SimDuration(round_to_u64(self.0 as f64 * factor))
    }

    /// Returns true if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// `count` units of `unit_micros` microseconds each, refusing to wrap
/// in every build profile.
const fn to_micros(count: u64, unit_micros: u64) -> u64 {
    match count.checked_mul(unit_micros) {
        Some(micros) => micros,
        None => panic!("simulated time overflows u64 microseconds"),
    }
}

/// `x.round() as u64` for a non-negative `x` that is finite or +∞,
/// without the libm call `round` compiles to on baseline x86-64: the
/// truncation plus one where the dropped fraction is at least one half.
/// Below 2^52 the fraction `x - trunc(x)` is exact (Sterbenz's lemma),
/// from 2^52 up every double is an integer, and the saturating add keeps
/// the cast's saturation at `u64::MAX` for 2^64 and beyond.
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        assert!(
            rhs.0 <= self.0,
            "duration subtraction underflow ({self} - {rhs})"
        );
        SimDuration(self.0 - rhs.0)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_millis(5);
        let d = SimDuration::from_micros(250);
        assert_eq!((t + d).as_micros(), 5_250);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    #[should_panic(expected = "simulated time overflows u64 microseconds")]
    fn duration_from_secs_refuses_to_wrap() {
        let last = u64::MAX / 1_000_000;
        assert_eq!(SimDuration::from_secs(last).as_micros(), last * 1_000_000);
        let _ = SimDuration::from_secs(last + 1);
    }

    #[test]
    #[should_panic(expected = "simulated time overflows u64 microseconds")]
    fn duration_from_millis_refuses_to_wrap() {
        let last = u64::MAX / 1_000;
        assert_eq!(SimDuration::from_millis(last).as_micros(), last * 1_000);
        let _ = SimDuration::from_millis(last + 1);
    }

    #[test]
    #[should_panic(expected = "simulated time overflows u64 microseconds")]
    fn instant_from_secs_refuses_to_wrap() {
        let last = u64::MAX / 1_000_000;
        assert_eq!(SimTime::from_secs(last).as_micros(), last * 1_000_000);
        let _ = SimTime::from_secs(last + 1);
    }

    #[test]
    #[should_panic(expected = "simulated time overflows u64 microseconds")]
    fn instant_from_millis_refuses_to_wrap() {
        let last = u64::MAX / 1_000;
        assert_eq!(SimTime::from_millis(last).as_micros(), last * 1_000);
        let _ = SimTime::from_millis(last + 1);
    }

    #[test]
    fn duration_since_is_exact() {
        let a = SimTime::from_secs(2);
        let b = SimTime::from_millis(500);
        assert_eq!(a.duration_since(b), SimDuration::from_millis(1_500));
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_on_backwards_time() {
        let _ = SimTime::from_secs(1).duration_since(SimTime::from_secs(2));
    }

    #[test]
    fn from_secs_f64_rounds_to_micros() {
        assert_eq!(SimDuration::from_secs_f64(0.0000015).as_micros(), 2);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_micros(), 1_500_000);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d.mul_f64(2.5), SimDuration::from_millis(250));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(SimDuration::from_micros(42).to_string(), "42us");
        assert_eq!(SimDuration::from_millis(42).to_string(), "42.000ms");
        assert_eq!(SimDuration::from_secs(42).to_string(), "42.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn time_max() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }
}
