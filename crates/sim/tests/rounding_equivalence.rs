//! `SimDuration::mul_f64` and `SimDuration::from_secs_f64` round to the
//! nearest microsecond, half away from zero, and saturate at `u64::MAX`:
//! exactly what `x.round() as u64` gives. These inputs are the ones where
//! a rounding shortcut would slip: ties, the largest double below one
//! half, the edges of the range where every double is an integer, values
//! at and past 2^64, and random bit patterns.

use microfaas_sim::{Rng, SimDuration};

/// `x.round() as u64`, the rounding both conversions promise.
fn reference(x: f64) -> u64 {
    x.round() as u64
}

/// Checks both conversions on the product `x`: `mul_f64` scales one
/// microsecond by `x` (an exact product), `from_secs_f64` is handed
/// `x / 1e6` and compared with that input's own product.
fn check(x: f64) {
    assert_eq!(
        SimDuration::from_micros(1).mul_f64(x).as_micros(),
        reference(x),
        "mul_f64 at {x:e} ({:#018x})",
        x.to_bits()
    );
    let secs = x / 1e6;
    assert_eq!(
        SimDuration::from_secs_f64(secs).as_micros(),
        reference(secs * 1e6),
        "from_secs_f64 at {secs:e} ({:#018x})",
        secs.to_bits()
    );
}

#[test]
fn half_integers_round_away_from_zero() {
    for k in 0..100_000u64 {
        check(k as f64 + 0.5);
    }
    for e in 20..52 {
        let k = 1u64 << e;
        for x in [k - 1, k, k + 1] {
            check(x as f64 + 0.5);
        }
    }
    assert_eq!(SimDuration::from_micros(1).mul_f64(2.5).as_micros(), 3);
}

#[test]
fn the_largest_double_below_one_half_rounds_down() {
    let below_half = 0.499_999_999_999_999_94_f64;
    assert_eq!(below_half, f64::from_bits(0.5f64.to_bits() - 1));
    check(below_half);
    assert_eq!(
        SimDuration::from_micros(1).mul_f64(below_half).as_micros(),
        0
    );
}

#[test]
fn the_edges_of_the_integer_only_range() {
    let two52 = (1u64 << 52) as f64;
    let two53 = (1u64 << 53) as f64;
    for x in [
        two52 - 0.5,
        two52 - 1.0,
        two52,
        two52 + 0.5,
        two52 + 1.0,
        two52 + 2.0,
        two53 - 1.0,
        two53,
        two53 + 1.0,
        two53 + 2.0,
    ] {
        check(x);
    }
}

#[test]
fn values_at_and_past_two_to_the_64_saturate() {
    let two64 = 18_446_744_073_709_551_616.0_f64;
    for x in [
        f64::from_bits(two64.to_bits() - 1),
        two64,
        f64::from_bits(two64.to_bits() + 1),
        two64 * 1.5,
        1e20,
        1e300,
        f64::MAX,
    ] {
        check(x);
    }
    assert_eq!(
        SimDuration::from_micros(1).mul_f64(two64).as_micros(),
        u64::MAX
    );
    // A finite factor whose product overflows to infinity saturates too.
    assert_eq!(
        SimDuration::from_micros(u64::MAX).mul_f64(f64::MAX),
        SimDuration::from_micros(u64::MAX)
    );
    assert_eq!(
        SimDuration::from_secs_f64(f64::MAX).as_micros(),
        reference(f64::MAX * 1e6)
    );
}

#[test]
fn random_non_negative_finite_bit_patterns() {
    let mut rng = Rng::new(2022);
    let mut checked = 0;
    while checked < 100_000 {
        let x = f64::from_bits(rng.next_u64() & !(1 << 63));
        if x.is_finite() {
            check(x);
            checked += 1;
        }
    }
}

#[test]
fn random_values_in_the_simulated_range() {
    // Bit patterns are mostly huge or tiny; durations and jitter factors
    // live between a microsecond and days.
    let mut rng = Rng::new(7331);
    for _ in 0..100_000 {
        check(rng.range_f64(0.0, 1e11));
        check(rng.next_f64() * 4.0);
    }
}

#[test]
#[should_panic(expected = "finite and non-negative")]
fn a_negative_factor_is_still_rejected() {
    let _ = SimDuration::from_micros(1).mul_f64(-0.5);
}

#[test]
#[should_panic(expected = "finite and non-negative")]
fn a_non_finite_duration_is_still_rejected() {
    let _ = SimDuration::from_secs_f64(f64::INFINITY);
}
