//! Pareto-front extraction for the latency-energy policy explorer.
//!
//! The `policy_sweep_cached_jobs` experiment evaluates every placement x governor
//! combination and wants the subset no other combination beats on both
//! axes at once — lower mean latency *and* lower energy per function.
//! [`pareto_front`] marks exactly that subset.

/// Marks the Pareto-optimal points of a minimize-both objective.
///
/// A point is dominated when another point is no worse on both axes
/// and strictly better on at least one; the front is everything left.
/// Duplicate points are all kept (neither strictly beats the other).
/// Points with a NaN coordinate never dominate anything and are never
/// part of the front.
///
/// # Examples
///
/// ```
/// use microfaas_sched::pareto_front;
///
/// // (latency, energy): the middle point loses on both axes.
/// let flags = pareto_front(&[(1.0, 9.0), (5.0, 8.0), (4.0, 2.0)]);
/// assert_eq!(flags, vec![true, false, true]);
/// ```
pub fn pareto_front(points: &[(f64, f64)]) -> Vec<bool> {
    points
        .iter()
        .map(|&(x, y)| {
            if x.is_nan() || y.is_nan() {
                return false;
            }
            !points.iter().any(|&(ox, oy)| {
                ox <= x && oy <= y && (ox < x || oy < y) && !ox.is_nan() && !oy.is_nan()
            })
        })
        .collect()
}

/// Picks the single best point by **energy-delay product** — the
/// scalarization the scenario suite uses to name one winner per traffic
/// regime (see `docs/WORKLOADS.md`). With `(latency, energy)` points,
/// EDP = latency × energy rewards policies that are good on both axes
/// without hand-tuning a weight; the winner always lies on the
/// [`pareto_front`].
///
/// Ties keep the earliest index so reports are deterministic; points
/// with a NaN coordinate never win. Returns `None` for an empty slice
/// or all-NaN input.
///
/// # Examples
///
/// ```
/// use microfaas_sched::edp_winner;
///
/// // (latency, energy): 2.0*3.0 = 6 beats 1.0*9.0 = 9 and 5.0*2.0 = 10.
/// let points = [(1.0, 9.0), (2.0, 3.0), (5.0, 2.0)];
/// assert_eq!(edp_winner(&points), Some(1));
/// assert_eq!(edp_winner(&[]), None);
/// ```
pub fn edp_winner(points: &[(f64, f64)]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &(latency, energy)) in points.iter().enumerate() {
        let edp = latency * energy;
        if edp.is_nan() {
            continue;
        }
        match best {
            Some((_, low)) if low <= edp => {}
            _ => best = Some((i, edp)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_is_optimal() {
        assert_eq!(pareto_front(&[(3.0, 3.0)]), vec![true]);
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn strictly_dominated_points_are_dropped() {
        let flags = pareto_front(&[(1.0, 5.0), (2.0, 6.0), (0.5, 7.0), (3.0, 1.0)]);
        assert_eq!(flags, vec![true, false, true, true]);
    }

    #[test]
    fn duplicates_survive_together() {
        let flags = pareto_front(&[(2.0, 2.0), (2.0, 2.0)]);
        assert_eq!(flags, vec![true, true]);
    }

    #[test]
    fn equal_on_one_axis_dominates_with_the_other() {
        // Same latency, strictly less energy: the second point wins.
        let flags = pareto_front(&[(2.0, 5.0), (2.0, 4.0)]);
        assert_eq!(flags, vec![false, true]);
    }

    #[test]
    fn nan_points_never_join_or_block_the_front() {
        let flags = pareto_front(&[(f64::NAN, 1.0), (2.0, 2.0)]);
        assert_eq!(flags, vec![false, true]);
    }

    #[test]
    fn edp_winner_sits_on_the_front() {
        let points = [(1.0, 9.0), (2.0, 3.0), (5.0, 2.0), (6.0, 6.0)];
        let winner = edp_winner(&points).unwrap();
        assert!(pareto_front(&points)[winner]);
    }

    #[test]
    fn edp_winner_ties_keep_the_earliest_index() {
        assert_eq!(edp_winner(&[(2.0, 3.0), (3.0, 2.0)]), Some(0));
    }

    #[test]
    fn edp_winner_skips_nan_points() {
        assert_eq!(edp_winner(&[(f64::NAN, 1.0), (4.0, 4.0)]), Some(1));
        assert_eq!(edp_winner(&[(f64::NAN, 1.0)]), None);
    }
}
