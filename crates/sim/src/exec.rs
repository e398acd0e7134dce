//! Parallel deterministic experiment engine.
//!
//! Figure sweeps, seed replicates, and fault Monte-Carlo studies are all
//! embarrassingly parallel: every point is an independent simulation
//! with its own seed-derived RNG stream. This module fans such
//! independent runs across OS threads while keeping the output
//! **bit-identical to the serial path**:
//!
//! * work is self-scheduled — each worker thread repeatedly claims the
//!   next unclaimed index from a shared atomic counter (a degenerate but
//!   effective form of work stealing that load-balances uneven run
//!   times without per-item locks);
//! * results are gathered into their **canonical submission slots**, so
//!   the returned `Vec` is ordered exactly as a `for` loop would have
//!   produced it, regardless of which thread finished when;
//! * with [`Jobs`] resolved to 1 (or a single item) no thread is
//!   spawned at all — the closure runs inline on the caller's stack,
//!   which *is* the serial reference path the parity tests compare
//!   against.
//!
//! Because each closure invocation derives all randomness from its own
//! index/seed (never from shared mutable state), the only way
//! parallelism could change a result is through gather order — and the
//! slotted gather removes that. `docs/PERFORMANCE.md` at the repository
//! root documents the execution model and the determinism guarantee.
//!
//! # Examples
//!
//! ```
//! use microfaas_sim::exec::{par_map_indexed, Jobs};
//!
//! let serial = par_map_indexed(Jobs::serial(), 8, |i| i * i);
//! let parallel = par_map_indexed(Jobs::new(4), 8, |i| i * i);
//! assert_eq!(serial, parallel);
//! assert_eq!(serial, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable consulted by [`Jobs::auto`]: set
/// `MICROFAAS_JOBS=N` to pin every auto-resolved runner to `N` worker
/// threads (the CLI's `--jobs` flag overrides it per invocation).
const JOBS_ENV: &str = "MICROFAAS_JOBS";

/// How many runs may execute concurrently. `1` is the serial reference
/// path; anything higher fans independent runs across scoped threads.
///
/// # Examples
///
/// ```
/// use microfaas_sim::exec::Jobs;
///
/// assert_eq!(Jobs::serial().get(), 1);
/// assert_eq!(Jobs::new(4).get(), 4);
/// assert!(Jobs::auto().get() >= 1);
/// assert_eq!("6".parse::<Jobs>().unwrap().get(), 6);
/// assert!("0".parse::<Jobs>().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jobs(NonZeroUsize);

impl Jobs {
    /// Exactly one worker: runs inline with no threads — the serial
    /// reference every parallel result must match bit-for-bit.
    pub fn serial() -> Self {
        Jobs(NonZeroUsize::MIN)
    }

    /// Exactly `n` workers.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        Jobs(NonZeroUsize::new(n).expect("jobs must be at least 1"))
    }

    /// The sane default: `MICROFAAS_JOBS` when set to a positive
    /// integer, otherwise the host's available parallelism (1 when the
    /// host will not say).
    pub fn auto() -> Self {
        if let Ok(raw) = std::env::var(JOBS_ENV) {
            if let Some(n) = raw.trim().parse::<usize>().ok().and_then(NonZeroUsize::new) {
                return Jobs(n);
            }
        }
        Jobs(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// The worker count.
    pub fn get(self) -> usize {
        self.0.get()
    }

    /// True for the one-worker serial path.
    pub fn is_serial(self) -> bool {
        self.get() == 1
    }
}

impl Default for Jobs {
    fn default() -> Self {
        Jobs::auto()
    }
}

impl std::str::FromStr for Jobs {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.trim()
            .parse::<usize>()
            .ok()
            .and_then(NonZeroUsize::new)
            .map(Jobs)
            .ok_or_else(|| format!("jobs must be a positive integer, got '{s}'"))
    }
}

impl std::fmt::Display for Jobs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Runs `f(0..count)` with up to `jobs` concurrent workers and returns
/// the results in index order — bit-identical to
/// `(0..count).map(f).collect()` whenever each `f(i)` depends only on
/// `i` (the contract every simulation sweep in this workspace obeys:
/// per-run RNG streams are derived from the index or a per-run seed,
/// never shared).
///
/// Work is claimed dynamically, so wildly uneven run times (a 1-VM
/// sweep point finishes long before the 20-VM point) still keep every
/// core busy. A panic in any `f(i)` propagates to the caller once the
/// scope joins.
///
/// # Examples
///
/// ```
/// use microfaas_sim::exec::{par_map_indexed, Jobs};
///
/// let squares = par_map_indexed(Jobs::new(8), 5, |i| (i * i) as u64);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn par_map_indexed<U, F>(jobs: Jobs, count: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = jobs.get().min(count);
    if workers <= 1 {
        // The serial reference path: no threads, no locks, no
        // allocation beyond the result vector.
        return (0..count).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<U>>> = Mutex::new((0..count).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Claims batch locally and commits once at the end, so
                // the mutex is taken `workers` times per map, not
                // `count` times.
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    local.push((i, f(i)));
                }
                let mut slots = slots.lock().unwrap_or_else(|e| e.into_inner());
                for (i, value) in local {
                    slots[i] = Some(value);
                }
            });
        }
    });
    slots
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .map(|slot| slot.expect("every index claimed exactly once"))
        .collect()
}

/// [`par_map_indexed`] over a slice: runs `f` on every element with up
/// to `jobs` workers, returning results in the slice's order.
///
/// # Examples
///
/// ```
/// use microfaas_sim::exec::{par_map, Jobs};
///
/// let doubled = par_map(Jobs::new(2), &[10, 20, 30], |&x| x * 2);
/// assert_eq!(doubled, vec![20, 40, 60]);
/// ```
pub fn par_map<T, U, F>(jobs: Jobs, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(jobs, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_on_order() {
        for jobs in [1, 2, 3, 8, 64] {
            let out = par_map_indexed(Jobs::new(jobs), 100, |i| i as u64 * 3);
            assert_eq!(
                out,
                (0..100).map(|i| i * 3).collect::<Vec<u64>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn empty_and_single_item_maps_work() {
        let empty: Vec<u32> = par_map_indexed(Jobs::new(8), 0, |_| unreachable!());
        assert!(empty.is_empty());
        assert_eq!(par_map_indexed(Jobs::new(8), 1, |i| i + 41), vec![41]);
    }

    #[test]
    fn uneven_work_is_load_balanced_and_ordered() {
        // Early indices sleep longest; a static split would finish them
        // last, but the gather must still come back in index order.
        let out = par_map_indexed(Jobs::new(4), 12, |i| {
            std::thread::sleep(std::time::Duration::from_millis((12 - i) as u64));
            i
        });
        assert_eq!(out, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_borrows_items() {
        let labels = ["a".to_string(), "bb".to_string(), "ccc".to_string()];
        let lens = par_map(Jobs::new(2), &labels, |s| s.len());
        assert_eq!(lens, vec![1, 2, 3]);
    }

    #[test]
    fn jobs_parsing_and_bounds() {
        assert!(Jobs::serial().is_serial());
        assert!(!Jobs::new(2).is_serial());
        assert_eq!(Jobs::new(7).to_string(), "7");
        assert!(" 3 ".parse::<Jobs>().is_ok());
        assert!("-1".parse::<Jobs>().is_err());
        assert!("lots".parse::<Jobs>().is_err());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_jobs_panics() {
        Jobs::new(0);
    }

    #[test]
    fn panics_in_workers_propagate() {
        let caught = std::panic::catch_unwind(|| {
            par_map_indexed(Jobs::new(4), 8, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(caught.is_err(), "worker panic must reach the caller");
    }
}
