//! Host-side measurement: process CPU time and peak RSS from `/proc`,
//! the reference kernel that reads the host's current speed, and the
//! order statistics every reported metric is built from.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Clock ticks per second in `/proc/<pid>/stat` (Linux's fixed
/// `USER_HZ`, independent of the kernel's internal tick rate).
const USER_HZ: f64 = 100.0;

/// Events the reference kernel pops and schedules per run.
pub const REFERENCE_OPS: u64 = 250_000;

/// Events the reference kernel keeps in flight: a 64 KiB queue.
const REFERENCE_INFLIGHT: usize = 1 << 13;

/// The reference kernel's table: 4 MiB of counters, more than a core's
/// own caches hold, so that the kernel, like the engines with the
/// largest working sets, slows when other tenants crowd the shared cache
/// and memory. A kernel whose data fit in a core's own caches tracked
/// the 10M-job capacity recipe worse than no scaling at all (README.md).
const REFERENCE_TABLE: usize = 1 << 20;

/// Room reserved for the table, in counters: 33 MiB, of which the
/// kernel touches only [`REFERENCE_TABLE`]. glibc's malloc, on freeing
/// a mapped block smaller than 32 MiB, raises its mapping threshold to
/// that block's size, which would move the engines' later large
/// allocations onto the heap and change their peak RSS. A block above
/// 32 MiB leaves the threshold as it was; the untouched part is never
/// resident.
const REFERENCE_RESERVE: usize = (33 << 20) / std::mem::size_of::<u32>();

/// Wall seconds the reference kernel takes at the reference speed: its
/// median over the 636 passes of an hour of benchmark runs on the
/// 2-vCPU Intel Xeon VM this benchmark was built on. Times multiplied by
/// `REFERENCE_S / reference_seconds(REFERENCE_OPS)` read as they would
/// have on that host at that speed.
pub const REFERENCE_S: f64 = 0.0164;

/// Wall seconds of `ops` steps of the reference kernel: a fixed
/// discrete-event loop shaped like the simulators' own (a binary-heap
/// event queue, random reads and writes of a table, and floating-point
/// accumulation), written here so that no change to the simulators
/// changes it. Its time says how fast the host runs such code at this
/// moment; other tenants on a shared host slow it, and the engines,
/// together.
pub fn reference_seconds(ops: u64) -> f64 {
    let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut queue: BinaryHeap<Reverse<u64>> = (0..REFERENCE_INFLIGHT)
        .map(|_| Reverse(next() % 1_000_000))
        .collect();
    let mut table = Vec::with_capacity(REFERENCE_RESERVE);
    table.resize(REFERENCE_TABLE, 1_u32);
    let start = Instant::now();
    let mut sum = 0.0;
    for _ in 0..black_box(ops) {
        let Reverse(now) = queue.pop().expect("every pop is followed by a push");
        let r = next();
        let slot = &mut table[r as usize % REFERENCE_TABLE];
        *slot = slot.wrapping_add(1);
        sum += f64::from(*slot).sqrt();
        queue.push(Reverse(now + r % 1_000_000));
    }
    black_box(sum);
    start.elapsed().as_secs_f64()
}

/// This process's CPU time (user + system), seconds, at the 10 ms
/// resolution `/proc/self/stat` offers. Preemption does not count;
/// other tenants slowing the code while it runs does.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .expect("the benchmark needs Linux /proc/self/stat for CPU time");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit(')').next().unwrap_or_default();
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .expect("/proc/self/stat has utime and stime")
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Restarts this process's peak resident set size (`VmHWM`) from its
/// current resident set, so memory freed before the call, such as the
/// reference kernel's, no longer counts.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5")
        .expect("the benchmark needs Linux /proc/self/clear_refs to reset peak RSS");
}

/// This process's peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("the benchmark needs Linux /proc/self/status for peak RSS");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .expect("/proc/self/status has VmHWM")
}

/// The host's CPU model name, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values` (the mean of the middle two for an even
/// count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads read the same here as in any script that checks
/// them. A single value is its own three quartiles.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let data = sorted(values);
    let len = data.len();
    if len == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[4.0, 2.0]), (1.5, 3.0, 4.5));
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn proc_readers_return_sane_values() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
