//! Scale benchmarks for the million-event simulator core: the
//! `EventQueue` under the hot event mixes, on its hierarchical timing
//! wheel and on the flat list it uses while at most 32 events are
//! pending, the wheel-depth (granularity) knob, and the streaming
//! open-loop results path end to end.
//!
//! Measured numbers are recorded in `BENCH_core_scale.json` at the
//! repository root; `docs/SCALING.md` walks a capacity-planning example
//! against those numbers, and `ci/check.sh` parses this bench's
//! wheel cancel-mix output to enforce the throughput floor (>= 2x the
//! 4.2 Melem/s binary-heap baseline from `BENCH_parallel_sweep.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use microfaas::openloop::{run_open_loop, run_open_loop_streaming, NullSink, OpenLoopConfig};
use microfaas_sched::{GovernorKind, DEFAULT_KEEP_ALIVE_TIMEOUT};
use microfaas_sim::{EventQueue, SimDuration};
use std::hint::black_box;

/// Timers left standing an hour out through a whole mix, like a
/// fleet's keep-alive and power-cycle deadlines. Sixty-four of them
/// keep more than 32 events pending, so the queue spills into its
/// timing wheel before the mix starts: the `wheel_*` rows measure the
/// wheel, and the `flat_*` rows run the same mix with none standing,
/// on the flat list a queue of at most 32 pending events uses.
const STANDING_TIMERS: u64 = 64;

fn schedule_standing_timers(queue: &mut EventQueue<u64>, count: u64) {
    let at = queue.now() + SimDuration::from_secs(3_600);
    for i in 0..count {
        queue.schedule(at + SimDuration::from_micros(i), u64::MAX);
    }
}

/// The cancel-heavy mix from `parallel_sweep`: per job an exec event
/// and a 30 s timeout are scheduled together; the exec pops first and
/// cancels its timeout. This mix collapsed the old heap's tombstone
/// path to 4.2 Melem/s; on the wheel the cancel is an O(1) bit set and
/// the tombstone is reclaimed when a cascade reaches it.
fn cancel_timeout_mix(queue: &mut EventQueue<u64>, jobs: u64, standing: u64) -> u64 {
    schedule_standing_timers(queue, standing);
    let mut sum = 0u64;
    for i in 0..jobs {
        let exec_at = queue.now() + SimDuration::from_micros((i * 48_271) % 2_000 + 1);
        queue.schedule(exec_at, i);
        let timeout = queue.schedule(exec_at + SimDuration::from_secs(30), u64::MAX);
        let (_, v) = queue.pop().expect("exec event pending");
        sum = sum.wrapping_add(v);
        queue.cancel(timeout);
    }
    while queue.pop().is_some() {}
    sum
}

/// Pure schedule/pop with 32 mix events in flight, like a 10-worker
/// cluster with a few timers each.
fn schedule_pop_mix(queue: &mut EventQueue<u64>, jobs: u64, standing: u64) -> u64 {
    schedule_standing_timers(queue, standing);
    let mut sum = 0u64;
    let mut pending = 0usize;
    for i in 0..jobs {
        let gap = SimDuration::from_micros((i * 2_654_435_761) % 5_000 + 1);
        queue.schedule(queue.now() + gap, i);
        pending += 1;
        if pending >= 32 {
            if let Some((_, v)) = queue.pop() {
                sum = sum.wrapping_add(v);
                pending -= 1;
            }
        }
    }
    while let Some((_, v)) = queue.pop() {
        sum = sum.wrapping_add(v);
    }
    sum
}

/// Queue throughput on the two canonical mixes, at the historical 10k
/// size (directly comparable to `BENCH_parallel_sweep.json`) and at
/// 100k to show the rate holds as the event count grows 10x; each mix
/// once on the wheel and once on the flat list.
fn bench_event_queue_scale(c: &mut Criterion) {
    for jobs in [10_000u64, 100_000] {
        let mut group = c.benchmark_group("event_queue_scale");
        group.throughput(Throughput::Elements(jobs));
        for (mode, standing) in [("wheel", STANDING_TIMERS), ("flat", 0)] {
            group.bench_with_input(
                BenchmarkId::new(format!("{mode}_schedule_pop"), jobs),
                &jobs,
                |b, &jobs| {
                    b.iter(|| {
                        let mut q = EventQueue::with_capacity(64);
                        black_box(schedule_pop_mix(&mut q, jobs, standing))
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{mode}_cancel_timeout_mix"), jobs),
                &jobs,
                |b, &jobs| {
                    b.iter(|| {
                        let mut q = EventQueue::with_capacity(64);
                        black_box(cancel_timeout_mix(&mut q, jobs, standing))
                    })
                },
            );
        }
        group.finish();
    }
}

/// The wheel-depth knob: fewer levels shrink the in-wheel horizon
/// (64^levels us) and push far-future events — here, every 30 s
/// timeout and every standing timer — through the overflow heap
/// instead. Depths 3 and 4 span 0.26 s and 16.8 s, so the timeouts
/// overflow; depth 6 (the default, ~19.1 h) keeps the whole mix
/// in-wheel.
fn bench_wheel_depth(c: &mut Criterion) {
    const JOBS: u64 = 10_000;
    let mut group = c.benchmark_group("wheel_depth");
    group.throughput(Throughput::Elements(JOBS));
    for levels in [3u32, 4, 6, 10] {
        group.bench_with_input(
            BenchmarkId::new("cancel_timeout_mix_10k_levels", levels),
            &levels,
            |b, &levels| {
                b.iter(|| {
                    let mut q = EventQueue::with_levels(levels);
                    black_box(cancel_timeout_mix(&mut q, JOBS, STANDING_TIMERS))
                })
            },
        );
    }
    group.finish();
}

/// The 10M-job recipe from `EXPERIMENTS.md` shrunk 10x in duration:
/// 10k jobs/tick for 100 s = 1M jobs through the full open-loop engine
/// (placement, governor, power ledger) on the streaming results path.
/// Note the shorter window makes the drain phase and keep-alive expiry
/// churn proportionally larger per job than in the 1000 s recipe, so
/// the full 10M run lands *under* 10x this number — see
/// `docs/SCALING.md` for the measured end-to-end figures.
fn bench_streaming_open_loop(c: &mut Criterion) {
    const JOBS: u64 = 1_000_000;
    let config = OpenLoopConfig {
        workers: 16_384,
        governor: GovernorKind::KeepAlive {
            idle_timeout: DEFAULT_KEEP_ALIVE_TIMEOUT,
        },
        ..OpenLoopConfig::paper_arrangement(10_000, SimDuration::from_secs(100), 2022)
    };
    let mut group = c.benchmark_group("streaming_open_loop");
    group.throughput(Throughput::Elements(JOBS));
    group.bench_function("million_jobs_streaming", |b| {
        b.iter(|| {
            let run = run_open_loop_streaming(black_box(&config), &mut NullSink);
            assert_eq!(run.completed, JOBS);
            run
        })
    });
    group.finish();
}

/// The same engine at a size the materialized path still handles
/// comfortably (100k jobs), exact vs streaming: the streaming path
/// must not cost wall-clock for its O(1) memory.
fn bench_streaming_vs_materialized(c: &mut Criterion) {
    const JOBS: u64 = 100_000;
    let config = OpenLoopConfig {
        workers: 2_048,
        governor: GovernorKind::KeepAlive {
            idle_timeout: DEFAULT_KEEP_ALIVE_TIMEOUT,
        },
        ..OpenLoopConfig::paper_arrangement(1_000, SimDuration::from_secs(100), 2022)
    };
    let mut group = c.benchmark_group("results_path");
    group.throughput(Throughput::Elements(JOBS));
    group.bench_function("materialized_100k", |b| {
        b.iter(|| {
            let run = run_open_loop(black_box(&config));
            assert_eq!(run.completed, JOBS);
            run
        })
    });
    group.bench_function("streaming_100k", |b| {
        b.iter(|| {
            let run = run_open_loop_streaming(black_box(&config), &mut NullSink);
            assert_eq!(run.completed, JOBS);
            run
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue_scale,
    bench_wheel_depth,
    bench_streaming_open_loop,
    bench_streaming_vs_materialized
);
criterion_main!(benches);
