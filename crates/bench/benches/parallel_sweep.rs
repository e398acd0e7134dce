//! Benchmarks of the parallel deterministic experiment engine
//! (`microfaas_sim::exec`) and the event-queue hot path it drives.
//!
//! The sweep group runs the same 8-point Fig. 4 VM sweep serially and
//! at `--jobs {2,4,8}` in throughput mode — on a multi-core host the
//! jobs=8 row should show ≥4x the serial rate (results are
//! bit-identical regardless; see `docs/PERFORMANCE.md`). Measured
//! numbers are recorded in `BENCH_parallel_sweep.json` at the
//! repository root alongside the host's available parallelism.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use microfaas::config::WorkloadMix;
use microfaas::experiment::{micro_replicates, vm_sweep_jobs};
use microfaas::micro::MicroFaasConfig;
use microfaas_sim::{EventQueue, Jobs, SimDuration};
use std::hint::black_box;

const SWEEP_POINTS: usize = 8;
const INVOCATIONS: u32 = 10;
const SEED: u64 = 42;

fn bench_parallel_vm_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_vm_sweep");
    group.throughput(Throughput::Elements(SWEEP_POINTS as u64));
    for jobs in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("vm_sweep_8pts", jobs),
            &jobs,
            |b, &jobs| {
                b.iter(|| {
                    vm_sweep_jobs(
                        black_box(SWEEP_POINTS),
                        black_box(INVOCATIONS),
                        SEED,
                        Jobs::new(jobs),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_parallel_replicates(c: &mut Criterion) {
    let base = MicroFaasConfig::paper_prototype(WorkloadMix::quick(), 0);
    let mut group = c.benchmark_group("parallel_replicates");
    group.throughput(Throughput::Elements(8));
    for jobs in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("micro_replicates_8", jobs),
            &jobs,
            |b, &jobs| b.iter(|| micro_replicates(black_box(&base), 8, SEED, Jobs::new(jobs))),
        );
    }
    group.finish();
}

/// A realistic cluster-sim event mix: per "job", an exec-done event and
/// a timeout are scheduled together; the exec pops first and cancels
/// its timeout — the pattern invocation-timeout runs produce, which
/// stresses the cancellation tombstone path.
fn bench_event_queue_mixes(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_mix");
    group.throughput(Throughput::Elements(10_000));

    group.bench_function("pure_schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(64);
            let mut sum = 0u64;
            let mut pending = 0usize;
            for i in 0..10_000u64 {
                let gap = SimDuration::from_micros((i * 2_654_435_761) % 5_000 + 1);
                q.schedule(q.now() + gap, i);
                pending += 1;
                // Keep ~32 events in flight, like a 10-worker cluster
                // with a few timers each.
                if pending >= 32 {
                    if let Some((_, v)) = q.pop() {
                        sum = sum.wrapping_add(v);
                        pending -= 1;
                    }
                }
            }
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        })
    });

    group.bench_function("exec_plus_cancelled_timeout_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(64);
            let mut sum = 0u64;
            for i in 0..10_000u64 {
                let exec_at = q.now() + SimDuration::from_micros((i * 48_271) % 2_000 + 1);
                q.schedule(exec_at, i);
                let timeout = q.schedule(exec_at + SimDuration::from_secs(30), u64::MAX);
                let (_, v) = q.pop().expect("exec event pending");
                sum = sum.wrapping_add(v);
                q.cancel(timeout);
            }
            // Drain the tombstoned timeouts.
            while q.pop().is_some() {}
            black_box(sum)
        })
    });

    group.finish();
}

/// Single-run regression guard mirroring `cluster_sim`'s 340-job run,
/// kept here so the sweep and single-run numbers land in one report.
fn bench_single_run(c: &mut Criterion) {
    let mix = std::sync::Arc::new(WorkloadMix::new(
        microfaas_workloads::FunctionId::ALL.to_vec(),
        20,
    ));
    c.bench_function("single_microfaas_run_340_jobs", |b| {
        b.iter(|| {
            microfaas::micro::run_microfaas(black_box(&MicroFaasConfig::paper_prototype(
                std::sync::Arc::clone(&mix),
                1,
            )))
        })
    });
}

criterion_group!(
    benches,
    bench_parallel_vm_sweep,
    bench_parallel_replicates,
    bench_event_queue_mixes,
    bench_single_run
);
criterion_main!(benches);
