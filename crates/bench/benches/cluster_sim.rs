//! Criterion benchmarks of the simulator itself: how fast the
//! discrete-event core chews through cluster runs.

use criterion::{criterion_group, criterion_main, Criterion};
use microfaas::config::WorkloadMix;
use microfaas::conventional::{run_conventional, ConventionalConfig};
use microfaas::micro::{run_microfaas, MicroFaasConfig};
use microfaas_sim::faults::FaultPlan;
use microfaas_sim::{EventQueue, SimTime};
use microfaas_workloads::FunctionId;
use std::hint::black_box;
use std::sync::Arc;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_10k_schedule_pop", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                // Scatter times to exercise heap reordering.
                q.schedule(SimTime::from_micros((i * 2_654_435_761) % 1_000_000_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        })
    });
}

fn bench_cluster_runs(c: &mut Criterion) {
    let mix = WorkloadMix::new(FunctionId::ALL.to_vec(), 20);
    c.bench_function("microfaas_run_340_jobs", |b| {
        b.iter(|| run_microfaas(black_box(&MicroFaasConfig::paper_prototype(mix.clone(), 1))))
    });
    c.bench_function("conventional_run_340_jobs", |b| {
        b.iter(|| {
            run_conventional(black_box(&ConventionalConfig::paper_baseline(
                mix.clone(),
                1,
            )))
        })
    });
}

fn bench_faulted_run(c: &mut Criterion) {
    // The fault hooks' overhead when they actually fire: a scheduled
    // crash plus probabilistic noise over the same 340-job workload.
    let mix = WorkloadMix::new(FunctionId::ALL.to_vec(), 20);
    let plan = FaultPlan::from_json(
        r#"{
            "seed": 99,
            "faults": [
                {"kind": "crash", "worker": 3, "at_s": 10.0},
                {"kind": "boot_failure", "p": 0.1},
                {"kind": "net_loss", "p": 0.02}
            ]
        }"#,
    )
    .expect("valid plan");
    c.bench_function("microfaas_run_340_jobs_faulted", |b| {
        b.iter(|| {
            let mut config = MicroFaasConfig::paper_prototype(mix.clone(), 1);
            config.faults = Arc::new(plan.clone());
            run_microfaas(black_box(&config))
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_cluster_runs,
    bench_faulted_run
);
criterion_main!(benches);
