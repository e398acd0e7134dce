//! Guards the cost of the scheduling subsystem on the event-loop hot
//! path. `microfaas-sched` replaced two hard-coded dispatch paths with
//! a `PolicyEngine` that decides each placement and governor question
//! by one `match` on its `PlacementKind` or `GovernorKind`; these
//! benches pin that the default-policy closed-loop run costs the same
//! as before the subsystem existed, and measure what turning the
//! subsystem *on* adds. Numbers are recorded in
//! `BENCH_sched_overhead.json` at the repo root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use microfaas::config::WorkloadMix;
use microfaas::micro::{run_microfaas, MicroFaasConfig};
use microfaas::openloop::{run_open_loop, ArrivalProcess, OpenLoopConfig};
use microfaas_sched::{GovernorKind, NodeView, PlacementKind, PolicyEngine};
use microfaas_sim::{Rng, SimDuration};
use microfaas_workloads::FunctionId;
use std::hint::black_box;

/// The same 340-job closed-loop run as `cluster_sim`'s
/// `microfaas_run_340_jobs`, per placement/governor pair. The
/// `work-conserving/reboot-per-job` case is the pre-subsystem hot path
/// (compare against the golden `pre` entry in the JSON record); the
/// others price the live subsystem (policy views + policy decisions).
fn bench_closed_loop_dispatch(c: &mut Criterion) {
    let mix = WorkloadMix::new(FunctionId::ALL.to_vec(), 20);
    let mut group = c.benchmark_group("sched_overhead_closed_loop");
    for (name, placement, governor) in [
        (
            "work-conserving/reboot-per-job",
            PlacementKind::WorkConserving,
            GovernorKind::RebootPerJob,
        ),
        (
            "random-static/reboot-per-job",
            PlacementKind::RandomStatic,
            GovernorKind::RebootPerJob,
        ),
        (
            "jsq/keep-alive",
            PlacementKind::JoinShortestQueue,
            GovernorKind::KeepAlive {
                idle_timeout: SimDuration::from_secs(10),
            },
        ),
    ] {
        group.bench_with_input(
            BenchmarkId::new("micro_340_jobs", name),
            &(placement, governor),
            |b, &(placement, governor)| {
                b.iter(|| {
                    let mut config = MicroFaasConfig::paper_prototype(mix.clone(), 42);
                    config.assignment = placement;
                    config.governor = governor;
                    run_microfaas(black_box(&config))
                })
            },
        );
    }
    group.finish();
}

/// Open-loop arrival path: the default (legacy `random-static` stream
/// discipline, governor off) against a fully active policy pair.
fn bench_open_loop_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched_overhead_open_loop");
    for (name, placement, governor) in [
        (
            "random-static/reboot-per-job",
            PlacementKind::RandomStatic,
            GovernorKind::RebootPerJob,
        ),
        (
            "warm-first/warm-pool",
            PlacementKind::WarmFirst,
            GovernorKind::WarmPool {
                alpha: 0.2,
                headroom: 1.5,
            },
        ),
    ] {
        group.bench_with_input(
            BenchmarkId::new("open_600s_2jps", name),
            &(placement, governor),
            |b, &(placement, governor)| {
                b.iter(|| {
                    let mut config =
                        OpenLoopConfig::paper_arrangement(2, SimDuration::from_secs(600), 2022);
                    config.arrival = ArrivalProcess::Poisson { per_second: 2.0 };
                    config.scheduler = placement;
                    config.governor = governor;
                    run_open_loop(black_box(&config))
                })
            },
        );
    }
    group.finish();
}

/// The raw per-decision cost of `PolicyEngine::place` over a 10-node
/// view snapshot — the decision itself, isolated from the simulator.
fn bench_placement_decision(c: &mut Criterion) {
    let views: Vec<NodeView> = (0..10)
        .map(|i| NodeView {
            queued: (i * 7) % 5,
            busy: i % 3 != 0,
            powered: i % 4 != 1,
            load: (i as f64) * 0.7,
        })
        .collect();
    let mut group = c.benchmark_group("sched_overhead_place");
    for placement in PlacementKind::ALL {
        group.bench_with_input(
            BenchmarkId::new("place_10_views", placement.label()),
            &placement,
            |b, &placement| {
                let mut engine = PolicyEngine::new(placement, GovernorKind::RebootPerJob, 7);
                let mut sim_rng = Rng::new(7);
                b.iter(|| black_box(engine.place(black_box(&views), &mut sim_rng)))
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_closed_loop_dispatch,
    bench_open_loop_dispatch,
    bench_placement_decision
);
criterion_main!(benches);
