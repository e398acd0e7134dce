//! Serial/parallel bit-identity for the deterministic experiment engine.
//!
//! Every public sweep and replicate entry point must produce output at
//! `jobs=8` that is bit-identical to `jobs=1` — results, trace event
//! streams, metrics expositions, and fault counters alike. These tests
//! are the contract `docs/PERFORMANCE.md` documents and `ci/check.sh`
//! gates on.

use proptest::prelude::*;
use std::sync::Arc;

use microfaas::config::WorkloadMix;
use microfaas::conventional::{run_conventional_with, ConventionalConfig};
use microfaas::experiment::{
    compare_suites_faulted_jobs, conventional_replicates, micro_replicates, sbc_scale_sweep_jobs,
    vm_sweep_jobs,
};
use microfaas::micro::{run_microfaas_with, MicroFaasConfig};
use microfaas::report::ClusterRun;
use microfaas_sim::faults::FaultPlan;
use microfaas_sim::{par_map_indexed, Jobs, MetricsRegistry, Observer, TraceBuffer};
use microfaas_workloads::FunctionId;

fn jobs8() -> Jobs {
    Jobs::new(8)
}

/// Field-by-field bit-identity for two cluster runs (ClusterRun holds
/// floats, so this is exact `==`, not approximate comparison).
fn assert_runs_identical(a: &ClusterRun, b: &ClusterRun, what: &str) {
    assert_eq!(a.label, b.label, "{what}: label");
    assert_eq!(a.workers, b.workers, "{what}: workers");
    assert_eq!(a.makespan, b.makespan, "{what}: makespan");
    assert_eq!(a.records, b.records, "{what}: job records");
    assert_eq!(a.dropped, b.dropped, "{what}: dropped jobs");
    assert_eq!(a.faults, b.faults, "{what}: fault counters");
    assert_eq!(
        a.energy.total_joules, b.energy.total_joules,
        "{what}: energy joules"
    );
    assert_eq!(
        a.energy.elapsed_seconds, b.energy.elapsed_seconds,
        "{what}: energy elapsed"
    );
    assert_eq!(
        a.energy.average_watts, b.energy.average_watts,
        "{what}: energy watts"
    );
    assert_eq!(
        a.energy.functions_completed, b.energy.functions_completed,
        "{what}: energy completions"
    );
}

/// A plan mixing a scheduled crash with probabilistic faults, so the
/// parity checks cover the fault RNG stream, retries, and recovery.
fn noisy_plan() -> FaultPlan {
    FaultPlan::from_json(
        r#"{
            "seed": 99,
            "faults": [
                {"kind": "crash", "worker": 3, "at_s": 5.0},
                {"kind": "boot_failure", "p": 0.15},
                {"kind": "net_loss", "p": 0.05}
            ]
        }"#,
    )
    .expect("valid plan")
}

#[test]
fn vm_sweep_parity() {
    let serial = vm_sweep_jobs(10, 8, 2022, Jobs::serial());
    let parallel = vm_sweep_jobs(10, 8, 2022, jobs8());
    assert_eq!(serial, parallel);
    assert_eq!(serial.len(), 10);
}

#[test]
fn sbc_scale_sweep_parity() {
    let counts = [3usize, 5, 10, 20, 40];
    let serial = sbc_scale_sweep_jobs(&counts, 6, 2022, Jobs::serial());
    let parallel = sbc_scale_sweep_jobs(&counts, 6, 2022, jobs8());
    assert_eq!(serial, parallel);
    assert_eq!(
        parallel.iter().map(|p| p.workers).collect::<Vec<_>>(),
        counts,
        "gather preserves canonical point order"
    );
}

#[test]
fn compare_suites_parity() {
    let none = Arc::default();
    let serial =
        compare_suites_faulted_jobs(6, 2022, &none, &mut MetricsRegistry::new(), Jobs::serial());
    let parallel =
        compare_suites_faulted_jobs(6, 2022, &none, &mut MetricsRegistry::new(), jobs8());
    assert_runs_identical(&serial.micro, &parallel.micro, "micro");
    assert_runs_identical(&serial.conventional, &parallel.conventional, "conventional");
    assert_eq!(serial.rows, parallel.rows);
}

#[test]
fn compare_suites_faulted_parity_including_metrics_and_counters() {
    let faults = Arc::new(noisy_plan());
    let mut serial_metrics = MetricsRegistry::new();
    let serial = compare_suites_faulted_jobs(6, 2022, &faults, &mut serial_metrics, Jobs::serial());
    let mut parallel_metrics = MetricsRegistry::new();
    let parallel = compare_suites_faulted_jobs(6, 2022, &faults, &mut parallel_metrics, jobs8());

    assert_runs_identical(&serial.micro, &parallel.micro, "micro");
    assert_runs_identical(&serial.conventional, &parallel.conventional, "conventional");
    assert!(
        serial.micro.faults.injected > 0,
        "the plan must actually fire for this test to mean anything"
    );
    assert_eq!(
        serial_metrics.render_prometheus(),
        parallel_metrics.render_prometheus(),
        "metrics exposition must be byte-identical"
    );
    assert_eq!(serial_metrics, parallel_metrics);
}

#[test]
fn replicate_summaries_are_jobs_invariant() {
    let mut micro = MicroFaasConfig::paper_prototype(WorkloadMix::quick(), 0);
    micro.faults = Arc::new(noisy_plan());
    let serial = micro_replicates(&micro, 6, 500, Jobs::serial());
    let parallel = micro_replicates(&micro, 6, 500, jobs8());
    assert_eq!(serial, parallel, "micro replicate summary");
    assert!(serial.faults_injected > 0, "plan fires across replicates");

    let conv = ConventionalConfig::paper_baseline(WorkloadMix::quick(), 0);
    let serial = conventional_replicates(&conv, 6, 500, Jobs::serial());
    let parallel = conventional_replicates(&conv, 6, 500, jobs8());
    assert_eq!(serial, parallel, "conventional replicate summary");
}

/// Trace streams: fanning traced runs across threads must yield the
/// exact JSON-lines bytes the serial loop produces, run for run.
#[test]
fn trace_streams_are_jobs_invariant() {
    let mix = Arc::new(WorkloadMix::quick());
    let faults = Arc::new(noisy_plan());
    let traced_run = |seed: u64| {
        let mut buffer = TraceBuffer::new(1 << 16);
        let mut config = MicroFaasConfig::paper_prototype(Arc::clone(&mix), seed);
        config.faults = faults.clone();
        run_microfaas_with(&config, &mut Observer::tracing(&mut buffer));
        buffer.to_json_lines()
    };
    let serial = par_map_indexed(Jobs::serial(), 5, |i| traced_run(900 + i as u64));
    let parallel = par_map_indexed(jobs8(), 5, |i| traced_run(900 + i as u64));
    assert_eq!(serial, parallel);
    assert!(
        serial
            .iter()
            .all(|t| t.contains("\"type\":\"fault_injected\"")),
        "traces must include the injected faults"
    );
}

/// Both cluster simulators, traced and metered, through the engine: the
/// full observability surface is identical at any job count.
#[test]
fn conventional_trace_and_metrics_are_jobs_invariant() {
    let mix = Arc::new(WorkloadMix::quick());
    let observed_run = |seed: u64| {
        let mut buffer = TraceBuffer::new(1 << 16);
        let mut metrics = MetricsRegistry::new();
        let config = ConventionalConfig::paper_baseline(Arc::clone(&mix), seed);
        run_conventional_with(&config, &mut Observer::full(&mut buffer, &mut metrics));
        (buffer.to_json_lines(), metrics.render_prometheus())
    };
    let serial = par_map_indexed(Jobs::serial(), 4, |i| observed_run(30 + i as u64));
    let parallel = par_map_indexed(jobs8(), 4, |i| observed_run(30 + i as u64));
    assert_eq!(serial, parallel);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Parity holds for arbitrary seeds, sweep widths, and job counts —
    /// not just the hand-picked cases above.
    #[test]
    fn vm_sweep_parity_for_arbitrary_inputs(
        seed in any::<u64>(),
        max_vms in 1usize..6,
        invocations in 1u32..4,
        jobs in 2usize..12,
    ) {
        let serial = vm_sweep_jobs(max_vms, invocations, seed, Jobs::serial());
        let parallel = vm_sweep_jobs(max_vms, invocations, seed, Jobs::new(jobs));
        prop_assert_eq!(serial, parallel);
    }

    /// The engine itself preserves canonical order for arbitrary
    /// work-item counts and worker counts.
    #[test]
    fn par_map_order_for_arbitrary_shapes(count in 0usize..64, jobs in 1usize..16) {
        let out = par_map_indexed(Jobs::new(jobs), count, |i| i * 7 + 1);
        prop_assert_eq!(out, (0..count).map(|i| i * 7 + 1).collect::<Vec<_>>());
    }

    /// Replicate aggregation (including its floating-point fold order)
    /// is jobs-invariant for arbitrary seeds.
    #[test]
    fn replicates_parity_for_arbitrary_seeds(base_seed in any::<u64>(), jobs in 2usize..10) {
        let base = MicroFaasConfig::paper_prototype(
            WorkloadMix::new(vec![FunctionId::FloatOps, FunctionId::RedisInsert], 2),
            0,
        );
        let serial = micro_replicates(&base, 3, base_seed, Jobs::serial());
        let parallel = micro_replicates(&base, 3, base_seed, Jobs::new(jobs));
        prop_assert_eq!(serial, parallel);
    }
}
