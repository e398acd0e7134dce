//! Parity and invariants for causal span derivation and the Perfetto
//! exporter (`docs/TRACING.md`).
//!
//! Span trees are a pure function of the trace, and the trace is a pure
//! function of configuration + seed — so spans and their Chrome
//! trace-event export must be bit-identical across `--jobs` settings
//! and across same-seed reruns. On top of the parity checks, the
//! property tests pin the decomposition invariant: every span's five
//! phase durations sum *exactly* (in integer microseconds) to its
//! end-to-end latency.

use proptest::prelude::*;
use std::sync::Arc;

use microfaas::config::WorkloadMix;
use microfaas::conventional::{run_conventional_with, ConventionalConfig};
use microfaas::micro::{run_microfaas_with, MicroFaasConfig};
use microfaas::openloop::{run_open_loop_with, ArrivalProcess, OpenLoopConfig};
use microfaas_sim::faults::FaultPlan;
use microfaas_sim::{
    export_chrome_trace, par_map_indexed, validate_chrome_trace, CriticalPath, Jobs, Observer,
    SimDuration, SpanTree, TraceBuffer,
};

fn traced_micro(seed: u64) -> TraceBuffer {
    let mut buffer = TraceBuffer::new(1 << 18);
    let config = MicroFaasConfig::paper_prototype(WorkloadMix::quick(), seed);
    run_microfaas_with(&config, &mut Observer::tracing(&mut buffer));
    buffer
}

fn traced_conventional(seed: u64) -> TraceBuffer {
    let mut buffer = TraceBuffer::new(1 << 18);
    let config = ConventionalConfig::paper_baseline(WorkloadMix::quick(), seed);
    run_conventional_with(&config, &mut Observer::tracing(&mut buffer));
    buffer
}

fn assert_phases_sum(tree: &SpanTree, what: &str) {
    assert!(!tree.jobs().is_empty(), "{what}: no spans derived");
    for span in tree.jobs() {
        let sum: u64 = span.phases().iter().map(|d| d.as_micros()).sum();
        assert_eq!(
            sum,
            span.end_to_end().as_micros(),
            "{what}: job #{} phases {:?} do not sum to end-to-end",
            span.job,
            span.phases()
        );
    }
}

/// Deriving spans and exporting Perfetto JSON through the experiment
/// engine yields the exact bytes the serial loop produces.
#[test]
fn span_trees_and_perfetto_are_jobs_invariant() {
    let derived = |seed: u64| {
        let buffer = traced_micro(seed);
        let tree = SpanTree::from_buffer(&buffer);
        let json = export_chrome_trace(&tree, "micro");
        (tree, json)
    };
    let serial = par_map_indexed(Jobs::serial(), 4, |i| derived(300 + i as u64));
    let parallel = par_map_indexed(Jobs::new(8), 4, |i| derived(300 + i as u64));
    assert_eq!(serial, parallel);
}

/// Same seed, fresh run: the span tree and its export never drift.
#[test]
fn same_seed_reruns_are_bit_identical() {
    for seed in [1u64, 2022] {
        let a = SpanTree::from_buffer(&traced_micro(seed));
        let b = SpanTree::from_buffer(&traced_micro(seed));
        assert_eq!(a, b, "seed {seed}: span trees diverged across reruns");
        assert_eq!(
            export_chrome_trace(&a, "micro"),
            export_chrome_trace(&b, "micro"),
            "seed {seed}: perfetto bytes diverged across reruns"
        );
    }
}

/// The exported JSON survives the hand-rolled parser and carries one
/// service slice per completed job plus per-worker track metadata.
#[test]
fn perfetto_export_round_trips_the_parser() {
    let tree = SpanTree::from_buffer(&traced_micro(7));
    let json = export_chrome_trace(&tree, "micro");
    let summary = validate_chrome_trace(&json).expect("schema-valid export");
    assert!(
        summary.complete >= tree.jobs().len(),
        "at least one X slice per span"
    );
    assert_eq!(
        summary.metadata,
        2 + 2 * tree.worker_count(),
        "two process names plus a thread name per worker per process"
    );
    assert_eq!(
        summary.events,
        summary.complete + summary.instant + summary.metadata
    );
}

/// Spans derived from a faulted run still decompose exactly, and the
/// injected faults surface as instant marks cross-linked by worker.
#[test]
fn faulted_runs_keep_the_decomposition_exact() {
    let plan = FaultPlan::from_json(
        r#"{
            "seed": 99,
            "faults": [
                {"kind": "crash", "worker": 3, "at_s": 5.0},
                {"kind": "boot_failure", "p": 0.15},
                {"kind": "net_loss", "p": 0.05}
            ]
        }"#,
    )
    .expect("valid plan");
    let mut buffer = TraceBuffer::new(1 << 18);
    let mut config = MicroFaasConfig::paper_prototype(WorkloadMix::quick(), 2022);
    config.faults = Arc::new(plan);
    run_microfaas_with(&config, &mut Observer::tracing(&mut buffer));
    let tree = SpanTree::from_buffer(&buffer);
    assert_phases_sum(&tree, "faulted micro");
    assert!(!tree.faults().is_empty(), "plan must fire");
    assert!(tree
        .faults()
        .iter()
        .all(|mark| mark.worker < tree.worker_count()));
    let json = export_chrome_trace(&tree, "micro");
    let summary = validate_chrome_trace(&json).expect("schema-valid export");
    assert!(summary.instant >= tree.faults().len());
}

/// Critical-path aggregation covers every derived span, and its phase
/// means sum to the end-to-end mean (same exact-decomposition fact,
/// seen through the analyzer).
#[test]
fn critical_path_accounts_for_every_span() {
    let tree = SpanTree::from_buffer(&traced_micro(42));
    let mut path = CriticalPath::analyze(&tree);
    assert_eq!(path.overall().jobs(), tree.jobs().len());
    let mean_sum: f64 = microfaas_sim::span::Phase::ALL
        .iter()
        .map(|&p| path.overall().phase_mean_ms(p))
        .sum();
    let e2e_mean: f64 = tree
        .jobs()
        .iter()
        .map(|s| s.end_to_end().as_millis_f64())
        .sum::<f64>()
        / tree.jobs().len() as f64;
    assert!(
        (mean_sum - e2e_mean).abs() < 1e-6,
        "phase means {mean_sum} vs end-to-end mean {e2e_mean}"
    );
    let table = path.cluster_breakdown("micro");
    assert!(table.contains("end-to-end"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The exact-decomposition invariant holds on real closed-loop runs
    /// of both clusters, for arbitrary seeds.
    #[test]
    fn phase_durations_sum_to_end_to_end(seed in any::<u64>()) {
        let micro = SpanTree::from_buffer(&traced_micro(seed));
        assert_phases_sum(&micro, "micro");
        prop_assert_eq!(micro.skipped(), 0, "lossless buffer loses no spans");

        let conv = SpanTree::from_buffer(&traced_conventional(seed));
        assert_phases_sum(&conv, "conventional");
        prop_assert_eq!(conv.skipped(), 0);
    }

    /// Open-loop runs (arrivals, power gating, warm pools) decompose
    /// exactly too, and their boot phases actually light up: reboots
    /// happen on the job's critical path under the default governor.
    #[test]
    fn open_loop_spans_decompose_exactly(seed in 0u64..10_000) {
        let mut config =
            OpenLoopConfig::paper_arrangement(2, SimDuration::from_secs(300), seed);
        config.arrival = ArrivalProcess::Poisson { per_second: 2.0 };
        let mut buffer = TraceBuffer::new(1 << 18);
        run_open_loop_with(&config, &mut Observer::tracing(&mut buffer));
        let tree = SpanTree::from_buffer(&buffer);
        assert_phases_sum(&tree, "open loop");
        prop_assert!(
            !tree.wakes().is_empty(),
            "power gating must emit wake_requested anchors"
        );
    }

    /// Span derivation itself is deterministic over shared input: many
    /// threads deriving from the same records agree bit for bit.
    #[test]
    fn concurrent_derivation_agrees(seed in any::<u64>(), jobs in 2usize..8) {
        let buffer = Arc::new(traced_micro(seed));
        let trees = par_map_indexed(Jobs::new(jobs), 4, |_| {
            SpanTree::from_buffer(&buffer)
        });
        for tree in &trees[1..] {
            prop_assert_eq!(tree, &trees[0]);
        }
    }
}
