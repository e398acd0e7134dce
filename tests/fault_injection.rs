//! Property-based tests over the fault-injection subsystem: an empty
//! (or zero-probability) plan is bit-identical to no plan at all, every
//! submitted invocation reaches exactly one terminal state whatever the
//! plan, energy stays physical through crash and reboot windows, and a
//! job is only ever failed once its retry budget is spent.

use std::sync::Arc;

use proptest::prelude::*;

use microfaas::config::WorkloadMix;
use microfaas::conventional::{run_conventional, ConventionalConfig};
use microfaas::micro::{run_microfaas, MicroFaasConfig};
use microfaas_sched::PlacementKind;
use microfaas_sim::faults::{FaultKind, FaultPlan, FaultSpec, FaultTrigger};
use microfaas_sim::{SimDuration, SimTime};
use microfaas_workloads::FunctionId;

fn mix_strategy() -> impl Strategy<Value = WorkloadMix> {
    (prop::collection::btree_set(0usize..17, 1..17), 1u32..6).prop_map(|(indices, invocations)| {
        let functions: Vec<FunctionId> = indices.into_iter().map(|i| FunctionId::ALL[i]).collect();
        WorkloadMix::new(functions, invocations)
    })
}

/// Arbitrary plans over a 10-worker fleet: up to three scheduled
/// crashes early in the run plus every probabilistic kind at a modest
/// rate, driven by an arbitrary injector seed.
fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        prop::collection::vec((0usize..10, 1u64..45), 0..3),
        0.0f64..0.25,
        0.0f64..0.15,
        0.0f64..0.10,
    )
        .prop_map(|(seed, crashes, boot_p, hang_p, loss_p)| {
            let mut faults: Vec<FaultSpec> = crashes
                .into_iter()
                .map(|(worker, at_s)| FaultSpec {
                    kind: FaultKind::Crash,
                    worker: Some(worker),
                    trigger: FaultTrigger::At(SimTime::ZERO + SimDuration::from_secs(at_s)),
                })
                .collect();
            for (kind, p) in [
                (FaultKind::BootFailure, boot_p),
                (FaultKind::Hang, hang_p),
                (FaultKind::NetLoss, loss_p),
            ] {
                faults.push(FaultSpec {
                    kind,
                    worker: None,
                    trigger: FaultTrigger::Probability(p),
                });
            }
            FaultPlan { seed, faults }
        })
}

/// A plan whose every probabilistic entry has `p = 0`: present but
/// inert, so it must change nothing.
fn zero_probability_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        faults: [FaultKind::BootFailure, FaultKind::Hang, FaultKind::NetLoss]
            .into_iter()
            .map(|kind| FaultSpec {
                kind,
                worker: None,
                trigger: FaultTrigger::Probability(0.0),
            })
            .collect(),
    }
}

/// Scheduled crashes only, `(worker, at seconds)`, under plan seed 1.
fn crash_plan(crashes: &[(usize, u64)]) -> Arc<FaultPlan> {
    Arc::new(FaultPlan {
        seed: 1,
        faults: crashes
            .iter()
            .map(|&(worker, at_s)| FaultSpec {
                kind: FaultKind::Crash,
                worker: Some(worker),
                trigger: FaultTrigger::At(SimTime::from_secs(at_s)),
            })
            .collect(),
    })
}

/// Job 7 is retried at 300.2 s onto worker 0's static queue. Worker 0
/// has been powered off since 239.5 s, and the retry must wake it even
/// though other workers are still busy.
#[test]
fn a_retry_wakes_the_powered_off_sbc_it_lands_on() {
    let mut config = MicroFaasConfig::paper_prototype(WorkloadMix::quick(), 1);
    config.assignment = PlacementKind::RandomStatic;
    config.faults = crash_plan(&[(5, 300)]);
    let run = run_microfaas(&config);
    assert_eq!(run.failed(), 0, "{:?}", run.dropped);
    assert_eq!(run.jobs_completed(), WorkloadMix::quick().total_jobs());
}

/// Job 487 is retried onto VM 0's static queue while VM 0 sits idle
/// (since 233.5 s). The retry must dispatch it there even though other
/// VMs are still busy.
#[test]
fn a_retry_reaches_the_idle_vm_it_lands_on() {
    let mut config = ConventionalConfig::paper_baseline(WorkloadMix::quick(), 0);
    config.assignment = PlacementKind::RandomStatic;
    config.faults = crash_plan(&[(1, 240)]);
    let run = run_conventional(&config);
    assert_eq!(run.failed(), 0, "{:?}", run.dropped);
    assert_eq!(run.jobs_completed(), WorkloadMix::quick().total_jobs());
}

proptest! {
    // Each case is 14 runs of the 850-job quick mix; about 2% of static
    // placements strand a job when the bug is present, so 64 cases give
    // it room to show.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One to three crashes within the quick mix's run (about 320 s on
    /// SBCs, 255 s on VMs) can neither spend the three-attempt retry
    /// budget nor take live capacity under the 50% shed floor. So under
    /// every placement, every job must complete: a job left queued on a
    /// worker that nothing wakes is a bug, not a failure.
    #[test]
    fn a_few_crashes_strand_no_job_under_any_placement(
        seed in any::<u64>(),
        sbc_crashes in prop::collection::vec((0usize..10, 1u64..320), 1..4),
        vm_crashes in prop::collection::vec((0usize..6, 1u64..255), 1..4),
    ) {
        let mix = Arc::new(WorkloadMix::quick());
        for kind in PlacementKind::ALL {
            let mut micro = MicroFaasConfig::paper_prototype(mix.clone(), seed);
            micro.assignment = kind;
            micro.faults = crash_plan(&sbc_crashes);
            let run = run_microfaas(&micro);
            prop_assert_eq!(run.failed(), 0, "SBC under {}: {:?}", kind, run.dropped);
            prop_assert_eq!(run.shed(), 0);
            prop_assert_eq!(run.jobs_completed(), mix.total_jobs());

            let mut conv = ConventionalConfig::paper_baseline(mix.clone(), seed);
            conv.assignment = kind;
            conv.faults = crash_plan(&vm_crashes);
            let run = run_conventional(&conv);
            prop_assert_eq!(run.failed(), 0, "VM under {}: {:?}", kind, run.dropped);
            prop_assert_eq!(run.shed(), 0);
            prop_assert_eq!(run.jobs_completed(), mix.total_jobs());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Empty and zero-probability plans are bit-identical to the
    /// fault-free default on both clusters — the injection hooks
    /// schedule nothing and draw nothing.
    #[test]
    fn inert_plans_change_nothing(mix in mix_strategy(), seed in any::<u64>(), plan_seed in any::<u64>()) {
        let baseline = run_microfaas(&MicroFaasConfig::paper_prototype(mix.clone(), seed));
        for plan in [FaultPlan::empty(), zero_probability_plan(plan_seed)] {
            let mut config = MicroFaasConfig::paper_prototype(mix.clone(), seed);
            config.faults = Arc::new(plan);
            let run = run_microfaas(&config);
            prop_assert_eq!(run.makespan, baseline.makespan);
            prop_assert_eq!(run.energy.total_joules, baseline.energy.total_joules);
            prop_assert_eq!(&run.records, &baseline.records);
            prop_assert_eq!(run.faults.injected, 0);
            prop_assert!(run.dropped.is_empty());
        }

        let conv_baseline = run_conventional(&ConventionalConfig::paper_baseline(mix.clone(), seed));
        for plan in [FaultPlan::empty(), zero_probability_plan(plan_seed)] {
            let mut config = ConventionalConfig::paper_baseline(mix.clone(), seed);
            config.faults = Arc::new(plan);
            let run = run_conventional(&config);
            prop_assert_eq!(run.makespan, conv_baseline.makespan);
            prop_assert_eq!(run.energy.total_joules, conv_baseline.energy.total_joules);
            prop_assert_eq!(&run.records, &conv_baseline.records);
            prop_assert_eq!(run.faults.injected, 0);
        }
    }

    /// Conservation under arbitrary plans: completions plus typed drops
    /// (timed out, shed, failed) account for every submitted invocation
    /// on both clusters, and the terminal counters are consistent.
    #[test]
    fn every_job_reaches_one_terminal_state(
        mix in mix_strategy(),
        seed in any::<u64>(),
        plan in plan_strategy(),
    ) {
        let submitted = mix.total_jobs();

        let mut micro = MicroFaasConfig::paper_prototype(mix.clone(), seed);
        micro.faults = Arc::new(plan.clone());
        let run = run_microfaas(&micro);
        prop_assert_eq!(run.jobs_accounted(), submitted);
        prop_assert_eq!(
            run.timed_out() + run.shed() + run.failed(),
            run.dropped.len() as u64,
            "every drop carries one of the typed outcomes"
        );

        let mut conv = ConventionalConfig::paper_baseline(mix.clone(), seed);
        conv.faults = Arc::new(plan);
        let run = run_conventional(&conv);
        prop_assert_eq!(run.jobs_accounted(), submitted);
        prop_assert_eq!(
            run.timed_out() + run.shed() + run.failed(),
            run.dropped.len() as u64
        );
    }

    /// Energy meters stay physical through crash and reboot windows:
    /// non-negative totals and a finite per-worker power bound, and the
    /// whole faulted run stays deterministic.
    #[test]
    fn faulted_energy_is_physical_and_deterministic(
        mix in mix_strategy(),
        seed in any::<u64>(),
        plan in plan_strategy(),
    ) {
        let mut config = MicroFaasConfig::paper_prototype(mix, seed);
        config.faults = Arc::new(plan);
        let a = run_microfaas(&config);
        prop_assert!(a.energy.total_joules >= 0.0);
        prop_assert!(a.energy.average_watts >= 0.0);
        let upper = config.workers as f64 * 1.96 * a.energy.elapsed_seconds + 1.0;
        prop_assert!(
            a.energy.total_joules <= upper,
            "energy {} exceeds all-busy bound {}",
            a.energy.total_joules,
            upper
        );

        let b = run_microfaas(&config);
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.energy.total_joules, b.energy.total_joules);
        prop_assert_eq!(a.faults.injected, b.faults.injected);
        prop_assert_eq!(a.dropped.len(), b.dropped.len());
    }
}
