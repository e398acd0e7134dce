//! Property-based tests over whole cluster simulations: conservation,
//! single tenancy, determinism, and physical plausibility hold for
//! arbitrary configurations, not just the paper's.

use proptest::prelude::*;

use microfaas::config::{Jitter, WorkloadMix};
use microfaas::conventional::{run_conventional, ConventionalConfig};
use microfaas::micro::{run_microfaas, MicroFaasConfig};
use microfaas::timeline::Timeline;
use microfaas_sched::PlacementKind;
use microfaas_workloads::FunctionId;

fn mix_strategy() -> impl Strategy<Value = WorkloadMix> {
    (prop::collection::btree_set(0usize..17, 1..17), 1u32..8).prop_map(|(indices, invocations)| {
        let functions: Vec<FunctionId> = indices.into_iter().map(|i| FunctionId::ALL[i]).collect();
        WorkloadMix::new(functions, invocations)
    })
}

fn micro_config_strategy() -> impl Strategy<Value = MicroFaasConfig> {
    (
        mix_strategy(),
        1usize..12,
        any::<u64>(),
        any::<bool>(),
        any::<bool>(),
        prop_oneof![
            Just(PlacementKind::WorkConserving),
            Just(PlacementKind::RandomStatic)
        ],
    )
        .prop_map(|(mix, workers, seed, reboot, gating, assignment)| {
            let mut config = MicroFaasConfig::paper_prototype(mix, seed);
            config.workers = workers;
            config.reboot_between_jobs = reboot;
            config.power_gating = gating;
            config.assignment = assignment;
            config
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every queued job completes exactly once, whatever the config.
    #[test]
    fn microfaas_conserves_jobs(config in micro_config_strategy()) {
        let expected = config.mix.total_jobs();
        let run = run_microfaas(&config);
        prop_assert_eq!(run.jobs_completed(), expected);
        let mut ids: Vec<u64> = run.records.iter().map(|r| r.job.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len() as u64, expected, "duplicate completions");
    }

    /// The run-to-completion guarantee: no worker ever overlaps two jobs.
    #[test]
    fn microfaas_single_tenancy(config in micro_config_strategy()) {
        let run = run_microfaas(&config);
        let timeline = Timeline::from_run(&run);
        prop_assert_eq!(timeline.overlap_violation(), None);
    }

    /// Bit-identical reruns for any configuration.
    #[test]
    fn microfaas_deterministic(config in micro_config_strategy()) {
        let a = run_microfaas(&config);
        let b = run_microfaas(&config);
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.energy.total_joules, b.energy.total_joules);
    }

    /// Energy is physically bounded: between zero and every worker busy
    /// for the whole makespan (plus standby floors).
    #[test]
    fn microfaas_energy_bounds(config in micro_config_strategy()) {
        let run = run_microfaas(&config);
        prop_assert!(run.energy.total_joules >= 0.0);
        let upper = config.workers as f64 * 1.96 * run.energy.elapsed_seconds + 1.0;
        prop_assert!(
            run.energy.total_joules <= upper,
            "energy {} exceeds all-busy bound {}",
            run.energy.total_joules,
            upper
        );
    }

    /// The conventional cluster conserves jobs and never drops below the
    /// host's idle energy floor.
    #[test]
    fn conventional_conserves_jobs_and_pays_the_floor(
        mix in mix_strategy(),
        vms in 1usize..12,
        seed in any::<u64>(),
    ) {
        let mut config = ConventionalConfig::paper_baseline(mix.clone(), seed);
        config.vms = vms;
        let run = run_conventional(&config);
        prop_assert_eq!(run.jobs_completed(), mix.total_jobs());
        // Average power can never drop below the 60 W idle floor.
        prop_assert!(
            run.energy.average_watts >= 59.999,
            "average {} W below the idle floor",
            run.energy.average_watts
        );
    }

    /// MicroFaaS with jitter disabled reproduces calibrated exec times
    /// exactly, for any subset of functions.
    #[test]
    fn no_jitter_is_exactly_calibrated(mix in mix_strategy(), seed in any::<u64>()) {
        use microfaas_workloads::calibration::{service_time, WorkerPlatform};
        let mut config = MicroFaasConfig::paper_prototype(mix, seed);
        config.jitter = Jitter::none();
        let run = run_microfaas(&config);
        for record in &run.records {
            let expected = service_time(record.job.function).exec(WorkerPlatform::ArmSbc);
            prop_assert_eq!(record.exec, expected);
        }
    }
}
