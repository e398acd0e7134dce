//! Property-based tests over the arrival-process family: same-seed
//! bit-identity for every traffic shape, serial/parallel sweep parity,
//! and convergence of empirical arrival rates to the configured
//! generative models (see `docs/WORKLOADS.md`).

use proptest::prelude::*;

use microfaas::arrivals::{ArrivalProcess, ArrivalState, Popularity, Scenario, TenantClass};
use microfaas::cache::CacheConfig;
use microfaas::experiment::{
    policy_sweep_cached_jobs, policy_sweep_csv, scenario_sweep_cached_jobs, scenario_sweep_csv,
};
use microfaas::openloop::{run_open_loop, OpenLoopConfig};
use microfaas_sim::{Jobs, Rng, SimDuration, SimTime};

fn arrival_strategy() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        (0.05f64..4.0).prop_map(|per_second| ArrivalProcess::Poisson { per_second }),
        (1usize..4).prop_map(|jobs_per_tick| ArrivalProcess::EverySecond { jobs_per_tick }),
        (
            (0.05f64..0.5),
            (1.0f64..4.0),
            (60.0f64..300.0),
            (15.0f64..120.0)
        )
            .prop_map(
                |(calm_per_second, burst_per_second, mean_calm_s, mean_burst_s)| {
                    ArrivalProcess::Mmpp {
                        calm_per_second,
                        burst_per_second,
                        mean_calm_s,
                        mean_burst_s,
                    }
                }
            ),
        ((0.1f64..2.0), (0.1f64..0.95), (60.0f64..900.0)).prop_map(
            |(mean_per_second, relative_amplitude, period_s)| ArrivalProcess::Diurnal {
                mean_per_second,
                relative_amplitude,
                period_s,
            }
        ),
        (
            (0.05f64..1.0),
            (10.0f64..400.0),
            (20.0f64..200.0),
            (1.0f64..5.0)
        )
            .prop_map(
                |(base_per_second, spike_at_s, spike_duration_s, spike_per_second)| {
                    ArrivalProcess::FlashCrowd {
                        base_per_second,
                        spike_at_s,
                        spike_duration_s,
                        spike_per_second,
                    }
                }
            ),
    ]
}

/// Draw the arrival point process up to `horizon_s`, returning the gap
/// sequence and the number of jobs released.
fn draw_until(arrival: ArrivalProcess, seed: u64, horizon_s: f64) -> (Vec<SimDuration>, u64) {
    let mut rng = Rng::new(seed);
    let mut state = ArrivalState::default();
    let mut gaps = Vec::new();
    let mut now = SimTime::ZERO;
    let mut jobs = 0u64;
    loop {
        let gap = arrival.next_gap(now, &mut rng, &mut state);
        now += gap;
        if now.as_secs_f64() > horizon_s {
            break;
        }
        gaps.push(gap);
        jobs += arrival.batch() as u64;
    }
    (gaps, jobs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every traffic shape replays the identical gap sequence under the
    /// same seed — nanosecond-for-nanosecond.
    #[test]
    fn same_seed_replays_identical_gaps(
        arrival in arrival_strategy(),
        seed in any::<u64>(),
    ) {
        let (a, jobs_a) = draw_until(arrival, seed, 2_000.0);
        let (b, jobs_b) = draw_until(arrival, seed, 2_000.0);
        prop_assert_eq!(a, b);
        prop_assert_eq!(jobs_a, jobs_b);
    }

    /// A full open-loop simulation under any traffic shape is
    /// bit-identical across reruns.
    #[test]
    fn open_loop_is_bit_identical_under_any_arrival(
        arrival in arrival_strategy(),
        seed in any::<u64>(),
    ) {
        let mut config = OpenLoopConfig::paper_arrangement(1, SimDuration::from_secs(400), seed);
        config.arrival = arrival;
        config.popularity = Popularity::Zipf { exponent: 1.1 };
        config.tenants = vec![
            TenantClass { name: "paid".into(), weight: 0.2, slo_latency_s: 5.0 },
            TenantClass { name: "free".into(), weight: 0.8, slo_latency_s: 60.0 },
        ];
        let a = run_open_loop(&config);
        let b = run_open_loop(&config);
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.mean_latency_s.to_bits(), b.mean_latency_s.to_bits());
        prop_assert_eq!(a.joules_per_function.to_bits(), b.joules_per_function.to_bits());
        prop_assert_eq!(a.power_cycles, b.power_cycles);
        for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
            prop_assert_eq!(ta.completed, tb.completed);
            prop_assert_eq!(ta.attainment().to_bits(), tb.attainment().to_bits());
        }
    }

    /// The empirical arrival count over a long horizon converges to the
    /// model's own [`ArrivalProcess::mean_per_second`] — the generative
    /// processes deliver the rates their parameters promise.
    #[test]
    fn empirical_rate_converges_to_configured_mean(
        arrival in arrival_strategy(),
        seed in any::<u64>(),
    ) {
        let horizon_s = 50_000.0;
        let (_, jobs) = draw_until(arrival, seed, horizon_s);
        let expected = arrival.mean_per_second(horizon_s) * horizon_s;
        let observed = jobs as f64;
        // MMPP dwell sampling is the noisiest contributor: ~120 dwell
        // cycles over the horizon leaves ~10% standard error, so 25%
        // keeps the test deterministic-robust across all shapes.
        let tolerance = 0.25 * expected + 30.0;
        prop_assert!(
            (observed - expected).abs() <= tolerance,
            "observed {} arrivals vs expected {} (tolerance {})",
            observed,
            expected,
            tolerance
        );
    }
}

/// The policy sweep is bit-identical whether it runs serially or on
/// eight worker threads.
#[test]
fn policy_sweep_parity_serial_vs_jobs8() {
    let duration = SimDuration::from_secs(300);
    let off = CacheConfig::Off;
    let serial = policy_sweep_cached_jobs(0.25, duration, 6, 2022, &off, Jobs::serial());
    let parallel = policy_sweep_cached_jobs(0.25, duration, 6, 2022, &off, Jobs::new(8));
    assert_eq!(serial, parallel);
    assert_eq!(policy_sweep_csv(&serial), policy_sweep_csv(&parallel));
}

/// The scenario sweep — every placement × governor pair under every
/// traffic shape — renders byte-identical CSV at jobs=1 and jobs=8.
#[test]
fn scenario_sweep_parity_serial_vs_jobs8() {
    let mut heavy = Scenario::new("heavy-tail", ArrivalProcess::Poisson { per_second: 0.25 });
    heavy.popularity = Popularity::Zipf { exponent: 1.1 };
    heavy.tenants = vec![TenantClass {
        name: "paid".into(),
        weight: 1.0,
        slo_latency_s: 5.0,
    }];
    let scenarios = vec![
        Scenario::new(
            "bursty",
            ArrivalProcess::Mmpp {
                calm_per_second: 0.05,
                burst_per_second: 2.0,
                mean_calm_s: 120.0,
                mean_burst_s: 30.0,
            },
        ),
        heavy,
    ];
    let duration = SimDuration::from_secs(300);
    let off = CacheConfig::Off;
    let serial = scenario_sweep_cached_jobs(&scenarios, duration, 6, 2022, &off, Jobs::serial());
    let parallel = scenario_sweep_cached_jobs(&scenarios, duration, 6, 2022, &off, Jobs::new(8));
    assert_eq!(
        scenario_sweep_csv(&serial),
        scenario_sweep_csv(&parallel),
        "scenario CSV must be byte-identical across job counts"
    );
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.points, b.points);
        assert_eq!(a.winner, b.winner);
    }
}
