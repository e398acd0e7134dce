//! The result cache's two determinism contracts (docs/CACHING.md):
//!
//! 1. **Off = inert.** `CacheConfig::Off` (the default) leaves every
//!    observable surface byte-identical to pre-cache builds: traces
//!    contain no cache events, and Prometheus expositions contain no
//!    `cache` substring. (The 18 golden fingerprints in
//!    `sched_compat.rs` pin the absolute bytes; this file pins the
//!    cache-specific surfaces.)
//! 2. **On = `--jobs`-invariant.** Cached runs are bit-identical at
//!    every job count: the same sweep serialized through one thread or
//!    fanned over eight must produce the same CSV bytes, hit counts,
//!    and derived columns.

use microfaas::cache::{CacheConfig, ResultCache};
use microfaas::experiment::{
    policy_sweep_cached_jobs, policy_sweep_csv, scenario_sweep_cached_jobs, scenario_sweep_csv,
};
use microfaas::openloop::{run_open_loop, ArrivalProcess, OpenLoopConfig};
use microfaas::Popularity;
use microfaas::Scenario;
use microfaas_sim::trace::{Observer, TraceBuffer};
use microfaas_sim::{Jobs, MetricsRegistry, SimDuration};
use proptest::prelude::*;

fn cached_config(seed: u64, rate: f64, cache: CacheConfig) -> OpenLoopConfig {
    let mut config = OpenLoopConfig::paper_arrangement(0, SimDuration::from_secs(120), seed);
    config.arrival = ArrivalProcess::Poisson { per_second: rate };
    config.popularity = Popularity::Zipf { exponent: 1.1 };
    config.cache = cache;
    config
}

#[test]
fn off_spec_is_the_default_config() {
    assert_eq!(CacheConfig::parse("off").unwrap(), CacheConfig::Off);
    assert_eq!(CacheConfig::default(), CacheConfig::Off);
    assert!(!CacheConfig::Off.enabled());
    assert!(ResultCache::<u64>::from_config(&CacheConfig::Off).is_none());
}

#[test]
fn cache_off_traces_and_expositions_are_cache_free() {
    let config = cached_config(7, 2.0, CacheConfig::Off);
    let mut trace = TraceBuffer::new(1 << 20);
    let mut metrics = MetricsRegistry::new();
    let run = microfaas::openloop::run_open_loop_with(
        &config,
        &mut Observer::full(&mut trace, &mut metrics),
    );
    assert_eq!(run.cache_hits + run.cache_misses + run.cache_coalesced, 0);
    let json = trace.to_json_lines();
    for kind in ["cache_hit", "cache_miss", "coalesced"] {
        assert!(!json.contains(kind), "{kind} leaked into a cache-off trace");
    }
    assert!(
        !metrics.render_prometheus().contains("cache"),
        "cache metric leaked into a cache-off exposition"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cached single runs: the same seed gives the same bits whether
    /// the run is repeated or not, including every cache counter.
    #[test]
    fn cached_runs_are_deterministic(seed in 0u64..10_000) {
        let config = cached_config(seed, 2.0, CacheConfig::parse("lru:512,ttl=60").unwrap());
        let a = run_open_loop(&config);
        let b = run_open_loop(&config);
        prop_assert_eq!(a.mean_latency_s.to_bits(), b.mean_latency_s.to_bits());
        prop_assert_eq!(a.joules_per_function.to_bits(), b.joules_per_function.to_bits());
        prop_assert_eq!(
            (a.completed, a.cache_hits, a.cache_misses, a.cache_coalesced),
            (b.completed, b.cache_hits, b.cache_misses, b.cache_coalesced)
        );
        prop_assert_eq!(
            a.cache_hits + a.cache_misses + a.cache_coalesced,
            a.completed,
            "every completion is exactly one of hit/miss/coalesced"
        );
    }

    /// Cached policy sweeps: serial and eight-way-parallel fan-out must
    /// render byte-identical CSV, hit-rate columns included.
    #[test]
    fn cached_policy_sweeps_are_jobs_invariant(seed in 0u64..1_000) {
        let cache = CacheConfig::parse("lru:1024,ttl=120").unwrap();
        let duration = SimDuration::from_secs(60);
        let serial = policy_sweep_cached_jobs(0.5, duration, 4, seed, &cache, Jobs::serial());
        let parallel = policy_sweep_cached_jobs(0.5, duration, 4, seed, &cache, Jobs::new(8));
        prop_assert_eq!(policy_sweep_csv(&serial), policy_sweep_csv(&parallel));
        prop_assert!(
            serial.iter().any(|p| p.hit_rate > 0.0),
            "a 60 s Zipf-free sweep still repeats inputs enough to hit"
        );
    }

    /// Cached scenario sweeps: same contract across the regime suite,
    /// winner column included.
    #[test]
    fn cached_scenario_sweeps_are_jobs_invariant(seed in 0u64..1_000) {
        let cache = CacheConfig::parse("lru:1024").unwrap();
        let suite = Scenario::standard_suite();
        let duration = SimDuration::from_secs(30);
        let serial =
            scenario_sweep_cached_jobs(&suite, duration, 4, seed, &cache, Jobs::serial());
        let parallel =
            scenario_sweep_cached_jobs(&suite, duration, 4, seed, &cache, Jobs::new(8));
        prop_assert_eq!(scenario_sweep_csv(&serial), scenario_sweep_csv(&parallel));
    }
}
