//! The per-regime winner table: runs the standard five-scenario traffic
//! suite (steady / bursty / diurnal / flash-crowd / heavy-tail) through
//! the full placement × governor cross product — once without and once
//! with the content-addressed result cache — and names each regime's
//! energy-delay-product winner under both configurations.
//!
//! ```bash
//! cargo run --release --example diurnal_pareto
//! ```
//!
//! The point of the exercise: the ~23 s standby-vs-reboot break-even in
//! docs/SCHEDULING.md is a *property of steady Poisson arrivals*, not
//! of the hardware. Change the traffic shape and the winning policy
//! moves — a diurnal trough stretches idle gaps past the break-even
//! while the peak compresses them, and a flash crowd rewards governors
//! that can ride the spike without paying a boot per job. The result
//! cache (docs/CACHING.md) warps the same trade-off a second time: a
//! hit completes with zero boot and zero execution energy, so regimes
//! with repetitive traffic can flip their winner once caching is on.
//! This is the same table the `scenarios` CLI subcommand prints with
//! and without `--cache`; see docs/WORKLOADS.md for the worked
//! walk-through.

use microfaas::arrivals::Scenario;
use microfaas::cache::{CacheConfig, DEFAULT_CACHE_SPEC};
use microfaas::experiment::scenario_sweep_cached_jobs;
use microfaas_sim::{Jobs, SimDuration};

const DURATION_SECS: u64 = 1200;
const WORKERS: usize = 10;
const SEED: u64 = 1;

fn main() {
    let suite = Scenario::standard_suite();
    let duration = SimDuration::from_secs(DURATION_SECS);
    println!(
        "Per-regime EDP winners: {} regimes x 35 policy pairs, {WORKERS} SBCs,\n\
         {DURATION_SECS} s per run, seed {SEED}, cache off vs {DEFAULT_CACHE_SPEC}.\n",
        suite.len()
    );

    let off = CacheConfig::Off;
    let plain = scenario_sweep_cached_jobs(&suite, duration, WORKERS, SEED, &off, Jobs::auto());
    let cache = CacheConfig::parse(DEFAULT_CACHE_SPEC).expect("valid default spec");
    let cached = scenario_sweep_cached_jobs(&suite, duration, WORKERS, SEED, &cache, Jobs::auto());

    println!(
        "{:<12} {:<13} {:<20} {:<15} {:>9} {:>8} {:>8} {:>9}",
        "regime", "arrivals", "placement", "governor", "mean lat", "J/func", "front", "worst SLO"
    );
    for outcome in &plain {
        let Some(w) = outcome.winner else {
            println!("{:<12} no winner", outcome.scenario.name);
            continue;
        };
        let (p, attainment) = (&outcome.points[w], outcome.slo_attainment[w]);
        let front = outcome.points.iter().filter(|p| p.pareto).count();
        println!(
            "{:<12} {:<13} {:<20} {:<15} {:>8.2}s {:>8.2} {:>8} {:>9}",
            outcome.scenario.name,
            outcome.scenario.arrival.label(),
            p.placement.label(),
            p.governor.label(),
            p.mean_latency_s,
            p.joules_per_function,
            front,
            if attainment.is_nan() {
                "-".to_string()
            } else {
                format!("{:.1}%", attainment * 100.0)
            }
        );
    }

    println!("\nSame suite with the result cache on ({DEFAULT_CACHE_SPEC}):\n");
    println!(
        "{:<12} {:<20} {:<15} {:>9} {:>8} {:>7} {:>9} {:>6}",
        "regime", "placement", "governor", "mean lat", "J/func", "hit%", "J saved", "flip?"
    );
    let mut flips = 0;
    for (before, after) in plain.iter().zip(&cached) {
        let (Some(old), Some(new)) = (before.winning_point(), after.winning_point()) else {
            println!("{:<12} no winner", after.scenario.name);
            continue;
        };
        let flipped = old.placement != new.placement || old.governor != new.governor;
        flips += usize::from(flipped);
        println!(
            "{:<12} {:<20} {:<15} {:>8.2}s {:>8.2} {:>6.1}% {:>8.1}J {:>6}",
            after.scenario.name,
            new.placement.label(),
            new.governor.label(),
            new.mean_latency_s,
            new.joules_per_function,
            new.hit_rate * 100.0,
            new.joules_saved,
            if flipped { "  *" } else { "" }
        );
    }

    println!("\nwinner = lowest energy-delay product (mean latency x J/function)");
    println!(
        "within each regime; {flips} of {} regimes changed their winner once",
        plain.len()
    );
    println!("the zero-energy fast path started absorbing repeat invocations.");
    println!("\nEvery number above is deterministic: rerun this example (or the");
    println!("`scenarios` subcommand, at any --jobs count, with or without");
    println!("--cache) and the tables are byte-identical. docs/WORKLOADS.md and");
    println!("docs/CACHING.md walk through why the winners differ.");
}
