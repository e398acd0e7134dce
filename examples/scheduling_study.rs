//! Compares the orchestration plane's scheduling policies under
//! arrival-driven load, and visualizes a small run as an ASCII timeline.
//!
//! ```bash
//! cargo run --release --example scheduling_study
//! ```

use microfaas::config::{Jitter, WorkloadMix};
use microfaas::micro::{run_microfaas, MicroFaasConfig};
use microfaas::openloop::{run_open_loop, ArrivalProcess, OpenLoopConfig};
use microfaas::timeline::Timeline;
use microfaas_sched::{GovernorKind, PlacementKind};
use microfaas_sim::SimDuration;
use microfaas_workloads::FunctionId;

fn main() {
    // --- Part 1: placement policies under 2 jobs/s of Poisson arrivals. ---
    println!("placement policies at 2.0 jobs/s over 10 minutes:\n");
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>13} {:>13}",
        "policy", "mean lat", "p95 lat", "J/func", "mean powered", "power cycles"
    );
    for (name, policy) in [
        ("random", PlacementKind::RandomStatic),
        ("least-loaded", PlacementKind::LeastLoaded),
        ("jsq", PlacementKind::JoinShortestQueue),
        ("warm-first", PlacementKind::WarmFirst),
        ("power-aware", PlacementKind::PowerAware),
    ] {
        let run = run_open_loop(&OpenLoopConfig {
            workers: 10,
            seed: 2022,
            duration: SimDuration::from_secs(600),
            arrival: ArrivalProcess::Poisson { per_second: 2.0 },
            scheduler: policy,
            governor: GovernorKind::RebootPerJob,
            jitter: Jitter::default_run_to_run(),
            functions: FunctionId::ALL.to_vec(),
            popularity: microfaas::Popularity::Uniform,
            tenants: Vec::new(),
            faults: Default::default(),
            cache: microfaas::cache::CacheConfig::Off,
        });
        println!(
            "{name:<14} {:>8.2}s {:>8.2}s {:>9.2} {:>13.2} {:>13}",
            run.mean_latency_s,
            run.p95_latency_s,
            run.joules_per_function,
            run.mean_powered_on,
            run.power_cycles
        );
    }
    println!(
        "\nleast-loaded/jsq buy latency; power-aware packing buys fewer\n\
         cold boots; warm-first collapses at this load (it funnels every\n\
         job to the one warm node rather than pay a 1.51 s boot); energy\n\
         per function barely moves — power gating already makes the\n\
         cluster energy-proportional regardless of placement. Power\n\
         *governors* (keep-alive, warm-pool, always-on) do move energy:\n\
         see examples/policy_pareto.rs and docs/SCHEDULING.md."
    );

    // --- Part 2: what a saturated run looks like, worker by worker. ---
    println!("\nworker timeline of a small saturated run ('#' executing):\n");
    let run = run_microfaas(&MicroFaasConfig::paper_prototype(
        WorkloadMix::new(FunctionId::ALL.to_vec(), 8),
        7,
    ));
    let timeline = Timeline::from_run(&run);
    print!("{}", timeline.render(72));
    if let Some(gap) = timeline.mean_gap() {
        println!("\nthe gaps between jobs are the clean-state reboot: mean {gap}");
    }
}
