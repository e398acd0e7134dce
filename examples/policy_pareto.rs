//! Charts the latency–energy policy space for the paper's two cluster
//! configurations: the 10-SBC MicroFaaS prototype and a 12-VM
//! conventional cluster, both under sparse open-loop arrivals.
//!
//! ```bash
//! cargo run --release --example policy_pareto
//! ```
//!
//! The SBC cluster gets the full 7 placements × 5 governors sweep and a
//! Pareto front; the VM cluster — no per-node power gating, a 60 W host
//! floor — only distinguishes whether VMs reboot between jobs, which is
//! the point: the policy space the paper's hardware opens up simply
//! does not exist on the conventional side. See docs/SCHEDULING.md.

use microfaas::cache::CacheConfig;
use microfaas::experiment::policy_sweep_cached_jobs;
use microfaas::openloop::{run_open_loop_conventional, ArrivalProcess, OpenLoopConfig};
use microfaas_sched::GovernorKind;
use microfaas_sim::{Jobs, SimDuration};

const RATE: f64 = 0.1;
const DURATION_SECS: u64 = 1200;
const SEED: u64 = 1;

fn main() {
    // --- The 10-SBC cluster: the full placement x governor space. ---
    println!("MicroFaaS (10 SBCs), {RATE} jobs/s for {DURATION_SECS} s, seed {SEED}:\n");
    println!(
        "{:<20} {:<15} {:>9} {:>8} {:>8} {:>7}",
        "placement", "governor", "mean lat", "J/func", "cycles", "pareto"
    );
    let duration = SimDuration::from_secs(DURATION_SECS);
    let points =
        policy_sweep_cached_jobs(RATE, duration, 10, SEED, &CacheConfig::Off, Jobs::auto());
    for p in &points {
        println!(
            "{:<20} {:<15} {:>8.2}s {:>8.2} {:>8} {:>7}",
            p.placement.label(),
            p.governor.label(),
            p.mean_latency_s,
            p.joules_per_function,
            p.power_cycles,
            if p.pareto { "*" } else { "" }
        );
    }
    println!("\nlatency-energy Pareto front:");
    for p in points.iter().filter(|p| p.pareto) {
        println!(
            "  {} / {} — {:.2} s at {:.2} J/func",
            p.placement.label(),
            p.governor.label(),
            p.mean_latency_s,
            p.joules_per_function
        );
    }

    // --- The 12-VM conventional cluster has no knobs to turn. ---
    println!(
        "\nConventional (12 VMs), same load — governors only control the\n\
         between-jobs VM reboot; the 60 W host floor swamps everything:\n"
    );
    println!(
        "{:<15} {:>9} {:>9} {:>8}",
        "governor", "mean lat", "watts", "J/func"
    );
    for governor in GovernorKind::ALL {
        let mut config =
            OpenLoopConfig::paper_arrangement(1, SimDuration::from_secs(DURATION_SECS), SEED);
        config.arrival = ArrivalProcess::Poisson { per_second: RATE };
        config.governor = governor;
        let run = run_open_loop_conventional(&config, 12);
        println!(
            "{:<15} {:>8.2}s {:>9.2} {:>8.2}",
            governor.label(),
            run.mean_latency_s,
            run.mean_power_w,
            run.joules_per_function
        );
    }
    println!(
        "\nthe best VM point burns an order of magnitude more energy per\n\
         function than the worst SBC point — the Pareto frontier lives\n\
         entirely on the power-gated cluster."
    );
}
