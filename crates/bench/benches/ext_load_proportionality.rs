//! **Extension experiment** (beyond the paper's static Fig. 5):
//! energy proportionality *under load*. Sweeps the offered arrival rate
//! and shows that the MicroFaaS cluster's power — and therefore its
//! energy per function — tracks load, while the conventional cluster's
//! idle floor makes lightly-loaded operation disastrous. Also compares
//! the paper's random placement against least-loaded and power-aware
//! scheduling.

use microfaas::config::Jitter;
use microfaas::openloop::{
    run_open_loop, run_open_loop_conventional, ArrivalProcess, OpenLoopConfig,
};
use microfaas_bench::banner;
use microfaas_sched::PlacementKind;
use microfaas_sim::SimDuration;
use microfaas_workloads::FunctionId;

fn config(per_second: f64, scheduler: PlacementKind) -> OpenLoopConfig {
    OpenLoopConfig {
        workers: 10,
        seed: 2022,
        duration: SimDuration::from_secs(900),
        arrival: ArrivalProcess::Poisson { per_second },
        scheduler,
        governor: microfaas_sched::GovernorKind::RebootPerJob,
        jitter: Jitter::default_run_to_run(),
        functions: FunctionId::ALL.to_vec(),
        popularity: microfaas::Popularity::Uniform,
        tenants: Vec::new(),
        faults: Default::default(),
        cache: microfaas::cache::CacheConfig::Off,
    }
}

fn main() {
    banner(
        "Energy proportionality under load (open-loop arrivals)",
        "extension of paper Fig. 5 / §III-b",
    );

    println!(
        "{:>8} | {:>12} {:>10} | {:>12} {:>10} | {:>8}",
        "load/s", "uF power", "uF J/f", "conv power", "conv J/f", "uF p95"
    );
    for load in [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0] {
        let cfg = config(load, PlacementKind::RandomStatic);
        let micro = run_open_loop(&cfg);
        let conv = run_open_loop_conventional(&cfg, 6);
        println!(
            "{load:>8.2} | {:>10.2} W {:>10.2} | {:>10.2} W {:>10.2} | {:>7.1}s",
            micro.mean_power_w,
            micro.joules_per_function,
            conv.mean_power_w,
            conv.joules_per_function,
            micro.p95_latency_s
        );
    }

    println!("\nMicroFaaS J/function stays ~flat (idle nodes are off); the");
    println!("conventional cluster pays its 60 W floor no matter the load.");

    println!("\nscheduler comparison at 2.0 jobs/s:");
    println!(
        "{:<14} {:>10} {:>10} {:>14} {:>14}",
        "policy", "mean lat", "p95 lat", "mean powered", "power cycles"
    );
    for (name, policy) in [
        ("random", PlacementKind::RandomStatic),
        ("least-loaded", PlacementKind::LeastLoaded),
        ("power-aware", PlacementKind::PowerAware),
    ] {
        let run = run_open_loop(&config(2.0, policy));
        println!(
            "{name:<14} {:>9.2}s {:>9.2}s {:>14.2} {:>14}",
            run.mean_latency_s, run.p95_latency_s, run.mean_powered_on, run.power_cycles
        );
    }
    println!("\nExtension experiment complete.");
}
