//! Regenerates **Fig. 3**: per-function runtime broken into *Working*
//! (execution) and *Overhead* (network) for both clusters, plus the §V
//! aggregate claims (4 of 17 faster, 9 more at better than half speed).

use microfaas::experiment::compare_suites_faulted_jobs;
use microfaas_bench::{banner, vs_paper};
use microfaas_sim::{Jobs, MetricsRegistry};
use std::sync::Arc;

fn main() {
    banner(
        "Per-function runtime breakdown",
        "paper Fig. 3 + §V headline",
    );
    // 200 invocations per function keeps the bench under a minute while
    // staying within ~1% of the 1,000-invocation means.
    let mut metrics = MetricsRegistry::new();
    let cmp = compare_suites_faulted_jobs(200, 2022, &Arc::default(), &mut metrics, Jobs::auto());

    println!(
        "{:<13} | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10} | {:>6}",
        "function", "uF work", "uF ovh", "uF total", "conv work", "conv ovh", "conv total", "ratio"
    );
    for row in &cmp.rows {
        println!(
            "{:<13} | {:>8.0}ms {:>8.0}ms {:>8.0}ms | {:>8.0}ms {:>8.0}ms {:>8.0}ms | {:>6.2}",
            row.function.name(),
            row.micro_exec_ms,
            row.micro_overhead_ms,
            row.micro_total_ms(),
            row.conv_exec_ms,
            row.conv_overhead_ms,
            row.conv_total_ms(),
            row.micro_total_ms() / row.conv_total_ms()
        );
    }

    let faster = cmp.faster_on_microfaas();
    let within = cmp.within_half_speed();
    println!(
        "\nfaster on MicroFaaS: {} of 17 (paper: 4) -> {:?}",
        faster.len(),
        faster.iter().map(|f| f.name()).collect::<Vec<_>>()
    );
    println!(
        "at better than half speed: {} more (paper: 9)",
        within.len()
    );

    println!("\ncluster throughput:");
    println!(
        "  MicroFaaS    {}",
        vs_paper(cmp.micro.functions_per_minute(), 200.6)
    );
    println!(
        "  Conventional {}",
        vs_paper(cmp.conventional.functions_per_minute(), 211.7)
    );
    println!("\nenergy per function:");
    println!(
        "  MicroFaaS    {}",
        vs_paper(cmp.micro.joules_per_function().unwrap_or(f64::NAN), 5.7)
    );
    println!(
        "  Conventional {}",
        vs_paper(
            cmp.conventional.joules_per_function().unwrap_or(f64::NAN),
            32.0
        )
    );
    println!("  efficiency gain {}", vs_paper(cmp.efficiency_gain(), 5.6));

    assert_eq!(
        faster.len(),
        4,
        "Fig. 3 claim: 4 functions faster on MicroFaaS"
    );
    assert_eq!(within.len(), 9, "Fig. 3 claim: 9 more within half speed");
    println!("\nFig. 3 regenerated: aggregate claims hold.");
}
