//! Regenerates **Fig. 4**: the conventional cluster's energy efficiency
//! (J/function) and throughput as the VM count grows from 1 to 20, with
//! the 10-SBC MicroFaaS cluster as reference lines.

use microfaas::experiment::{microfaas_reference, vm_sweep_jobs};
use microfaas_bench::{banner, vs_paper};
use microfaas_sim::Jobs;

fn main() {
    banner(
        "Conventional-cluster efficiency & throughput vs #VMs",
        "paper Fig. 4",
    );
    let invocations = 60;
    let reference = microfaas_reference(invocations, 2022);
    let sweep = vm_sweep_jobs(20, invocations, 2022, Jobs::auto());

    println!(
        "{:>4} {:>16} {:>14}   (MicroFaaS ref: {:.1} f/min, {:.2} J/func)",
        "VMs", "func/min", "J/func", reference.functions_per_minute, reference.joules_per_function
    );
    for point in &sweep {
        let marker = if point.joules_per_function < reference.joules_per_function {
            "  <-- below MicroFaaS?!"
        } else {
            ""
        };
        println!(
            "{:>4} {:>16.1} {:>14.2}{marker}",
            point.vms, point.functions_per_minute, point.joules_per_function
        );
    }

    let at_six = &sweep[5];
    let peak = sweep
        .iter()
        .map(|p| p.joules_per_function)
        .fold(f64::INFINITY, f64::min);
    println!(
        "\n6-VM cluster:  {}",
        vs_paper(at_six.joules_per_function, 32.0)
    );
    println!("peak efficiency: {}", vs_paper(peak, 16.1));
    println!(
        "MicroFaaS stays {:.1}x better even at the conventional peak",
        peak / reference.joules_per_function
    );

    assert!(
        sweep
            .iter()
            .all(|p| p.joules_per_function > reference.joules_per_function),
        "MicroFaaS must beat every VM count (the paper's Fig. 4 takeaway)"
    );
    assert!(
        (peak - 16.1).abs() < 2.5,
        "peak {peak:.1} should be near 16.1"
    );
    println!("\nFig. 4 regenerated: MicroFaaS line below conventional everywhere.");
}
