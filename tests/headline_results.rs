//! Asserts every headline number of the paper's evaluation (Section V)
//! against the simulated clusters — the repository's acceptance test.

use microfaas::experiment::{compare_suites_faulted_jobs, energy_proportionality, vm_sweep_jobs};
use microfaas_sim::{Jobs, MetricsRegistry};
use microfaas_tco::{savings_percent, ClusterSpec, Conditions, CostModel};
use std::sync::Arc;

/// Shared scaled-down run (200 invocations/function instead of 1,000)
/// — within ~1% of the full-size means, 25x faster to execute.
fn comparison() -> microfaas::experiment::SuiteComparison {
    let mut metrics = MetricsRegistry::new();
    compare_suites_faulted_jobs(200, 77, &Arc::default(), &mut metrics, Jobs::auto())
}

#[test]
fn throughput_matched_clusters() {
    let cmp = comparison();
    let micro = cmp.micro.functions_per_minute();
    let conv = cmp.conventional.functions_per_minute();
    assert!(
        (micro - 200.6).abs() < 6.0,
        "MicroFaaS {micro:.1} vs 200.6 f/min"
    );
    assert!(
        (conv - 211.7).abs() < 7.0,
        "Conventional {conv:.1} vs 211.7 f/min"
    );
}

#[test]
fn five_point_six_times_energy_efficiency() {
    let cmp = comparison();
    let micro = cmp.micro.joules_per_function().expect("jobs ran");
    let conv = cmp.conventional.joules_per_function().expect("jobs ran");
    assert!(
        (micro - 5.7).abs() < 0.5,
        "MicroFaaS {micro:.2} vs 5.7 J/func"
    );
    assert!(
        (conv - 32.0).abs() < 2.0,
        "Conventional {conv:.2} vs 32.0 J/func"
    );
    let gain = cmp.efficiency_gain();
    assert!((gain - 5.6).abs() < 0.5, "gain {gain:.2} vs paper 5.6x");
}

#[test]
fn fig3_function_speed_split() {
    let cmp = comparison();
    assert_eq!(
        cmp.faster_on_microfaas().len(),
        4,
        "4 of 17 faster on MicroFaaS"
    );
    assert_eq!(
        cmp.within_half_speed().len(),
        9,
        "9 more at better than half speed"
    );
}

#[test]
fn fig4_peak_efficiency_at_saturation() {
    let sweep = vm_sweep_jobs(20, 30, 78, Jobs::auto());
    let peak = sweep
        .iter()
        .map(|p| p.joules_per_function)
        .fold(f64::INFINITY, f64::min);
    assert!(
        (peak - 16.1).abs() < 2.0,
        "peak {peak:.1} vs paper 16.1 J/func"
    );
    // Efficiency is monotone improving up to the saturation knee.
    for pair in sweep[..16].windows(2) {
        assert!(
            pair[1].joules_per_function < pair[0].joules_per_function,
            "J/func must fall with VM count below saturation"
        );
    }
}

#[test]
fn fig5_energy_proportionality_endpoints() {
    let series = energy_proportionality(10);
    assert_eq!(series[0].sbc_cluster_watts, 0.0);
    assert_eq!(series[0].vm_cluster_watts, 60.0);
    let full = series.last().expect("non-empty");
    assert!(
        full.sbc_cluster_watts < 20.0,
        "10 busy SBCs stay under 20 W"
    );
}

#[test]
fn table2_tco_reduction() {
    let model = CostModel::benchmark_datacenter();
    let ideal = savings_percent(
        &model.evaluate(&ClusterSpec::conventional_rack(), Conditions::ideal()),
        &model.evaluate(&ClusterSpec::microfaas_rack(), Conditions::ideal()),
    );
    let realistic = savings_percent(
        &model.evaluate(&ClusterSpec::conventional_rack(), Conditions::realistic()),
        &model.evaluate(&ClusterSpec::microfaas_rack(), Conditions::realistic()),
    );
    assert!(
        (ideal - 34.2).abs() < 0.1,
        "ideal savings {ideal:.1}% vs 34.2%"
    );
    assert!(
        (realistic - 32.5).abs() < 0.1,
        "realistic savings {realistic:.1}% vs 32.5%"
    );
}
