//! Command lines that once panicked the binary (exit status 101) or
//! silently ran the wrong experiment must be refused: exit status 1 and
//! an `error:` line, before any run starts. And the one flag that may be
//! given bare, `energy --tenants`, must work bare.

use std::process::{Command, Output};

fn microfaas(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_microfaas"))
        .args(line.split(' '))
        .output()
        .expect("binary runs")
}

fn assert_refused(line: &str) {
    let out = microfaas(line);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "`{line}`: {stderr}");
    assert!(stderr.starts_with("error: "), "`{line}`: {stderr}");
    assert!(out.stdout.is_empty(), "`{line}` printed before refusing");
}

#[test]
fn zero_worker_open_loop_runs_are_refused() {
    assert_refused("openloop --workers 0 --duration-secs 10");
    assert_refused("monitor --workers 0 --duration-secs 10");
}

#[test]
fn zero_invocation_closed_loop_runs_are_refused() {
    for command in [
        "compare", "sweep", "scale", "timeline", "trace", "analyze", "faults",
    ] {
        assert_refused(&format!("{command} --invocations 0"));
    }
}

#[test]
fn a_zero_second_scenario_sweep_is_refused() {
    assert_refused("scenarios --duration-secs 0");
}

#[test]
fn non_finite_rates_are_refused() {
    for command in ["openloop", "monitor", "energy", "sched"] {
        for rate in ["nan", "inf"] {
            assert_refused(&format!("{command} --rate {rate} --duration-secs 10"));
        }
    }
}

#[test]
fn library_ranges_refuse_what_slips_past_a_sign_check() {
    assert_refused("tco --online-rate nan");
    // 1 ns rounds to a zero-width window.
    assert_refused("monitor --window-secs 1e-9 --duration-secs 10");
}

#[test]
fn a_duration_whose_microseconds_overflow_is_refused() {
    assert_refused("openloop --duration-secs 18446744073710");
}

#[test]
fn a_cache_ttl_whose_microseconds_overflow_is_refused() {
    assert_refused("openloop --cache lru:64,ttl=18446744073710 --duration-secs 5 --workers 2");
}

#[test]
fn a_hot_set_larger_than_the_catalog_is_refused() {
    assert_refused("openloop --popularity hot-cold:100,0.5 --duration-secs 10");
    let spec = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("oversized_hot_set.json");
    std::fs::write(
        &spec,
        r#"{"scenarios": [{"name": "hot", "arrivals": "poisson:0.5",
            "popularity": "hot-cold:40,0.5"}]}"#,
    )
    .expect("spec written");
    assert_refused(&format!("scenarios --spec {}", spec.display()));
}

#[test]
fn arrival_specs_that_would_never_finish_are_refused() {
    // 10^9 regime switches, and 10^8 thinning proposals, per arrival:
    // both ran past 10 s before the generator's work bound.
    assert_refused(
        "openloop --arrivals mmpp:1,1,1e-9,1e-9 --duration-secs 30 --workers 4 --seed 7",
    );
    assert_refused(
        "openloop --arrivals flash:1,10,0.000001,1e8 --duration-secs 30 --workers 4 --seed 7",
    );
}

#[test]
fn bare_energy_tenants_prints_the_all_tenant_row() {
    let out = microfaas("energy --tenants --duration-secs 60 --workers 4");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("\ntenant        "), "{stdout}");
    assert!(
        stdout.lines().any(|line| line.starts_with("all ")),
        "no `all` tenant row:\n{stdout}"
    );
}

#[test]
fn names_that_would_break_an_export_are_refused() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    // A comma splits the scenario CSV's rows into one field more than
    // its header.
    let spec = dir.join("comma_scenario_name.json");
    std::fs::write(&spec, r#"{"name": "a,b", "arrivals": "poisson:0.5"}"#).expect("spec written");
    assert_refused(&format!("scenarios --spec {}", spec.display()));
    // A quote ends the Prometheus label value and the CSV header field.
    let metrics = dir.join("quoted_tenant.prom");
    assert_refused(&format!(
        "energy --tenants a\"b:1,c:1 --metrics-out {}",
        metrics.display()
    ));
    let csv = dir.join("quoted_tenant.csv");
    assert_refused(&format!(
        "monitor --tenants a\"b:1:5,c:1:5 --csv {}",
        csv.display()
    ));
}

#[test]
fn a_tenant_name_given_twice_is_refused() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    // Each name keys its own Prometheus series and CSV columns, so a
    // repeat wrote two series of one name and its columns twice.
    let metrics = dir.join("twice_tenant.prom");
    assert_refused(&format!(
        "energy --tenants a:1,a:2 --duration-secs 60 --metrics-out {}",
        metrics.display()
    ));
    let csv = dir.join("twice_tenant.csv");
    assert_refused(&format!(
        "monitor --tenants a:1:5,a:1:5 --duration-secs 60 --csv {}",
        csv.display()
    ));
    let spec = dir.join("twice_tenant.json");
    std::fs::write(
        &spec,
        r#"{"name": "x", "arrivals": "poisson:0.5", "tenants": [
            {"name": "a", "weight": 1, "slo_latency_s": 5},
            {"name": "a", "weight": 2, "slo_latency_s": 5}]}"#,
    )
    .expect("spec written");
    assert_refused(&format!("scenarios --spec {}", spec.display()));
}

#[test]
fn fleets_past_their_library_bound_are_refused() {
    // The rack server's RAM admits 30 VMs.
    assert_refused("sweep --max-vms 31 --invocations 1 --jobs 1");
    // An open-loop node index is a u32.
    assert_refused("openloop --workers 5000000000 --duration-secs 1");
    // Once a 2.4 TB allocation that aborted the process.
    assert_refused("proportionality --workers 100000000000");
}
