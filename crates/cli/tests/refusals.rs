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
