//! The experiment commands behind each `microfaas <subcommand>`.

use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

use microfaas::arrivals::{Popularity, Scenario, TenantClass};
use microfaas::cache::{CacheConfig, DEFAULT_CACHE_SPEC};
use microfaas::config::WorkloadMix;
use microfaas::conventional::{run_conventional_with, ConventionalConfig};
use microfaas::experiment::{
    compare_suites_faulted_jobs, energy_proportionality, microfaas_reference,
    policy_sweep_cached_jobs, policy_sweep_csv, run_replicates, sbc_scale_sweep_jobs,
    scenario_sweep_cached_jobs, scenario_sweep_csv, vm_sweep_jobs, ReplicateSummary,
};
use microfaas::micro::{run_microfaas_with, MicroFaasConfig};
use microfaas::openloop::{
    run_open_loop, run_open_loop_attributed, run_open_loop_monitored_streaming,
    run_open_loop_streaming, ArrivalProcess, NullSink, OpenLoopConfig,
};
use microfaas::timeline::Timeline;
use microfaas::ClusterRun;
use microfaas_energy::attribution::{IdlePolicy, Phase};
use microfaas_hw::boot::{BootPlatform, BootProfile};
use microfaas_hw::reliability::{simulate_fleet, FleetSpec};
use microfaas_sched::{parse_budget_spec, GovernorKind, PlacementKind};
use microfaas_sim::faults::FaultPlan;
use microfaas_sim::{
    evaluate_alerts, export_chrome_trace, export_counter_trace, par_map_indexed,
    validate_chrome_trace, AlertPolicy, CriticalPath, Jobs, MetricsRegistry, Observer, Rng,
    SimDuration, SpanTree, TelemetryConfig, TelemetryWindow, TraceBuffer, TraceRecord,
};
use microfaas_tco::{savings_percent, ClusterSpec, Conditions, CostModel};
use microfaas_workloads::suite::{run_function, FunctionId, ServiceBackends};

use crate::args::{Args, ParseArgsError};
use crate::csv::Csv;
use crate::flags::{commands, Flags};

pub use crate::flags::usage;

type Run = fn(&Flags) -> Result<(), ParseArgsError>;

/// The function behind each subcommand the flag table declares.
pub(crate) const RUNS: &[(&str, Run)] = &[
    ("compare", compare),
    ("boot", boot),
    ("sweep", sweep),
    ("proportionality", proportionality),
    ("tco", tco),
    ("workloads", workloads),
    ("openloop", openloop),
    ("monitor", monitor),
    ("energy", energy),
    ("sched", sched),
    ("scenarios", scenarios),
    ("reliability", reliability),
    ("timeline", timeline),
    ("scale", scale),
    ("trace", trace),
    ("analyze", analyze),
    ("faults", faults),
];

/// Runs the subcommand in `args`, printing human-readable output and
/// optionally exporting CSV via `--csv <path>`.
///
/// # Errors
///
/// Returns [`ParseArgsError`] for unknown subcommands or flags, refused
/// values, and failed runs or writes, with the message the binary prints
/// to stderr.
pub fn dispatch(args: &Args) -> Result<(), ParseArgsError> {
    let name = args.command.as_str();
    if matches!(name, "help" | "--help" | "-h") {
        println!("{}", usage());
        return Ok(());
    }
    let run = RUNS.iter().find(|(n, _)| *n == name);
    match (commands().find(|c| c.name == name), run) {
        (Some(command), Some((_, run))) => run(&Flags::check(args, command)?),
        _ => Err(ParseArgsError(format!(
            "unknown subcommand '{name}'\n\n{}",
            usage()
        ))),
    }
}

fn maybe_csv(f: &Flags, csv: &Csv) -> Result<(), ParseArgsError> {
    if let Some(path) = f.text("csv") {
        csv.write_to(Path::new(path))
            .map_err(|e| ParseArgsError(format!("cannot write '{path}': {e}")))?;
        println!("\nwrote {path}");
    }
    Ok(())
}

fn write_text(path: &str, text: &str) -> Result<(), ParseArgsError> {
    std::fs::write(path, text)
        .map_err(|e| ParseArgsError(format!("cannot write '{path}': {e}")))?;
    println!("wrote {path}");
    Ok(())
}

/// The one write path for a flag naming an output file: renders the
/// text lazily, only when `flag` is given, and writes it through
/// [`write_text`], so every subcommand reports the same "cannot write
/// '<path>': <err>" wording.
fn maybe_write(
    f: &Flags,
    flag: &str,
    render: impl FnOnce() -> String,
) -> Result<(), ParseArgsError> {
    match f.text(flag) {
        Some(path) => write_text(path, &render()),
        None => Ok(()),
    }
}

/// `--jobs N`, else available parallelism (overridable via the
/// `MICROFAAS_JOBS` environment variable). Any job count yields
/// bit-identical results — see `docs/PERFORMANCE.md`.
fn jobs(f: &Flags) -> Result<Jobs, ParseArgsError> {
    Ok(f.read("jobs", Jobs::from_str)?.unwrap_or_else(Jobs::auto))
}

/// Whether the conditional cache-hit summary columns should print: the
/// cache must be on *and* the run must have consulted it at least once.
/// A cached run that recorded zero lookups prints like an uncached one
/// instead of showing a meaningless 0.0%.
fn show_hit_stats(cache: &CacheConfig, lookups: u64) -> bool {
    cache.enabled() && lookups > 0
}

fn load_plan(path: &str) -> Result<FaultPlan, ParseArgsError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ParseArgsError(format!("cannot read '{path}': {e}")))?;
    FaultPlan::from_json(&text).map_err(|e| ParseArgsError(format!("'{path}': {e}")))
}

/// The open-loop run the flags describe, read once for `openloop`,
/// `monitor`, `energy`, `sched` and `scenarios`. A flag the subcommand
/// does not take keeps [`OpenLoopConfig::paper_arrangement`]'s value;
/// the sweeps use only the duration, workers, seed and cache.
fn open_loop_config(f: &Flags) -> Result<OpenLoopConfig, ParseArgsError> {
    // --jobs-per-tick is the paper's literal fixed-batch arrival, the
    // golden path every generative extension stays off; --budget forces
    // the energy-budget governor.
    for (a, b) in [
        ("arrivals", "jobs-per-tick"),
        ("popularity", "jobs-per-tick"),
        ("cache", "jobs-per-tick"),
        ("budget", "governor"),
    ] {
        if f.has(a) && f.has(b) {
            let both = format!("--{a} and --{b} are mutually exclusive");
            return Err(ParseArgsError(both));
        }
    }
    let duration = SimDuration::from_secs(f.get("duration-secs")?);
    let mut config = OpenLoopConfig::paper_arrangement(1, duration, f.get("seed")?);
    config.workers = f.get("workers")?;
    if let Some(arrival) = f.read("arrivals", ArrivalProcess::parse)? {
        config.arrival = arrival;
    } else if let Some(jobs_per_tick) = f.read("jobs-per-tick", usize::from_str)? {
        config.arrival = ArrivalProcess::EverySecond { jobs_per_tick };
    } else if let Some(per_second) = f.read("rate", f64::from_str)? {
        config.arrival = ArrivalProcess::Poisson { per_second };
    }
    config.scheduler = f
        .read("policy", PlacementKind::from_str)?
        .unwrap_or(config.scheduler);
    config.governor = match f.read("budget", parse_budget_spec)? {
        Some(budget) => budget,
        None => f
            .read("governor", GovernorKind::from_str)?
            .unwrap_or(config.governor),
    };
    config.popularity = f
        .read("popularity", Popularity::parse)?
        .unwrap_or(config.popularity);
    config.tenants = f.read("tenants", tenant_classes)?.unwrap_or_default();
    config.cache = f.read("cache", cache_spec)?.unwrap_or(config.cache);
    Ok(config)
}

/// A `--cache` spec, where `on` stands for [`DEFAULT_CACHE_SPEC`].
fn cache_spec(spec: &str) -> Result<CacheConfig, String> {
    CacheConfig::parse(if spec == "on" {
        DEFAULT_CACHE_SPEC
    } else {
        spec
    })
}

/// The closed-loop cluster `--cluster` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cluster {
    /// The paper's 10-SBC MicroFaaS prototype.
    Micro,
    /// The paper's 6-VM conventional baseline.
    Conventional,
}

impl Cluster {
    /// Both clusters, in the order `analyze` reports them.
    pub(crate) const ALL: [Cluster; 2] = [Cluster::Micro, Cluster::Conventional];

    /// The `--cluster` spelling.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Cluster::Micro => "micro",
            Cluster::Conventional => "conventional",
        }
    }

    /// One run of the paper's configuration under `faults`, reporting
    /// into `observer`.
    fn run(
        self,
        mix: &Arc<WorkloadMix>,
        seed: u64,
        faults: &Arc<FaultPlan>,
        observer: &mut Observer<'_>,
    ) -> ClusterRun {
        let (mix, faults) = (Arc::clone(mix), Arc::clone(faults));
        match self {
            Cluster::Micro => {
                let mut config = MicroFaasConfig::paper_prototype(mix, seed);
                config.faults = faults;
                run_microfaas_with(&config, observer)
            }
            Cluster::Conventional => {
                let mut config = ConventionalConfig::paper_baseline(mix, seed);
                config.faults = faults;
                run_conventional_with(&config, observer)
            }
        }
    }
}

impl FromStr for Cluster {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Cluster::ALL
            .into_iter()
            .find(|c| c.label() == s)
            .ok_or_else(|| format!("unknown cluster '{s}' (micro | conventional)"))
    }
}

/// Writes a traced closed-loop run's `--out` JSON lines, `--metrics-out`
/// exposition and `--csv` flattened metrics (`trace` and `faults`).
fn write_run_exports(
    f: &Flags,
    json_lines: impl FnOnce() -> String,
    metrics: &MetricsRegistry,
) -> Result<(), ParseArgsError> {
    maybe_write(f, "out", json_lines)?;
    maybe_write(f, "metrics-out", || metrics.render_prometheus())?;
    let mut csv = Csv::new(&["metric", "value"]);
    for (name, value) in metrics.flatten() {
        csv.row_display(&[&name, &value]);
    }
    maybe_csv(f, &csv)
}

fn compare(f: &Flags) -> Result<(), ParseArgsError> {
    let plan = f.text("faults").map(load_plan).transpose()?;
    // Only a non-empty plan gets the extra lines, so a run with an
    // empty plan prints byte-identically to a fault-free compare.
    let report_faults = plan.as_ref().is_some_and(|p| !p.is_empty());
    let faults = Arc::new(plan.unwrap_or_default());
    let mut metrics = MetricsRegistry::new();
    let cmp = compare_suites_faulted_jobs(
        f.get("invocations")?,
        f.get("seed")?,
        &faults,
        &mut metrics,
        jobs(f)?,
    );

    let mut csv = Csv::new(&[
        "function",
        "micro_exec_ms",
        "micro_overhead_ms",
        "conv_exec_ms",
        "conv_overhead_ms",
    ]);
    println!(
        "{:<13} {:>12} {:>12} {:>12}",
        "function", "uF total", "conv total", "ratio"
    );
    for row in &cmp.rows {
        println!(
            "{:<13} {:>10.0}ms {:>10.0}ms {:>12.2}",
            row.function.name(),
            row.micro_total_ms(),
            row.conv_total_ms(),
            row.micro_total_ms() / row.conv_total_ms()
        );
        csv.row_display(&[
            &row.function.name(),
            &row.micro_exec_ms,
            &row.micro_overhead_ms,
            &row.conv_exec_ms,
            &row.conv_overhead_ms,
        ]);
    }
    println!("\n{}", cmp.micro);
    println!("{}", cmp.conventional);
    println!(
        "efficiency gain: {:.2}x (paper: 5.6x)",
        cmp.efficiency_gain()
    );
    if report_faults {
        for run in [&cmp.micro, &cmp.conventional] {
            println!(
                "faults [{}]: {} injected, {} requeued, {} retries, {} dropped",
                run.label,
                run.faults.injected,
                run.faults.requeued,
                run.faults.retries,
                run.dropped.len()
            );
        }
    }
    maybe_write(f, "metrics-out", || metrics.render_prometheus())?;
    maybe_csv(f, &csv)
}

fn boot(f: &Flags) -> Result<(), ParseArgsError> {
    let mut csv = Csv::new(&["platform", "stage", "real_s", "cpu_s"]);
    for platform in [BootPlatform::Arm, BootPlatform::X86] {
        println!("--- {platform:?} ---");
        for (stage, time) in BootProfile::progression(platform) {
            let label = stage.map_or("baseline".to_string(), |s| s.to_string());
            println!(
                "{label:<48} {:>6.2}s real {:>6.2}s cpu",
                time.real.as_secs_f64(),
                time.cpu.as_secs_f64()
            );
            csv.row_display(&[
                &format!("{platform:?}"),
                &label,
                &time.real.as_secs_f64(),
                &time.cpu.as_secs_f64(),
            ]);
        }
    }
    maybe_csv(f, &csv)
}

fn sweep(f: &Flags) -> Result<(), ParseArgsError> {
    let invocations = f.get("invocations")?;
    let seed = f.get("seed")?;
    let points = vm_sweep_jobs(f.get("max-vms")?, invocations, seed, jobs(f)?);
    let reference = microfaas_reference(invocations, seed);
    let mut csv = Csv::new(&["vms", "func_per_min", "joules_per_function"]);
    println!(
        "(MicroFaaS reference: {:.1} f/min, {:.2} J/func)",
        reference.functions_per_minute, reference.joules_per_function
    );
    println!("{:>4} {:>14} {:>12}", "VMs", "func/min", "J/func");
    for point in &points {
        println!(
            "{:>4} {:>14.1} {:>12.2}",
            point.vms, point.functions_per_minute, point.joules_per_function
        );
        csv.row_display(&[
            &point.vms,
            &point.functions_per_minute,
            &point.joules_per_function,
        ]);
    }
    maybe_csv(f, &csv)
}

fn proportionality(f: &Flags) -> Result<(), ParseArgsError> {
    let series = energy_proportionality(f.get("workers")?);
    let mut csv = Csv::new(&["active", "sbc_watts", "server_watts"]);
    println!(
        "{:>8} {:>14} {:>14}",
        "active", "SBC cluster", "rack server"
    );
    for point in &series {
        println!(
            "{:>8} {:>12.2} W {:>12.2} W",
            point.active_workers, point.sbc_cluster_watts, point.vm_cluster_watts
        );
        csv.row_display(&[
            &point.active_workers,
            &point.sbc_cluster_watts,
            &point.vm_cluster_watts,
        ]);
    }
    maybe_csv(f, &csv)
}

fn tco(f: &Flags) -> Result<(), ParseArgsError> {
    let conditions = Conditions {
        utilization: f.get("utilization")?,
        online_rate: f.get("online-rate")?,
    };
    conditions.try_validate().map_err(ParseArgsError)?;
    let model = CostModel::benchmark_datacenter();
    let conv = model.evaluate(&ClusterSpec::conventional_rack(), conditions);
    let micro = model.evaluate(&ClusterSpec::microfaas_rack(), conditions);
    println!(
        "conditions: {:.0}% utilization, {:.1}% online rate",
        conditions.utilization * 100.0,
        conditions.online_rate * 100.0
    );
    println!("  {conv}");
    println!("  {micro}");
    println!("  MicroFaaS saves {:.1}%", savings_percent(&conv, &micro));
    Ok(())
}

fn workloads(f: &Flags) -> Result<(), ParseArgsError> {
    let mut backends = ServiceBackends::seeded();
    let mut rng = Rng::new(f.get("seed")?);
    for function in FunctionId::ALL {
        match run_function(function, 1, &mut rng, &mut backends) {
            Ok(out) => println!("{:<13} {}", function.name(), out.summary),
            Err(e) => return Err(ParseArgsError(format!("{function} failed: {e}"))),
        }
    }
    Ok(())
}

fn openloop(f: &Flags) -> Result<(), ParseArgsError> {
    let config = open_loop_config(f)?;
    let run = if f.has("streaming") {
        run_open_loop_streaming(&config, &mut NullSink)
    } else {
        run_open_loop(&config)
    };
    println!(
        "policy:           {} / {}",
        config.scheduler, config.governor
    );
    if f.has("streaming") {
        println!("results path:     streaming (O(1)-memory aggregates)");
    }
    println!("completed:        {}", run.completed);
    println!("mean latency:     {:.2} s", run.mean_latency_s);
    println!("p95 latency:      {:.2} s", run.p95_latency_s);
    println!("mean power:       {:.2} W", run.mean_power_w);
    println!("energy/function:  {:.2} J", run.joules_per_function);
    println!(
        "mean powered-on:  {:.2} of {} workers",
        run.mean_powered_on, config.workers
    );
    println!("power cycles:     {}", run.power_cycles);
    // Cache lines appear only with --cache (and only when the run
    // actually consulted the cache), so the default output is
    // byte-identical to pre-cache builds.
    if show_hit_stats(
        &config.cache,
        run.cache_hits + run.cache_misses + run.cache_coalesced,
    ) {
        let served = run.cache_hits + run.cache_coalesced;
        let rate = if run.completed > 0 {
            served as f64 / run.completed as f64 * 100.0
        } else {
            0.0
        };
        println!(
            "result cache:     {} hits + {} coalesced = {served} served free \
             ({rate:.1}% of completions, {} misses)",
            run.cache_hits, run.cache_coalesced, run.cache_misses
        );
    }
    Ok(())
}

/// The `monitor` subcommand: an open-loop run on the streaming path
/// with the telemetry flight recorder attached, plus burn-rate /
/// anomaly alert evaluation over the windowed series. Always runs the
/// identically-configured *unmonitored* streaming engine alongside
/// (fanned over `--jobs`) and cross-checks the aggregates, making the
/// "telemetry perturbs nothing" contract an executable assertion on
/// every invocation. See `docs/MONITORING.md`.
fn monitor(f: &Flags) -> Result<(), ParseArgsError> {
    let config = open_loop_config(f)?;
    let telemetry = TelemetryConfig {
        window: SimDuration::from_secs_f64(f.get("window-secs")?),
        max_windows: f.get("max-windows")?,
    };
    telemetry.try_validate().map_err(ParseArgsError)?;
    let alert_policy = AlertPolicy {
        slo_target: f.get("slo-target")?,
    };
    alert_policy.try_validate().map_err(ParseArgsError)?;

    // Task 0 runs monitored, task 1 runs the plain streaming engine on
    // the same config. Both fan over --jobs and must agree exactly —
    // the recorder consumes no RNG draws.
    let mut results = par_map_indexed(jobs(f)?, 2, |i| {
        if i == 0 {
            let (run, series) = run_open_loop_monitored_streaming(&config, &telemetry);
            (run, Some(series))
        } else {
            (run_open_loop_streaming(&config, &mut NullSink), None)
        }
    });
    let (baseline, _) = results.pop().expect("two tasks");
    let (run, series) = results.pop().expect("two tasks");
    let series = series.expect("task 0 is the monitored run");
    if run.completed != baseline.completed
        || run.mean_power_w != baseline.mean_power_w
        || run.power_cycles != baseline.power_cycles
    {
        return Err(ParseArgsError(
            "telemetry perturbed the run: monitored and unmonitored aggregates disagree"
                .to_string(),
        ));
    }

    println!(
        "policy:           {} / {}",
        config.scheduler, config.governor
    );
    println!(
        "telemetry:        {} windows x {:.3} s (dropped {}), verified inert",
        series.windows.len(),
        series.window.as_secs_f64(),
        series.dropped_windows
    );
    println!("completed:        {}", run.completed);
    println!("mean latency:     {:.2} s", run.mean_latency_s);
    println!("p95 latency:      {:.2} s", run.p95_latency_s);
    println!("mean power:       {:.2} W", run.mean_power_w);
    println!("windowed energy:  {:.1} J", series.total_energy_j());
    if let Some(cap_w) = config.governor.budget_cap_w() {
        println!("budget cap:       {cap_w:.1} W per tenant");
    }
    let print_peak = |label: &str, unit: &str, value: fn(&TelemetryWindow) -> f64| {
        if let Some(peak) = series
            .windows
            .iter()
            .max_by(|a, b| value(a).total_cmp(&value(b)))
        {
            println!(
                "{label} {:.1} {unit} in window {} (t = {:.0} s)",
                value(peak),
                peak.index,
                peak.start.as_secs_f64()
            );
        }
    };
    print_peak(
        "peak throughput: ",
        "jobs/s",
        TelemetryWindow::throughput_per_s,
    );
    print_peak("peak queue depth:", "jobs", |w| w.queue_depth);
    for (t, spec) in series.tenants.iter().enumerate() {
        let completed: u64 = series.windows.iter().map(|w| w.tenants[t].completed).sum();
        let hits: u64 = series.windows.iter().map(|w| w.tenants[t].slo_hits).sum();
        let attainment = if completed > 0 {
            hits as f64 / completed as f64 * 100.0
        } else {
            100.0
        };
        println!(
            "tenant {:<10} {completed} completed, {attainment:.2}% in SLO (target {:.1}%)",
            format!("{}:", spec.name),
            alert_policy.slo_target * 100.0
        );
    }

    let alerts = evaluate_alerts(&series, &alert_policy);
    if alerts.is_empty() {
        println!("\nalerts:           none");
    } else {
        println!(
            "\n{:<28} {:>8} {:>9} {:>10} {:>8}",
            "alert", "severity", "fired_s", "resolved_s", "peak"
        );
        for alert in &alerts {
            let fired = alert.fired.as_secs_f64();
            let resolved = match alert.resolved {
                Some(at) => format!("{:.0}", at.as_secs_f64()),
                None => "active".to_string(),
            };
            println!(
                "{:<28} {:>8} {fired:>9.0} {resolved:>10} {:>8.2}",
                alert.signal.to_string(),
                alert.severity.label(),
                alert.peak
            );
        }
    }

    // Fixed-decimal rendering: byte-identical at every --jobs count
    // (ci/check.sh compares 1 vs 2).
    maybe_write(f, "csv", || series.to_csv())?;
    maybe_write(f, "metrics-out", || series.render_prometheus())?;
    maybe_write(f, "perfetto", || {
        export_counter_trace(&series.counter_tracks(), "monitor")
    })
}

/// Parses the `--tenants` spec: comma-separated `NAME:WEIGHT[:SLO_S]`
/// classes (`paid:3,free:1`). Weights are relative arrival shares; the
/// SLO defaults to a permissive 60 s since the energy subcommand
/// reports joules, not attainment. The empty spec (a bare `energy
/// --tenants`) defines no classes.
fn tenant_classes(spec: &str) -> Result<Vec<TenantClass>, String> {
    if spec.is_empty() {
        return Ok(Vec::new());
    }
    let class = |part: &str| {
        let (name, weight, slo) = match part.split(':').collect::<Vec<_>>()[..] {
            [name, weight] => (name, weight, "60"),
            [name, weight, slo] => (name, weight, slo),
            _ => {
                return Err(format!(
                    "tenant '{part}' must be NAME:WEIGHT[:SLO_S] (e.g. paid:3,free:1)"
                ))
            }
        };
        let number = |raw: &str| {
            raw.parse()
                .map_err(|_| format!("tenant '{part}': '{raw}' is not a number"))
        };
        Ok(TenantClass {
            name: name.to_string(),
            weight: number(weight)?,
            slo_latency_s: number(slo)?,
        })
    };
    let classes = spec
        .split(',')
        .map(class)
        .collect::<Result<Vec<_>, String>>()?;
    TenantClass::try_validate_all(&classes)?;
    Ok(classes)
}

/// Picojoules as display joules (tables only; exports keep the exact
/// integer-decimal rendering from the ledger).
fn pj_as_j(pj: u128) -> f64 {
    pj as f64 / 1e12
}

fn energy(f: &Flags) -> Result<(), ParseArgsError> {
    let config = open_loop_config(f)?;
    let rate: f64 = f.get("rate")?;
    let idle: IdlePolicy = f.get("idle")?;

    // All three idle-policy ledgers come from identically-seeded runs
    // (fanned over --jobs); attribution never perturbs the simulation,
    // so the runs agree and only the idle apportionment differs.
    let results = par_map_indexed(jobs(f)?, IdlePolicy::ALL.len(), |i| {
        run_open_loop_attributed(&config, IdlePolicy::ALL[i])
    });
    for (_, ledger) in &results {
        if !ledger.conserves() {
            return Err(ParseArgsError(format!(
                "conservation violated under --idle {}: attributed + idle != total",
                ledger.policy()
            )));
        }
    }
    let total_pj = results[0].1.total_pj();
    if results.iter().any(|(_, l)| l.total_pj() != total_pj) {
        return Err(ParseArgsError(
            "idle-policy ledgers disagree on whole-cluster picojoules".to_string(),
        ));
    }
    let sel = IdlePolicy::ALL
        .iter()
        .position(|p| *p == idle)
        .expect("IdlePolicy::ALL covers every policy");
    let (run, ledger) = &results[sel];

    println!(
        "energy attribution: {} workers, {rate} jobs/s for {:.0} s, seed {}",
        config.workers,
        config.duration.as_secs_f64(),
        config.seed
    );
    println!("governor:         {}", config.governor.label());
    if let Some(spec) = f.text("budget") {
        println!("tenant budget:    {spec} (breaches gate admission)");
    }
    println!("idle policy:      {idle}");
    println!("completed:        {}", run.completed);
    println!("mean latency:     {:.2} s", run.mean_latency_s);
    println!("energy/function:  {:.2} J", run.joules_per_function);
    let attributed_pj = total_pj - ledger.idle_pj();
    println!(
        "cluster energy:   {:.2} J = {:.2} J attributed + {:.2} J idle pool",
        pj_as_j(total_pj),
        pj_as_j(attributed_pj),
        pj_as_j(ledger.idle_pj())
    );
    println!("conservation:     attributed + idle == total, bit-exact in pJ (all idle policies)");

    if f.has("breakdown") {
        print!("\n{:<13} {:>6}", "function", "jobs");
        for head in [
            "queue_j", "boot_j", "exec_j", "over_j", "resp_j", "idle_j", "total_j",
        ] {
            print!(" {head:>9}");
        }
        println!();
        for (func, name) in ledger.functions().iter().enumerate() {
            let total = ledger.function_attributed_pj(func) + ledger.function_idle_pj(func);
            print!("{:<13} {:>6}", name, ledger.function_completions(func));
            for phase in Phase::ALL {
                print!(" {:>9.3}", pj_as_j(ledger.function_phase_pj(func, phase)));
            }
            println!(
                " {:>9.3} {:>9.3}",
                pj_as_j(ledger.function_idle_pj(func)),
                pj_as_j(total)
            );
        }
    }
    if f.has("tenants") {
        println!(
            "\n{:<13} {:>6} {:>12} {:>9} {:>9}",
            "tenant", "jobs", "attributed_j", "idle_j", "total_j"
        );
        for (t, name) in ledger.tenants().iter().enumerate() {
            println!(
                "{:<13} {:>6} {:>12.3} {:>9.3} {:>9.3}",
                name,
                ledger.tenant_completions(t),
                pj_as_j(ledger.tenant_attributed_pj(t)),
                pj_as_j(ledger.tenant_idle_pj(t)),
                pj_as_j(ledger.tenant_attributed_pj(t) + ledger.tenant_idle_pj(t))
            );
        }
    }
    maybe_write(f, "metrics-out", || ledger.render_prometheus())?;
    // Ledger-rendered exact decimals, so --jobs N output is
    // byte-identical for every N (ci/check.sh compares them).
    maybe_write(f, "csv", || ledger.to_csv())
}

fn sched(f: &Flags) -> Result<(), ParseArgsError> {
    let config = open_loop_config(f)?;
    let rate: f64 = f.get("rate")?;
    let points = policy_sweep_cached_jobs(
        rate,
        config.duration,
        config.workers,
        config.seed,
        &config.cache,
        jobs(f)?,
    );
    println!(
        "policy sweep: {} workers, {rate} jobs/s for {:.0} s, seed {} \
         ({} placement x governor points)",
        config.workers,
        config.duration.as_secs_f64(),
        config.seed,
        points.len()
    );
    // The hit-rate column exists only with --cache and at least one
    // recorded lookup, keeping default output byte-identical to
    // pre-cache builds (and cached-but-idle sweeps free of a
    // meaningless 0.0% column).
    let show_hits = show_hit_stats(&config.cache, points.iter().map(|p| p.cache_lookups).sum());
    let hit_head = if show_hits { "    hit%" } else { "" };
    println!(
        "{:<20} {:<14} {:>6} {:>9} {:>9} {:>8} {:>8} {:>7}{hit_head}  pareto",
        "placement", "governor", "done", "mean_lat", "p95_lat", "watts", "J/func", "cycles"
    );
    for p in &points {
        let hit_col = if show_hits {
            format!(" {:>6.1}%", p.hit_rate * 100.0)
        } else {
            String::new()
        };
        println!(
            "{:<20} {:<14} {:>6} {:>8.2}s {:>8.2}s {:>8.2} {:>8.2} {:>7}{hit_col} {}",
            p.placement.label(),
            p.governor.label(),
            p.completed,
            p.mean_latency_s,
            p.p95_latency_s,
            p.mean_power_w,
            p.joules_per_function,
            p.power_cycles,
            if p.pareto { "   *" } else { "" }
        );
    }
    let front: Vec<String> = points
        .iter()
        .filter(|p| p.pareto)
        .map(|p| format!("{}/{}", p.placement.label(), p.governor.label()))
        .collect();
    println!("\nlatency-energy Pareto front: {}", front.join(", "));
    // The CSV is rendered by the library so --jobs N output is
    // byte-identical for every N (ci/check.sh compares them).
    maybe_write(f, "csv", || policy_sweep_csv(&points))
}

fn scenarios(f: &Flags) -> Result<(), ParseArgsError> {
    let suite = match f.text("spec") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ParseArgsError(format!("cannot read {path}: {e}")))?;
            Scenario::from_json(&text).map_err(ParseArgsError)?
        }
        None => Scenario::standard_suite(),
    };
    let config = open_loop_config(f)?;
    let outcomes = scenario_sweep_cached_jobs(
        &suite,
        config.duration,
        config.workers,
        config.seed,
        &config.cache,
        jobs(f)?,
    );
    println!(
        "scenario sweep: {} regime(s) x {} policy points, {} workers \
         for {:.0} s, seed {}",
        outcomes.len(),
        outcomes.first().map_or(0, |o| o.points.len()),
        config.workers,
        config.duration.as_secs_f64(),
        config.seed
    );
    // The winner table is re-evaluated over the measured (cached)
    // coordinates, so --cache can flip a regime's EDP winner; the
    // hit-rate column appears only when a cache runs and recorded a
    // lookup, keeping default output byte-identical to pre-cache
    // builds.
    let show_hits = show_hit_stats(
        &config.cache,
        outcomes
            .iter()
            .flat_map(|o| o.points.iter().map(|p| p.cache_lookups))
            .sum(),
    );
    let hit_head = if show_hits { "    hit%" } else { "" };
    println!(
        "{:<12} {:<20} {:<14} {:>8} {:>9} {:>8}{hit_head} {:>9}",
        "regime", "winner placement", "governor", "mean_lat", "J/func", "watts", "worst-SLO"
    );
    for outcome in &outcomes {
        let Some(w) = outcome.winner else {
            let name = &outcome.scenario.name;
            println!("{name:<12} no winner: no point has a finite energy-delay product");
            continue;
        };
        let (p, worst) = (&outcome.points[w], outcome.slo_attainment[w]);
        let hit_col = if show_hits {
            format!(" {:>6.1}%", p.hit_rate * 100.0)
        } else {
            String::new()
        };
        println!(
            "{:<12} {:<20} {:<14} {:>7.2}s {:>9.2} {:>8.2}{hit_col} {:>9}",
            outcome.scenario.name,
            p.placement.label(),
            p.governor.label(),
            p.mean_latency_s,
            p.joules_per_function,
            p.mean_power_w,
            if worst.is_nan() {
                "-".to_string()
            } else {
                format!("{:.1}%", worst * 100.0)
            }
        );
    }
    println!("\nwinner = lowest energy-delay product (mean latency x J/func) per regime");
    // Library-rendered so --jobs N output is byte-identical for
    // every N (ci/check.sh compares them).
    maybe_write(f, "csv", || scenario_sweep_csv(&outcomes))
}

fn reliability(f: &Flags) -> Result<(), ParseArgsError> {
    let mut rng = Rng::new(f.get("seed")?);
    for (label, spec) in [
        ("MicroFaaS (989 SBCs)", FleetSpec::microfaas_rack()),
        ("Conventional (41 servers)", FleetSpec::conventional_rack()),
    ] {
        let report = simulate_fleet(&spec, &mut rng);
        println!(
            "{label:<26} {} failures over 5y, {:.2}% replaced, {:.5}% online",
            report.failures,
            report.replaced_fraction * 100.0,
            report.online_rate * 100.0
        );
    }
    Ok(())
}

fn timeline(f: &Flags) -> Result<(), ParseArgsError> {
    let width = f.get("width")?;
    let run = microfaas::micro::run_microfaas(&MicroFaasConfig::paper_prototype(
        evaluation_mix(f.get("invocations")?),
        f.get("seed")?,
    ));
    let timeline = Timeline::from_run(&run);
    print!("{}", timeline.render(width));
    if let Some(gap) = timeline.mean_gap() {
        println!("mean inter-job gap: {gap} (the 1.51 s reboot)");
    }
    println!("{run}");
    Ok(())
}

fn scale(f: &Flags) -> Result<(), ParseArgsError> {
    let (invocations, seed) = (f.get("invocations")?, f.get("seed")?);
    let points = sbc_scale_sweep_jobs(&[5, 10, 20, 40, 80], invocations, seed, jobs(f)?);
    let mut csv = Csv::new(&["workers", "func_per_min", "per_node", "joules_per_function"]);
    println!(
        "{:>8} {:>14} {:>12} {:>10}",
        "workers", "func/min", "per node", "J/func"
    );
    for point in &points {
        let per_node = point.functions_per_minute / point.workers as f64;
        println!(
            "{:>8} {:>14.1} {:>12.2} {:>10.2}",
            point.workers, point.functions_per_minute, per_node, point.joules_per_function
        );
        csv.row_display(&[
            &point.workers,
            &point.functions_per_minute,
            &per_node,
            &point.joules_per_function,
        ]);
    }
    println!("\nper-node rate and J/func stay flat: capacity and cost scale linearly (SIII-c).");
    maybe_csv(f, &csv)
}

fn trace(f: &Flags) -> Result<(), ParseArgsError> {
    let cluster: Cluster = f.get("cluster")?;
    let mix = Arc::new(evaluation_mix(f.get("invocations")?));
    let seed = f.get("seed")?;
    let mut buffer = TraceBuffer::new(f.get("buffer")?);
    let job_filter = f.read("job", u64::from_str)?;
    let kind_filter = f.text("type");
    let mut metrics = MetricsRegistry::new();
    let run = cluster.run(
        &mix,
        seed,
        &Arc::default(),
        &mut Observer::full(&mut buffer, &mut metrics),
    );

    println!(
        "captured {} events ({} dropped by the ring buffer)",
        buffer.len(),
        buffer.dropped()
    );
    let filtered = job_filter.is_some() || kind_filter.is_some();
    let selected: Vec<&TraceRecord> = buffer
        .iter()
        .filter(|record| {
            job_filter.is_none_or(|id| record.event.job_id() == Some(id))
                && kind_filter.is_none_or(|kind| record.event.kind() == kind)
        })
        .collect();
    let filtered_lines = filtered.then(|| {
        selected
            .iter()
            .map(|r| r.to_json() + "\n")
            .collect::<String>()
    });
    if let Some(lines) = &filtered_lines {
        println!(
            "{} of {} events match the filters",
            selected.len(),
            buffer.len()
        );
        print!("{lines}");
    } else {
        let mut kinds: Vec<(&'static str, usize)> = Vec::new();
        for record in buffer.iter() {
            let kind = record.event.kind();
            match kinds.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => kinds.push((kind, 1)),
            }
        }
        for (kind, n) in &kinds {
            println!("  {kind:<20} {n:>7}");
        }
        let timeline = Timeline::from_trace(buffer.iter(), run.workers);
        match timeline.overlap_violation() {
            None => println!("single-tenancy check on the reconstructed Gantt: OK"),
            Some((a, b)) => {
                return Err(ParseArgsError(format!(
                    "trace violates single tenancy: {a:?} overlaps {b:?}"
                )))
            }
        }
        println!("{run}");
    }

    let json_lines = || filtered_lines.unwrap_or_else(|| buffer.to_json_lines());
    write_run_exports(f, json_lines, &metrics)
}

fn analyze(f: &Flags) -> Result<(), ParseArgsError> {
    let cluster: Cluster = f.get("cluster")?;
    let mix = Arc::new(evaluation_mix(f.get("invocations")?));
    let seed = f.get("seed")?;
    let job = f.read("job", u64::from_str)?;

    // Both clusters run traced, fanned over the PR 3 exec engine; each
    // closure owns its buffer so the derived trees are --jobs invariant.
    let trees = par_map_indexed(jobs(f)?, Cluster::ALL.len(), |i| {
        let mut buffer = TraceBuffer::new(1 << 22);
        let mut metrics = MetricsRegistry::new();
        Cluster::ALL[i].run(
            &mix,
            seed,
            &Arc::default(),
            &mut Observer::full(&mut buffer, &mut metrics),
        );
        if buffer.dropped() > 0 {
            return Err(format!(
                "trace ring buffer dropped {} events; spans would be incomplete",
                buffer.dropped()
            ));
        }
        Ok(SpanTree::from_buffer(&buffer))
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()
    .map_err(ParseArgsError)?;
    let labelled = || Cluster::ALL.map(Cluster::label).into_iter().zip(&trees);
    let mut paths: Vec<CriticalPath> = trees.iter().map(CriticalPath::analyze).collect();

    for ((label, tree), path) in labelled().zip(&mut paths) {
        println!(
            "{label:<13} {} spans derived ({} skipped) · {} workers · horizon {:.3} s",
            tree.jobs().len(),
            tree.skipped(),
            tree.worker_count(),
            tree.end().as_secs_f64()
        );
        // Read before the breakdown tables below sort the samples, so
        // each mean sums its phase in span order.
        let overall = path.overall();
        let means = Phase::ALL.map(|phase| overall.phase_mean_ms(phase));
        let mut line = format!("phase means over {} jobs:", overall.jobs());
        for (phase, mean) in Phase::ALL.iter().zip(means) {
            line.push_str(&format!(" {} {mean:.3} ms", phase.label()));
        }
        let end_to_end: f64 = means.iter().sum();
        println!("              {line} (end-to-end {end_to_end:.3} ms)");
        for span in tree.jobs() {
            let sum: u64 = span.phases().iter().map(|d| d.as_micros()).sum();
            if sum != span.end_to_end().as_micros() {
                return Err(ParseArgsError(format!(
                    "phase decomposition broke for {label} job #{}: phases sum to \
                     {sum} us but end-to-end is {} us",
                    span.job,
                    span.end_to_end().as_micros()
                )));
            }
        }
    }
    println!("phase decomposition check: every span's phases sum to its end-to-end latency\n");

    for ((label, _), path) in labelled().zip(&mut paths) {
        println!("{}", path.cluster_breakdown(label));
    }
    if f.has("breakdown") {
        for ((label, _), path) in labelled().zip(&mut paths) {
            println!("{label} per-function:\n{}", path.function_breakdown());
        }
    }

    let chosen = &trees[cluster as usize];
    if let Some(id) = job {
        match chosen.job(id) {
            Some(span) => println!("{}", span.waterfall()),
            None => {
                return Err(ParseArgsError(format!(
                    "no completed job #{id} in the {} trace (ids run 0..{})",
                    cluster.label(),
                    chosen.jobs().last().map_or(0, |s| s.job)
                )))
            }
        }
    }
    if let Some(path) = f.text("perfetto") {
        let json = export_chrome_trace(chosen, cluster.label());
        let summary = validate_chrome_trace(&json)
            .map_err(|e| ParseArgsError(format!("perfetto export failed validation: {e}")))?;
        write_text(path, &json)?;
        println!(
            "perfetto export ({}): {} events — {} slices, {} instants, \
             {} metadata; load at ui.perfetto.dev",
            cluster.label(),
            summary.events,
            summary.complete,
            summary.instant,
            summary.metadata
        );
    }

    let mut csv = Csv::new(&[
        "cluster",
        "job",
        "function",
        "worker",
        "queue_us",
        "boot_us",
        "exec_us",
        "overhead_us",
        "response_us",
        "end_to_end_us",
    ]);
    for (label, tree) in labelled() {
        for span in tree.jobs() {
            let phases = span.phases();
            csv.row_display(&[
                &label,
                &span.job,
                &span.function,
                &span.worker,
                &phases[0].as_micros(),
                &phases[1].as_micros(),
                &phases[2].as_micros(),
                &phases[3].as_micros(),
                &phases[4].as_micros(),
                &span.end_to_end().as_micros(),
            ]);
        }
    }
    maybe_csv(f, &csv)
}

fn faults(f: &Flags) -> Result<(), ParseArgsError> {
    let path: String = f.get("plan")?;
    let faults = Arc::new(load_plan(&path)?);
    let cluster: Cluster = f.get("cluster")?;
    let mix = Arc::new(evaluation_mix(f.get("invocations")?));
    let seed = f.get("seed")?;
    let width = f.get("width")?;
    let jobs = jobs(f)?;
    let replicates = f.get("replicates")?;
    let submitted = mix.total_jobs();
    if replicates > 1 {
        if let Some(flag) = ["out", "metrics-out"].into_iter().find(|flag| f.has(flag)) {
            return Err(ParseArgsError(format!(
                "--{flag} exports single-run artifacts; drop it or run with --replicates 1"
            )));
        }
        let summary = run_replicates(replicates, seed, jobs, |seed| {
            cluster.run(&mix, seed, &faults, &mut Observer::disabled())
        });
        return faults_replicated(f, &path, seed, replicates, submitted, &summary);
    }
    let mut buffer = TraceBuffer::new(1_048_576);
    let mut metrics = MetricsRegistry::new();
    let run = cluster.run(
        &mix,
        seed,
        &faults,
        &mut Observer::full(&mut buffer, &mut metrics),
    );

    println!("fault plan: {path}");
    println!("faults injected:   {}", run.faults.injected);
    println!("jobs requeued:     {}", run.faults.requeued);
    println!("retries scheduled: {}", run.faults.retries);
    println!("timed out:         {}", run.timed_out());
    println!("shed:              {}", run.shed());
    println!("failed:            {}", run.failed());
    println!(
        "accounted:         {} of {} submitted",
        run.jobs_accounted(),
        submitted
    );
    let timeline = Timeline::from_trace(buffer.iter(), run.workers);
    println!("\ntimeline (`#` busy, `x` crashed, `.` not executing):");
    print!("{}", timeline.render(width));
    println!("{run}");
    write_run_exports(f, || buffer.to_json_lines(), &metrics)
}

/// The `faults --replicates R` Monte-Carlo report: aggregate statistics
/// over `R` seed replicates of the faulted cluster instead of a
/// single-run timeline. The per-seed runs are aggregated in canonical
/// seed order, so the numbers are bit-identical at every job count.
fn faults_replicated(
    f: &Flags,
    path: &str,
    seed: u64,
    replicates: u32,
    submitted_per_run: u64,
    summary: &ReplicateSummary,
) -> Result<(), ParseArgsError> {
    println!("fault plan: {path}");
    println!(
        "replicates:        {} (seeds {}..={})",
        summary.runs,
        seed,
        seed + (replicates - 1) as u64
    );
    let fpm = &summary.functions_per_minute;
    println!(
        "throughput:        {:.1} ± {:.1} func/min (min {:.1}, max {:.1})",
        fpm.mean(),
        fpm.std_dev(),
        fpm.min().unwrap_or(f64::NAN),
        fpm.max().unwrap_or(f64::NAN)
    );
    let jpf = &summary.joules_per_function;
    println!(
        "energy:            {:.2} ± {:.2} J/func",
        jpf.mean(),
        jpf.std_dev()
    );
    println!(
        "makespan:          {:.1} ± {:.1} s",
        summary.makespan_seconds.mean(),
        summary.makespan_seconds.std_dev()
    );
    println!(
        "faults injected:   {} total ({:.1} per run)",
        summary.faults_injected,
        summary.faults_injected as f64 / replicates as f64
    );
    println!("retries scheduled: {}", summary.fault_retries);
    println!(
        "accounted:         {} of {} submitted",
        summary.jobs_completed + summary.jobs_dropped,
        submitted_per_run * replicates as u64
    );

    let mut csv = Csv::new(&["metric", "value"]);
    for (name, value) in [
        ("replicates", summary.runs as f64),
        ("func_per_min_mean", fpm.mean()),
        ("func_per_min_std", fpm.std_dev()),
        ("joules_per_function_mean", jpf.mean()),
        ("joules_per_function_std", jpf.std_dev()),
        ("makespan_seconds_mean", summary.makespan_seconds.mean()),
        ("faults_injected_total", summary.faults_injected as f64),
        ("retries_total", summary.fault_retries as f64),
        ("jobs_completed_total", summary.jobs_completed as f64),
        ("jobs_dropped_total", summary.jobs_dropped as f64),
    ] {
        csv.row_display(&[&name, &value]);
    }
    maybe_csv(f, &csv)
}

/// Builds the paper's evaluation mix at a given scale.
fn evaluation_mix(invocations: u32) -> WorkloadMix {
    WorkloadMix::new(FunctionId::ALL.to_vec(), invocations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(argv: &[&str]) -> Result<(), ParseArgsError> {
        dispatch(&Args::parse(argv.iter().copied()).expect("parses"))
    }

    #[test]
    fn help_prints() {
        run(&["help"]).expect("help works");
    }

    #[test]
    fn unknown_subcommand_errors() {
        let err = run(&["frobnicate"]).expect_err("unknown");
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn tco_validates_ranges() {
        assert!(run(&["tco", "--utilization", "1.5"]).is_err());
        assert!(run(&["tco", "--online-rate", "0"]).is_err());
        run(&["tco", "--utilization", "0.5", "--online-rate", "0.95"]).expect("valid");
    }

    #[test]
    fn boot_and_proportionality_run() {
        run(&["boot"]).expect("boot");
        run(&["proportionality", "--workers", "4"]).expect("proportionality");
    }

    #[test]
    fn openloop_validates_policy_and_rate() {
        assert!(run(&["openloop", "--policy", "mystery"]).is_err());
        assert!(run(&["openloop", "--governor", "mystery"]).is_err());
        assert!(run(&["openloop", "--rate", "-1"]).is_err());
        run(&["openloop", "--rate", "1.0", "--duration-secs", "60"]).expect("runs");
        run(&[
            "openloop",
            "--rate",
            "0.5",
            "--duration-secs",
            "60",
            "--policy",
            "jsq",
            "--governor",
            "keep-alive",
        ])
        .expect("runs with new policies");
    }

    #[test]
    fn openloop_streaming_and_batch_flags() {
        assert!(run(&["openloop", "--jobs-per-tick", "0"]).is_err());
        run(&[
            "openloop",
            "--streaming",
            "--jobs-per-tick",
            "2",
            "--duration-secs",
            "60",
            "--governor",
            "keep-alive",
        ])
        .expect("streaming batch run");
    }

    #[test]
    fn openloop_arrival_and_popularity_specs() {
        assert!(run(&["openloop", "--arrivals", "warp:1"]).is_err());
        assert!(run(&["openloop", "--arrivals", "poisson:-1"]).is_err());
        assert!(run(&["openloop", "--popularity", "pareto:1"]).is_err());
        assert!(
            run(&[
                "openloop",
                "--arrivals",
                "poisson:1",
                "--jobs-per-tick",
                "2"
            ])
            .is_err(),
            "--arrivals and --jobs-per-tick are exclusive"
        );
        run(&[
            "openloop",
            "--arrivals",
            "mmpp:0.2,2,60,15",
            "--popularity",
            "zipf:1.1",
            "--duration-secs",
            "60",
        ])
        .expect("bursty heavy-tailed run");
        run(&[
            "openloop",
            "--arrivals",
            "flash:0.5,20,10,4",
            "--streaming",
            "--duration-secs",
            "60",
        ])
        .expect("flash-crowd streaming run");
    }

    #[test]
    fn sched_validates_flags() {
        assert!(run(&["sched", "--rate", "0"]).is_err());
        assert!(run(&["sched", "--workers", "0"]).is_err());
        assert!(run(&["sched", "--jobs", "nope"]).is_err());
    }

    #[test]
    fn scenarios_validates_flags() {
        assert!(run(&["scenarios", "--workers", "0"]).is_err());
        assert!(run(&["scenarios", "--spec", "/nonexistent/suite.json"]).is_err());
        assert!(run(&["scenarios", "--jobs", "nope"]).is_err());
    }

    #[test]
    fn scenarios_runs_a_spec_file_and_exports_csv() {
        let dir = std::env::temp_dir();
        let spec = dir.join("microfaas_cli_test_scenarios.json");
        let csv = dir.join("microfaas_cli_test_scenarios.csv");
        std::fs::write(
            &spec,
            r#"{"scenarios": [
                {"name": "steady", "arrivals": "poisson:0.5"},
                {"name": "spiky", "arrivals": "flash:0.2,60,30,3",
                 "tenants": [{"name": "paid", "weight": 1.0, "slo_latency_s": 10.0}]}
            ]}"#,
        )
        .expect("spec written");
        let _ = std::fs::remove_file(&csv);
        run(&[
            "scenarios",
            "--spec",
            spec.to_str().expect("utf-8 temp path"),
            "--duration-secs",
            "120",
            "--seed",
            "4",
            "--jobs",
            "2",
            "--csv",
            csv.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");
        let written = std::fs::read_to_string(&csv).expect("csv written");
        assert!(written.starts_with(
            "scenario,placement,governor,completed,mean_latency_s,p95_latency_s,\
             mean_power_w,joules_per_function,power_cycles,slo_attainment,\
             hit_rate,joules_saved,cached_edp,pareto,winner"
        ));
        assert_eq!(written.lines().count(), 1 + 2 * 35);
        assert!(written.contains("\nspiky,"));
    }

    #[test]
    fn sched_sweep_exports_pareto_csv() {
        let path = std::env::temp_dir().join("microfaas_cli_test_sched.csv");
        let _ = std::fs::remove_file(&path);
        run(&[
            "sched",
            "--rate",
            "0.5",
            "--duration-secs",
            "120",
            "--seed",
            "4",
            "--jobs",
            "2",
            "--csv",
            path.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");
        let written = std::fs::read_to_string(&path).expect("csv written");
        assert!(written.starts_with(
            "placement,governor,completed,mean_latency_s,p95_latency_s,\
             mean_power_w,joules_per_function,power_cycles,hit_rate,\
             joules_saved,cached_edp,pareto"
        ));
        assert_eq!(written.lines().count(), 36, "header + 35 policy points");
        assert!(
            written.lines().any(|l| l.ends_with(",1")),
            "some row sits on the Pareto front"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cache_flag_validates_and_runs() {
        assert!(run(&["openloop", "--cache", "arc:64"]).is_err());
        assert!(run(&["sched", "--cache", "lru:0"]).is_err());
        assert!(run(&["scenarios", "--cache", "off:1"]).is_err());
        run(&[
            "openloop",
            "--rate",
            "2.0",
            "--duration-secs",
            "60",
            "--cache",
            "on",
        ])
        .expect("openloop with the default cache spec");
        run(&[
            "openloop",
            "--rate",
            "2.0",
            "--duration-secs",
            "60",
            "--streaming",
            "--cache",
            "lru:256,ttl=120,inputs=4",
        ])
        .expect("streaming openloop with an explicit cache spec");
    }

    #[test]
    fn cached_sweeps_run_and_export() {
        let path = std::env::temp_dir().join("microfaas_cli_test_sched_cached.csv");
        let _ = std::fs::remove_file(&path);
        run(&[
            "sched",
            "--rate",
            "0.5",
            "--duration-secs",
            "120",
            "--seed",
            "4",
            "--cache",
            "lru:1024",
            "--csv",
            path.to_str().expect("utf-8 temp path"),
        ])
        .expect("cached sched sweep runs");
        let written = std::fs::read_to_string(&path).expect("csv written");
        assert!(
            written
                .lines()
                .skip(1)
                .any(|l| l.split(',').nth(8).is_some_and(|hit| hit != "0.000000")),
            "some cached point records a nonzero hit rate"
        );
        let _ = std::fs::remove_file(&path);
        run(&[
            "scenarios",
            "--duration-secs",
            "60",
            "--seed",
            "4",
            "--cache",
            "on",
        ])
        .expect("cached scenario sweep runs");
    }

    #[test]
    fn flag_conflicts_share_one_wording() {
        for argv in [
            [
                "openloop",
                "--arrivals",
                "poisson:1",
                "--jobs-per-tick",
                "2",
            ],
            [
                "openloop",
                "--popularity",
                "zipf:1.1",
                "--jobs-per-tick",
                "2",
            ],
            ["openloop", "--cache", "on", "--jobs-per-tick", "2"],
            ["energy", "--budget", "1", "--governor", "keep-alive"],
        ] {
            let err = run(&argv).expect_err("conflicting flags");
            assert!(
                err.to_string().contains("mutually exclusive"),
                "{argv:?}: {err}"
            );
        }
    }

    #[test]
    fn hit_columns_need_cache_and_lookups() {
        let lru = CacheConfig::parse("lru:16").expect("parses");
        assert!(!show_hit_stats(&CacheConfig::Off, 100));
        assert!(
            !show_hit_stats(&lru, 0),
            "cached-but-idle run suppresses hit%"
        );
        assert!(show_hit_stats(&lru, 1));
    }

    #[test]
    fn energy_validates_flags() {
        assert!(run(&["energy", "--rate", "0"]).is_err());
        assert!(run(&["energy", "--workers", "0"]).is_err());
        assert!(run(&["energy", "--idle", "fair"]).is_err());
        assert!(run(&["energy", "--budget", "-3"]).is_err());
        assert!(run(&["energy", "--tenants", "paid"]).is_err());
        assert!(run(&["energy", "--tenants", "paid:zero"]).is_err());
        assert!(run(&["energy", "--governor", "mystery"]).is_err());
    }

    #[test]
    fn energy_runs_and_exports_ledgers() {
        let dir = std::env::temp_dir();
        let csv = dir.join("microfaas_cli_test_energy.csv");
        let prom = dir.join("microfaas_cli_test_energy.prom");
        for path in [&csv, &prom] {
            let _ = std::fs::remove_file(path);
        }
        run(&[
            "energy",
            "--rate",
            "2.0",
            "--duration-secs",
            "60",
            "--workers",
            "4",
            "--seed",
            "7",
            "--idle",
            "equal",
            "--breakdown",
            "--tenants",
            "paid:3,free:1",
            "--csv",
            csv.to_str().expect("utf-8 temp path"),
            "--metrics-out",
            prom.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");
        let rows = std::fs::read_to_string(&csv).expect("csv written");
        assert!(rows.starts_with(
            "idle_policy,function,completions,queue_j,boot_j,exec_j,\
             overhead_j,response_j,idle_share_j,total_j"
        ));
        assert!(rows.contains("equal,(idle),"), "idle remainder row present");
        let exposition = std::fs::read_to_string(&prom).expect("metrics written");
        assert!(exposition.contains("# TYPE function_energy_total_j gauge"));
        assert!(exposition.contains("tenant_energy_total_j{tenant=\"paid\""));
        assert!(exposition.contains("function_energy_j_bucket{le=\"+Inf\"}"));
        for path in [&csv, &prom] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn energy_csv_is_jobs_invariant_under_a_budget() {
        let dir = std::env::temp_dir();
        let serial = dir.join("microfaas_cli_test_energy_j1.csv");
        let parallel = dir.join("microfaas_cli_test_energy_j2.csv");
        for (path, jobs) in [(&serial, "1"), (&parallel, "2")] {
            let _ = std::fs::remove_file(path);
            run(&[
                "energy",
                "--rate",
                "2.0",
                "--duration-secs",
                "60",
                "--workers",
                "4",
                "--seed",
                "9",
                "--budget",
                "0.5,burst=5,action=shed",
                "--jobs",
                jobs,
                "--csv",
                path.to_str().expect("utf-8 temp path"),
            ])
            .expect("runs");
        }
        let a = std::fs::read_to_string(&serial).expect("serial csv");
        let b = std::fs::read_to_string(&parallel).expect("parallel csv");
        assert_eq!(a, b, "--jobs must not change the exact-decimal ledger");
        for path in [&serial, &parallel] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn typo_flag_is_caught() {
        let err = run(&["sweep", "--max-vm", "3"]).expect_err("typo");
        assert!(err.to_string().contains("--max-vm"));
    }

    #[test]
    fn compare_small_runs() {
        run(&["compare", "--invocations", "5", "--seed", "1"]).expect("runs");
    }

    #[test]
    fn jobs_flag_is_validated() {
        assert!(run(&["compare", "--invocations", "2", "--jobs", "0"]).is_err());
        assert!(run(&["sweep", "--max-vms", "2", "--jobs", "nope"]).is_err());
        run(&[
            "compare",
            "--invocations",
            "2",
            "--seed",
            "1",
            "--jobs",
            "2",
        ])
        .expect("runs");
    }

    #[test]
    fn sweep_and_scale_accept_jobs() {
        run(&[
            "sweep",
            "--max-vms",
            "3",
            "--invocations",
            "2",
            "--jobs",
            "2",
        ])
        .expect("sweep runs");
        run(&["scale", "--invocations", "2", "--seed", "2", "--jobs", "3"]).expect("scale runs");
    }

    #[test]
    fn reliability_runs() {
        run(&["reliability", "--seed", "3"]).expect("runs");
    }

    #[test]
    fn timeline_runs_and_validates_width() {
        run(&["timeline", "--invocations", "3", "--width", "40"]).expect("runs");
        assert!(run(&["timeline", "--width", "0"]).is_err());
    }

    #[test]
    fn scale_runs() {
        run(&["scale", "--invocations", "3", "--seed", "2"]).expect("runs");
    }

    #[test]
    fn evaluation_mix_scales() {
        assert_eq!(evaluation_mix(10).total_jobs(), 170);
    }

    #[test]
    fn trace_validates_flags() {
        assert!(run(&["trace", "--cluster", "mystery"]).is_err());
        assert!(run(&["trace", "--buffer", "0"]).is_err());
        run(&["trace", "--invocations", "2", "--seed", "1"]).expect("micro runs");
        run(&["trace", "--cluster", "conventional", "--invocations", "2"]).expect("conv runs");
    }

    #[test]
    fn trace_exports_all_three_artifacts() {
        let dir = std::env::temp_dir();
        let jsonl = dir.join("microfaas_cli_test_trace.jsonl");
        let prom = dir.join("microfaas_cli_test_trace.prom");
        let csv = dir.join("microfaas_cli_test_trace.csv");
        for path in [&jsonl, &prom, &csv] {
            let _ = std::fs::remove_file(path);
        }
        run(&[
            "trace",
            "--invocations",
            "2",
            "--seed",
            "7",
            "--out",
            jsonl.to_str().expect("utf-8 temp path"),
            "--metrics-out",
            prom.to_str().expect("utf-8 temp path"),
            "--csv",
            csv.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");

        let trace = std::fs::read_to_string(&jsonl).expect("trace written");
        assert!(trace
            .lines()
            .next()
            .expect("nonempty")
            .starts_with("{\"seq\":0,"));
        assert!(trace.contains("\"type\":\"job_completed\""));

        let exposition = std::fs::read_to_string(&prom).expect("metrics written");
        assert!(exposition.contains("# TYPE micro_jobs_completed_total counter"));
        assert!(exposition.contains("micro_jobs_completed_total 34"));

        let flat = std::fs::read_to_string(&csv).expect("csv written");
        assert!(flat.starts_with("metric,value"));
        assert!(flat.contains("micro_jobs_completed_total,34"));
        for path in [&jsonl, &prom, &csv] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn trace_filters_validate_and_export() {
        assert!(run(&["trace", "--invocations", "2", "--type"]).is_err());
        assert!(run(&["trace", "--invocations", "2", "--job", "nope"]).is_err());
        let path = std::env::temp_dir().join("microfaas_cli_test_trace_filtered.jsonl");
        let _ = std::fs::remove_file(&path);
        run(&[
            "trace",
            "--invocations",
            "2",
            "--seed",
            "7",
            "--job",
            "0",
            "--out",
            path.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");
        let lines = std::fs::read_to_string(&path).expect("filtered trace written");
        assert!(!lines.is_empty(), "job 0 has causal events");
        for line in lines.lines() {
            assert!(
                line.contains("\"job\":0"),
                "non-job-0 line exported: {line}"
            );
        }
        run(&[
            "trace",
            "--invocations",
            "2",
            "--type",
            "response_sent",
            "--out",
            path.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");
        let lines = std::fs::read_to_string(&path).expect("filtered trace written");
        assert!(lines.lines().count() >= 34, "one response per completion");
        for line in lines.lines() {
            assert!(line.contains("\"type\":\"response_sent\""));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn analyze_validates_flags() {
        assert!(run(&["analyze", "--cluster", "mystery"]).is_err());
        assert!(run(&["analyze", "--invocations", "2", "--job", "999999"]).is_err());
        assert!(run(&["analyze", "--jobs", "0"]).is_err());
        assert!(run(&["analyze", "--invocations", "2", "--perfetto"]).is_err());
    }

    #[test]
    fn analyze_reports_and_exports() {
        let dir = std::env::temp_dir();
        let perfetto = dir.join("microfaas_cli_test_analyze.json");
        let csv = dir.join("microfaas_cli_test_analyze.csv");
        for path in [&perfetto, &csv] {
            let _ = std::fs::remove_file(path);
        }
        run(&[
            "analyze",
            "--invocations",
            "2",
            "--seed",
            "7",
            "--breakdown",
            "--job",
            "0",
            "--perfetto",
            perfetto.to_str().expect("utf-8 temp path"),
            "--csv",
            csv.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");
        let json = std::fs::read_to_string(&perfetto).expect("perfetto written");
        microfaas_sim::validate_chrome_trace(&json).expect("round-trips the parser");
        let rows = std::fs::read_to_string(&csv).expect("csv written");
        assert!(rows.starts_with(
            "cluster,job,function,worker,queue_us,boot_us,exec_us,\
             overhead_us,response_us,end_to_end_us"
        ));
        assert_eq!(
            rows.lines().count(),
            1 + 2 * 34,
            "header + every completed job on both clusters"
        );
        for path in [&perfetto, &csv] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn analyze_csv_is_jobs_invariant() {
        let dir = std::env::temp_dir();
        let serial = dir.join("microfaas_cli_test_analyze_j1.csv");
        let parallel = dir.join("microfaas_cli_test_analyze_j2.csv");
        for (path, jobs) in [(&serial, "1"), (&parallel, "2")] {
            let _ = std::fs::remove_file(path);
            run(&[
                "analyze",
                "--invocations",
                "2",
                "--seed",
                "9",
                "--jobs",
                jobs,
                "--csv",
                path.to_str().expect("utf-8 temp path"),
            ])
            .expect("runs");
        }
        let a = std::fs::read_to_string(&serial).expect("serial csv");
        let b = std::fs::read_to_string(&parallel).expect("parallel csv");
        assert_eq!(a, b, "--jobs must not change derived spans");
        for path in [&serial, &parallel] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn compare_metrics_out_covers_both_clusters() {
        let path = std::env::temp_dir().join("microfaas_cli_test_compare.prom");
        let _ = std::fs::remove_file(&path);
        run(&[
            "compare",
            "--invocations",
            "2",
            "--seed",
            "5",
            "--metrics-out",
            path.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");
        let exposition = std::fs::read_to_string(&path).expect("metrics written");
        assert!(exposition.contains("micro_jobs_completed_total 34"));
        assert!(exposition.contains("conv_jobs_completed_total 34"));
        let _ = std::fs::remove_file(&path);
    }

    /// The checked-in example plan, resolved from the crate dir so the
    /// test passes regardless of the runner's working directory.
    const EXAMPLE_PLAN: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/faults_crash.json"
    );

    #[test]
    fn faults_validates_flags() {
        assert!(run(&["faults", "--plan", "/nonexistent/plan.json"]).is_err());
        assert!(run(&["faults", "--plan", EXAMPLE_PLAN, "--cluster", "mystery"]).is_err());
        assert!(run(&["faults", "--plan", EXAMPLE_PLAN, "--width", "0"]).is_err());
    }

    #[test]
    fn faults_runs_the_checked_in_plan_on_both_clusters() {
        run(&[
            "faults",
            "--plan",
            EXAMPLE_PLAN,
            "--invocations",
            "2",
            "--seed",
            "7",
        ])
        .expect("micro runs");
        run(&[
            "faults",
            "--plan",
            EXAMPLE_PLAN,
            "--cluster",
            "conventional",
            "--invocations",
            "2",
            "--seed",
            "7",
        ])
        .expect("conv runs");
    }

    #[test]
    fn faults_replicates_validates_and_runs() {
        assert!(run(&["faults", "--plan", EXAMPLE_PLAN, "--replicates", "0"]).is_err());
        assert!(
            run(&[
                "faults",
                "--plan",
                EXAMPLE_PLAN,
                "--replicates",
                "2",
                "--out",
                "/tmp/never.jsonl",
            ])
            .is_err(),
            "trace export is a single-run artifact"
        );
        run(&[
            "faults",
            "--plan",
            EXAMPLE_PLAN,
            "--invocations",
            "2",
            "--seed",
            "7",
            "--replicates",
            "3",
            "--jobs",
            "2",
        ])
        .expect("replicated micro runs");
        run(&[
            "faults",
            "--plan",
            EXAMPLE_PLAN,
            "--cluster",
            "conventional",
            "--invocations",
            "2",
            "--replicates",
            "2",
        ])
        .expect("replicated conv runs");
    }

    #[test]
    fn faults_replicates_csv_exports_summary() {
        let path = std::env::temp_dir().join("microfaas_cli_test_replicates.csv");
        let _ = std::fs::remove_file(&path);
        run(&[
            "faults",
            "--plan",
            EXAMPLE_PLAN,
            "--invocations",
            "2",
            "--seed",
            "7",
            "--replicates",
            "2",
            "--csv",
            path.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");
        let written = std::fs::read_to_string(&path).expect("csv written");
        assert!(written.starts_with("metric,value"));
        assert!(written.contains("replicates,2"));
        assert!(written.contains("func_per_min_mean,"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn faults_exports_metrics_with_nonzero_injection_count() {
        let path = std::env::temp_dir().join("microfaas_cli_test_faults.prom");
        let _ = std::fs::remove_file(&path);
        run(&[
            "faults",
            "--plan",
            EXAMPLE_PLAN,
            "--invocations",
            "2",
            "--seed",
            "7",
            "--metrics-out",
            path.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");
        let exposition = std::fs::read_to_string(&path).expect("metrics written");
        assert!(exposition.contains("micro_faults_injected_total"));
        assert!(
            !exposition.contains("micro_faults_injected_total 0"),
            "the scheduled crash must fire"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compare_accepts_a_fault_plan() {
        run(&[
            "compare",
            "--invocations",
            "2",
            "--seed",
            "5",
            "--faults",
            EXAMPLE_PLAN,
        ])
        .expect("runs");
        assert!(run(&["compare", "--faults", "/nonexistent/plan.json"]).is_err());
    }

    #[test]
    fn csv_export_writes_file() {
        let path = std::env::temp_dir().join("microfaas_cli_test_fig5.csv");
        let _ = std::fs::remove_file(&path);
        run(&[
            "proportionality",
            "--workers",
            "3",
            "--csv",
            path.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");
        let written = std::fs::read_to_string(&path).expect("file exists");
        assert!(written.starts_with("active,sbc_watts,server_watts"));
        assert_eq!(written.lines().count(), 5, "header + 4 rows");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn monitor_validates_flags() {
        assert!(run(&["monitor", "--rate", "0"]).is_err());
        assert!(run(&["monitor", "--window-secs", "0"]).is_err());
        assert!(run(&["monitor", "--max-windows", "0"]).is_err());
        assert!(run(&["monitor", "--slo-target", "1.0"]).is_err());
        assert!(run(&["monitor", "--slo-target", "0"]).is_err());
        assert!(run(&["monitor", "--policy", "mystery"]).is_err());
        assert!(run(&["monitor", "--arrivals", "warp:1"]).is_err());
        assert!(run(&["monitor", "--jobs", "nope"]).is_err());
        assert!(
            run(&[
                "monitor",
                "--budget",
                "5:60",
                "--governor",
                "keep-alive",
                "--duration-secs",
                "60"
            ])
            .is_err(),
            "--budget and --governor are exclusive"
        );
        assert!(run(&["monitor", "--streaming"]).is_err(), "unknown flag");
    }

    #[test]
    fn monitor_exports_series_alerts_and_counter_tracks() {
        let dir = std::env::temp_dir();
        let csv = dir.join("microfaas_cli_test_monitor.csv");
        let prom = dir.join("microfaas_cli_test_monitor.prom");
        let perfetto = dir.join("microfaas_cli_test_monitor_trace.json");
        for path in [&csv, &prom, &perfetto] {
            let _ = std::fs::remove_file(path);
        }
        run(&[
            "monitor",
            "--arrivals",
            "flash:0.2,60,30,20",
            "--duration-secs",
            "180",
            "--workers",
            "8",
            "--governor",
            "keep-alive",
            "--tenants",
            "paid:1:2.5,free:4:30",
            "--seed",
            "2022",
            "--csv",
            csv.to_str().expect("utf-8 temp path"),
            "--metrics-out",
            prom.to_str().expect("utf-8 temp path"),
            "--perfetto",
            perfetto.to_str().expect("utf-8 temp path"),
        ])
        .expect("monitored flash-crowd run");
        let series = std::fs::read_to_string(&csv).expect("csv written");
        assert!(series.starts_with("window,start_s,elapsed_s,completed,"));
        assert!(series.contains("paid_attainment"));
        let exposition = std::fs::read_to_string(&prom).expect("metrics written");
        assert!(exposition.contains("telemetry_window_width_seconds"));
        let trace = std::fs::read_to_string(&perfetto).expect("trace written");
        assert!(trace.contains("\"ph\":\"C\""));
        validate_chrome_trace(&trace).expect("counter trace validates");
        for path in [&csv, &prom, &perfetto] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn monitor_csv_is_jobs_invariant() {
        let dir = std::env::temp_dir();
        let serial = dir.join("microfaas_cli_test_monitor_j1.csv");
        let parallel = dir.join("microfaas_cli_test_monitor_j2.csv");
        for (path, jobs) in [(&serial, "1"), (&parallel, "2")] {
            let _ = std::fs::remove_file(path);
            run(&[
                "monitor",
                "--rate",
                "2.0",
                "--duration-secs",
                "120",
                "--workers",
                "6",
                "--governor",
                "keep-alive",
                "--seed",
                "11",
                "--jobs",
                jobs,
                "--csv",
                path.to_str().expect("utf-8 temp path"),
            ])
            .expect("monitored run");
        }
        let a = std::fs::read_to_string(&serial).expect("serial csv");
        let b = std::fs::read_to_string(&parallel).expect("parallel csv");
        assert_eq!(a, b, "time series must be byte-identical across --jobs");
        for path in [&serial, &parallel] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn metrics_out_helper_shares_one_error_wording() {
        // Every --metrics-out site funnels through maybe_write, so
        // an unwritable path yields the same "cannot write" message from
        // all of them.
        let bad = "/nonexistent-dir/metrics.prom";
        for argv in [
            vec!["compare", "--invocations", "2", "--metrics-out", bad],
            vec!["monitor", "--duration-secs", "60", "--metrics-out", bad],
        ] {
            let err = run(&argv).expect_err("unwritable path");
            assert!(
                err.to_string()
                    .contains("cannot write '/nonexistent-dir/metrics.prom'"),
                "unexpected wording: {err}"
            );
        }
    }
}
