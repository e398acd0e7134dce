//! The simulator benchmark: five pinned workloads run through the public
//! APIs of `microfaas`, `microfaas-sched`, `microfaas-energy` and
//! `microfaas-sim`, each pass timed in a fresh child process and checked
//! by a correctness gate, plus a separate `--trace` pass that splits the
//! cost by layer. See README.md beside this file.
//!
//! ```text
//! cargo run --offline --release -q --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME] [--seed 2022] [--rounds 5 | --seconds S] \
//!     [--trace [0|1]] [--out FILE]
//! cargo run --offline --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --compare PARENT.json CHANGE.json
//! ```

mod compare;
mod layers;
mod measure;
mod record;
mod workloads;

use std::hint::black_box;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use microfaas_sim::chrome::validate_chrome_trace;

use crate::measure::{
    cpu_seconds, median, peak_rss_mb, quartiles, reference_seconds, reset_peak_rss, REFERENCE_OPS,
    REFERENCE_S,
};
use crate::record::{Metric, PassReport, Record, TraceReport, WorkloadResult};
use crate::workloads::{Scale, Workload, PINNED_SEED};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput, hit ratios).
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// The direction labelled `label`.
    pub fn parse(label: &str) -> Option<Better> {
        [Better::Lower, Better::Higher]
            .into_iter()
            .find(|b| b.label() == label)
    }
}

/// The end-to-end metrics a timed run reports, with their units; the
/// rule behind each value is in [`timed_metrics`].
pub const END_TO_END: [(&str, &str, Better); 3] = [
    ("run_s", "s", Better::Lower),
    ("peak_rss_mb", "MB", Better::Lower),
    ("setup_s", "s", Better::Lower),
];

/// Recorded beside the end-to-end metrics but held to no bound: the
/// unscaled times, which move with other tenants' load by more than any
/// bound could allow, and the host speed they are scaled by (README.md).
const RAW: [(&str, &str, Better); 3] = [
    ("wall_s", "s", Better::Lower),
    ("host_cpu_s", "s", Better::Lower),
    ("host_speed", "x", Better::Higher),
];

/// Set-up is nanoseconds to microseconds of work, so it is timed in
/// blocks of this many builds...
const SETUP_BLOCK: u32 = 100;

/// ...and a pass's set-up is the median of this many blocks.
const SETUP_BLOCKS: usize = 11;

const USAGE: &str = "usage:
  benchmark [--workload NAME] [--seed N] [--rounds N | --seconds S] [--trace [0|1]] [--out FILE]
  benchmark --compare PARENT.json CHANGE.json

workloads: paper-closed, capacity-1m, flash-day, policy-sweeps, observed-1m (default: all)
  --seed N      workload seed (default 2022; fingerprints are pinned at 2022)
  --rounds N    passes of each workload, alternating forward and reverse order (default 5)
  --seconds S   instead of --rounds: start rounds until S seconds would be exceeded
  --trace [1]   one per-layer trace pass per workload instead of timed passes
  --out FILE    write the BENCH record (every raw sample, medians, quartiles) to FILE
  --compare     judge CHANGE against PARENT by the bounds in ./BENCHMARK.json";

/// Options of a benchmark run.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    rounds: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
}

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    Run(Options),
    Compare(String, String),
    /// One pass in this process, reported as one JSON line: what the
    /// parent re-executes itself as.
    Child(Workload, u64, bool),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut opts = Options {
        workloads: Workload::ALL.to_vec(),
        seed: PINNED_SEED,
        rounds: 5,
        seconds: None,
        trace: false,
        out: None,
    };
    let mut child = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        let workload = |name: String| {
            Workload::parse(&name).ok_or_else(|| format!("unknown workload '{name}'"))
        };
        match flag.as_str() {
            "--workload" => opts.workloads = vec![workload(value("a workload name")?)?],
            "--child" => child = Some(workload(value("a workload name")?)?),
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed must be a whole number".to_string())?
            }
            "--rounds" => {
                opts.rounds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--rounds must be a positive whole number")?
            }
            "--seconds" => {
                opts.seconds = Some(
                    value("a number")?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds must be positive")?,
                )
            }
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--out" => opts.out = Some(value("a file name")?),
            "--compare" => {
                let parent = value("two record files")?;
                let change = value("two record files")?;
                if it.next().is_some() {
                    return Err("--compare takes exactly two record files".to_string());
                }
                return Ok(Mode::Compare(parent, change));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(match child {
        Some(workload) => Mode::Child(workload, opts.seed, opts.trace),
        None => Mode::Run(opts),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Mode::Compare(parent, change)) => compare::run(&parent, &change),
        Ok(Mode::Child(workload, seed, trace)) => {
            if trace {
                println!(
                    "{}",
                    layers::trace_pass(workload, seed, Scale::Full).to_json()
                );
            } else {
                println!("{}", measure_pass(workload, seed, Scale::Full).to_json());
            }
            ExitCode::SUCCESS
        }
        Ok(Mode::Run(opts)) => run(&opts),
    }
}

/// One timed pass in this process: build the inputs (the set-up, timed
/// in [`SETUP_BLOCKS`] blocks of [`SETUP_BLOCK`] builds), run the engine
/// calls under the CPU and wall clocks, then gate the outputs. The
/// reference kernel runs first and last, in this process so that it
/// shares the engines' CPU as far as the scheduler allows. Its memory
/// stays out of the pass's peak RSS: the peak restarts after its first
/// run and is read before its second.
fn measure_pass(workload: Workload, seed: u64, scale: Scale) -> PassReport {
    let reference_ops = match scale {
        Scale::Full => REFERENCE_OPS,
        Scale::Smoke => 1_000,
    };
    let reference_before = reference_seconds(reference_ops);
    reset_peak_rss();
    let setups: Vec<f64> = (0..SETUP_BLOCKS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..SETUP_BLOCK {
                black_box(workloads::inputs(workload, seed, scale));
            }
            start.elapsed().as_secs_f64() / f64::from(SETUP_BLOCK)
        })
        .collect();
    let inputs = workloads::inputs(workload, seed, scale);
    let cpu = cpu_seconds();
    let out = workloads::run_pass(&inputs);
    let cpu_s = cpu_seconds() - cpu;
    let peak_rss_mb = peak_rss_mb();
    let host_speed = 2.0 * REFERENCE_S / (reference_before + reference_seconds(reference_ops));
    let mut violations = out.violations;
    let pinned = workloads::pinned_fingerprint(workload);
    if scale == Scale::Full && seed == PINNED_SEED && out.fingerprint != pinned {
        violations.push(format!(
            "fingerprint at seed {PINNED_SEED} is '{}', pinned '{pinned}'",
            out.fingerprint
        ));
    }
    PassReport {
        setup_s: median(&setups),
        wall_s: out.wall_s,
        cpu_s,
        host_speed,
        peak_rss_mb,
        fingerprint: out.fingerprint,
        violations,
    }
}

/// Runs this executable again as a child for one pass and returns the
/// JSON line it printed. The child runs alone: the parent waits for it.
fn spawn_child(workload: Workload, seed: u64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--child", workload.name(), "--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if trace {
        command.arg("--trace");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start a child pass: {e}"))?;
    if !output.status.success() {
        return Err(format!("child pass exited with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| "child pass printed nothing".to_string())
}

/// A run's end-to-end metrics from its correct passes, all at one seed
/// and so all the same simulated work. Each pass gives one sample of
/// each metric and the run reports their median, which, unlike a
/// minimum, does not move with the number of passes a time budget fits.
/// Times are scaled to the reference speed: multiplied by the pass's
/// `host_speed`.
///
/// * `run_s` — the pass's engine calls, at the reference speed;
/// * `peak_rss_mb` — the pass's peak RSS;
/// * `setup_s` — one build of the pass's inputs, at the reference speed
///   (the median of [`SETUP_BLOCKS`] blocks);
/// * recorded, not bounded: `wall_s`, the engine calls' wall time as
///   read; `host_cpu_s`, the pass's CPU time; `host_speed`.
fn timed_metrics(passes: &[PassReport]) -> Vec<Metric> {
    if passes.is_empty() {
        return Vec::new();
    }
    let metric = |(name, unit, better): (&str, &str, Better), f: fn(&PassReport) -> f64| {
        let samples: Vec<f64> = passes.iter().map(f).collect();
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            better,
            value: median(&samples),
            samples,
        }
    };
    vec![
        metric(END_TO_END[0], |p| p.wall_s * p.host_speed),
        metric(END_TO_END[1], |p| p.peak_rss_mb),
        metric(END_TO_END[2], |p| p.setup_s * p.host_speed),
        metric(RAW[0], |p| p.wall_s),
        metric(RAW[1], |p| p.cpu_s),
        metric(RAW[2], |p| p.host_speed),
    ]
}

/// Collects one workload's passes into a [`WorkloadResult`].
struct Collector {
    workload: Workload,
    attempted: u64,
    failures: Vec<String>,
    passes: Vec<PassReport>,
    traced: Option<Vec<(String, f64)>>,
}

impl Collector {
    fn new(workload: Workload) -> Collector {
        Collector {
            workload,
            attempted: 0,
            failures: Vec::new(),
            passes: Vec::new(),
            traced: None,
        }
    }

    fn fail(&mut self, why: String) {
        self.failures
            .push(format!("pass {}: {why}", self.attempted));
    }

    /// Adds one timed pass. A correct pass must also print the same
    /// fingerprint as every other pass at this seed.
    fn add_pass(&mut self, report: Result<PassReport, String>) {
        self.attempted += 1;
        match report {
            Err(e) => self.fail(e),
            Ok(r) if !r.violations.is_empty() => self.fail(r.violations.join("; ")),
            Ok(r) => match self.passes.first() {
                Some(first) if first.fingerprint != r.fingerprint => {
                    let why = format!(
                        "nondeterministic: '{}' after '{}'",
                        r.fingerprint, first.fingerprint
                    );
                    self.fail(why);
                }
                _ => self.passes.push(r),
            },
        }
    }

    /// Adds one trace pass; returns its spans.
    fn add_trace(&mut self, report: Result<TraceReport, String>) -> Vec<layers::Span> {
        self.attempted += 1;
        match report {
            Err(e) => {
                self.fail(e);
                Vec::new()
            }
            Ok(report) => {
                if !report.violations.is_empty() {
                    self.fail(report.violations.join("; "));
                }
                self.traced = Some(report.metrics);
                report.spans
            }
        }
    }

    fn finish(self) -> WorkloadResult {
        let metrics = match &self.traced {
            Some(values) => layers::per_layer_metrics()
                .into_iter()
                .filter_map(|(name, unit, better)| {
                    let value = values.iter().find(|(k, _)| *k == name)?.1;
                    Some(Metric {
                        name,
                        unit: unit.to_string(),
                        better,
                        value,
                        samples: vec![value],
                    })
                })
                .collect(),
            None => timed_metrics(&self.passes),
        };
        WorkloadResult {
            name: self.workload.name().to_string(),
            attempted: self.attempted,
            failed: self.failures.len() as u64,
            failures: self.failures,
            fingerprint: self
                .passes
                .first()
                .map(|p| p.fingerprint.clone())
                .unwrap_or_default(),
            metrics,
        }
    }
}

fn run(opts: &Options) -> ExitCode {
    let started = Instant::now();
    let mut collectors: Vec<Collector> =
        opts.workloads.iter().map(|&w| Collector::new(w)).collect();
    let mut rounds = 0;
    let mut trace_ok = true;
    if opts.trace {
        let mut traced = Vec::new();
        for (collector, &workload) in collectors.iter_mut().zip(&opts.workloads) {
            let report = spawn_child(workload, opts.seed, true)
                .and_then(|line| TraceReport::from_json(&line));
            traced.push((workload, collector.add_trace(report)));
        }
        rounds = 1;
        trace_ok = write_chrome_trace(&traced);
    } else {
        loop {
            let round_started = Instant::now();
            let mut order: Vec<usize> = (0..collectors.len()).collect();
            if rounds % 2 == 1 {
                order.reverse();
            }
            for i in order {
                let report = spawn_child(opts.workloads[i], opts.seed, false)
                    .and_then(|line| PassReport::from_json(&line));
                collectors[i].add_pass(report);
            }
            rounds += 1;
            let elapsed = started.elapsed().as_secs_f64();
            let done = match opts.seconds {
                Some(budget) => elapsed + round_started.elapsed().as_secs_f64() > budget,
                None => rounds >= opts.rounds,
            };
            if done {
                break;
            }
        }
    }
    let results: Vec<WorkloadResult> = collectors.into_iter().map(Collector::finish).collect();
    print_table(&results, opts, rounds);
    let mut ok = trace_ok && results.iter().all(|r| r.failed == 0);
    if let Some(path) = &opts.out {
        let record = Record {
            git_rev: git_rev(),
            date: utc_now(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            cpu_model: measure::cpu_model(),
            seed: opts.seed,
            rounds,
            trace: opts.trace,
            workloads: results.clone(),
        };
        if let Err(e) = std::fs::write(path, record.to_json()) {
            eprintln!("error: cannot write {path}: {e}");
            ok = false;
        }
    }
    let listed: Vec<String> = if opts.trace {
        layers::per_layer_metrics()
            .into_iter()
            .map(|m| m.0)
            .collect()
    } else {
        END_TO_END.iter().map(|m| m.0.to_string()).collect()
    };
    println!("{}", record::result_line(&results, &listed));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_table(results: &[WorkloadResult], opts: &Options, rounds: u64) {
    println!(
        "benchmark: seed {}, {} round(s), {} pass(es), nproc {}",
        opts.seed,
        rounds,
        results.iter().map(|r| r.attempted).sum::<u64>(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for r in results {
        println!(
            "\n{} — {} attempted, {} failed",
            r.name, r.attempted, r.failed
        );
        if !r.fingerprint.is_empty() {
            println!("  fingerprint: {}", r.fingerprint);
        }
        for failure in &r.failures {
            println!("  FAILED {failure}");
        }
        for m in &r.metrics {
            let mut line = format!("  {:<34} {:>16} {:<6}", m.name, show(m.value), m.unit);
            if m.samples.len() > 1 {
                let (q1, _, q3) = quartiles(&m.samples);
                line += &format!(
                    "  passes: q1 {:>14}  q3 {:>14}  n={}",
                    show(q1),
                    show(q3),
                    m.samples.len()
                );
            }
            println!("{line}");
        }
    }
}

/// A table cell: six decimals, or scientific notation for values too
/// small to show that way (set-up times).
fn show(x: f64) -> String {
    if x != 0.0 && x.abs() < 1e-3 {
        format!("{x:.4e}")
    } else {
        format!("{x:.6}")
    }
}

/// Where the trace pass writes its spans: beside the build outputs.
fn chrome_trace_path() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("benchmark-trace.json")
}

/// Writes every trace pass's spans as one Chrome trace (one process row
/// per workload, the causing span's id in `args`) after checking it with
/// `validate_chrome_trace`.
fn write_chrome_trace(traced: &[(Workload, Vec<layers::Span>)]) -> bool {
    let mut events = Vec::new();
    for (pid, (workload, spans)) in traced.iter().enumerate() {
        let pid = pid + 1;
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":1,\"args\":{{\"name\":{}}}}}",
            record::string(workload.name())
        ));
        for s in spans {
            events.push(format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{},\"parent\":{}}}}}",
                record::string(&s.name),
                record::number(s.start_us),
                record::number(s.dur_us),
                s.id,
                s.parent
            ));
        }
    }
    let text = format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    );
    let path = chrome_trace_path();
    let written = validate_chrome_trace(&text).and_then(|summary| {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(&path, &text).map_err(|e| e.to_string())?;
        Ok(summary)
    });
    match written {
        Ok(summary) => {
            eprintln!(
                "trace: {} spans written to {}",
                summary.complete,
                path.display()
            );
            true
        }
        Err(e) => {
            eprintln!("error: Chrome trace not written to {}: {e}", path.display());
            false
        }
    }
}

/// `git rev-parse HEAD`, or `"unknown"` outside a git checkout.
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil date from days since 1970-01-01 (Howard Hinnant's algorithm).
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use microfaas_sim::json::{self, Value};

    fn names(doc: &Value, key: &str) -> Vec<String> {
        doc.as_object()
            .expect("object")
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_array())
            .expect("a list")
            .iter()
            .map(|entry| {
                let entry = entry.as_object().expect("an object");
                entry
                    .iter()
                    .find(|(k, _)| k == "name")
                    .and_then(|(_, v)| v.as_str())
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` and this binary name the same workloads and
    /// metrics, so neither can drift from the other.
    #[test]
    fn benchmark_json_matches_the_emitted_names() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names(&doc, "workloads"), workloads);
        let end_to_end: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names(&doc, "end_to_end"), end_to_end);
        let per_layer: Vec<String> = layers::per_layer_metrics()
            .into_iter()
            .map(|m| m.0)
            .collect();
        assert_eq!(names(&doc, "per_layer"), per_layer);
    }

    #[test]
    fn every_workload_measures_at_smoke_scale() {
        for workload in Workload::ALL {
            let passes: Vec<PassReport> = (0..3)
                .map(|_| measure_pass(workload, 5, Scale::Smoke))
                .collect();
            for pass in &passes {
                assert!(pass.violations.is_empty(), "{pass:?}");
            }
            let metrics = timed_metrics(&passes);
            let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(
                names,
                [
                    "run_s",
                    "peak_rss_mb",
                    "setup_s",
                    "wall_s",
                    "host_cpu_s",
                    "host_speed"
                ]
            );
            for m in &metrics {
                assert_eq!(m.samples.len(), 3);
                assert_eq!(m.value, median(&m.samples), "{m:?}");
            }
            // Times are scaled by the host's speed around each pass.
            for p in &passes {
                assert!(metrics[0].samples.contains(&(p.wall_s * p.host_speed)));
            }
            // CPU time may read 0 below one clock tick; nothing else may.
            for m in metrics.iter().filter(|m| m.name != "host_cpu_s") {
                assert!(m.value.is_finite() && m.value > 0.0, "{m:?}");
            }
        }
    }

    #[test]
    fn arguments_parse() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let Ok(Mode::Run(opts)) = parse_args(&args(
            "--workload flash-day --seed 9 --seconds 10 --trace 0 --out r.json",
        )) else {
            panic!("a run")
        };
        assert_eq!(opts.workloads, [Workload::FlashDay]);
        assert_eq!(
            (opts.seed, opts.seconds, opts.trace),
            (9, Some(10.0), false)
        );
        assert_eq!(opts.out.as_deref(), Some("r.json"));
        let Ok(Mode::Run(opts)) = parse_args(&args("--trace --rounds 2")) else {
            panic!("a run")
        };
        assert!(opts.trace);
        assert_eq!(opts.rounds, 2);
        assert_eq!(
            parse_args(&args("--child observed-1m --seed 3 --trace 1")),
            Ok(Mode::Child(Workload::Observed1m, 3, true))
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--rounds 0")).is_err());
        assert!(parse_args(&args("--compare a.json")).is_err());
    }

    #[test]
    fn utc_dates_are_iso_8601() {
        let now = utc_now();
        assert_eq!(now.len(), 20, "{now}");
        assert!(now.starts_with("20") && now.ends_with('Z'));
    }
}
