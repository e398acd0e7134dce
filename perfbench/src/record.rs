//! JSON in and out: the report a child pass hands its parent, the
//! per-workload results, and the machine-written BENCH record. Output is
//! rendered here; input goes through `microfaas_sim::json`.

use microfaas_sim::json::{self, Value};

use crate::layers::Span;
use crate::measure::quartiles;
use crate::Better;

/// `s` as a JSON string literal. The reader takes no `\u` escapes, so
/// other control characters become spaces.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `x` as a JSON number with every digit Rust's shortest round-trip
/// rendering keeps; non-finite values (which JSON cannot hold) are
/// written as `null`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn strings(items: &[String]) -> String {
    let parts: Vec<String> = items.iter().map(|s| string(s)).collect();
    format!("[{}]", parts.join(","))
}

fn numbers(items: &[f64]) -> String {
    let parts: Vec<String> = items.iter().map(|&x| number(x)).collect();
    format!("[{}]", parts.join(","))
}

fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    value
        .as_object()
        .ok_or_else(|| format!("expected an object holding '{key}'"))?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing '{key}'"))
}

fn f64_field(value: &Value, key: &str) -> Result<f64, String> {
    match field(value, key)? {
        Value::Null => Ok(f64::NAN),
        v => v.as_f64().ok_or_else(|| format!("'{key}' is not a number")),
    }
}

fn u64_field(value: &Value, key: &str) -> Result<u64, String> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| format!("'{key}' is not a whole number"))
}

fn str_field<'a>(value: &'a Value, key: &str) -> Result<&'a str, String> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| format!("'{key}' is not a string"))
}

fn array_field<'a>(value: &'a Value, key: &str) -> Result<&'a [Value], String> {
    field(value, key)?
        .as_array()
        .ok_or_else(|| format!("'{key}' is not an array"))
}

fn string_list(value: &Value, key: &str) -> Result<Vec<String>, String> {
    array_field(value, key)?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("'{key}' holds a non-string"))
        })
        .collect()
}

fn number_list(value: &Value, key: &str) -> Result<Vec<f64>, String> {
    array_field(value, key)?
        .iter()
        .map(|v| match v {
            Value::Null => Ok(f64::NAN),
            v => v
                .as_f64()
                .ok_or_else(|| format!("'{key}' holds a non-number")),
        })
        .collect()
}

/// What one timed pass measured, as its child process reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct PassReport {
    /// Median wall time of one build of the pass's inputs, s.
    pub setup_s: f64,
    /// Wall time of the engine calls, s.
    pub wall_s: f64,
    /// Process CPU time over the engine calls, s.
    pub cpu_s: f64,
    /// How fast the host ran around the pass relative to the reference
    /// speed: `REFERENCE_S` over the mean time of the reference kernel
    /// just before and just after the pass. Above 1 is faster.
    pub host_speed: f64,
    /// Peak resident set size of the child, MiB.
    pub peak_rss_mb: f64,
    /// The deterministic output summary.
    pub fingerprint: String,
    /// Correctness-gate failures.
    pub violations: Vec<String>,
}

impl PassReport {
    /// One JSON line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"setup_s\":{},\"wall_s\":{},\"cpu_s\":{},\"host_speed\":{},\
             \"peak_rss_mb\":{},\"fingerprint\":{},\"violations\":{}}}",
            number(self.setup_s),
            number(self.wall_s),
            number(self.cpu_s),
            number(self.host_speed),
            number(self.peak_rss_mb),
            string(&self.fingerprint),
            strings(&self.violations)
        )
    }

    /// Parses [`PassReport::to_json`] output.
    pub fn from_json(text: &str) -> Result<PassReport, String> {
        let v = json::parse(text)?;
        Ok(PassReport {
            setup_s: f64_field(&v, "setup_s")?,
            wall_s: f64_field(&v, "wall_s")?,
            cpu_s: f64_field(&v, "cpu_s")?,
            host_speed: f64_field(&v, "host_speed")?,
            peak_rss_mb: f64_field(&v, "peak_rss_mb")?,
            fingerprint: str_field(&v, "fingerprint")?.to_string(),
            violations: string_list(&v, "violations")?,
        })
    }
}

/// What one trace pass measured, as its child process reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Per-layer metric values.
    pub metrics: Vec<(String, f64)>,
    /// Consistency-check failures.
    pub violations: Vec<String>,
    /// Spans around every call the pass made.
    pub spans: Vec<Span>,
}

impl TraceReport {
    /// One JSON line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("{}:{}", string(k), number(*v)))
            .collect();
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "[{},{},{},{},{}]",
                    s.id,
                    s.parent,
                    string(&s.name),
                    number(s.start_us),
                    number(s.dur_us)
                )
            })
            .collect();
        format!(
            "{{\"metrics\":{{{}}},\"violations\":{},\"spans\":[{}]}}",
            metrics.join(","),
            strings(&self.violations),
            spans.join(",")
        )
    }

    /// Parses [`TraceReport::to_json`] output.
    pub fn from_json(text: &str) -> Result<TraceReport, String> {
        let v = json::parse(text)?;
        let metrics = field(&v, "metrics")?
            .as_object()
            .ok_or("'metrics' is not an object")?
            .iter()
            .map(|(k, x)| match x {
                Value::Null => Ok((k.clone(), f64::NAN)),
                x => x
                    .as_f64()
                    .map(|x| (k.clone(), x))
                    .ok_or_else(|| format!("metric '{k}' is not a number")),
            })
            .collect::<Result<_, String>>()?;
        let spans = array_field(&v, "spans")?
            .iter()
            .map(|s| {
                let s = s.as_array().filter(|s| s.len() == 5).ok_or("bad span")?;
                Ok(Span {
                    id: s[0].as_u64().ok_or("bad span id")? as usize,
                    parent: s[1].as_u64().ok_or("bad span parent")? as usize,
                    name: s[2].as_str().ok_or("bad span name")?.to_string(),
                    start_us: s[3].as_f64().ok_or("bad span start")?,
                    dur_us: s[4].as_f64().ok_or("bad span duration")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(TraceReport {
            metrics,
            violations: string_list(&v, "violations")?,
            spans,
        })
    }
}

/// One metric of one workload: the value a run reports, and the raw
/// per-pass samples it was computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Which direction is an improvement.
    pub better: Better,
    /// The run's value (README.md gives each metric's rule).
    pub value: f64,
    /// One raw value per pass, in the order the passes ran.
    pub samples: Vec<f64>,
}

/// Everything measured on one workload in one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Passes run.
    pub attempted: u64,
    /// Passes that failed the correctness gate or did not finish.
    pub failed: u64,
    /// Why they failed.
    pub failures: Vec<String>,
    /// The fingerprint every correct pass printed.
    pub fingerprint: String,
    /// Per-metric values and samples.
    pub metrics: Vec<Metric>,
}

/// The machine-written BENCH record `--out` saves.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// `git rev-parse HEAD`, or `"unknown"`.
    pub git_rev: String,
    /// UTC time the run finished, ISO 8601.
    pub date: String,
    /// Logical CPUs available to the process.
    pub nproc: u64,
    /// `/proc/cpuinfo` model name.
    pub cpu_model: String,
    /// The workload seed.
    pub seed: u64,
    /// Rounds run (each round runs every selected workload once).
    pub rounds: u64,
    /// Whether this is a `--trace` record.
    pub trace: bool,
    /// Per-workload results.
    pub workloads: Vec<WorkloadResult>,
}

impl Record {
    /// The record as JSON: one workload per block, each metric's value
    /// plus every raw sample with their median and quartiles.
    pub fn to_json(&self) -> String {
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|w| {
                let metrics: Vec<String> = w
                    .metrics
                    .iter()
                    .map(|m| {
                        let (q1, q2, q3) = quartiles(&m.samples);
                        format!(
                            "        {{\"name\":{},\"unit\":{},\"better\":{},\"value\":{},\
                             \"median\":{},\"q1\":{},\"q3\":{},\"samples\":{}}}",
                            string(&m.name),
                            string(&m.unit),
                            string(m.better.label()),
                            number(m.value),
                            number(q2),
                            number(q1),
                            number(q3),
                            numbers(&m.samples)
                        )
                    })
                    .collect();
                format!(
                    "    {{\"name\":{},\"attempted\":{},\"failed\":{},\"failures\":{},\
                     \"fingerprint\":{},\n      \"metrics\":[\n{}\n      ]}}",
                    string(&w.name),
                    w.attempted,
                    w.failed,
                    strings(&w.failures),
                    string(&w.fingerprint),
                    metrics.join(",\n")
                )
            })
            .collect();
        format!(
            "{{\n  \"git_rev\":{},\n  \"date\":{},\n  \"host\":{{\"nproc\":{},\"cpu_model\":{}}},\n  \
             \"seed\":{},\n  \"rounds\":{},\n  \"trace\":{},\n  \"workloads\":[\n{}\n  ]\n}}\n",
            string(&self.git_rev),
            string(&self.date),
            self.nproc,
            string(&self.cpu_model),
            self.seed,
            self.rounds,
            self.trace,
            workloads.join(",\n")
        )
    }

    /// Parses [`Record::to_json`] output.
    pub fn from_json(text: &str) -> Result<Record, String> {
        let v = json::parse(text)?;
        let host = field(&v, "host")?;
        let workloads = array_field(&v, "workloads")?
            .iter()
            .map(|w| {
                let metrics = array_field(w, "metrics")?
                    .iter()
                    .map(|m| {
                        let better = str_field(m, "better")?;
                        Ok(Metric {
                            name: str_field(m, "name")?.to_string(),
                            unit: str_field(m, "unit")?.to_string(),
                            better: Better::parse(better)
                                .ok_or_else(|| format!("unknown direction '{better}'"))?,
                            value: f64_field(m, "value")?,
                            samples: number_list(m, "samples")?,
                        })
                    })
                    .collect::<Result<_, String>>()?;
                Ok(WorkloadResult {
                    name: str_field(w, "name")?.to_string(),
                    attempted: u64_field(w, "attempted")?,
                    failed: u64_field(w, "failed")?,
                    failures: string_list(w, "failures")?,
                    fingerprint: str_field(w, "fingerprint")?.to_string(),
                    metrics,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Record {
            git_rev: str_field(&v, "git_rev")?.to_string(),
            date: str_field(&v, "date")?.to_string(),
            nproc: u64_field(host, "nproc")?,
            cpu_model: str_field(host, "cpu_model")?.to_string(),
            seed: u64_field(&v, "seed")?,
            rounds: u64_field(&v, "rounds")?,
            trace: matches!(field(&v, "trace")?, Value::Bool(true)),
            workloads,
        })
    }
}

/// The final stdout line the benchmark prints: whether every pass was
/// correct, how many ran and failed, and each listed metric's value with
/// its unit. Keys carry a `workload/` prefix when several workloads ran.
pub fn result_line(results: &[WorkloadResult], listed: &[String]) -> String {
    let attempted: u64 = results.iter().map(|w| w.attempted).sum();
    let failed: u64 = results.iter().map(|w| w.failed).sum();
    let several = results.len() > 1;
    let metrics: Vec<String> = results
        .iter()
        .flat_map(|w| {
            w.metrics
                .iter()
                .filter(|m| !m.samples.is_empty() && listed.contains(&m.name))
                .map(move |m| {
                    let key = if several {
                        format!("{}/{}", w.name, m.name)
                    } else {
                        m.name.clone()
                    };
                    format!(
                        "{}:{{\"value\":{},\"unit\":{}}}",
                        string(&key),
                        number(m.value),
                        string(&m.unit)
                    )
                })
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> WorkloadResult {
        WorkloadResult {
            name: "flash-day".to_string(),
            attempted: 3,
            failed: 1,
            failures: vec!["pass 2: \"odd\" \\ result\nline two".to_string()],
            fingerprint: "1 / 2.00 s".to_string(),
            metrics: vec![
                Metric {
                    name: "run_s".to_string(),
                    unit: "s".to_string(),
                    better: Better::Lower,
                    value: 4.09,
                    samples: vec![4.13, 4.29, 0.1 + 0.2],
                },
                Metric {
                    name: "cache.hit_ratio".to_string(),
                    unit: "ratio".to_string(),
                    better: Better::Higher,
                    value: 0.125,
                    samples: vec![0.125],
                },
            ],
        }
    }

    #[test]
    fn record_round_trips_through_the_json_reader() {
        let record = Record {
            git_rev: "unknown".to_string(),
            date: "2026-01-02T03:04:05Z".to_string(),
            nproc: 2,
            cpu_model: "Test CPU @ 1.00GHz".to_string(),
            seed: 2022,
            rounds: 3,
            trace: false,
            workloads: vec![sample_result()],
        };
        let text = record.to_json();
        assert_eq!(Record::from_json(&text).expect("parses"), record);
    }

    #[test]
    fn pass_and_trace_reports_round_trip() {
        let pass = PassReport {
            setup_s: 1.25e-6,
            wall_s: 1.625,
            cpu_s: 1.61,
            host_speed: 0.875,
            peak_rss_mb: 9.5,
            fingerprint: "micro 5.7 J".to_string(),
            violations: vec![],
        };
        assert_eq!(PassReport::from_json(&pass.to_json()), Ok(pass));
        let trace = TraceReport {
            metrics: vec![("queue.inflight_mean".to_string(), 12.5)],
            violations: vec!["x".to_string()],
            spans: vec![Span {
                id: 1,
                parent: 0,
                name: "paper-closed".to_string(),
                start_us: 0.5,
                dur_us: 100.25,
            }],
        };
        assert_eq!(TraceReport::from_json(&trace.to_json()), Ok(trace));
    }

    #[test]
    fn result_line_names_every_metric_with_its_unit() {
        let line = result_line(&[sample_result()], &["run_s".to_string()]);
        let v = json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(field(&v, "correct"), Ok(&Value::Bool(false)));
        let metrics = field(&v, "metrics").unwrap();
        let run = field(metrics, "run_s").unwrap();
        assert_eq!(str_field(run, "unit"), Ok("s"));
        assert_eq!(f64_field(run, "value"), Ok(4.09));
        assert!(
            field(metrics, "cache.hit_ratio").is_err(),
            "only listed metrics"
        );
    }
}
