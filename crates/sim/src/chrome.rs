//! Chrome trace-event JSON export of a derived [`SpanTree`], loadable
//! directly in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`, plus a validator that reads the emitted document
//! back through [`crate::json`] and checks the trace-event schema.
//!
//! Layout: two process tracks per cluster. Process 0 holds the worker
//! lifecycle spans (one thread per worker), process 1 holds the job
//! spans (wait + service slices on the serving worker's thread). Spans
//! are `"ph":"X"` complete events with microsecond `ts`/`dur`; faults
//! and wake requests are `"ph":"i"` instant events; track names ride on
//! `"ph":"M"` metadata events.
//!
//! The export is canonical: events are ordered (metadata, lifecycle by
//! worker and start, jobs by id, wakes, faults) and timestamps are
//! integers, so the same [`SpanTree`] always renders the same bytes —
//! the property the parity suite pins across `--jobs` settings and
//! seed reruns.
//!
//! # Examples
//!
//! ```
//! use microfaas_sim::chrome::{export_chrome_trace, validate_chrome_trace};
//! use microfaas_sim::span::SpanTree;
//! use microfaas_sim::trace::{TraceBuffer, TraceEvent, TraceSink};
//! use microfaas_sim::{SimDuration, SimTime};
//!
//! let mut t = TraceBuffer::new(16);
//! t.record(SimTime::ZERO, TraceEvent::JobEnqueued { job: 1, function: "CascSHA" });
//! t.record(
//!     SimTime::from_micros(10),
//!     TraceEvent::JobStarted { job: 1, function: "CascSHA", worker: 0 },
//! );
//! t.record(
//!     SimTime::from_micros(40),
//!     TraceEvent::JobCompleted {
//!         job: 1,
//!         function: "CascSHA",
//!         worker: 0,
//!         exec: SimDuration::from_micros(25),
//!         overhead: SimDuration::from_micros(5),
//!     },
//! );
//! let json = export_chrome_trace(&SpanTree::from_buffer(&t), "micro");
//! let summary = validate_chrome_trace(&json).expect("schema-valid");
//! assert_eq!(summary.complete, 2); // wait + service slice
//! ```

use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::span::{Phase, SpanTree};
use crate::telemetry::CounterTrack;

/// Renders `tree` as a Chrome trace-event JSON document.
///
/// `label` names the cluster (`"micro"`, `"conventional"`) in the
/// process tracks so two clusters can be told apart side by side.
pub fn export_chrome_trace(tree: &SpanTree, label: &str) -> String {
    let mut out = String::with_capacity(256 + tree.jobs().len() * 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;

    // Process + thread name metadata.
    meta_process(&mut out, &mut first, 0, &format!("{label} workers"));
    meta_process(&mut out, &mut first, 1, &format!("{label} jobs"));
    for w in 0..tree.worker_count() {
        meta_thread(&mut out, &mut first, 0, w, &format!("worker {w}"));
        meta_thread(&mut out, &mut first, 1, w, &format!("jobs@worker {w}"));
    }

    // Worker lifecycle tracks.
    for span in tree.lifecycle() {
        event_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\"cat\":\"lifecycle\",\
             \"ts\":{},\"dur\":{}}}",
            span.worker,
            span.state.label(),
            span.start.as_micros(),
            span.end.duration_since(span.start).as_micros()
        );
    }

    // Job spans: a wait slice (queue + boot) and a service slice
    // (exec + overhead + response), cross-linked by job id.
    for span in tree.jobs() {
        let wait = span.started.duration_since(span.enqueued).as_micros();
        if wait > 0 {
            event_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"wait {} #{}\",\"cat\":\"wait\",\
                 \"ts\":{},\"dur\":{},\"args\":{{\"job\":{},\"queue_us\":{},\"boot_us\":{}}}}}",
                span.worker,
                escape_json(span.function),
                span.job,
                span.enqueued.as_micros(),
                wait,
                span.job,
                span.phase(Phase::Queue).as_micros(),
                span.phase(Phase::Boot).as_micros()
            );
        }
        event_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{} #{}\",\"cat\":\"job\",\
             \"ts\":{},\"dur\":{},\"args\":{{\"job\":{},\"exec_us\":{},\"overhead_us\":{},\
             \"response_us\":{}}}}}",
            span.worker,
            escape_json(span.function),
            span.job,
            span.started.as_micros(),
            span.completed.duration_since(span.started).as_micros(),
            span.job,
            span.phase(Phase::Exec).as_micros(),
            span.phase(Phase::Overhead).as_micros(),
            span.phase(Phase::Response).as_micros()
        );
    }

    // Instant marks: wake requests, then faults, both in trace order.
    for wake in tree.wakes() {
        event_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"name\":\"wake:{}\",\"s\":\"t\",\"ts\":{}}}",
            wake.worker,
            escape_json(wake.reason),
            wake.at.as_micros()
        );
    }
    for fault in tree.faults() {
        event_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"name\":\"fault:{}\",\"s\":\"t\",\"ts\":{}}}",
            fault.worker,
            escape_json(fault.fault),
            fault.at.as_micros()
        );
    }

    out.push_str("\n]}\n");
    out
}

/// Renders telemetry counter tracks as a Chrome trace-event JSON
/// document of `"ph":"C"` counter events, which Perfetto draws as
/// step-line counter tracks alongside span slices.
///
/// Each [`CounterTrack`] becomes one named counter on process 2
/// (processes 0 and 1 are the worker and job tracks of
/// [`export_chrome_trace`], so a merged view keeps all three apart);
/// each `(instant, value)` point becomes one event. The export is
/// canonical — tracks in input order, points in time order, integer
/// timestamps — so the same series always renders the same bytes.
///
/// # Examples
///
/// ```
/// use microfaas_sim::chrome::{export_counter_trace, validate_chrome_trace};
/// use microfaas_sim::telemetry::CounterTrack;
/// use microfaas_sim::SimTime;
///
/// let track = CounterTrack {
///     name: "power_w".to_owned(),
///     points: vec![(SimTime::ZERO, 2.5), (SimTime::from_secs(1), 4.0)],
/// };
/// let json = export_counter_trace(&[track], "micro");
/// let summary = validate_chrome_trace(&json).expect("schema-valid");
/// assert_eq!(summary.counter, 2);
/// ```
pub fn export_counter_trace(tracks: &[CounterTrack], label: &str) -> String {
    let points: usize = tracks.iter().map(|t| t.points.len()).sum();
    let mut out = String::with_capacity(256 + points * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    meta_process(&mut out, &mut first, 2, &format!("{label} telemetry"));
    for track in tracks {
        let name = escape_json(&track.name);
        for &(at, value) in &track.points {
            event_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"C\",\"pid\":2,\"tid\":0,\"name\":\"{name}\",\"ts\":{},\
                 \"args\":{{\"value\":{}}}}}",
                at.as_micros(),
                json_number(value)
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Formats a counter value as a JSON number. `f64` `Display` is already
/// JSON-compatible for finite values; non-finite values (which JSON
/// cannot carry) clamp to 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn event_sep(out: &mut String, first: &mut bool) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
}

fn meta_process(out: &mut String, first: &mut bool, pid: usize, name: &str) {
    event_sep(out, first);
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape_json(name)
    );
}

fn meta_thread(out: &mut String, first: &mut bool, pid: usize, tid: usize, name: &str) {
    event_sep(out, first);
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape_json(name)
    );
}

fn escape_json(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Event tallies from a validated Chrome trace document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChromeSummary {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// `"ph":"X"` complete (span) events.
    pub complete: usize,
    /// `"ph":"i"` instant events.
    pub instant: usize,
    /// `"ph":"C"` counter events.
    pub counter: usize,
    /// `"ph":"M"` metadata events.
    pub metadata: usize,
}

/// Round-trips an exported document through [`json::parse`] and checks
/// the Chrome trace-event schema: a top-level `traceEvents` array whose
/// members carry `ph`/`pid`/`tid`, with `ts` plus `dur` on `X` spans,
/// `ts` plus `s` on `i` instants, `ts` plus a non-empty all-numeric
/// `args` object on `C` counters, and `name` on every event.
///
/// # Errors
///
/// Returns a description of the first schema violation (or parse
/// error) found.
pub fn validate_chrome_trace(input: &str) -> Result<ChromeSummary, String> {
    let doc = json::parse(input)?;
    let events = member(&doc, "traceEvents")
        .ok_or("missing 'traceEvents'")?
        .as_array()
        .ok_or("'traceEvents' is not an array")?;
    let mut summary = ChromeSummary {
        events: events.len(),
        ..ChromeSummary::default()
    };
    for (i, event) in events.iter().enumerate() {
        let ph = member(event, "ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing 'ph'"))?;
        member(event, "name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing 'name'"))?;
        for field in ["pid", "tid"] {
            member(event, field)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("event {i}: missing '{field}'"))?;
        }
        match ph {
            "X" => {
                for field in ["ts", "dur"] {
                    let v = member(event, field)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("event {i}: X without '{field}'"))?;
                    if v < 0.0 {
                        return Err(format!("event {i}: negative '{field}'"));
                    }
                }
                summary.complete += 1;
            }
            "i" => {
                member(event, "ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: i without 'ts'"))?;
                member(event, "s")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {i}: i without 's'"))?;
                summary.instant += 1;
            }
            "C" => {
                let ts = member(event, "ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: C without 'ts'"))?;
                if ts < 0.0 {
                    return Err(format!("event {i}: negative 'ts'"));
                }
                let args =
                    member(event, "args").ok_or_else(|| format!("event {i}: C without 'args'"))?;
                let series = match args {
                    Value::Object(members) if !members.is_empty() => members,
                    _ => {
                        return Err(format!(
                            "event {i}: counter 'args' must be a non-empty object"
                        ))
                    }
                };
                for (key, value) in series {
                    value.as_f64().filter(|v| v.is_finite()).ok_or_else(|| {
                        format!("event {i}: counter series '{key}' is not a finite number")
                    })?;
                }
                summary.counter += 1;
            }
            "M" => summary.metadata += 1,
            other => return Err(format!("event {i}: unsupported ph '{other}'")),
        }
    }
    Ok(summary)
}

/// Member `key` of a JSON object (the first, if repeated).
fn member<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    let entries = value.as_object()?;
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};
    use crate::trace::{TraceBuffer, TraceEvent, TraceSink, WorkerState};

    fn sample_tree() -> SpanTree {
        let mut t = TraceBuffer::new(64);
        let us = SimTime::from_micros;
        t.record(
            us(0),
            TraceEvent::JobEnqueued {
                job: 1,
                function: "CascSHA",
            },
        );
        t.record(
            us(0),
            TraceEvent::WakeRequested {
                worker: 0,
                reason: "dispatch",
            },
        );
        t.record(
            us(5),
            TraceEvent::WorkerStateChange {
                worker: 0,
                state: WorkerState::Booting,
            },
        );
        t.record(
            us(50),
            TraceEvent::WorkerStateChange {
                worker: 0,
                state: WorkerState::Executing,
            },
        );
        t.record(
            us(50),
            TraceEvent::JobStarted {
                job: 1,
                function: "CascSHA",
                worker: 0,
            },
        );
        t.record(
            us(80),
            TraceEvent::ResponseSent {
                job: 1,
                function: "CascSHA",
                worker: 0,
            },
        );
        t.record(
            us(90),
            TraceEvent::FaultInjected {
                worker: 0,
                fault: "net_loss",
            },
        );
        t.record(
            us(95),
            TraceEvent::JobCompleted {
                job: 1,
                function: "CascSHA",
                worker: 0,
                exec: SimDuration::from_micros(25),
                overhead: SimDuration::from_micros(20),
            },
        );
        SpanTree::from_buffer(&t)
    }

    #[test]
    fn export_is_schema_valid_and_deterministic() {
        let tree = sample_tree();
        let a = export_chrome_trace(&tree, "micro");
        let b = export_chrome_trace(&tree, "micro");
        assert_eq!(a, b, "same tree must render identical bytes");
        let summary = validate_chrome_trace(&a).expect("valid document");
        // 2 process + 2 thread metadata, 2 lifecycle + 2 job slices,
        // 1 wake + 1 fault instant.
        assert_eq!(summary.metadata, 4);
        assert_eq!(summary.complete, 4);
        assert_eq!(summary.instant, 2);
        assert_eq!(summary.events, 10);
        assert!(a.contains("\"name\":\"wake:dispatch\""), "{a}");
        assert!(a.contains("\"name\":\"fault:net_loss\""), "{a}");
        assert!(a.contains("\"name\":\"CascSHA #1\""), "{a}");
    }

    #[test]
    fn validator_flags_schema_violations() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": 3}").is_err());
        let missing_dur =
            "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"x\",\"ts\":1}]}";
        let e = validate_chrome_trace(missing_dur).unwrap_err();
        assert!(e.contains("without 'dur'"), "{e}");
    }

    #[test]
    fn counter_export_round_trips() {
        let tracks = [
            CounterTrack {
                name: "power_w".to_owned(),
                points: vec![
                    (SimTime::ZERO, 2.5),
                    (SimTime::from_secs(1), 4.0),
                    (SimTime::from_secs(2), 0.0),
                ],
            },
            CounterTrack {
                name: "queue_depth".to_owned(),
                points: vec![(SimTime::ZERO, 17.0)],
            },
        ];
        let a = export_counter_trace(&tracks, "micro");
        let b = export_counter_trace(&tracks, "micro");
        assert_eq!(a, b, "same tracks must render identical bytes");
        let summary = validate_chrome_trace(&a).expect("valid document");
        assert_eq!(summary.counter, 4);
        assert_eq!(summary.metadata, 1);
        assert_eq!(summary.events, 5);
        assert!(a.contains("\"name\":\"power_w\""), "{a}");
        assert!(a.contains("\"args\":{\"value\":2.5}"), "{a}");
        // Non-finite values must clamp to a valid JSON number.
        let weird = [CounterTrack {
            name: "nan".to_owned(),
            points: vec![(SimTime::ZERO, f64::NAN)],
        }];
        let json = export_counter_trace(&weird, "micro");
        validate_chrome_trace(&json).expect("clamped NaN stays valid");
        assert!(json.contains("\"args\":{\"value\":0}"), "{json}");
    }

    #[test]
    fn validator_rejects_malformed_counters() {
        let wrap = |event: &str| format!("{{\"traceEvents\":[{event}]}}");
        let no_ts =
            wrap("{\"ph\":\"C\",\"pid\":2,\"tid\":0,\"name\":\"x\",\"args\":{\"value\":1}}");
        let e = validate_chrome_trace(&no_ts).unwrap_err();
        assert!(e.contains("C without 'ts'"), "{e}");
        let negative_ts = wrap(
            "{\"ph\":\"C\",\"pid\":2,\"tid\":0,\"name\":\"x\",\"ts\":-1,\"args\":{\"value\":1}}",
        );
        let e = validate_chrome_trace(&negative_ts).unwrap_err();
        assert!(e.contains("negative 'ts'"), "{e}");
        let no_args = wrap("{\"ph\":\"C\",\"pid\":2,\"tid\":0,\"name\":\"x\",\"ts\":1}");
        let e = validate_chrome_trace(&no_args).unwrap_err();
        assert!(e.contains("C without 'args'"), "{e}");
        let empty_args =
            wrap("{\"ph\":\"C\",\"pid\":2,\"tid\":0,\"name\":\"x\",\"ts\":1,\"args\":{}}");
        let e = validate_chrome_trace(&empty_args).unwrap_err();
        assert!(e.contains("non-empty object"), "{e}");
        let string_value = wrap(
            "{\"ph\":\"C\",\"pid\":2,\"tid\":0,\"name\":\"x\",\"ts\":1,\"args\":{\"v\":\"hi\"}}",
        );
        let e = validate_chrome_trace(&string_value).unwrap_err();
        assert!(e.contains("series 'v' is not a finite number"), "{e}");
    }

    #[test]
    fn every_control_character_in_a_name_round_trips() {
        let label: String = (0..0x20u8).map(char::from).chain("\"\\é".chars()).collect();
        let exported = export_chrome_trace(&sample_tree(), &label);
        validate_chrome_trace(&exported).expect("escaped label stays valid");
        let doc = json::parse(&exported).expect("the exporter writes JSON the reader reads");
        let events = member(&doc, "traceEvents")
            .and_then(Value::as_array)
            .unwrap();
        let named = events.iter().filter_map(|e| member(e, "args")?.as_object());
        let names: Vec<&str> = named
            .flat_map(|args| args.iter().filter_map(|(_, v)| v.as_str()))
            .collect();
        assert!(names.iter().any(|name| name.contains(&*label)), "{names:?}");
    }

    #[test]
    fn names_are_escaped() {
        let tree = sample_tree();
        let json = export_chrome_trace(&tree, "quote\"back\\slash");
        validate_chrome_trace(&json).expect("escaped label stays valid");
    }
}
