//! # microfaas-sim
//!
//! Deterministic discrete-event simulation kernel used by every model in
//! the MicroFaaS reproduction.
//!
//! The crate provides four small building blocks:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated time;
//! * [`EventQueue`] — a deterministic event queue (a flat list while at
//!   most 32 events are pending, then a hierarchical timing wheel with a
//!   far-future overflow heap) with O(1) amortized schedule/pop/cancel,
//!   FIFO tie-breaking, and cancellation — see `docs/SCALING.md`;
//! * [`Rng`] / [`SplitMix64`] — reproducible pseudo-random generators
//!   implemented in-crate so the stream can never change underneath us;
//! * [`OnlineStats`], [`Samples`], [`QuantileSketch`], [`TimeWeighted`] —
//!   measurement helpers, including the time-weighted integrator that
//!   turns power (watts) into energy (joules) and the relative-error
//!   quantile sketch behind the streaming results path.
//!
//! Two observability modules ride on top of the kernel (see
//! `docs/OBSERVABILITY.md` at the repository root):
//!
//! * [`trace`] — typed [`TraceEvent`]s recorded through an [`Observer`]
//!   into a ring-buffer [`TraceBuffer`], exported as JSON lines;
//! * [`metrics`] — a [`MetricsRegistry`] of named counters, gauges, and
//!   fixed-bucket histograms with Prometheus text exposition;
//! * [`telemetry`] — a [`FlightRecorder`] folding the trace and
//!   completion streams into time-resolved tumbling windows
//!   ([`TelemetrySeries`]) with SLO burn-rate and EWMA anomaly alerting
//!   (see `docs/MONITORING.md`).
//!
//! Two causal-analysis modules derive structure from the trace (see
//! `docs/TRACING.md`):
//!
//! * [`span`] — a deterministic [`SpanTree`] deriver reconstructing
//!   per-job causal spans (queue → boot → exec → overhead → response)
//!   and worker lifecycle spans, plus a [`CriticalPath`] analyzer that
//!   attributes end-to-end latency to phases;
//! * [`chrome`] — a Chrome trace-event JSON exporter (loads in
//!   Perfetto / `chrome://tracing`) with a dependency-free JSON parser
//!   for round-trip validation.
//!
//! And one fault-injection module (see `docs/FAILURE_MODEL.md`):
//!
//! * [`faults`] — seeded [`FaultPlan`]s (node crashes, boot failures,
//!   hangs, transfer losses) drawn through a [`FaultInjector`] whose
//!   private RNG stream keeps fault-free runs bit-identical.
//!
//! The [`json`] module is the shared dependency-free recursive-descent
//! JSON parser behind every spec file (fault plans, workload
//! scenarios).
//!
//! Finally, [`exec`] is the parallel deterministic experiment engine
//! (see `docs/PERFORMANCE.md`): it fans independent runs — sweep
//! points, seed replicates, fault scenarios — across threads with a
//! [`Jobs`] knob while gathering results in canonical submission order,
//! so parallel output is bit-identical to the serial path.
//!
//! # Examples
//!
//! A tiny simulation — a Poisson arrival process counted over one minute:
//!
//! ```
//! use microfaas_sim::{EventQueue, Rng, SimDuration, SimTime};
//!
//! let mut queue = EventQueue::new();
//! let mut rng = Rng::new(42);
//! let horizon = SimTime::from_secs(60);
//!
//! queue.schedule(SimTime::ZERO, "arrival");
//! let mut count = 0;
//! while let Some((now, _event)) = queue.pop() {
//!     if now >= horizon {
//!         break;
//!     }
//!     count += 1;
//!     let gap = SimDuration::from_secs_f64(rng.exponential(1.0));
//!     queue.schedule(now + gap, "arrival");
//! }
//! assert!(count > 30 && count < 100, "~60 arrivals expected, got {count}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod exec;
pub mod faults;
pub mod json;
pub mod metrics;
pub mod queue;
mod rng;
pub mod span;
mod stats;
pub mod telemetry;
mod time;
pub mod trace;

pub use chrome::{export_chrome_trace, export_counter_trace, validate_chrome_trace, ChromeSummary};
pub use exec::{par_map, par_map_indexed, Jobs};
pub use faults::{FaultInjector, FaultKind, FaultPlan, FaultPlanError, FaultSpec, FaultTrigger};
pub use metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry};
pub use queue::{EventId, EventQueue};
pub use rng::{CdfTable, Rng, SplitMix64};
pub use span::{CriticalPath, JobSpan, LifecycleSpan, Phase, PhaseStats, SpanTree};
pub use stats::{OnlineStats, QuantileSketch, Samples, TimeWeighted};
pub use telemetry::{
    evaluate_alerts, Alert, AlertPolicy, AlertSeverity, AlertSignal, CounterTrack, FlightRecorder,
    TelemetryConfig, TelemetrySeries, TelemetryWindow, TenantSpec, TenantWindow,
};
pub use time::{SimDuration, SimTime};
pub use trace::{Endpoint, Observer, TraceBuffer, TraceEvent, TraceRecord, TraceSink, WorkerState};
