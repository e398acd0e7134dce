//! The engine-side flight recorder: glue between the open-loop engine
//! and the [`microfaas_sim::telemetry`] tumbling windows.
//!
//! The telemetry subsystem needs two taps into a run — the trace-event
//! stream (power samples, worker state changes, queue movements) and
//! the completion stream (latencies, tenants, cache hits). The engine
//! exposes those through two different seams: an [`Observer`] over
//! [`TraceSink`] for events, and a [`RunSink`] for completions. A
//! [`FlightRecorder`] owns one window ring for each and hands out both
//! taps simultaneously via a split borrow, so a single recorder can sit
//! on both seams of one run without aliasing:
//!
//! ```
//! use microfaas::monitor::FlightRecorder;
//! use microfaas::openloop::{run_open_loop_monitored, OpenLoopConfig};
//! use microfaas_sim::telemetry::TelemetryConfig;
//! use microfaas_sim::SimDuration;
//!
//! let config = OpenLoopConfig::paper_arrangement(2, SimDuration::from_secs(30), 42);
//! let (run, series) = run_open_loop_monitored(&config, &TelemetryConfig::default());
//! assert_eq!(series.total_completed(), run.completed);
//! ```
//!
//! Telemetry is strictly an observer: it consumes no RNG draws and
//! perturbs nothing, so a monitored run agrees bit-for-bit with the
//! unmonitored run on the same config. See `docs/MONITORING.md`.

use microfaas_sim::telemetry::{
    CompletionWindows, EventWindows, TelemetryConfig, TelemetrySeries, TenantSpec,
};
use microfaas_sim::SimTime;

use crate::arrivals::TenantClass;
use crate::openloop::{Completion, RunSink};

#[cfg(doc)]
use microfaas_sim::trace::{Observer, TraceSink};

/// Both telemetry taps for one run: an [`EventWindows`] to hand the
/// engine's [`Observer`] and a [`CompletionTap`] to hand its streaming
/// sink seam. After the run, [`FlightRecorder::into_series`] seals the
/// integrals at the run's end instant and assembles the joined
/// [`TelemetrySeries`].
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    events: EventWindows,
    completions: CompletionWindows,
}

impl FlightRecorder {
    /// Creates a recorder for a run over `tenants` (the run config's
    /// tenant classes, in order — index must match the engine's tenant
    /// indices). An empty slice records a single catch-all `all` tenant
    /// with an infinite SLO.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (zero window width, zero window
    /// cap, or an out-of-range quantile epsilon).
    pub fn new(config: &TelemetryConfig, tenants: &[TenantClass]) -> Self {
        let specs = tenants
            .iter()
            .map(|t| TenantSpec {
                name: t.name.clone(),
                slo_latency_s: t.slo_latency_s,
            })
            .collect();
        FlightRecorder {
            events: EventWindows::new(config),
            completions: CompletionWindows::new(config, specs),
        }
    }

    /// Splits the recorder into its two engine-facing taps. The borrows
    /// are disjoint, so the event tap can live inside an
    /// [`Observer::tracing`] while the completion tap rides the run's
    /// sink parameter.
    pub fn taps(&mut self) -> (&mut EventWindows, CompletionTap<'_>) {
        let FlightRecorder {
            events,
            completions,
        } = self;
        (events, CompletionTap(completions))
    }

    /// Seals the time integrals at the run's true end instant and joins
    /// both window rings into one [`TelemetrySeries`].
    pub fn into_series(mut self, end: SimTime) -> TelemetrySeries {
        self.events.seal(end);
        TelemetrySeries::assemble(end, self.events, self.completions)
    }
}

/// The completion-stream half of a [`FlightRecorder`]: a [`RunSink`]
/// that folds every [`Completion`] into the recorder's windows.
/// Zero-exec completions (result-cache hits and coalesced followers)
/// are counted as served-from-cache.
#[derive(Debug)]
pub struct CompletionTap<'a>(&'a mut CompletionWindows);

impl RunSink for CompletionTap<'_> {
    #[inline]
    fn on_completion(&mut self, c: &Completion) {
        self.0
            .record(c.finished, c.latency_s(), c.tenant, c.exec.is_zero());
    }
}
