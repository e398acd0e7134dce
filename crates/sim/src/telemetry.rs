//! Time-resolved telemetry: tumbling windows over simulated time, SLO
//! burn-rate alerting, and EWMA anomaly detection.
//!
//! The streaming results path collapses a whole run into end-of-run
//! aggregates; this module keeps the *when*. One [`FlightRecorder`]
//! folds the run into fixed-width tumbling windows with bounded memory.
//! Each window holds both halves of the run's story:
//!
//! - the trace stream, which reaches the recorder as a [`TraceSink`]:
//!   piecewise-constant signals (power draw, executing / booting worker
//!   counts, outstanding queue depth) are integrated exactly across
//!   window boundaries, and discrete events (faults, retries, shed
//!   jobs, budget breaches, cache traffic) are counted into the window
//!   they occurred in;
//! - per-job completions (throughput, latency quantiles via
//!   [`QuantileSketch`], per-tenant SLO hits), which reach it through
//!   [`TraceObserver::on_completion`].
//!
//! Only the *last* `max_windows` windows are kept (the
//! [`crate::trace::TraceBuffer`] flight-recorder discipline), so a
//! multi-day horizon cannot exhaust memory. [`FlightRecorder::finish`]
//! seals the ring into one immutable [`TelemetrySeries`] that renders
//! as CSV, Prometheus gauges, or Perfetto counter tracks
//! ([`crate::chrome::export_counter_trace`]).
//!
//! On top of the windows, [`evaluate_alerts`] runs Google-SRE-style
//! multi-window burn-rate rules against each tenant's SLO error budget,
//! an EWMA z-score anomaly detector on latency and power, and an
//! energy-budget breach monitor — emitting typed, deterministic
//! [`Alert`] records. Everything here is a pure fold over the event
//! stream: same seed, same windows, same alerts, byte for byte. See
//! `docs/MONITORING.md` for the handbook.

use std::collections::VecDeque;
use std::fmt;

use crate::metrics::MetricsRegistry;
use crate::stats::QuantileSketch;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceObserver, TraceSink, WorkerState};

/// Default tumbling-window width: 1 simulated second.
const DEFAULT_WINDOW: SimDuration = SimDuration::from_secs(1);

/// Default flight-recorder depth: enough for an hour of 1 s windows.
const DEFAULT_MAX_WINDOWS: usize = 4096;

/// Relative error of the per-window latency quantile sketches.
const QUANTILE_EPSILON: f64 = 0.01;

/// Configuration for the flight recorder.
///
/// # Examples
///
/// ```
/// use microfaas_sim::telemetry::TelemetryConfig;
/// use microfaas_sim::SimDuration;
///
/// let config = TelemetryConfig {
///     window: SimDuration::from_secs(5),
///     ..TelemetryConfig::default()
/// };
/// assert_eq!(config.window.as_secs_f64(), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Tumbling-window width in simulated time.
    pub window: SimDuration,
    /// Maximum windows retained; older windows are evicted (and
    /// counted) flight-recorder style.
    pub max_windows: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            window: DEFAULT_WINDOW,
            max_windows: DEFAULT_MAX_WINDOWS,
        }
    }
}

impl TelemetryConfig {
    /// Checks the configuration [`FlightRecorder::new`] panics on.
    ///
    /// # Errors
    ///
    /// Describes the first problem: a zero-width window (a width under
    /// 1 µs rounds to zero) or no retained windows.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.window.is_zero() {
            return Err("telemetry window must be non-zero".to_string());
        }
        if self.max_windows == 0 {
            return Err("must retain at least one window".to_string());
        }
        Ok(())
    }
}

/// One tenant's identity and latency SLO, as seen by the telemetry
/// layer. An infinite SLO means "never violated" (no burn-rate alerts).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name (matches the run's tenant table order).
    pub name: String,
    /// Latency SLO threshold in seconds; a completion at or under it
    /// counts as an SLO hit.
    pub slo_latency_s: f64,
}

/// One window's trace integrals and counters plus its completion
/// statistics.
#[derive(Debug, Clone)]
struct WindowAcc {
    energy_j: f64,
    exec_worker_s: f64,
    boot_worker_s: f64,
    depth_job_s: f64,
    faults: u64,
    retries: u64,
    shed: u64,
    budget_breaches: u64,
    cache_hits: u64,
    cache_misses: u64,
    coalesced: u64,
    completed: u64,
    served_from_cache: u64,
    latency_sum: f64,
    latency_max: f64,
    sketch: QuantileSketch,
    tenant_completed: Vec<u64>,
    tenant_slo_hits: Vec<u64>,
}

impl WindowAcc {
    fn new(tenants: usize) -> Self {
        WindowAcc {
            energy_j: 0.0,
            exec_worker_s: 0.0,
            boot_worker_s: 0.0,
            depth_job_s: 0.0,
            faults: 0,
            retries: 0,
            shed: 0,
            budget_breaches: 0,
            cache_hits: 0,
            cache_misses: 0,
            coalesced: 0,
            completed: 0,
            served_from_cache: 0,
            latency_sum: 0.0,
            latency_max: 0.0,
            sketch: QuantileSketch::with_relative_error(QUANTILE_EPSILON),
            tenant_completed: vec![0; tenants],
            tenant_slo_hits: vec![0; tenants],
        }
    }
}

/// The flight recorder: one ring of tumbling windows fed by a run's
/// trace stream ([`TraceSink`]) and its completions
/// ([`TraceObserver::on_completion`]).
///
/// Continuous signals (total power draw, executing/booting worker
/// counts, outstanding queue depth) are integrated against simulated
/// time, split exactly at window boundaries — a job that executes from
/// 0.8 s to 1.3 s contributes 0.2 worker-seconds to window 0 and 0.3 to
/// window 1. Discrete events are counted into the window containing
/// their timestamp. A completion first advances the integration to its
/// instant, then lands in the newest window. Memory is bounded: only
/// the last [`TelemetryConfig::max_windows`] windows survive.
///
/// As a [`TraceObserver`] the recorder is an engine's whole observer:
/// the engine monomorphizes over it and inlines [`TraceSink::record`]
/// at every emission site, so each site's statically-known event
/// variant collapses the match to its one arm — events the windows
/// ignore (~40% of the stream) cost nothing at all.
///
/// # Examples
///
/// ```
/// use microfaas_sim::telemetry::{FlightRecorder, TelemetryConfig};
/// use microfaas_sim::trace::{TraceEvent, TraceObserver, TraceSink};
/// use microfaas_sim::SimTime;
///
/// let mut recorder = FlightRecorder::new(&TelemetryConfig::default(), Vec::new());
/// recorder.record(
///     SimTime::from_millis(250),
///     TraceEvent::PowerSample { worker: 0, watts: 4.0 },
/// );
/// recorder.on_completion(SimTime::from_millis(900), 0.65, 0, false);
/// let series = recorder.finish(SimTime::from_secs(2));
/// assert_eq!(series.windows.len(), 2);
/// assert_eq!(series.windows[0].completed, 1);
/// // The integral splits exactly at the window boundary: 4 W over the
/// // last 0.75 s of window 0, then 4 W across all of window 1.
/// assert!((series.windows[0].energy_j - 3.0).abs() < 1e-9);
/// assert!((series.windows[1].energy_j - 4.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    width_us: u64,
    limit: usize,
    /// Window index of `wins[0]`.
    base: u64,
    wins: VecDeque<WindowAcc>,
    dropped: u64,
    /// Integration frontier, in microseconds.
    cursor_us: u64,
    /// End instant of the newest window, cached so the per-event hot
    /// path needs no division or multiplication.
    boundary_us: u64,
    /// Integrals of the *open* window, kept as scalars so the hot path
    /// never reaches into the ring; flushed into the accumulator when
    /// the window closes (or when the recorder finishes).
    cur_energy_j: f64,
    cur_exec_worker_s: f64,
    cur_boot_worker_s: f64,
    cur_depth_job_s: f64,
    /// Per-worker draw and occupancy class, one cache line per pair of
    /// adjacent workers (state changes and power samples arrive
    /// back-to-back for the same worker, so the second touch is warm).
    cells: Vec<WorkerCell>,
    total_w: f64,
    executing: usize,
    booting: usize,
    /// Jobs enqueued but not yet completed, shed, or failed.
    outstanding: u64,
    tenants: Vec<TenantSpec>,
}

/// One worker's live telemetry state: current draw in watts plus the
/// occupancy class (0 = other, 1 = executing, 2 = booting).
#[derive(Debug, Clone, Copy, Default)]
struct WorkerCell {
    watts: f64,
    state: u8,
}

impl FlightRecorder {
    /// Creates the recorder; window 0 starts at `SimTime::ZERO`. An
    /// empty `tenants` table gets a single catch-all tenant named `all`
    /// with an infinite SLO.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see
    /// [`TelemetryConfig::try_validate`]).
    pub fn new(config: &TelemetryConfig, tenants: Vec<TenantSpec>) -> Self {
        if let Err(problem) = config.try_validate() {
            panic!("{problem}");
        }
        let tenants = if tenants.is_empty() {
            vec![TenantSpec {
                name: "all".to_owned(),
                slo_latency_s: f64::INFINITY,
            }]
        } else {
            tenants
        };
        let mut wins = VecDeque::with_capacity(16);
        wins.push_back(WindowAcc::new(tenants.len()));
        FlightRecorder {
            width_us: config.window.as_micros(),
            limit: config.max_windows,
            base: 0,
            wins,
            dropped: 0,
            cursor_us: 0,
            boundary_us: config.window.as_micros(),
            cur_energy_j: 0.0,
            cur_exec_worker_s: 0.0,
            cur_boot_worker_s: 0.0,
            cur_depth_job_s: 0.0,
            cells: Vec::new(),
            total_w: 0.0,
            executing: 0,
            booting: 0,
            outstanding: 0,
            tenants,
        }
    }

    /// Adds the open window's scalar integrals into its ring slot and
    /// zeroes them. Idempotent between events.
    fn flush_cur(&mut self) {
        let acc = self.wins.back_mut().expect("ring is never empty");
        acc.energy_j += self.cur_energy_j;
        acc.exec_worker_s += self.cur_exec_worker_s;
        acc.boot_worker_s += self.cur_boot_worker_s;
        acc.depth_job_s += self.cur_depth_job_s;
        self.cur_energy_j = 0.0;
        self.cur_exec_worker_s = 0.0;
        self.cur_boot_worker_s = 0.0;
        self.cur_depth_job_s = 0.0;
    }

    fn push_window(&mut self) {
        self.flush_cur();
        self.wins.push_back(WindowAcc::new(self.tenants.len()));
        self.boundary_us += self.width_us;
        if self.wins.len() > self.limit {
            self.wins.pop_front();
            self.base += 1;
            self.dropped += 1;
        }
    }

    /// Advances the integration frontier to `to_us`, splitting exactly
    /// at window boundaries.
    fn integrate_to(&mut self, to_us: u64) {
        while self.cursor_us < to_us {
            let seg_end = to_us.min(self.boundary_us);
            let dt_s = (seg_end - self.cursor_us) as f64 / 1e6;
            if dt_s > 0.0 {
                self.cur_energy_j += self.total_w * dt_s;
                self.cur_exec_worker_s += self.executing as f64 * dt_s;
                self.cur_boot_worker_s += self.booting as f64 * dt_s;
                self.cur_depth_job_s += self.outstanding as f64 * dt_s;
            }
            self.cursor_us = seg_end;
            if seg_end == self.boundary_us && self.cursor_us < to_us {
                self.push_window();
            }
        }
    }

    /// Integrates up to `at_us`, opening the window containing it
    /// (events arrive in time order, so that is always the newest
    /// window). The common cases — another event at the frontier
    /// instant, or a short in-window advance — take the early branches
    /// and never reach into the ring; only a boundary crossing walks
    /// the split loop.
    #[inline]
    fn advance(&mut self, at_us: u64) {
        if at_us >= self.boundary_us {
            self.integrate_to(at_us);
            // An event landing exactly on the final boundary belongs
            // to the next window, which the integration loop did not
            // need to open.
            while at_us >= self.boundary_us {
                self.push_window();
            }
        } else if at_us > self.cursor_us {
            let dt_s = (at_us - self.cursor_us) as f64 / 1e6;
            self.cur_energy_j += self.total_w * dt_s;
            self.cur_exec_worker_s += self.executing as f64 * dt_s;
            self.cur_boot_worker_s += self.booting as f64 * dt_s;
            self.cur_depth_job_s += self.outstanding as f64 * dt_s;
            self.cursor_us = at_us;
        }
    }

    /// [`Self::advance`], then the open window's accumulator — for the
    /// rare discrete-count events and for completions.
    fn touch(&mut self, at_us: u64) -> &mut WindowAcc {
        self.advance(at_us);
        self.wins.back_mut().expect("ring is never empty")
    }

    fn grow(&mut self, worker: usize) {
        if worker >= self.cells.len() {
            self.cells.resize(worker + 1, WorkerCell::default());
        }
    }

    /// Closes the integrals at the run's true end instant, so idle tail
    /// time (after the last event) is accounted, and renders the
    /// retained windows as one [`TelemetrySeries`].
    pub fn finish(mut self, end: SimTime) -> TelemetrySeries {
        let end_us = end.as_micros();
        if end_us > self.cursor_us {
            self.integrate_to(end_us);
        }
        self.flush_cur();
        let width_us = self.width_us;
        let tenants = self.tenants.len();
        let windows = (self.base..)
            .zip(&self.wins)
            .map(|(index, acc)| {
                let start_us = index * width_us;
                let close_us = ((index + 1) * width_us).min(end_us).max(start_us);
                let elapsed = SimDuration::from_micros(close_us - start_us);
                let covered_s = elapsed.as_secs_f64();
                let mean = if acc.completed > 0 {
                    acc.latency_sum / acc.completed as f64
                } else {
                    0.0
                };
                let q = |p: f64| acc.sketch.quantile(p).unwrap_or(0.0);
                let avg = |integral: f64| {
                    if covered_s > 0.0 {
                        integral / covered_s
                    } else {
                        0.0
                    }
                };
                TelemetryWindow {
                    index,
                    start: SimTime::from_micros(start_us),
                    elapsed,
                    completed: acc.completed,
                    served_from_cache: acc.served_from_cache,
                    mean_latency_s: mean,
                    p50_latency_s: q(50.0),
                    p95_latency_s: q(95.0),
                    p99_latency_s: q(99.0),
                    max_latency_s: acc.latency_max,
                    queue_depth: avg(acc.depth_job_s),
                    executing: avg(acc.exec_worker_s),
                    booting: avg(acc.boot_worker_s),
                    power_w: avg(acc.energy_j),
                    energy_j: acc.energy_j,
                    cache_hits: acc.cache_hits,
                    cache_misses: acc.cache_misses,
                    coalesced: acc.coalesced,
                    faults: acc.faults,
                    retries: acc.retries,
                    shed: acc.shed,
                    budget_breaches: acc.budget_breaches,
                    tenants: (0..tenants)
                        .map(|t| TenantWindow {
                            completed: acc.tenant_completed[t],
                            slo_hits: acc.tenant_slo_hits[t],
                        })
                        .collect(),
                }
            })
            .collect();
        TelemetrySeries {
            window: SimDuration::from_micros(width_us),
            end,
            dropped_windows: self.dropped,
            tenants: self.tenants,
            windows,
        }
    }
}

impl TraceSink for FlightRecorder {
    // Inline(always) so engines monomorphized over the recorder
    // collapse the match per emission site's statically-known variant.
    #[inline(always)]
    fn record(&mut self, at: SimTime, event: TraceEvent) {
        // Fast-exit for event kinds the windows ignore, before paying
        // for integration: this tap rides the hot event loop.
        match event {
            TraceEvent::PowerSample { worker, watts } => {
                self.advance(at.as_micros());
                self.grow(worker);
                let cell = &mut self.cells[worker];
                self.total_w += watts - cell.watts;
                cell.watts = watts;
            }
            TraceEvent::WorkerStateChange { worker, state } => {
                self.advance(at.as_micros());
                self.grow(worker);
                let class = match state {
                    WorkerState::Executing => 1,
                    WorkerState::Booting | WorkerState::Rebooting => 2,
                    _ => 0,
                };
                let old = self.cells[worker].state;
                if old != class {
                    match old {
                        1 => self.executing -= 1,
                        2 => self.booting -= 1,
                        _ => {}
                    }
                    match class {
                        1 => self.executing += 1,
                        2 => self.booting += 1,
                        _ => {}
                    }
                    self.cells[worker].state = class;
                }
            }
            TraceEvent::JobEnqueued { .. } => {
                self.advance(at.as_micros());
                self.outstanding += 1;
            }
            TraceEvent::JobCompleted { .. } => {
                self.advance(at.as_micros());
                self.outstanding = self.outstanding.saturating_sub(1);
            }
            TraceEvent::JobShed { .. } => {
                let acc = self.touch(at.as_micros());
                acc.shed += 1;
                self.outstanding = self.outstanding.saturating_sub(1);
            }
            TraceEvent::BudgetAction { action: "shed", .. } => {
                let acc = self.touch(at.as_micros());
                acc.shed += 1;
                self.outstanding = self.outstanding.saturating_sub(1);
            }
            TraceEvent::JobFailed { .. } | TraceEvent::JobTimedOut { .. } => {
                self.advance(at.as_micros());
                self.outstanding = self.outstanding.saturating_sub(1);
            }
            TraceEvent::FaultInjected { .. } => {
                self.touch(at.as_micros()).faults += 1;
            }
            TraceEvent::JobRetryScheduled { .. } => {
                self.touch(at.as_micros()).retries += 1;
            }
            TraceEvent::BudgetBreach { .. } => {
                self.touch(at.as_micros()).budget_breaches += 1;
            }
            TraceEvent::CacheHit { .. } => {
                self.touch(at.as_micros()).cache_hits += 1;
            }
            TraceEvent::CacheMiss { .. } => {
                self.touch(at.as_micros()).cache_misses += 1;
            }
            TraceEvent::Coalesced { .. } => {
                self.touch(at.as_micros()).coalesced += 1;
            }
            _ => {}
        }
    }
}

impl TraceObserver for FlightRecorder {
    #[inline(always)]
    fn emit(&mut self, at: SimTime, event: TraceEvent) {
        self.record(at, event);
    }

    #[inline]
    fn metrics(&mut self) -> Option<&mut MetricsRegistry> {
        None
    }

    /// Folds one completion into the newest window. `from_cache` marks
    /// invocations that never executed (result-cache hits and coalesced
    /// followers); a tenant index past the table lands on its last row.
    ///
    /// # Panics
    ///
    /// Panics if `latency_s` is negative or not finite.
    #[inline]
    fn on_completion(&mut self, finished: SimTime, latency_s: f64, tenant: u16, from_cache: bool) {
        let at_us = finished.as_micros();
        debug_assert!(
            at_us >= self.cursor_us,
            "completions must arrive in simulated-time order"
        );
        let tenant = (tenant as usize).min(self.tenants.len() - 1);
        let slo_hit = latency_s <= self.tenants[tenant].slo_latency_s;
        let acc = self.touch(at_us);
        acc.completed += 1;
        if from_cache {
            acc.served_from_cache += 1;
        }
        acc.latency_sum += latency_s;
        acc.latency_max = acc.latency_max.max(latency_s);
        acc.sketch.record(latency_s);
        acc.tenant_completed[tenant] += 1;
        if slo_hit {
            acc.tenant_slo_hits[tenant] += 1;
        }
    }
}

/// One tenant's completions within a single window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantWindow {
    /// Completions attributed to the tenant in this window.
    pub completed: u64,
    /// Of those, how many met the tenant's latency SLO.
    pub slo_hits: u64,
}

impl TenantWindow {
    /// Fraction of this window's completions that met the SLO. A
    /// zero-traffic window counts as full attainment (nothing violated).
    pub fn attainment(&self) -> f64 {
        if self.completed == 0 {
            1.0
        } else {
            self.slo_hits as f64 / self.completed as f64
        }
    }

    /// SLO violations in this window.
    fn errors(&self) -> u64 {
        self.completed - self.slo_hits
    }
}

/// One assembled tumbling window: every signal the telemetry layer
/// reports, already reduced to plain numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryWindow {
    /// Zero-based window index (global — stable across eviction).
    pub index: u64,
    /// Window start instant.
    pub start: SimTime,
    /// Covered span: the window width, except for the final partial
    /// window which ends at the run's end instant.
    pub elapsed: SimDuration,
    /// Jobs completed in the window.
    pub completed: u64,
    /// Completions served without executing (cache hits + coalesced).
    pub served_from_cache: u64,
    /// Mean end-to-end latency of the window's completions, seconds.
    pub mean_latency_s: f64,
    /// Median latency (sketch estimate), seconds.
    pub p50_latency_s: f64,
    /// 95th-percentile latency (sketch estimate), seconds.
    pub p95_latency_s: f64,
    /// 99th-percentile latency (sketch estimate), seconds.
    pub p99_latency_s: f64,
    /// Exact maximum latency, seconds.
    pub max_latency_s: f64,
    /// Time-averaged outstanding jobs (enqueued, not yet done).
    pub queue_depth: f64,
    /// Time-averaged workers in the executing state.
    pub executing: f64,
    /// Time-averaged workers booting or rebooting.
    pub booting: f64,
    /// Mean cluster power draw over the window, watts.
    pub power_w: f64,
    /// Energy consumed in the window, joules.
    pub energy_j: f64,
    /// Result-cache lookups that hit.
    pub cache_hits: u64,
    /// Result-cache lookups that missed.
    pub cache_misses: u64,
    /// Invocations coalesced onto an in-flight leader.
    pub coalesced: u64,
    /// Faults injected in the window.
    pub faults: u64,
    /// Retries scheduled in the window.
    pub retries: u64,
    /// Jobs shed (degraded capacity or budget enforcement).
    pub shed: u64,
    /// Energy-budget cap crossings.
    pub budget_breaches: u64,
    /// Per-tenant completions and SLO hits, in tenant-table order.
    pub tenants: Vec<TenantWindow>,
}

impl TelemetryWindow {
    /// Completions per covered second (0 for an empty span).
    pub fn throughput_per_s(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s > 0.0 {
            self.completed as f64 / s
        } else {
            0.0
        }
    }

    /// Cache lookup hit rate (hits ÷ lookups), 0 when nothing was
    /// looked up in the window.
    fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

/// A counter track for the Perfetto export: one named time-series whose
/// points become `"ph":"C"` events
/// (see [`crate::chrome::export_counter_trace`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterTrack {
    /// Track name as shown in the Perfetto UI.
    pub name: String,
    /// `(instant, value)` points, in time order.
    pub points: Vec<(SimTime, f64)>,
}

/// The time-series for one run: windows plus the tenant table and
/// end-of-run instant, ready to render. [`FlightRecorder::finish`]
/// builds it (see its example).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySeries {
    /// Tumbling-window width.
    pub window: SimDuration,
    /// The run's end instant (last window may be partial).
    pub end: SimTime,
    /// Windows evicted by the flight-recorder bound (they are *not* in
    /// `windows`; index 0 of `windows` is the oldest survivor).
    pub dropped_windows: u64,
    /// Tenant table the per-window tenant columns refer to.
    pub tenants: Vec<TenantSpec>,
    /// The retained windows, oldest first.
    pub windows: Vec<TelemetryWindow>,
}

impl TelemetrySeries {
    /// Total completions across the retained windows.
    pub fn total_completed(&self) -> u64 {
        self.windows.iter().map(|w| w.completed).sum()
    }

    /// Total energy across the retained windows, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.windows.iter().map(|w| w.energy_j).sum()
    }

    /// Renders the series as CSV: one row per window, a fixed column
    /// set plus three columns per tenant. Floats use fixed six-decimal
    /// formatting, so the output is byte-identical for identical runs.
    pub fn to_csv(&self) -> String {
        use fmt::Write as _;
        let mut out = String::with_capacity(self.windows.len() * 256 + 256);
        out.push_str(
            "window,start_s,elapsed_s,completed,throughput_per_s,mean_latency_s,\
             p50_latency_s,p95_latency_s,p99_latency_s,max_latency_s,queue_depth,\
             executing_workers,booting_workers,power_w,energy_j,cache_hits,\
             cache_misses,coalesced,cache_hit_rate,faults,retries,shed,budget_breaches",
        );
        for tenant in &self.tenants {
            let _ = write!(
                out,
                ",{n}_completed,{n}_slo_hits,{n}_attainment",
                n = tenant.name
            );
        }
        out.push('\n');
        for w in &self.windows {
            let _ = write!(
                out,
                "{},{:.6},{:.6},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},\
                 {:.6},{:.6},{:.6},{:.6},{},{},{},{:.6},{},{},{},{}",
                w.index,
                w.start.as_secs_f64(),
                w.elapsed.as_secs_f64(),
                w.completed,
                w.throughput_per_s(),
                w.mean_latency_s,
                w.p50_latency_s,
                w.p95_latency_s,
                w.p99_latency_s,
                w.max_latency_s,
                w.queue_depth,
                w.executing,
                w.booting,
                w.power_w,
                w.energy_j,
                w.cache_hits,
                w.cache_misses,
                w.coalesced,
                w.cache_hit_rate(),
                w.faults,
                w.retries,
                w.shed,
                w.budget_breaches,
            );
            for t in &w.tenants {
                let _ = write!(out, ",{},{},{:.6}", t.completed, t.slo_hits, t.attainment());
            }
            out.push('\n');
        }
        out
    }

    /// Renders every window as labeled Prometheus gauges
    /// (`telemetry_power_watts{window="17"} ...`), plus scalar gauges
    /// describing the series itself. Registration order is fixed, so
    /// the exposition is deterministic.
    pub fn render_prometheus(&self) -> String {
        let mut m = MetricsRegistry::new();
        let g = m.gauge("telemetry_window_width_seconds");
        m.set_gauge(g, self.window.as_secs_f64());
        let g = m.gauge("telemetry_windows_retained");
        m.set_gauge(g, self.windows.len() as f64);
        let g = m.gauge("telemetry_windows_dropped");
        m.set_gauge(g, self.dropped_windows as f64);
        let g = m.gauge("telemetry_run_end_seconds");
        m.set_gauge(g, self.end.as_secs_f64());
        for w in &self.windows {
            let i = w.index;
            let put = |m: &mut MetricsRegistry, family: &str, value: f64| {
                let id = m.gauge(&format!("{family}{{window=\"{i}\"}}"));
                m.set_gauge(id, value);
            };
            put(&mut m, "telemetry_completed", w.completed as f64);
            put(
                &mut m,
                "telemetry_throughput_per_second",
                w.throughput_per_s(),
            );
            put(&mut m, "telemetry_mean_latency_seconds", w.mean_latency_s);
            put(&mut m, "telemetry_p95_latency_seconds", w.p95_latency_s);
            put(&mut m, "telemetry_queue_depth", w.queue_depth);
            put(&mut m, "telemetry_executing_workers", w.executing);
            put(&mut m, "telemetry_booting_workers", w.booting);
            put(&mut m, "telemetry_power_watts", w.power_w);
            put(&mut m, "telemetry_energy_joules", w.energy_j);
            put(&mut m, "telemetry_cache_hit_rate", w.cache_hit_rate());
            put(&mut m, "telemetry_faults", w.faults as f64);
            put(
                &mut m,
                "telemetry_budget_breaches",
                w.budget_breaches as f64,
            );
            for (t, tw) in self.tenants.iter().zip(&w.tenants) {
                let id = m.gauge(&format!(
                    "telemetry_slo_attainment{{window=\"{i}\",tenant=\"{}\"}}",
                    t.name
                ));
                m.set_gauge(id, tw.attainment());
            }
        }
        m.render_prometheus()
    }

    /// The series as named counter tracks for the Perfetto export, one
    /// point per window at the window's start instant.
    pub fn counter_tracks(&self) -> Vec<CounterTrack> {
        let point = |f: &dyn Fn(&TelemetryWindow) -> f64| -> Vec<(SimTime, f64)> {
            self.windows.iter().map(|w| (w.start, f(w))).collect()
        };
        let mut tracks = vec![
            CounterTrack {
                name: "throughput_jobs_per_s".to_owned(),
                points: point(&|w| w.throughput_per_s()),
            },
            CounterTrack {
                name: "latency_p95_ms".to_owned(),
                points: point(&|w| w.p95_latency_s * 1e3),
            },
            CounterTrack {
                name: "queue_depth".to_owned(),
                points: point(&|w| w.queue_depth),
            },
            CounterTrack {
                name: "executing_workers".to_owned(),
                points: point(&|w| w.executing),
            },
            CounterTrack {
                name: "booting_workers".to_owned(),
                points: point(&|w| w.booting),
            },
            CounterTrack {
                name: "power_w".to_owned(),
                points: point(&|w| w.power_w),
            },
        ];
        if self
            .windows
            .iter()
            .any(|w| w.cache_hits + w.cache_misses > 0)
        {
            tracks.push(CounterTrack {
                name: "cache_hit_rate".to_owned(),
                points: point(&|w| w.cache_hit_rate()),
            });
        }
        for (t, spec) in self.tenants.iter().enumerate() {
            if spec.slo_latency_s.is_finite() {
                tracks.push(CounterTrack {
                    name: format!("slo_attainment_{}", spec.name),
                    points: point(&|w| w.tenants[t].attainment()),
                });
            }
        }
        tracks
    }
}

/// Alert severity, ordered: `Warning < Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertSeverity {
    /// Ticket-grade: investigate during working hours.
    Warning,
    /// Page-grade: the error budget is burning too fast to wait.
    Critical,
}

impl AlertSeverity {
    /// Lower-case wire label.
    pub fn label(self) -> &'static str {
        match self {
            AlertSeverity::Warning => "warning",
            AlertSeverity::Critical => "critical",
        }
    }
}

impl fmt::Display for AlertSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What fired: the typed identity of an alert.
#[derive(Debug, Clone, PartialEq)]
pub enum AlertSignal {
    /// A tenant's SLO error budget is burning faster than the rule's
    /// factor over both its long and short windows.
    BurnRate {
        /// Tenant the budget belongs to.
        tenant: String,
        /// Which burn-rate rule fired: `fast` or `slow`.
        rule: String,
    },
    /// Windowed mean latency deviated from its EWMA baseline.
    LatencyAnomaly,
    /// Windowed power draw deviated from its EWMA baseline.
    PowerAnomaly,
    /// The energy-budget governor recorded cap crossings.
    BudgetBreach,
}

impl fmt::Display for AlertSignal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlertSignal::BurnRate { tenant, rule } => {
                write!(f, "burn-rate {tenant}/{rule}")
            }
            AlertSignal::LatencyAnomaly => f.write_str("latency-anomaly"),
            AlertSignal::PowerAnomaly => f.write_str("power-anomaly"),
            AlertSignal::BudgetBreach => f.write_str("budget-breach"),
        }
    }
}

/// One deterministic alert: when it fired, when (if ever) it resolved,
/// and how bad it got at its peak.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// The typed signal.
    pub signal: AlertSignal,
    /// Severity class.
    pub severity: AlertSeverity,
    /// Evaluation instant (window end) at which the condition first held.
    pub fired: SimTime,
    /// Evaluation instant at which it stopped holding; `None` if still
    /// firing when the series ended.
    pub resolved: Option<SimTime>,
    /// Peak of the driving statistic while firing (burn-rate factor,
    /// |z|-score, or breach count).
    pub peak: f64,
}

/// One multi-window burn-rate rule (the Google SRE workbook shape):
/// fire when the error-budget burn rate exceeds `factor` over both a
/// long window (commitment) and a short window (still happening now).
struct BurnRateRule {
    /// Rule name, used in [`AlertSignal::BurnRate`].
    label: &'static str,
    /// Long lookback, in telemetry windows.
    long_windows: usize,
    /// Short lookback, in telemetry windows.
    short_windows: usize,
    /// Burn-rate threshold: 1.0 burns the whole budget exactly over
    /// the SLO period; 10.0 burns it ten times too fast.
    factor: f64,
    /// Severity when the rule fires.
    severity: AlertSeverity,
}

/// The burn-rate rules evaluated per tenant: a fast page-grade rule
/// (10× burn over 12/3 windows) and a slow ticket-grade rule (2× burn
/// over 48/12 windows).
const BURN_RATE_RULES: [BurnRateRule; 2] = [
    BurnRateRule {
        label: "fast",
        long_windows: 12,
        short_windows: 3,
        factor: 10.0,
        severity: AlertSeverity::Critical,
    },
    BurnRateRule {
        label: "slow",
        long_windows: 48,
        short_windows: 12,
        factor: 2.0,
        severity: AlertSeverity::Warning,
    },
];

/// EWMA smoothing factor for the anomaly baselines.
const EWMA_ALPHA: f64 = 0.3;

/// |z|-score above which a window is anomalous.
const Z_THRESHOLD: f64 = 4.0;

/// Observations the anomaly detector consumes before it may fire
/// (baseline warm-up).
const WARMUP_WINDOWS: usize = 8;

/// Alerting policy: the SLO target shared by every tenant's burn-rate
/// evaluation. The burn-rate rules and the anomaly detector's
/// constants are fixed (`docs/MONITORING.md` lists them).
#[derive(Debug, Clone, PartialEq)]
pub struct AlertPolicy {
    /// SLO target as a fraction (0.95 = 95% of requests in SLO); the
    /// error budget is `1 - slo_target`.
    pub slo_target: f64,
}

impl Default for AlertPolicy {
    /// A 95% SLO target.
    fn default() -> Self {
        AlertPolicy { slo_target: 0.95 }
    }
}

impl AlertPolicy {
    fn validate(&self) {
        if let Err(problem) = self.try_validate() {
            panic!("{problem}");
        }
    }

    /// Checks the policy [`evaluate_alerts`] panics on.
    ///
    /// # Errors
    ///
    /// Describes the problem: an SLO target outside (0, 1).
    pub fn try_validate(&self) -> Result<(), String> {
        if !(self.slo_target > 0.0 && self.slo_target < 1.0) {
            return Err(format!(
                "SLO target must be in (0, 1), got {}",
                self.slo_target
            ));
        }
        Ok(())
    }
}

/// Walks a boolean condition over the windows, opening an alert on the
/// rising edge and resolving it on the falling edge. `stat` drives the
/// recorded peak.
fn edge_walk(
    series: &TelemetrySeries,
    signal: AlertSignal,
    severity: AlertSeverity,
    mut eval: impl FnMut(usize, &TelemetryWindow) -> Option<f64>,
    out: &mut Vec<Alert>,
) {
    let mut firing: Option<Alert> = None;
    for (k, w) in series.windows.iter().enumerate() {
        let instant = w.start + w.elapsed;
        match eval(k, w) {
            Some(stat) => {
                let alert = firing.get_or_insert_with(|| Alert {
                    signal: signal.clone(),
                    severity,
                    fired: instant,
                    resolved: None,
                    peak: 0.0,
                });
                alert.peak = alert.peak.max(stat);
            }
            None => {
                if let Some(mut alert) = firing.take() {
                    alert.resolved = Some(instant);
                    out.push(alert);
                }
            }
        }
    }
    out.extend(firing);
}

/// Evaluates the full alert policy against an assembled series:
/// per-tenant multi-window burn rates, EWMA z-score anomalies on
/// latency and power, and energy-budget breach windows. Pure and
/// deterministic — same series and policy, same alerts.
///
/// Alerts are returned sorted by firing time (ties broken by severity,
/// most severe first, then by construction order).
///
/// # Panics
///
/// Panics if the policy is malformed (see
/// [`AlertPolicy::try_validate`]).
pub fn evaluate_alerts(series: &TelemetrySeries, policy: &AlertPolicy) -> Vec<Alert> {
    policy.validate();
    let mut out = Vec::new();
    let budget = 1.0 - policy.slo_target;

    // Per-tenant rolling error/request prefix sums for O(1) span sums.
    for (t, spec) in series.tenants.iter().enumerate() {
        if !spec.slo_latency_s.is_finite() {
            continue; // no SLO, no budget to burn
        }
        let n = series.windows.len();
        let mut err_prefix = Vec::with_capacity(n + 1);
        let mut req_prefix = Vec::with_capacity(n + 1);
        err_prefix.push(0u64);
        req_prefix.push(0u64);
        for w in &series.windows {
            let tw = &w.tenants[t];
            err_prefix.push(err_prefix.last().unwrap() + tw.errors());
            req_prefix.push(req_prefix.last().unwrap() + tw.completed);
        }
        let burn = |from: usize, to: usize| -> f64 {
            // Burn over windows [from, to): error fraction ÷ budget.
            let req = req_prefix[to] - req_prefix[from];
            if req == 0 {
                return 0.0;
            }
            let err = err_prefix[to] - err_prefix[from];
            (err as f64 / req as f64) / budget
        };
        for rule in &BURN_RATE_RULES {
            edge_walk(
                series,
                AlertSignal::BurnRate {
                    tenant: spec.name.clone(),
                    rule: rule.label.to_owned(),
                },
                rule.severity,
                |k, _| {
                    // Spans truncate at the series start: early windows
                    // evaluate over what exists.
                    let long = burn(k.saturating_add(1).saturating_sub(rule.long_windows), k + 1);
                    let short = burn(
                        k.saturating_add(1).saturating_sub(rule.short_windows),
                        k + 1,
                    );
                    (long >= rule.factor && short >= rule.factor).then_some(short)
                },
                &mut out,
            );
        }
    }

    // EWMA z-score anomalies: latency (windows with traffic only) and
    // power (every window). The detector tests each observation against
    // the baseline *before* folding it in.
    for (signal, values) in [
        (
            AlertSignal::LatencyAnomaly,
            series
                .windows
                .iter()
                .map(|w| (w.completed > 0).then_some(w.mean_latency_s))
                .collect::<Vec<_>>(),
        ),
        (
            AlertSignal::PowerAnomaly,
            series.windows.iter().map(|w| Some(w.power_w)).collect(),
        ),
    ] {
        let mut mean = 0.0f64;
        let mut var = 0.0f64;
        let mut seen = 0usize;
        edge_walk(
            series,
            signal,
            AlertSeverity::Warning,
            |k, _| {
                let x = values[k]?;
                let anomalous = if seen >= WARMUP_WINDOWS {
                    // Deviation floor: 5% of the baseline, so a nearly
                    // constant signal's numeric jitter cannot fire.
                    let std = var.sqrt().max(mean.abs() * 0.05 + 1e-9);
                    let z = (x - mean) / std;
                    (z.abs() > Z_THRESHOLD).then_some(z.abs())
                } else {
                    None
                };
                seen += 1;
                let diff = x - mean;
                let incr = EWMA_ALPHA * diff;
                mean += incr;
                var = (1.0 - EWMA_ALPHA) * (var + diff * incr);
                anomalous
            },
            &mut out,
        );
    }

    // Energy-budget breach windows.
    edge_walk(
        series,
        AlertSignal::BudgetBreach,
        AlertSeverity::Critical,
        |_, w| (w.budget_breaches > 0).then_some(w.budget_breaches as f64),
        &mut out,
    );

    out.sort_by(|a, b| {
        a.fired
            .cmp(&b.fired)
            .then_with(|| b.severity.cmp(&a.severity))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with the catch-all tenant.
    fn recorder(config: &TelemetryConfig) -> FlightRecorder {
        FlightRecorder::new(config, Vec::new())
    }

    fn cfg(secs: u64) -> TelemetryConfig {
        TelemetryConfig {
            window: SimDuration::from_secs(secs),
            ..TelemetryConfig::default()
        }
    }

    #[test]
    fn power_integrates_exactly_across_window_boundaries() {
        let mut tap = recorder(&cfg(1));
        // 2 W from 0.5 s, 6 W from 1.5 s, off at 2.5 s.
        for (ms, watts) in [(500, 2.0), (1500, 6.0), (2500, 0.0)] {
            tap.record(
                SimTime::from_millis(ms),
                TraceEvent::PowerSample { worker: 0, watts },
            );
        }
        let series = tap.finish(SimTime::from_secs(3));
        let energies: Vec<f64> = series.windows.iter().map(|w| w.energy_j).collect();
        // Window 0: 2 W × 0.5 s = 1 J; window 1: 2 W × 0.5 + 6 W × 0.5 = 4 J;
        // window 2: 6 W × 0.5 = 3 J.
        assert_eq!(energies.len(), 3);
        assert!((energies[0] - 1.0).abs() < 1e-9, "{energies:?}");
        assert!((energies[1] - 4.0).abs() < 1e-9, "{energies:?}");
        assert!((energies[2] - 3.0).abs() < 1e-9, "{energies:?}");
        assert!((series.total_energy_j() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn occupancy_and_queue_depth_are_time_averaged() {
        let mut tap = recorder(&cfg(1));
        tap.record(
            SimTime::ZERO,
            TraceEvent::JobEnqueued {
                job: 0,
                function: "CascSHA",
            },
        );
        tap.record(
            SimTime::from_millis(500),
            TraceEvent::WorkerStateChange {
                worker: 3,
                state: WorkerState::Executing,
            },
        );
        tap.record(
            SimTime::from_millis(750),
            TraceEvent::JobCompleted {
                job: 0,
                function: "CascSHA",
                worker: 3,
                exec: SimDuration::from_millis(250),
                overhead: SimDuration::ZERO,
            },
        );
        tap.record(
            SimTime::from_millis(750),
            TraceEvent::WorkerStateChange {
                worker: 3,
                state: WorkerState::Rebooting,
            },
        );
        let series = tap.finish(SimTime::from_secs(1));
        let w = &series.windows[0];
        assert!((w.queue_depth - 0.75).abs() < 1e-9, "{w:?}");
        assert!((w.executing - 0.25).abs() < 1e-9, "{w:?}");
        assert!((w.booting - 0.25).abs() < 1e-9, "{w:?}");
    }

    #[test]
    fn ring_keeps_only_the_newest_windows() {
        let config = TelemetryConfig {
            max_windows: 4,
            ..cfg(1)
        };
        let mut tap = recorder(&config);
        for s in 0..10u64 {
            tap.record(
                SimTime::from_secs(s),
                TraceEvent::FaultInjected {
                    worker: 0,
                    fault: "crash",
                },
            );
        }
        let series = tap.finish(SimTime::from_secs(10));
        assert_eq!(series.windows.len(), 4);
        assert_eq!(series.dropped_windows, 6);
        assert_eq!(series.windows[0].index, 6);
        assert!(series.windows.iter().all(|w| w.faults == 1));
    }

    #[test]
    fn completions_land_in_their_windows_with_quantiles() {
        let mut comp = FlightRecorder::new(
            &cfg(1),
            vec![
                TenantSpec {
                    name: "paid".into(),
                    slo_latency_s: 0.5,
                },
                TenantSpec {
                    name: "free".into(),
                    slo_latency_s: 1.0,
                },
            ],
        );
        for i in 0..100u64 {
            let at = SimTime::from_millis(i * 10); // all inside window 0
            comp.on_completion(at, 0.1 + i as f64 * 0.01, (i % 2) as u16, false);
        }
        comp.on_completion(SimTime::from_millis(1500), 2.0, 0, true);
        let series = comp.finish(SimTime::from_secs(2));
        let w0 = &series.windows[0];
        assert_eq!(w0.completed, 100);
        assert_eq!(w0.throughput_per_s(), 100.0);
        // Latencies 0.10..=1.09; p95 within sketch error of 1.04.
        assert!((w0.p95_latency_s / 1.04 - 1.0).abs() < 0.02, "{w0:?}");
        assert_eq!(w0.max_latency_s, 1.09);
        // Tenant 0 ("paid", SLO 0.5 s): hits are latencies ≤ 0.5 at even i.
        assert_eq!(w0.tenants[0].completed, 50);
        assert_eq!(w0.tenants[0].slo_hits, 21);
        let w1 = &series.windows[1];
        assert_eq!(w1.completed, 1);
        assert_eq!(w1.served_from_cache, 1);
        assert_eq!(w1.tenants[0].errors(), 1);
    }

    #[test]
    fn csv_is_deterministic_and_has_tenant_columns() {
        let build = || {
            let config = cfg(1);
            let mut events = FlightRecorder::new(
                &config,
                vec![TenantSpec {
                    name: "paid".into(),
                    slo_latency_s: 0.5,
                }],
            );
            events.record(
                SimTime::from_millis(100),
                TraceEvent::PowerSample {
                    worker: 0,
                    watts: 3.5,
                },
            );
            events.on_completion(SimTime::from_millis(400), 0.25, 0, false);
            events.finish(SimTime::from_secs(1)).to_csv()
        };
        let csv = build();
        assert_eq!(csv, build(), "CSV must be byte-identical across builds");
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("window,start_s,"));
        assert!(header.ends_with("paid_completed,paid_slo_hits,paid_attainment"));
        let row = lines.next().unwrap();
        assert_eq!(row.split(',').count(), header.split(',').count());
        assert!(row.ends_with(",1,1,1.000000"), "{row}");
    }

    #[test]
    fn prometheus_export_has_windowed_gauges() {
        let mut events = recorder(&cfg(1));
        events.record(
            SimTime::from_millis(0),
            TraceEvent::PowerSample {
                worker: 0,
                watts: 2.0,
            },
        );
        let series = events.finish(SimTime::from_secs(2));
        let text = series.render_prometheus();
        assert!(text.contains("telemetry_window_width_seconds 1"), "{text}");
        assert!(
            text.contains("telemetry_power_watts{window=\"0\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("telemetry_power_watts{window=\"1\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("telemetry_slo_attainment{window=\"0\",tenant=\"all\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn counter_tracks_cover_the_series() {
        let mut events = FlightRecorder::new(
            &cfg(1),
            vec![TenantSpec {
                name: "paid".into(),
                slo_latency_s: 1.0,
            }],
        );
        events.record(
            SimTime::from_millis(0),
            TraceEvent::PowerSample {
                worker: 0,
                watts: 2.0,
            },
        );
        events.on_completion(SimTime::from_millis(200), 0.1, 0, false);
        let series = events.finish(SimTime::from_secs(3));
        let tracks = series.counter_tracks();
        let names: Vec<&str> = tracks.iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"power_w"), "{names:?}");
        assert!(names.contains(&"slo_attainment_paid"), "{names:?}");
        assert!(!names.contains(&"cache_hit_rate"), "no cache configured");
        assert!(tracks.iter().all(|t| t.points.len() == 3));
    }

    /// Hand-builds a series where a flash crowd blows the SLO between
    /// windows `[spike_from, spike_to)`.
    fn slo_series(n: usize, spike_from: usize, spike_to: usize) -> TelemetrySeries {
        let mut comp = FlightRecorder::new(
            &cfg(1),
            vec![TenantSpec {
                name: "paid".into(),
                slo_latency_s: 0.5,
            }],
        );
        for k in 0..n {
            let in_spike = (spike_from..spike_to).contains(&k);
            for j in 0..20u64 {
                let at = SimTime::from_micros(k as u64 * 1_000_000 + j * 1_000);
                let latency = if in_spike { 2.0 } else { 0.1 };
                comp.on_completion(at, latency, 0, false);
            }
        }
        comp.finish(SimTime::from_secs(n as u64))
    }

    #[test]
    fn burn_rate_alert_fires_and_resolves_on_a_flash_crowd() {
        let series = slo_series(120, 40, 60);
        let alerts = evaluate_alerts(&series, &AlertPolicy::default());
        let fast: Vec<&Alert> = alerts
            .iter()
            .filter(|a| matches!(&a.signal, AlertSignal::BurnRate { rule, .. } if rule == "fast"))
            .collect();
        assert_eq!(fast.len(), 1, "{alerts:?}");
        let alert = fast[0];
        assert_eq!(alert.severity, AlertSeverity::Critical);
        // Errors start at window 40 at a 100% error rate (burn 20×).
        // The long (12-window) burn clears 10× once more than half its
        // span is inside the spike — at window 46, evaluated at its end.
        assert_eq!(alert.fired, SimTime::from_secs(47));
        let resolved = alert.resolved.expect("resolves after the spike");
        assert!(resolved > SimTime::from_secs(60), "{alert:?}");
        assert!((alert.peak - 20.0).abs() < 1e-9, "{alert:?}");
    }

    #[test]
    fn healthy_series_raises_no_burn_alerts() {
        let series = slo_series(120, 0, 0);
        let alerts = evaluate_alerts(&series, &AlertPolicy::default());
        assert!(
            !alerts
                .iter()
                .any(|a| matches!(a.signal, AlertSignal::BurnRate { .. })),
            "{alerts:?}"
        );
    }

    #[test]
    fn still_firing_alert_has_no_resolved_instant() {
        let series = slo_series(52, 45, 52);
        let alerts = evaluate_alerts(&series, &AlertPolicy::default());
        let fast = alerts
            .iter()
            .find(|a| matches!(&a.signal, AlertSignal::BurnRate { rule, .. } if rule == "fast"))
            .expect("spike at the end must fire");
        assert_eq!(fast.resolved, None);
    }

    #[test]
    fn power_anomaly_detector_flags_a_step() {
        let mut events = recorder(&cfg(1));
        // 2 W steady, then a 40 W step at t = 30 s.
        events.record(
            SimTime::ZERO,
            TraceEvent::PowerSample {
                worker: 0,
                watts: 2.0,
            },
        );
        events.record(
            SimTime::from_secs(30),
            TraceEvent::PowerSample {
                worker: 0,
                watts: 40.0,
            },
        );
        let series = events.finish(SimTime::from_secs(60));
        let alerts = evaluate_alerts(&series, &AlertPolicy::default());
        let anomaly = alerts
            .iter()
            .find(|a| a.signal == AlertSignal::PowerAnomaly)
            .expect("step must flag");
        assert_eq!(anomaly.fired, SimTime::from_secs(31));
        assert!(
            anomaly.resolved.is_some(),
            "baseline re-adapts: {anomaly:?}"
        );
    }

    #[test]
    fn budget_breach_windows_raise_critical_alerts() {
        let mut events = recorder(&cfg(1));
        events.record(
            SimTime::from_secs(2),
            TraceEvent::BudgetBreach { tenant: 0 },
        );
        events.record(
            SimTime::from_secs(2),
            TraceEvent::BudgetBreach { tenant: 0 },
        );
        let series = events.finish(SimTime::from_secs(5));
        let alerts = evaluate_alerts(&series, &AlertPolicy::default());
        let breach = alerts
            .iter()
            .find(|a| a.signal == AlertSignal::BudgetBreach)
            .expect("breach alert");
        assert_eq!(breach.severity, AlertSeverity::Critical);
        assert_eq!(breach.fired, SimTime::from_secs(3));
        assert_eq!(breach.resolved, Some(SimTime::from_secs(4)));
        assert_eq!(breach.peak, 2.0);
    }

    #[test]
    fn alerts_are_deterministic() {
        let series = slo_series(120, 40, 60);
        let a = evaluate_alerts(&series, &AlertPolicy::default());
        let b = evaluate_alerts(&series, &AlertPolicy::default());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "SLO target")]
    fn malformed_policy_is_rejected() {
        let series = slo_series(4, 0, 0);
        let policy = AlertPolicy { slo_target: 1.5 };
        evaluate_alerts(&series, &policy);
    }

    #[test]
    fn shed_and_budget_actions_reduce_queue_depth() {
        let mut tap = recorder(&cfg(1));
        for job in 0..4 {
            tap.record(
                SimTime::ZERO,
                TraceEvent::JobEnqueued {
                    job,
                    function: "MatMul",
                },
            );
        }
        tap.record(
            SimTime::from_millis(500),
            TraceEvent::JobShed {
                job: 0,
                function: "MatMul",
            },
        );
        tap.record(
            SimTime::from_millis(500),
            TraceEvent::BudgetAction {
                tenant: 0,
                action: "shed",
            },
        );
        // Non-shed budget actions must not change the queue.
        tap.record(
            SimTime::from_millis(500),
            TraceEvent::BudgetAction {
                tenant: 0,
                action: "throttle",
            },
        );
        let series = tap.finish(SimTime::from_secs(1));
        let w = &series.windows[0];
        assert_eq!(w.shed, 2);
        // 4 jobs for 0.5 s, then 2 jobs for 0.5 s = 3.0 time-averaged.
        assert!((w.queue_depth - 3.0).abs() < 1e-9, "{w:?}");
    }
}
