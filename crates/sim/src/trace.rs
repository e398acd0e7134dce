//! Structured event tracing for the cluster simulators.
//!
//! The simulators emit typed [`TraceEvent`]s through an [`Observer`]
//! into any [`TraceSink`]. The sink shipped here, [`TraceBuffer`], is a
//! bounded ring buffer: a capacity-`n` buffer keeps the *last* `n`
//! events of a run and counts what it dropped, so a trillion-event run
//! cannot exhaust memory while the interesting tail stays inspectable.
//!
//! Tracing is pay-for-what-you-use: with [`Observer::disabled`] every
//! emission site reduces to a `None` check and the simulated results
//! are bit-identical to an untraced run (events never touch the
//! simulation RNG).
//!
//! Traces export as JSON lines ([`TraceBuffer::to_json_lines`]): one
//! self-describing object per line, grep- and `jq`-friendly, documented
//! in `docs/OBSERVABILITY.md`.

use std::collections::VecDeque;
use std::fmt;

use crate::metrics::MetricsRegistry;
use crate::time::{SimDuration, SimTime};

/// Lifecycle states a traced worker (SBC or VM) can report. The node
/// models in `microfaas-hw` run on this type, so a worker's state and
/// the state its trace reports are one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Power-gated off, drawing nothing.
    Off,
    /// Cold boot in progress after power-on.
    Booting,
    /// Powered and waiting for work (or parked at standby draw).
    Idle,
    /// Running a function invocation.
    Executing,
    /// Rebooting between jobs for a pristine runtime.
    Rebooting,
    /// Down after an injected fault; drawing nothing until recovered.
    Crashed,
}

impl WorkerState {
    /// Lower-case wire label used in the JSON-lines export.
    pub fn label(self) -> &'static str {
        match self {
            WorkerState::Off => "off",
            WorkerState::Booting => "booting",
            WorkerState::Idle => "idle",
            WorkerState::Executing => "executing",
            WorkerState::Rebooting => "rebooting",
            WorkerState::Crashed => "crashed",
        }
    }
}

impl fmt::Display for WorkerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One end of a traced network transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// A worker node (SBC or VM), by cluster index.
    Worker(usize),
    /// The orchestration node that queues and dispatches jobs.
    Orchestrator,
    /// A backing service node (`"kv"`, `"sql"`, `"cos"`, `"mq"`, ...).
    Service(&'static str),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Worker(w) => write!(f, "worker:{w}"),
            Endpoint::Orchestrator => f.write_str("orchestrator"),
            Endpoint::Service(name) => f.write_str(name),
        }
    }
}

/// A typed simulation event. Function names are `&'static str` labels
/// (from the workload suite) so emission never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A worker moved to a new lifecycle state.
    WorkerStateChange {
        /// Cluster index of the worker.
        worker: usize,
        /// The state it entered.
        state: WorkerState,
    },
    /// A job entered the dispatcher's queue.
    JobEnqueued {
        /// Job id, unique within the run.
        job: u64,
        /// Function name label.
        function: &'static str,
    },
    /// A worker began executing a job.
    JobStarted {
        /// Job id.
        job: u64,
        /// Function name label.
        function: &'static str,
        /// Executing worker.
        worker: usize,
    },
    /// A job finished and its record was committed.
    JobCompleted {
        /// Job id.
        job: u64,
        /// Function name label.
        function: &'static str,
        /// Executing worker.
        worker: usize,
        /// Pure execution time.
        exec: SimDuration,
        /// Platform overhead (orchestration + network) on top of exec.
        overhead: SimDuration,
    },
    /// A job exceeded the invocation timeout and was abandoned.
    JobTimedOut {
        /// Job id.
        job: u64,
        /// Function name label.
        function: &'static str,
        /// Worker the job was running on.
        worker: usize,
    },
    /// A power channel changed its draw.
    PowerSample {
        /// Cluster index of the worker (or 0 for a shared host).
        worker: usize,
        /// New draw in watts.
        watts: f64,
    },
    /// Bytes moved across the cluster network.
    NetTransfer {
        /// Sending node.
        src: Endpoint,
        /// Receiving node.
        dst: Endpoint,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A fault from the active [`crate::faults::FaultPlan`] fired.
    FaultInjected {
        /// Worker the fault struck.
        worker: usize,
        /// Fault kind label (`"crash"`, `"boot_failure"`, ...).
        fault: &'static str,
    },
    /// An in-flight job was pulled back off a failed worker.
    JobRequeued {
        /// Job id.
        job: u64,
        /// Function name label.
        function: &'static str,
        /// Worker the job was running on when it failed.
        worker: usize,
    },
    /// The orchestrator scheduled a bounded retry with backoff.
    JobRetryScheduled {
        /// Job id.
        job: u64,
        /// Function name label.
        function: &'static str,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
        /// Backoff delay before the job re-enters the queue.
        delay: SimDuration,
    },
    /// A queued job was shed to protect degraded capacity.
    JobShed {
        /// Job id.
        job: u64,
        /// Function name label.
        function: &'static str,
    },
    /// A job exhausted its retry budget and was abandoned.
    JobFailed {
        /// Job id.
        job: u64,
        /// Function name label.
        function: &'static str,
        /// Retry attempts consumed before giving up.
        attempts: u32,
    },
    /// The placement policy chose a worker queue for a job. Emitted only
    /// when a non-default scheduling policy is active, so default runs
    /// keep their historical traces byte-for-byte.
    PlacementDecision {
        /// Job id.
        job: u64,
        /// Worker the job was placed on.
        worker: usize,
        /// Placement policy label (`"least-loaded"`, ...).
        policy: &'static str,
    },
    /// A power governor moved a worker between power regimes. Emitted
    /// only when a non-default scheduling policy is active.
    GovernorTransition {
        /// Worker the governor acted on.
        worker: usize,
        /// What the governor did (`"standby"`, `"gate-off"`,
        /// `"prewarm"`).
        action: &'static str,
    },
    /// The orchestrator requested power-on for a gated worker — the
    /// causal anchor that starts a wake/boot span before the worker's
    /// `Booting` state change lands.
    WakeRequested {
        /// Worker being powered on.
        worker: usize,
        /// Why the wake was requested (`"dispatch"`, `"requeue"`,
        /// `"prewarm"`).
        reason: &'static str,
    },
    /// A finished job's response left the worker for the orchestrator —
    /// the causal anchor separating platform overhead from network
    /// response time inside a job's span.
    ResponseSent {
        /// Job id.
        job: u64,
        /// Function name label.
        function: &'static str,
        /// Worker sending the response.
        worker: usize,
    },
    /// An invocation was served from the content-addressed result cache
    /// — no queueing, no boot, no execution. Emitted only when a cache
    /// is configured, so default runs keep their historical traces
    /// byte-for-byte.
    CacheHit {
        /// Job id.
        job: u64,
        /// Function name label.
        function: &'static str,
        /// The content address that hit.
        key: u64,
    },
    /// A cache-enabled invocation found no stored result and proceeded
    /// to normal dispatch. Emitted only when a cache is configured.
    CacheMiss {
        /// Job id.
        job: u64,
        /// Function name label.
        function: &'static str,
        /// The content address that missed.
        key: u64,
    },
    /// An invocation collapsed onto an identical in-flight invocation:
    /// it completes when its leader does, paying queue time only.
    /// Emitted only when a cache is configured.
    Coalesced {
        /// Follower job id.
        job: u64,
        /// Job id of the leader execution it waits on.
        leader: u64,
        /// Function name label.
        function: &'static str,
    },
    /// A tenant's attributed joules crossed its energy-budget cap.
    /// Emitted only when the `EnergyBudget` governor is active, so
    /// default runs keep their historical traces byte-for-byte.
    BudgetBreach {
        /// Tenant index (matches the run's tenant table order).
        tenant: u16,
    },
    /// The energy-budget governor acted on an arrival from a breached
    /// tenant. Emitted only when the `EnergyBudget` governor is active.
    BudgetAction {
        /// Tenant index (matches the run's tenant table order).
        tenant: u16,
        /// What the governor did (`"shed"`, `"defer"`, `"throttle"`).
        action: &'static str,
    },
}

impl TraceEvent {
    /// Snake-case wire name of the event type, as used in the
    /// JSON-lines `"type"` field.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::WorkerStateChange { .. } => "worker_state_change",
            TraceEvent::JobEnqueued { .. } => "job_enqueued",
            TraceEvent::JobStarted { .. } => "job_started",
            TraceEvent::JobCompleted { .. } => "job_completed",
            TraceEvent::JobTimedOut { .. } => "job_timed_out",
            TraceEvent::PowerSample { .. } => "power_sample",
            TraceEvent::NetTransfer { .. } => "net_transfer",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::JobRequeued { .. } => "job_requeued",
            TraceEvent::JobRetryScheduled { .. } => "job_retry_scheduled",
            TraceEvent::JobShed { .. } => "job_shed",
            TraceEvent::JobFailed { .. } => "job_failed",
            TraceEvent::PlacementDecision { .. } => "placement_decision",
            TraceEvent::GovernorTransition { .. } => "governor_transition",
            TraceEvent::WakeRequested { .. } => "wake_requested",
            TraceEvent::ResponseSent { .. } => "response_sent",
            TraceEvent::CacheHit { .. } => "cache_hit",
            TraceEvent::CacheMiss { .. } => "cache_miss",
            TraceEvent::Coalesced { .. } => "coalesced",
            TraceEvent::BudgetBreach { .. } => "budget_breach",
            TraceEvent::BudgetAction { .. } => "budget_action",
        }
    }

    /// The job id this event is about, if it concerns a specific job.
    /// Used by span derivation and the CLI `--job` trace filter.
    pub fn job_id(&self) -> Option<u64> {
        match *self {
            TraceEvent::JobEnqueued { job, .. }
            | TraceEvent::JobStarted { job, .. }
            | TraceEvent::JobCompleted { job, .. }
            | TraceEvent::JobTimedOut { job, .. }
            | TraceEvent::JobRequeued { job, .. }
            | TraceEvent::JobRetryScheduled { job, .. }
            | TraceEvent::JobShed { job, .. }
            | TraceEvent::JobFailed { job, .. }
            | TraceEvent::PlacementDecision { job, .. }
            | TraceEvent::ResponseSent { job, .. }
            | TraceEvent::CacheHit { job, .. }
            | TraceEvent::CacheMiss { job, .. }
            | TraceEvent::Coalesced { job, .. } => Some(job),
            TraceEvent::WorkerStateChange { .. }
            | TraceEvent::PowerSample { .. }
            | TraceEvent::NetTransfer { .. }
            | TraceEvent::FaultInjected { .. }
            | TraceEvent::GovernorTransition { .. }
            | TraceEvent::WakeRequested { .. }
            | TraceEvent::BudgetBreach { .. }
            | TraceEvent::BudgetAction { .. } => None,
        }
    }
}

/// A [`TraceEvent`] stamped with its global sequence number and the
/// simulated instant it occurred.
///
/// Records are fixed-size `Copy` values: every payload field is a
/// scalar or a `&'static str` label, so emitting one is a plain store
/// into the ring buffer's preallocated backing — no per-event heap
/// allocation anywhere on the hot path. JSON rendering happens only at
/// export time ([`TraceRecord::to_json`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Zero-based position in the run's full event stream (stable even
    /// when the ring buffer has dropped earlier records).
    pub seq: u64,
    /// Simulated instant of the event.
    pub at: SimTime,
    /// The event itself.
    pub event: TraceEvent,
}

// Compile-time pins on the packed record layout. Every event in a
// million-event ring costs `size_of::<TraceRecord>()` bytes, so a new
// variant (or a fattened payload) that grows the enum past the pin
// fails the build here instead of silently inflating every buffer by
// `capacity` bytes per added word. 72 B keeps the default 1 Mi-record
// CLI ring at 72 MiB; see docs/SCALING.md.
const _: () = assert!(std::mem::size_of::<TraceEvent>() <= 56);
const _: () = assert!(std::mem::size_of::<TraceRecord>() <= 72);

impl TraceRecord {
    /// Renders the record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        use fmt::Write as _;
        let _ = write!(
            out,
            "{{\"seq\":{},\"at_us\":{},\"type\":\"{}\"",
            self.seq,
            self.at.as_micros(),
            self.event.kind()
        );
        match self.event {
            TraceEvent::WorkerStateChange { worker, state } => {
                let _ = write!(out, ",\"worker\":{worker},\"state\":\"{state}\"");
            }
            TraceEvent::JobEnqueued { job, function } => {
                let _ = write!(out, ",\"job\":{job},\"function\":\"{function}\"");
            }
            TraceEvent::JobStarted {
                job,
                function,
                worker,
            } => {
                let _ = write!(
                    out,
                    ",\"job\":{job},\"function\":\"{function}\",\"worker\":{worker}"
                );
            }
            TraceEvent::JobCompleted {
                job,
                function,
                worker,
                exec,
                overhead,
            } => {
                let _ = write!(
                    out,
                    ",\"job\":{job},\"function\":\"{function}\",\"worker\":{worker},\
                     \"exec_us\":{},\"overhead_us\":{}",
                    exec.as_micros(),
                    overhead.as_micros()
                );
            }
            TraceEvent::JobTimedOut {
                job,
                function,
                worker,
            } => {
                let _ = write!(
                    out,
                    ",\"job\":{job},\"function\":\"{function}\",\"worker\":{worker}"
                );
            }
            TraceEvent::PowerSample { worker, watts } => {
                let _ = write!(out, ",\"worker\":{worker},\"watts\":{watts}");
            }
            TraceEvent::NetTransfer { src, dst, bytes } => {
                let _ = write!(
                    out,
                    ",\"src\":\"{src}\",\"dst\":\"{dst}\",\"bytes\":{bytes}"
                );
            }
            TraceEvent::FaultInjected { worker, fault } => {
                let _ = write!(out, ",\"worker\":{worker},\"fault\":\"{fault}\"");
            }
            TraceEvent::JobRequeued {
                job,
                function,
                worker,
            } => {
                let _ = write!(
                    out,
                    ",\"job\":{job},\"function\":\"{function}\",\"worker\":{worker}"
                );
            }
            TraceEvent::JobRetryScheduled {
                job,
                function,
                attempt,
                delay,
            } => {
                let _ = write!(
                    out,
                    ",\"job\":{job},\"function\":\"{function}\",\"attempt\":{attempt},\
                     \"delay_us\":{}",
                    delay.as_micros()
                );
            }
            TraceEvent::JobShed { job, function } => {
                let _ = write!(out, ",\"job\":{job},\"function\":\"{function}\"");
            }
            TraceEvent::JobFailed {
                job,
                function,
                attempts,
            } => {
                let _ = write!(
                    out,
                    ",\"job\":{job},\"function\":\"{function}\",\"attempts\":{attempts}"
                );
            }
            TraceEvent::PlacementDecision {
                job,
                worker,
                policy,
            } => {
                let _ = write!(
                    out,
                    ",\"job\":{job},\"worker\":{worker},\"policy\":\"{policy}\""
                );
            }
            TraceEvent::GovernorTransition { worker, action } => {
                let _ = write!(out, ",\"worker\":{worker},\"action\":\"{action}\"");
            }
            TraceEvent::WakeRequested { worker, reason } => {
                let _ = write!(out, ",\"worker\":{worker},\"reason\":\"{reason}\"");
            }
            TraceEvent::ResponseSent {
                job,
                function,
                worker,
            } => {
                let _ = write!(
                    out,
                    ",\"job\":{job},\"function\":\"{function}\",\"worker\":{worker}"
                );
            }
            TraceEvent::CacheHit { job, function, key }
            | TraceEvent::CacheMiss { job, function, key } => {
                let _ = write!(
                    out,
                    ",\"job\":{job},\"function\":\"{function}\",\"key\":{key}"
                );
            }
            TraceEvent::Coalesced {
                job,
                leader,
                function,
            } => {
                let _ = write!(
                    out,
                    ",\"job\":{job},\"leader\":{leader},\"function\":\"{function}\""
                );
            }
            TraceEvent::BudgetBreach { tenant } => {
                let _ = write!(out, ",\"tenant\":{tenant}");
            }
            TraceEvent::BudgetAction { tenant, action } => {
                let _ = write!(out, ",\"tenant\":{tenant},\"action\":\"{action}\"");
            }
        }
        out.push('}');
    }
}

/// Receiver for the simulators' event stream.
///
/// Implementations must be cheap: `record` is called from the hot event
/// loop for every traced transition.
pub trait TraceSink {
    /// Accepts one event at simulated instant `at`.
    fn record(&mut self, at: SimTime, event: TraceEvent);
}

/// A bounded ring-buffer [`TraceSink`]: keeps the most recent
/// `capacity` records, counts the rest as dropped, and exports
/// chronologically.
///
/// # Examples
///
/// ```
/// use microfaas_sim::trace::{TraceBuffer, TraceEvent, TraceSink};
/// use microfaas_sim::SimTime;
///
/// let mut buffer = TraceBuffer::new(2);
/// for job in 0..5 {
///     buffer.record(
///         SimTime::from_micros(job),
///         TraceEvent::JobEnqueued { job, function: "CascSHA" },
///     );
/// }
/// // Only the last two survive; the three oldest were dropped.
/// assert_eq!(buffer.len(), 2);
/// assert_eq!(buffer.dropped(), 3);
/// assert_eq!(buffer.iter().next().unwrap().seq, 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    capacity: usize,
    next_seq: u64,
    records: VecDeque<TraceRecord>,
}

impl TraceBuffer {
    /// Creates a buffer keeping at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace buffer capacity must be positive");
        TraceBuffer {
            capacity,
            next_seq: 0,
            records: VecDeque::with_capacity(capacity),
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Count of records overwritten because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.next_seq - self.records.len() as u64
    }

    /// Iterates the retained records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Renders every retained record as JSON lines (one object per
    /// line, oldest first, trailing newline).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 96);
        for record in &self.records {
            record.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

impl TraceSink for TraceBuffer {
    fn record(&mut self, at: SimTime, event: TraceEvent) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(TraceRecord {
            seq: self.next_seq,
            at,
            event,
        });
        self.next_seq += 1;
    }
}

/// What a simulator reports into: an optional trace sink plus an
/// optional metrics registry, borrowed for the duration of one run.
///
/// [`Observer::disabled`] is the default for every public `run_*`
/// entry point; results are bit-identical whether or not observation is
/// on, because emission never consumes simulation randomness.
///
/// # Examples
///
/// ```
/// use microfaas_sim::metrics::MetricsRegistry;
/// use microfaas_sim::trace::{Observer, TraceBuffer, TraceEvent};
/// use microfaas_sim::SimTime;
///
/// let mut buffer = TraceBuffer::new(1024);
/// let mut metrics = MetricsRegistry::new();
/// let mut observer = Observer::full(&mut buffer, &mut metrics);
///
/// observer.emit(
///     SimTime::ZERO,
///     TraceEvent::JobEnqueued { job: 0, function: "CascSHA" },
/// );
/// if let Some(m) = observer.metrics() {
///     let enqueued = m.counter("jobs_enqueued");
///     m.inc(enqueued);
/// }
///
/// drop(observer);
/// assert_eq!(buffer.len(), 1);
/// assert!(metrics.render_prometheus().contains("jobs_enqueued 1"));
/// ```
#[derive(Default)]
pub struct Observer<'a> {
    trace: Option<&'a mut dyn TraceSink>,
    metrics: Option<&'a mut MetricsRegistry>,
}

impl fmt::Debug for Observer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Observer")
            .field("tracing", &self.trace.is_some())
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}

impl<'a> Observer<'a> {
    /// An observer that records nothing; every emission is a no-op.
    pub fn disabled() -> Self {
        Observer {
            trace: None,
            metrics: None,
        }
    }

    /// Observes the trace stream only.
    pub fn tracing(sink: &'a mut dyn TraceSink) -> Self {
        Observer {
            trace: Some(sink),
            metrics: None,
        }
    }

    /// Observes metrics only.
    pub fn metered(metrics: &'a mut MetricsRegistry) -> Self {
        Observer {
            trace: None,
            metrics: Some(metrics),
        }
    }

    /// Observes both the trace stream and metrics.
    pub fn full(sink: &'a mut dyn TraceSink, metrics: &'a mut MetricsRegistry) -> Self {
        Observer {
            trace: Some(sink),
            metrics: Some(metrics),
        }
    }

    /// True if a trace sink is attached.
    pub fn is_tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Sends one event to the trace sink, if any.
    #[inline]
    pub fn emit(&mut self, at: SimTime, event: TraceEvent) {
        if let Some(sink) = self.trace.as_deref_mut() {
            sink.record(at, event);
        }
    }

    /// The metrics registry, if one is attached. Simulators register
    /// their handles through this once per run, then publish into them.
    #[inline]
    pub fn metrics(&mut self) -> Option<&mut MetricsRegistry> {
        self.metrics.as_deref_mut()
    }
}

/// How an engine publishes its trace stream and its completions:
/// either the dyn-dispatch [`Observer`] (flexible — any sink, any
/// combination, behind one concrete type), or a sink that is an
/// observer itself, the telemetry
/// [`FlightRecorder`](crate::telemetry::FlightRecorder). An engine
/// generic over the observer monomorphizes over the recorder and
/// inlines its `record` at every emission site; with inlining, each
/// site's statically-known event variant collapses the recorder's match
/// to the one relevant arm, which is what keeps always-on telemetry
/// within its wall-clock budget (`docs/MONITORING.md`).
pub trait TraceObserver {
    /// Sends one event to the observer.
    fn emit(&mut self, at: SimTime, event: TraceEvent);

    /// The metrics registry, if one is attached.
    fn metrics(&mut self) -> Option<&mut MetricsRegistry>;

    /// Offers one completed invocation: when it `finished`, its
    /// end-to-end latency, its tenant index, and whether it was served
    /// without executing. Ignored unless the observer keeps completion
    /// statistics.
    #[inline]
    fn on_completion(
        &mut self,
        _finished: SimTime,
        _latency_s: f64,
        _tenant: u16,
        _from_cache: bool,
    ) {
    }
}

impl TraceObserver for Observer<'_> {
    #[inline]
    fn emit(&mut self, at: SimTime, event: TraceEvent) {
        Observer::emit(self, at, event);
    }

    #[inline]
    fn metrics(&mut self) -> Option<&mut MetricsRegistry> {
        Observer::metrics(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enqueue(job: u64) -> TraceEvent {
        TraceEvent::JobEnqueued {
            job,
            function: "CascSHA",
        }
    }

    #[test]
    fn ring_buffer_keeps_the_newest_records() {
        let mut buffer = TraceBuffer::new(4);
        for i in 0..10 {
            buffer.record(SimTime::from_micros(i), enqueue(i));
        }
        assert_eq!(buffer.len(), 4);
        assert_eq!(buffer.dropped(), 6);
        let seqs: Vec<u64> = buffer.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        // Chronological: timestamps non-decreasing.
        let times: Vec<u64> = buffer.iter().map(|r| r.at.as_micros()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn under_capacity_nothing_is_dropped() {
        let mut buffer = TraceBuffer::new(100);
        for i in 0..3 {
            buffer.record(SimTime::from_micros(i), enqueue(i));
        }
        assert_eq!(buffer.len(), 3);
        assert_eq!(buffer.dropped(), 0);
        assert!(!buffer.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        TraceBuffer::new(0);
    }

    #[test]
    fn json_lines_are_one_object_per_line() {
        let mut buffer = TraceBuffer::new(8);
        buffer.record(SimTime::from_micros(5), enqueue(1));
        buffer.record(
            SimTime::from_micros(9),
            TraceEvent::JobCompleted {
                job: 1,
                function: "CascSHA",
                worker: 3,
                exec: SimDuration::from_micros(2),
                overhead: SimDuration::from_micros(1),
            },
        );
        let dump = buffer.to_json_lines();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"at_us\":5,\"type\":\"job_enqueued\",\"job\":1,\"function\":\"CascSHA\"}"
        );
        assert_eq!(
            lines[1],
            "{\"seq\":1,\"at_us\":9,\"type\":\"job_completed\",\"job\":1,\
             \"function\":\"CascSHA\",\"worker\":3,\"exec_us\":2,\"overhead_us\":1}"
        );
    }

    #[test]
    fn every_event_kind_renders_valid_shape() {
        let events = [
            TraceEvent::WorkerStateChange {
                worker: 0,
                state: WorkerState::Booting,
            },
            enqueue(7),
            TraceEvent::JobStarted {
                job: 7,
                function: "AES128",
                worker: 2,
            },
            TraceEvent::JobCompleted {
                job: 7,
                function: "AES128",
                worker: 2,
                exec: SimDuration::from_millis(3),
                overhead: SimDuration::from_millis(1),
            },
            TraceEvent::JobTimedOut {
                job: 8,
                function: "AES128",
                worker: 2,
            },
            TraceEvent::PowerSample {
                worker: 2,
                watts: 1.96,
            },
            TraceEvent::NetTransfer {
                src: Endpoint::Worker(2),
                dst: Endpoint::Service("kv"),
                bytes: 1500,
            },
            TraceEvent::FaultInjected {
                worker: 3,
                fault: "crash",
            },
            TraceEvent::JobRequeued {
                job: 9,
                function: "CascSHA",
                worker: 3,
            },
            TraceEvent::JobRetryScheduled {
                job: 9,
                function: "CascSHA",
                attempt: 1,
                delay: SimDuration::from_millis(250),
            },
            TraceEvent::JobShed {
                job: 10,
                function: "MatMul",
            },
            TraceEvent::JobFailed {
                job: 9,
                function: "CascSHA",
                attempts: 3,
            },
            TraceEvent::PlacementDecision {
                job: 11,
                worker: 4,
                policy: "least-loaded",
            },
            TraceEvent::GovernorTransition {
                worker: 4,
                action: "standby",
            },
            TraceEvent::WakeRequested {
                worker: 5,
                reason: "dispatch",
            },
            TraceEvent::ResponseSent {
                job: 12,
                function: "MatMul",
                worker: 5,
            },
            TraceEvent::CacheHit {
                job: 13,
                function: "CascSHA",
                key: 0xdead_beef,
            },
            TraceEvent::CacheMiss {
                job: 14,
                function: "CascSHA",
                key: 0xdead_beef,
            },
            TraceEvent::Coalesced {
                job: 15,
                leader: 14,
                function: "CascSHA",
            },
            TraceEvent::BudgetBreach { tenant: 1 },
            TraceEvent::BudgetAction {
                tenant: 1,
                action: "shed",
            },
        ];
        let mut buffer = TraceBuffer::new(events.len());
        for (i, &event) in events.iter().enumerate() {
            buffer.record(SimTime::from_micros(i as u64), event);
        }
        for (record, event) in buffer.iter().zip(events.iter()) {
            let json = record.to_json();
            assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
            assert!(
                json.contains(&format!("\"type\":\"{}\"", event.kind())),
                "{json}"
            );
        }
        // Spot-check endpoint rendering.
        let transfer = buffer
            .iter()
            .find(|r| r.event.kind() == "net_transfer")
            .unwrap()
            .to_json();
        assert!(transfer.contains("\"src\":\"worker:2\""), "{transfer}");
        assert!(transfer.contains("\"dst\":\"kv\""), "{transfer}");
        // And fault-event payloads.
        let retry = buffer
            .iter()
            .find(|r| r.event.kind() == "job_retry_scheduled")
            .unwrap()
            .to_json();
        assert!(retry.contains("\"attempt\":1"), "{retry}");
        assert!(retry.contains("\"delay_us\":250000"), "{retry}");
        let fault = buffer
            .iter()
            .find(|r| r.event.kind() == "fault_injected")
            .unwrap()
            .to_json();
        assert!(fault.contains("\"fault\":\"crash\""), "{fault}");
        // And the scheduling-subsystem payloads.
        let placed = buffer
            .iter()
            .find(|r| r.event.kind() == "placement_decision")
            .unwrap()
            .to_json();
        assert!(placed.contains("\"policy\":\"least-loaded\""), "{placed}");
        let gov = buffer
            .iter()
            .find(|r| r.event.kind() == "governor_transition")
            .unwrap()
            .to_json();
        assert!(gov.contains("\"action\":\"standby\""), "{gov}");
        // And the causal span anchors.
        let wake = buffer
            .iter()
            .find(|r| r.event.kind() == "wake_requested")
            .unwrap()
            .to_json();
        assert!(wake.contains("\"reason\":\"dispatch\""), "{wake}");
        let sent = buffer
            .iter()
            .find(|r| r.event.kind() == "response_sent")
            .unwrap()
            .to_json();
        assert!(sent.contains("\"job\":12"), "{sent}");
        assert!(sent.contains("\"worker\":5"), "{sent}");
        // And the result-cache payloads.
        let hit = buffer
            .iter()
            .find(|r| r.event.kind() == "cache_hit")
            .unwrap()
            .to_json();
        assert!(hit.contains("\"key\":3735928559"), "{hit}");
        let coalesced = buffer
            .iter()
            .find(|r| r.event.kind() == "coalesced")
            .unwrap()
            .to_json();
        assert!(coalesced.contains("\"leader\":14"), "{coalesced}");
        // And the energy-budget payloads.
        let breach = buffer
            .iter()
            .find(|r| r.event.kind() == "budget_breach")
            .unwrap()
            .to_json();
        assert!(breach.contains("\"tenant\":1"), "{breach}");
        let action = buffer
            .iter()
            .find(|r| r.event.kind() == "budget_action")
            .unwrap()
            .to_json();
        assert!(action.contains("\"action\":\"shed\""), "{action}");
    }

    #[test]
    fn job_id_extraction_covers_job_scoped_events() {
        assert_eq!(enqueue(7).job_id(), Some(7));
        assert_eq!(
            TraceEvent::CacheHit {
                job: 6,
                function: "AES128",
                key: 1,
            }
            .job_id(),
            Some(6)
        );
        assert_eq!(
            TraceEvent::Coalesced {
                job: 6,
                leader: 5,
                function: "AES128",
            }
            .job_id(),
            Some(6)
        );
        assert_eq!(
            TraceEvent::ResponseSent {
                job: 3,
                function: "AES128",
                worker: 1,
            }
            .job_id(),
            Some(3)
        );
        assert_eq!(
            TraceEvent::WakeRequested {
                worker: 0,
                reason: "prewarm",
            }
            .job_id(),
            None
        );
        assert_eq!(
            TraceEvent::PowerSample {
                worker: 0,
                watts: 1.0,
            }
            .job_id(),
            None
        );
    }

    #[test]
    fn disabled_observer_is_a_no_op() {
        let mut observer = Observer::disabled();
        assert!(!observer.is_tracing());
        observer.emit(SimTime::ZERO, enqueue(0));
        assert!(observer.metrics().is_none());
    }

    #[test]
    fn full_observer_routes_to_both() {
        let mut buffer = TraceBuffer::new(4);
        let mut metrics = MetricsRegistry::new();
        {
            let mut observer = Observer::full(&mut buffer, &mut metrics);
            observer.emit(SimTime::ZERO, enqueue(0));
            let registry = observer.metrics().expect("metrics attached");
            let c = registry.counter("seen");
            registry.inc(c);
        }
        assert_eq!(buffer.len(), 1);
        assert!(metrics.render_prometheus().contains("seen 1"));
    }
}
