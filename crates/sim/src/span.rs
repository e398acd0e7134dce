//! Causal span derivation over the trace stream, with critical-path
//! latency attribution.
//!
//! The simulators emit a flat [`TraceEvent`] stream (see [`crate::trace`]).
//! This module reconstructs, per completed job, a causal span — gateway
//! ingress → dispatch queue wait → governor wake/boot → execute →
//! platform overhead → network response — plus node-scoped lifecycle
//! spans, cross-linked by job id and worker id. Because the trace is a
//! pure function of configuration + seed, the derived spans are too:
//! equal seeds give bit-identical span trees, and the exporters in
//! [`crate::chrome`] preserve that byte-for-byte.
//!
//! Each job's end-to-end latency decomposes *exactly* (in integer
//! microseconds) into five phases:
//!
//! | phase      | interval                                             |
//! |------------|------------------------------------------------------|
//! | `queue`    | enqueue → start, minus any boot overlap              |
//! | `boot`     | portion of the wait the assigned worker spent booting |
//! | `exec`     | pure function execution                              |
//! | `overhead` | platform overhead before the response hits the wire  |
//! | `response` | response-sent → completion (network transfer)        |
//!
//! so `queue + boot + exec + overhead + response == completed - enqueued`
//! for every [`JobSpan`] — the invariant the parity suite property-tests.
//!
//! # Examples
//!
//! ```
//! use microfaas_sim::span::{Phase, SpanTree};
//! use microfaas_sim::trace::{TraceBuffer, TraceEvent, TraceSink, WorkerState};
//! use microfaas_sim::SimTime;
//!
//! let mut t = TraceBuffer::new(64);
//! let us = SimTime::from_micros;
//! t.record(us(0), TraceEvent::JobEnqueued { job: 1, function: "CascSHA" });
//! t.record(us(0), TraceEvent::WakeRequested { worker: 0, reason: "dispatch" });
//! t.record(us(10), TraceEvent::WorkerStateChange { worker: 0, state: WorkerState::Booting });
//! t.record(us(110), TraceEvent::WorkerStateChange { worker: 0, state: WorkerState::Idle });
//! t.record(us(110), TraceEvent::JobStarted { job: 1, function: "CascSHA", worker: 0 });
//! t.record(us(110), TraceEvent::WorkerStateChange { worker: 0, state: WorkerState::Executing });
//! t.record(us(310), TraceEvent::ResponseSent { job: 1, function: "CascSHA", worker: 0 });
//! t.record(
//!     us(330),
//!     TraceEvent::JobCompleted {
//!         job: 1,
//!         function: "CascSHA",
//!         worker: 0,
//!         exec: microfaas_sim::SimDuration::from_micros(190),
//!         overhead: microfaas_sim::SimDuration::from_micros(30),
//!     },
//! );
//!
//! let tree = SpanTree::from_buffer(&t);
//! let span = tree.job(1).unwrap();
//! assert_eq!(span.phase(Phase::Queue).as_micros(), 10); // waiting for power-on
//! assert_eq!(span.phase(Phase::Boot).as_micros(), 100);
//! assert_eq!(span.phase(Phase::Exec).as_micros(), 190);
//! assert_eq!(span.phase(Phase::Overhead).as_micros(), 10);
//! assert_eq!(span.phase(Phase::Response).as_micros(), 20);
//! assert_eq!(span.end_to_end().as_micros(), 330);
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::MetricsRegistry;
use crate::stats::Samples;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceBuffer, TraceEvent, TraceRecord, WorkerState};

/// One of the five latency phases a request's end-to-end time
/// decomposes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Time queued at the orchestrator waiting for a worker (excluding
    /// any boot the wait overlapped).
    Queue,
    /// Portion of the wait the assigned worker spent booting or
    /// rebooting — the paper's 1.51 s cold-boot cost surfaces here.
    Boot,
    /// Pure function execution.
    Exec,
    /// Platform overhead between execution end and the response
    /// leaving the worker.
    Overhead,
    /// Network response time: response-sent until the orchestrator
    /// commits the completion.
    Response,
}

impl Phase {
    /// Every phase, in causal order.
    pub const ALL: [Phase; 5] = [
        Phase::Queue,
        Phase::Boot,
        Phase::Exec,
        Phase::Overhead,
        Phase::Response,
    ];

    /// Lower-case label used in reports and exported metrics.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Queue => "queue",
            Phase::Boot => "boot",
            Phase::Exec => "exec",
            Phase::Overhead => "overhead",
            Phase::Response => "response",
        }
    }

    /// Position in [`Phase::ALL`], for per-phase tables.
    pub fn index(self) -> usize {
        match self {
            Phase::Queue => 0,
            Phase::Boot => 1,
            Phase::Exec => 2,
            Phase::Overhead => 3,
            Phase::Response => 4,
        }
    }
}

/// The causal span of one completed job, with its exact phase
/// decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpan {
    /// Job id, unique within the run.
    pub job: u64,
    /// Function name label.
    pub function: &'static str,
    /// Worker that completed the job.
    pub worker: usize,
    /// Whether the job was served by the result cache (a hit or a
    /// coalesced follower). Cached spans never execute: boot, exec,
    /// overhead, and response are all zero, and the queue phase alone
    /// carries the end-to-end time, so the five-phase sum invariant
    /// holds unchanged.
    pub cached: bool,
    /// When the job entered the dispatch queue.
    pub enqueued: SimTime,
    /// When the (final) execution attempt began.
    pub started: SimTime,
    /// When the response left the worker.
    pub response_sent: SimTime,
    /// When the orchestrator committed the completion.
    pub completed: SimTime,
    phases: [SimDuration; 5],
}

impl JobSpan {
    /// Duration of one phase.
    pub fn phase(&self, phase: Phase) -> SimDuration {
        self.phases[phase.index()]
    }

    /// All five phase durations, in [`Phase::ALL`] order.
    pub fn phases(&self) -> [SimDuration; 5] {
        self.phases
    }

    /// End-to-end latency; always equals the sum of the five phases.
    pub fn end_to_end(&self) -> SimDuration {
        self.completed.duration_since(self.enqueued)
    }

    /// Renders a terminal latency waterfall: one bar per phase, offset
    /// to its causal position within the end-to-end window.
    pub fn waterfall(&self) -> String {
        const WIDTH: usize = 48;
        let total = self.end_to_end().as_micros();
        let mut out = format!(
            "job #{} {} · worker {} · end-to-end {:.3} ms\n",
            self.job,
            self.function,
            self.worker,
            self.end_to_end().as_millis_f64()
        );
        let mut offset: u64 = 0;
        for phase in Phase::ALL {
            let dur = self.phase(phase).as_micros();
            let mut bar = [b' '; WIDTH];
            if total > 0 && dur > 0 {
                let a = (offset as usize * WIDTH) / total as usize;
                let mut b = ((offset + dur) as usize * WIDTH) / total as usize;
                let a = a.min(WIDTH - 1);
                if b <= a {
                    b = a + 1;
                }
                for slot in bar.iter_mut().take(b.min(WIDTH)).skip(a) {
                    *slot = b'#';
                }
            }
            let share = if total > 0 {
                100.0 * dur as f64 / total as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<9} |{}| {:>10.3} ms {:>5.1}%",
                phase.label(),
                std::str::from_utf8(&bar).expect("ascii bar"),
                SimDuration::from_micros(dur).as_millis_f64(),
                share
            );
            offset += dur;
        }
        out
    }
}

/// One contiguous stretch a worker spent in a lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleSpan {
    /// Cluster index of the worker.
    pub worker: usize,
    /// The state held over the interval.
    pub state: WorkerState,
    /// Interval start.
    pub start: SimTime,
    /// Interval end (exclusive).
    pub end: SimTime,
}

/// An injected fault, kept as an instant mark for the exporters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultMark {
    /// Worker the fault struck.
    pub worker: usize,
    /// Fault kind label.
    pub fault: &'static str,
    /// When it fired.
    pub at: SimTime,
}

/// A power-on request, kept as an instant mark linking governor
/// decisions to the boot spans they cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakeMark {
    /// Worker being powered on.
    pub worker: usize,
    /// Why (`"dispatch"`, `"requeue"`, `"prewarm"`).
    pub reason: &'static str,
    /// When the orchestrator actuated the GPIO channel.
    pub at: SimTime,
}

/// Per-worker lifecycle tracking used during derivation.
#[derive(Debug, Default)]
struct Track {
    intervals: Vec<(u64, u64, WorkerState)>,
    current: Option<(WorkerState, u64)>,
}

impl Track {
    fn change(&mut self, at: u64, state: WorkerState) {
        if let Some((prev, since)) = self.current.take() {
            if at > since {
                self.intervals.push((since, at, prev));
            }
        }
        self.current = Some((state, at));
    }

    /// Micros of `[from, until]` the worker spent booting or rebooting.
    fn boot_overlap(&self, from: u64, until: u64) -> u64 {
        let mut total = 0;
        for &(start, end, state) in &self.intervals {
            if start >= until {
                break;
            }
            if matches!(state, WorkerState::Booting | WorkerState::Rebooting) {
                let lo = start.max(from);
                let hi = end.min(until);
                if hi > lo {
                    total += hi - lo;
                }
            }
        }
        if let Some((state, since)) = self.current {
            if matches!(state, WorkerState::Booting | WorkerState::Rebooting) {
                let lo = since.max(from);
                if until > lo {
                    total += until - lo;
                }
            }
        }
        total
    }
}

/// In-flight bookkeeping for one job during derivation. The function
/// label is read off the completion event, so it is not held here.
#[derive(Debug)]
struct Pending {
    enqueued: u64,
    started: Option<(u64, usize)>,
    response: Option<u64>,
    cached: bool,
}

/// The derived causal structure of one traced run: per-job spans,
/// per-worker lifecycle spans, and instant marks, all cross-linked by
/// job id and worker id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTree {
    jobs: Vec<JobSpan>,
    lifecycle: Vec<LifecycleSpan>,
    faults: Vec<FaultMark>,
    wakes: Vec<WakeMark>,
    end: SimTime,
    workers: usize,
    skipped: u64,
}

impl SpanTree {
    /// Derives the span tree from trace records in emission order.
    ///
    /// Completed jobs whose start anchor was lost (e.g. overwritten in
    /// a saturated ring buffer) are counted in [`SpanTree::skipped`]
    /// rather than guessed at.
    pub fn derive<'a, I>(records: I) -> SpanTree
    where
        I: IntoIterator<Item = &'a TraceRecord>,
    {
        let mut tracks: BTreeMap<usize, Track> = BTreeMap::new();
        let mut pending: BTreeMap<u64, Pending> = BTreeMap::new();
        let mut tree = SpanTree::default();

        for record in records {
            let at = record.at.as_micros();
            tree.end = tree.end.max(record.at);
            match record.event {
                TraceEvent::WorkerStateChange { worker, state } => {
                    tree.workers = tree.workers.max(worker + 1);
                    tracks.entry(worker).or_default().change(at, state);
                }
                TraceEvent::JobEnqueued { job, .. } => {
                    pending.entry(job).or_insert(Pending {
                        enqueued: at,
                        started: None,
                        response: None,
                        cached: false,
                    });
                }
                TraceEvent::JobStarted { job, worker, .. } => {
                    tree.workers = tree.workers.max(worker + 1);
                    let p = pending.entry(job).or_insert(Pending {
                        enqueued: at,
                        started: None,
                        response: None,
                        cached: false,
                    });
                    // A retried job restarts its serving phases: the
                    // last start wins and any earlier response copy is
                    // discarded.
                    p.started = Some((at, worker));
                    p.response = None;
                }
                TraceEvent::ResponseSent { job, .. } => {
                    if let Some(p) = pending.get_mut(&job) {
                        if p.started.is_some() && p.response.is_none() {
                            p.response = Some(at);
                        }
                    }
                }
                TraceEvent::CacheHit { job, .. } | TraceEvent::Coalesced { job, .. } => {
                    if let Some(p) = pending.get_mut(&job) {
                        p.cached = true;
                    }
                }
                TraceEvent::JobCompleted {
                    job,
                    function,
                    worker,
                    exec,
                    ..
                } => {
                    tree.workers = tree.workers.max(worker + 1);
                    match pending.remove(&job) {
                        Some(p) if p.started.is_some() => {
                            let track = tracks.entry(worker).or_default();
                            tree.jobs
                                .push(build_span(job, function, worker, at, exec, &p, track));
                        }
                        // A job the cache served never starts: its whole
                        // end-to-end time is queue wait, with zero boot,
                        // exec, overhead, and response — the sum invariant
                        // holds trivially.
                        Some(p) if p.cached => {
                            let enqueued = p.enqueued.min(at);
                            tree.jobs.push(JobSpan {
                                job,
                                function,
                                worker,
                                cached: true,
                                enqueued: SimTime::from_micros(enqueued),
                                started: SimTime::from_micros(at),
                                response_sent: SimTime::from_micros(at),
                                completed: SimTime::from_micros(at),
                                phases: [
                                    SimDuration::from_micros(at - enqueued),
                                    SimDuration::ZERO,
                                    SimDuration::ZERO,
                                    SimDuration::ZERO,
                                    SimDuration::ZERO,
                                ],
                            });
                        }
                        _ => tree.skipped += 1,
                    }
                }
                TraceEvent::JobTimedOut { job, .. }
                | TraceEvent::JobShed { job, .. }
                | TraceEvent::JobFailed { job, .. } => {
                    // Terminal non-completions never become spans.
                    pending.remove(&job);
                }
                TraceEvent::FaultInjected { worker, fault } => {
                    tree.workers = tree.workers.max(worker + 1);
                    tree.faults.push(FaultMark {
                        worker,
                        fault,
                        at: record.at,
                    });
                }
                TraceEvent::WakeRequested { worker, reason } => {
                    tree.workers = tree.workers.max(worker + 1);
                    tree.wakes.push(WakeMark {
                        worker,
                        reason,
                        at: record.at,
                    });
                }
                TraceEvent::JobRequeued { .. }
                | TraceEvent::JobRetryScheduled { .. }
                | TraceEvent::PowerSample { .. }
                | TraceEvent::NetTransfer { .. }
                | TraceEvent::PlacementDecision { .. }
                | TraceEvent::CacheMiss { .. }
                | TraceEvent::GovernorTransition { .. }
                | TraceEvent::BudgetBreach { .. }
                | TraceEvent::BudgetAction { .. } => {}
            }
        }

        // Close open lifecycle intervals at the trace horizon, then
        // flatten per worker in (worker, start) order — BTreeMap
        // iteration plus in-order appends make this canonical.
        let end = tree.end.as_micros();
        for (&worker, track) in &mut tracks {
            if let Some((state, since)) = track.current.take() {
                if end > since {
                    track.intervals.push((since, end, state));
                }
            }
            for &(start, stop, state) in &track.intervals {
                tree.lifecycle.push(LifecycleSpan {
                    worker,
                    state,
                    start: SimTime::from_micros(start),
                    end: SimTime::from_micros(stop),
                });
            }
        }
        tree.jobs.sort_by_key(|s| s.job);
        tree
    }

    /// Derives the span tree from a ring buffer's retained records.
    pub fn from_buffer(buffer: &TraceBuffer) -> SpanTree {
        SpanTree::derive(buffer.iter())
    }

    /// Completed-job spans, sorted by job id.
    pub fn jobs(&self) -> &[JobSpan] {
        &self.jobs
    }

    /// The span of one job, if it completed inside the trace.
    pub fn job(&self, id: u64) -> Option<&JobSpan> {
        self.jobs
            .binary_search_by_key(&id, |s| s.job)
            .ok()
            .map(|i| &self.jobs[i])
    }

    /// Worker lifecycle spans, sorted by (worker, start).
    pub fn lifecycle(&self) -> &[LifecycleSpan] {
        &self.lifecycle
    }

    /// Injected-fault marks, in trace order.
    pub fn faults(&self) -> &[FaultMark] {
        &self.faults
    }

    /// Power-on request marks, in trace order.
    pub fn wakes(&self) -> &[WakeMark] {
        &self.wakes
    }

    /// The latest instant observed in the trace.
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Number of worker tracks (max worker index + 1).
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Completed jobs whose causal anchors were missing from the trace
    /// (dropped by a saturated ring buffer), skipped rather than
    /// mis-attributed.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }
}

fn build_span(
    job: u64,
    function: &'static str,
    worker: usize,
    completed: u64,
    exec: SimDuration,
    p: &Pending,
    track: &Track,
) -> JobSpan {
    let (started, _) = p.started.expect("caller checked");
    let enqueued = p.enqueued.min(started);
    let wait = started - enqueued;
    let boot = track.boot_overlap(enqueued, started).min(wait);
    let queue = wait - boot;
    let serve = completed.saturating_sub(started);
    let exec_us = exec.as_micros().min(serve);
    // A missing response anchor collapses the response phase to zero;
    // clamping keeps every phase non-negative even on odd traces.
    let response_at = p
        .response
        .unwrap_or(completed)
        .clamp(started + exec_us, completed);
    let overhead = response_at - started - exec_us;
    let response = completed - response_at;
    JobSpan {
        job,
        function,
        worker,
        cached: false,
        enqueued: SimTime::from_micros(enqueued),
        started: SimTime::from_micros(started),
        response_sent: SimTime::from_micros(response_at),
        completed: SimTime::from_micros(completed),
        phases: [
            SimDuration::from_micros(queue),
            SimDuration::from_micros(boot),
            SimDuration::from_micros(exec_us),
            SimDuration::from_micros(overhead),
            SimDuration::from_micros(response),
        ],
    }
}

/// Upper bucket bounds (seconds) for the exported per-phase latency
/// histograms: sub-millisecond overheads up to multi-second boot and
/// queueing tails.
pub const PHASE_BUCKETS: [f64; 14] = [
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
];

/// Phase statistics over a set of spans (one scope: a cluster or one
/// function), retaining exact samples in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    jobs: usize,
    phases: [Samples; 5],
    end_to_end: Samples,
}

impl PhaseStats {
    fn record(&mut self, span: &JobSpan) {
        self.jobs += 1;
        for phase in Phase::ALL {
            self.phases[phase.index()].record(span.phase(phase).as_millis_f64());
        }
        self.end_to_end.record(span.end_to_end().as_millis_f64());
    }

    /// Number of spans aggregated.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Exact nearest-rank (p50, p95, p99) of one phase, in ms.
    fn phase_percentiles_ms(&mut self, phase: Phase) -> Option<(f64, f64, f64)> {
        let s = &mut self.phases[phase.index()];
        Some((
            s.percentile(50.0)?,
            s.percentile(95.0)?,
            s.percentile(99.0)?,
        ))
    }

    /// Mean of one phase, in ms (0 if empty).
    pub fn phase_mean_ms(&self, phase: Phase) -> f64 {
        self.phases[phase.index()].mean().unwrap_or(0.0)
    }

    /// Exact nearest-rank (p50, p95, p99) of the end-to-end latency,
    /// in ms.
    pub fn end_to_end_percentiles_ms(&mut self) -> Option<(f64, f64, f64)> {
        Some((
            self.end_to_end.percentile(50.0)?,
            self.end_to_end.percentile(95.0)?,
            self.end_to_end.percentile(99.0)?,
        ))
    }

    /// This phase's share of total attributed time, in percent.
    pub fn phase_share(&self, phase: Phase) -> f64 {
        let total: f64 = self.end_to_end.values().iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let part: f64 = self.phases[phase.index()].values().iter().sum();
        100.0 * part / total
    }
}

/// Critical-path latency attribution over a [`SpanTree`]: where did
/// each request's end-to-end time go, per cluster and per function.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    overall: PhaseStats,
    per_function: BTreeMap<&'static str, PhaseStats>,
}

impl CriticalPath {
    /// Aggregates every span in `tree`.
    pub fn analyze(tree: &SpanTree) -> CriticalPath {
        let mut cp = CriticalPath::default();
        for span in tree.jobs() {
            cp.overall.record(span);
            cp.per_function
                .entry(span.function)
                .or_default()
                .record(span);
        }
        cp
    }

    /// Cluster-wide phase statistics.
    pub fn overall(&mut self) -> &mut PhaseStats {
        &mut self.overall
    }

    /// Per-function phase statistics, sorted by function name.
    pub fn functions(&mut self) -> impl Iterator<Item = (&'static str, &mut PhaseStats)> {
        self.per_function.iter_mut().map(|(&name, s)| (name, s))
    }

    /// Renders the cluster-level per-phase breakdown table: p50/p95/p99
    /// plus mean and share of total attributed time.
    pub fn cluster_breakdown(&mut self, label: &str) -> String {
        let mut out = format!(
            "{label}: {} spans — critical-path phase breakdown (ms)\n",
            self.overall.jobs()
        );
        let _ = writeln!(
            out,
            "  {:<10} {:>10} {:>10} {:>10} {:>10} {:>7}",
            "phase", "p50", "p95", "p99", "mean", "share"
        );
        for phase in Phase::ALL {
            let (p50, p95, p99) = self
                .overall
                .phase_percentiles_ms(phase)
                .unwrap_or((0.0, 0.0, 0.0));
            let _ = writeln!(
                out,
                "  {:<10} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>6.1}%",
                phase.label(),
                p50,
                p95,
                p99,
                self.overall.phase_mean_ms(phase),
                self.overall.phase_share(phase)
            );
        }
        let (p50, p95, p99) = self
            .overall
            .end_to_end_percentiles_ms()
            .unwrap_or((0.0, 0.0, 0.0));
        let mean = self.overall.end_to_end.mean().unwrap_or(0.0);
        let _ = writeln!(
            out,
            "  {:<10} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>6.1}%",
            "end-to-end", p50, p95, p99, mean, 100.0
        );
        out
    }

    /// Renders the per-function table: mean per phase plus end-to-end
    /// p50/p95/p99.
    pub fn function_breakdown(&mut self) -> String {
        let mut out = format!(
            "  {:<12} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            "function", "jobs", "queue", "boot", "exec", "ovhd", "resp", "p50", "p95", "p99"
        );
        for (name, stats) in self.per_function.iter_mut() {
            let (p50, p95, p99) = stats.end_to_end_percentiles_ms().unwrap_or((0.0, 0.0, 0.0));
            let _ = writeln!(
                out,
                "  {:<12} {:>5} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
                name,
                stats.jobs(),
                stats.phase_mean_ms(Phase::Queue),
                stats.phase_mean_ms(Phase::Boot),
                stats.phase_mean_ms(Phase::Exec),
                stats.phase_mean_ms(Phase::Overhead),
                stats.phase_mean_ms(Phase::Response),
                p50,
                p95,
                p99
            );
        }
        out
    }

    /// Publishes every phase observation into `metrics` as the
    /// fixed-bucket histograms `{prefix}_span_phase_seconds{phase=...}`
    /// plus `{prefix}_span_end_to_end_seconds` and a
    /// `{prefix}_spans_total` counter, so the breakdown rides the
    /// existing Prometheus exposition (percentiles recoverable with
    /// [`MetricsRegistry::histogram_quantile`]).
    pub fn publish_metrics(&self, metrics: &mut MetricsRegistry, prefix: &str) {
        for phase in Phase::ALL {
            let h = metrics.histogram(
                &format!("{prefix}_span_phase_seconds{{phase=\"{}\"}}", phase.label()),
                &PHASE_BUCKETS,
            );
            for &ms in self.overall.phases[phase.index()].values() {
                metrics.observe(h, ms / 1e3);
            }
        }
        let e2e = metrics.histogram(&format!("{prefix}_span_end_to_end_seconds"), &PHASE_BUCKETS);
        for &ms in self.overall.end_to_end.values() {
            metrics.observe(e2e, ms / 1e3);
        }
        let total = metrics.counter(&format!("{prefix}_spans_total"));
        metrics.add(total, self.overall.jobs() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSink;

    fn us(at: u64) -> SimTime {
        SimTime::from_micros(at)
    }

    fn simple_trace() -> TraceBuffer {
        let mut t = TraceBuffer::new(256);
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
            us(105),
            TraceEvent::WorkerStateChange {
                worker: 0,
                state: WorkerState::Idle,
            },
        );
        t.record(
            us(105),
            TraceEvent::JobStarted {
                job: 1,
                function: "CascSHA",
                worker: 0,
            },
        );
        t.record(
            us(105),
            TraceEvent::WorkerStateChange {
                worker: 0,
                state: WorkerState::Executing,
            },
        );
        t.record(
            us(305),
            TraceEvent::ResponseSent {
                job: 1,
                function: "CascSHA",
                worker: 0,
            },
        );
        t.record(
            us(325),
            TraceEvent::JobCompleted {
                job: 1,
                function: "CascSHA",
                worker: 0,
                exec: SimDuration::from_micros(180),
                overhead: SimDuration::from_micros(40),
            },
        );
        t
    }

    #[test]
    fn phases_decompose_exactly() {
        let tree = SpanTree::from_buffer(&simple_trace());
        assert_eq!(tree.jobs().len(), 1);
        assert_eq!(tree.skipped(), 0);
        let span = tree.job(1).unwrap();
        assert_eq!(span.phase(Phase::Queue).as_micros(), 5);
        assert_eq!(span.phase(Phase::Boot).as_micros(), 100);
        assert_eq!(span.phase(Phase::Exec).as_micros(), 180);
        assert_eq!(span.phase(Phase::Overhead).as_micros(), 20);
        assert_eq!(span.phase(Phase::Response).as_micros(), 20);
        let sum: u64 = Phase::ALL.iter().map(|&p| span.phase(p).as_micros()).sum();
        assert_eq!(sum, span.end_to_end().as_micros());
        assert_eq!(tree.wakes().len(), 1);
        assert_eq!(tree.worker_count(), 1);
    }

    #[test]
    fn lifecycle_spans_close_at_trace_end() {
        let tree = SpanTree::from_buffer(&simple_trace());
        let states: Vec<(WorkerState, u64, u64)> = tree
            .lifecycle()
            .iter()
            .map(|s| (s.state, s.start.as_micros(), s.end.as_micros()))
            .collect();
        assert_eq!(
            states,
            vec![
                (WorkerState::Booting, 5, 105),
                // Idle -> Executing at the same instant collapses the
                // zero-length Idle interval away.
                (WorkerState::Executing, 105, 325),
            ]
        );
    }

    #[test]
    fn retried_job_uses_its_final_attempt() {
        let mut t = TraceBuffer::new(256);
        t.record(
            us(0),
            TraceEvent::JobEnqueued {
                job: 3,
                function: "AES128",
            },
        );
        t.record(
            us(10),
            TraceEvent::JobStarted {
                job: 3,
                function: "AES128",
                worker: 0,
            },
        );
        t.record(
            us(40),
            TraceEvent::ResponseSent {
                job: 3,
                function: "AES128",
                worker: 0,
            },
        );
        // Worker crashed mid-transfer: requeue and run again elsewhere.
        t.record(
            us(50),
            TraceEvent::JobRequeued {
                job: 3,
                function: "AES128",
                worker: 0,
            },
        );
        t.record(
            us(100),
            TraceEvent::JobStarted {
                job: 3,
                function: "AES128",
                worker: 1,
            },
        );
        t.record(
            us(130),
            TraceEvent::ResponseSent {
                job: 3,
                function: "AES128",
                worker: 1,
            },
        );
        t.record(
            us(140),
            TraceEvent::JobCompleted {
                job: 3,
                function: "AES128",
                worker: 1,
                exec: SimDuration::from_micros(25),
                overhead: SimDuration::from_micros(15),
            },
        );
        let tree = SpanTree::from_buffer(&t);
        let span = tree.job(3).unwrap();
        assert_eq!(span.started.as_micros(), 100);
        assert_eq!(
            span.response_sent.as_micros(),
            130,
            "first attempt's response discarded"
        );
        assert_eq!(span.worker, 1);
        // queue = 100 (no boot tracked), exec = 25, overhead = 5, response = 10.
        assert_eq!(span.phase(Phase::Queue).as_micros(), 100);
        assert_eq!(span.phase(Phase::Exec).as_micros(), 25);
        assert_eq!(span.phase(Phase::Overhead).as_micros(), 5);
        assert_eq!(span.phase(Phase::Response).as_micros(), 10);
        let sum: u64 = Phase::ALL.iter().map(|&p| span.phase(p).as_micros()).sum();
        assert_eq!(sum, span.end_to_end().as_micros());
    }

    #[test]
    fn cache_hit_spans_decompose_to_pure_queue_time() {
        let mut t = TraceBuffer::new(256);
        t.record(
            us(100),
            TraceEvent::JobEnqueued {
                job: 9,
                function: "CascSHA",
            },
        );
        t.record(
            us(100),
            TraceEvent::CacheHit {
                job: 9,
                function: "CascSHA",
                key: 7,
            },
        );
        t.record(
            us(100),
            TraceEvent::JobCompleted {
                job: 9,
                function: "CascSHA",
                worker: 0,
                exec: SimDuration::ZERO,
                overhead: SimDuration::ZERO,
            },
        );
        // A coalesced follower completes later, at its leader's finish.
        t.record(
            us(200),
            TraceEvent::JobEnqueued {
                job: 10,
                function: "CascSHA",
            },
        );
        t.record(
            us(200),
            TraceEvent::Coalesced {
                job: 10,
                leader: 8,
                function: "CascSHA",
            },
        );
        t.record(
            us(450),
            TraceEvent::JobCompleted {
                job: 10,
                function: "CascSHA",
                worker: 2,
                exec: SimDuration::ZERO,
                overhead: SimDuration::ZERO,
            },
        );
        let tree = SpanTree::from_buffer(&t);
        assert_eq!(tree.skipped(), 0);

        let hit = tree.job(9).unwrap();
        assert!(hit.cached);
        for phase in Phase::ALL {
            assert_eq!(hit.phase(phase).as_micros(), 0);
        }
        assert_eq!(hit.end_to_end().as_micros(), 0);

        let follower = tree.job(10).unwrap();
        assert!(follower.cached);
        assert_eq!(follower.phase(Phase::Queue).as_micros(), 250);
        assert_eq!(follower.phase(Phase::Boot).as_micros(), 0);
        assert_eq!(follower.phase(Phase::Exec).as_micros(), 0);
        let sum: u64 = Phase::ALL
            .iter()
            .map(|&p| follower.phase(p).as_micros())
            .sum();
        assert_eq!(sum, follower.end_to_end().as_micros());
    }

    #[test]
    fn completed_job_without_anchors_is_skipped_not_guessed() {
        let mut t = TraceBuffer::new(256);
        t.record(
            us(99),
            TraceEvent::JobCompleted {
                job: 42,
                function: "MatMul",
                worker: 0,
                exec: SimDuration::from_micros(10),
                overhead: SimDuration::from_micros(5),
            },
        );
        let tree = SpanTree::from_buffer(&t);
        assert!(tree.jobs().is_empty());
        assert_eq!(tree.skipped(), 1);
    }

    #[test]
    fn terminal_non_completions_never_become_spans() {
        let mut t = TraceBuffer::new(256);
        t.record(
            us(0),
            TraceEvent::JobEnqueued {
                job: 5,
                function: "MatMul",
            },
        );
        t.record(
            us(1),
            TraceEvent::JobStarted {
                job: 5,
                function: "MatMul",
                worker: 0,
            },
        );
        t.record(
            us(9),
            TraceEvent::JobTimedOut {
                job: 5,
                function: "MatMul",
                worker: 0,
            },
        );
        let tree = SpanTree::from_buffer(&t);
        assert!(tree.jobs().is_empty());
        assert_eq!(tree.skipped(), 0);
    }

    #[test]
    fn waterfall_renders_offset_bars() {
        let tree = SpanTree::from_buffer(&simple_trace());
        let art = tree.job(1).unwrap().waterfall();
        assert!(art.contains("job #1 CascSHA"), "{art}");
        for phase in Phase::ALL {
            assert!(art.contains(phase.label()), "{art}");
        }
        assert!(art.contains('#'), "{art}");
    }

    #[test]
    fn critical_path_aggregates_and_publishes_histograms() {
        let tree = SpanTree::from_buffer(&simple_trace());
        let mut cp = CriticalPath::analyze(&tree);
        assert_eq!(cp.overall().jobs(), 1);
        let (p50, p95, p99) = cp.overall().phase_percentiles_ms(Phase::Exec).unwrap();
        assert_eq!((p50, p95, p99), (0.18, 0.18, 0.18));
        let table = cp.cluster_breakdown("micro");
        assert!(table.contains("end-to-end"), "{table}");
        let funcs = cp.function_breakdown();
        assert!(funcs.contains("CascSHA"), "{funcs}");

        let mut metrics = MetricsRegistry::new();
        cp.publish_metrics(&mut metrics, "micro");
        let expo = metrics.render_prometheus();
        assert!(
            expo.contains("micro_span_phase_seconds_bucket{phase=\"exec\",le=\"0.001\"} 1"),
            "{expo}"
        );
        assert!(expo.contains("micro_spans_total 1"), "{expo}");
    }

    #[test]
    fn shares_sum_to_one_hundred_percent() {
        let tree = SpanTree::from_buffer(&simple_trace());
        let mut cp = CriticalPath::analyze(&tree);
        let total: f64 = Phase::ALL
            .iter()
            .map(|&p| cp.overall().phase_share(p))
            .sum();
        assert!((total - 100.0).abs() < 1e-9, "{total}");
    }
}
