//! The `--trace` pass: per-layer counts and costs, measured from outside
//! the engines.
//!
//! Counts come from a [`CountingSink`] attached through
//! `Observer::tracing` to the workload's traced engine calls. Costs come
//! from two methods, both timing public entry points:
//!
//! * ablation — the time difference between two entry points on the
//!   same configs (streaming minus materialized, attributed minus plain,
//!   monitored minus plain, traced minus untraced, a sweep minus the same
//!   points run directly);
//! * replay — feeding one layer's public function the workload's own
//!   inputs (its arrival process, popularity, fleet size, placements,
//!   and a reservoir of the traced run's latencies).
//!
//! The open-loop probes run on the workload's open-loop *twins* (see
//! [`twins`]). Every probe runs on every workload, so every trace pass
//! reports every metric; README.md says on which workload each one
//! should move.

use std::hint::black_box;
use std::time::Instant;

use microfaas::arrivals::{ArrivalState, FunctionPicker, Scenario};
use microfaas::conventional::{run_conventional, run_conventional_with};
use microfaas::experiment::scenario_sweep_cached_jobs;
use microfaas::micro::{run_microfaas, run_microfaas_with};
use microfaas::openloop::{
    run_open_loop, run_open_loop_monitored_streaming, run_open_loop_streaming,
    run_open_loop_streaming_attributed, run_open_loop_with, NullSink, OpenLoopConfig, OpenLoopRun,
    STREAMING_QUANTILE_EPSILON,
};
use microfaas::CacheConfig;
use microfaas_energy::attribution::{EnergyLedger, IdlePolicy};
use microfaas_sched::{GovernorKind, NodeView, PlacementKind, PolicyEngine};
use microfaas_sim::telemetry::{evaluate_alerts, AlertPolicy, TelemetryConfig, TelemetrySeries};
use microfaas_sim::trace::{Observer, TraceEvent, TraceSink, WorkerState};
use microfaas_sim::{EventQueue, Jobs, OnlineStats, QuantileSketch, Rng, SimDuration, SimTime};

use crate::measure::median;
use crate::record::TraceReport;
use crate::workloads::{
    capacity_config, flash_config, observed_config, paper_pair, sweep_calls, sweep_shape, Scale,
    Workload,
};
use crate::Better;

/// Every trace event kind the simulators emit, in the order of
/// [`kind_index`]. `trace.records.<kind>` is reported for each.
pub const TRACE_KINDS: [&str; 21] = [
    "worker_state_change",
    "job_enqueued",
    "job_started",
    "job_completed",
    "job_timed_out",
    "power_sample",
    "net_transfer",
    "fault_injected",
    "job_requeued",
    "job_retry_scheduled",
    "job_shed",
    "job_failed",
    "placement_decision",
    "governor_transition",
    "wake_requested",
    "response_sent",
    "cache_hit",
    "cache_miss",
    "coalesced",
    "budget_breach",
    "budget_action",
];

/// The per-layer metrics other than the per-kind record counts, with
/// their units. Names are `<module>.<metric>` after the layer measured.
pub const LAYER_METRICS: [(&str, &str, Better); 31] = [
    ("queue.inflight_mean", "count", Better::Lower),
    ("queue.replay_ns_per_op", "ns", Better::Lower),
    ("arrivals.count", "count", Better::Lower),
    ("arrivals.ns_per_gap", "ns", Better::Lower),
    ("arrivals.ns_per_pick", "ns", Better::Lower),
    ("placement.calls", "count", Better::Lower),
    ("placement.ns_per_call", "ns", Better::Lower),
    ("governor.transitions", "count", Better::Lower),
    ("governor.wakes", "count", Better::Lower),
    ("governor.power_cycles", "count", Better::Lower),
    ("cache.lookups", "count", Better::Lower),
    ("cache.hit_ratio", "ratio", Better::Higher),
    ("stats.ns_per_record", "ns", Better::Lower),
    ("stats.streaming_ns_per_job", "ns", Better::Lower),
    ("attribution.ns_per_job", "ns", Better::Lower),
    ("telemetry.ns_per_job", "ns", Better::Lower),
    ("telemetry.windows", "count", Better::Lower),
    ("telemetry.dropped_windows", "count", Better::Lower),
    ("export.alerts_ms", "ms", Better::Lower),
    ("export.series_csv_ms", "ms", Better::Lower),
    ("export.series_prometheus_ms", "ms", Better::Lower),
    ("export.counter_tracks_ms", "ms", Better::Lower),
    ("export.ledger_csv_ms", "ms", Better::Lower),
    ("export.ledger_prometheus_ms", "ms", Better::Lower),
    ("trace.records", "count", Better::Lower),
    ("trace.ns_per_record", "ns", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
    ("micro.run_us", "us", Better::Lower),
    ("conventional.run_us", "us", Better::Lower),
    ("openloop.glue_ns_per_job", "ns", Better::Lower),
    ("experiment.ns_per_point", "ns", Better::Lower),
];

/// Every per-layer metric a trace pass reports: [`LAYER_METRICS`]
/// followed by one record count per [`TRACE_KINDS`] entry.
pub fn per_layer_metrics() -> Vec<(String, &'static str, Better)> {
    LAYER_METRICS
        .iter()
        .map(|&(name, unit, better)| (name.to_string(), unit, better))
        .chain(
            TRACE_KINDS
                .iter()
                .map(|kind| (format!("trace.records.{kind}"), "count", Better::Lower)),
        )
        .collect()
}

/// The position of `event`'s kind in [`TRACE_KINDS`]. The match is
/// exhaustive, so a new event kind fails the build here until it is
/// listed.
fn kind_index(event: &TraceEvent) -> usize {
    match event {
        TraceEvent::WorkerStateChange { .. } => 0,
        TraceEvent::JobEnqueued { .. } => 1,
        TraceEvent::JobStarted { .. } => 2,
        TraceEvent::JobCompleted { .. } => 3,
        TraceEvent::JobTimedOut { .. } => 4,
        TraceEvent::PowerSample { .. } => 5,
        TraceEvent::NetTransfer { .. } => 6,
        TraceEvent::FaultInjected { .. } => 7,
        TraceEvent::JobRequeued { .. } => 8,
        TraceEvent::JobRetryScheduled { .. } => 9,
        TraceEvent::JobShed { .. } => 10,
        TraceEvent::JobFailed { .. } => 11,
        TraceEvent::PlacementDecision { .. } => 12,
        TraceEvent::GovernorTransition { .. } => 13,
        TraceEvent::WakeRequested { .. } => 14,
        TraceEvent::ResponseSent { .. } => 15,
        TraceEvent::CacheHit { .. } => 16,
        TraceEvent::CacheMiss { .. } => 17,
        TraceEvent::Coalesced { .. } => 18,
        TraceEvent::BudgetBreach { .. } => 19,
        TraceEvent::BudgetAction { .. } => 20,
    }
}

/// Latencies kept for the replays.
const RESERVOIR: usize = 4096;
const NOT_ENQUEUED: u64 = u64::MAX;

/// A [`TraceSink`] that counts records per kind and folds job latencies
/// into a Little's-law sum and a fixed-size uniform reservoir. Call
/// [`CountingSink::end_call`] after each engine call: job ids and the
/// simulated clock restart per call.
#[derive(Debug, Clone)]
pub struct CountingSink {
    kinds: [u64; TRACE_KINDS.len()],
    /// Power-on boots: `worker_state_change` into `booting`.
    booting: u64,
    /// Arrival instant (sim µs) per job id of the current call.
    enqueued_us: Vec<u64>,
    call_first_us: Option<u64>,
    call_last_us: u64,
    /// Σ job latency and Σ call span, sim µs.
    latency_us: u128,
    span_us: u128,
    reservoir: Vec<f64>,
    seen: u64,
    rng: Rng,
}

impl CountingSink {
    /// An empty sink; the reservoir's draws are seeded so counts and
    /// replays repeat exactly.
    pub fn new() -> Self {
        CountingSink {
            kinds: [0; TRACE_KINDS.len()],
            booting: 0,
            enqueued_us: Vec::new(),
            call_first_us: None,
            call_last_us: 0,
            latency_us: 0,
            span_us: 0,
            reservoir: Vec::with_capacity(RESERVOIR),
            seen: 0,
            rng: Rng::new(0x5245_5345_5256_4f49),
        }
    }

    fn count(&self, kind: &str) -> u64 {
        let i = TRACE_KINDS
            .iter()
            .position(|k| *k == kind)
            .expect("a listed trace kind");
        self.kinds[i]
    }

    fn records(&self) -> u64 {
        self.kinds.iter().sum()
    }

    /// Closes one engine call: its simulated span joins the Little's-law
    /// denominator and its job ids are forgotten.
    pub fn end_call(&mut self) {
        if let Some(first) = self.call_first_us.take() {
            self.span_us += u128::from(self.call_last_us - first);
        }
        self.enqueued_us.clear();
    }

    /// Mean jobs in the system by Little's law: Σ latency / Σ span.
    fn inflight_mean(&self) -> f64 {
        if self.span_us == 0 {
            0.0
        } else {
            self.latency_us as f64 / self.span_us as f64
        }
    }

    /// The sampled job latencies, µs (one placeholder second if the
    /// traced calls completed nothing).
    fn latencies_us(&self) -> Vec<f64> {
        if self.reservoir.is_empty() {
            vec![1e6]
        } else {
            self.reservoir.clone()
        }
    }

    fn sample(&mut self, latency_us: f64) {
        self.seen += 1;
        if self.reservoir.len() < RESERVOIR {
            self.reservoir.push(latency_us);
        } else {
            let j = self.rng.index(self.seen as usize);
            if j < RESERVOIR {
                self.reservoir[j] = latency_us;
            }
        }
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, at: SimTime, event: TraceEvent) {
        let i = kind_index(&event);
        debug_assert_eq!(TRACE_KINDS[i], event.kind());
        self.kinds[i] += 1;
        let now = at.as_micros();
        self.call_first_us.get_or_insert(now);
        self.call_last_us = now;
        match event {
            TraceEvent::JobEnqueued { job, .. } => {
                let job = job as usize;
                if job >= self.enqueued_us.len() {
                    self.enqueued_us.resize(job + 1, NOT_ENQUEUED);
                }
                self.enqueued_us[job] = now;
            }
            TraceEvent::JobCompleted { job, .. } => {
                let arrived = self
                    .enqueued_us
                    .get(job as usize)
                    .copied()
                    .unwrap_or(NOT_ENQUEUED);
                if arrived != NOT_ENQUEUED {
                    self.latency_us += u128::from(now - arrived);
                    self.sample((now - arrived) as f64);
                }
            }
            TraceEvent::WorkerStateChange {
                state: WorkerState::Booting,
                ..
            } => self.booting += 1,
            _ => {}
        }
    }
}

/// One span: a named interval around a call the benchmark made, and the
/// span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based id, unique within one pass.
    pub id: usize,
    /// The causing span's id, or 0 for the pass's root span.
    pub parent: usize,
    /// What was called.
    pub name: String,
    /// Offset from the pass start, µs.
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
}

/// In-memory span recorder; the parent process writes the spans out
/// when the benchmark ends.
struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            origin: Instant::now(),
            list: Vec::new(),
        }
    }

    fn begin(&mut self, parent: usize, name: impl Into<String>) -> usize {
        self.list.push(Span {
            id: self.list.len() + 1,
            parent,
            name: name.into(),
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
        });
        self.list.len()
    }

    /// Ends span `id` and returns its duration, ns.
    fn end(&mut self, id: usize) -> f64 {
        let span = &mut self.list[id - 1];
        span.dur_us = self.origin.elapsed().as_secs_f64() * 1e6 - span.start_us;
        span.dur_us * 1e3
    }

    /// Runs `f` inside a new span under `parent`; returns its output,
    /// the span id and the duration, ns.
    fn time<T>(
        &mut self,
        parent: usize,
        name: impl Into<String>,
        f: impl FnOnce() -> T,
    ) -> (T, usize, f64) {
        let id = self.begin(parent, name);
        let out = f();
        let ns = self.end(id);
        (out, id, ns)
    }
}

/// The open-loop configs the open-loop probes run on:
///
/// * `paper-closed` — the open-loop form of the 340-job paper run: 17
///   jobs each second for 20 s on the paper's 10 SBCs;
/// * `capacity-1m` — its own config;
/// * `flash-day` — the flash-crowd day cut after two hours, spike
///   included;
/// * `policy-sweeps` — every point of a pass's first two sweep calls
///   (one cache-off, one cached);
/// * `observed-1m` — its own config.
pub fn twins(workload: Workload, seed: u64, scale: Scale) -> Vec<OpenLoopConfig> {
    match workload {
        Workload::PaperClosed => vec![OpenLoopConfig::paper_arrangement(
            17,
            SimDuration::from_secs(20),
            seed,
        )],
        Workload::Capacity1m => vec![capacity_config(seed, scale)],
        Workload::FlashDay => {
            let mut config = flash_config(seed, scale);
            config.duration = SimDuration::from_secs(match scale {
                Scale::Full => 7_200,
                Scale::Smoke => 300,
            });
            vec![config]
        }
        Workload::PolicySweeps => {
            let (duration, workers, _) = sweep_shape(scale);
            sweep_calls(seed, 2)
                .into_iter()
                .flat_map(|(seed, cache)| sweep_points(duration, workers, seed, cache))
                .collect()
        }
        Workload::Observed1m => vec![observed_config(seed, scale)],
    }
}

/// The configs `scenario_sweep_cached_jobs` builds for one call, in its
/// order, so the same points can be run directly.
fn sweep_points(
    duration: SimDuration,
    workers: usize,
    seed: u64,
    cache: CacheConfig,
) -> Vec<OpenLoopConfig> {
    let mut points = Vec::new();
    for scenario in Scenario::standard_suite() {
        for placement in PlacementKind::ALL {
            for governor in GovernorKind::ALL {
                let mut config = OpenLoopConfig::paper_arrangement(1, duration, seed);
                config.workers = workers;
                config.arrival = scenario.arrival;
                config.popularity = scenario.popularity;
                config.tenants = scenario.tenants.clone();
                config.scheduler = placement;
                config.governor = governor;
                config.cache = cache;
                points.push(config);
            }
        }
    }
    points
}

/// What must agree between a traced and an untraced run of one config.
fn summary(run: &OpenLoopRun) -> (u64, u64, u64) {
    (run.completed, run.power_cycles, run.mean_power_w.to_bits())
}

/// Schedules and pops an [`EventQueue`] held at `level` pending events,
/// each new event due one sampled latency after the pop that made it.
fn replay_queue(level: f64, delays_us: &[f64], ops: usize) -> f64 {
    let level = level.round().max(1.0) as usize;
    let delay = |i: usize| SimDuration::from_micros(delays_us[i % delays_us.len()].max(1.0) as u64);
    let mut queue = EventQueue::with_capacity(level);
    for i in 0..level {
        queue.schedule(SimTime::ZERO + delay(i), i);
    }
    let start = Instant::now();
    for i in level..level + ops {
        let (now, event) = queue.pop().expect("the queue never drains");
        black_box(event);
        queue.schedule(now + delay(i), i);
    }
    start.elapsed().as_secs_f64() * 1e9 / ops as f64
}

fn distinct<T: PartialEq>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut out = Vec::new();
    for item in items {
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

/// `next_gap` over the twins' distinct arrival processes, wrapping the
/// clock at each twin's horizon.
fn replay_gaps(twins: &[OpenLoopConfig], seed: u64, ops: usize) -> f64 {
    let processes = distinct(twins.iter().map(|t| (t.arrival, t.duration)));
    let per = ops.div_ceil(processes.len());
    let start = Instant::now();
    for (process, horizon) in &processes {
        let mut rng = Rng::new(seed);
        let mut state = ArrivalState::default();
        let mut now = SimTime::ZERO;
        for _ in 0..per {
            now = now + process.next_gap(now, &mut rng, &mut state);
            if now >= SimTime::ZERO + *horizon {
                now = SimTime::ZERO;
            }
        }
        black_box(now);
    }
    start.elapsed().as_secs_f64() * 1e9 / (per * processes.len()) as f64
}

/// `FunctionPicker::pick` over the twins' distinct popularity skews.
fn replay_picks(twins: &[OpenLoopConfig], seed: u64, ops: usize) -> f64 {
    let pickers: Vec<FunctionPicker> = distinct(twins.iter().map(|t| t.popularity))
        .iter()
        .map(|p| FunctionPicker::new(p, twins[0].functions.len()))
        .collect();
    let per = ops.div_ceil(pickers.len());
    let mut rng = Rng::new(seed);
    let start = Instant::now();
    let mut sum = 0usize;
    for picker in &pickers {
        for _ in 0..per {
            sum = sum.wrapping_add(picker.pick(&mut rng));
        }
    }
    black_box(sum);
    start.elapsed().as_secs_f64() * 1e9 / (per * pickers.len()) as f64
}

/// `PolicyEngine::place` for each of the twins' placement kinds at its
/// fleet size, over seeded worker views.
fn replay_placement(twins: &[OpenLoopConfig], seed: u64, ops: usize) -> f64 {
    let kinds = distinct(twins.iter().map(|t| (t.scheduler, t.workers)));
    let per = ops.div_ceil(kinds.len());
    let mut rng = Rng::new(seed);
    let mut total_ns = 0.0;
    for &(kind, workers) in &kinds {
        let views: Vec<NodeView> = (0..workers)
            .map(|_| {
                let queued = rng.index(4);
                let busy = rng.chance(0.5);
                NodeView {
                    queued,
                    busy,
                    powered: busy || rng.chance(0.5),
                    load: (queued + usize::from(busy)) as f64,
                }
            })
            .collect();
        let mut engine = PolicyEngine::new(kind, GovernorKind::RebootPerJob, seed);
        let start = Instant::now();
        let mut sum = 0usize;
        for _ in 0..per {
            sum = sum.wrapping_add(engine.place(&views, &mut rng));
        }
        black_box(sum);
        total_ns += start.elapsed().as_secs_f64() * 1e9;
    }
    total_ns / (per * kinds.len()) as f64
}

/// The streaming latency path: one `QuantileSketch` plus one
/// `OnlineStats` record per sampled latency.
fn replay_stats(latencies_us: &[f64], ops: usize) -> f64 {
    let seconds: Vec<f64> = latencies_us.iter().map(|us| us / 1e6).collect();
    let mut sketch = QuantileSketch::with_relative_error(STREAMING_QUANTILE_EPSILON);
    let mut stats = OnlineStats::new();
    let start = Instant::now();
    for i in 0..ops {
        let v = seconds[i % seconds.len()];
        sketch.record(v);
        stats.record(v);
    }
    black_box((sketch.quantile(95.0), stats.mean()));
    start.elapsed().as_secs_f64() * 1e9 / ops as f64
}

/// The fastest of interleaved repetitions: interference on a shared
/// host only ever adds time, so the minimum is the cleanest estimate of
/// an entry point's own cost, and the difference of two minimums the
/// cleanest ablation.
fn fastest(ns: &[f64]) -> f64 {
    ns.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Repetitions and replay sizes of a trace pass. Small workloads repeat
/// their engine calls so each ablation difference spans milliseconds.
struct Effort {
    /// Interleaved repetitions of the open-loop ablations.
    reps: usize,
    /// Repetitions of the closed-loop paper pair.
    pair_reps: usize,
    /// Repetitions of the sweep-versus-direct ablation.
    sweep_reps: usize,
    /// Operations per replay.
    ops: usize,
}

impl Effort {
    fn of(workload: Workload, scale: Scale) -> Effort {
        match scale {
            Scale::Smoke => Effort {
                reps: 1,
                pair_reps: 2,
                sweep_reps: 1,
                ops: 2_000,
            },
            Scale::Full => Effort {
                reps: match workload {
                    Workload::PaperClosed => 30,
                    _ => 3,
                },
                pair_reps: 30,
                sweep_reps: 3,
                ops: 1_000_000,
            },
        }
    }
}

/// Runs the trace pass for one workload at `seed`.
pub fn trace_pass(workload: Workload, seed: u64, scale: Scale) -> TraceReport {
    let effort = Effort::of(workload, scale);
    let mut spans = Spans::new();
    let root = spans.begin(0, workload.name());
    let mut violations = Vec::new();
    let twins = twins(workload, seed, scale);
    let n = twins.len();

    // The closed-loop paper pair, untraced and traced, interleaved.
    let (micro, conventional) = paper_pair(seed);
    let (mut micro_us, mut conventional_us) = (Vec::new(), Vec::new());
    let (mut pair_ns, mut pair_traced_ns) = (Vec::new(), Vec::new());
    let mut pair_sink = None;
    let mut pair_traced_id = 0;
    for _ in 0..effort.pair_reps {
        let (_, _, m) = spans.time(root, "run_microfaas", || run_microfaas(&micro));
        let (_, _, c) = spans.time(root, "run_conventional", || run_conventional(&conventional));
        micro_us.push(m / 1e3);
        conventional_us.push(c / 1e3);
        pair_ns.push(m + c);
        let (sink, id, ns) = spans.time(
            root,
            "run_microfaas_with + run_conventional_with (traced)",
            || {
                let mut sink = CountingSink::new();
                black_box(run_microfaas_with(
                    &micro,
                    &mut Observer::tracing(&mut sink),
                ));
                sink.end_call();
                black_box(run_conventional_with(
                    &conventional,
                    &mut Observer::tracing(&mut sink),
                ));
                sink.end_call();
                sink
            },
        );
        pair_traced_ns.push(ns);
        if pair_sink.is_none() {
            pair_sink = Some(sink);
            pair_traced_id = id;
        }
    }

    // The open-loop entry points over the twins, interleaved.
    let telemetry = TelemetryConfig::default();
    let mut ns = [(); 5].map(|_| Vec::with_capacity(effort.reps));
    let mut ids = [0usize; 5];
    let mut twin_sink = None;
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let mut ledgers: Vec<EnergyLedger> = Vec::new();
    let mut series: Vec<TelemetrySeries> = Vec::new();
    let mut jobs = 0u64;
    for rep in 0..effort.reps {
        let (out, id0, t0) = spans.time(root, format!("run_open_loop_with (traced) ×{n}"), || {
            let mut sink = CountingSink::new();
            let runs: Vec<_> = twins
                .iter()
                .map(|c| {
                    let run = run_open_loop_with(c, &mut Observer::tracing(&mut sink));
                    sink.end_call();
                    summary(&run)
                })
                .collect();
            (sink, runs)
        });
        let (runs, id1, t1) = spans.time(root, format!("run_open_loop ×{n}"), || {
            twins
                .iter()
                .map(|c| summary(&run_open_loop(c)))
                .collect::<Vec<_>>()
        });
        let (completed, id2, t2) =
            spans.time(root, format!("run_open_loop_streaming ×{n}"), || {
                twins
                    .iter()
                    .map(|c| run_open_loop_streaming(c, &mut NullSink).completed)
                    .sum::<u64>()
            });
        let (out_ledgers, id3, t3) = spans.time(
            root,
            format!("run_open_loop_streaming_attributed ×{n}"),
            || {
                twins
                    .iter()
                    .map(|c| {
                        run_open_loop_streaming_attributed(
                            c,
                            &mut NullSink,
                            IdlePolicy::UsageWeighted,
                        )
                        .1
                    })
                    .collect::<Vec<_>>()
            },
        );
        let (out_series, id4, t4) = spans.time(
            root,
            format!("run_open_loop_monitored_streaming ×{n}"),
            || {
                twins
                    .iter()
                    .map(|c| run_open_loop_monitored_streaming(c, &telemetry).1)
                    .collect::<Vec<_>>()
            },
        );
        for (v, t) in ns.iter_mut().zip([t0, t1, t2, t3, t4]) {
            v.push(t);
        }
        if rep == 0 {
            ids = [id0, id1, id2, id3, id4];
            twin_sink = Some(out.0);
            (traced, plain) = (out.1, runs);
            (ledgers, series, jobs) = (out_ledgers, out_series, completed);
        }
    }
    let [traced_ns, plain_ns, streaming_ns, attributed_ns, monitored_ns] = ns.map(|v| fastest(&v));
    let [traced_id, _, _, attributed_id, monitored_id] = ids;
    let twin_sink = twin_sink.expect("at least one rep");
    let pair_sink = pair_sink.expect("at least one pair rep");

    for ((t, p), config) in traced.iter().zip(&plain).zip(&twins) {
        if t != p {
            violations.push(format!(
                "tracing perturbed a {} run: {t:?} vs {p:?}",
                config.arrival.label()
            ));
        }
    }
    let cycles: u64 = traced.iter().map(|t| t.1).sum();
    let completed: u64 = traced.iter().map(|t| t.0).sum();
    if twin_sink.booting != cycles {
        violations.push(format!(
            "{} traced boots for {cycles} power cycles",
            twin_sink.booting
        ));
    }
    if twin_sink.count("job_completed") != completed {
        violations.push(format!(
            "{} traced completions for {completed} completed jobs",
            twin_sink.count("job_completed")
        ));
    }
    for ledger in &ledgers {
        if !ledger.conserves() {
            violations.push("an attributed twin's ledger does not conserve".to_string());
        }
    }

    // The workload's own engines give the counts and the tracing cost:
    // the closed-loop pair for paper-closed, the twins otherwise.
    let (sink, counted_id, traced_cost, untraced_cost) = if workload == Workload::PaperClosed {
        (
            &pair_sink,
            pair_traced_id,
            fastest(&pair_traced_ns),
            fastest(&pair_ns),
        )
    } else {
        (&twin_sink, traced_id, traced_ns, plain_ns)
    };

    // Exports, of the first twin's series and ledger.
    let alerts = AlertPolicy::default();
    let (first_series, first_ledger) = (&series[0], &ledgers[0]);
    let export_ms = [
        spans.time(monitored_id, "evaluate_alerts", || {
            evaluate_alerts(first_series, &alerts).len()
        }),
        spans.time(monitored_id, "TelemetrySeries::to_csv", || {
            first_series.to_csv().len()
        }),
        spans.time(monitored_id, "TelemetrySeries::render_prometheus", || {
            first_series.render_prometheus().len()
        }),
        spans.time(monitored_id, "TelemetrySeries::counter_tracks", || {
            first_series.counter_tracks().len()
        }),
        spans.time(attributed_id, "EnergyLedger::to_csv", || {
            first_ledger.to_csv().len()
        }),
        spans.time(attributed_id, "EnergyLedger::render_prometheus", || {
            first_ledger.render_prometheus().len()
        }),
    ]
    .map(|(_, _, ns)| ns / 1e6);

    // Replays on the traced runs' own inputs.
    let latencies = sink.latencies_us();
    let inflight = sink.inflight_mean();
    let ops = effort.ops;
    let (queue_ns, _, _) = spans.time(counted_id, "replay EventQueue::schedule + pop", || {
        replay_queue(inflight, &latencies, ops)
    });
    let (stats_ns, _, _) = spans.time(counted_id, "replay QuantileSketch + OnlineStats", || {
        replay_stats(&latencies, ops)
    });
    let (gap_ns, _, _) = spans.time(traced_id, "replay ArrivalProcess::next_gap", || {
        replay_gaps(&twins, seed, ops)
    });
    let (pick_ns, _, _) = spans.time(traced_id, "replay FunctionPicker::pick", || {
        replay_picks(&twins, seed, ops)
    });
    let (place_ns, _, _) = spans.time(traced_id, "replay PolicyEngine::place", || {
        replay_placement(&twins, seed, ops / 10)
    });

    // The experiment layer: one cache-off sweep call against the same
    // points run directly.
    let (duration, workers, _) = sweep_shape(scale);
    let suite = Scenario::standard_suite();
    let points = sweep_points(duration, workers, seed, CacheConfig::Off);
    let (mut sweep_ns, mut direct_ns) = (Vec::new(), Vec::new());
    for _ in 0..effort.sweep_reps {
        let (_, _, t) = spans.time(root, "scenario_sweep_cached_jobs", || {
            scenario_sweep_cached_jobs(
                &suite,
                duration,
                workers,
                seed,
                &CacheConfig::Off,
                Jobs::serial(),
            )
        });
        sweep_ns.push(t);
        let (_, _, t) = spans.time(root, format!("run_open_loop ×{}", points.len()), || {
            points
                .iter()
                .map(|c| summary(&run_open_loop(c)))
                .collect::<Vec<_>>()
        });
        direct_ns.push(t);
    }

    // The glue estimate: the streaming run's time per job minus what the
    // replayed layers account for. Event pops are estimated from the
    // traced counts: one per execution end (`response_sent`), one per
    // job end (`job_completed`), two per boot, one per arrival event.
    let per_job = |x: f64| x / jobs.max(1) as f64;
    let arrivals = twin_sink.count("job_enqueued") as f64;
    let arrival_events: f64 =
        arrivals / (twins.iter().map(|t| t.arrival.batch() as f64).sum::<f64>() / n as f64);
    let completions = twin_sink.count("job_completed") as f64;
    let pops = twin_sink.count("response_sent") as f64
        + completions
        + 2.0 * twin_sink.booting as f64
        + arrival_events;
    let explained = pops * queue_ns
        + arrival_events * gap_ns
        + arrivals * pick_ns
        + twin_sink.count("job_started") as f64 * place_ns
        + completions * stats_ns;

    let records = sink.records() as f64;
    let hits = (sink.count("cache_hit") + sink.count("coalesced")) as f64;
    let lookups = hits + sink.count("cache_miss") as f64;
    let values = [
        inflight,
        queue_ns,
        sink.count("job_enqueued") as f64,
        gap_ns,
        pick_ns,
        sink.count("job_started") as f64,
        place_ns,
        sink.count("governor_transition") as f64,
        sink.count("wake_requested") as f64,
        sink.booting as f64,
        lookups,
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        stats_ns,
        per_job(streaming_ns - plain_ns),
        per_job(attributed_ns - streaming_ns),
        per_job(monitored_ns - streaming_ns),
        series.iter().map(|s| s.windows.len() as f64).sum(),
        series.iter().map(|s| s.dropped_windows as f64).sum(),
        export_ms[0],
        export_ms[1],
        export_ms[2],
        export_ms[3],
        export_ms[4],
        export_ms[5],
        records,
        (traced_cost - untraced_cost) / records.max(1.0),
        (traced_cost - untraced_cost) / untraced_cost * 100.0,
        median(&micro_us),
        median(&conventional_us),
        per_job(streaming_ns - explained),
        (fastest(&sweep_ns) - fastest(&direct_ns)) / points.len() as f64,
    ];
    let metrics: Vec<(String, f64)> = LAYER_METRICS
        .iter()
        .map(|(name, _, _)| name.to_string())
        .zip(values)
        .chain(
            TRACE_KINDS
                .iter()
                .zip(sink.kinds)
                .map(|(kind, count)| (format!("trace.records.{kind}"), count as f64)),
        )
        .collect();
    for (name, value) in &metrics {
        if !value.is_finite() {
            violations.push(format!("{name} is not finite: {value}"));
        }
    }
    spans.end(root);
    TraceReport {
        metrics,
        violations,
        spans: spans.list,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_traces_every_layer_metric_deterministically() {
        let names: Vec<String> = per_layer_metrics().into_iter().map(|m| m.0).collect();
        for workload in Workload::ALL {
            let first = trace_pass(workload, 11, Scale::Smoke);
            assert!(
                first.violations.is_empty(),
                "{}: {:?}",
                workload.name(),
                first.violations
            );
            let got: Vec<&String> = first.metrics.iter().map(|m| &m.0).collect();
            assert_eq!(got, names.iter().collect::<Vec<_>>());
            // Counts repeat exactly; only the timings move.
            let again = trace_pass(workload, 11, Scale::Smoke);
            for ((name, a), (_, b)) in first.metrics.iter().zip(&again.metrics) {
                let unit = per_layer_metrics()
                    .into_iter()
                    .find(|m| &m.0 == name)
                    .map(|m| m.1)
                    .expect("listed");
                if unit == "count" || unit == "ratio" {
                    assert_eq!(a, b, "{}: {name}", workload.name());
                }
            }
            // Every span nests under an earlier one.
            for span in &first.spans {
                assert!(span.parent < span.id, "{span:?}");
            }
        }
    }

    #[test]
    fn counting_sink_applies_littles_law() {
        let mut sink = CountingSink::new();
        for job in 0..4u64 {
            sink.record(
                SimTime::from_secs(job),
                TraceEvent::JobEnqueued {
                    job,
                    function: "CascSHA",
                },
            );
        }
        for job in 0..4u64 {
            // Each job stays 2 s: arrivals at 0..3 s, completions at 2..5 s.
            sink.record(
                SimTime::from_secs(job + 2),
                TraceEvent::JobCompleted {
                    job,
                    function: "CascSHA",
                    worker: 0,
                    exec: SimDuration::from_secs(1),
                    overhead: SimDuration::ZERO,
                },
            );
        }
        sink.end_call();
        // 8 job-seconds over a 5 s span.
        assert!((sink.inflight_mean() - 1.6).abs() < 1e-12);
        assert_eq!(sink.count("job_enqueued"), 4);
        assert_eq!(sink.records(), 8);
        assert_eq!(sink.latencies_us(), vec![2e6; 4]);
    }
}
