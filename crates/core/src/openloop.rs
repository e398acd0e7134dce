//! Open-loop (arrival-driven) simulation of the MicroFaaS cluster — the
//! paper's §IV-D mechanism taken literally: invocations *arrive* over
//! time, the orchestration plane places each one on a worker queue, and
//! workers power on and off as their queues fill and drain.
//!
//! The closed-loop simulator in [`crate::micro`] measures saturated
//! capacity; this module measures what the paper's Fig. 5 argues about —
//! how cluster power tracks offered load — plus the latency cost of
//! powering nodes down (a cold boot in front of a job).
//!
//! Placement and power policy are pluggable through `microfaas-sched`
//! (see `docs/SCHEDULING.md`): [`OpenLoopConfig::scheduler`] picks the
//! worker queue per arrival and [`OpenLoopConfig::governor`] decides
//! what a drained worker does. The historical open-loop policies
//! (`RandomStatic` — formerly `RandomQueue` — `LeastLoaded`, and
//! `PowerAware`) under the default [`GovernorKind::RebootPerJob`]
//! behave bit-identically to the pre-subsystem code.

use std::collections::VecDeque;

use microfaas_energy::attribution::{Attributor, EnergyLedger, IdlePolicy};
use microfaas_energy::EnergyMeter;
use microfaas_hw::gpio::{PowerAction, PowerController};
use microfaas_hw::sbc::{SbcNode, SbcState};
use microfaas_sched::{
    BudgetDecision, DrainAction, GovernorKind, NodeView, PlacementKind, PolicyEngine,
};
use microfaas_sim::faults::FaultKind;
use microfaas_sim::telemetry::{TelemetryConfig, TelemetrySeries};
use microfaas_sim::trace::{Observer, TraceEvent, TraceObserver, TypedObserver, WorkerState};
use microfaas_sim::{
    CounterId, EventId, EventQueue, HistogramId, MetricsRegistry, OnlineStats, QuantileSketch, Rng,
    Samples, SimDuration, SimTime, TimeWeighted,
};
use microfaas_workloads::calibration::{service_time, WorkerPlatform};
use microfaas_workloads::FunctionId;

use crate::cache::{content_key, CacheConfig, CoalesceTable, ResultCache};
use crate::closedloop::{SchedMetrics, EXEC_BUCKETS};
use crate::config::Jitter;
use crate::monitor::FlightRecorder;
use crate::recovery::FaultsConfig;

pub use crate::arrivals::ArrivalProcess;
use crate::arrivals::{
    ArrivalState, FunctionPicker, Popularity, TenantClass, TenantSummary, TenantTracker,
};

/// How the orchestration plane picks a worker queue for a new job.
///
/// Since the scheduling subsystem landed this is the full
/// [`PlacementKind`] family from `microfaas-sched`. The historical
/// open-loop policies map onto it: `RandomQueue` is now
/// [`PlacementKind::RandomStatic`] (same uniform draw, from the same
/// simulation-RNG site), and `LeastLoaded` / `PowerAware` keep their
/// names and exact picks. The alias keeps the old type name compiling.
pub type SchedulerPolicy = PlacementKind;

/// Configuration of an open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Worker (SBC) count.
    pub workers: usize,
    /// RNG seed.
    pub seed: u64,
    /// How long arrivals keep coming (the run then drains).
    pub duration: SimDuration,
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Placement policy.
    pub scheduler: SchedulerPolicy,
    /// What a drained worker does with its power state. The default
    /// [`GovernorKind::RebootPerJob`] gates nodes off the moment they
    /// drain (the paper's policy); the alternatives hold nodes at
    /// 0.128 W standby to absorb the next arrival without the 1.51 s
    /// boot — the latency-energy trade `policy_sweep` charts.
    pub governor: GovernorKind,
    /// Service-time jitter.
    pub jitter: Jitter,
    /// Functions drawn per arrival, weighted by [`OpenLoopConfig::popularity`].
    pub functions: Vec<FunctionId>,
    /// How arrivals distribute over [`OpenLoopConfig::functions`]. The
    /// default [`Popularity::Uniform`] reproduces the historical draw
    /// exactly; the skewed distributions model the Azure-style few-hot
    /// functions / long-cold-tail mix (see `docs/WORKLOADS.md`).
    pub popularity: Popularity,
    /// Multi-tenant request classes with per-class SLO targets. Empty
    /// (the default) runs single-tenant, consumes no extra RNG draws,
    /// and leaves [`OpenLoopRun::tenants`] empty.
    pub tenants: Vec<TenantClass>,
    /// Fault plan; the open-loop simulator honours **scheduled node
    /// crashes** only (the probabilistic kinds are a closed-loop
    /// concern) and [`run_open_loop_conventional`] ignores faults
    /// entirely. A crash lands only if the node is executing at that
    /// instant — a powered-off node has nothing to kill.
    pub faults: FaultsConfig,
    /// Content-addressed result cache plus in-flight coalescing (see
    /// `docs/CACHING.md`). The default [`CacheConfig::Off`] draws no
    /// extra RNG and emits no cache telemetry, keeping runs
    /// byte-identical to pre-cache builds; any LRU spec turns repeat
    /// invocations into zero-boot, zero-exec completions.
    pub cache: CacheConfig,
}

impl OpenLoopConfig {
    /// The paper's arrangement: 10 workers, random placement, jobs
    /// arriving every second.
    pub fn paper_arrangement(jobs_per_tick: usize, duration: SimDuration, seed: u64) -> Self {
        OpenLoopConfig {
            workers: 10,
            seed,
            duration,
            arrival: ArrivalProcess::EverySecond { jobs_per_tick },
            scheduler: PlacementKind::RandomStatic,
            governor: GovernorKind::RebootPerJob,
            jitter: Jitter::default_run_to_run(),
            functions: FunctionId::ALL.to_vec(),
            popularity: Popularity::Uniform,
            tenants: Vec::new(),
            faults: FaultsConfig::none(),
            cache: CacheConfig::Off,
        }
    }
}

/// Results of an open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopRun {
    /// Jobs completed.
    pub completed: u64,
    /// Mean end-to-end latency (arrival → completion), seconds.
    pub mean_latency_s: f64,
    /// 95th-percentile end-to-end latency, seconds.
    pub p95_latency_s: f64,
    /// Time-averaged cluster power over the arrival window, watts.
    pub mean_power_w: f64,
    /// Energy per completed function, joules.
    pub joules_per_function: f64,
    /// Time-averaged number of powered-on workers.
    pub mean_powered_on: f64,
    /// Offered load that actually arrived, jobs per second.
    pub offered_per_second: f64,
    /// Total power-on actuations (GPIO wear; cold boots paid).
    pub power_cycles: u64,
    /// Scheduled crashes that actually landed on an executing node.
    pub faults_injected: u64,
    /// Per-tenant completions, latency, and SLO attainment, in
    /// [`OpenLoopConfig::tenants`] order. Empty when no tenant classes
    /// were configured.
    pub tenants: Vec<TenantSummary>,
    /// Completions served straight from the result cache (zero boot,
    /// exec, and energy). Always 0 with [`CacheConfig::Off`].
    pub cache_hits: u64,
    /// Cache lookups that missed and executed normally.
    pub cache_misses: u64,
    /// Completions that coalesced onto an in-flight identical invoke.
    pub cache_coalesced: u64,
}

/// Relative error of the streaming path's p95 estimate — the
/// [`QuantileSketch`] guarantee. The streaming mean is exact (Welford),
/// so only the quantile carries this tolerance.
pub const STREAMING_QUANTILE_EPSILON: f64 = 0.01;

/// One completed invocation, offered to a [`RunSink`] the instant the
/// job finishes. This is the streaming path's per-job record: a small
/// `Copy` value built on the stack, never stored by the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Arrival ordinal (1-based), the job id used in trace events.
    pub job: u64,
    /// The function that ran.
    pub function: FunctionId,
    /// Worker that executed the invocation.
    pub worker: usize,
    /// When the invocation arrived at the orchestration plane.
    pub arrived: SimTime,
    /// When the invocation completed (response plus lumped overhead).
    pub finished: SimTime,
    /// Execution time on the worker — excludes queueing, boot, and
    /// overhead.
    pub exec: SimDuration,
    /// Index into [`OpenLoopConfig::tenants`]; `0` when no tenant
    /// classes are configured.
    pub tenant: u16,
}

impl Completion {
    /// End-to-end latency (arrival → completion), seconds.
    pub fn latency_s(&self) -> f64 {
        self.finished.duration_since(self.arrived).as_secs_f64()
    }
}

/// Streaming observer of per-job completions, for callers that want
/// per-job data from a [`run_open_loop_streaming`] run without the
/// engine materializing it: custom histograms, CSV writers, online
/// SLO monitors. Called in completion order, which is simulation-time
/// order.
pub trait RunSink {
    /// Called exactly once per completed invocation.
    fn on_completion(&mut self, completion: &Completion);
}

/// The sink that drops every observation — the streaming run then
/// holds only O(workers) state regardless of job count.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl RunSink for NullSink {
    fn on_completion(&mut self, _completion: &Completion) {}
}

/// How the event loop folds per-job latencies into the run's two
/// latency aggregates. The exact impl ([`Samples`]) materializes every
/// observation; the streaming impl folds online in O(1) memory.
trait LatencyAccum {
    fn record(&mut self, seconds: f64);
    /// `(mean, p95)` in seconds; `0.0` when nothing completed.
    fn finish(&mut self) -> (f64, f64);
}

impl LatencyAccum for Samples {
    fn record(&mut self, seconds: f64) {
        Samples::record(self, seconds);
    }

    fn finish(&mut self) -> (f64, f64) {
        (
            self.mean().unwrap_or(0.0),
            self.percentile(95.0).unwrap_or(0.0),
        )
    }
}

/// O(1)-memory accumulator: Welford mean plus a DDSketch-style p95.
struct StreamingLatency {
    stats: OnlineStats,
    sketch: QuantileSketch,
}

impl StreamingLatency {
    fn new() -> Self {
        StreamingLatency {
            stats: OnlineStats::new(),
            sketch: QuantileSketch::with_relative_error(STREAMING_QUANTILE_EPSILON),
        }
    }
}

impl LatencyAccum for StreamingLatency {
    fn record(&mut self, seconds: f64) {
        self.stats.record(seconds);
        self.sketch.record(seconds);
    }

    fn finish(&mut self) -> (f64, f64) {
        if self.stats.count() == 0 {
            return (0.0, 0.0);
        }
        (self.stats.mean(), self.sketch.quantile(95.0).unwrap_or(0.0))
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival,
    PowerEffective(usize),
    BootDone(usize),
    ExecDone(usize),
    JobDone(usize),
    Crash(usize),
    Recover(usize),
    /// A standby worker's governor idle window elapsed; it may gate off.
    IdleGate(usize),
    /// An [`EnergyBudget`](GovernorKind::EnergyBudget) deferral elapsed:
    /// the oldest parked job re-enters placement unconditionally.
    Release,
}

#[derive(Debug, Clone, Copy)]
struct QueuedJob {
    /// Arrival ordinal, used as the job id in trace events.
    id: u64,
    function: FunctionId,
    arrived: SimTime,
    /// Tenant-class index; 0 when no classes are configured.
    tenant: u16,
    /// Content-cache key; 0 (and never read) when the cache is off.
    key: u64,
    /// Execution-time multiplier applied by an
    /// [`EnergyBudget`](GovernorKind::EnergyBudget) throttle action;
    /// `1.0` everywhere else (exact under IEEE-754, so the multiply
    /// cannot perturb legacy bit-compatibility).
    throttle: f64,
}

struct Worker {
    node: SbcNode,
    queue: VecDeque<QueuedJob>,
    /// Set between the GPIO press and BootDone so the scheduler can see
    /// "waking" nodes as powered.
    waking: bool,
    /// `(job, exec, started)` for the in-flight invocation.
    current: Option<(QueuedJob, SimDuration, SimTime)>,
    /// The invocation's next lifecycle event (ExecDone or JobDone),
    /// cancelled when an injected crash interrupts it.
    pending: Option<EventId>,
    /// The governor's pending IdleGate event, cancelled when a job
    /// start pre-empts the idle window.
    gate: Option<EventId>,
}

/// Per-run metric handles for the open-loop simulation, prefixed `open_`.
struct OpenMetrics {
    jobs_arrived: CounterId,
    jobs_completed: CounterId,
    exec_seconds: HistogramId,
    latency_seconds: HistogramId,
}

impl OpenMetrics {
    fn register(metrics: &mut MetricsRegistry) -> Self {
        OpenMetrics {
            jobs_arrived: metrics.counter("open_jobs_arrived_total"),
            jobs_completed: metrics.counter("open_jobs_completed_total"),
            exec_seconds: metrics.histogram("open_exec_seconds", &EXEC_BUCKETS),
            latency_seconds: metrics.histogram(
                "open_latency_seconds",
                &[0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0],
            ),
        }
    }
}

impl Worker {
    fn is_powered(&self) -> bool {
        self.waking || self.node.state() != SbcState::Off
    }

    fn backlog(&self) -> usize {
        self.queue.len() + usize::from(self.current.is_some())
    }

    /// The placement-policy view of this worker. `load` is the backlog
    /// count (the open loop does not know function costs at placement
    /// time), which makes `LeastLoaded` pick exactly the historical
    /// min-backlog queue.
    fn view(&self) -> NodeView {
        NodeView {
            queued: self.queue.len(),
            busy: self.current.is_some(),
            powered: self.is_powered(),
            load: self.backlog() as f64,
        }
    }
}

/// Runs the open-loop simulation.
///
/// # Panics
///
/// Panics if `workers` is zero, `functions` is empty, or the arrival
/// process is non-positive.
pub fn run_open_loop(config: &OpenLoopConfig) -> OpenLoopRun {
    run_open_loop_with(config, &mut Observer::disabled())
}

/// Runs the open-loop simulation while reporting trace events and
/// `open_*` metrics into `observer`. [`run_open_loop`] is this entry
/// point with [`Observer::disabled`]; results are bit-identical either
/// way.
///
/// # Examples
///
/// ```
/// use microfaas::openloop::{run_open_loop_with, OpenLoopConfig};
/// use microfaas_sim::trace::{Observer, TraceBuffer};
/// use microfaas_sim::SimDuration;
///
/// let config = OpenLoopConfig::paper_arrangement(2, SimDuration::from_secs(30), 42);
/// let mut trace = TraceBuffer::new(65_536);
/// let run = run_open_loop_with(&config, &mut Observer::tracing(&mut trace));
/// let completions = trace
///     .iter()
///     .filter(|r| r.event.kind() == "job_completed")
///     .count() as u64;
/// assert_eq!(completions, run.completed);
/// ```
pub fn run_open_loop_with(config: &OpenLoopConfig, observer: &mut Observer<'_>) -> OpenLoopRun {
    run_open_loop_core(
        config,
        observer,
        Samples::new(),
        &mut NullSink,
        budget_attributor(config),
    )
    .0
}

/// Runs the open-loop simulation with **energy attribution** enabled:
/// alongside the usual [`OpenLoopRun`], returns an [`EnergyLedger`]
/// assigning every completed invocation an exact joule vector over the
/// five lifecycle phases, with leftover idle/standby energy apportioned
/// per `idle_policy`. Attribution is pure bookkeeping — it consumes no
/// RNG draws and perturbs nothing, so the run agrees bit-for-bit with
/// [`run_open_loop`] on the same config.
///
/// # Examples
///
/// ```
/// use microfaas::openloop::{run_open_loop_attributed, OpenLoopConfig};
/// use microfaas_energy::attribution::IdlePolicy;
/// use microfaas_sim::SimDuration;
///
/// let config = OpenLoopConfig::paper_arrangement(2, SimDuration::from_secs(60), 42);
/// let (run, ledger) = run_open_loop_attributed(&config, IdlePolicy::Equal);
/// assert!(ledger.conserves(), "attributed + idle must equal the meter");
/// let joules: f64 = ledger.total_joules();
/// assert!((joules - run.joules_per_function * run.completed as f64).abs() < 1e-6 * joules);
/// ```
///
/// # Panics
///
/// As [`run_open_loop`].
pub fn run_open_loop_attributed(
    config: &OpenLoopConfig,
    idle_policy: IdlePolicy,
) -> (OpenLoopRun, EnergyLedger) {
    let (run, ledger, _end) = run_open_loop_core(
        config,
        &mut Observer::disabled(),
        Samples::new(),
        &mut NullSink,
        Some(make_attributor(config, idle_policy)),
    );
    (run, ledger.expect("attributor was supplied"))
}

/// [`run_open_loop_attributed`] on the streaming results path: O(1)
/// latency aggregates, every completion offered to `sink`, and the
/// ledger's integer-µJ arithmetic untouched — conservation holds
/// bit-exactly on this path too.
///
/// # Panics
///
/// As [`run_open_loop`].
pub fn run_open_loop_streaming_attributed<S: RunSink>(
    config: &OpenLoopConfig,
    sink: &mut S,
    idle_policy: IdlePolicy,
) -> (OpenLoopRun, EnergyLedger) {
    let (run, ledger, _end) = run_open_loop_core(
        config,
        &mut Observer::disabled(),
        StreamingLatency::new(),
        sink,
        Some(make_attributor(config, idle_policy)),
    );
    (run, ledger.expect("attributor was supplied"))
}

/// Builds the attributor the [`GovernorKind::EnergyBudget`] control
/// loop needs even when the caller did not ask for a ledger: budget
/// charging requires exact per-job joules. Every other governor runs
/// without one (`None`), keeping the legacy paths untouched.
fn budget_attributor(config: &OpenLoopConfig) -> Option<Attributor> {
    matches!(config.governor, GovernorKind::EnergyBudget { .. })
        .then(|| make_attributor(config, IdlePolicy::None))
}

/// One attributor per run: a function row per [`FunctionId`] (so row
/// index equals [`FunctionId::index`]) and a tenant row per configured
/// class, or a single `"all"` row when the run is single-tenant.
fn make_attributor(config: &OpenLoopConfig, idle_policy: IdlePolicy) -> Attributor {
    let functions = FunctionId::ALL
        .iter()
        .map(|f| f.name().to_string())
        .collect();
    let tenants = if config.tenants.is_empty() {
        vec!["all".to_string()]
    } else {
        config.tenants.iter().map(|t| t.name.clone()).collect()
    };
    Attributor::new(idle_policy, functions, tenants)
}

/// Runs the open-loop simulation on the **streaming** results path:
/// per-job latencies fold into O(1)-memory online aggregates (a Welford
/// mean plus a DDSketch-style quantile sketch for p95, within
/// [`STREAMING_QUANTILE_EPSILON`] relative error) instead of a
/// materialized per-job vector, and every completion is offered to
/// `sink` the instant it happens. Everything else — arrivals, RNG
/// draws, placement, power accounting — is the same event loop as
/// [`run_open_loop`], so `completed`, `mean_power_w`, `power_cycles`,
/// and the rest agree exactly; only the two latency aggregates differ
/// (the mean at f64 rounding, the p95 within the sketch's guarantee).
///
/// This is the entry point for million-job capacity runs — memory
/// stays bounded by fleet size and in-flight backlog, not completed-job
/// count. Pass [`NullSink`] to drop per-job observations entirely, or
/// a custom [`RunSink`] to fold them yourself. See `docs/SCALING.md`
/// for the 10M-job recipe.
///
/// # Examples
///
/// ```
/// use microfaas::openloop::{run_open_loop, run_open_loop_streaming, NullSink, OpenLoopConfig};
/// use microfaas_sim::SimDuration;
///
/// let config = OpenLoopConfig::paper_arrangement(2, SimDuration::from_secs(30), 42);
/// let exact = run_open_loop(&config);
/// let streamed = run_open_loop_streaming(&config, &mut NullSink);
/// assert_eq!(streamed.completed, exact.completed);
/// assert_eq!(streamed.mean_power_w, exact.mean_power_w);
/// assert_eq!(streamed.power_cycles, exact.power_cycles);
/// ```
///
/// # Panics
///
/// As [`run_open_loop`].
pub fn run_open_loop_streaming<S: RunSink>(config: &OpenLoopConfig, sink: &mut S) -> OpenLoopRun {
    run_open_loop_core(
        config,
        &mut Observer::disabled(),
        StreamingLatency::new(),
        sink,
        budget_attributor(config),
    )
    .0
}

/// [`run_open_loop`] with the **flight recorder** attached: alongside
/// the usual aggregates, returns a [`TelemetrySeries`] of tumbling
/// windows (throughput, latency quantiles, queue depth, occupancy,
/// power, energy, cache and fault counts, per-tenant SLO attainment)
/// over the whole run. Telemetry is strictly an observer — it consumes
/// no RNG draws — so the [`OpenLoopRun`] agrees bit-for-bit with
/// [`run_open_loop`] on the same config. See `docs/MONITORING.md`.
///
/// # Panics
///
/// As [`run_open_loop`], plus if `telemetry` is invalid.
pub fn run_open_loop_monitored(
    config: &OpenLoopConfig,
    telemetry: &TelemetryConfig,
) -> (OpenLoopRun, TelemetrySeries) {
    let mut recorder = FlightRecorder::new(telemetry, &config.tenants);
    let (events, mut tap) = recorder.taps();
    let (run, _ledger, end) = run_open_loop_core(
        config,
        &mut TypedObserver::new(events),
        Samples::new(),
        &mut tap,
        budget_attributor(config),
    );
    (run, recorder.into_series(end))
}

/// [`run_open_loop_monitored`] on the **streaming** results path: O(1)
/// latency aggregates plus the windowed [`TelemetrySeries`]. This is
/// the `monitor` CLI's engine — windows stay bounded
/// ([`TelemetryConfig::max_windows`]) no matter how many jobs run.
///
/// # Panics
///
/// As [`run_open_loop`], plus if `telemetry` is invalid.
pub fn run_open_loop_monitored_streaming(
    config: &OpenLoopConfig,
    telemetry: &TelemetryConfig,
) -> (OpenLoopRun, TelemetrySeries) {
    let mut recorder = FlightRecorder::new(telemetry, &config.tenants);
    let (events, mut tap) = recorder.taps();
    let (run, _ledger, end) = run_open_loop_core(
        config,
        &mut TypedObserver::new(events),
        StreamingLatency::new(),
        &mut tap,
        budget_attributor(config),
    );
    (run, recorder.into_series(end))
}

/// [`run_open_loop_attributed`] with the flight recorder attached: the
/// exact per-job [`EnergyLedger`] and the windowed [`TelemetrySeries`]
/// from one run. The ledger's integer-µJ conservation argument is
/// untouched — telemetry integrates its own f64 power curve and never
/// feeds back.
///
/// # Panics
///
/// As [`run_open_loop`], plus if `telemetry` is invalid.
pub fn run_open_loop_monitored_attributed(
    config: &OpenLoopConfig,
    idle_policy: IdlePolicy,
    telemetry: &TelemetryConfig,
) -> (OpenLoopRun, EnergyLedger, TelemetrySeries) {
    let mut recorder = FlightRecorder::new(telemetry, &config.tenants);
    let (events, mut tap) = recorder.taps();
    let (run, ledger, end) = run_open_loop_core(
        config,
        &mut TypedObserver::new(events),
        StreamingLatency::new(),
        &mut tap,
        Some(make_attributor(config, idle_policy)),
    );
    (
        run,
        ledger.expect("attributor was supplied"),
        recorder.into_series(end),
    )
}

fn run_open_loop_core<L: LatencyAccum, S: RunSink, O: TraceObserver>(
    config: &OpenLoopConfig,
    observer: &mut O,
    mut latencies: L,
    sink: &mut S,
    mut attr: Option<Attributor>,
) -> (OpenLoopRun, Option<EnergyLedger>, SimTime) {
    assert!(config.workers > 0, "cluster needs at least one worker");
    assert!(!config.functions.is_empty(), "need at least one function");
    config.arrival.validate();
    // Compiles the popularity skew (validating it) and the tenant mix.
    // With the defaults both are draw-for-draw identical to the
    // historical code: one uniform index per arrival, no tenant draw.
    let picker = FunctionPicker::new(&config.popularity, config.functions.len());
    let mut tenant_tracker = TenantTracker::new(&config.tenants);
    let mut arrival_state = ArrivalState::default();
    let handles = observer.metrics().map(OpenMetrics::register);

    // The scheduling subsystem: placement + governor. The open loop's
    // historical policies (RandomStatic/LeastLoaded/PowerAware) under
    // the default governor are the legacy surface — all subsystem
    // telemetry stays silent there so traces and expositions remain
    // byte-identical to the pre-subsystem code.
    let mut policy = PolicyEngine::new(config.scheduler, config.governor, config.seed);
    let legacy_placement = matches!(
        config.scheduler,
        PlacementKind::RandomStatic | PlacementKind::LeastLoaded | PlacementKind::PowerAware
    );
    let sched_active = !(legacy_placement && config.governor == GovernorKind::RebootPerJob);
    let sched_handles = if sched_active {
        observer.metrics().map(SchedMetrics::register)
    } else {
        None
    };
    let mut views: Vec<NodeView> = Vec::with_capacity(config.workers);
    // Governors that never read the booted-idle census (every one but
    // WarmPool) let the drain and idle-gate paths skip their O(workers)
    // fleet scans — the placeholder they get instead is ignored.
    let wants_census = policy.wants_idle_census();

    // The result cache and its in-flight coalescing table. With the
    // default `Off` this is `None`, every cache branch below is dead,
    // and no extra RNG draw happens — the bit-compat goldens pin that.
    config.cache.try_validate().expect("invalid cache config");
    let mut cache: Option<ResultCache<()>> = ResultCache::from_config(&config.cache);
    let mut coalesce: CoalesceTable<QueuedJob> = CoalesceTable::new();
    let input_variants = config.cache.input_variants() as usize;

    let mut rng = Rng::new(config.seed);
    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut gpio = PowerController::new(config.workers);
    let mut meter = EnergyMeter::new(SimTime::ZERO);
    let channels: Vec<_> = (0..config.workers)
        .map(|w| meter.add_channel(format!("sbc-{w}")))
        .collect();
    if let Some(a) = attr.as_mut() {
        // Attribution channels mirror the meter's: index == worker.
        for _ in 0..config.workers {
            a.add_channel();
        }
    }
    // The EnergyBudget governor's admission loop; every other governor
    // answers `false` and the budget branches below are dead.
    let budget_active = policy.budget_active();
    debug_assert!(
        !budget_active || attr.is_some(),
        "budget charging requires per-job attribution"
    );
    // Jobs parked by a BudgetDecision::Defer, released FIFO by
    // Event::Release.
    let mut deferred: VecDeque<QueuedJob> = VecDeque::new();
    let mut workers: Vec<Worker> = (0..config.workers)
        .map(|w| Worker {
            node: SbcNode::new(w, SimTime::ZERO),
            queue: VecDeque::new(),
            waking: false,
            current: None,
            pending: None,
            gate: None,
        })
        .collect();

    let mut powered_on = TimeWeighted::new(SimTime::ZERO, 0.0);
    let mut completed: u64 = 0;
    let mut arrived: u64 = 0;
    let mut faults_injected: u64 = 0;
    let horizon = SimTime::ZERO + config.duration;

    let injector = microfaas_sim::faults::FaultInjector::new(&config.faults.plan);
    for (at, w) in injector.scheduled_crashes() {
        if *w < config.workers {
            queue.schedule(*at, Event::Crash(*w));
        }
    }
    queue.schedule(SimTime::ZERO, Event::Arrival);

    while let Some((now, event)) = queue.pop() {
        match event {
            Event::Arrival => {
                if now >= horizon {
                    continue; // arrivals stop; drain what is queued
                }
                for _ in 0..config.arrival.batch() {
                    arrived += 1;
                    let function = config.functions[picker.pick(&mut rng)];
                    let mut job = QueuedJob {
                        id: arrived,
                        function,
                        arrived: now,
                        tenant: tenant_tracker.draw(&mut rng),
                        key: 0,
                        throttle: 1.0,
                    };
                    observer.emit(
                        now,
                        TraceEvent::JobEnqueued {
                            job: job.id,
                            function: function.name(),
                        },
                    );
                    if let (Some(metrics), Some(h)) = (observer.metrics(), handles.as_ref()) {
                        metrics.inc(h.jobs_arrived);
                    }
                    if let Some(cache) = cache.as_mut() {
                        // One extra sim-stream draw picks the canonical
                        // input this invocation carries.
                        job.key = content_key(function.index(), rng.index(input_variants) as u64);
                        if cache.lookup(job.key, now.as_micros()).is_some() {
                            // Zero-energy fast path: the stored result is
                            // served by the orchestration plane (worker 0
                            // by convention) with no queue, boot, or exec.
                            observer.emit(
                                now,
                                TraceEvent::CacheHit {
                                    job: job.id,
                                    function: function.name(),
                                    key: job.key,
                                },
                            );
                            completed += 1;
                            latencies.record(0.0);
                            tenant_tracker.record(job.tenant, 0.0);
                            if let Some(a) = attr.as_mut() {
                                // A hit costs zero joules but still
                                // counts as a completion for the
                                // usage-weighted idle split.
                                a.record_free(
                                    usize::from(job.function.index()),
                                    job.tenant as usize,
                                );
                            }
                            sink.on_completion(&Completion {
                                job: job.id,
                                function: job.function,
                                worker: 0,
                                arrived: job.arrived,
                                finished: now,
                                exec: SimDuration::ZERO,
                                tenant: job.tenant,
                            });
                            observer.emit(
                                now,
                                TraceEvent::JobCompleted {
                                    job: job.id,
                                    function: function.name(),
                                    worker: 0,
                                    exec: SimDuration::ZERO,
                                    overhead: SimDuration::ZERO,
                                },
                            );
                            if let (Some(metrics), Some(h)) = (observer.metrics(), handles.as_ref())
                            {
                                metrics.inc(h.jobs_completed);
                                metrics.observe(h.exec_seconds, 0.0);
                                metrics.observe(h.latency_seconds, 0.0);
                            }
                            continue;
                        }
                        if !coalesce.try_lead(job.key, job.id) {
                            // An identical invoke is already executing:
                            // park this one behind its leader.
                            cache.note_coalesced();
                            let leader = coalesce.leader(job.key).expect("key in flight");
                            observer.emit(
                                now,
                                TraceEvent::Coalesced {
                                    job: job.id,
                                    leader,
                                    function: function.name(),
                                },
                            );
                            coalesce.follow(job.key, job);
                            continue;
                        }
                        observer.emit(
                            now,
                            TraceEvent::CacheMiss {
                                job: job.id,
                                function: function.name(),
                                key: job.key,
                            },
                        );
                    }
                    if budget_active {
                        // Admission control at the orchestration plane's
                        // front door: the tenant's token bucket decides
                        // whether this invocation runs, waits, or runs
                        // slowly. Cache hits above bypass it — a served
                        // result costs no joules.
                        match policy.budget_admit(job.tenant, now) {
                            BudgetDecision::Admit => {}
                            BudgetDecision::Shed => {
                                observer.emit(
                                    now,
                                    TraceEvent::BudgetAction {
                                        tenant: job.tenant,
                                        action: "shed",
                                    },
                                );
                                // Release any coalesce leadership the
                                // cache block just took, so a later
                                // identical invoke can lead.
                                if cache.is_some() {
                                    let _ = coalesce.complete(job.key);
                                }
                                continue;
                            }
                            BudgetDecision::Defer(delay) => {
                                observer.emit(
                                    now,
                                    TraceEvent::BudgetAction {
                                        tenant: job.tenant,
                                        action: "defer",
                                    },
                                );
                                // Coalesce leadership (if any) stays with
                                // the deferred job; followers drain when
                                // it eventually completes.
                                deferred.push_back(job);
                                queue.schedule(now + delay, Event::Release);
                                continue;
                            }
                            BudgetDecision::Throttle(factor) => {
                                observer.emit(
                                    now,
                                    TraceEvent::BudgetAction {
                                        tenant: job.tenant,
                                        action: "throttle",
                                    },
                                );
                                job.throttle = factor;
                            }
                        }
                    }
                    dispatch_job(
                        job,
                        now,
                        config,
                        &mut policy,
                        cache.is_some(),
                        sched_active,
                        &mut views,
                        &mut workers,
                        &mut powered_on,
                        &mut gpio,
                        &mut queue,
                        &mut meter,
                        &channels,
                        &mut rng,
                        observer,
                        &sched_handles,
                        attr.as_mut(),
                    );
                }
                // WarmPool prewarm: wake gated-off nodes until the
                // booted reserve matches the governor's target. Zero for
                // every other governor, so the legacy paths never enter.
                let target = policy.warm_target(config.workers);
                if target > 0 {
                    let mut powered = workers.iter().filter(|x| x.is_powered()).count();
                    for w in 0..config.workers {
                        if powered >= target {
                            break;
                        }
                        if !workers[w].is_powered() {
                            workers[w].waking = true;
                            powered += 1;
                            powered_on.add(now, 1.0);
                            observer.emit(
                                now,
                                TraceEvent::WakeRequested {
                                    worker: w,
                                    reason: "prewarm",
                                },
                            );
                            let effective = gpio.actuate(now, w, PowerAction::On);
                            queue.schedule(effective, Event::PowerEffective(w));
                            observer.emit(
                                now,
                                TraceEvent::GovernorTransition {
                                    worker: w,
                                    action: "prewarm",
                                },
                            );
                            if let (Some(metrics), Some(h)) =
                                (observer.metrics(), sched_handles.as_ref())
                            {
                                metrics.inc(h.governor_transitions);
                            }
                        }
                    }
                }
                let gap = config.arrival.next_gap(now, &mut rng, &mut arrival_state);
                queue.schedule(now + gap, Event::Arrival);
            }
            Event::PowerEffective(w) => {
                workers[w].waking = false;
                workers[w].node.power_on(now).expect("was off");
                let watts = workers[w].node.power().value();
                meter.set_power(now, channels[w], watts);
                if let Some(a) = attr.as_mut() {
                    a.set_power(w, now, watts);
                    a.boot_started(w, now);
                }
                observer.emit(
                    now,
                    TraceEvent::WorkerStateChange {
                        worker: w,
                        state: WorkerState::Booting,
                    },
                );
                observer.emit(now, TraceEvent::PowerSample { worker: w, watts });
                queue.schedule(now + workers[w].node.boot_duration(), Event::BootDone(w));
            }
            Event::BootDone(w) => {
                workers[w].node.boot_complete(now).expect("was booting");
                let watts = workers[w].node.power().value();
                meter.set_power(now, channels[w], watts);
                if let Some(a) = attr.as_mut() {
                    a.set_power(w, now, watts);
                    a.boot_done(w, now);
                }
                observer.emit(
                    now,
                    TraceEvent::WorkerStateChange {
                        worker: w,
                        state: WorkerState::Idle,
                    },
                );
                observer.emit(now, TraceEvent::PowerSample { worker: w, watts });
                if workers[w].queue.is_empty() {
                    // Only a prewarmed node boots to an empty queue (the
                    // legacy policies wake a node exclusively for queued
                    // work): it joins the warm reserve and idles.
                    continue;
                }
                begin_job(
                    w,
                    now,
                    config,
                    &mut workers,
                    &mut queue,
                    &mut meter,
                    &channels,
                    &mut rng,
                    observer,
                    attr.as_mut(),
                );
            }
            Event::ExecDone(w) => {
                let (job, _exec, _started) = workers[w].current.expect("job in flight");
                if let Some(a) = attr.as_mut() {
                    // The draw does not change here, but the phase does:
                    // everything from this instant to JobDone is the
                    // response/overhead window.
                    a.response_started(w, now, job.id);
                }
                // The response leaves the worker here; the lumped
                // overhead that follows is orchestration + network time.
                observer.emit(
                    now,
                    TraceEvent::ResponseSent {
                        job: job.id,
                        function: job.function.name(),
                        worker: w,
                    },
                );
                let overhead = service_time(job.function)
                    .overhead(WorkerPlatform::ArmSbc)
                    .mul_f64(config.jitter.factor(&mut rng));
                workers[w].pending = Some(queue.schedule(now + overhead, Event::JobDone(w)));
            }
            Event::JobDone(w) => {
                workers[w].pending = None;
                let (job, exec, started) = workers[w].current.take().expect("job in flight");
                // Settle the job's joule vector before any power change
                // below, then charge its tenant's budget with the exact
                // figure (picojoules → joules).
                let job_pj = attr.as_mut().map(|a| a.job_finished(w, now, job.id));
                if budget_active {
                    let pj = job_pj.expect("budget runs carry an attributor");
                    if policy.budget_note_energy(job.tenant, pj as f64 / 1e12, now) {
                        observer.emit(now, TraceEvent::BudgetBreach { tenant: job.tenant });
                    }
                }
                completed += 1;
                let latency = now.duration_since(job.arrived);
                latencies.record(latency.as_secs_f64());
                tenant_tracker.record(job.tenant, latency.as_secs_f64());
                sink.on_completion(&Completion {
                    job: job.id,
                    function: job.function,
                    worker: w,
                    arrived: job.arrived,
                    finished: now,
                    exec,
                    tenant: job.tenant,
                });
                observer.emit(
                    now,
                    TraceEvent::JobCompleted {
                        job: job.id,
                        function: job.function.name(),
                        worker: w,
                        exec,
                        overhead: now.duration_since(started + exec),
                    },
                );
                if let (Some(metrics), Some(h)) = (observer.metrics(), handles.as_ref()) {
                    metrics.inc(h.jobs_completed);
                    metrics.observe(h.exec_seconds, exec.as_secs_f64());
                    metrics.observe(h.latency_seconds, latency.as_secs_f64());
                }
                if let Some(cache) = cache.as_mut() {
                    // The leader's result commits: store it, then drain
                    // every coalesced follower at this instant. Each
                    // follower pays only its queue wait — zero boot,
                    // exec, overhead, and energy.
                    cache.insert(job.key, (), now.as_micros());
                    for follower in coalesce.complete(job.key) {
                        completed += 1;
                        let wait = now.duration_since(follower.arrived);
                        latencies.record(wait.as_secs_f64());
                        tenant_tracker.record(follower.tenant, wait.as_secs_f64());
                        if let Some(a) = attr.as_mut() {
                            a.record_free(
                                usize::from(follower.function.index()),
                                follower.tenant as usize,
                            );
                        }
                        sink.on_completion(&Completion {
                            job: follower.id,
                            function: follower.function,
                            worker: w,
                            arrived: follower.arrived,
                            finished: now,
                            exec: SimDuration::ZERO,
                            tenant: follower.tenant,
                        });
                        observer.emit(
                            now,
                            TraceEvent::JobCompleted {
                                job: follower.id,
                                function: follower.function.name(),
                                worker: w,
                                exec: SimDuration::ZERO,
                                overhead: SimDuration::ZERO,
                            },
                        );
                        if let (Some(metrics), Some(h)) = (observer.metrics(), handles.as_ref()) {
                            metrics.inc(h.jobs_completed);
                            metrics.observe(h.exec_seconds, 0.0);
                            metrics.observe(h.latency_seconds, wait.as_secs_f64());
                        }
                    }
                }
                if workers[w].queue.is_empty() {
                    // Queue drained: the governor picks the power regime.
                    // RebootPerJob (the default) always answers PowerOff,
                    // keeping the legacy gate-off path byte-identical.
                    let warm_idle = if wants_census {
                        1 + workers
                            .iter()
                            .filter(|x| x.node.state() == SbcState::Idle)
                            .count()
                    } else {
                        1 // never read — the census scan is skipped
                    };
                    match policy.on_drain(now, warm_idle) {
                        DrainAction::PowerOff => {
                            workers[w]
                                .node
                                .finish_job_and_power_off(now)
                                .expect("was executing");
                            powered_on.add(now, -1.0);
                            gpio.actuate(now, w, PowerAction::Off);
                            meter.set_power(now, channels[w], 0.0);
                            if let Some(a) = attr.as_mut() {
                                a.set_power(w, now, 0.0);
                            }
                            observer.emit(
                                now,
                                TraceEvent::WorkerStateChange {
                                    worker: w,
                                    state: WorkerState::Off,
                                },
                            );
                            observer.emit(
                                now,
                                TraceEvent::PowerSample {
                                    worker: w,
                                    watts: 0.0,
                                },
                            );
                        }
                        DrainAction::Standby { idle_timeout } => {
                            // Hold the node booted-idle at standby draw
                            // so the next arrival skips the boot window.
                            workers[w]
                                .node
                                .finish_job_and_standby(now)
                                .expect("was executing");
                            let watts = workers[w].node.power().value();
                            meter.set_power(now, channels[w], watts);
                            if let Some(a) = attr.as_mut() {
                                a.set_power(w, now, watts);
                            }
                            observer.emit(
                                now,
                                TraceEvent::WorkerStateChange {
                                    worker: w,
                                    state: WorkerState::Idle,
                                },
                            );
                            observer.emit(now, TraceEvent::PowerSample { worker: w, watts });
                            observer.emit(
                                now,
                                TraceEvent::GovernorTransition {
                                    worker: w,
                                    action: "standby",
                                },
                            );
                            if let (Some(metrics), Some(h)) =
                                (observer.metrics(), sched_handles.as_ref())
                            {
                                metrics.inc(h.governor_transitions);
                            }
                            if let Some(window) = idle_timeout {
                                workers[w].gate =
                                    Some(queue.schedule(now + window, Event::IdleGate(w)));
                            }
                        }
                    }
                } else if policy.reboot_between_jobs(true) {
                    if let (Some(metrics), Some(h)) = (observer.metrics(), sched_handles.as_ref()) {
                        metrics.inc(h.cold_boots);
                    }
                    workers[w]
                        .node
                        .finish_job_and_reboot(now)
                        .expect("was executing");
                    let watts = workers[w].node.power().value();
                    meter.set_power(now, channels[w], watts);
                    if let Some(a) = attr.as_mut() {
                        a.set_power(w, now, watts);
                        a.boot_started(w, now);
                    }
                    observer.emit(
                        now,
                        TraceEvent::WorkerStateChange {
                            worker: w,
                            state: WorkerState::Rebooting,
                        },
                    );
                    observer.emit(now, TraceEvent::PowerSample { worker: w, watts });
                    queue.schedule(now + workers[w].node.boot_duration(), Event::BootDone(w));
                } else {
                    // Warm continuation: skip the between-jobs reboot
                    // and start the next queued job immediately.
                    if let (Some(metrics), Some(h)) = (observer.metrics(), sched_handles.as_ref()) {
                        metrics.inc(h.warm_hits);
                    }
                    workers[w]
                        .node
                        .finish_job_and_standby(now)
                        .expect("was executing");
                    begin_job(
                        w,
                        now,
                        config,
                        &mut workers,
                        &mut queue,
                        &mut meter,
                        &channels,
                        &mut rng,
                        observer,
                        attr.as_mut(),
                    );
                }
            }
            Event::Crash(w) => {
                // A crash only lands on a node that is actually running
                // an invocation; a gated-off node has nothing to kill.
                if workers[w].node.state() != SbcState::Executing {
                    continue;
                }
                faults_injected += 1;
                observer.emit(
                    now,
                    TraceEvent::FaultInjected {
                        worker: w,
                        fault: FaultKind::Crash.label(),
                    },
                );
                if let Some(pending) = workers[w].pending.take() {
                    queue.cancel(pending);
                }
                // The invocation is re-queued at the front, keeping its
                // original arrival time so the latency metrics absorb
                // the full recovery cost.
                if let Some((job, _, _)) = workers[w].current.take() {
                    if let Some(a) = attr.as_mut() {
                        // The partial joules stay with the job; the
                        // accumulator resumes when it restarts.
                        a.interrupted(w, now, job.id);
                    }
                    workers[w].queue.push_front(job);
                }
                workers[w].node.crash(now).expect("node was executing");
                powered_on.add(now, -1.0);
                meter.set_power(now, channels[w], 0.0);
                if let Some(a) = attr.as_mut() {
                    a.set_power(w, now, 0.0);
                }
                observer.emit(
                    now,
                    TraceEvent::WorkerStateChange {
                        worker: w,
                        state: WorkerState::Crashed,
                    },
                );
                observer.emit(
                    now,
                    TraceEvent::PowerSample {
                        worker: w,
                        watts: 0.0,
                    },
                );
                queue.schedule(now + config.faults.detection_delay, Event::Recover(w));
            }
            Event::Recover(w) => {
                workers[w].node.recover(now).expect("node was crashed");
                powered_on.add(now, 1.0);
                let watts = workers[w].node.power().value();
                meter.set_power(now, channels[w], watts);
                if let Some(a) = attr.as_mut() {
                    a.set_power(w, now, watts);
                    a.boot_started(w, now);
                }
                observer.emit(
                    now,
                    TraceEvent::WorkerStateChange {
                        worker: w,
                        state: WorkerState::Booting,
                    },
                );
                observer.emit(now, TraceEvent::PowerSample { worker: w, watts });
                queue.schedule(now + workers[w].node.boot_duration(), Event::BootDone(w));
            }
            Event::IdleGate(w) => {
                workers[w].gate = None;
                // Stale gates (the node picked up work, crashed, or was
                // already gated off) are dropped silently.
                if workers[w].node.state() != SbcState::Idle {
                    continue;
                }
                let warm_idle = if wants_census {
                    workers
                        .iter()
                        .filter(|x| x.node.state() == SbcState::Idle)
                        .count()
                } else {
                    0 // never read — the census scan is skipped
                };
                if policy.gate_on_idle_expiry(now, warm_idle) {
                    workers[w].node.power_off(now).expect("node was idle");
                    powered_on.add(now, -1.0);
                    gpio.actuate(now, w, PowerAction::Off);
                    meter.set_power(now, channels[w], 0.0);
                    if let Some(a) = attr.as_mut() {
                        a.set_power(w, now, 0.0);
                    }
                    observer.emit(
                        now,
                        TraceEvent::WorkerStateChange {
                            worker: w,
                            state: WorkerState::Off,
                        },
                    );
                    observer.emit(
                        now,
                        TraceEvent::PowerSample {
                            worker: w,
                            watts: 0.0,
                        },
                    );
                    observer.emit(
                        now,
                        TraceEvent::GovernorTransition {
                            worker: w,
                            action: "gate-off",
                        },
                    );
                    if let (Some(metrics), Some(h)) = (observer.metrics(), sched_handles.as_ref()) {
                        metrics.inc(h.governor_transitions);
                    }
                }
            }
            Event::Release => {
                // One Release is scheduled per deferred job, FIFO; the
                // job re-enters placement with no further admission
                // check (the governor already priced the wait).
                if let Some(job) = deferred.pop_front() {
                    dispatch_job(
                        job,
                        now,
                        config,
                        &mut policy,
                        cache.is_some(),
                        sched_active,
                        &mut views,
                        &mut workers,
                        &mut powered_on,
                        &mut gpio,
                        &mut queue,
                        &mut meter,
                        &channels,
                        &mut rng,
                        observer,
                        &sched_handles,
                        attr.as_mut(),
                    );
                }
            }
        }
    }

    let end = queue.now().max(horizon);
    let report = meter.report(end, completed);
    let (mean_latency_s, p95_latency_s) = latencies.finish();
    let cache_stats = cache.as_ref().map(|c| c.stats()).unwrap_or_default();
    let run = OpenLoopRun {
        completed,
        mean_latency_s,
        p95_latency_s,
        mean_power_w: report.average_watts,
        joules_per_function: report.joules_per_function().unwrap_or(f64::NAN),
        mean_powered_on: powered_on.time_average(end),
        offered_per_second: arrived as f64 / config.duration.as_secs_f64(),
        power_cycles: gpio.power_cycles(),
        faults_injected,
        tenants: tenant_tracker.summaries(),
        cache_hits: cache_stats.hits,
        cache_misses: cache_stats.misses,
        cache_coalesced: cache_stats.coalesced,
    };
    // Gauges come from the finished run so the exposition agrees
    // bit-for-bit with the returned aggregates.
    if let Some(metrics) = observer.metrics() {
        meter.publish_metrics(metrics, "open", end);
        let cycles = metrics.counter("open_power_cycles_total");
        metrics.add(cycles, run.power_cycles);
        let pairs = [
            ("open_mean_latency_seconds", run.mean_latency_s),
            ("open_p95_latency_seconds", run.p95_latency_s),
            ("open_mean_power_watts", run.mean_power_w),
            (
                "open_joules_per_function",
                if run.joules_per_function.is_finite() {
                    run.joules_per_function
                } else {
                    0.0
                },
            ),
            ("open_mean_powered_on", run.mean_powered_on),
            ("open_offered_per_second", run.offered_per_second),
        ];
        for (name, value) in pairs {
            let gauge = metrics.gauge(name);
            metrics.set_gauge(gauge, value);
        }
        // Cache counters only exist when a cache ran: the default
        // exposition must stay byte-identical to pre-cache builds.
        if config.cache.enabled() {
            crate::closedloop::publish_cache_counters(metrics, "open", &cache_stats);
        }
    }
    // Settle every channel through the common end instant so the
    // ledger's integer total covers exactly the meter's window.
    let ledger = attr.map(|a| a.finalize(end));
    (run, ledger, end)
}

/// Runs the same arrival process against the conventional cluster:
/// `vms` microVMs that are always powered (the host never drops below
/// its 60 W idle floor). The contrast with [`run_open_loop`] is the
/// paper's energy-proportionality argument made dynamic: at low load
/// the conventional J/function explodes while MicroFaaS stays flat.
///
/// # Panics
///
/// Panics if `vms` is zero or the config is invalid per
/// [`run_open_loop`].
pub fn run_open_loop_conventional(config: &OpenLoopConfig, vms: usize) -> OpenLoopRun {
    run_open_loop_conventional_core(
        config,
        vms,
        &mut Observer::disabled(),
        Samples::new(),
        &mut NullSink,
        None,
    )
    .0
}

/// [`run_open_loop_conventional`] with the **flight recorder**
/// attached: the same run plus a windowed [`TelemetrySeries`], so the
/// baseline's time-resolved power floor can sit next to MicroFaaS
/// telemetry from [`run_open_loop_monitored_streaming`]. Power samples
/// carry the rack server's single metered channel.
///
/// # Panics
///
/// As [`run_open_loop_conventional`], plus if `telemetry` is invalid.
pub fn run_open_loop_conventional_monitored(
    config: &OpenLoopConfig,
    vms: usize,
    telemetry: &TelemetryConfig,
) -> (OpenLoopRun, TelemetrySeries) {
    let mut recorder = FlightRecorder::new(telemetry, &config.tenants);
    let (events, mut tap) = recorder.taps();
    let (run, _ledger, end) = run_open_loop_conventional_core(
        config,
        vms,
        &mut TypedObserver::new(events),
        StreamingLatency::new(),
        &mut tap,
        None,
    );
    (run, recorder.into_series(end))
}

/// [`run_open_loop_conventional`] with **energy attribution**: the
/// host's single metered channel is split equally among the VMs'
/// concurrently executing jobs at every instant, and the (dominant)
/// idle-floor remainder is apportioned per `idle_policy`. The
/// conventional model has no per-job boot window the attributor can
/// see — VM reboot energy lands on whatever else is running, or on the
/// idle pool — so the `boot_j` column is always zero here. Budgets
/// never apply: this simulator ignores [`OpenLoopConfig::governor`].
///
/// # Panics
///
/// As [`run_open_loop_conventional`].
pub fn run_open_loop_conventional_attributed(
    config: &OpenLoopConfig,
    vms: usize,
    idle_policy: IdlePolicy,
) -> (OpenLoopRun, EnergyLedger) {
    let (run, ledger, _end) = run_open_loop_conventional_core(
        config,
        vms,
        &mut Observer::disabled(),
        Samples::new(),
        &mut NullSink,
        Some(make_attributor(config, idle_policy)),
    );
    (run, ledger.expect("attributor was supplied"))
}

fn run_open_loop_conventional_core<L: LatencyAccum, S: RunSink, O: TraceObserver>(
    config: &OpenLoopConfig,
    vms: usize,
    observer: &mut O,
    mut latencies: L,
    sink: &mut S,
    mut attr: Option<Attributor>,
) -> (OpenLoopRun, Option<EnergyLedger>, SimTime) {
    assert!(vms > 0, "cluster needs at least one VM");
    assert!(!config.functions.is_empty(), "need at least one function");
    config.arrival.validate();
    let picker = FunctionPicker::new(&config.popularity, config.functions.len());
    let mut tenant_tracker = TenantTracker::new(&config.tenants);
    let mut arrival_state = ArrivalState::default();

    let mut rng = Rng::new(config.seed);
    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut meter = EnergyMeter::new(SimTime::ZERO);
    let mut server = microfaas_hw::RackServer::new(vms, SimTime::ZERO);
    let host = meter.add_channel("rack-server");
    meter.set_power(SimTime::ZERO, host, server.power().value());
    if let Some(a) = attr.as_mut() {
        // One attribution channel for the whole host: concurrent jobs
        // split its draw equally instant by instant.
        a.add_channel();
        a.set_power(0, SimTime::ZERO, server.power().value());
    }
    // The host's one metered channel reports as worker 0; the idle
    // floor draws from the first instant.
    observer.emit(
        SimTime::ZERO,
        TraceEvent::PowerSample {
            worker: 0,
            watts: server.power().value(),
        },
    );

    let mut queues: Vec<VecDeque<QueuedJob>> = vec![VecDeque::new(); vms];
    let mut current: Vec<Option<(QueuedJob, SimDuration, SimTime)>> = vec![None; vms];
    let mut completed: u64 = 0;
    let mut arrived: u64 = 0;
    let horizon = SimTime::ZERO + config.duration;

    // Same cache discipline as the MicroFaaS loop: `Off` means no extra
    // draws and dead branches; hits complete at arrival, followers at
    // their leader's commit.
    config.cache.try_validate().expect("invalid cache config");
    let mut cache: Option<ResultCache<()>> = ResultCache::from_config(&config.cache);
    let mut coalesce: CoalesceTable<QueuedJob> = CoalesceTable::new();
    let input_variants = config.cache.input_variants() as usize;

    queue.schedule(SimTime::ZERO, Event::Arrival);
    while let Some((now, event)) = queue.pop() {
        match event {
            Event::Arrival => {
                if now >= horizon {
                    continue;
                }
                for _ in 0..config.arrival.batch() {
                    arrived += 1;
                    let function = config.functions[picker.pick(&mut rng)];
                    let mut job = QueuedJob {
                        id: arrived,
                        function,
                        arrived: now,
                        tenant: tenant_tracker.draw(&mut rng),
                        key: 0,
                        throttle: 1.0,
                    };
                    observer.emit(
                        now,
                        TraceEvent::JobEnqueued {
                            job: job.id,
                            function: function.name(),
                        },
                    );
                    if let Some(cache) = cache.as_mut() {
                        job.key = content_key(function.index(), rng.index(input_variants) as u64);
                        if cache.lookup(job.key, now.as_micros()).is_some() {
                            observer.emit(
                                now,
                                TraceEvent::CacheHit {
                                    job: job.id,
                                    function: function.name(),
                                    key: job.key,
                                },
                            );
                            completed += 1;
                            latencies.record(0.0);
                            tenant_tracker.record(job.tenant, 0.0);
                            if let Some(a) = attr.as_mut() {
                                a.record_free(
                                    usize::from(job.function.index()),
                                    job.tenant as usize,
                                );
                            }
                            sink.on_completion(&Completion {
                                job: job.id,
                                function: job.function,
                                worker: 0,
                                arrived: job.arrived,
                                finished: now,
                                exec: SimDuration::ZERO,
                                tenant: job.tenant,
                            });
                            observer.emit(
                                now,
                                TraceEvent::JobCompleted {
                                    job: job.id,
                                    function: function.name(),
                                    worker: 0,
                                    exec: SimDuration::ZERO,
                                    overhead: SimDuration::ZERO,
                                },
                            );
                            continue;
                        }
                        if !coalesce.try_lead(job.key, job.id) {
                            cache.note_coalesced();
                            let leader = coalesce.leader(job.key).expect("key in flight");
                            observer.emit(
                                now,
                                TraceEvent::Coalesced {
                                    job: job.id,
                                    leader,
                                    function: function.name(),
                                },
                            );
                            coalesce.follow(job.key, job);
                            continue;
                        }
                        observer.emit(
                            now,
                            TraceEvent::CacheMiss {
                                job: job.id,
                                function: function.name(),
                                key: job.key,
                            },
                        );
                    }
                    // Pick the emptiest VM (work-conserving enough for a
                    // fair comparison; the scheduler study lives on the
                    // MicroFaaS side).
                    let v = (0..vms)
                        .min_by_key(|&v| queues[v].len() + usize::from(current[v].is_some()))
                        .expect("at least one vm");
                    queues[v].push_back(job);
                    if current[v].is_none() && server.vm(v).state() == microfaas_hw::VmState::Idle {
                        let job = queues[v].pop_front().expect("just pushed");
                        vm_start_job(
                            v,
                            job,
                            now,
                            config,
                            &mut server,
                            &mut current,
                            &mut meter,
                            host,
                            &mut queue,
                            &mut rng,
                            observer,
                            attr.as_mut(),
                        );
                    }
                }
                let gap = config.arrival.next_gap(now, &mut rng, &mut arrival_state);
                queue.schedule(now + gap, Event::Arrival);
            }
            Event::ExecDone(v) => {
                let (job, _exec, _started) = current[v].expect("job in flight");
                if let Some(a) = attr.as_mut() {
                    a.response_started(0, now, job.id);
                }
                observer.emit(
                    now,
                    TraceEvent::ResponseSent {
                        job: job.id,
                        function: job.function.name(),
                        worker: v,
                    },
                );
                let overhead = service_time(job.function)
                    .overhead(WorkerPlatform::X86Vm)
                    .mul_f64(config.jitter.factor(&mut rng));
                queue.schedule(now + overhead, Event::JobDone(v));
            }
            Event::JobDone(v) => {
                let (job, exec, started) = current[v].take().expect("job in flight");
                if let Some(a) = attr.as_mut() {
                    a.job_finished(0, now, job.id);
                }
                completed += 1;
                let latency_s = now.duration_since(job.arrived).as_secs_f64();
                latencies.record(latency_s);
                tenant_tracker.record(job.tenant, latency_s);
                sink.on_completion(&Completion {
                    job: job.id,
                    function: job.function,
                    worker: v,
                    arrived: job.arrived,
                    finished: now,
                    exec,
                    tenant: job.tenant,
                });
                observer.emit(
                    now,
                    TraceEvent::JobCompleted {
                        job: job.id,
                        function: job.function.name(),
                        worker: v,
                        exec,
                        overhead: now.duration_since(started + exec),
                    },
                );
                if let Some(cache) = cache.as_mut() {
                    cache.insert(job.key, (), now.as_micros());
                    for follower in coalesce.complete(job.key) {
                        completed += 1;
                        let wait_s = now.duration_since(follower.arrived).as_secs_f64();
                        latencies.record(wait_s);
                        tenant_tracker.record(follower.tenant, wait_s);
                        if let Some(a) = attr.as_mut() {
                            a.record_free(
                                usize::from(follower.function.index()),
                                follower.tenant as usize,
                            );
                        }
                        sink.on_completion(&Completion {
                            job: follower.id,
                            function: follower.function,
                            worker: v,
                            arrived: follower.arrived,
                            finished: now,
                            exec: SimDuration::ZERO,
                            tenant: follower.tenant,
                        });
                        observer.emit(
                            now,
                            TraceEvent::JobCompleted {
                                job: follower.id,
                                function: follower.function.name(),
                                worker: v,
                                exec: SimDuration::ZERO,
                                overhead: SimDuration::ZERO,
                            },
                        );
                    }
                }
                server.finish_job(v, now).expect("vm was executing");
                let watts = server.power().value();
                meter.set_power(now, host, watts);
                if let Some(a) = attr.as_mut() {
                    a.set_power(0, now, watts);
                }
                observer.emit(
                    now,
                    TraceEvent::WorkerStateChange {
                        worker: v,
                        state: WorkerState::Rebooting,
                    },
                );
                observer.emit(now, TraceEvent::PowerSample { worker: 0, watts });
                // Between-jobs reboot, then take the next job if queued.
                queue.schedule(
                    now + server.vm_boot_duration().mul_f64(server.current_slowdown()),
                    Event::BootDone(v),
                );
            }
            Event::BootDone(v) => {
                server.reboot_complete(v, now).expect("vm was rebooting");
                let watts = server.power().value();
                meter.set_power(now, host, watts);
                if let Some(a) = attr.as_mut() {
                    a.set_power(0, now, watts);
                }
                observer.emit(
                    now,
                    TraceEvent::WorkerStateChange {
                        worker: v,
                        state: WorkerState::Idle,
                    },
                );
                observer.emit(now, TraceEvent::PowerSample { worker: 0, watts });
                if let Some(job) = queues[v].pop_front() {
                    vm_start_job(
                        v,
                        job,
                        now,
                        config,
                        &mut server,
                        &mut current,
                        &mut meter,
                        host,
                        &mut queue,
                        &mut rng,
                        observer,
                        attr.as_mut(),
                    );
                }
            }
            Event::PowerEffective(_) => unreachable!("VMs never power-cycle"),
            Event::IdleGate(_) => unreachable!("governors do not gate VMs"),
            Event::Release => unreachable!("budgets do not gate the conventional loop"),
            Event::Crash(_) | Event::Recover(_) => {
                unreachable!("fault plans are ignored on the conventional open loop")
            }
        }
    }

    let end = queue.now().max(horizon);
    let report = meter.report(end, completed);
    let (mean_latency_s, p95_latency_s) = latencies.finish();
    let cache_stats = cache.as_ref().map(|c| c.stats()).unwrap_or_default();
    let run = OpenLoopRun {
        completed,
        mean_latency_s,
        p95_latency_s,
        mean_power_w: report.average_watts,
        joules_per_function: report.joules_per_function().unwrap_or(f64::NAN),
        mean_powered_on: vms as f64,
        offered_per_second: arrived as f64 / config.duration.as_secs_f64(),
        power_cycles: 0,
        faults_injected: 0,
        tenants: tenant_tracker.summaries(),
        cache_hits: cache_stats.hits,
        cache_misses: cache_stats.misses,
        cache_coalesced: cache_stats.coalesced,
    };
    let ledger = attr.map(|a| a.finalize(end));
    (run, ledger, end)
}

/// Starts the next invocation on an idle VM: the conventional loop's
/// counterpart of [`begin_job`], shared by the arrival and post-reboot
/// paths. Same RNG site and draw order as the historical inline code,
/// so conventional runs cannot move.
#[allow(clippy::too_many_arguments)]
fn vm_start_job<O: TraceObserver>(
    v: usize,
    job: QueuedJob,
    now: SimTime,
    config: &OpenLoopConfig,
    server: &mut microfaas_hw::RackServer,
    current: &mut [Option<(QueuedJob, SimDuration, SimTime)>],
    meter: &mut EnergyMeter,
    host: microfaas_energy::ChannelId,
    queue: &mut EventQueue<Event>,
    rng: &mut Rng,
    observer: &mut O,
    attr: Option<&mut Attributor>,
) {
    server.start_job(v, now).expect("vm is idle");
    let watts = server.power().value();
    meter.set_power(now, host, watts);
    if let Some(a) = attr {
        a.set_power(0, now, watts);
        a.job_started(
            0,
            now,
            job.id,
            usize::from(job.function.index()),
            job.tenant as usize,
        );
    }
    observer.emit(
        now,
        TraceEvent::JobStarted {
            job: job.id,
            function: job.function.name(),
            worker: v,
        },
    );
    observer.emit(
        now,
        TraceEvent::WorkerStateChange {
            worker: v,
            state: WorkerState::Executing,
        },
    );
    observer.emit(now, TraceEvent::PowerSample { worker: 0, watts });
    let exec = service_time(job.function)
        .exec(WorkerPlatform::X86Vm)
        .mul_f64(config.jitter.factor(rng) * server.current_slowdown());
    current[v] = Some((job, exec, now));
    queue.schedule(now + exec, Event::ExecDone(v));
}

/// Places one admitted job and drives the chosen worker's power state —
/// the per-job tail of the Arrival handler, shared with the
/// budget-deferral [`Event::Release`] path. Pure code motion from the
/// historical Arrival arm: same RNG sites, same draw order, so the
/// legacy goldens cannot move.
#[allow(clippy::too_many_arguments)]
fn dispatch_job<O: TraceObserver>(
    job: QueuedJob,
    now: SimTime,
    config: &OpenLoopConfig,
    policy: &mut PolicyEngine,
    cache_on: bool,
    sched_active: bool,
    views: &mut Vec<NodeView>,
    workers: &mut [Worker],
    powered_on: &mut TimeWeighted,
    gpio: &mut PowerController,
    queue: &mut EventQueue<Event>,
    meter: &mut EnergyMeter,
    channels: &[microfaas_energy::ChannelId],
    rng: &mut Rng,
    observer: &mut O,
    sched_handles: &Option<SchedMetrics>,
    attr: Option<&mut Attributor>,
) {
    // Rate tracking for WarmPool (a no-op elsewhere).
    policy.observe_arrival(now);
    let w = if config.scheduler == PlacementKind::RandomStatic {
        // O(1) placement: RandomStatic draws exactly one
        // uniform index over the full fleet and never
        // reads the views, so building them is pure
        // overhead. Same RNG site, same draw —
        // bit-identical to routing through the engine.
        rng.index(config.workers)
    } else {
        views.clear();
        views.extend(workers.iter().map(Worker::view));
        if cache_on {
            // Key-aware routing: CacheAffine pins hot
            // keys to home nodes; other policies ignore
            // the key and behave exactly as place().
            policy.place_keyed(job.key, views, rng)
        } else {
            policy.place(views, rng)
        }
    };
    if sched_active {
        observer.emit(
            now,
            TraceEvent::PlacementDecision {
                job: job.id,
                worker: w,
                policy: config.scheduler.label(),
            },
        );
        if let (Some(metrics), Some(h)) = (observer.metrics(), sched_handles.as_ref()) {
            metrics.inc(h.placements);
        }
    }
    workers[w].queue.push_back(job);
    match workers[w].node.state() {
        SbcState::Off if !workers[w].waking => {
            if let (Some(metrics), Some(h)) = (observer.metrics(), sched_handles.as_ref()) {
                metrics.inc(h.cold_boots);
            }
            workers[w].waking = true;
            powered_on.add(now, 1.0);
            observer.emit(
                now,
                TraceEvent::WakeRequested {
                    worker: w,
                    reason: "dispatch",
                },
            );
            let effective = gpio.actuate(now, w, PowerAction::On);
            queue.schedule(effective, Event::PowerEffective(w));
        }
        SbcState::Idle => {
            // A warm (standby) node absorbs the arrival
            // with no boot in front of it.
            if let (Some(metrics), Some(h)) = (observer.metrics(), sched_handles.as_ref()) {
                metrics.inc(h.warm_hits);
            }
            begin_job(
                w, now, config, workers, queue, meter, channels, rng, observer, attr,
            );
        }
        _ => {}
    }
}

#[allow(clippy::too_many_arguments)]
fn begin_job<O: TraceObserver>(
    w: usize,
    now: SimTime,
    config: &OpenLoopConfig,
    workers: &mut [Worker],
    queue: &mut EventQueue<Event>,
    meter: &mut EnergyMeter,
    channels: &[microfaas_energy::ChannelId],
    rng: &mut Rng,
    observer: &mut O,
    attr: Option<&mut Attributor>,
) {
    if let Some(gate) = workers[w].gate.take() {
        queue.cancel(gate);
    }
    match workers[w].queue.pop_front() {
        Some(job) => {
            workers[w].node.start_job(now).expect("node is idle");
            let watts = workers[w].node.power().value();
            meter.set_power(now, channels[w], watts);
            if let Some(a) = attr {
                a.set_power(w, now, watts);
                a.job_started(
                    w,
                    now,
                    job.id,
                    usize::from(job.function.index()),
                    job.tenant as usize,
                );
            }
            observer.emit(
                now,
                TraceEvent::JobStarted {
                    job: job.id,
                    function: job.function.name(),
                    worker: w,
                },
            );
            observer.emit(
                now,
                TraceEvent::WorkerStateChange {
                    worker: w,
                    state: WorkerState::Executing,
                },
            );
            observer.emit(now, TraceEvent::PowerSample { worker: w, watts });
            // The throttle multiplier is 1.0 on every non-budget path,
            // and x * 1.0 == x exactly in IEEE-754 — legacy runs cannot
            // move by a ULP.
            let exec = service_time(job.function)
                .exec(WorkerPlatform::ArmSbc)
                .mul_f64(config.jitter.factor(rng) * job.throttle);
            workers[w].current = Some((job, exec, now));
            workers[w].pending = Some(queue.schedule(now + exec, Event::ExecDone(w)));
        }
        None => {
            // A node is only woken or rebooted when its queue holds work,
            // and nothing else can drain that queue first.
            unreachable!("worker {w} reached idle with an empty queue at {now}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microfaas_sched::{
        DEFAULT_KEEP_ALIVE_TIMEOUT, DEFAULT_WARM_POOL_ALPHA, DEFAULT_WARM_POOL_HEADROOM,
    };
    use microfaas_sim::faults::{FaultPlan, FaultSpec, FaultTrigger};
    use microfaas_sim::trace::TraceSink;

    fn config(arrival: ArrivalProcess, scheduler: SchedulerPolicy, seed: u64) -> OpenLoopConfig {
        OpenLoopConfig {
            workers: 10,
            seed,
            duration: SimDuration::from_secs(600),
            arrival,
            scheduler,
            governor: GovernorKind::RebootPerJob,
            jitter: Jitter::default_run_to_run(),
            functions: FunctionId::ALL.to_vec(),
            popularity: Popularity::Uniform,
            tenants: Vec::new(),
            faults: FaultsConfig::none(),
            cache: CacheConfig::Off,
        }
    }

    #[test]
    fn paper_arrangement_runs() {
        let run = run_open_loop(&OpenLoopConfig::paper_arrangement(
            2,
            SimDuration::from_secs(300),
            1,
        ));
        assert!(
            run.completed > 500,
            "about 600 jobs should arrive and finish"
        );
        assert!(run.mean_latency_s > 0.0);
    }

    #[test]
    fn power_tracks_load() {
        // Offered load 0.5 vs 2.5 jobs/s: power should scale roughly
        // proportionally (energy-proportional computing).
        let low = run_open_loop(&config(
            ArrivalProcess::Poisson { per_second: 0.5 },
            SchedulerPolicy::RandomStatic,
            2,
        ));
        let high = run_open_loop(&config(
            ArrivalProcess::Poisson { per_second: 2.5 },
            SchedulerPolicy::RandomStatic,
            2,
        ));
        let ratio = high.mean_power_w / low.mean_power_w;
        assert!(
            (3.5..6.5).contains(&ratio),
            "5x load should be ~5x power, got {ratio:.2} ({:.2} -> {:.2} W)",
            low.mean_power_w,
            high.mean_power_w
        );
    }

    #[test]
    fn joules_per_function_stays_flat_across_load() {
        // The MicroFaaS selling point: per-function energy is nearly
        // load-independent because idle nodes are off.
        let low = run_open_loop(&config(
            ArrivalProcess::Poisson { per_second: 0.4 },
            SchedulerPolicy::RandomStatic,
            3,
        ));
        let high = run_open_loop(&config(
            ArrivalProcess::Poisson { per_second: 2.0 },
            SchedulerPolicy::RandomStatic,
            3,
        ));
        let drift = (high.joules_per_function / low.joules_per_function - 1.0).abs();
        assert!(
            drift < 0.15,
            "J/func drift {:.1}% across a 5x load swing ({:.2} vs {:.2})",
            drift * 100.0,
            low.joules_per_function,
            high.joules_per_function
        );
    }

    #[test]
    fn least_loaded_cuts_latency_vs_random() {
        let random = run_open_loop(&config(
            ArrivalProcess::Poisson { per_second: 2.5 },
            SchedulerPolicy::RandomStatic,
            4,
        ));
        let least = run_open_loop(&config(
            ArrivalProcess::Poisson { per_second: 2.5 },
            SchedulerPolicy::LeastLoaded,
            4,
        ));
        assert!(
            least.p95_latency_s < random.p95_latency_s,
            "least-loaded p95 {:.1}s should beat random p95 {:.1}s",
            least.p95_latency_s,
            random.p95_latency_s
        );
    }

    #[test]
    fn power_aware_cuts_power_cycles() {
        // Power-gating already makes *energy* proportional regardless of
        // placement; what packing buys is far fewer cold boots (GPIO
        // power cycles), concentrating work on a few always-hot nodes.
        let random = run_open_loop(&config(
            ArrivalProcess::Poisson { per_second: 1.0 },
            SchedulerPolicy::RandomStatic,
            5,
        ));
        let packed = run_open_loop(&config(
            ArrivalProcess::Poisson { per_second: 1.0 },
            SchedulerPolicy::PowerAware,
            5,
        ));
        assert!(
            (packed.power_cycles as f64) < random.power_cycles as f64 * 0.5,
            "packing should at least halve power cycles: {} vs {}",
            packed.power_cycles,
            random.power_cycles
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_open_loop(&config(
            ArrivalProcess::Poisson { per_second: 1.0 },
            SchedulerPolicy::RandomStatic,
            6,
        ));
        let b = run_open_loop(&config(
            ArrivalProcess::Poisson { per_second: 1.0 },
            SchedulerPolicy::RandomStatic,
            6,
        ));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.mean_power_w, b.mean_power_w);
    }

    #[test]
    fn drains_after_horizon() {
        // Every arrived job eventually completes even though arrivals
        // stop at the horizon.
        let run = run_open_loop(&config(
            ArrivalProcess::Poisson { per_second: 1.5 },
            SchedulerPolicy::LeastLoaded,
            7,
        ));
        let expected = run.offered_per_second * 600.0;
        assert!(
            (run.completed as f64 - expected).abs() < 1.0,
            "completed {} vs arrived {expected}",
            run.completed
        );
    }

    #[test]
    fn conventional_jpf_explodes_at_low_load() {
        // The idle floor means a lightly loaded conventional cluster
        // burns enormous energy per function; MicroFaaS does not.
        let cfg_low = config(
            ArrivalProcess::Poisson { per_second: 0.3 },
            SchedulerPolicy::RandomStatic,
            9,
        );
        let micro = run_open_loop(&cfg_low);
        let conv = run_open_loop_conventional(&cfg_low, 6);
        assert!(
            conv.joules_per_function > 10.0 * micro.joules_per_function,
            "at 0.3 jobs/s conventional {:.1} J/f should dwarf MicroFaaS {:.1} J/f",
            conv.joules_per_function,
            micro.joules_per_function
        );
        // The two simulators advance their RNG streams differently, so
        // arrival counts only agree statistically.
        let ratio = conv.completed as f64 / micro.completed as f64;
        assert!(
            (0.8..1.2).contains(&ratio),
            "completions should be comparable"
        );
    }

    #[test]
    fn conventional_open_loop_completes_everything() {
        let cfg = config(
            ArrivalProcess::EverySecond { jobs_per_tick: 2 },
            SchedulerPolicy::RandomStatic,
            10,
        );
        let run = run_open_loop_conventional(&cfg, 6);
        let expected = run.offered_per_second * 600.0;
        assert!((run.completed as f64 - expected).abs() < 1.0);
        assert!(run.mean_power_w >= 60.0, "never below the idle floor");
    }

    /// Saturating load keeps every node executing, so crashes at
    /// t=30 s and t=90 s land mid-invocation.
    fn crashing() -> OpenLoopConfig {
        let mut cfg = config(
            ArrivalProcess::Poisson { per_second: 2.0 },
            SchedulerPolicy::LeastLoaded,
            12,
        );
        cfg.faults = FaultsConfig::with_plan(FaultPlan {
            seed: 3,
            faults: vec![
                FaultSpec {
                    kind: FaultKind::Crash,
                    worker: Some(1),
                    trigger: FaultTrigger::At(SimTime::from_secs(30)),
                },
                FaultSpec {
                    kind: FaultKind::Crash,
                    worker: Some(4),
                    trigger: FaultTrigger::At(SimTime::from_secs(90)),
                },
            ],
        });
        cfg
    }

    #[test]
    fn scheduled_crash_recovers_and_nothing_is_lost() {
        // The re-queued jobs complete after recovery and the drain
        // still finishes clean.
        let run = run_open_loop(&crashing());
        // A crash scheduled while the target happens to be powered off
        // or rebooting is a no-op, so only a lower bound is guaranteed.
        assert!(run.faults_injected >= 1, "at least one crash must land");
        let expected = run.offered_per_second * 600.0;
        assert!(
            (run.completed as f64 - expected).abs() < 1.0,
            "completed {} vs arrived {expected}",
            run.completed
        );
    }

    #[test]
    fn empty_plan_changes_nothing_in_open_loop() {
        let base = config(
            ArrivalProcess::Poisson { per_second: 1.0 },
            SchedulerPolicy::RandomStatic,
            6,
        );
        let mut explicit = base.clone();
        explicit.faults = FaultsConfig::with_plan(FaultPlan::empty());
        let a = run_open_loop(&base);
        let b = run_open_loop(&explicit);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.mean_power_w, b.mean_power_w);
        assert_eq!(a.mean_latency_s, b.mean_latency_s);
        assert_eq!(b.faults_injected, 0);
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn zero_rate_panics() {
        run_open_loop(&config(
            ArrivalProcess::Poisson { per_second: 0.0 },
            SchedulerPolicy::RandomStatic,
            8,
        ));
    }

    fn governed(rate: f64, governor: GovernorKind, seed: u64) -> OpenLoopConfig {
        // Random placement spreads arrivals across the fleet, so each
        // node's idle gaps (~workers/rate seconds) sit well above the
        // ~23 s standby/boot break-even — the regime where holding
        // nodes warm costs energy and buys latency.
        let mut cfg = config(
            ArrivalProcess::Poisson { per_second: rate },
            SchedulerPolicy::RandomStatic,
            seed,
        );
        cfg.governor = governor;
        cfg
    }

    #[test]
    fn keep_alive_trades_energy_for_latency() {
        // At sparse load the idle gaps usually stay under the keep-alive
        // window, so the boot penalty vanishes from the latency path while
        // standby draw shows up on the meter — the Pareto trade the sweep
        // exists to surface.
        let reboot = run_open_loop(&governed(0.25, GovernorKind::RebootPerJob, 21));
        let keep = run_open_loop(&governed(
            0.25,
            GovernorKind::KeepAlive {
                idle_timeout: SimDuration::from_secs(30),
            },
            21,
        ));
        assert!(
            keep.mean_latency_s < reboot.mean_latency_s,
            "keep-alive mean latency {:.3}s should beat reboot-per-job {:.3}s",
            keep.mean_latency_s,
            reboot.mean_latency_s
        );
        assert!(
            keep.joules_per_function > reboot.joules_per_function,
            "keep-alive J/func {:.2} should exceed reboot-per-job {:.2}",
            keep.joules_per_function,
            reboot.joules_per_function
        );
    }

    #[test]
    fn always_on_floors_latency_at_peak_energy() {
        let keep = run_open_loop(&governed(
            0.25,
            GovernorKind::KeepAlive {
                idle_timeout: DEFAULT_KEEP_ALIVE_TIMEOUT,
            },
            22,
        ));
        let always = run_open_loop(&governed(0.25, GovernorKind::AlwaysOn, 22));
        assert!(
            always.mean_latency_s <= keep.mean_latency_s + 1e-9,
            "always-on latency {:.3}s should not exceed keep-alive {:.3}s",
            always.mean_latency_s,
            keep.mean_latency_s
        );
        assert!(
            always.mean_power_w > keep.mean_power_w,
            "always-on power {:.2}W should exceed keep-alive {:.2}W",
            always.mean_power_w,
            keep.mean_power_w
        );
        // Nothing ever gates off, so the only power cycles are the
        // initial wakes.
        assert!(always.mean_powered_on > 9.0, "fleet should stay booted");
    }

    #[test]
    fn warm_pool_sits_between_reboot_and_always_on() {
        let reboot = run_open_loop(&governed(0.25, GovernorKind::RebootPerJob, 23));
        let warm = run_open_loop(&governed(
            0.25,
            GovernorKind::WarmPool {
                alpha: DEFAULT_WARM_POOL_ALPHA,
                headroom: DEFAULT_WARM_POOL_HEADROOM,
            },
            23,
        ));
        let always = run_open_loop(&governed(0.25, GovernorKind::AlwaysOn, 23));
        assert!(
            warm.mean_power_w > reboot.mean_power_w,
            "a warm reserve must draw more than power-gating everything"
        );
        assert!(
            warm.mean_power_w < always.mean_power_w,
            "an EWMA-sized reserve must draw less than the whole fleet"
        );
        assert!(
            warm.mean_latency_s < reboot.mean_latency_s,
            "warm hits should shave the boot penalty off the mean"
        );
    }

    #[test]
    fn governors_are_deterministic_per_seed() {
        for governor in GovernorKind::ALL {
            let a = run_open_loop(&governed(0.5, governor, 31));
            let b = run_open_loop(&governed(0.5, governor, 31));
            assert_eq!(a.completed, b.completed, "{governor:?}");
            assert_eq!(a.mean_power_w, b.mean_power_w, "{governor:?}");
            assert_eq!(a.mean_latency_s, b.mean_latency_s, "{governor:?}");
            assert_eq!(a.power_cycles, b.power_cycles, "{governor:?}");
        }
    }

    /// Counts the trace's `WakeRequested` records: the audit record of
    /// every power-on the GPIO bank actuated.
    #[derive(Default)]
    struct WakeCounter(u64);

    impl TraceSink for WakeCounter {
        fn record(&mut self, _at: SimTime, event: TraceEvent) {
            if matches!(event, TraceEvent::WakeRequested { .. }) {
                self.0 += 1;
            }
        }
    }

    /// Runs `cfg` with a [`WakeCounter`] attached; returns the run and
    /// the number of wakes the trace saw.
    fn count_wakes<L: LatencyAccum>(cfg: &OpenLoopConfig, latencies: L) -> (OpenLoopRun, u64) {
        let mut wakes = WakeCounter::default();
        let (run, _, _) = run_open_loop_core(
            cfg,
            &mut TypedObserver::new(&mut wakes),
            latencies,
            &mut NullSink,
            budget_attributor(cfg),
        );
        (run, wakes.0)
    }

    #[test]
    fn power_cycles_equal_the_traced_wakes() {
        let governed_runs = GovernorKind::ALL.map(|g| governed(1.0, g, 71));
        for cfg in governed_runs.iter().chain([&crashing()]) {
            let label = format!(
                "{:?}, {} faults",
                cfg.governor,
                cfg.faults.plan.faults.len()
            );
            let (exact, wakes) = count_wakes(cfg, Samples::new());
            assert!(wakes > 0, "{label}: the run never woke a node");
            assert_eq!(exact.power_cycles, wakes, "{label}: exact path");
            let (streamed, streamed_wakes) = count_wakes(cfg, StreamingLatency::new());
            assert_eq!(
                streamed.power_cycles, streamed_wakes,
                "{label}: streaming path"
            );
            assert_eq!(streamed_wakes, wakes, "{label}: streaming vs exact");
            if !cfg.faults.plan.faults.is_empty() {
                // Recovery reboots the node without pressing PWR_BUT,
                // so a landed crash adds no wake and no power cycle.
                assert!(exact.faults_injected >= 1, "{label}: no crash landed");
            }
        }
    }

    /// Folds completions into counts so the tests can check the sink
    /// contract without materializing anything.
    struct CountingSink {
        completions: u64,
        last_finished: SimTime,
        monotonic: bool,
        max_latency_s: f64,
    }

    impl CountingSink {
        fn new() -> Self {
            CountingSink {
                completions: 0,
                last_finished: SimTime::ZERO,
                monotonic: true,
                max_latency_s: 0.0,
            }
        }
    }

    impl RunSink for CountingSink {
        fn on_completion(&mut self, completion: &Completion) {
            self.completions += 1;
            if completion.finished < self.last_finished {
                self.monotonic = false;
            }
            self.last_finished = completion.finished;
            self.max_latency_s = self.max_latency_s.max(completion.latency_s());
        }
    }

    #[test]
    fn streaming_matches_exact_aggregates() {
        for governor in GovernorKind::ALL {
            let cfg = governed(1.0, governor, 41);
            let exact = run_open_loop(&cfg);
            let streamed = run_open_loop_streaming(&cfg, &mut NullSink);
            assert_eq!(streamed.completed, exact.completed, "{governor:?}");
            assert_eq!(streamed.mean_power_w, exact.mean_power_w, "{governor:?}");
            assert_eq!(streamed.power_cycles, exact.power_cycles, "{governor:?}");
            assert_eq!(
                streamed.joules_per_function, exact.joules_per_function,
                "{governor:?}"
            );
            // Latency aggregates are the only approximate fields: the
            // Welford mean differs from sum/len at rounding, the p95
            // within the sketch's relative-error guarantee.
            let mean_err = (streamed.mean_latency_s / exact.mean_latency_s - 1.0).abs();
            assert!(mean_err < 1e-9, "{governor:?}: mean err {mean_err:e}");
            let p95_err = (streamed.p95_latency_s / exact.p95_latency_s - 1.0).abs();
            assert!(
                p95_err < 2.5 * STREAMING_QUANTILE_EPSILON,
                "{governor:?}: p95 {:.4} vs exact {:.4}",
                streamed.p95_latency_s,
                exact.p95_latency_s
            );
        }
    }

    #[test]
    fn streaming_sink_sees_every_completion_in_time_order() {
        let cfg = config(
            ArrivalProcess::Poisson { per_second: 1.5 },
            SchedulerPolicy::LeastLoaded,
            17,
        );
        let mut sink = CountingSink::new();
        let run = run_open_loop_streaming(&cfg, &mut sink);
        assert_eq!(sink.completions, run.completed);
        assert!(sink.monotonic, "completions must arrive in time order");
        assert!(sink.max_latency_s >= run.p95_latency_s);
    }

    #[test]
    fn streaming_is_deterministic_per_seed() {
        let cfg = governed(
            0.5,
            GovernorKind::KeepAlive {
                idle_timeout: DEFAULT_KEEP_ALIVE_TIMEOUT,
            },
            19,
        );
        let a = run_open_loop_streaming(&cfg, &mut NullSink);
        let b = run_open_loop_streaming(&cfg, &mut NullSink);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.mean_latency_s, b.mean_latency_s);
        assert_eq!(a.p95_latency_s, b.p95_latency_s);
        assert_eq!(a.mean_power_w, b.mean_power_w);
    }

    #[test]
    fn cache_turns_repeats_into_free_completions() {
        let mut cfg = config(
            ArrivalProcess::Poisson { per_second: 2.0 },
            SchedulerPolicy::LeastLoaded,
            51,
        );
        cfg.popularity = Popularity::Zipf { exponent: 1.1 };
        let baseline = run_open_loop(&cfg);
        cfg.cache = CacheConfig::parse("lru:4096,ttl=300").unwrap();
        let cached = run_open_loop(&cfg);
        assert_eq!(
            cached.cache_hits + cached.cache_misses + cached.cache_coalesced,
            cached.completed,
            "every arrival lands in exactly one bucket"
        );
        assert!(cached.cache_hits > 0, "Zipf repeats must hit");
        assert!(
            cached.p95_latency_s < baseline.p95_latency_s,
            "hits should cut p95: {:.2}s vs {:.2}s",
            cached.p95_latency_s,
            baseline.p95_latency_s
        );
        assert!(
            cached.joules_per_function < baseline.joules_per_function,
            "skipped executions should cut J/function"
        );
        // Nothing is lost: every arrival still completes after drain.
        let expected = cached.offered_per_second * 600.0;
        assert!((cached.completed as f64 - expected).abs() < 1.0);
        assert_eq!(baseline.cache_hits, 0, "cache off must stay silent");
    }

    #[test]
    fn cached_runs_are_deterministic_and_streaming_parity_holds() {
        let mut cfg = config(
            ArrivalProcess::Poisson { per_second: 2.0 },
            SchedulerPolicy::CacheAffine,
            52,
        );
        cfg.popularity = Popularity::Zipf { exponent: 1.1 };
        cfg.cache = CacheConfig::parse(crate::cache::DEFAULT_CACHE_SPEC).unwrap();
        let a = run_open_loop(&cfg);
        let b = run_open_loop(&cfg);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.mean_latency_s, b.mean_latency_s);
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.cache_coalesced, b.cache_coalesced);
        let streamed = run_open_loop_streaming(&cfg, &mut NullSink);
        assert_eq!(streamed.completed, a.completed);
        assert_eq!(streamed.cache_hits, a.cache_hits);
        assert_eq!(streamed.cache_misses, a.cache_misses);
        assert_eq!(streamed.cache_coalesced, a.cache_coalesced);
        assert_eq!(streamed.mean_power_w, a.mean_power_w);
    }

    #[test]
    fn cached_streaming_sink_stays_monotonic_and_complete() {
        let mut cfg = config(
            ArrivalProcess::Poisson { per_second: 3.0 },
            SchedulerPolicy::LeastLoaded,
            53,
        );
        cfg.popularity = Popularity::HotCold {
            hot_functions: 3,
            hot_share: 0.9,
        };
        cfg.cache = CacheConfig::parse("lru:512,ttl=120").unwrap();
        let mut sink = CountingSink::new();
        let run = run_open_loop_streaming(&cfg, &mut sink);
        assert_eq!(sink.completions, run.completed);
        assert!(sink.monotonic, "cached completions must stay in time order");
    }

    #[test]
    fn conventional_open_loop_honours_the_cache() {
        let mut cfg = config(
            ArrivalProcess::Poisson { per_second: 2.0 },
            SchedulerPolicy::RandomStatic,
            54,
        );
        cfg.popularity = Popularity::Zipf { exponent: 1.1 };
        let baseline = run_open_loop_conventional(&cfg, 6);
        cfg.cache = CacheConfig::parse("lru:4096,ttl=300").unwrap();
        let cached = run_open_loop_conventional(&cfg, 6);
        assert!(cached.cache_hits > 0);
        assert!(cached.mean_latency_s < baseline.mean_latency_s);
        let expected = cached.offered_per_second * 600.0;
        assert!((cached.completed as f64 - expected).abs() < 1.0);
    }

    #[test]
    fn attributed_runs_conserve_and_match_the_meter() {
        use microfaas_sched::BudgetAction;
        for governor in [
            GovernorKind::RebootPerJob,
            GovernorKind::KeepAlive {
                idle_timeout: DEFAULT_KEEP_ALIVE_TIMEOUT,
            },
            GovernorKind::EnergyBudget {
                cap_w: 0.5,
                burst_j: 10.0,
                action: BudgetAction::Shed,
            },
        ] {
            for policy in IdlePolicy::ALL {
                let cfg = governed(0.6, governor, 61);
                let (run, ledger) = run_open_loop_attributed(&cfg, policy);
                assert!(ledger.conserves(), "{governor:?}/{policy}");
                // The integer ledger and the f64 meter integrate the
                // same piecewise-constant trace.
                let meter_joules = run.joules_per_function * run.completed as f64;
                let err = (ledger.total_joules() - meter_joules).abs();
                assert!(
                    err < 1e-6 * meter_joules.max(1.0),
                    "{governor:?}/{policy}: ledger {} vs meter {meter_joules}",
                    ledger.total_joules()
                );
                // Attribution is pure observation: the run itself is
                // bit-identical to the unattributed entry point.
                let plain = run_open_loop(&cfg);
                assert_eq!(run.completed, plain.completed, "{governor:?}/{policy}");
                assert_eq!(
                    run.mean_power_w, plain.mean_power_w,
                    "{governor:?}/{policy}"
                );
                assert_eq!(
                    run.mean_latency_s, plain.mean_latency_s,
                    "{governor:?}/{policy}"
                );
            }
        }
    }

    #[test]
    fn attributed_streaming_ledger_is_byte_identical_to_exact() {
        let mut cfg = governed(1.0, GovernorKind::RebootPerJob, 62);
        cfg.popularity = Popularity::Zipf { exponent: 1.1 };
        cfg.cache = CacheConfig::parse("lru:1024,ttl=300").unwrap();
        let (exact_run, exact_ledger) = run_open_loop_attributed(&cfg, IdlePolicy::UsageWeighted);
        let (streamed_run, streamed_ledger) =
            run_open_loop_streaming_attributed(&cfg, &mut NullSink, IdlePolicy::UsageWeighted);
        assert_eq!(streamed_run.completed, exact_run.completed);
        assert_eq!(streamed_run.cache_hits, exact_run.cache_hits);
        assert_eq!(exact_ledger.to_csv(), streamed_ledger.to_csv());
        assert!(exact_ledger.conserves());
    }

    #[test]
    fn budget_actions_gate_shed_defer_and_throttle() {
        use microfaas_sched::BudgetAction;
        let budget = |action| {
            governed(
                4.0,
                GovernorKind::EnergyBudget {
                    cap_w: 0.5,
                    burst_j: 10.0,
                    action,
                },
                63,
            )
        };
        let baseline = run_open_loop(&governed(
            4.0,
            GovernorKind::KeepAlive {
                idle_timeout: DEFAULT_KEEP_ALIVE_TIMEOUT,
            },
            63,
        ));
        let shed = run_open_loop(&budget(BudgetAction::Shed));
        let expected = shed.offered_per_second * 600.0;
        assert!(
            (shed.completed as f64) < 0.5 * expected,
            "a binding shed cap must reject most of the overload: {} of {expected}",
            shed.completed
        );
        let shed_joules = shed.joules_per_function * shed.completed as f64;
        let base_joules = baseline.joules_per_function * baseline.completed as f64;
        assert!(
            shed_joules < 0.5 * base_joules,
            "shedding must cut cluster energy: {shed_joules:.0} J vs {base_joules:.0} J"
        );
        // Defer completes everything — jobs wait out the bucket refill
        // instead of dying. (Each action reshapes the shared RNG
        // interleaving, so every run is scored against its own arrival
        // count.)
        let defer = run_open_loop(&budget(BudgetAction::Defer));
        let defer_expected = defer.offered_per_second * 600.0;
        assert!(
            (defer.completed as f64 - defer_expected).abs() < 1.0,
            "deferred jobs must all complete: {} vs {defer_expected}",
            defer.completed
        );
        assert!(
            defer.mean_latency_s > baseline.mean_latency_s,
            "deferral queues the excess load behind the cap"
        );
        // Throttle completes everything too, but stretched executions
        // push the mean up without shedding a single request.
        let throttle = run_open_loop(&budget(BudgetAction::Throttle));
        let throttle_expected = throttle.offered_per_second * 600.0;
        assert!((throttle.completed as f64 - throttle_expected).abs() < 1.0);
        assert!(throttle.mean_latency_s > baseline.mean_latency_s);
    }

    #[test]
    fn budget_runs_are_deterministic_and_stream_exactly() {
        use microfaas_sched::BudgetAction;
        for action in [
            BudgetAction::Shed,
            BudgetAction::Defer,
            BudgetAction::Throttle,
        ] {
            let cfg = governed(
                3.0,
                GovernorKind::EnergyBudget {
                    cap_w: 0.5,
                    burst_j: 10.0,
                    action,
                },
                64,
            );
            let a = run_open_loop(&cfg);
            let b = run_open_loop(&cfg);
            assert_eq!(a.completed, b.completed, "{action}");
            assert_eq!(a.mean_latency_s, b.mean_latency_s, "{action}");
            assert_eq!(a.mean_power_w, b.mean_power_w, "{action}");
            let streamed = run_open_loop_streaming(&cfg, &mut NullSink);
            assert_eq!(streamed.completed, a.completed, "{action}");
            assert_eq!(streamed.mean_power_w, a.mean_power_w, "{action}");
        }
    }

    #[test]
    fn conventional_attribution_conserves_with_idle_floor() {
        let cfg = config(
            ArrivalProcess::Poisson { per_second: 1.0 },
            SchedulerPolicy::RandomStatic,
            65,
        );
        let (run, ledger) = run_open_loop_conventional_attributed(&cfg, 6, IdlePolicy::Equal);
        assert!(ledger.conserves());
        let meter_joules = run.joules_per_function * run.completed as f64;
        let err = (ledger.total_joules() - meter_joules).abs();
        assert!(err < 1e-6 * meter_joules, "ledger vs meter: {err}");
        // While any VM is busy the whole host draw — 60 W idle floor
        // included — splits across the active jobs, so conventional
        // per-job joules come out near the paper's ~32 J/function,
        // nowhere near the MicroFaaS ~6 J. Truly-empty stretches still
        // land in the idle pool.
        let attributed: u128 = (0..ledger.functions().len())
            .map(|f| ledger.function_attributed_pj(f))
            .sum();
        let per_job = attributed as f64 / 1e12 / run.completed as f64;
        assert!(
            per_job > 10.0,
            "conventional jobs must carry the idle floor: {per_job:.1} J/job"
        );
        assert!(ledger.idle_pj() > 0, "empty stretches still idle");
        let plain = run_open_loop_conventional(&cfg, 6);
        assert_eq!(run.completed, plain.completed);
        assert_eq!(run.mean_power_w, plain.mean_power_w);
    }

    #[test]
    fn monitored_run_is_inert_and_covers_every_completion() {
        // Telemetry is an observer: the run's aggregates must agree
        // bit-for-bit with the unmonitored engine, and the windows must
        // account for every completion and the full meter energy.
        let cfg = config(
            ArrivalProcess::Poisson { per_second: 2.0 },
            SchedulerPolicy::LeastLoaded,
            77,
        );
        let plain = run_open_loop(&cfg);
        let (run, series) = run_open_loop_monitored(&cfg, &TelemetryConfig::default());
        assert_eq!(run.completed, plain.completed);
        assert_eq!(run.mean_latency_s, plain.mean_latency_s);
        assert_eq!(run.p95_latency_s, plain.p95_latency_s);
        assert_eq!(run.mean_power_w, plain.mean_power_w);
        assert_eq!(run.power_cycles, plain.power_cycles);
        assert_eq!(series.total_completed(), run.completed);
        // The windowed energy integral and the meter integrate the same
        // step curve; only f64 summation order differs.
        let meter_joules =
            run.mean_power_w * series.end.duration_since(SimTime::ZERO).as_secs_f64();
        let err = (series.total_energy_j() - meter_joules).abs();
        assert!(
            err < 1e-6 * meter_joules.max(1.0),
            "windowed energy {} vs meter {meter_joules}",
            series.total_energy_j()
        );
    }

    #[test]
    fn monitored_streaming_and_attributed_agree_with_their_engines() {
        let mut cfg = governed(
            2.0,
            GovernorKind::KeepAlive {
                idle_timeout: DEFAULT_KEEP_ALIVE_TIMEOUT,
            },
            78,
        );
        cfg.tenants = vec![
            TenantClass {
                name: "paid".into(),
                weight: 0.3,
                slo_latency_s: 5.0,
            },
            TenantClass {
                name: "free".into(),
                weight: 0.7,
                slo_latency_s: 60.0,
            },
        ];
        let plain = run_open_loop_streaming(&cfg, &mut NullSink);
        let (run, series) = run_open_loop_monitored_streaming(&cfg, &TelemetryConfig::default());
        assert_eq!(run.completed, plain.completed);
        assert_eq!(run.mean_latency_s, plain.mean_latency_s);
        assert_eq!(run.mean_power_w, plain.mean_power_w);
        assert_eq!(series.total_completed(), run.completed);
        assert_eq!(series.tenants.len(), 2, "tenant columns follow config");
        // Per-tenant windowed completions must total the run's
        // per-tenant summaries.
        for (t, summary) in run.tenants.iter().enumerate() {
            let windowed: u64 = series.windows.iter().map(|w| w.tenants[t].completed).sum();
            assert_eq!(windowed, summary.completed, "tenant {t}");
        }
        let (arun, ledger, aseries) = run_open_loop_monitored_attributed(
            &cfg,
            IdlePolicy::Equal,
            &TelemetryConfig::default(),
        );
        assert_eq!(arun.completed, run.completed);
        assert_eq!(arun.mean_power_w, run.mean_power_w);
        assert!(ledger.conserves());
        assert_eq!(aseries.to_csv(), series.to_csv(), "attribution is inert");
    }

    #[test]
    fn monitored_series_is_deterministic() {
        let cfg = config(
            ArrivalProcess::FlashCrowd {
                base_per_second: 0.5,
                spike_at_s: 120.0,
                spike_duration_s: 60.0,
                spike_per_second: 10.0,
            },
            SchedulerPolicy::LeastLoaded,
            79,
        );
        let (_, a) = run_open_loop_monitored_streaming(&cfg, &TelemetryConfig::default());
        let (_, b) = run_open_loop_monitored_streaming(&cfg, &TelemetryConfig::default());
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.render_prometheus(), b.render_prometheus());
    }

    /// The series' Prometheus exposition, pinned byte for byte on a
    /// two-tenant run long enough for 600 one-second windows (13 gauges
    /// a window), so a change to how the registry finds its metrics
    /// cannot reorder or rename a single sample.
    #[test]
    fn monitored_prometheus_golden_is_unchanged() {
        let mut cfg = governed(
            1.5,
            GovernorKind::KeepAlive {
                idle_timeout: DEFAULT_KEEP_ALIVE_TIMEOUT,
            },
            2022,
        );
        cfg.tenants = vec![
            TenantClass {
                name: "paid".into(),
                weight: 1.0,
                slo_latency_s: 2.5,
            },
            TenantClass {
                name: "free".into(),
                weight: 4.0,
                slo_latency_s: 30.0,
            },
        ];
        let (_, series) = run_open_loop_monitored(&cfg, &TelemetryConfig::default());
        assert!(
            series.windows.len() >= 500,
            "{} windows",
            series.windows.len()
        );
        let text = series.render_prometheus();
        assert_eq!(
            crate::cache::fnv1a(text.as_bytes()),
            0x3c0d_2548_4f03_b2a9,
            "{} bytes",
            text.len()
        );
    }

    #[test]
    fn conventional_monitored_matches_and_carries_the_idle_floor() {
        let cfg = config(
            ArrivalProcess::Poisson { per_second: 1.0 },
            SchedulerPolicy::RandomStatic,
            80,
        );
        let plain = run_open_loop_conventional(&cfg, 6);
        let (run, series) =
            run_open_loop_conventional_monitored(&cfg, 6, &TelemetryConfig::default());
        assert_eq!(run.completed, plain.completed);
        assert_eq!(run.mean_power_w, plain.mean_power_w);
        assert_eq!(series.total_completed(), run.completed);
        // The rack server never drops below its idle floor, so every
        // full window reports tens of watts even when nothing runs.
        let floor = series
            .windows
            .iter()
            .map(|w| w.power_w)
            .fold(f64::INFINITY, f64::min);
        assert!(floor > 50.0, "idle floor should hold, got {floor:.1} W");
    }

    #[test]
    fn new_placements_complete_everything() {
        for scheduler in [
            SchedulerPolicy::WorkConserving,
            SchedulerPolicy::JoinShortestQueue,
            SchedulerPolicy::WarmFirst,
        ] {
            let run = run_open_loop(&config(
                ArrivalProcess::Poisson { per_second: 1.0 },
                scheduler,
                13,
            ));
            let expected = run.offered_per_second * 600.0;
            assert!(
                (run.completed as f64 - expected).abs() < 1.0,
                "{scheduler:?}: completed {} vs arrived {expected}",
                run.completed
            );
        }
    }
}
