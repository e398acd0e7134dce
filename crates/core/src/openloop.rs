//! Open-loop (arrival-driven) simulation — the paper's §IV-D mechanism
//! taken literally: invocations *arrive* over time, the orchestration
//! plane places each one on a worker queue, and workers power on and off
//! as their queues fill and drain.
//!
//! The closed-loop runs behind [`crate::micro`] and
//! [`crate::conventional`] measure saturated capacity; this module
//! measures what the paper's Fig. 5 argues about — how cluster power
//! tracks offered load — plus the latency cost of powering nodes down
//! (a cold boot in front of a job).
//!
//! One engine owns the arrival-driven lifecycle: arrival generation
//! with its function and tenant draws, the result cache and in-flight
//! coalescing, energy-budget admission and deferral, placement,
//! completion booking (latency and tenant aggregates, the [`RunSink`],
//! trace, metrics and energy attribution) and the end-of-run report.
//! What differs between the two clusters is the hardware under each
//! worker, which a node class supplies. The engine takes the class as a
//! type parameter, so each class compiles to its own event loop:
//!
//! - **SBC fleet** ([`run_open_loop`] and its siblings): one [`SbcNode`]
//!   state machine per worker on its own `sbc-{w}` meter channel,
//!   powered on and off through GPIO. The governor decides what a
//!   drained node does (gate off, stand by, gate off after an idle
//!   window, prewarm), and scheduled crashes take executing nodes down.
//! - **VM host** ([`run_open_loop_conventional`]): every VM on one rack
//!   server, metered as a single `rack-server` channel that never drops
//!   below its idle floor, with CPU-share slowdown and a reboot after
//!   every job. It ignores the placement, governor and fault settings.
//!
//! This is not the closed-loop engine. The open loop continues a warm
//! node straight into its next job with no boot event, crashes only an
//! executing node and requeues its job at the front of the same node,
//! and lumps result delivery into one overhead delay while streaming
//! completions instead of keeping per-job records.
//!
//! Placement and power policy are pluggable through `microfaas-sched`
//! (see `docs/SCHEDULING.md`): [`OpenLoopConfig::scheduler`] picks the
//! worker queue per arrival and [`OpenLoopConfig::governor`] decides
//! what a drained worker does.

use std::convert::Infallible;
use std::fmt::Display;
use std::sync::Arc;

use microfaas_energy::attribution::{Attributor, EnergyLedger, IdlePolicy};
use microfaas_energy::{ChannelId, EnergyMeter};
use microfaas_hw::gpio::PowerController;
use microfaas_hw::sbc::{SbcNode, SbcState};
use microfaas_hw::{RackServer, VmState};
use microfaas_sched::{
    BudgetDecision, DrainAction, GovernorKind, NodeView, PlacementKind, PolicyEngine,
    BUDGET_THROTTLE_FACTOR,
};
use microfaas_sim::faults::{FaultInjector, FaultKind, FaultPlan};
use microfaas_sim::telemetry::{FlightRecorder, TelemetryConfig, TelemetrySeries, TenantSpec};
use microfaas_sim::trace::{Observer, TraceEvent, TraceObserver, WorkerState};
use microfaas_sim::{
    CounterId, EventId, EventQueue, HistogramId, MetricsRegistry, OnlineStats, QuantileSketch, Rng,
    Samples, SimDuration, SimTime, TimeWeighted,
};
use microfaas_workloads::calibration::{service_time, WorkerPlatform};
use microfaas_workloads::FunctionId;

use crate::cache::{content_key, CacheConfig, CoalesceTable, ResultCache};
use crate::closedloop::{SchedMetrics, EXEC_BUCKETS};
use crate::config::Jitter;
use crate::recovery::DETECTION_DELAY;

pub use crate::arrivals::ArrivalProcess;
use crate::arrivals::{
    ArrivalState, FunctionPicker, Popularity, TenantClass, TenantSummary, TenantTracker,
};

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
    /// Placement policy, consulted once per arrival. The historical
    /// open-loop `RandomQueue` is [`PlacementKind::RandomStatic`]: the
    /// same uniform draw from the same simulation-RNG site.
    pub scheduler: PlacementKind,
    /// What a drained worker does with its power state. The default
    /// [`GovernorKind::RebootPerJob`] gates nodes off the moment they
    /// drain (the paper's policy); the alternatives hold nodes at
    /// 0.128 W standby to absorb the next arrival without the 1.51 s
    /// boot — the latency-energy trade `policy_sweep_cached_jobs` charts.
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
    /// instant — a powered-off node has nothing to kill. Shared behind
    /// an [`Arc`] so cloning a config never copies the fault list.
    pub faults: Arc<FaultPlan>,
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
            faults: Arc::default(),
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
    simulate(
        config,
        SbcFleet::new(config.workers),
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
    let (run, ledger, _end) = simulate(
        config,
        SbcFleet::new(config.workers),
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
    let (run, ledger, _end) = simulate(
        config,
        SbcFleet::new(config.workers),
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
/// follows fleet size and in-flight backlog, not completed-job count.
/// Every waiting job sits in one engine-wide pool that grows to the
/// run's peak backlog and reuses freed entries, so a node costs one
/// 64-byte record however deep its queue once ran; an event-queue slot
/// that empties keeps at most 256 events of buffer. Pass
/// [`NullSink`] to drop per-job observations entirely, or
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
    simulate(
        config,
        SbcFleet::new(config.workers),
        &mut Observer::disabled(),
        StreamingLatency::new(),
        sink,
        budget_attributor(config),
    )
    .0
}

/// [`run_open_loop_streaming`] with the **flight recorder** attached:
/// alongside the usual aggregates, returns a [`TelemetrySeries`] of
/// tumbling windows (throughput, latency quantiles, queue depth,
/// occupancy, power, energy, cache and fault counts, per-tenant SLO
/// attainment) over the whole run. Telemetry is strictly an observer —
/// it consumes no RNG draws — so the [`OpenLoopRun`] agrees bit-for-bit
/// with [`run_open_loop_streaming`] on the same config. This is the
/// `monitor` CLI's engine — windows stay bounded
/// ([`TelemetryConfig::max_windows`]) no matter how many jobs run. See
/// `docs/MONITORING.md`.
///
/// # Panics
///
/// As [`run_open_loop`], plus if `telemetry` is invalid.
pub fn run_open_loop_monitored_streaming(
    config: &OpenLoopConfig,
    telemetry: &TelemetryConfig,
) -> (OpenLoopRun, TelemetrySeries) {
    let mut recorder = flight_recorder(config, telemetry);
    let (run, _ledger, end) = simulate(
        config,
        SbcFleet::new(config.workers),
        &mut recorder,
        StreamingLatency::new(),
        &mut NullSink,
        budget_attributor(config),
    );
    (run, recorder.finish(end))
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
    let mut recorder = flight_recorder(config, telemetry);
    let (run, ledger, end) = simulate(
        config,
        SbcFleet::new(config.workers),
        &mut recorder,
        StreamingLatency::new(),
        &mut NullSink,
        Some(make_attributor(config, idle_policy)),
    );
    (
        run,
        ledger.expect("attributor was supplied"),
        recorder.finish(end),
    )
}

/// The flight recorder for one monitored run, with a tenant column per
/// configured class in the engine's tenant order (or the catch-all
/// `all` column when the run is single-tenant). It is the run's whole
/// observer: the engine hands it every trace event and every
/// completion.
fn flight_recorder(config: &OpenLoopConfig, telemetry: &TelemetryConfig) -> FlightRecorder {
    let tenants = config
        .tenants
        .iter()
        .map(|t| TenantSpec {
            name: t.name.clone(),
            slo_latency_s: t.slo_latency_s,
        })
        .collect();
    FlightRecorder::new(telemetry, tenants)
}

/// Runs the same arrival process against the conventional cluster:
/// `vms` microVMs that are always powered (the host never drops below
/// its 60 W idle floor). The contrast with [`run_open_loop`] is the
/// paper's energy-proportionality argument made dynamic: at low load
/// the conventional J/function explodes while MicroFaaS stays flat.
///
/// Each arrival goes to the first VM with the fewest queued plus
/// running jobs, and every VM reboots after each job;
/// [`OpenLoopConfig::scheduler`], [`OpenLoopConfig::governor`] and
/// [`OpenLoopConfig::faults`] do not apply.
///
/// # Panics
///
/// Panics if `vms` is zero or the config is invalid per
/// [`run_open_loop`].
pub fn run_open_loop_conventional(config: &OpenLoopConfig, vms: usize) -> OpenLoopRun {
    simulate(
        config,
        VmHost::new(vms),
        &mut Observer::disabled(),
        Samples::new(),
        &mut NullSink,
        None,
    )
    .0
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
    let (run, ledger, _end) = simulate(
        config,
        VmHost::new(vms),
        &mut Observer::disabled(),
        Samples::new(),
        &mut NullSink,
        Some(make_attributor(config, idle_policy)),
    );
    (run, ledger.expect("attributor was supplied"))
}

/// Runs one open-loop simulation of `class` to completion.
fn simulate<C: OpenClass, O: TraceObserver, L: LatencyAccum, S: RunSink>(
    config: &OpenLoopConfig,
    class: C,
    observer: &mut O,
    latencies: L,
    sink: &mut S,
    attr: Option<Attributor>,
) -> (OpenLoopRun, Option<EnergyLedger>, SimTime) {
    engine(config, class, observer, latencies, sink, attr).run()
}

/// Builds the engine for one open-loop run of `class`, before its first
/// event.
fn engine<'a, C: OpenClass, O: TraceObserver, L: LatencyAccum, S: RunSink>(
    config: &'a OpenLoopConfig,
    class: C,
    observer: &'a mut O,
    latencies: L,
    sink: &'a mut S,
    attr: Option<Attributor>,
) -> OpenSim<'a, C, O, L, S> {
    assert!(!config.functions.is_empty(), "need at least one function");
    if let Err(problem) = config.arrival.try_validate() {
        panic!("{problem}");
    }
    // Compiles the popularity skew (validating it) and the tenant mix.
    // The defaults draw as the goldens pin them: one uniform index per
    // arrival, no tenant draw.
    let picker = FunctionPicker::new(&config.popularity, config.functions.len());
    let tenants = TenantTracker::new(&config.tenants);
    // The `open_*` families register before the `sched_*` ones, the
    // order the pinned expositions list them in.
    let handles = observer.metrics().map(OpenMetrics::register);
    let (placement, governor) = C::policy(config);
    let policy = PolicyEngine::new(placement, governor, config.seed);
    // These three placements under the default governor emit no
    // scheduler trace event or metric: goldens pin their traces and
    // expositions without them.
    let legacy_placement = matches!(
        placement,
        PlacementKind::RandomStatic | PlacementKind::LeastLoaded | PlacementKind::PowerAware
    );
    let sched_active = !(legacy_placement && governor == GovernorKind::RebootPerJob);
    let sched_handles = if sched_active {
        observer.metrics().map(SchedMetrics::register)
    } else {
        None
    };
    config.cache.try_validate().expect("invalid cache config");
    // The EnergyBudget governor's admission loop; every other governor
    // answers `false` and the budget branches are dead.
    let budget_active = policy.budget_active();
    debug_assert!(
        !budget_active || attr.is_some(),
        "budget charging requires per-job attribution"
    );
    let nodes = class.nodes();
    let core = Core {
        config,
        observer,
        queue: EventQueue::new(),
        rng: Rng::new(config.seed),
        meter: EnergyMeter::new(SimTime::ZERO),
        channels: Vec::new(),
        attr,
        policy,
        sched_handles,
        pool: Pool::new(),
    };
    OpenSim {
        core,
        class,
        latencies,
        sink,
        handles,
        picker,
        tenants,
        arrival_state: ArrivalState::default(),
        cache: ResultCache::from_config(&config.cache),
        coalesce: CoalesceTable::new(),
        input_variants: config.cache.input_variants() as usize,
        views: Vec::with_capacity(nodes),
        placement,
        sched_active,
        budget_active,
        horizon: SimTime::ZERO + config.duration,
        arrived: 0,
        completed: 0,
        shed: 0,
    }
}

/// An event of the open loop. Node indices are `u32` (every fleet is
/// built with at most `u32::MAX` nodes, see [`fleet_size`]), so an
/// event is eight bytes and a queue entry 24: a dense run keeps tens of
/// thousands pending.
#[derive(Debug, Clone, Copy)]
enum Event<T> {
    /// The next arrival (or batch of arrivals) is due.
    Arrival,
    /// A boot or reboot window ended; the node is idle.
    BootDone(u32),
    /// The function body finished; the response leaves the node and the
    /// lumped overhead begins.
    ExecDone(u32),
    /// The overhead elapsed; the job is complete.
    JobDone(u32),
    /// An [`EnergyBudget`](GovernorKind::EnergyBudget) deferral elapsed:
    /// the job parked in this entry of the [`Pool`] re-enters placement
    /// unconditionally.
    Release(u32),
    /// A timer of the node class.
    Node(u32, T),
}

const _: () = assert!(std::mem::size_of::<Event<SbcTimer>>() == 8);
const _: () = assert!(std::mem::size_of::<Event<Infallible>>() == 8);

/// Checks a fleet of `n` nodes before it is built: at least one node,
/// and every index fits the `u32` an [`Event`] carries, so the
/// `w as u32` at each schedule never truncates.
fn fleet_size(n: usize, node: &str) -> usize {
    assert!(n > 0, "cluster needs at least one {node}");
    assert!(
        u32::try_from(n).is_ok(),
        "cluster holds at most {} {node}s, got {n}",
        u32::MAX
    );
    n
}

/// One invocation between its arrival and its completion: queued on a
/// node, running, parked by a budget deferral, or coalesced behind an
/// identical invoke. 24 bytes: a dense run keeps tens of thousands in
/// flight.
#[derive(Debug, Clone, Copy)]
struct QueuedJob {
    /// Arrival ordinal, used as the job id in trace events.
    id: u64,
    arrived: SimTime,
    /// The canonical input drawn for the result cache; 0 (and never
    /// read) when the cache is off. With the function it gives the
    /// job's content key ([`QueuedJob::key`]).
    variant: u32,
    /// Tenant-class index; 0 when no classes are configured.
    tenant: u16,
    function: FunctionId,
    /// Set by an [`EnergyBudget`](GovernorKind::EnergyBudget) throttle
    /// action: the job runs [`BUDGET_THROTTLE_FACTOR`] times longer.
    throttled: bool,
}

const _: () = assert!(std::mem::size_of::<QueuedJob>() == 24);

impl QueuedJob {
    /// The job's content-cache key.
    fn key(&self) -> u64 {
        content_key(self.function.index(), u64::from(self.variant))
    }
}

/// The end of a chain of [`Pool`] entries.
const NIL: u32 = u32::MAX;

/// Every job waiting in a node queue or parked by a budget deferral, in
/// one engine-wide pool of entries linked by `u32` indices, so storage
/// follows the run's peak backlog rather than its fleet. A freed entry
/// joins a free chain and is reused last in, first out: the next
/// arrival fills the entry a job start just read. The pool keeps its
/// peak's entries until the run ends.
struct Pool {
    jobs: Vec<QueuedJob>,
    /// The link out of each entry: the next job of its node queue, or
    /// the next free entry.
    next: Vec<u32>,
    /// The first free entry, or [`NIL`].
    free: u32,
}

/// A node's waiting jobs: a chain of [`Pool`] entries, circular through
/// its tail, whose link leads back to the head.
#[derive(Clone, Copy, Default)]
struct Fifo {
    tail: u32,
    len: u32,
}

impl Fifo {
    fn is_empty(self) -> bool {
        self.len == 0
    }
}

impl Pool {
    fn new() -> Self {
        Pool {
            jobs: Vec::new(),
            next: Vec::new(),
            free: NIL,
        }
    }

    /// Stores `job` in the last freed entry, or a new one, and returns
    /// the entry. A budget deferral parks its job here.
    fn alloc(&mut self, job: QueuedJob) -> u32 {
        if self.free == NIL {
            assert!(
                self.jobs.len() < NIL as usize,
                "under 2^32 - 1 jobs wait at once"
            );
            self.jobs.push(job);
            self.next.push(NIL);
            return (self.jobs.len() - 1) as u32;
        }
        let entry = self.free;
        self.free = self.next[entry as usize];
        self.jobs[entry as usize] = job;
        entry
    }

    /// Takes the job out of `entry` and frees the entry.
    fn take(&mut self, entry: u32) -> QueuedJob {
        self.next[entry as usize] = self.free;
        self.free = entry;
        self.jobs[entry as usize]
    }

    /// Stores `job` and links it in behind `queue`'s tail, which is in
    /// front of its head. Returns the entry.
    fn link(&mut self, queue: &mut Fifo, job: QueuedJob) -> u32 {
        let entry = self.alloc(job);
        if queue.is_empty() {
            self.next[entry as usize] = entry;
        } else {
            let tail = queue.tail as usize;
            self.next[entry as usize] = self.next[tail];
            self.next[tail] = entry;
        }
        queue.len += 1;
        entry
    }

    /// Queues `job` last in `queue`.
    fn push_back(&mut self, queue: &mut Fifo, job: QueuedJob) {
        queue.tail = self.link(queue, job);
    }

    /// Queues `job` first in `queue`.
    fn push_front(&mut self, queue: &mut Fifo, job: QueuedJob) {
        let entry = self.link(queue, job);
        if queue.len == 1 {
            queue.tail = entry;
        }
    }

    /// Takes the first job of `queue`.
    fn pop_front(&mut self, queue: &mut Fifo) -> Option<QueuedJob> {
        if queue.is_empty() {
            return None;
        }
        let tail = queue.tail as usize;
        let head = self.next[tail];
        self.next[tail] = self.next[head as usize];
        queue.len -= 1;
        Some(self.take(head))
    }
}

/// What the engine tracks per node: the jobs placed on it, the
/// invocation it runs and its one pending timer.
#[derive(Default)]
struct Slot {
    queue: Fifo,
    /// `(job, exec, started)` for the in-flight invocation.
    current: Option<(QueuedJob, SimDuration, SimTime)>,
    /// The running invocation's next lifecycle event (ExecDone or
    /// JobDone), cancelled when an injected crash interrupts it, or an
    /// SBC's idle gate, cancelled when a job start pre-empts the idle
    /// window. A node never holds both: a job start cancels the gate
    /// before the ExecDone is scheduled, the JobDone clears this field
    /// before the governor may arm a gate, and a crash lands only on an
    /// executing node.
    timer: Option<EventId>,
}

impl Slot {
    /// The placement-policy view of this node. `load` is the backlog
    /// count (the open loop does not know function costs at placement
    /// time), so `LeastLoaded` picks the first node with the fewest
    /// queued plus running jobs.
    fn view(&self, powered: bool) -> NodeView {
        let busy = self.current.is_some();
        let queued = self.queue.len as usize;
        NodeView {
            queued,
            busy,
            powered,
            load: (queued + usize::from(busy)) as f64,
        }
    }
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

/// One kind of worker hardware under the open-loop engine.
///
/// The hooks are the points where the arrival-driven lifecycle touches
/// a node: its state machine, its power draw, and what it does when a
/// job lands on it or finishes. Hooks that need the run's shared state
/// take the engine's [`Core`]. The closed-loop engine has a class trait
/// of its own, because the two loops run different node semantics (see
/// the module docs).
trait OpenClass {
    /// Timers only this class schedules (none for the VM host).
    type Timer: Copy;
    /// The platform whose calibrated service times the nodes run.
    const PLATFORM: WorkerPlatform;

    /// The placement and governor the class runs under.
    fn policy(config: &OpenLoopConfig) -> (PlacementKind, GovernorKind);
    /// How many nodes the class has.
    fn nodes(&self) -> usize;
    /// Adds the meter channels and plans the class's timers, before the
    /// first arrival.
    fn init<O: TraceObserver>(&mut self, core: &mut Core<'_, O, Self::Timer>);
    /// The engine's slot of node `w`. Each class keeps it beside its own
    /// state of that node, so a job's events touch one place in memory
    /// (plus the job's [`Pool`] entry while it waits).
    fn slot(&mut self, w: usize) -> &mut Slot;
    /// Appends every node's placement view to `views`, in node order.
    fn views(&self, views: &mut Vec<NodeView>);
    /// The channel `w` is metered and attributed on, which its power
    /// samples also report as their worker, and that channel's draw now.
    fn power(&self, w: usize) -> (usize, f64);
    /// A job was queued on `w`; `true` when `w` is idle and starts it
    /// now.
    fn queued<O: TraceObserver>(
        &mut self,
        core: &mut Core<'_, O, Self::Timer>,
        w: usize,
        now: SimTime,
    ) -> bool;
    /// Idle → executing. Returns the factor the job's exec time
    /// stretches by.
    fn start_job<O: TraceObserver>(&mut self, core: &mut Core<'_, O, Self::Timer>, w: usize)
        -> f64;
    /// `w` finished an invocation. Returns `true` to start its next
    /// queued job at once.
    fn job_done<O: TraceObserver>(
        &mut self,
        core: &mut Core<'_, O, Self::Timer>,
        w: usize,
        now: SimTime,
    ) -> bool;
    /// Booting or rebooting → idle.
    fn boot_done<O: TraceObserver>(
        &mut self,
        core: &mut Core<'_, O, Self::Timer>,
        w: usize,
        now: SimTime,
    );
    /// Handles one of the class's own timers.
    fn on_timer<O: TraceObserver>(
        &mut self,
        core: &mut Core<'_, O, Self::Timer>,
        w: usize,
        timer: Self::Timer,
        now: SimTime,
    );
    /// Runs after each arrival batch is placed.
    fn arrivals_placed<O: TraceObserver>(
        &mut self,
        _core: &mut Core<'_, O, Self::Timer>,
        _now: SimTime,
    ) {
    }
    /// `(mean powered-on nodes, power cycles, faults injected)` over the
    /// run ending at `end`.
    fn report(&self, end: SimTime) -> (f64, u64, u64);
}

/// The run state every class hook may touch, generic over the class's
/// timer type.
struct Core<'a, O, T> {
    config: &'a OpenLoopConfig,
    observer: &'a mut O,
    queue: EventQueue<Event<T>>,
    rng: Rng,
    meter: EnergyMeter,
    /// The meter's channels, indexed like the attributor's.
    channels: Vec<ChannelId>,
    attr: Option<Attributor>,
    policy: PolicyEngine,
    sched_handles: Option<SchedMetrics>,
    /// Every job waiting in a node queue or parked by a budget deferral.
    pool: Pool,
}

impl<O: TraceObserver, T> Core<'_, O, T> {
    /// Adds a meter channel and the attribution channel of the same
    /// index.
    fn add_channel(&mut self, name: impl Display) -> usize {
        self.channels.push(self.meter.add_channel(name));
        if let Some(a) = self.attr.as_mut() {
            a.add_channel();
        }
        self.channels.len() - 1
    }

    /// Meters and attributes `watts` on channel `ch` from `now` on.
    fn set_power(&mut self, now: SimTime, (ch, watts): (usize, f64)) {
        self.meter.set_power(now, self.channels[ch], watts);
        if let Some(a) = self.attr.as_mut() {
            a.set_power(ch, now, watts);
        }
    }

    /// Sets `power` and emits node `w`'s state change plus the power
    /// sample of its channel.
    fn mark(&mut self, now: SimTime, w: usize, state: WorkerState, power: (usize, f64)) {
        self.set_power(now, power);
        self.observer
            .emit(now, TraceEvent::WorkerStateChange { worker: w, state });
        self.observer.emit(
            now,
            TraceEvent::PowerSample {
                worker: power.0,
                watts: power.1,
            },
        );
    }

    fn with_sched_metrics(&mut self, apply: impl FnOnce(&mut MetricsRegistry, &SchedMetrics)) {
        if let (Some(metrics), Some(h)) = (self.observer.metrics(), self.sched_handles.as_ref()) {
            apply(metrics, h);
        }
    }

    /// Emits and counts a governor move (standby, gate-off, prewarm).
    fn governor_transition(&mut self, now: SimTime, w: usize, action: &'static str) {
        self.observer
            .emit(now, TraceEvent::GovernorTransition { worker: w, action });
        self.with_sched_metrics(|m, h| m.inc(h.governor_transitions));
    }
}

/// The engine: the shared run state, the class's nodes, and the state
/// only the engine reads.
struct OpenSim<'a, C: OpenClass, O, L, S> {
    core: Core<'a, O, C::Timer>,
    class: C,
    latencies: L,
    sink: &'a mut S,
    handles: Option<OpenMetrics>,
    picker: FunctionPicker,
    tenants: TenantTracker,
    arrival_state: ArrivalState,
    /// The result cache. With the default `Off` this is `None`, every
    /// cache branch is dead, and no extra RNG draw happens.
    cache: Option<ResultCache<()>>,
    coalesce: CoalesceTable<QueuedJob>,
    input_variants: usize,
    views: Vec<NodeView>,
    placement: PlacementKind,
    /// Whether a non-default scheduling policy is active; its telemetry
    /// is gated on this.
    sched_active: bool,
    budget_active: bool,
    horizon: SimTime,
    arrived: u64,
    completed: u64,
    /// Arrivals the energy budget shed.
    shed: u64,
}

impl<C: OpenClass, O: TraceObserver, L: LatencyAccum, S: RunSink> OpenSim<'_, C, O, L, S> {
    fn run(mut self) -> (OpenLoopRun, Option<EnergyLedger>, SimTime) {
        self.drive();
        self.finish()
    }

    /// Delivers every event, from the first arrival until the queue
    /// runs dry.
    fn drive(&mut self) {
        self.class.init(&mut self.core);
        self.core.queue.schedule(SimTime::ZERO, Event::Arrival);
        while let Some((now, event)) = self.core.queue.pop() {
            match event {
                Event::Arrival => self.arrival(now),
                Event::BootDone(w) => {
                    let w = w as usize;
                    self.class.boot_done(&mut self.core, w, now);
                    // A node that boots to an empty queue idles: a
                    // prewarmed SBC joins the warm reserve.
                    if !self.class.slot(w).queue.is_empty() {
                        self.begin(w, now);
                    }
                }
                Event::ExecDone(w) => self.exec_done(w as usize, now),
                Event::JobDone(w) => self.job_done(w as usize, now),
                Event::Release(entry) => {
                    // The job re-enters placement with no further
                    // admission check (the governor already priced the
                    // wait).
                    let job = self.core.pool.take(entry);
                    let key = if self.cache.is_some() { job.key() } else { 0 };
                    self.dispatch(job, key, now);
                }
                Event::Node(w, timer) => {
                    self.class.on_timer(&mut self.core, w as usize, timer, now);
                }
            }
        }
    }

    fn with_metrics(&mut self, apply: impl FnOnce(&mut MetricsRegistry, &OpenMetrics)) {
        if let (Some(metrics), Some(h)) = (self.core.observer.metrics(), self.handles.as_ref()) {
            apply(metrics, h);
        }
    }

    fn arrival(&mut self, now: SimTime) {
        if now >= self.horizon {
            return; // arrivals stop; drain what is queued
        }
        let config = self.core.config;
        for _ in 0..config.arrival.batch() {
            self.arrived += 1;
            let function = config.functions[self.picker.pick(&mut self.core.rng)];
            let mut job = QueuedJob {
                id: self.arrived,
                arrived: now,
                variant: 0,
                tenant: self.tenants.draw(&mut self.core.rng),
                function,
                throttled: false,
            };
            let (id, name) = (job.id, function.name());
            let enqueued = TraceEvent::JobEnqueued {
                job: id,
                function: name,
            };
            self.core.observer.emit(now, enqueued);
            self.with_metrics(|m, h| m.inc(h.jobs_arrived));
            let mut key = 0;
            if let Some(cache) = self.cache.as_mut() {
                // One extra sim-stream draw picks the canonical input
                // this invocation carries (below `input_variants`, a
                // `u32`).
                job.variant = self.core.rng.index(self.input_variants) as u32;
                key = job.key();
                if cache.lookup(key, now.as_micros()).is_some() {
                    // Zero-energy fast path: the orchestration plane
                    // (worker 0 by convention) serves the stored result
                    // with no queue, boot or exec.
                    let hit = TraceEvent::CacheHit {
                        job: id,
                        function: name,
                        key,
                    };
                    self.core.observer.emit(now, hit);
                    self.free(job, 0, now);
                    continue;
                }
                if !self.coalesce.try_lead(key, id) {
                    // An identical invoke is already executing: park
                    // this one behind its leader.
                    cache.note_coalesced();
                    let leader = self.coalesce.leader(key).expect("key in flight");
                    let follow = TraceEvent::Coalesced {
                        job: id,
                        leader,
                        function: name,
                    };
                    self.core.observer.emit(now, follow);
                    self.coalesce.follow(key, job);
                    continue;
                }
                let miss = TraceEvent::CacheMiss {
                    job: id,
                    function: name,
                    key,
                };
                self.core.observer.emit(now, miss);
            }
            if self.budget_active && !self.admit(&mut job, key, now) {
                continue;
            }
            self.dispatch(job, key, now);
        }
        self.class.arrivals_placed(&mut self.core, now);
        let gap = config
            .arrival
            .next_gap(now, &mut self.core.rng, &mut self.arrival_state);
        self.core.queue.schedule(now + gap, Event::Arrival);
    }

    /// Admission control at the orchestration plane's front door: the
    /// tenant's token bucket decides whether this invocation runs,
    /// waits, or runs slowly. Cache hits bypass it — a served result
    /// costs no joules. Returns `false` if the job was shed or parked.
    /// `key` is the job's content key when the cache is on.
    fn admit(&mut self, job: &mut QueuedJob, key: u64, now: SimTime) -> bool {
        let (action, admitted) = match self.core.policy.budget_admit(job.tenant, now) {
            BudgetDecision::Admit => return true,
            BudgetDecision::Shed => {
                self.shed += 1;
                // Release any coalesce leadership the cache just took,
                // so a later identical invoke can lead.
                if self.cache.is_some() {
                    let _ = self.coalesce.complete(key);
                }
                ("shed", false)
            }
            BudgetDecision::Defer(delay) => {
                // Coalesce leadership (if any) stays with the deferred
                // job; followers drain when it eventually completes.
                let entry = self.core.pool.alloc(*job);
                self.core.queue.schedule(now + delay, Event::Release(entry));
                ("defer", false)
            }
            BudgetDecision::Throttle => {
                job.throttled = true;
                ("throttle", true)
            }
        };
        let tenant = job.tenant;
        self.core
            .observer
            .emit(now, TraceEvent::BudgetAction { tenant, action });
        admitted
    }

    /// Places one admitted job and lets its node react. `key` is the
    /// job's content key when the cache is on.
    fn dispatch(&mut self, job: QueuedJob, key: u64, now: SimTime) {
        let core = &mut self.core;
        // Rate tracking for WarmPool (a no-op elsewhere).
        core.policy.observe_arrival(now);
        let w = if self.placement == PlacementKind::RandomStatic {
            // RandomStatic draws one uniform index over the fleet and
            // never reads the views, so it skips building them.
            core.rng.index(self.class.nodes())
        } else {
            self.views.clear();
            self.class.views(&mut self.views);
            if self.cache.is_some() {
                // Key-aware routing: CacheAffine pins hot keys to home
                // nodes; the other policies ignore the key.
                core.policy.place_keyed(key, &self.views, &mut core.rng)
            } else {
                core.policy.place(&self.views, &mut core.rng)
            }
        };
        if self.sched_active {
            let policy = self.placement.label();
            let decision = TraceEvent::PlacementDecision {
                job: job.id,
                worker: w,
                policy,
            };
            core.observer.emit(now, decision);
            core.with_sched_metrics(|m, h| m.inc(h.placements));
        }
        core.pool.push_back(&mut self.class.slot(w).queue, job);
        if self.class.queued(core, w, now) {
            self.begin(w, now);
        }
    }

    /// Starts `w`'s next queued job.
    fn begin(&mut self, w: usize, now: SimTime) {
        let core = &mut self.core;
        // A node starts only with work queued, and nothing else drains
        // its queue first.
        let queue = &mut self.class.slot(w).queue;
        let job = core.pool.pop_front(queue).expect("a job is queued");
        let factor = self.class.start_job(core, w);
        let (id, function) = (job.id, job.function);
        let started = TraceEvent::JobStarted {
            job: id,
            function: function.name(),
            worker: w,
        };
        core.observer.emit(now, started);
        let power = self.class.power(w);
        core.mark(now, w, WorkerState::Executing, power);
        if let Some(a) = core.attr.as_mut() {
            let (f, tenant) = (usize::from(function.index()), job.tenant as usize);
            a.job_started(power.0, now, id, f, tenant);
        }
        // The class factor and the budget throttle are 1.0 wherever they
        // do not apply, and x * 1.0 == x exactly in IEEE-754.
        let jitter = core.config.jitter.factor(&mut core.rng);
        let throttle = if job.throttled {
            BUDGET_THROTTLE_FACTOR
        } else {
            1.0
        };
        let exec = service_time(function)
            .exec(C::PLATFORM)
            .mul_f64(jitter * factor * throttle);
        let slot = self.class.slot(w);
        slot.current = Some((job, exec, now));
        let done = Event::ExecDone(w as u32);
        slot.timer = Some(core.queue.schedule(now + exec, done));
    }

    fn exec_done(&mut self, w: usize, now: SimTime) {
        let core = &mut self.core;
        let (job, _exec, _started) = self.class.slot(w).current.expect("job in flight");
        if let Some(a) = core.attr.as_mut() {
            // The draw does not change here, but the phase does:
            // everything from this instant to JobDone is the
            // response/overhead window.
            a.response_started(self.class.power(w).0, now, job.id);
        }
        let function = job.function.name();
        let sent = TraceEvent::ResponseSent {
            job: job.id,
            function,
            worker: w,
        };
        core.observer.emit(now, sent);
        let overhead = service_time(job.function)
            .overhead(C::PLATFORM)
            .mul_f64(core.config.jitter.factor(&mut core.rng));
        let done = Event::JobDone(w as u32);
        self.class.slot(w).timer = Some(core.queue.schedule(now + overhead, done));
    }

    fn job_done(&mut self, w: usize, now: SimTime) {
        let core = &mut self.core;
        let slot = self.class.slot(w);
        slot.timer = None;
        let (job, exec, started) = slot.current.take().expect("job in flight");
        // Settle the job's joule vector before any power change, then
        // charge its tenant's budget with the exact figure (picojoules
        // → joules).
        let job_pj = core
            .attr
            .as_mut()
            .map(|a| a.job_finished(self.class.power(w).0, now, job.id));
        if self.budget_active {
            let pj = job_pj.expect("budget runs carry an attributor");
            if core
                .policy
                .budget_note_energy(job.tenant, pj as f64 / 1e12, now)
            {
                let breach = TraceEvent::BudgetBreach { tenant: job.tenant };
                core.observer.emit(now, breach);
            }
        }
        self.book(job, w, now, exec, now.duration_since(started + exec));
        if let Some(cache) = self.cache.as_mut() {
            // The leader's result commits: store it, then drain every
            // coalesced follower at this instant. Each follower pays
            // only its queue wait.
            let key = job.key();
            cache.insert(key, (), now.as_micros());
            for follower in self.coalesce.complete(key) {
                self.free(follower, w, now);
            }
        }
        if self.class.job_done(&mut self.core, w, now) {
            self.begin(w, now);
        }
    }

    /// Books a completion that ran nothing: a cache hit or a coalesced
    /// follower. It costs zero joules but still counts as a completion
    /// for the usage-weighted idle split.
    fn free(&mut self, job: QueuedJob, w: usize, now: SimTime) {
        if let Some(a) = self.core.attr.as_mut() {
            a.record_free(usize::from(job.function.index()), job.tenant as usize);
        }
        self.book(job, w, now, SimDuration::ZERO, SimDuration::ZERO);
    }

    /// Books one completion into the latency and tenant aggregates, the
    /// sink, the observer and the metrics.
    fn book(
        &mut self,
        job: QueuedJob,
        w: usize,
        now: SimTime,
        exec: SimDuration,
        overhead: SimDuration,
    ) {
        self.completed += 1;
        let latency = now.duration_since(job.arrived).as_secs_f64();
        self.latencies.record(latency);
        self.tenants.record(job.tenant, latency);
        self.sink.on_completion(&Completion {
            job: job.id,
            function: job.function,
            worker: w,
            arrived: job.arrived,
            finished: now,
            exec,
            tenant: job.tenant,
        });
        self.core
            .observer
            .on_completion(now, latency, job.tenant, exec.is_zero());
        let function = job.function.name();
        let completed = TraceEvent::JobCompleted {
            job: job.id,
            function,
            worker: w,
            exec,
            overhead,
        };
        self.core.observer.emit(now, completed);
        self.with_metrics(|m, h| {
            m.inc(h.jobs_completed);
            m.observe(h.exec_seconds, exec.as_secs_f64());
            m.observe(h.latency_seconds, latency);
        });
    }

    fn finish(mut self) -> (OpenLoopRun, Option<EnergyLedger>, SimTime) {
        let (arrived, completed, core) = (self.arrived, self.completed, &mut self.core);
        // Every arrival completes (a cache hit, a coalesced follower or
        // an execution) or is shed by the budget: the loop has no other
        // way for a job to end.
        debug_assert!(completed + self.shed == arrived, "an arrival was lost");
        let end = core.queue.now().max(self.horizon);
        let report = core.meter.report(end, completed);
        let (mean_latency_s, p95_latency_s) = self.latencies.finish();
        let cache_stats = self.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        let (mean_powered_on, power_cycles, faults_injected) = self.class.report(end);
        let run = OpenLoopRun {
            completed,
            mean_latency_s,
            p95_latency_s,
            mean_power_w: report.average_watts,
            joules_per_function: report.joules_per_function().unwrap_or(f64::NAN),
            mean_powered_on,
            offered_per_second: arrived as f64 / core.config.duration.as_secs_f64(),
            power_cycles,
            faults_injected,
            tenants: self.tenants.summaries(),
            cache_hits: cache_stats.hits,
            cache_misses: cache_stats.misses,
            cache_coalesced: cache_stats.coalesced,
        };
        // Gauges come from the finished run so the exposition agrees
        // bit-for-bit with the returned aggregates.
        if let Some(metrics) = core.observer.metrics() {
            core.meter.publish_metrics(metrics, "open", end);
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
            if core.config.cache.enabled() {
                crate::closedloop::publish_cache_counters(metrics, "open", &cache_stats);
            }
        }
        // Settle every channel through the common end instant so the
        // ledger's integer total covers exactly the meter's window.
        let ledger = core.attr.take().map(|a| a.finalize(end));
        (run, ledger, end)
    }
}

/// One SBC worker: the engine's slot (whose timer doubles as the
/// governor's idle gate), the state machine and the waking flag, in one
/// cache line. Every event of a job reads and writes this record, and a
/// dense fleet (16,384 of them) does not fit the cache.
#[repr(C, align(64))]
struct Sbc {
    slot: Slot,
    node: SbcNode,
    /// Set between the GPIO press and the power-on taking effect, so
    /// placement sees waking nodes as powered.
    waking: bool,
}

const _: () = assert!(std::mem::align_of::<Sbc>() == 64 && std::mem::size_of::<Sbc>() == 64);

/// The SBC fleet: one [`SbcNode`] per worker on its own `sbc-{w}`
/// channel, powered on and off through its GPIO line. The governor
/// decides what a drained node does, and scheduled crashes take
/// executing nodes down.
struct SbcFleet {
    nodes: Vec<Sbc>,
    /// Every node's boot window, resolved once per run.
    boot_window: SimDuration,
    gpio: PowerController,
    powered_on: TimeWeighted,
    /// Scheduled crashes that landed on an executing node.
    faults_injected: u64,
    /// Whether the governor reads the booted-idle census. Every
    /// governor but WarmPool ignores it, so the drain and idle-gate
    /// paths skip their fleet scans.
    wants_census: bool,
}

/// Four bytes on purpose: beside the `u32` node index it fills an
/// eight-byte `Event::Node`, and the values no timer uses carry the
/// event's variant tag, so `Event<SbcTimer>` stays eight bytes and a
/// queue entry 24. A variant that no longer fits beside that niche
/// pushes the tag out and every entry to 32 bytes: with one `u8` added
/// to `ExecDone`, a dense run (16,384 nodes) took 11–13% longer on a
/// 2-vCPU VM. The `const` asserts beside [`Event`] pin the size.
#[derive(Debug, Clone, Copy)]
#[repr(u32)]
enum SbcTimer {
    /// The GPIO power-on took effect; the node boots.
    PowerOn,
    /// A standby node's governor idle window elapsed; it may gate off.
    IdleGate,
    /// A scheduled crash.
    Crash,
    /// The orchestrator noticed the crash; the node reboots.
    Recover,
}

impl Sbc {
    /// Placement sees a waking node as powered.
    fn powered(&self) -> bool {
        self.waking || self.node.state() != SbcState::Off
    }
}

impl SbcFleet {
    fn new(workers: usize) -> Self {
        let workers = fleet_size(workers, "worker");
        SbcFleet {
            nodes: (0..workers)
                .map(|_| Sbc {
                    slot: Slot::default(),
                    node: SbcNode::default(),
                    waking: false,
                })
                .collect(),
            boot_window: SbcNode::boot_duration(),
            gpio: PowerController::default(),
            powered_on: TimeWeighted::new(SimTime::ZERO, 0.0),
            faults_injected: 0,
            wants_census: false,
        }
    }

    /// Booted-idle nodes, or 0 when the governor never reads the count.
    fn idle_census(&self) -> usize {
        if !self.wants_census {
            return 0;
        }
        let idle = |n: &&Sbc| n.node.state() == SbcState::Idle;
        self.nodes.iter().filter(idle).count()
    }

    /// Presses `w`'s power button; it boots once the press takes effect.
    fn wake<O: TraceObserver>(
        &mut self,
        core: &mut Core<'_, O, SbcTimer>,
        w: usize,
        now: SimTime,
        reason: &'static str,
    ) {
        self.nodes[w].waking = true;
        self.powered_on.add(now, 1.0);
        core.observer
            .emit(now, TraceEvent::WakeRequested { worker: w, reason });
        let effective = self.gpio.power_on(now);
        core.queue
            .schedule(effective, Event::Node(w as u32, SbcTimer::PowerOn));
    }

    /// Meters the boot (or reboot) window `w` just entered and schedules
    /// its end.
    fn boot<O: TraceObserver>(
        &self,
        core: &mut Core<'_, O, SbcTimer>,
        w: usize,
        now: SimTime,
        state: WorkerState,
    ) {
        core.mark(now, w, state, self.power(w));
        if let Some(a) = core.attr.as_mut() {
            a.boot_started(w, now);
        }
        let done = now + self.boot_window;
        core.queue.schedule(done, Event::BootDone(w as u32));
    }

    /// Cuts `w`'s power once its state machine is off.
    fn gate_off<O: TraceObserver>(
        &mut self,
        core: &mut Core<'_, O, SbcTimer>,
        w: usize,
        now: SimTime,
    ) {
        self.powered_on.add(now, -1.0);
        core.mark(now, w, WorkerState::Off, self.power(w));
    }

    /// A crash lands only on a node that is running an invocation; a
    /// gated-off node has nothing to kill.
    fn crash<O: TraceObserver>(
        &mut self,
        core: &mut Core<'_, O, SbcTimer>,
        w: usize,
        now: SimTime,
    ) {
        if self.nodes[w].node.state() != SbcState::Executing {
            return;
        }
        self.faults_injected += 1;
        let fault = FaultKind::Crash.label();
        core.observer
            .emit(now, TraceEvent::FaultInjected { worker: w, fault });
        let slot = &mut self.nodes[w].slot;
        if let Some(pending) = slot.timer.take() {
            core.queue.cancel(pending);
        }
        // The invocation is re-queued at the front of the same node,
        // keeping its arrival time so the latency metrics absorb the
        // full recovery cost.
        if let Some((job, _, _)) = slot.current.take() {
            if let Some(a) = core.attr.as_mut() {
                // The partial joules stay with the job; the accumulator
                // resumes when it restarts.
                a.interrupted(w, now, job.id);
            }
            core.pool.push_front(&mut slot.queue, job);
        }
        self.nodes[w].node.crash().expect("node was executing");
        self.powered_on.add(now, -1.0);
        core.mark(now, w, WorkerState::Crashed, self.power(w));
        let detected = now + DETECTION_DELAY;
        core.queue
            .schedule(detected, Event::Node(w as u32, SbcTimer::Recover));
    }
}

impl OpenClass for SbcFleet {
    type Timer = SbcTimer;
    const PLATFORM: WorkerPlatform = WorkerPlatform::ArmSbc;

    fn policy(config: &OpenLoopConfig) -> (PlacementKind, GovernorKind) {
        (config.scheduler, config.governor)
    }

    fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Crashes aimed past the fleet (a plan written for a larger
    /// cluster) are no-ops; an empty plan schedules nothing.
    fn init<O: TraceObserver>(&mut self, core: &mut Core<'_, O, SbcTimer>) {
        for w in 0..self.nodes.len() {
            core.add_channel(format_args!("sbc-{w}"));
        }
        self.wants_census = core.policy.wants_idle_census();
        for &(at, w) in FaultInjector::new(&core.config.faults).scheduled_crashes() {
            if w < self.nodes.len() {
                core.queue
                    .schedule(at, Event::Node(w as u32, SbcTimer::Crash));
            }
        }
    }

    fn slot(&mut self, w: usize) -> &mut Slot {
        &mut self.nodes[w].slot
    }

    fn views(&self, views: &mut Vec<NodeView>) {
        views.extend(self.nodes.iter().map(|n| n.slot.view(n.powered())));
    }

    fn power(&self, w: usize) -> (usize, f64) {
        (w, self.nodes[w].node.power().value())
    }

    fn queued<O: TraceObserver>(
        &mut self,
        core: &mut Core<'_, O, SbcTimer>,
        w: usize,
        now: SimTime,
    ) -> bool {
        match self.nodes[w].node.state() {
            SbcState::Off if !self.nodes[w].waking => {
                core.with_sched_metrics(|m, h| m.inc(h.cold_boots));
                self.wake(core, w, now, "dispatch");
                false
            }
            SbcState::Idle => {
                // A warm (standby) node absorbs the arrival with no boot
                // in front of it.
                core.with_sched_metrics(|m, h| m.inc(h.warm_hits));
                true
            }
            _ => false,
        }
    }

    fn start_job<O: TraceObserver>(&mut self, core: &mut Core<'_, O, SbcTimer>, w: usize) -> f64 {
        if let Some(gate) = self.nodes[w].slot.timer.take() {
            core.queue.cancel(gate);
        }
        self.nodes[w].node.start_job().expect("node is idle");
        1.0
    }

    fn job_done<O: TraceObserver>(
        &mut self,
        core: &mut Core<'_, O, SbcTimer>,
        w: usize,
        now: SimTime,
    ) -> bool {
        if !self.nodes[w].slot.queue.is_empty() {
            let node = &mut self.nodes[w].node;
            if core.policy.reboot_between_jobs(true) {
                core.with_sched_metrics(|m, h| m.inc(h.cold_boots));
                node.finish_job_and_reboot().expect("was executing");
                self.boot(core, w, now, WorkerState::Rebooting);
                return false;
            }
            // Warm continuation: skip the between-jobs reboot and start
            // the next queued job at once, with no event and no trace.
            core.with_sched_metrics(|m, h| m.inc(h.warm_hits));
            node.finish_job_and_standby().expect("was executing");
            return true;
        }
        // Queue drained: the governor picks the power regime.
        // RebootPerJob (the default) always answers PowerOff.
        match core.policy.on_drain(now, 1 + self.idle_census()) {
            DrainAction::PowerOff => {
                let node = &mut self.nodes[w].node;
                node.finish_job_and_power_off().expect("was executing");
                self.gate_off(core, w, now);
            }
            DrainAction::Standby { idle_timeout } => {
                // Hold the node booted-idle at standby draw so the next
                // arrival skips the boot window.
                let node = &mut self.nodes[w].node;
                node.finish_job_and_standby().expect("was executing");
                core.mark(now, w, WorkerState::Idle, self.power(w));
                core.governor_transition(now, w, "standby");
                if let Some(window) = idle_timeout {
                    let gate = Event::Node(w as u32, SbcTimer::IdleGate);
                    self.nodes[w].slot.timer = Some(core.queue.schedule(now + window, gate));
                }
            }
        }
        false
    }

    fn boot_done<O: TraceObserver>(
        &mut self,
        core: &mut Core<'_, O, SbcTimer>,
        w: usize,
        now: SimTime,
    ) {
        self.nodes[w].node.boot_complete().expect("was booting");
        core.mark(now, w, WorkerState::Idle, self.power(w));
        if let Some(a) = core.attr.as_mut() {
            a.boot_done(w, now);
        }
    }

    fn on_timer<O: TraceObserver>(
        &mut self,
        core: &mut Core<'_, O, SbcTimer>,
        w: usize,
        timer: SbcTimer,
        now: SimTime,
    ) {
        match timer {
            SbcTimer::PowerOn => {
                self.nodes[w].waking = false;
                self.nodes[w].node.power_on().expect("was off");
                self.boot(core, w, now, WorkerState::Booting);
            }
            SbcTimer::IdleGate => {
                // A node holds a gate only while idle, and a job start
                // cancels it, so the node is still idle.
                self.nodes[w].slot.timer = None;
                debug_assert_eq!(self.nodes[w].node.state(), SbcState::Idle);
                if core.policy.gate_on_idle_expiry(now, self.idle_census()) {
                    self.nodes[w].node.power_off().expect("node was idle");
                    self.gate_off(core, w, now);
                    core.governor_transition(now, w, "gate-off");
                }
            }
            SbcTimer::Crash => self.crash(core, w, now),
            SbcTimer::Recover => {
                // Recovery reboots the node without pressing PWR_BUT,
                // so it adds no power cycle.
                self.nodes[w].node.recover().expect("node was crashed");
                self.powered_on.add(now, 1.0);
                self.boot(core, w, now, WorkerState::Booting);
            }
        }
    }

    /// WarmPool prewarm: wake gated-off nodes until the booted reserve
    /// matches the governor's target, which is zero for every other
    /// governor.
    fn arrivals_placed<O: TraceObserver>(
        &mut self,
        core: &mut Core<'_, O, SbcTimer>,
        now: SimTime,
    ) {
        let target = core.policy.warm_target(self.nodes.len());
        if target == 0 {
            return;
        }
        let mut powered = self.nodes.iter().filter(|n| n.powered()).count();
        for w in 0..self.nodes.len() {
            if powered >= target {
                break;
            }
            if !self.nodes[w].powered() {
                powered += 1;
                self.wake(core, w, now, "prewarm");
                core.governor_transition(now, w, "prewarm");
            }
        }
    }

    fn report(&self, end: SimTime) -> (f64, u64, u64) {
        let powered_on = self.powered_on.time_average(end);
        (powered_on, self.gpio.power_cycles(), self.faults_injected)
    }
}

/// The VM host: every VM on one [`RackServer`], metered as a single
/// `rack-server` channel that power samples report as worker 0.
struct VmHost {
    server: RackServer,
    slots: Vec<Slot>,
}

impl VmHost {
    fn new(vms: usize) -> Self {
        let vms = fleet_size(vms, "VM");
        VmHost {
            server: RackServer::new(vms),
            slots: (0..vms).map(|_| Slot::default()).collect(),
        }
    }
}

impl OpenClass for VmHost {
    /// VMs schedule no timers of their own.
    type Timer = Infallible;
    const PLATFORM: WorkerPlatform = WorkerPlatform::X86Vm;

    /// The host ignores the configured placement, governor and faults:
    /// least-loaded over backlog views sends each job to the first VM
    /// with the fewest queued plus running jobs and draws nothing, and
    /// under reboot-per-job no budget, prewarm or scheduler telemetry
    /// applies.
    fn policy(_: &OpenLoopConfig) -> (PlacementKind, GovernorKind) {
        (PlacementKind::LeastLoaded, GovernorKind::RebootPerJob)
    }

    fn nodes(&self) -> usize {
        self.server.vm_count()
    }

    /// The idle floor draws from the first instant.
    fn init<O: TraceObserver>(&mut self, core: &mut Core<'_, O, Infallible>) {
        let ch = core.add_channel("rack-server");
        let watts = self.server.power().value();
        core.set_power(SimTime::ZERO, (ch, watts));
        let sample = TraceEvent::PowerSample { worker: ch, watts };
        core.observer.emit(SimTime::ZERO, sample);
    }

    fn slot(&mut self, v: usize) -> &mut Slot {
        &mut self.slots[v]
    }

    fn views(&self, views: &mut Vec<NodeView>) {
        views.extend(self.slots.iter().map(|slot| slot.view(true)));
    }

    /// The shared host channel, re-read after every VM state change.
    fn power(&self, _: usize) -> (usize, f64) {
        (0, self.server.power().value())
    }

    fn queued<O: TraceObserver>(
        &mut self,
        _: &mut Core<'_, O, Infallible>,
        v: usize,
        _: SimTime,
    ) -> bool {
        self.server.vm(v).state() == VmState::Idle
    }

    /// CPU contention is sampled at the start: a job's exec stretches by
    /// the host slowdown in effect once it runs.
    fn start_job<O: TraceObserver>(&mut self, _: &mut Core<'_, O, Infallible>, v: usize) -> f64 {
        self.server.start_job(v).expect("vm is idle");
        self.server.current_slowdown()
    }

    /// A VM reboots after every job, drained queue or not, for a window
    /// stretched by contention.
    fn job_done<O: TraceObserver>(
        &mut self,
        core: &mut Core<'_, O, Infallible>,
        v: usize,
        now: SimTime,
    ) -> bool {
        self.server.finish_job(v).expect("vm was executing");
        core.mark(now, v, WorkerState::Rebooting, self.power(v));
        let slowdown = self.server.current_slowdown();
        let reboot = self.server.vm_boot_duration().mul_f64(slowdown);
        core.queue.schedule(now + reboot, Event::BootDone(v as u32));
        false
    }

    fn boot_done<O: TraceObserver>(
        &mut self,
        core: &mut Core<'_, O, Infallible>,
        v: usize,
        now: SimTime,
    ) {
        self.server.reboot_complete(v).expect("vm was rebooting");
        core.mark(now, v, WorkerState::Idle, self.power(v));
    }

    fn on_timer<O: TraceObserver>(
        &mut self,
        _: &mut Core<'_, O, Infallible>,
        _: usize,
        timer: Infallible,
        _: SimTime,
    ) {
        match timer {}
    }

    /// VMs are always powered and never power-cycle.
    fn report(&self, _: SimTime) -> (f64, u64, u64) {
        (self.server.vm_count() as f64, 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microfaas_sched::{
        DEFAULT_KEEP_ALIVE_TIMEOUT, DEFAULT_WARM_POOL_ALPHA, DEFAULT_WARM_POOL_HEADROOM,
    };
    use microfaas_sim::faults::{FaultPlan, FaultSpec, FaultTrigger};
    use microfaas_sim::trace::{TraceBuffer, TraceSink};

    fn config(arrival: ArrivalProcess, scheduler: PlacementKind, seed: u64) -> OpenLoopConfig {
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
            faults: Arc::default(),
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
            PlacementKind::RandomStatic,
            2,
        ));
        let high = run_open_loop(&config(
            ArrivalProcess::Poisson { per_second: 2.5 },
            PlacementKind::RandomStatic,
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
            PlacementKind::RandomStatic,
            3,
        ));
        let high = run_open_loop(&config(
            ArrivalProcess::Poisson { per_second: 2.0 },
            PlacementKind::RandomStatic,
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
            PlacementKind::RandomStatic,
            4,
        ));
        let least = run_open_loop(&config(
            ArrivalProcess::Poisson { per_second: 2.5 },
            PlacementKind::LeastLoaded,
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
            PlacementKind::RandomStatic,
            5,
        ));
        let packed = run_open_loop(&config(
            ArrivalProcess::Poisson { per_second: 1.0 },
            PlacementKind::PowerAware,
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
            PlacementKind::RandomStatic,
            6,
        ));
        let b = run_open_loop(&config(
            ArrivalProcess::Poisson { per_second: 1.0 },
            PlacementKind::RandomStatic,
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
            PlacementKind::LeastLoaded,
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
            PlacementKind::RandomStatic,
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
            PlacementKind::RandomStatic,
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
            PlacementKind::LeastLoaded,
            12,
        );
        cfg.faults = Arc::new(FaultPlan {
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
            PlacementKind::RandomStatic,
            6,
        );
        let mut explicit = base.clone();
        explicit.faults = Arc::new(FaultPlan::empty());
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
            PlacementKind::RandomStatic,
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
            PlacementKind::RandomStatic,
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
        let (run, _, _) = simulate(
            cfg,
            SbcFleet::new(cfg.workers),
            &mut Observer::tracing(&mut wakes),
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
            let label = format!("{:?}, {} faults", cfg.governor, cfg.faults.faults.len());
            let (exact, wakes) = count_wakes(cfg, Samples::new());
            assert!(wakes > 0, "{label}: the run never woke a node");
            assert_eq!(exact.power_cycles, wakes, "{label}: exact path");
            let (streamed, streamed_wakes) = count_wakes(cfg, StreamingLatency::new());
            assert_eq!(
                streamed.power_cycles, streamed_wakes,
                "{label}: streaming path"
            );
            assert_eq!(streamed_wakes, wakes, "{label}: streaming vs exact");
            if !cfg.faults.faults.is_empty() {
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
            let latency = completion.finished.duration_since(completion.arrived);
            self.max_latency_s = self.max_latency_s.max(latency.as_secs_f64());
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
            PlacementKind::LeastLoaded,
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

    fn job(id: u64) -> QueuedJob {
        QueuedJob {
            id,
            arrived: SimTime::ZERO,
            variant: 0,
            tenant: 0,
            function: FunctionId::ALL[0],
            throttled: false,
        }
    }

    /// Empties `queue`, returning its job ids in order.
    fn drain(pool: &mut Pool, queue: &mut Fifo) -> Vec<u64> {
        std::iter::from_fn(|| pool.pop_front(queue))
            .map(|j| j.id)
            .collect()
    }

    #[test]
    fn node_queues_stay_fifo_around_a_crash_requeue() {
        let mut pool = Pool::new();
        let (mut a, mut b) = (Fifo::default(), Fifo::default());
        // A requeue into an empty queue, then arrivals on two queues
        // whose entries interleave in the pool.
        pool.push_front(&mut a, job(1));
        for id in 2..=4 {
            pool.push_back(&mut a, job(id));
            pool.push_back(&mut b, job(10 + id));
        }
        assert_eq!(pool.pop_front(&mut a).map(|j| j.id), Some(1));
        // A crash puts the interrupted job back in front of the queue.
        pool.push_front(&mut a, job(1));
        pool.push_back(&mut a, job(5));
        assert_eq!(a.len, 5);
        assert_eq!(drain(&mut pool, &mut a), [1, 2, 3, 4, 5]);
        assert_eq!(drain(&mut pool, &mut b), [12, 13, 14]);
        assert!(a.is_empty() && b.is_empty());
    }

    #[test]
    fn the_pool_stays_at_its_peak_backlog_over_fill_and_drain_waves() {
        let mut pool = Pool::new();
        let mut queues = [Fifo::default(); 4];
        for wave in 0..10 {
            for id in 0..25 {
                pool.push_back(&mut queues[id % 4], job(id as u64));
            }
            assert_eq!(pool.jobs.len(), 25, "wave {wave} grew the pool");
            for queue in &mut queues {
                drain(&mut pool, queue);
            }
        }
        // Entries are reused last in, first out: an arrival fills the
        // entry the last job start read.
        let mut queue = Fifo::default();
        pool.push_back(&mut queue, job(1));
        let first = queue.tail;
        pool.push_back(&mut queue, job(2));
        pool.pop_front(&mut queue);
        pool.push_back(&mut queue, job(3));
        assert_eq!(queue.tail, first);
        assert_eq!(drain(&mut pool, &mut queue), [2, 3]);
        assert_eq!(pool.jobs.len(), 25);
    }

    #[test]
    fn a_budget_park_holds_its_pool_entry_until_the_release() {
        let mut pool = Pool::new();
        let mut queue = Fifo::default();
        pool.push_back(&mut queue, job(1));
        let (x, y) = (pool.alloc(job(2)), pool.alloc(job(3)));
        // Holds end in any order; each release names its own entry.
        assert_eq!(pool.take(y).id, 3);
        pool.push_back(&mut queue, job(4));
        assert_eq!(pool.jobs.len(), 3, "the queued job took the freed entry");
        assert_eq!(pool.take(x).id, 2);
        assert_eq!(drain(&mut pool, &mut queue), [1, 4]);
    }

    #[test]
    fn cache_turns_repeats_into_free_completions() {
        let mut cfg = config(
            ArrivalProcess::Poisson { per_second: 2.0 },
            PlacementKind::LeastLoaded,
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
            PlacementKind::CacheAffine,
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
            PlacementKind::LeastLoaded,
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
            PlacementKind::RandomStatic,
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
    fn each_deferral_releases_the_job_whose_hold_ended() {
        // Tenant 0 is held 10 s from 0 s, then tenant 1 for 1 s from
        // 1 s: the release at 2 s belongs to tenant 1's job, and
        // tenant 0's job waits out its own hold until 10 s.
        use microfaas_sched::BudgetAction;
        let mut cfg = config(
            ArrivalProcess::Poisson { per_second: 1.0 },
            PlacementKind::LeastLoaded,
            1,
        );
        // No arrivals: the test admits its two jobs itself.
        cfg.duration = SimDuration::ZERO;
        cfg.tenants = ["x", "y"]
            .map(|name| TenantClass {
                name: name.into(),
                weight: 1.0,
                slo_latency_s: 60.0,
            })
            .to_vec();
        cfg.governor = GovernorKind::EnergyBudget {
            cap_w: 5.0,
            burst_j: 10.0,
            action: BudgetAction::Defer,
        };
        let mut trace = TraceBuffer::new(1024);
        let mut observer = Observer::tracing(&mut trace);
        let mut sink = NullSink;
        let mut sim = engine(
            &cfg,
            SbcFleet::new(cfg.workers),
            &mut observer,
            Samples::new(),
            &mut sink,
            budget_attributor(&cfg),
        );
        // Overdraw both buckets at 0 s. The resume mark is 5 J and the
        // refill 5 J/s: tenant 0 sits at -45 J, 10 s short of the mark;
        // tenant 1 at -5 J, and at 0 J (1 s short) by 1 s.
        sim.core.policy.budget_note_energy(0, 55.0, SimTime::ZERO);
        sim.core.policy.budget_note_energy(1, 15.0, SimTime::ZERO);
        for (id, tenant, at) in [(1, 0, 0), (2, 1, 1)] {
            let arrived = SimTime::from_secs(at);
            let mut job = QueuedJob {
                id,
                arrived,
                variant: 0,
                tenant,
                function: FunctionId::ALL[0],
                throttled: false,
            };
            assert!(!sim.admit(&mut job, 0, arrived), "job {id} is parked");
            sim.arrived += 1;
        }
        let run = sim.run().0;
        assert_eq!(run.completed, 2);
        let placed: Vec<(u64, SimTime)> = trace
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::PlacementDecision { job, .. } => Some((job, r.at)),
                _ => None,
            })
            .collect();
        assert_eq!(
            placed,
            [(2, SimTime::from_secs(2)), (1, SimTime::from_secs(10))]
        );
    }

    #[test]
    fn conventional_attribution_conserves_with_idle_floor() {
        let cfg = config(
            ArrivalProcess::Poisson { per_second: 1.0 },
            PlacementKind::RandomStatic,
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
            PlacementKind::LeastLoaded,
            77,
        );
        let plain = run_open_loop_streaming(&cfg, &mut NullSink);
        let (run, series) = run_open_loop_monitored_streaming(&cfg, &TelemetryConfig::default());
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
            PlacementKind::LeastLoaded,
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
        let (_, series) = run_open_loop_monitored_streaming(&cfg, &TelemetryConfig::default());
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

    /// FNV-1a of the ledger's CSV followed by its Prometheus export.
    fn ledger_print(ledger: &EnergyLedger) -> u64 {
        crate::cache::fnv1a_extend(
            crate::cache::fnv1a(ledger.to_csv().as_bytes()),
            ledger.render_prometheus().as_bytes(),
        )
    }

    fn fnv(text: &str) -> u64 {
        crate::cache::fnv1a(text.as_bytes())
    }

    /// Big enough for the grid's busiest row (20 VMs, 6,000 jobs).
    const GRID_TRACE: usize = 1 << 17;

    /// An SBC row's `[run, trace, exposition, ledger]` fingerprint:
    /// FNV-1a of the run's `Debug` rendering (f64s print round-trip
    /// exact), of the JSON-lines trace and the Prometheus exposition of
    /// the unattributed run, and of the usage-weighted ledger's CSV plus
    /// Prometheus export from the attributed run.
    fn sbc_print(cfg: &OpenLoopConfig) -> (OpenLoopRun, [u64; 4]) {
        let mut trace = TraceBuffer::new(GRID_TRACE);
        let mut metrics = MetricsRegistry::new();
        let run = run_open_loop_with(cfg, &mut Observer::full(&mut trace, &mut metrics));
        assert_eq!(trace.dropped(), 0, "the grid trace overflowed");
        let (_, ledger) = run_open_loop_attributed(cfg, IdlePolicy::UsageWeighted);
        let print = [
            fnv(&format!("{run:?}")),
            fnv(&trace.to_json_lines()),
            fnv(&metrics.render_prometheus()),
            ledger_print(&ledger),
        ];
        (run, print)
    }

    /// A VM row's `[run, trace, ledger]` fingerprint, as [`sbc_print`]
    /// but with no exposition: no public VM entry point takes a
    /// registry.
    fn vm_print(cfg: &OpenLoopConfig, vms: usize) -> (OpenLoopRun, [u64; 3]) {
        let mut trace = TraceBuffer::new(GRID_TRACE);
        let (run, _, _) = simulate(
            cfg,
            VmHost::new(vms),
            &mut Observer::tracing(&mut trace),
            Samples::new(),
            &mut NullSink,
            None,
        );
        assert_eq!(trace.dropped(), 0, "the grid trace overflowed");
        let (_, ledger) =
            run_open_loop_conventional_attributed(cfg, vms, IdlePolicy::UsageWeighted);
        let print = [
            fnv(&format!("{run:?}")),
            fnv(&trace.to_json_lines()),
            ledger_print(&ledger),
        ];
        (run, print)
    }

    /// The grid's base row: seed 11, 8 workers (6 VMs), 300 s of
    /// `poisson:1.5` over every function at uniform popularity, random
    /// placement under reboot-per-job.
    fn grid_base() -> OpenLoopConfig {
        let mut cfg = config(
            ArrivalProcess::Poisson { per_second: 1.5 },
            PlacementKind::RandomStatic,
            11,
        );
        cfg.workers = 8;
        cfg.duration = SimDuration::from_secs(300);
        cfg
    }

    fn grid_row(name: &str, turn: impl FnOnce(&mut OpenLoopConfig)) -> (String, OpenLoopConfig) {
        let mut cfg = grid_base();
        turn(&mut cfg);
        (name.to_string(), cfg)
    }

    fn spec(arrivals: &str) -> ArrivalProcess {
        ArrivalProcess::parse(arrivals).expect("valid arrival spec")
    }

    fn zipf() -> Popularity {
        Popularity::parse("zipf:1.1").expect("valid popularity spec")
    }

    fn grid_cache() -> CacheConfig {
        CacheConfig::parse("lru:64,ttl=300").expect("valid cache spec")
    }

    /// `paid:1:2.5,free:4:30`.
    fn grid_tenants() -> Vec<TenantClass> {
        [("paid", 1.0, 2.5), ("free", 4.0, 30.0)]
            .map(|(name, weight, slo_latency_s)| TenantClass {
                name: name.into(),
                weight,
                slo_latency_s,
            })
            .to_vec()
    }

    fn grid_budget(action: microfaas_sched::BudgetAction) -> GovernorKind {
        GovernorKind::EnergyBudget {
            cap_w: 0.5,
            burst_j: 5.0,
            action,
        }
    }

    fn grid_keep_alive() -> GovernorKind {
        GovernorKind::KeepAlive {
            idle_timeout: DEFAULT_KEEP_ALIVE_TIMEOUT,
        }
    }

    /// Every SBC crashes at 60 s, 150 s and 240 s.
    fn grid_crashes() -> Arc<FaultPlan> {
        crashes_at([60, 150, 240])
    }

    /// Every SBC of the grid's eight crashes at each of `instants`
    /// (seconds); a crash lands on whichever nodes are executing then.
    fn crashes_at(instants: impl IntoIterator<Item = u64>) -> Arc<FaultPlan> {
        Arc::new(FaultPlan {
            seed: 5,
            faults: instants
                .into_iter()
                .flat_map(|secs| {
                    (0..8).map(move |worker| FaultSpec {
                        kind: FaultKind::Crash,
                        worker: Some(worker),
                        trigger: FaultTrigger::At(SimTime::from_secs(secs)),
                    })
                })
                .collect(),
        })
    }

    /// Boot failures, hangs and lost transfers at 5%, 2% and 5%: kinds
    /// the open loop does not model.
    fn grid_random_faults() -> Arc<FaultPlan> {
        let chances = [
            (FaultKind::BootFailure, 0.05),
            (FaultKind::Hang, 0.02),
            (FaultKind::NetLoss, 0.05),
        ];
        Arc::new(FaultPlan {
            seed: 5,
            faults: chances
                .map(|(kind, p)| FaultSpec {
                    kind,
                    worker: None,
                    trigger: FaultTrigger::Probability(p),
                })
                .to_vec(),
        })
    }

    /// The SBC grid: every placement under reboot-per-job, every other
    /// governor under least-loaded, then one row per knob and the knobs'
    /// interactions.
    fn sbc_grid() -> Vec<(String, OpenLoopConfig)> {
        use microfaas_sched::BudgetAction;
        let mut rows: Vec<_> = PlacementKind::ALL
            .into_iter()
            .map(|kind| grid_row(kind.label(), |c| c.scheduler = kind))
            .collect();
        let governors = [
            ("least-loaded/keep-alive", grid_keep_alive()),
            ("least-loaded/always-on", GovernorKind::AlwaysOn),
            (
                "least-loaded/warm-pool",
                GovernorKind::WarmPool {
                    alpha: DEFAULT_WARM_POOL_ALPHA,
                    headroom: DEFAULT_WARM_POOL_HEADROOM,
                },
            ),
            ("least-loaded/budget-shed", grid_budget(BudgetAction::Shed)),
            (
                "least-loaded/budget-defer",
                grid_budget(BudgetAction::Defer),
            ),
            (
                "least-loaded/budget-throttle",
                grid_budget(BudgetAction::Throttle),
            ),
        ];
        rows.extend(governors.map(|(name, governor)| {
            grid_row(name, |c| {
                c.scheduler = PlacementKind::LeastLoaded;
                c.governor = governor;
            })
        }));
        rows.extend([
            grid_row("cache-zipf", |c| {
                c.cache = grid_cache();
                c.popularity = zipf();
            }),
            grid_row("tenants", |c| c.tenants = grid_tenants()),
            grid_row("zipf", |c| c.popularity = zipf()),
            grid_row("hot-cold", |c| {
                c.popularity = Popularity::parse("hot-cold:2,0.8").expect("valid spec");
            }),
            grid_row("every-second", |c| c.arrival = spec("every-second:2")),
            grid_row("mmpp", |c| c.arrival = spec("mmpp:0.2,3,60,15")),
            grid_row("diurnal", |c| c.arrival = spec("diurnal:1.5,0.8,120")),
            grid_row("flash", |c| c.arrival = spec("flash:0.5,100,30,5")),
            grid_row("crashes", |c| c.faults = grid_crashes()),
            grid_row("crashes/keep-alive", |c| {
                c.governor = grid_keep_alive();
                c.faults = grid_crashes();
            }),
            grid_row("budget-shed/cache/tenants", |c| {
                c.scheduler = PlacementKind::LeastLoaded;
                c.governor = grid_budget(BudgetAction::Shed);
                c.cache = grid_cache();
                c.popularity = zipf();
                c.tenants = grid_tenants();
            }),
            grid_row("budget-defer/cache", |c| {
                c.scheduler = PlacementKind::LeastLoaded;
                c.governor = grid_budget(BudgetAction::Defer);
                c.cache = grid_cache();
                c.popularity = zipf();
            }),
            grid_row("everything-on", |c| {
                c.scheduler = PlacementKind::PowerAware;
                c.governor = grid_keep_alive();
                c.cache = grid_cache();
                c.tenants = grid_tenants();
                c.popularity = zipf();
                c.arrival = spec("mmpp:0.2,3,60,15");
                c.faults = grid_crashes();
            }),
            grid_row("random-faults", |c| c.faults = grid_random_faults()),
        ]);
        rows
    }

    /// The VM grid: the base at 6 VMs, fleet size, the knobs a rack
    /// server honours, then four knobs it ignores.
    fn vm_grid() -> Vec<(String, OpenLoopConfig, usize)> {
        let vm = |name: &str, vms: usize, turn: fn(&mut OpenLoopConfig)| {
            let (name, cfg) = grid_row(name, turn);
            (name, cfg, vms)
        };
        vec![
            vm("base", 6, |_| {}),
            vm("1-vm", 1, |_| {}),
            vm("20-vms", 20, |c| c.arrival = spec("every-second:20")),
            vm("cache-zipf", 6, |c| {
                c.cache = grid_cache();
                c.popularity = zipf();
            }),
            vm("tenants", 6, |c| c.tenants = grid_tenants()),
            vm("every-second", 6, |c| c.arrival = spec("every-second:2")),
            vm("mmpp", 6, |c| c.arrival = spec("mmpp:0.2,3,60,15")),
            vm("flash", 6, |c| c.arrival = spec("flash:0.5,100,30,5")),
            vm("cache-affine", 6, |c| {
                c.scheduler = PlacementKind::CacheAffine
            }),
            vm("keep-alive", 6, |c| c.governor = grid_keep_alive()),
            vm("budget-shed", 6, |c| {
                c.governor = grid_budget(microfaas_sched::BudgetAction::Shed)
            }),
            vm("crashes", 6, |c| c.faults = grid_crashes()),
        ]
    }

    /// Rows that set a knob their class ignores, each with the row it
    /// must equal.
    const SBC_SAME_AS: [(&str, &str); 1] = [("random-faults", "random-static")];
    const VM_SAME_AS: [(&str, &str); 4] = [
        ("cache-affine", "base"),
        ("keep-alive", "base"),
        ("budget-shed", "base"),
        ("crashes", "base"),
    ];

    /// SBC grid goldens, in row order.
    #[rustfmt::skip]
    const SBC_GRID: [(&str, [u64; 4]); 27] = [
    ("work-conserving", [0x7365364d0fe838c6, 0x81e9dbe1e17006ac, 0x8c9e60639768eed7, 0x1ca72b3fe649ddd7]),
    ("random-static", [0x610c0115bf44905a, 0xa1c28d6f066920c8, 0x1257366ae8cbcb96, 0x2cdceae7eb60fe60]),
    ("least-loaded", [0x7365364d0fe838c6, 0xac7488e3894fac66, 0xc43bbc5f48b0f0a2, 0x1ca72b3fe649ddd7]),
    ("join-shortest-queue", [0x2de2f4104e168dad, 0xd44f47c6c99a1831, 0x131b9dad348ff256, 0x12470bed2230cd45]),
    ("warm-first", [0xdb91b92c4104300f, 0x6c6ab193119d0a5a, 0xdd78302cfd1debed, 0xf095c84787892b39]),
    ("power-aware", [0xc52fec6e91525cda, 0x89dbccfa9ab26ff8, 0x95a79840dcc8125f, 0x4b5d15eedd0f5fc7]),
    ("cache-affine", [0x7365364d0fe838c6, 0xdadae589c601b1a8, 0x8c9e60639768eed7, 0x1ca72b3fe649ddd7]),
    ("least-loaded/keep-alive", [0x791790b74893fef6, 0x5740854c3ea8a2ad, 0xc284f49b29f026bb, 0x4b74a7e4a605b233]),
    ("least-loaded/always-on", [0xf7dcafbc3880ef2d, 0x0f660d7377619f94, 0x8f19cf37768c6359, 0x2d2dbf8ce74aa356]),
    ("least-loaded/warm-pool", [0x8b916123ab74ebe7, 0xa0be6fe881fffe72, 0xdab0da3c13257b6c, 0xa4dcfe3c7de77bc9]),
    ("least-loaded/budget-shed", [0x19dedaf56b829987, 0x50fae5d8e0a2e917, 0x143b3246e753895c, 0xae131954f5122ff3]),
    ("least-loaded/budget-defer", [0xa9558c72c5e57cee, 0x0ecbaf63108bab49, 0xd20eac7c3446fadf, 0x3d3a581d2cbf0eff]),
    ("least-loaded/budget-throttle", [0x72d555887bad4ce9, 0xe8e8dd576d6b2d68, 0xe32ca111d04bc69f, 0xc292316eda76d4a8]),
    ("cache-zipf", [0xe9b77b4ecaec4765, 0x6dbbd8afd01e5fb1, 0xb9180e02eb99d603, 0xde5a898b5e2a221e]),
    ("tenants", [0x8f2257c3fa925cc3, 0x2e254d29e960f6bc, 0x45d57087769c5fdc, 0x3840a52d45a7f238]),
    ("zipf", [0x8c1c984024912557, 0xad98d32c75272de0, 0xadeec539f3d612b7, 0xbc655a7463499532]),
    ("hot-cold", [0xb6e5d744f8921c67, 0x4fffb3c58a41d728, 0xbcae2ca8c0e6fa82, 0x30f42def45dff761]),
    ("every-second", [0xef3a2506fe85461b, 0xf4643f4d3d79571d, 0xde7d6668b052c5d3, 0x0f13514780f4c330]),
    ("mmpp", [0x34c0146c6b1b1a76, 0xcfd2fd98342f6c61, 0x7c810e58b098e3ef, 0x41594f7e37ffa739]),
    ("diurnal", [0x4c3565f11394481a, 0x5c2ba3e78510b786, 0xed6f0f3615ea2834, 0x4356b66bedddfec1]),
    ("flash", [0x38440f8b868b391d, 0xefd18d4d3b452606, 0xec200238f139b442, 0xff0013737004e75a]),
    ("crashes", [0xb2a9ea5a583bd7ae, 0x1de4809d03e6e0a2, 0x95e7b2e956cc7a8a, 0xf54d8e1eeb57d954]),
    ("crashes/keep-alive", [0xec94b5f712205d0c, 0x54441b37e6e30230, 0x9c9c58f78a47bf43, 0x485b7f3a18d4a2cf]),
    ("budget-shed/cache/tenants", [0x5d0565b4ee5d0030, 0x4bac8b31693519ea, 0x2ce9299b6871150c, 0x86e871286c14a529]),
    ("budget-defer/cache", [0xc8ad90a39b7818e9, 0xaece32a78c424145, 0x20f6e523d1759cce, 0x8412d0b7b394fb71]),
    ("everything-on", [0x76ea612462f4ae07, 0xd798171913acb1fa, 0x138d06021d014c46, 0x073801b18bb00594]),
    ("random-faults", [0x610c0115bf44905a, 0xa1c28d6f066920c8, 0x1257366ae8cbcb96, 0x2cdceae7eb60fe60]),
    ];

    /// VM grid goldens, in row order.
    #[rustfmt::skip]
    const VM_GRID: [(&str, [u64; 3]); 12] = [
    ("base", [0x87bc12c5262edac6, 0x852e22ca00438044, 0x46677d3bd5e42285]),
    ("1-vm", [0x61ba1521b80f9b77, 0x4bb91adba7aa3b3e, 0x9873e9ffc6c6bc37]),
    ("20-vms", [0xc76b75d62cfb8d36, 0x4af38753f8961255, 0xc35cc9416f49f778]),
    ("cache-zipf", [0x9614bdb86b0ff4e0, 0x7e518f61749a6285, 0x280f6512690e5f30]),
    ("tenants", [0x4a9e4bdc37e48749, 0x03ba96b57678c1b6, 0x0e003bdd73674c32]),
    ("every-second", [0x4dc7220e648f6645, 0x9f1f09d98e54c920, 0x637b2ac597771e15]),
    ("mmpp", [0xdff779d76689841e, 0xc1982c2a31b28387, 0x489c9abc0c054308]),
    ("flash", [0x7c6468d0905667dd, 0xc70178963059c446, 0x4514566d6c9235a9]),
    ("cache-affine", [0x87bc12c5262edac6, 0x852e22ca00438044, 0x46677d3bd5e42285]),
    ("keep-alive", [0x87bc12c5262edac6, 0x852e22ca00438044, 0x46677d3bd5e42285]),
    ("budget-shed", [0x87bc12c5262edac6, 0x852e22ca00438044, 0x46677d3bd5e42285]),
    ("crashes", [0x87bc12c5262edac6, 0x852e22ca00438044, 0x46677d3bd5e42285]),
    ];

    /// Checks each computed row against its golden and each ignored-knob
    /// row against its base; on a mismatch, prints the computed table
    /// in the goldens' own layout.
    fn check_grid<const N: usize>(
        class: &str,
        got: &[(String, [u64; N])],
        goldens: &[(&str, [u64; N])],
        same_as: &[(&str, &str)],
    ) {
        let print = |name: &str| got.iter().find(|(n, _)| n == name).expect("row exists").1;
        for (row, base) in same_as {
            assert_eq!(print(row), print(base), "{class} {row} must equal {base}");
        }
        let diverged: Vec<&str> = got
            .iter()
            .zip(goldens)
            .filter(|((name, print), (golden_name, golden))| {
                assert_eq!(name, golden_name, "{class} grid rows are out of order");
                print != golden
            })
            .map(|((name, _), _)| name.as_str())
            .collect();
        let table: String = got
            .iter()
            .map(|(name, print)| {
                let hex: Vec<String> = print.iter().map(|h| format!("{h:#018x}")).collect();
                format!("    (\"{name}\", [{}]),\n", hex.join(", "))
            })
            .collect();
        assert!(
            diverged.is_empty() && got.len() == goldens.len(),
            "{class} grid rows diverged: {diverged:?}\n{table}"
        );
    }

    #[test]
    fn sbc_grid_is_unchanged() {
        let got: Vec<(String, [u64; 4])> = sbc_grid()
            .into_iter()
            .map(|(name, cfg)| {
                let (run, print) = sbc_print(&cfg);
                if name.contains("crashes") || name == "everything-on" {
                    assert!(run.faults_injected > 0, "{name}: no crash landed");
                }
                if name.contains("budget-shed") {
                    let arrived = run.offered_per_second * cfg.duration.as_secs_f64();
                    assert!((run.completed as f64) < arrived, "{name}: nothing shed");
                }
                (name, print)
            })
            .collect();
        check_grid("SBC", &got, &SBC_GRID, &SBC_SAME_AS);
    }

    #[test]
    fn vm_grid_is_unchanged() {
        let got: Vec<(String, [u64; 3])> = vm_grid()
            .into_iter()
            .map(|(name, cfg, vms)| (name, vm_print(&cfg, vms).1))
            .collect();
        check_grid("VM", &got, &VM_GRID, &VM_SAME_AS);
    }

    /// One monitored row's fingerprint: FNV-1a over the series' CSV, its
    /// Prometheus exposition, its Perfetto counter tracks and the
    /// `Debug` rendering of its alert list, in that order.
    fn series_print(series: &TelemetrySeries) -> [u64; 1] {
        use microfaas_sim::chrome::export_counter_trace;
        use microfaas_sim::telemetry::{evaluate_alerts, AlertPolicy};
        let alerts = evaluate_alerts(series, &AlertPolicy::default());
        let print = [
            series.to_csv(),
            series.render_prometheus(),
            export_counter_trace(&series.counter_tracks(), "monitor"),
            format!("{alerts:?}"),
        ]
        .iter()
        .fold(crate::cache::FNV_OFFSET, |h, text| {
            crate::cache::fnv1a_extend(h, text.as_bytes())
        });
        [print]
    }

    /// The monitored grid: both monitored entry points on the grid's
    /// base with two tenants, the cache under Zipf popularity, a
    /// deferring energy budget and crashes every 10 s, at 0.25 s, 1 s
    /// and 7 s windows, each with an evicting eight-window ring and the
    /// default depth.
    fn monitored_grid() -> Vec<(String, [u64; 1])> {
        use microfaas_sim::telemetry::TelemetryWindow;
        let (_, cfg) = grid_row("monitored", |c| {
            c.scheduler = PlacementKind::LeastLoaded;
            c.governor = grid_budget(microfaas_sched::BudgetAction::Defer);
            c.cache = grid_cache();
            c.popularity = zipf();
            c.tenants = grid_tenants();
            // The budget keeps most nodes gated, so every SBC crashes
            // each 10 s for a crash to find one executing.
            c.faults = crashes_at((10..300).step_by(10));
        });
        let mut rows = Vec::new();
        for window_ms in [250, 1_000, 7_000] {
            for max_windows in [8, TelemetryConfig::default().max_windows] {
                let telemetry = TelemetryConfig {
                    window: SimDuration::from_millis(window_ms),
                    max_windows,
                };
                let (run, streamed) = run_open_loop_monitored_streaming(&cfg, &telemetry);
                let (_, _, attributed) =
                    run_open_loop_monitored_attributed(&cfg, IdlePolicy::UsageWeighted, &telemetry);
                let label = format!("{window_ms}ms/{max_windows}");
                assert!(run.faults_injected > 0, "{label}: no crash landed");
                assert_eq!(streamed.dropped_windows > 0, max_windows == 8, "{label}");
                if max_windows > 8 {
                    let sum = |f: fn(&TelemetryWindow) -> u64| -> u64 {
                        streamed.windows.iter().map(f).sum()
                    };
                    assert!(sum(|w| w.cache_hits) > 0, "{label}: no cache hit");
                    assert!(sum(|w| w.budget_breaches) > 0, "{label}: no breach");
                    assert_eq!(sum(|w| w.completed), run.completed, "{label}");
                }
                rows.push((format!("streaming/{label}"), series_print(&streamed)));
                rows.push((format!("attributed/{label}"), series_print(&attributed)));
            }
        }
        rows
    }

    /// Monitored grid goldens, in row order.
    #[rustfmt::skip]
    const MONITORED_GRID: [(&str, [u64; 1]); 12] = [
    ("streaming/250ms/8", [0xc2855a079e0a7cf1]),
    ("attributed/250ms/8", [0xc2855a079e0a7cf1]),
    ("streaming/250ms/4096", [0xa2833e5bf0680569]),
    ("attributed/250ms/4096", [0xa2833e5bf0680569]),
    ("streaming/1000ms/8", [0x7ddc64e821c706a5]),
    ("attributed/1000ms/8", [0x7ddc64e821c706a5]),
    ("streaming/1000ms/4096", [0x00ac93b96733b236]),
    ("attributed/1000ms/4096", [0x00ac93b96733b236]),
    ("streaming/7000ms/8", [0xf6ef99533aa8020d]),
    ("attributed/7000ms/8", [0xf6ef99533aa8020d]),
    ("streaming/7000ms/4096", [0x82d2fe2535d1d77b]),
    ("attributed/7000ms/4096", [0x82d2fe2535d1d77b]),
    ];

    #[test]
    fn monitored_grid_is_unchanged() {
        let got = monitored_grid();
        for pair in got.chunks(2) {
            assert_eq!(pair[0].1, pair[1].1, "{}: attribution is inert", pair[1].0);
        }
        check_grid("monitored", &got, &MONITORED_GRID, &[]);
    }

    #[test]
    fn new_placements_complete_everything() {
        for scheduler in [
            PlacementKind::WorkConserving,
            PlacementKind::JoinShortestQueue,
            PlacementKind::WarmFirst,
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
