//! The MicroFaaS cluster simulator: SBC workers driven by the
//! orchestration plane through GPIO power control, run-to-completion
//! scheduling, reboots between jobs, and power-gating of idle nodes.
//!
//! Fault injection (crashes, boot failures, hangs, lost transfers) and
//! the recovery policies around it are documented in
//! `docs/FAILURE_MODEL.md`; with an empty
//! [`FaultPlan`](microfaas_sim::faults::FaultPlan) the machinery is
//! inert and runs are bit-identical to a build without it.
//!
//! Placement and power-state policy are pluggable through
//! `microfaas-sched` (see `docs/SCHEDULING.md`): the
//! [`MicroFaasConfig::assignment`] placement picks worker queues and the
//! [`MicroFaasConfig::governor`] decides what a drained worker does.
//! The defaults (work-conserving placement,
//! [`GovernorKind::RebootPerJob`]) reproduce the paper's behavior
//! bit-for-bit, including traces and metric expositions.

use std::sync::Arc;

use microfaas_energy::{ChannelId, EnergyMeter};
use microfaas_hw::gpio::{PowerAction, PowerController};
use microfaas_hw::sbc::{SbcNode, SbcState};
use microfaas_net::LinkSpec;
use microfaas_sched::{governor, DrainAction, Governor, GovernorKind};
use microfaas_sim::faults::FaultKind;
use microfaas_sim::trace::{Observer, TraceEvent, WorkerState};
use microfaas_sim::{
    CounterId, EventId, EventQueue, HistogramId, MetricsRegistry, Rng, SimDuration, SimTime,
};
use microfaas_workloads::calibration::{service_time, WorkerPlatform};
use microfaas_workloads::FunctionId;

use crate::cache::{content_key, CacheConfig, ResultCache};
use crate::config::{Assignment, Jitter, WorkloadMix};
use crate::job::{Dispatcher, Job, JobRecord, JobTable};
use crate::netmap::ClusterNet;
use crate::recovery::{priority_of, FaultRuntime, FaultsConfig, Priority};
use crate::registry::{FunctionRegistry, TimeoutTable};
use crate::report::{ClusterRun, DroppedJob, Outcome};

/// Configuration of a MicroFaaS cluster run.
#[derive(Debug, Clone)]
pub struct MicroFaasConfig {
    /// Number of SBC worker nodes (the paper's prototype has 10).
    pub workers: usize,
    /// Workload to run. Shared behind an [`Arc`] so sweeps and
    /// replicates clone configs without copying the function list.
    pub mix: Arc<WorkloadMix>,
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// Run-to-run service-time variation.
    pub jitter: Jitter,
    /// Worker NIC line rate. The BeagleBone's Fast Ethernet is the
    /// default; set 1 Gb/s for the paper's NIC-upgrade what-if.
    pub worker_nic_bits_per_sec: u64,
    /// Reboot to a clean state between jobs (the paper's policy).
    /// Disabling is an ablation that trades isolation for throughput.
    pub reboot_between_jobs: bool,
    /// Power nodes fully off when their queue drains (the paper's
    /// energy-proportionality mechanism). Disabling leaves idle nodes in
    /// 0.128 W standby.
    pub power_gating: bool,
    /// Models the paper's "cryptographic accelerator" what-if: scales
    /// CascSHA/CascMD5/AES128 execution by this factor (1.0 = stock).
    pub crypto_exec_scale: f64,
    /// How the orchestration plane maps jobs to workers.
    pub assignment: Assignment,
    /// What a worker does between jobs and when its queue drains. The
    /// default [`GovernorKind::RebootPerJob`] is the paper's policy and
    /// the only governor under which the legacy `reboot_between_jobs`
    /// and `power_gating` switches keep their exact historical meaning.
    pub governor: GovernorKind,
    /// NIC line rate of the backing-service hosts. GigE by default; set
    /// 100 Mb/s to model services hosted on SBCs (as the paper's testbed
    /// wires them), which turns the service port into a shared
    /// bottleneck at scale — the effect Gand et al. report for their
    /// 8-Pi cluster.
    pub service_nic_bits_per_sec: u64,
    /// Kill invocations that run longer than this (platform timeout).
    /// `None` is the paper's pure run-to-completion model. Combined with
    /// any per-function timeout from [`MicroFaasConfig::registry`]; the
    /// tighter limit wins.
    pub invocation_timeout: Option<SimDuration>,
    /// Deployed-function metadata; a function's
    /// [`crate::registry::FunctionSpec::timeout`] is enforced per
    /// invocation. The paper suite deploys everything without timeouts.
    pub registry: FunctionRegistry,
    /// Fault plan and recovery policies ([`FaultsConfig::none`] keeps
    /// the run fault-free and bit-identical to earlier builds).
    pub faults: FaultsConfig,
    /// Content-addressed result cache on the orchestration plane. The
    /// closed-loop harness carries no request payloads, so the key
    /// degenerates to one entry per function: after a function's first
    /// real execution, every repeat is served from the orchestrator at
    /// zero boot/exec/energy cost. [`CacheConfig::Off`] (the default)
    /// keeps runs bit-identical to pre-cache builds.
    pub cache: CacheConfig,
}

impl MicroFaasConfig {
    /// The paper's prototype: 10 SBCs, Fast Ethernet, reboot + power-gate.
    /// Accepts the mix owned or pre-shared (`Arc<WorkloadMix>` — both
    /// convert), so sweeps build it once and share it across points.
    pub fn paper_prototype(mix: impl Into<Arc<WorkloadMix>>, seed: u64) -> Self {
        MicroFaasConfig {
            workers: 10,
            mix: mix.into(),
            seed,
            jitter: Jitter::default_run_to_run(),
            worker_nic_bits_per_sec: 100_000_000,
            reboot_between_jobs: true,
            power_gating: true,
            crypto_exec_scale: 1.0,
            assignment: Assignment::WorkConserving,
            governor: GovernorKind::RebootPerJob,
            service_nic_bits_per_sec: 1_000_000_000,
            invocation_timeout: None,
            registry: FunctionRegistry::paper_suite(),
            faults: FaultsConfig::none(),
            cache: CacheConfig::Off,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// GPIO press registered; the node starts booting.
    PowerEffective(usize),
    /// Worker OS reached the network; node is ready for a job.
    BootDone(usize),
    /// Function body finished; the result/overhead phase begins.
    ExecDone(usize),
    /// Result delivered; the job is complete.
    JobDone(usize),
    /// The platform timeout fired; the invocation is killed.
    TimedOut(usize),
    /// An injected crash takes the node down.
    Crash(usize),
    /// The orchestrator's heartbeat notices the crash; recovery begins.
    Recover(usize),
    /// The supervision deadline for a hung or transfer-starved
    /// invocation: kill it, requeue, and reset the worker.
    Watchdog(usize),
    /// The sender retries a result transfer the network lost.
    Retransmit(usize),
    /// Backoff elapsed; the orchestrator requeues the invocation.
    Retry(Job),
    /// A standby worker's governor idle window elapsed; it may gate off.
    IdleGate(usize),
}

struct InFlight {
    job: Job,
    started: SimTime,
    exec: SimDuration,
    /// The next scheduled progress event (ExecDone, then JobDone, or a
    /// Retransmit), cancelled if the timeout or a crash fires first.
    /// `None` while the invocation hangs with only a watchdog armed.
    pending: Option<EventId>,
    /// The timeout event, cancelled when the job completes in time.
    timeout: Option<EventId>,
    /// The supervision deadline for hangs / exhausted retransmits.
    watchdog: Option<EventId>,
    /// Result transfers attempted so far (0 until ExecDone).
    transfer_tries: u32,
}

/// Histogram bucket upper bounds (seconds) shared by the cluster
/// simulators so micro/conventional exec and overhead distributions
/// land in comparable buckets.
pub(crate) const EXEC_BUCKETS: [f64; 9] = [0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0];
/// See [`EXEC_BUCKETS`]; overheads are an order of magnitude smaller.
pub(crate) const OVERHEAD_BUCKETS: [f64; 9] = [0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5];

/// Per-run metric handles for this cluster, all prefixed `micro_`.
struct MicroMetrics {
    jobs_enqueued: CounterId,
    jobs_completed: CounterId,
    jobs_timed_out: CounterId,
    boots: CounterId,
    net_bytes: CounterId,
    faults_injected: CounterId,
    jobs_requeued: CounterId,
    job_retries: CounterId,
    jobs_shed: CounterId,
    jobs_failed: CounterId,
    exec_seconds: HistogramId,
    overhead_seconds: HistogramId,
}

/// Metric handles for the scheduling subsystem, shared by both cluster
/// engines and the open-loop simulator. Registered only when a
/// non-default policy is active, so default expositions keep their
/// historical byte-exact content.
pub(crate) struct SchedMetrics {
    /// Static placement decisions made by the active placement policy.
    pub(crate) placements: CounterId,
    /// Back-to-back job starts that skipped the boot window.
    pub(crate) warm_hits: CounterId,
    /// Job starts that paid the full boot window.
    pub(crate) cold_boots: CounterId,
    /// Governor power-regime moves (standby, gate-off, prewarm).
    pub(crate) governor_transitions: CounterId,
}

impl SchedMetrics {
    pub(crate) fn register(metrics: &mut MetricsRegistry) -> Self {
        SchedMetrics {
            placements: metrics.counter("sched_placements_total"),
            warm_hits: metrics.counter("sched_warm_hits_total"),
            cold_boots: metrics.counter("sched_cold_boots_total"),
            governor_transitions: metrics.counter("sched_governor_transitions_total"),
        }
    }
}

impl MicroMetrics {
    fn register(metrics: &mut MetricsRegistry) -> Self {
        MicroMetrics {
            jobs_enqueued: metrics.counter("micro_jobs_enqueued_total"),
            jobs_completed: metrics.counter("micro_jobs_completed_total"),
            jobs_timed_out: metrics.counter("micro_jobs_timed_out_total"),
            boots: metrics.counter("micro_worker_boots_total"),
            net_bytes: metrics.counter("micro_net_bytes_total"),
            faults_injected: metrics.counter("micro_faults_injected_total"),
            jobs_requeued: metrics.counter("micro_jobs_requeued_total"),
            job_retries: metrics.counter("micro_job_retries_total"),
            jobs_shed: metrics.counter("micro_jobs_shed_total"),
            jobs_failed: metrics.counter("micro_jobs_failed_total"),
            exec_seconds: metrics.histogram("micro_exec_seconds", &EXEC_BUCKETS),
            overhead_seconds: metrics.histogram("micro_overhead_seconds", &OVERHEAD_BUCKETS),
        }
    }
}

/// Runs the configured cluster to completion and reports the results.
///
/// # Panics
///
/// Panics if `workers` is zero, `crypto_exec_scale` is not in (0, 1],
/// or the fault plan fails validation.
///
/// # Examples
///
/// ```
/// use microfaas::config::WorkloadMix;
/// use microfaas::micro::{run_microfaas, MicroFaasConfig};
/// use microfaas_workloads::FunctionId;
///
/// let mix = WorkloadMix::new(vec![FunctionId::RegexMatch], 20);
/// let run = run_microfaas(&MicroFaasConfig::paper_prototype(mix, 42));
/// assert_eq!(run.jobs_completed(), 20);
/// ```
pub fn run_microfaas(config: &MicroFaasConfig) -> ClusterRun {
    run_microfaas_with(config, &mut Observer::disabled())
}

/// Runs the cluster while reporting trace events and `micro_*` metrics
/// into `observer`. [`run_microfaas`] is this entry point with
/// [`Observer::disabled`]; the simulated results are bit-identical
/// either way because observation never touches the run's RNG.
///
/// # Panics
///
/// Panics under the same conditions as [`run_microfaas`].
///
/// # Examples
///
/// ```
/// use microfaas::config::WorkloadMix;
/// use microfaas::micro::{run_microfaas_with, MicroFaasConfig};
/// use microfaas_sim::trace::{Observer, TraceBuffer};
/// use microfaas_sim::MetricsRegistry;
/// use microfaas_workloads::FunctionId;
///
/// let mix = WorkloadMix::new(vec![FunctionId::RegexMatch], 5);
/// let config = MicroFaasConfig::paper_prototype(mix, 42);
/// let mut trace = TraceBuffer::new(4096);
/// let mut metrics = MetricsRegistry::new();
/// let run = run_microfaas_with(&config, &mut Observer::full(&mut trace, &mut metrics));
/// assert_eq!(run.jobs_completed(), 5);
/// assert!(metrics.render_prometheus().contains("micro_jobs_completed_total 5"));
/// assert!(trace.to_json_lines().lines().count() > 5);
/// ```
pub fn run_microfaas_with(config: &MicroFaasConfig, observer: &mut Observer<'_>) -> ClusterRun {
    assert!(config.workers > 0, "cluster needs at least one worker");
    assert!(
        config.crypto_exec_scale > 0.0 && config.crypto_exec_scale <= 1.0,
        "crypto accelerator can only speed execution up"
    );
    config.cache.try_validate().expect("invalid cache config");
    MicroSim::new(config, observer).run()
}

/// All mutable state of one MicroFaaS run, so the event handlers can be
/// plain methods instead of functions threading a dozen arguments.
struct MicroSim<'a, 'b> {
    config: &'a MicroFaasConfig,
    observer: &'a mut Observer<'b>,
    rng: Rng,
    queue: EventQueue<Event>,
    gpio: PowerController,
    meter: EnergyMeter,
    cnet: ClusterNet,
    nodes: Vec<SbcNode>,
    channels: Vec<ChannelId>,
    dispatcher: Dispatcher,
    in_flight: Vec<Option<InFlight>>,
    /// The pending PowerEffective/BootDone event per worker, cancelled
    /// when a crash interrupts the boot.
    boot_pending: Vec<Option<EventId>>,
    records: JobTable,
    last_completion: SimTime,
    fr: FaultRuntime,
    handles: Option<MicroMetrics>,
    /// The node power governor ([`MicroFaasConfig::governor`]).
    governor: Box<dyn Governor + Send>,
    /// The pending IdleGate event per standby worker, cancelled when a
    /// job start or crash pre-empts the idle window.
    gate_pending: Vec<Option<EventId>>,
    /// Whether a non-default scheduling policy is active; all new
    /// telemetry is gated on this so default runs stay byte-identical.
    sched_active: bool,
    sched_handles: Option<SchedMetrics>,
    /// The orchestrator's result cache; `None` when
    /// [`MicroFaasConfig::cache`] is off, keeping the pull path free of
    /// cache branches.
    cache: Option<ResultCache<()>>,
    /// Each function's kill deadline, resolved once from
    /// [`MicroFaasConfig::invocation_timeout`] and the registry.
    timeouts: TimeoutTable,
}

impl<'a, 'b> MicroSim<'a, 'b> {
    fn new(config: &'a MicroFaasConfig, observer: &'a mut Observer<'b>) -> Self {
        let mut rng = Rng::new(config.seed);
        let mut meter = EnergyMeter::new(SimTime::ZERO);

        // Network topology: workers on their (possibly upgraded) NICs;
        // the orchestrator and the four service hosts on GigE so each
        // cluster's own worker NIC is the bottleneck.
        let worker_link = LinkSpec {
            bits_per_sec: config.worker_nic_bits_per_sec,
            latency: LinkSpec::fast_ethernet().latency,
        };
        let service_link = LinkSpec {
            bits_per_sec: config.service_nic_bits_per_sec,
            latency: LinkSpec::gigabit().latency,
        };
        let cnet = ClusterNet::new("sbc-", config.workers, worker_link, service_link);

        let nodes: Vec<SbcNode> = (0..config.workers)
            .map(|w| SbcNode::new(w, SimTime::ZERO))
            .collect();
        let channels: Vec<ChannelId> = (0..config.workers)
            .map(|w| meter.add_channel(format!("sbc-{w}")))
            .collect();

        // The orchestration plane queues every invocation up front
        // (paper §IV-D), under the configured assignment policy.
        let jobs = config.mix.jobs(&mut rng);
        let handles = observer.metrics().map(MicroMetrics::register);
        if observer.is_tracing() {
            for job in &jobs {
                observer.emit(
                    SimTime::ZERO,
                    TraceEvent::JobEnqueued {
                        job: job.id,
                        function: job.function.name(),
                    },
                );
            }
        }
        if let (Some(metrics), Some(h)) = (observer.metrics(), handles.as_ref()) {
            metrics.add(h.jobs_enqueued, jobs.len() as u64);
        }
        let fr = FaultRuntime::new(&config.faults.plan, config.workers, jobs.len());
        // LeastLoaded balances expected ARM execution seconds, not job
        // counts, so a queue of MatMuls is not "equal" to one of regexes.
        let dispatcher = Dispatcher::with_weights(
            config.assignment,
            config.workers,
            jobs,
            &mut rng,
            |function| {
                service_time(function)
                    .exec(WorkerPlatform::ArmSbc)
                    .as_secs_f64()
            },
        );

        // Everything below is observation only (no RNG, no events): the
        // legacy defaults keep traces and expositions byte-identical.
        let sched_active = !(config.assignment.is_legacy_assignment()
            && config.governor == GovernorKind::RebootPerJob);
        let sched_handles = if sched_active {
            observer.metrics().map(SchedMetrics::register)
        } else {
            None
        };
        if sched_active {
            let placed: Vec<(usize, u64)> = dispatcher
                .placements()
                .map(|(w, job)| (w, job.id))
                .collect();
            if observer.is_tracing() {
                for &(w, id) in &placed {
                    observer.emit(
                        SimTime::ZERO,
                        TraceEvent::PlacementDecision {
                            job: id,
                            worker: w,
                            policy: config.assignment.label(),
                        },
                    );
                }
            }
            if let (Some(metrics), Some(h)) = (observer.metrics(), sched_handles.as_ref()) {
                metrics.add(h.placements, placed.len() as u64);
            }
        }

        MicroSim {
            config,
            observer,
            rng,
            // Peak outstanding events: one progress event per worker
            // plus timeout/watchdog timers and a handful of planned
            // crashes — sized up front so the hot loop never regrows.
            queue: EventQueue::with_capacity(4 * config.workers + 16),
            gpio: PowerController::new(config.workers),
            meter,
            cnet,
            nodes,
            channels,
            dispatcher,
            in_flight: (0..config.workers).map(|_| None).collect(),
            boot_pending: vec![None; config.workers],
            records: JobTable::with_capacity(config.mix.total_jobs() as usize),
            last_completion: SimTime::ZERO,
            fr,
            handles,
            governor: governor(config.governor),
            gate_pending: vec![None; config.workers],
            sched_active,
            sched_handles,
            cache: ResultCache::from_config(&config.cache),
            timeouts: config.registry.timeouts(config.invocation_timeout),
        }
    }

    fn run(mut self) -> ClusterRun {
        // Planned crashes are ordinary events; an empty plan schedules
        // nothing, keeping the event sequence bit-identical. Crashes
        // aimed past the fleet (a plan written for a larger cluster)
        // are no-ops.
        for (at, w) in self.fr.injector.scheduled_crashes().to_vec() {
            if w < self.config.workers {
                self.queue.schedule(at, Event::Crash(w));
            }
        }

        // Power on every worker that has work.
        for w in 0..self.config.workers {
            if self.dispatcher.has_work(w) {
                self.observer.emit(
                    SimTime::ZERO,
                    TraceEvent::WakeRequested {
                        worker: w,
                        reason: "dispatch",
                    },
                );
                let effective = self.gpio.actuate(SimTime::ZERO, w, PowerAction::On);
                self.boot_pending[w] =
                    Some(self.queue.schedule(effective, Event::PowerEffective(w)));
            }
        }

        while let Some((now, event)) = self.queue.pop() {
            match event {
                Event::PowerEffective(w) => self.on_power_effective(w, now),
                Event::BootDone(w) => self.on_boot_done(w, now),
                Event::ExecDone(w) => self.on_exec_done(w, now),
                Event::JobDone(w) => self.on_job_done(w, now),
                Event::TimedOut(w) => self.on_timed_out(w, now),
                Event::Crash(w) => self.on_crash(w, now),
                Event::Recover(w) => self.on_recover(w, now),
                Event::Watchdog(w) => self.on_watchdog(w, now),
                Event::Retransmit(w) => self.on_retransmit(w, now),
                Event::Retry(job) => self.on_retry(job, now),
                Event::IdleGate(w) => self.on_idle_gate(w, now),
            }
        }

        // With every worker dead, queued work has nowhere to go: account
        // each stranded job so completions + drops always equal
        // submissions. Fault-free runs drain their queues and skip this.
        let at_end = self.queue.now();
        for w in 0..self.config.workers {
            while let Some(job) = self.dispatcher.pull(w) {
                self.drop_failed(job, at_end);
            }
            if let Some(flight) = self.in_flight[w].take() {
                self.drop_failed(flight.job, at_end);
            }
        }

        // A worker that booted to an already-drained queue may touch the
        // meter after the final completion; report at the later instant.
        let end = self.queue.now().max(self.last_completion);
        let energy = self.meter.report(end, self.records.len() as u64);
        let run = ClusterRun {
            label: format!("MicroFaaS ({} SBCs)", self.config.workers),
            workers: self.config.workers,
            energy,
            makespan: self.last_completion.duration_since(SimTime::ZERO),
            records: std::mem::take(&mut self.records),
            dropped: std::mem::take(&mut self.fr.dropped),
            faults: self.fr.summary,
        };
        // Headline gauges are computed from the finished run itself, so
        // the exposition agrees bit-for-bit with the `ClusterRun`
        // accessors.
        let cache_stats = self.cache.as_ref().map(|c| c.stats());
        if let Some(metrics) = self.observer.metrics() {
            self.meter.publish_metrics(metrics, "micro", end);
            publish_run_gauges(metrics, "micro", &run);
            // Cache counters only exist when a cache ran: the default
            // exposition must stay byte-identical to pre-cache builds.
            if let Some(stats) = cache_stats.as_ref() {
                publish_cache_counters(metrics, "micro", stats);
            }
        }
        run
    }

    /// Meters `watts` and emits the state-change + power-sample pair.
    fn mark(&mut self, now: SimTime, w: usize, state: WorkerState, watts: f64) {
        self.meter.set_power(now, self.channels[w], watts);
        self.observer
            .emit(now, TraceEvent::WorkerStateChange { worker: w, state });
        self.observer
            .emit(now, TraceEvent::PowerSample { worker: w, watts });
    }

    fn with_metrics(&mut self, apply: impl FnOnce(&mut MetricsRegistry, &MicroMetrics)) {
        if let (Some(metrics), Some(h)) = (self.observer.metrics(), self.handles.as_ref()) {
            apply(metrics, h);
        }
    }

    fn with_sched_metrics(&mut self, apply: impl FnOnce(&mut MetricsRegistry, &SchedMetrics)) {
        if let (Some(metrics), Some(h)) = (self.observer.metrics(), self.sched_handles.as_ref()) {
            apply(metrics, h);
        }
    }

    /// Booted-idle workers right now — the governor's "warm pool".
    fn warm_idle_count(&self) -> usize {
        (0..self.config.workers)
            .filter(|&x| !self.fr.dead[x] && self.nodes[x].state() == SbcState::Idle)
            .count()
    }

    /// Emits the governor-transition trace/metric pair (active policies
    /// only — the default governor never reaches the standby paths).
    fn governor_transition(&mut self, now: SimTime, w: usize, action: &'static str) {
        if !self.sched_active {
            return;
        }
        self.observer
            .emit(now, TraceEvent::GovernorTransition { worker: w, action });
        self.with_sched_metrics(|m, h| m.inc(h.governor_transitions));
    }

    fn fault_injected(&mut self, now: SimTime, w: usize, kind: FaultKind) {
        self.fr.summary.injected += 1;
        self.observer.emit(
            now,
            TraceEvent::FaultInjected {
                worker: w,
                fault: kind.label(),
            },
        );
        self.with_metrics(|m, h| m.inc(h.faults_injected));
    }

    fn drop_failed(&mut self, job: Job, now: SimTime) {
        let attempts = self.fr.attempts[job.id as usize];
        self.observer.emit(
            now,
            TraceEvent::JobFailed {
                job: job.id,
                function: job.function.name(),
                attempts,
            },
        );
        self.fr.dropped.push(DroppedJob {
            job,
            outcome: Outcome::Failed,
            attempts,
        });
        self.with_metrics(|m, h| m.inc(h.jobs_failed));
    }

    fn on_power_effective(&mut self, w: usize, now: SimTime) {
        self.boot_pending[w] = None;
        self.nodes[w]
            .power_on(now)
            .expect("scheduled only while off");
        let watts = self.nodes[w].power().value();
        self.mark(now, w, WorkerState::Booting, watts);
        self.with_metrics(|m, h| m.inc(h.boots));
        self.boot_pending[w] = Some(
            self.queue
                .schedule(now + self.nodes[w].boot_duration(), Event::BootDone(w)),
        );
    }

    fn on_boot_done(&mut self, w: usize, now: SimTime) {
        self.boot_pending[w] = None;
        if self.fr.injector.boot_fails(w) {
            self.fault_injected(now, w, FaultKind::BootFailure);
            self.fr.boot_failures[w] += 1;
            if self.fr.boot_failures[w] > self.config.faults.max_boot_retries {
                // The node never comes up: declare it dead and move its
                // statically assigned queue to the survivors.
                self.fr.dead[w] = true;
                self.nodes[w].crash(now).expect("node was booting");
                self.mark(now, w, WorkerState::Crashed, 0.0);
                self.redistribute(w, now);
                self.maybe_shed(now);
            } else {
                // The boot wedged; the orchestrator power-cycles and the
                // node spends another boot window at boot power.
                self.with_metrics(|m, h| m.inc(h.boots));
                self.boot_pending[w] = Some(
                    self.queue
                        .schedule(now + self.nodes[w].boot_duration(), Event::BootDone(w)),
                );
            }
            return;
        }
        self.fr.boot_failures[w] = 0;
        self.nodes[w]
            .boot_complete(now)
            .expect("scheduled only while booting");
        let watts = self.nodes[w].power().value();
        self.mark(now, w, WorkerState::Idle, watts);
        self.start_next_job(w, now);
    }

    fn on_exec_done(&mut self, w: usize, now: SimTime) {
        let job = self.in_flight[w].as_ref().expect("job in flight").job;
        let st = service_time(job.function);
        let fixed = st
            .fixed_overhead(WorkerPlatform::ArmSbc)
            .mul_f64(self.config.jitter.factor(&mut self.rng));
        // The byte-proportional part travels the simulated switch, where
        // port contention can stretch it beyond nominal.
        self.attempt_transfer(w, now + fixed);
    }

    /// Pushes the result transfer through the switch; an injected loss
    /// consumes the wire, then either retransmits or hands the job to
    /// the watchdog once the retry budget is spent.
    fn attempt_transfer(&mut self, w: usize, start: SimTime) {
        let job = self.in_flight[w].as_ref().expect("job in flight").job;
        let bytes = service_time(job.function).transfer_bytes();
        let lost = self.fr.injector.transfer_lost(w);
        if lost {
            self.fault_injected(start, w, FaultKind::NetLoss);
        }
        // The response leaves the worker as the transfer starts; a lost
        // copy re-emits on retransmit (span derivation keeps the first).
        self.observer.emit(
            start,
            TraceEvent::ResponseSent {
                job: job.id,
                function: job.function.name(),
                worker: w,
            },
        );
        let (delivered, src, dst) = self.cnet.transfer(start, w, job.function, bytes, lost);
        self.observer
            .emit(start, TraceEvent::NetTransfer { src, dst, bytes });
        self.with_metrics(|m, h| m.add(h.net_bytes, bytes));
        if !lost {
            let pending = self.queue.schedule(delivered, Event::JobDone(w));
            self.in_flight[w].as_mut().expect("job in flight").pending = Some(pending);
            return;
        }
        let tries = {
            let flight = self.in_flight[w].as_mut().expect("job in flight");
            flight.transfer_tries += 1;
            flight.transfer_tries
        };
        if tries <= self.config.faults.retry.max_attempts {
            let eid = self.queue.schedule(
                delivered + self.config.faults.retransmit_delay,
                Event::Retransmit(w),
            );
            self.in_flight[w].as_mut().expect("job in flight").pending = Some(eid);
        } else {
            // Every copy vanished: when the last one would have arrived,
            // the orchestrator's supervision gives up on this worker.
            let eid = self.queue.schedule(delivered, Event::Watchdog(w));
            let flight = self.in_flight[w].as_mut().expect("job in flight");
            flight.pending = None;
            flight.watchdog = Some(eid);
        }
    }

    fn on_retransmit(&mut self, w: usize, now: SimTime) {
        self.attempt_transfer(w, now);
    }

    fn on_job_done(&mut self, w: usize, now: SimTime) {
        let flight = self.in_flight[w].take().expect("job in flight");
        if let Some(timeout_event) = flight.timeout {
            self.queue.cancel(timeout_event);
        }
        let overhead = now.duration_since(flight.started + flight.exec);
        self.observer.emit(
            now,
            TraceEvent::JobCompleted {
                job: flight.job.id,
                function: flight.job.function.name(),
                worker: w,
                exec: flight.exec,
                overhead,
            },
        );
        self.with_metrics(|m, h| {
            m.inc(h.jobs_completed);
            m.observe(h.exec_seconds, flight.exec.as_secs_f64());
            m.observe(h.overhead_seconds, overhead.as_secs_f64());
        });
        self.records.push(JobRecord {
            job: flight.job,
            worker: w,
            started: flight.started,
            exec: flight.exec,
            overhead,
        });
        self.last_completion = now;
        if let Some(cache) = self.cache.as_mut() {
            cache.insert(
                content_key(flight.job.function.index(), 0),
                (),
                now.as_micros(),
            );
        }
        self.release_worker(w, now, false);
    }

    fn on_timed_out(&mut self, w: usize, now: SimTime) {
        let flight = self.in_flight[w].take().expect("job in flight");
        if let Some(pending) = flight.pending {
            self.queue.cancel(pending);
        }
        if let Some(watchdog) = flight.watchdog {
            self.queue.cancel(watchdog);
        }
        self.fr.dropped.push(DroppedJob {
            job: flight.job,
            outcome: Outcome::TimedOut,
            attempts: self.fr.attempts[flight.job.id as usize],
        });
        self.observer.emit(
            now,
            TraceEvent::JobTimedOut {
                job: flight.job.id,
                function: flight.job.function.name(),
                worker: w,
            },
        );
        self.with_metrics(|m, h| m.inc(h.jobs_timed_out));
        // The worker is reset exactly as after a normal job: the reboot
        // restores the clean state the next tenant needs.
        self.release_worker(w, now, true);
    }

    fn on_crash(&mut self, w: usize, now: SimTime) {
        if self.fr.dead[w] || matches!(self.nodes[w].state(), SbcState::Off | SbcState::Crashed) {
            // Nothing is running to crash; the planned fault fizzles.
            return;
        }
        self.fault_injected(now, w, FaultKind::Crash);
        if let Some(eid) = self.boot_pending[w].take() {
            self.queue.cancel(eid);
        }
        if let Some(eid) = self.gate_pending[w].take() {
            self.queue.cancel(eid);
        }
        if let Some(flight) = self.in_flight[w].take() {
            if let Some(pending) = flight.pending {
                self.queue.cancel(pending);
            }
            if let Some(timeout) = flight.timeout {
                self.queue.cancel(timeout);
            }
            if let Some(watchdog) = flight.watchdog {
                self.queue.cancel(watchdog);
            }
            self.requeue(flight.job, w, now);
        }
        self.nodes[w].crash(now).expect("node is powered");
        self.mark(now, w, WorkerState::Crashed, 0.0);
        self.queue
            .schedule(now + self.config.faults.detection_delay, Event::Recover(w));
        self.maybe_shed(now);
    }

    fn on_recover(&mut self, w: usize, now: SimTime) {
        if self.fr.dead[w] || self.nodes[w].state() != SbcState::Crashed {
            return;
        }
        self.nodes[w].recover(now).expect("node crashed");
        let watts = self.nodes[w].power().value();
        self.mark(now, w, WorkerState::Booting, watts);
        self.with_metrics(|m, h| m.inc(h.boots));
        self.boot_pending[w] = Some(
            self.queue
                .schedule(now + self.nodes[w].boot_duration(), Event::BootDone(w)),
        );
    }

    fn on_watchdog(&mut self, w: usize, now: SimTime) {
        let Some(flight) = self.in_flight[w].take() else {
            return;
        };
        if let Some(pending) = flight.pending {
            self.queue.cancel(pending);
        }
        if let Some(timeout) = flight.timeout {
            self.queue.cancel(timeout);
        }
        self.requeue(flight.job, w, now);
        self.release_worker(w, now, true);
    }

    fn on_retry(&mut self, job: Job, now: SimTime) {
        let Some(target) = (0..self.config.workers).find(|&w| !self.fr.dead[w]) else {
            self.drop_failed(job, now);
            return;
        };
        self.dispatcher.requeue_front(target, job);
        self.wake_if_needed(now);
    }

    /// Pulls a job back off a failed worker and schedules its retry (or
    /// declares it failed once the budget is spent).
    fn requeue(&mut self, job: Job, w: usize, now: SimTime) {
        self.fr.summary.requeued += 1;
        self.observer.emit(
            now,
            TraceEvent::JobRequeued {
                job: job.id,
                function: job.function.name(),
                worker: w,
            },
        );
        self.with_metrics(|m, h| m.inc(h.jobs_requeued));
        let attempt = self.fr.next_attempt(job);
        if attempt <= self.config.faults.retry.max_attempts {
            let delay = self
                .config
                .faults
                .retry
                .backoff(attempt, self.fr.injector.jitter01());
            self.fr.summary.retries += 1;
            self.observer.emit(
                now,
                TraceEvent::JobRetryScheduled {
                    job: job.id,
                    function: job.function.name(),
                    attempt,
                    delay,
                },
            );
            self.with_metrics(|m, h| m.inc(h.job_retries));
            self.queue.schedule(now + delay, Event::Retry(job));
        } else {
            let attempts = attempt - 1;
            self.observer.emit(
                now,
                TraceEvent::JobFailed {
                    job: job.id,
                    function: job.function.name(),
                    attempts,
                },
            );
            self.fr.dropped.push(DroppedJob {
                job,
                outcome: Outcome::Failed,
                attempts,
            });
            self.with_metrics(|m, h| m.inc(h.jobs_failed));
        }
    }

    /// If no live worker is on a path that ends in pulling the queue
    /// (booting, executing, or recovering), wake one up for the
    /// requeued/redistributed work.
    fn wake_if_needed(&mut self, now: SimTime) {
        let will_pull = (0..self.config.workers).any(|w| {
            !self.fr.dead[w]
                && matches!(
                    self.nodes[w].state(),
                    SbcState::Booting
                        | SbcState::Rebooting
                        | SbcState::Executing
                        | SbcState::Crashed
                )
        });
        if will_pull {
            return;
        }
        let Some(w) = (0..self.config.workers).find(|&w| !self.fr.dead[w]) else {
            return;
        };
        match self.nodes[w].state() {
            // A power-on already in the GPIO actuation window will pull
            // the queue when it lands; actuating again would leave a
            // stale PowerEffective firing into the middle of that boot.
            SbcState::Off if self.boot_pending[w].is_none() => {
                self.observer.emit(
                    now,
                    TraceEvent::WakeRequested {
                        worker: w,
                        reason: "requeue",
                    },
                );
                let effective = self.gpio.actuate(now, w, PowerAction::On);
                self.boot_pending[w] =
                    Some(self.queue.schedule(effective, Event::PowerEffective(w)));
            }
            // A parked (standby) node starts the next job directly.
            SbcState::Idle => self.start_next_job(w, now),
            _ => {}
        }
    }

    /// Moves a dead worker's statically assigned queue to the survivors
    /// round-robin; with nobody left, the jobs are failed outright.
    fn redistribute(&mut self, w: usize, now: SimTime) {
        let stranded = self.dispatcher.drain_worker(w);
        if stranded.is_empty() {
            return;
        }
        if self.fr.live_workers() == 0 {
            for job in stranded {
                self.drop_failed(job, now);
            }
            return;
        }
        let live: Vec<usize> = (0..self.config.workers)
            .filter(|&x| !self.fr.dead[x])
            .collect();
        for (i, job) in stranded.into_iter().enumerate() {
            self.dispatcher.enqueue_back(live[i % live.len()], job);
        }
        self.wake_if_needed(now);
    }

    /// Graceful degradation: when live capacity falls below the
    /// configured fraction, queued batch work is shed so the surviving
    /// workers serve interactive invocations first.
    fn maybe_shed(&mut self, now: SimTime) {
        let up = (0..self.config.workers)
            .filter(|&w| !self.fr.dead[w] && self.nodes[w].state() != SbcState::Crashed)
            .count();
        let floor = self.config.faults.shed_below_capacity * self.config.workers as f64;
        if (up as f64) >= floor {
            return;
        }
        let shed = self
            .dispatcher
            .shed_where(|job| priority_of(job.function) == Priority::Batch);
        for job in shed {
            self.observer.emit(
                now,
                TraceEvent::JobShed {
                    job: job.id,
                    function: job.function.name(),
                },
            );
            self.fr.dropped.push(DroppedJob {
                job,
                outcome: Outcome::Shed,
                attempts: self.fr.attempts[job.id as usize],
            });
            self.with_metrics(|m, h| m.inc(h.jobs_shed));
        }
    }

    /// Frees a worker whose invocation ended. `forced` resets (timeout,
    /// hang, lost result) always reboot to a clean state and never park,
    /// matching the pre-fault timeout semantics.
    fn release_worker(&mut self, w: usize, now: SimTime, forced: bool) {
        if !self.dispatcher.has_work(w) {
            // Queue drained: the governor picks the power regime. Forced
            // resets always gate (timeout semantics predate governors),
            // and the default RebootPerJob always answers PowerOff, so
            // the legacy paths below run unchanged.
            let action = if forced {
                DrainAction::PowerOff
            } else {
                // +1: this worker is still Executing but would join the
                // warm pool, and the contract counts it in.
                let warm_idle = self.warm_idle_count() + 1;
                self.governor.on_drain(now, warm_idle)
            };
            match action {
                DrainAction::PowerOff => {
                    // Power fully down (energy proportionality), or idle
                    // in standby if gating is disabled for the ablation.
                    self.nodes[w]
                        .finish_job_and_power_off(now)
                        .expect("job was executing");
                    if !forced && !self.config.power_gating {
                        // Model standby as the idle draw without the FSM
                        // round trip: the node is "parked".
                        self.meter.set_power(now, self.channels[w], 0.128);
                        self.observer.emit(
                            now,
                            TraceEvent::WorkerStateChange {
                                worker: w,
                                state: WorkerState::Idle,
                            },
                        );
                        self.observer.emit(
                            now,
                            TraceEvent::PowerSample {
                                worker: w,
                                watts: 0.128,
                            },
                        );
                    } else {
                        self.gpio.actuate(now, w, PowerAction::Off);
                        self.mark(now, w, WorkerState::Off, 0.0);
                    }
                }
                DrainAction::Standby { idle_timeout } => {
                    // Stay booted-idle at standby draw; the node can
                    // take a later requeue without paying the boot.
                    self.nodes[w]
                        .finish_job_and_standby(now)
                        .expect("job was executing");
                    self.mark(now, w, WorkerState::Idle, 0.128);
                    self.governor_transition(now, w, "standby");
                    if let Some(window) = idle_timeout {
                        self.gate_pending[w] =
                            Some(self.queue.schedule(now + window, Event::IdleGate(w)));
                    }
                }
            }
        } else {
            self.nodes[w]
                .finish_job_and_reboot(now)
                .expect("job was executing");
            let watts = self.nodes[w].power().value();
            self.mark(now, w, WorkerState::Rebooting, watts);
            let reboot = if forced
                || self
                    .governor
                    .reboot_between_jobs(self.config.reboot_between_jobs)
            {
                self.nodes[w].boot_duration()
            } else {
                SimDuration::ZERO
            };
            if self.sched_active {
                if reboot.is_zero() {
                    self.with_sched_metrics(|m, h| m.inc(h.warm_hits));
                } else {
                    self.with_sched_metrics(|m, h| m.inc(h.cold_boots));
                }
            }
            self.boot_pending[w] = Some(self.queue.schedule(now + reboot, Event::BootDone(w)));
        }
    }

    /// A standby worker's idle window elapsed: ask the governor whether
    /// it finally gates off. Stale gates (the worker crashed, died, or
    /// started a job that re-armed nothing) are dropped silently.
    fn on_idle_gate(&mut self, w: usize, now: SimTime) {
        self.gate_pending[w] = None;
        if self.fr.dead[w] || self.nodes[w].state() != SbcState::Idle {
            return;
        }
        if self.dispatcher.has_work(w) {
            // Work arrived while idle (a requeue that never woke us):
            // run it instead of gating.
            self.start_next_job(w, now);
            return;
        }
        if self
            .governor
            .gate_on_idle_expiry(now, self.warm_idle_count())
        {
            self.nodes[w].power_off(now).expect("node is idle");
            self.gpio.actuate(now, w, PowerAction::Off);
            self.mark(now, w, WorkerState::Off, 0.0);
            self.governor_transition(now, w, "gate-off");
        }
        // A `false` answer leaves the node idle with no further expiry
        // scheduled (see the Governor contract), keeping the loop finite.
    }

    /// Completes a pulled job from the orchestrator's result cache: the
    /// worker never sees it, so it costs zero boot/exec/energy. The job
    /// still gets a record and a completion event (with zero durations)
    /// so completions, traces, and per-function stats stay conserved.
    fn complete_from_cache(&mut self, job: Job, w: usize, key: u64, now: SimTime) {
        self.observer.emit(
            now,
            TraceEvent::CacheHit {
                job: job.id,
                function: job.function.name(),
                key,
            },
        );
        self.observer.emit(
            now,
            TraceEvent::JobCompleted {
                job: job.id,
                function: job.function.name(),
                worker: w,
                exec: SimDuration::ZERO,
                overhead: SimDuration::ZERO,
            },
        );
        self.with_metrics(|m, h| {
            m.inc(h.jobs_completed);
            m.observe(h.exec_seconds, 0.0);
            m.observe(h.overhead_seconds, 0.0);
        });
        self.records.push(JobRecord {
            job,
            worker: w,
            started: now,
            exec: SimDuration::ZERO,
            overhead: SimDuration::ZERO,
        });
        self.last_completion = now;
    }

    fn start_next_job(&mut self, w: usize, now: SimTime) {
        // A job start pre-empts any armed idle-gate window.
        if let Some(eid) = self.gate_pending[w].take() {
            self.queue.cancel(eid);
        }
        // Drain cache hits before committing the worker: each one
        // completes instantly at the orchestrator and the pull loop
        // moves on, so the worker only boots/executes for real misses.
        let next = loop {
            let Some(job) = self.dispatcher.pull(w) else {
                break None;
            };
            let key = content_key(job.function.index(), 0);
            let hit = match self.cache.as_mut() {
                Some(cache) => cache.lookup(key, now.as_micros()).is_some(),
                None => false,
            };
            if !hit {
                break Some(job);
            }
            self.complete_from_cache(job, w, key, now);
        };
        match next {
            Some(job) => {
                self.nodes[w].start_job(now).expect("node is idle");
                let watts = self.nodes[w].power().value();
                self.meter.set_power(now, self.channels[w], watts);
                self.observer.emit(
                    now,
                    TraceEvent::JobStarted {
                        job: job.id,
                        function: job.function.name(),
                        worker: w,
                    },
                );
                self.observer.emit(
                    now,
                    TraceEvent::WorkerStateChange {
                        worker: w,
                        state: WorkerState::Executing,
                    },
                );
                self.observer
                    .emit(now, TraceEvent::PowerSample { worker: w, watts });
                let st = service_time(job.function);
                let mut exec = st
                    .exec(WorkerPlatform::ArmSbc)
                    .mul_f64(self.config.jitter.factor(&mut self.rng));
                if self.config.crypto_exec_scale < 1.0 && is_crypto(job.function) {
                    exec = exec.mul_f64(self.config.crypto_exec_scale);
                }
                let (pending, watchdog) = if self.fr.injector.hangs(w) {
                    // The invocation wedges: no progress event, only the
                    // supervision deadline.
                    self.fault_injected(now, w, FaultKind::Hang);
                    let deadline = now + self.config.faults.hang_watchdog;
                    (
                        None,
                        Some(self.queue.schedule(deadline, Event::Watchdog(w))),
                    )
                } else {
                    (
                        Some(self.queue.schedule(now + exec, Event::ExecDone(w))),
                        None,
                    )
                };
                let timeout = self
                    .timeouts
                    .get(job.function)
                    .map(|limit| self.queue.schedule(now + limit, Event::TimedOut(w)));
                self.in_flight[w] = Some(InFlight {
                    job,
                    started: now,
                    exec,
                    pending,
                    timeout,
                    watchdog,
                    transfer_tries: 0,
                });
            }
            None => {
                // Booted with nothing to do (possible when the initial
                // random assignment left this worker a short queue): the
                // governor decides between gating off and staying warm.
                // The node is already Idle, so `warm_idle_count` counts
                // it, matching the on_drain contract.
                match self.governor.on_drain(now, self.warm_idle_count()) {
                    DrainAction::PowerOff => {
                        if self.config.power_gating {
                            self.nodes[w].power_off(now).expect("node is idle");
                            self.gpio.actuate(now, w, PowerAction::Off);
                            self.mark(now, w, WorkerState::Off, 0.0);
                        }
                    }
                    DrainAction::Standby { idle_timeout } => {
                        // Already idle at standby draw; just arm the
                        // governor's expiry window.
                        self.governor_transition(now, w, "standby");
                        if let Some(window) = idle_timeout {
                            self.gate_pending[w] =
                                Some(self.queue.schedule(now + window, Event::IdleGate(w)));
                        }
                    }
                }
            }
        }
    }
}

/// Publishes the headline `ClusterRun` aggregates as `{prefix}_*`
/// gauges, identical to the values the accessors return.
pub(crate) fn publish_run_gauges(metrics: &mut MetricsRegistry, prefix: &str, run: &ClusterRun) {
    let pairs = [
        ("makespan_seconds", run.makespan.as_secs_f64()),
        ("total_joules", run.energy.total_joules),
        ("average_watts", run.energy.average_watts),
        (
            "joules_per_function",
            run.joules_per_function().unwrap_or(0.0),
        ),
        ("functions_per_minute", run.functions_per_minute()),
    ];
    for (name, value) in pairs {
        let gauge = metrics.gauge(&format!("{prefix}_{name}"));
        metrics.set_gauge(gauge, value);
    }
}

/// Publishes a finished run's cache statistics as `{prefix}_cache_*`
/// counters. Callers gate on the cache being enabled so default
/// expositions stay byte-identical to pre-cache builds.
pub(crate) fn publish_cache_counters(
    metrics: &mut MetricsRegistry,
    prefix: &str,
    stats: &crate::cache::CacheStats,
) {
    let counters = [
        ("cache_hits_total", stats.hits),
        ("cache_misses_total", stats.misses),
        ("cache_coalesced_total", stats.coalesced),
        ("cache_insertions_total", stats.insertions),
        ("cache_evictions_total", stats.evictions),
        ("cache_expirations_total", stats.expirations),
    ];
    for (name, value) in counters {
        let counter = metrics.counter(&format!("{prefix}_{name}"));
        metrics.add(counter, value);
    }
}

fn is_crypto(function: FunctionId) -> bool {
    matches!(
        function,
        FunctionId::CascSha | FunctionId::CascMd5 | FunctionId::Aes128
    )
}

/// Average cluster power with exactly `active` of `total` workers busy —
/// the closed-form behind Fig. 5's SBC line.
pub fn sbc_cluster_power(total: usize, active: usize, power_gating: bool) -> f64 {
    assert!(
        active <= total,
        "cannot have more active workers than workers"
    );
    let idle_draw = if power_gating { 0.0 } else { 0.128 };
    active as f64 * 1.96 + (total - active) as f64 * idle_draw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::FunctionSpec;
    use microfaas_sim::faults::{FaultPlan, FaultSpec, FaultTrigger};

    fn quick_config(seed: u64) -> MicroFaasConfig {
        MicroFaasConfig::paper_prototype(WorkloadMix::quick(), seed)
    }

    #[test]
    fn completes_every_job_exactly_once() {
        let run = run_microfaas(&quick_config(1));
        assert_eq!(run.jobs_completed(), WorkloadMix::quick().total_jobs());
        let mut ids: Vec<u64> = run.records.iter().map(|r| r.job.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len() as u64, run.jobs_completed(), "no duplicates");
    }

    #[test]
    fn identical_seeds_are_bit_identical() {
        let a = run_microfaas(&quick_config(7));
        let b = run_microfaas(&quick_config(7));
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.energy.total_joules, b.energy.total_joules);
        assert_eq!(a.records.len(), b.records.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_microfaas(&quick_config(1));
        let b = run_microfaas(&quick_config(2));
        assert_ne!(a.makespan, b.makespan);
    }

    #[test]
    fn result_cache_serves_repeats_for_free() {
        let mut config = quick_config(9);
        config.cache = CacheConfig::parse("lru:64").expect("valid spec");
        let cached = run_microfaas(&config);
        let baseline = run_microfaas(&quick_config(9));
        // Conservation: the cache changes cost, never the job count.
        assert_eq!(cached.jobs_completed(), baseline.jobs_completed());
        assert!(
            cached.makespan < baseline.makespan,
            "hits must shorten the run: {:?} vs {:?}",
            cached.makespan,
            baseline.makespan
        );
        assert!(
            cached.energy.total_joules < baseline.energy.total_joules,
            "hits never boot or execute, so they must save energy"
        );
        // Payload-free closed loop: after each function's first real
        // execution its repeats are served from the cache. Workers that
        // race the same function before its first insert may duplicate
        // a real execution, so the bound is loose on that side only.
        let free = cached.records.iter().filter(|r| r.exec.is_zero()).count();
        let real = cached.records.len() - free;
        let functions = WorkloadMix::quick().functions().len();
        assert!(
            real >= functions,
            "every function pays at least one real execution (real {real})"
        );
        assert!(
            real <= 3 * functions,
            "the cache should absorb nearly every repeat (real {real})"
        );
    }

    #[test]
    fn cache_counters_appear_only_when_the_cache_runs() {
        let mut metrics = MetricsRegistry::new();
        run_microfaas_with(&quick_config(3), &mut Observer::metered(&mut metrics));
        assert!(
            !metrics.render_prometheus().contains("cache_"),
            "default exposition must stay cache-free"
        );

        let mut config = quick_config(3);
        config.cache = CacheConfig::parse("lru:64,ttl=300").expect("valid spec");
        let mut metrics = MetricsRegistry::new();
        run_microfaas_with(&config, &mut Observer::metered(&mut metrics));
        let text = metrics.render_prometheus();
        assert!(text.contains("micro_cache_hits_total"));
        assert!(text.contains("micro_cache_misses_total"));
        assert!(text.contains("micro_cache_insertions_total"));
    }

    #[test]
    fn throughput_near_paper_value() {
        let mut config = MicroFaasConfig::paper_prototype(WorkloadMix::quick(), 3);
        config.mix = WorkloadMix::new(FunctionId::ALL.to_vec(), 100).into();
        let run = run_microfaas(&config);
        let fpm = run.functions_per_minute();
        assert!(
            (fpm - 200.6).abs() < 8.0,
            "throughput {fpm:.1} f/min vs paper 200.6"
        );
    }

    #[test]
    fn energy_per_function_near_paper_value() {
        let mut config = MicroFaasConfig::paper_prototype(WorkloadMix::quick(), 4);
        config.mix = WorkloadMix::new(FunctionId::ALL.to_vec(), 100).into();
        let run = run_microfaas(&config);
        let jpf = run.joules_per_function().expect("jobs ran");
        assert!((jpf - 5.7).abs() < 0.6, "{jpf:.2} J/func vs paper 5.7");
    }

    #[test]
    fn gigabit_nic_speeds_up_cosget() {
        let mix = WorkloadMix::new(vec![FunctionId::CosGet], 40);
        let stock = run_microfaas(&MicroFaasConfig::paper_prototype(mix.clone(), 5));
        let mut upgraded_config = MicroFaasConfig::paper_prototype(mix, 5);
        upgraded_config.worker_nic_bits_per_sec = 1_000_000_000;
        let upgraded = run_microfaas(&upgraded_config);
        let stock_ovh = stock.per_function()[&FunctionId::CosGet].overhead_ms.mean();
        let upgraded_ovh = upgraded.per_function()[&FunctionId::CosGet]
            .overhead_ms
            .mean();
        assert!(
            upgraded_ovh < stock_ovh / 2.0,
            "GigE should halve COSGet overhead: {stock_ovh:.0} -> {upgraded_ovh:.0} ms"
        );
    }

    #[test]
    fn skipping_reboots_raises_throughput() {
        let mix = WorkloadMix::new(vec![FunctionId::RegexMatch], 200);
        let with = run_microfaas(&MicroFaasConfig::paper_prototype(mix.clone(), 6));
        let mut without_config = MicroFaasConfig::paper_prototype(mix, 6);
        without_config.reboot_between_jobs = false;
        let without = run_microfaas(&without_config);
        assert!(without.functions_per_minute() > with.functions_per_minute() * 1.5);
    }

    #[test]
    fn crypto_accelerator_speeds_up_cascsha() {
        let mix = WorkloadMix::new(vec![FunctionId::CascSha], 50);
        let stock = run_microfaas(&MicroFaasConfig::paper_prototype(mix.clone(), 8));
        let mut accel_config = MicroFaasConfig::paper_prototype(mix, 8);
        accel_config.crypto_exec_scale = 0.35;
        let accel = run_microfaas(&accel_config);
        let stock_exec = stock.per_function()[&FunctionId::CascSha].exec_ms.mean();
        let accel_exec = accel.per_function()[&FunctionId::CascSha].exec_ms.mean();
        assert!((accel_exec / stock_exec - 0.35).abs() < 0.02);
    }

    #[test]
    fn per_function_times_match_calibration() {
        let mut config =
            MicroFaasConfig::paper_prototype(WorkloadMix::new(FunctionId::ALL.to_vec(), 60), 9);
        config.jitter = Jitter::none();
        let run = run_microfaas(&config);
        for (function, stats) in run.per_function() {
            let expected = service_time(function)
                .exec(WorkerPlatform::ArmSbc)
                .as_millis_f64();
            let measured = stats.exec_ms.mean();
            assert!(
                (measured - expected).abs() < 1.0,
                "{function}: exec {measured:.1} vs calibrated {expected:.1}"
            );
            let expected_ovh = service_time(function)
                .overhead(WorkerPlatform::ArmSbc)
                .as_millis_f64();
            let measured_ovh = stats.overhead_ms.mean();
            assert!(
                (measured_ovh - expected_ovh).abs() < expected_ovh * 0.15 + 3.0,
                "{function}: overhead {measured_ovh:.1} vs calibrated {expected_ovh:.1}"
            );
        }
    }

    #[test]
    fn invocation_timeout_kills_long_jobs() {
        // MatMul runs ~4.7 s on the SBC; a 2 s platform timeout kills
        // every MatMul but leaves RegexMatch (~0.5 s) untouched.
        let mix = WorkloadMix::new(vec![FunctionId::MatMul, FunctionId::RegexMatch], 30);
        let mut config = MicroFaasConfig::paper_prototype(mix, 11);
        config.invocation_timeout = Some(SimDuration::from_secs(2));
        let run = run_microfaas(&config);
        assert_eq!(run.timed_out(), 30, "every MatMul must be killed");
        assert_eq!(run.jobs_completed(), 30, "every RegexMatch must finish");
        assert_eq!(run.jobs_accounted(), 60);
        assert!(
            run.per_function()
                .keys()
                .all(|&f| f == FunctionId::RegexMatch),
            "only RegexMatch completions should be recorded"
        );
    }

    #[test]
    fn registry_timeout_is_enforced_per_function() {
        // Same kill switch, but deployed on the function itself instead
        // of platform-wide: only MatMul carries the 2 s deadline.
        let mix = WorkloadMix::new(vec![FunctionId::MatMul, FunctionId::RegexMatch], 30);
        let mut config = MicroFaasConfig::paper_prototype(mix, 11);
        config
            .registry
            .redeploy_with_timeout(FunctionId::MatMul, SimDuration::from_secs(2));
        let run = run_microfaas(&config);
        assert_eq!(run.timed_out(), 30, "every MatMul must be killed");
        assert_eq!(run.jobs_completed(), 30, "every RegexMatch must finish");
    }

    #[test]
    fn the_tighter_of_platform_and_registry_timeout_wins() {
        // Each order of the two limits must behave exactly like the 2 s
        // limit alone: every MatMul (~4.7 s) killed at 2 s.
        let mix = WorkloadMix::new(vec![FunctionId::MatMul, FunctionId::RegexMatch], 30);
        let mut tight_only = MicroFaasConfig::paper_prototype(mix.clone(), 11);
        tight_only.invocation_timeout = Some(SimDuration::from_secs(2));
        let want = run_microfaas(&tight_only);
        assert_eq!(want.timed_out(), 30);
        for (platform, per_function) in [(2, 10), (10, 2)] {
            let mut config = MicroFaasConfig::paper_prototype(mix.clone(), 11);
            config.invocation_timeout = Some(SimDuration::from_secs(platform));
            config
                .registry
                .redeploy_with_timeout(FunctionId::MatMul, SimDuration::from_secs(per_function));
            let run = run_microfaas(&config);
            assert_eq!(
                run.timed_out(),
                30,
                "platform {platform} s, MatMul {per_function} s"
            );
            assert_eq!(run.jobs_completed(), 30);
            assert_eq!(run.makespan, want.makespan);
        }
    }

    #[test]
    fn a_timeout_deployed_under_another_name_is_not_applied() {
        // The engines look timeouts up by the handler's paper name, so
        // a Decompress deployment named "thumbnailer" limits nothing.
        let mix = WorkloadMix::new(vec![FunctionId::Decompress], 20);
        let plain = run_microfaas(&MicroFaasConfig::paper_prototype(mix.clone(), 14));
        let mut config = MicroFaasConfig::paper_prototype(mix, 14);
        config
            .registry
            .deploy(
                "thumbnailer",
                FunctionSpec {
                    handler: FunctionId::Decompress,
                    memory_mb: 128,
                    timeout: Some(SimDuration::from_millis(1)),
                },
            )
            .expect("a new name");
        let run = run_microfaas(&config);
        assert_eq!(run.timed_out(), 0);
        assert_eq!(run.jobs_completed(), 20);
        assert_eq!(run.makespan, plain.makespan);
    }

    #[test]
    fn timeout_cuts_worst_case_occupancy() {
        // With a timeout, the worker is freed at the limit instead of
        // serving the full 4.7 s MatMul: total makespan shrinks.
        let mix = WorkloadMix::new(vec![FunctionId::MatMul], 40);
        let unlimited = run_microfaas(&MicroFaasConfig::paper_prototype(mix.clone(), 12));
        let mut config = MicroFaasConfig::paper_prototype(mix, 12);
        config.invocation_timeout = Some(SimDuration::from_secs(1));
        let limited = run_microfaas(&config);
        assert_eq!(limited.timed_out(), 40);
        assert!(limited.makespan < unlimited.makespan);
    }

    #[test]
    fn no_timeout_means_no_kills() {
        let run = run_microfaas(&quick_config(13));
        assert_eq!(run.timed_out(), 0);
        assert!(run.dropped.is_empty());
        assert_eq!(run.faults, Default::default());
    }

    #[test]
    fn sbc_hosted_service_bottlenecks_at_scale() {
        // With the object store on a 100 Mb/s SBC, adding workers stops
        // helping a COSGet-heavy workload: the service's TX port is the
        // shared bottleneck (the Gand et al. effect).
        let mix = WorkloadMix::new(vec![FunctionId::CosGet], 120);
        let run_with_workers = |workers: usize| {
            let mut config = MicroFaasConfig::paper_prototype(mix.clone(), 7);
            config.workers = workers;
            config.service_nic_bits_per_sec = 100_000_000;
            run_microfaas(&config).functions_per_minute()
        };
        let five = run_with_workers(5);
        let twenty = run_with_workers(20);
        // A 4x worker increase buys far less than 4x throughput.
        assert!(
            twenty < five * 2.0,
            "service bottleneck should cap scaling: 5 workers {five:.1}, 20 workers {twenty:.1}"
        );
        // With GigE services the same scaling is far better.
        let run_gige = |workers: usize| {
            let mut config = MicroFaasConfig::paper_prototype(mix.clone(), 7);
            config.workers = workers;
            run_microfaas(&config).functions_per_minute()
        };
        let ratio_gige = run_gige(20) / run_gige(5);
        assert!(
            ratio_gige > 3.0,
            "GigE services scale ~linearly, got {ratio_gige:.2}x"
        );
    }

    #[test]
    fn crashed_worker_recovers_and_the_job_is_retried() {
        // MatMul keeps every worker executing from ~1.5 s to ~6.2 s, so
        // a crash at t=5 s lands mid-invocation: the job is requeued,
        // retried elsewhere, and nothing is lost.
        let mix = WorkloadMix::new(vec![FunctionId::MatMul], 40);
        let mut config = MicroFaasConfig::paper_prototype(mix, 21);
        config.faults = FaultsConfig::with_plan(FaultPlan {
            seed: 9,
            faults: vec![FaultSpec {
                kind: FaultKind::Crash,
                worker: Some(3),
                trigger: FaultTrigger::At(SimTime::from_secs(5)),
            }],
        });
        let run = run_microfaas(&config);
        assert_eq!(run.faults.injected, 1);
        assert_eq!(run.faults.requeued, 1);
        assert_eq!(run.faults.retries, 1);
        assert_eq!(run.jobs_completed(), 40, "the retry must recover the job");
        assert_eq!(run.jobs_accounted(), 40);
    }

    #[test]
    fn faulted_runs_are_deterministic_too() {
        let mix = WorkloadMix::new(vec![FunctionId::MatMul, FunctionId::RedisInsert], 30);
        let plan = FaultPlan {
            seed: 5,
            faults: vec![
                FaultSpec {
                    kind: FaultKind::Crash,
                    worker: Some(2),
                    trigger: FaultTrigger::At(SimTime::from_secs(4)),
                },
                FaultSpec {
                    kind: FaultKind::BootFailure,
                    worker: None,
                    trigger: FaultTrigger::Probability(0.2),
                },
                FaultSpec {
                    kind: FaultKind::NetLoss,
                    worker: None,
                    trigger: FaultTrigger::Probability(0.1),
                },
            ],
        };
        let mut config = MicroFaasConfig::paper_prototype(mix, 22);
        config.faults = FaultsConfig::with_plan(plan);
        let a = run_microfaas(&config);
        let b = run_microfaas(&config);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.energy.total_joules, b.energy.total_joules);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.dropped, b.dropped);
    }

    #[test]
    fn losing_most_workers_sheds_batch_work() {
        // Crashing 6 of 10 workers drops live capacity to 4 < 5 (the
        // 0.5 floor): queued CPU-bound work is shed, interactive
        // store/queue calls keep their place.
        let mix = WorkloadMix::new(vec![FunctionId::MatMul, FunctionId::RedisInsert], 100);
        let mut config = MicroFaasConfig::paper_prototype(mix, 23);
        let faults = (0..6)
            .map(|w| FaultSpec {
                kind: FaultKind::Crash,
                worker: Some(w),
                trigger: FaultTrigger::At(SimTime::from_secs(3)),
            })
            .collect();
        config.faults = FaultsConfig::with_plan(FaultPlan { seed: 1, faults });
        let run = run_microfaas(&config);
        assert!(run.shed() > 0, "batch jobs must be shed");
        assert!(run
            .dropped
            .iter()
            .filter(|d| d.outcome == Outcome::Shed)
            .all(|d| priority_of(d.job.function) == Priority::Batch));
        assert_eq!(run.jobs_accounted(), 200);
    }

    #[test]
    fn permanent_boot_failure_kills_the_cluster_but_accounts_every_job() {
        // With boot failure certain, no worker ever comes up: after the
        // retry budget each node is declared dead and every submitted
        // job lands in `dropped`.
        let mix = WorkloadMix::new(vec![FunctionId::RegexMatch], 30);
        let mut config = MicroFaasConfig::paper_prototype(mix, 24);
        config.faults = FaultsConfig::with_plan(FaultPlan {
            seed: 2,
            faults: vec![FaultSpec {
                kind: FaultKind::BootFailure,
                worker: None,
                trigger: FaultTrigger::Probability(1.0),
            }],
        });
        let run = run_microfaas(&config);
        assert_eq!(run.jobs_completed(), 0);
        assert_eq!(
            run.jobs_accounted(),
            30,
            "every job reaches a terminal state"
        );
        assert!(run.faults.injected >= 4 * 10, "4 failed boots per worker");
    }

    #[test]
    fn certain_hangs_exhaust_the_retry_budget() {
        let mix = WorkloadMix::new(vec![FunctionId::RegexMatch], 2);
        let mut config = MicroFaasConfig::paper_prototype(mix, 25);
        config.workers = 1;
        config.faults = FaultsConfig::with_plan(FaultPlan {
            seed: 3,
            faults: vec![FaultSpec {
                kind: FaultKind::Hang,
                worker: None,
                trigger: FaultTrigger::Probability(1.0),
            }],
        });
        let run = run_microfaas(&config);
        assert_eq!(run.jobs_completed(), 0);
        assert_eq!(run.failed(), 2);
        assert_eq!(run.jobs_accounted(), 2);
        // Initial attempt + 3 retries per job, each hanging once.
        assert_eq!(run.faults.injected, 8);
        assert_eq!(run.faults.retries, 6);
        assert!(run.dropped.iter().all(|d| d.attempts == 3));
    }

    #[test]
    fn certain_net_loss_fails_jobs_after_retransmits() {
        let mix = WorkloadMix::new(vec![FunctionId::RedisInsert], 3);
        let mut config = MicroFaasConfig::paper_prototype(mix, 26);
        config.workers = 2;
        config.faults = FaultsConfig::with_plan(FaultPlan {
            seed: 4,
            faults: vec![FaultSpec {
                kind: FaultKind::NetLoss,
                worker: None,
                trigger: FaultTrigger::Probability(1.0),
            }],
        });
        let run = run_microfaas(&config);
        assert_eq!(run.jobs_completed(), 0, "no result ever arrives");
        assert_eq!(run.failed(), 3);
        assert_eq!(run.jobs_accounted(), 3);
        assert!(run.faults.injected > 0);
    }

    #[test]
    fn cluster_power_formula_is_linear() {
        assert_eq!(sbc_cluster_power(10, 0, true), 0.0);
        assert_eq!(sbc_cluster_power(10, 5, true), 9.8);
        assert_eq!(sbc_cluster_power(10, 10, true), 19.6);
        let with_standby = sbc_cluster_power(10, 5, false);
        assert!((with_standby - (9.8 + 5.0 * 0.128)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let mut config = quick_config(0);
        config.workers = 0;
        run_microfaas(&config);
    }
}
