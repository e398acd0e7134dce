//! The conventional (virtualization-based) cluster simulator: QEMU
//! microVMs on one rack server, with CPU contention and the host's idle
//! power floor.
//!
//! Fault injection mirrors the MicroFaaS cluster with VM semantics: a
//! crashed VM is respawned (with a cold-boot penalty) instead of
//! power-cycled, and its CPU share rebalances onto the survivors while
//! it is down. See `docs/FAILURE_MODEL.md`.

use std::sync::Arc;

use microfaas_energy::{ChannelId, EnergyMeter};
use microfaas_hw::server::{RackServer, VmState};
use microfaas_net::LinkSpec;
use microfaas_sched::{governor, GovernorKind};
use microfaas_sim::faults::FaultKind;
use microfaas_sim::trace::{Observer, TraceEvent, WorkerState};
use microfaas_sim::{
    CounterId, EventId, EventQueue, HistogramId, MetricsRegistry, Rng, SimDuration, SimTime,
};
use microfaas_workloads::calibration::{service_time, WorkerPlatform};

use crate::cache::{content_key, CacheConfig, ResultCache};
use crate::config::{Assignment, Jitter, WorkloadMix};
use crate::job::{Dispatcher, Job, JobRecord, JobTable};
use crate::micro::{
    publish_cache_counters, publish_run_gauges, SchedMetrics, EXEC_BUCKETS, OVERHEAD_BUCKETS,
};
use crate::netmap::ClusterNet;
use crate::recovery::{priority_of, FaultRuntime, FaultsConfig, Priority};
use crate::registry::{FunctionRegistry, TimeoutTable};
use crate::report::{ClusterRun, DroppedJob, Outcome};

/// Extra stretch on a respawned VM's boot: the image is re-fetched and
/// the guest cold-starts instead of warm-rebooting.
const RESPAWN_BOOT_PENALTY: f64 = 2.0;

/// Configuration of a conventional cluster run.
#[derive(Debug, Clone)]
pub struct ConventionalConfig {
    /// Number of microVMs on the rack server (the paper uses 6 for
    /// throughput parity with 10 SBCs, and sweeps 1–20 for Fig. 4).
    pub vms: usize,
    /// Workload to run. Shared behind an [`Arc`] so sweeps and
    /// replicates clone configs without copying the function list.
    pub mix: Arc<WorkloadMix>,
    /// RNG seed.
    pub seed: u64,
    /// Run-to-run service-time variation.
    pub jitter: Jitter,
    /// Reboot the worker OS between jobs (kept symmetric with the
    /// MicroFaaS policy; both clusters run the same worker OS).
    pub reboot_between_jobs: bool,
    /// How the orchestration plane maps jobs to VMs.
    pub assignment: Assignment,
    /// Between-jobs power policy. VMs have no per-node gating to govern
    /// (the rack host's idle floor draws regardless), so only the
    /// [`microfaas_sched::Governor::reboot_between_jobs`] decision
    /// applies here: any governor other than the default
    /// [`GovernorKind::RebootPerJob`] skips the between-jobs reboot.
    pub governor: GovernorKind,
    /// Kill invocations that run longer than this (platform-wide
    /// limit). Combined with any per-function timeout from
    /// [`ConventionalConfig::registry`]; the tighter limit wins.
    pub invocation_timeout: Option<SimDuration>,
    /// Deployed-function metadata; per-function timeouts are enforced.
    pub registry: FunctionRegistry,
    /// Fault plan and recovery policies ([`FaultsConfig::none`] keeps
    /// the run fault-free and bit-identical to earlier builds).
    pub faults: FaultsConfig,
    /// Content-addressed result cache on the orchestration plane (see
    /// [`crate::micro::MicroFaasConfig::cache`]; identical semantics so
    /// the SBC-vs-VM comparison stays apples-to-apples).
    /// [`CacheConfig::Off`] (the default) keeps runs bit-identical to
    /// pre-cache builds.
    pub cache: CacheConfig,
}

impl ConventionalConfig {
    /// The paper's throughput-matched baseline: six microVMs. Accepts
    /// the mix owned or pre-shared (`Arc<WorkloadMix>` — both convert),
    /// so sweeps build it once and share it across points.
    pub fn paper_baseline(mix: impl Into<Arc<WorkloadMix>>, seed: u64) -> Self {
        ConventionalConfig {
            vms: 6,
            mix: mix.into(),
            seed,
            jitter: Jitter::default_run_to_run(),
            reboot_between_jobs: true,
            assignment: Assignment::WorkConserving,
            governor: GovernorKind::RebootPerJob,
            invocation_timeout: None,
            registry: FunctionRegistry::paper_suite(),
            faults: FaultsConfig::none(),
            cache: CacheConfig::Off,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Function body finished; the result/overhead phase begins.
    ExecDone(usize),
    /// Result delivered; the job is complete.
    JobDone(usize),
    /// The between-jobs (or respawn) reboot finished.
    RebootDone(usize),
    /// An invocation exceeded its timeout and is killed.
    TimedOut(usize),
    /// An injected crash takes the VM down.
    Crash(usize),
    /// The orchestrator's heartbeat noticed the crash; a fresh VM is
    /// spawned in the dead one's slot.
    Respawn(usize),
    /// Supervision deadline for a hung or transfer-starved invocation.
    Watchdog(usize),
    /// The sender retries a result transfer the network lost.
    Retransmit(usize),
    /// Backoff elapsed; the orchestrator requeues the invocation.
    Retry(Job),
}

struct InFlight {
    job: Job,
    started: SimTime,
    exec: SimDuration,
    /// Next progress event; `None` while the invocation hangs or has
    /// exhausted its retransmit budget.
    pending: Option<EventId>,
    timeout: Option<EventId>,
    watchdog: Option<EventId>,
    transfer_tries: u32,
}

/// Per-run metric handles for this cluster, all prefixed `conv_`.
struct ConvMetrics {
    jobs_enqueued: CounterId,
    jobs_completed: CounterId,
    jobs_timed_out: CounterId,
    reboots: CounterId,
    net_bytes: CounterId,
    faults_injected: CounterId,
    jobs_requeued: CounterId,
    job_retries: CounterId,
    jobs_shed: CounterId,
    jobs_failed: CounterId,
    exec_seconds: HistogramId,
    overhead_seconds: HistogramId,
}

impl ConvMetrics {
    fn register(metrics: &mut MetricsRegistry) -> Self {
        ConvMetrics {
            jobs_enqueued: metrics.counter("conv_jobs_enqueued_total"),
            jobs_completed: metrics.counter("conv_jobs_completed_total"),
            jobs_timed_out: metrics.counter("conv_jobs_timed_out_total"),
            reboots: metrics.counter("conv_vm_reboots_total"),
            net_bytes: metrics.counter("conv_net_bytes_total"),
            faults_injected: metrics.counter("conv_faults_injected_total"),
            jobs_requeued: metrics.counter("conv_jobs_requeued_total"),
            job_retries: metrics.counter("conv_job_retries_total"),
            jobs_shed: metrics.counter("conv_jobs_shed_total"),
            jobs_failed: metrics.counter("conv_jobs_failed_total"),
            exec_seconds: metrics.histogram("conv_exec_seconds", &EXEC_BUCKETS),
            overhead_seconds: metrics.histogram("conv_overhead_seconds", &OVERHEAD_BUCKETS),
        }
    }
}

/// Runs the conventional cluster to completion.
///
/// CPU contention is sampled at dispatch: a job's execution and reboot
/// are stretched by the host slowdown factor in effect when it starts.
/// Under the saturated workloads used for every experiment the busy-VM
/// count is effectively constant, so the approximation is tight.
///
/// # Panics
///
/// Panics if `vms` is zero.
///
/// # Examples
///
/// ```
/// use microfaas::config::WorkloadMix;
/// use microfaas::conventional::{run_conventional, ConventionalConfig};
/// use microfaas_workloads::FunctionId;
///
/// let mix = WorkloadMix::new(vec![FunctionId::RegexMatch], 20);
/// let run = run_conventional(&ConventionalConfig::paper_baseline(mix, 42));
/// assert_eq!(run.jobs_completed(), 20);
/// ```
pub fn run_conventional(config: &ConventionalConfig) -> ClusterRun {
    run_conventional_with(config, &mut Observer::disabled())
}

/// Runs the conventional cluster while reporting trace events and
/// `conv_*` metrics into `observer`. [`run_conventional`] is this entry
/// point with [`Observer::disabled`]; results are bit-identical either
/// way.
///
/// The host's shared power channel is traced as worker `0` in
/// [`TraceEvent::PowerSample`] events.
///
/// # Examples
///
/// ```
/// use microfaas::config::WorkloadMix;
/// use microfaas::conventional::{run_conventional_with, ConventionalConfig};
/// use microfaas_sim::trace::{Observer, TraceBuffer};
/// use microfaas_sim::MetricsRegistry;
/// use microfaas_workloads::FunctionId;
///
/// let mix = WorkloadMix::new(vec![FunctionId::RegexMatch], 5);
/// let config = ConventionalConfig::paper_baseline(mix, 42);
/// let mut trace = TraceBuffer::new(4096);
/// let mut metrics = MetricsRegistry::new();
/// let run = run_conventional_with(&config, &mut Observer::full(&mut trace, &mut metrics));
/// assert_eq!(run.jobs_completed(), 5);
/// assert!(metrics.render_prometheus().contains("conv_jobs_completed_total 5"));
/// assert!(!trace.is_empty());
/// ```
pub fn run_conventional_with(
    config: &ConventionalConfig,
    observer: &mut Observer<'_>,
) -> ClusterRun {
    assert!(config.vms > 0, "cluster needs at least one VM");
    config.cache.try_validate().expect("invalid cache config");
    ConvSim::new(config, observer).run()
}

/// All mutable state of one conventional-cluster run.
struct ConvSim<'a, 'b> {
    config: &'a ConventionalConfig,
    observer: &'a mut Observer<'b>,
    rng: Rng,
    queue: EventQueue<Event>,
    meter: EnergyMeter,
    server: RackServer,
    cnet: ClusterNet,
    host_channel: ChannelId,
    dispatcher: Dispatcher,
    in_flight: Vec<Option<InFlight>>,
    /// The pending RebootDone per VM, cancelled if a crash interrupts
    /// the reboot window.
    boot_pending: Vec<Option<EventId>>,
    records: JobTable,
    last_completion: SimTime,
    fr: FaultRuntime,
    handles: Option<ConvMetrics>,
    /// The governor's between-jobs reboot decision, resolved once at
    /// construction (it is time-invariant for every governor).
    reboot_between: bool,
    /// Whether a non-default scheduling policy is active; new telemetry
    /// is gated on this so default runs stay byte-identical.
    sched_active: bool,
    sched_handles: Option<SchedMetrics>,
    /// The orchestrator's result cache; `None` when
    /// [`ConventionalConfig::cache`] is off.
    cache: Option<ResultCache<()>>,
    /// Each function's kill deadline, resolved once from
    /// [`ConventionalConfig::invocation_timeout`] and the registry.
    timeouts: TimeoutTable,
}

impl<'a, 'b> ConvSim<'a, 'b> {
    fn new(config: &'a ConventionalConfig, observer: &'a mut Observer<'b>) -> Self {
        let mut rng = Rng::new(config.seed);
        let mut meter = EnergyMeter::new(SimTime::ZERO);
        let server = RackServer::new(config.vms, SimTime::ZERO);

        // All VM traffic leaves through the host's bridged GigE NIC;
        // each VM is modeled as a GigE attachment (the virtio/bridge
        // latency cost is in the calibrated fixed overhead).
        let cnet = ClusterNet::new("vm-", config.vms, LinkSpec::gigabit(), LinkSpec::gigabit());

        let host_channel = meter.add_channel("rack-server");
        meter.set_power(SimTime::ZERO, host_channel, server.power().value());
        observer.emit(
            SimTime::ZERO,
            TraceEvent::PowerSample {
                worker: 0,
                watts: server.power().value(),
            },
        );

        let jobs = config.mix.jobs(&mut rng);
        let handles = observer.metrics().map(ConvMetrics::register);
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
        let fr = FaultRuntime::new(&config.faults.plan, config.vms, jobs.len());
        // LeastLoaded balances expected x86 execution seconds.
        let dispatcher =
            Dispatcher::with_weights(config.assignment, config.vms, jobs, &mut rng, |function| {
                service_time(function)
                    .exec(WorkerPlatform::X86Vm)
                    .as_secs_f64()
            });

        // Observation only (no RNG, no events): legacy defaults keep
        // traces and expositions byte-identical.
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
                .map(|(v, job)| (v, job.id))
                .collect();
            if observer.is_tracing() {
                for &(v, id) in &placed {
                    observer.emit(
                        SimTime::ZERO,
                        TraceEvent::PlacementDecision {
                            job: id,
                            worker: v,
                            policy: config.assignment.label(),
                        },
                    );
                }
            }
            if let (Some(metrics), Some(h)) = (observer.metrics(), sched_handles.as_ref()) {
                metrics.add(h.placements, placed.len() as u64);
            }
        }
        let reboot_between =
            governor(config.governor).reboot_between_jobs(config.reboot_between_jobs);

        ConvSim {
            config,
            observer,
            rng,
            // Sized like the MicroFaaS queue: a few live events per VM
            // plus timers and planned crashes, reserved up front.
            queue: EventQueue::with_capacity(4 * config.vms + 16),
            meter,
            server,
            cnet,
            host_channel,
            dispatcher,
            in_flight: (0..config.vms).map(|_| None).collect(),
            boot_pending: vec![None; config.vms],
            records: JobTable::with_capacity(config.mix.total_jobs() as usize),
            last_completion: SimTime::ZERO,
            fr,
            handles,
            reboot_between,
            sched_active,
            sched_handles,
            cache: ResultCache::from_config(&config.cache),
            timeouts: config.registry.timeouts(config.invocation_timeout),
        }
    }

    fn run(mut self) -> ClusterRun {
        // Crashes aimed past the fleet (a plan written for a larger
        // cluster) are no-ops.
        for (at, v) in self.fr.injector.scheduled_crashes().to_vec() {
            if v < self.config.vms {
                self.queue.schedule(at, Event::Crash(v));
            }
        }

        // Dispatch the first job on every VM at t=0.
        for v in 0..self.config.vms {
            self.dispatch(v, SimTime::ZERO);
        }

        while let Some((now, event)) = self.queue.pop() {
            match event {
                Event::ExecDone(v) => self.on_exec_done(v, now),
                Event::JobDone(v) => self.on_job_done(v, now),
                Event::RebootDone(v) => self.on_reboot_done(v, now),
                Event::TimedOut(v) => self.on_timed_out(v, now),
                Event::Crash(v) => self.on_crash(v, now),
                Event::Respawn(v) => self.on_respawn(v, now),
                Event::Watchdog(v) => self.on_watchdog(v, now),
                Event::Retransmit(v) => self.on_retransmit(v, now),
                Event::Retry(job) => self.on_retry(job, now),
            }
        }

        // Account jobs stranded by a fully-dead fleet (mirrors micro.rs).
        let at_end = self.queue.now();
        for v in 0..self.config.vms {
            while let Some(job) = self.dispatcher.pull(v) {
                self.drop_failed(job, at_end);
            }
            if let Some(flight) = self.in_flight[v].take() {
                self.drop_failed(flight.job, at_end);
            }
        }

        // Trailing reboot events may land after the last completion;
        // meter reads must not precede the meter's newest sample.
        let end = self.queue.now().max(self.last_completion);
        let energy = self.meter.report(end, self.records.len() as u64);
        let run = ClusterRun {
            label: format!("Conventional ({} VMs)", self.config.vms),
            workers: self.config.vms,
            energy,
            makespan: self.last_completion.duration_since(SimTime::ZERO),
            records: std::mem::take(&mut self.records),
            dropped: std::mem::take(&mut self.fr.dropped),
            faults: self.fr.summary,
        };
        let cache_stats = self.cache.as_ref().map(|c| c.stats());
        if let Some(metrics) = self.observer.metrics() {
            self.meter.publish_metrics(metrics, "conv", end);
            publish_run_gauges(metrics, "conv", &run);
            // Cache counters only exist when a cache ran: the default
            // exposition must stay byte-identical to pre-cache builds.
            if let Some(stats) = cache_stats.as_ref() {
                publish_cache_counters(metrics, "conv", stats);
            }
        }
        run
    }

    /// Re-meters the host channel and emits the state-change (for VM
    /// `v`) plus the shared power-sample pair.
    fn mark(&mut self, now: SimTime, v: usize, state: WorkerState) {
        let watts = self.server.power().value();
        self.meter.set_power(now, self.host_channel, watts);
        self.observer
            .emit(now, TraceEvent::WorkerStateChange { worker: v, state });
        self.observer
            .emit(now, TraceEvent::PowerSample { worker: 0, watts });
    }

    fn with_metrics(&mut self, apply: impl FnOnce(&mut MetricsRegistry, &ConvMetrics)) {
        if let (Some(metrics), Some(h)) = (self.observer.metrics(), self.handles.as_ref()) {
            apply(metrics, h);
        }
    }

    fn fault_injected(&mut self, now: SimTime, v: usize, kind: FaultKind) {
        self.fr.summary.injected += 1;
        self.observer.emit(
            now,
            TraceEvent::FaultInjected {
                worker: v,
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

    fn on_exec_done(&mut self, v: usize, now: SimTime) {
        let job = self.in_flight[v].as_ref().expect("job in flight").job;
        let fixed = service_time(job.function)
            .fixed_overhead(WorkerPlatform::X86Vm)
            .mul_f64(self.config.jitter.factor(&mut self.rng));
        self.attempt_transfer(v, now + fixed);
    }

    fn attempt_transfer(&mut self, v: usize, start: SimTime) {
        let job = self.in_flight[v].as_ref().expect("job in flight").job;
        let bytes = service_time(job.function).transfer_bytes();
        let lost = self.fr.injector.transfer_lost(v);
        if lost {
            self.fault_injected(start, v, FaultKind::NetLoss);
        }
        // Response leaves the VM as the transfer starts; retransmits
        // re-emit and span derivation keeps the first copy.
        self.observer.emit(
            start,
            TraceEvent::ResponseSent {
                job: job.id,
                function: job.function.name(),
                worker: v,
            },
        );
        let (delivered, src, dst) = self.cnet.transfer(start, v, job.function, bytes, lost);
        self.observer
            .emit(start, TraceEvent::NetTransfer { src, dst, bytes });
        self.with_metrics(|m, h| m.add(h.net_bytes, bytes));
        if !lost {
            let pending = self.queue.schedule(delivered, Event::JobDone(v));
            self.in_flight[v].as_mut().expect("job in flight").pending = Some(pending);
            return;
        }
        let tries = {
            let flight = self.in_flight[v].as_mut().expect("job in flight");
            flight.transfer_tries += 1;
            flight.transfer_tries
        };
        if tries <= self.config.faults.retry.max_attempts {
            let eid = self.queue.schedule(
                delivered + self.config.faults.retransmit_delay,
                Event::Retransmit(v),
            );
            self.in_flight[v].as_mut().expect("job in flight").pending = Some(eid);
        } else {
            // Retransmit budget exhausted: hand the invocation to the
            // watchdog once the last doomed transfer has burned its
            // wire time.
            let eid = self.queue.schedule(delivered, Event::Watchdog(v));
            let flight = self.in_flight[v].as_mut().expect("job in flight");
            flight.pending = None;
            flight.watchdog = Some(eid);
        }
    }

    fn on_retransmit(&mut self, v: usize, now: SimTime) {
        self.attempt_transfer(v, now);
    }

    fn on_job_done(&mut self, v: usize, now: SimTime) {
        let flight = self.in_flight[v].take().expect("job in flight");
        if let Some(timeout) = flight.timeout {
            self.queue.cancel(timeout);
        }
        let overhead = now.duration_since(flight.started + flight.exec);
        self.observer.emit(
            now,
            TraceEvent::JobCompleted {
                job: flight.job.id,
                function: flight.job.function.name(),
                worker: v,
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
            worker: v,
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
        self.reboot_vm(v, now, false);
    }

    fn on_timed_out(&mut self, v: usize, now: SimTime) {
        let flight = self.in_flight[v].take().expect("job in flight");
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
                worker: v,
            },
        );
        self.with_metrics(|m, h| m.inc(h.jobs_timed_out));
        self.reboot_vm(v, now, true);
    }

    fn on_crash(&mut self, v: usize, now: SimTime) {
        if self.fr.dead[v] || self.server.vm(v).state() == VmState::Crashed {
            return;
        }
        self.fault_injected(now, v, FaultKind::Crash);
        if let Some(eid) = self.boot_pending[v].take() {
            self.queue.cancel(eid);
        }
        if let Some(flight) = self.in_flight[v].take() {
            if let Some(pending) = flight.pending {
                self.queue.cancel(pending);
            }
            if let Some(timeout) = flight.timeout {
                self.queue.cancel(timeout);
            }
            if let Some(watchdog) = flight.watchdog {
                self.queue.cancel(watchdog);
            }
            self.requeue(flight.job, v, now);
        }
        self.server.crash_vm(v, now).expect("vm is running");
        // The dead VM's CPU share rebalances onto the survivors and the
        // host power steps down with the busy-VM count.
        self.mark(now, v, WorkerState::Crashed);
        self.queue
            .schedule(now + self.config.faults.detection_delay, Event::Respawn(v));
        self.maybe_shed(now);
    }

    fn on_respawn(&mut self, v: usize, now: SimTime) {
        if self.fr.dead[v] || self.server.vm(v).state() != VmState::Crashed {
            return;
        }
        self.server.respawn_vm(v, now).expect("vm crashed");
        self.mark(now, v, WorkerState::Rebooting);
        self.with_metrics(|m, h| m.inc(h.reboots));
        // A respawn cold-starts the guest: the boot window stretches
        // beyond the warm between-jobs reboot, and contention applies.
        let boot = self
            .server
            .vm_boot_duration()
            .mul_f64(RESPAWN_BOOT_PENALTY * self.server.current_slowdown());
        self.boot_pending[v] = Some(self.queue.schedule(now + boot, Event::RebootDone(v)));
    }

    fn on_reboot_done(&mut self, v: usize, now: SimTime) {
        self.boot_pending[v] = None;
        if self.fr.injector.boot_fails(v) {
            self.fault_injected(now, v, FaultKind::BootFailure);
            self.fr.boot_failures[v] += 1;
            if self.fr.boot_failures[v] > self.config.faults.max_boot_retries {
                // The slot never comes back: declare it dead and move
                // its queue to the survivors.
                self.fr.dead[v] = true;
                self.server.crash_vm(v, now).expect("vm was rebooting");
                self.mark(now, v, WorkerState::Crashed);
                self.redistribute(v, now);
                self.maybe_shed(now);
            } else {
                self.with_metrics(|m, h| m.inc(h.reboots));
                let boot = self
                    .server
                    .vm_boot_duration()
                    .mul_f64(self.server.current_slowdown());
                self.boot_pending[v] = Some(self.queue.schedule(now + boot, Event::RebootDone(v)));
            }
            return;
        }
        self.fr.boot_failures[v] = 0;
        self.server
            .reboot_complete(v, now)
            .expect("vm was rebooting");
        self.mark(now, v, WorkerState::Idle);
        self.dispatch(v, now);
    }

    fn on_watchdog(&mut self, v: usize, now: SimTime) {
        let Some(flight) = self.in_flight[v].take() else {
            return;
        };
        if let Some(pending) = flight.pending {
            self.queue.cancel(pending);
        }
        if let Some(timeout) = flight.timeout {
            self.queue.cancel(timeout);
        }
        self.requeue(flight.job, v, now);
        self.reboot_vm(v, now, true);
    }

    fn on_retry(&mut self, job: Job, now: SimTime) {
        let Some(target) = (0..self.config.vms).find(|&v| !self.fr.dead[v]) else {
            self.drop_failed(job, now);
            return;
        };
        self.dispatcher.requeue_front(target, job);
        self.wake_if_needed(now);
    }

    fn requeue(&mut self, job: Job, v: usize, now: SimTime) {
        self.fr.summary.requeued += 1;
        self.observer.emit(
            now,
            TraceEvent::JobRequeued {
                job: job.id,
                function: job.function.name(),
                worker: v,
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

    /// VMs never power off, so waking means dispatching onto an idle
    /// survivor when nobody else is on a path back to the queue.
    fn wake_if_needed(&mut self, now: SimTime) {
        let will_pull = (0..self.config.vms).any(|v| {
            !self.fr.dead[v]
                && matches!(
                    self.server.vm(v).state(),
                    VmState::Executing | VmState::Rebooting | VmState::Crashed
                )
        });
        if will_pull {
            return;
        }
        if let Some(v) = (0..self.config.vms)
            .find(|&v| !self.fr.dead[v] && self.server.vm(v).state() == VmState::Idle)
        {
            self.dispatch(v, now);
        }
    }

    fn redistribute(&mut self, v: usize, now: SimTime) {
        let stranded = self.dispatcher.drain_worker(v);
        if stranded.is_empty() {
            return;
        }
        if self.fr.live_workers() == 0 {
            for job in stranded {
                self.drop_failed(job, now);
            }
            return;
        }
        let live: Vec<usize> = (0..self.config.vms).filter(|&x| !self.fr.dead[x]).collect();
        for (i, job) in stranded.into_iter().enumerate() {
            self.dispatcher.enqueue_back(live[i % live.len()], job);
        }
        self.wake_if_needed(now);
    }

    fn maybe_shed(&mut self, now: SimTime) {
        let up = (0..self.config.vms)
            .filter(|&v| !self.fr.dead[v] && self.server.vm(v).state() != VmState::Crashed)
            .count();
        let floor = self.config.faults.shed_below_capacity * self.config.vms as f64;
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

    /// Puts a VM whose invocation ended through its between-jobs reboot.
    /// `forced` resets (timeout, hang, lost result) always take the full
    /// reboot window to restore a clean guest.
    fn reboot_vm(&mut self, v: usize, now: SimTime, forced: bool) {
        self.server.finish_job(v, now).expect("vm was executing");
        self.mark(now, v, WorkerState::Rebooting);
        self.with_metrics(|m, h| m.inc(h.reboots));
        let reboot = if forced || self.reboot_between {
            self.server
                .vm_boot_duration()
                .mul_f64(self.server.current_slowdown())
        } else {
            SimDuration::ZERO
        };
        // Warm/cold accounting only where another job actually follows.
        if self.sched_active && self.dispatcher.has_work(v) {
            let warm = reboot.is_zero();
            if let (Some(metrics), Some(h)) = (self.observer.metrics(), self.sched_handles.as_ref())
            {
                if warm {
                    metrics.inc(h.warm_hits);
                } else {
                    metrics.inc(h.cold_boots);
                }
            }
        }
        self.boot_pending[v] = Some(self.queue.schedule(now + reboot, Event::RebootDone(v)));
    }

    /// Completes a pulled job from the orchestrator's result cache (see
    /// `MicroSim::complete_from_cache`): the VM never runs it, so it
    /// adds nothing to contention or the host's busy-power draw.
    fn complete_from_cache(&mut self, job: Job, v: usize, key: u64, now: SimTime) {
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
                worker: v,
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
            worker: v,
            started: now,
            exec: SimDuration::ZERO,
            overhead: SimDuration::ZERO,
        });
        self.last_completion = now;
    }

    fn dispatch(&mut self, v: usize, now: SimTime) {
        // Drain cache hits before committing the VM (mirrors the
        // MicroFaaS pull loop): hits complete instantly at the
        // orchestrator and only real misses occupy a CPU share.
        let next = loop {
            let Some(job) = self.dispatcher.pull(v) else {
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
            self.complete_from_cache(job, v, key, now);
        };
        if let Some(job) = next {
            self.server.start_job(v, now).expect("vm is idle");
            let watts = self.server.power().value();
            self.meter.set_power(now, self.host_channel, watts);
            self.observer.emit(
                now,
                TraceEvent::JobStarted {
                    job: job.id,
                    function: job.function.name(),
                    worker: v,
                },
            );
            self.observer.emit(
                now,
                TraceEvent::WorkerStateChange {
                    worker: v,
                    state: WorkerState::Executing,
                },
            );
            self.observer
                .emit(now, TraceEvent::PowerSample { worker: 0, watts });
            let slowdown = self.server.current_slowdown();
            let exec = service_time(job.function)
                .exec(WorkerPlatform::X86Vm)
                .mul_f64(self.config.jitter.factor(&mut self.rng) * slowdown);
            let (pending, watchdog) = if self.fr.injector.hangs(v) {
                self.fault_injected(now, v, FaultKind::Hang);
                let deadline = now + self.config.faults.hang_watchdog;
                (
                    None,
                    Some(self.queue.schedule(deadline, Event::Watchdog(v))),
                )
            } else {
                (
                    Some(self.queue.schedule(now + exec, Event::ExecDone(v))),
                    None,
                )
            };
            let timeout = self
                .timeouts
                .get(job.function)
                .map(|limit| self.queue.schedule(now + limit, Event::TimedOut(v)));
            self.in_flight[v] = Some(InFlight {
                job,
                started: now,
                exec,
                pending,
                timeout,
                watchdog,
                transfer_tries: 0,
            });
        }
        // An idle VM simply waits; the host idle floor keeps burning
        // 60 W — the very anti-proportionality the paper targets.
    }
}

/// Average host power with exactly `busy` of the VMs active — the
/// closed-form behind Fig. 5's VM line.
pub fn vm_cluster_power(busy: usize) -> f64 {
    microfaas_hw::ServerPowerModel::opteron_6172()
        .draw(busy)
        .value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::FunctionSpec;
    use microfaas_sim::faults::{FaultPlan, FaultSpec, FaultTrigger};
    use microfaas_workloads::FunctionId;

    #[test]
    fn completes_every_job() {
        let config = ConventionalConfig::paper_baseline(WorkloadMix::quick(), 1);
        let run = run_conventional(&config);
        assert_eq!(run.jobs_completed(), WorkloadMix::quick().total_jobs());
    }

    #[test]
    fn deterministic_per_seed() {
        let config = ConventionalConfig::paper_baseline(WorkloadMix::quick(), 5);
        let a = run_conventional(&config);
        let b = run_conventional(&config);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.energy.total_joules, b.energy.total_joules);
    }

    #[test]
    fn throughput_near_paper_value() {
        let config =
            ConventionalConfig::paper_baseline(WorkloadMix::new(FunctionId::ALL.to_vec(), 100), 2);
        let run = run_conventional(&config);
        let fpm = run.functions_per_minute();
        assert!(
            (fpm - 211.7).abs() < 10.0,
            "throughput {fpm:.1} f/min vs paper 211.7"
        );
    }

    #[test]
    fn energy_per_function_near_paper_value() {
        let config =
            ConventionalConfig::paper_baseline(WorkloadMix::new(FunctionId::ALL.to_vec(), 100), 3);
        let run = run_conventional(&config);
        let jpf = run.joules_per_function().expect("jobs ran");
        assert!((jpf - 32.0).abs() < 3.0, "{jpf:.2} J/func vs paper 32.0");
    }

    #[test]
    fn idle_floor_dominates_small_vm_counts() {
        // 1 VM: nearly all energy is the 60 W floor, so J/func is huge.
        let mut config =
            ConventionalConfig::paper_baseline(WorkloadMix::new(FunctionId::ALL.to_vec(), 30), 4);
        config.vms = 1;
        let run = run_conventional(&config);
        let jpf = run.joules_per_function().expect("jobs ran");
        assert!(
            jpf > 80.0,
            "single-VM J/func should exceed 80, got {jpf:.1}"
        );
    }

    #[test]
    fn contention_stretches_past_sixteen_vms() {
        let mix = WorkloadMix::new(vec![FunctionId::FloatOps], 400);
        let mut config = ConventionalConfig::paper_baseline(mix.clone(), 5);
        config.vms = 16;
        let at_saturation = run_conventional(&config);
        let mut config20 = ConventionalConfig::paper_baseline(mix, 5);
        config20.vms = 20;
        let oversubscribed = run_conventional(&config20);
        // Throughput barely improves past saturation (within ~8%).
        let ratio = oversubscribed.functions_per_minute() / at_saturation.functions_per_minute();
        assert!(
            ratio < 1.08,
            "20 VMs should not out-run 16 by much, ratio {ratio:.3}"
        );
    }

    #[test]
    fn result_cache_shortens_vm_runs_too() {
        let mix = WorkloadMix::quick();
        let baseline = run_conventional(&ConventionalConfig::paper_baseline(mix.clone(), 9));
        let mut config = ConventionalConfig::paper_baseline(mix, 9);
        config.cache = CacheConfig::parse("lru:64").expect("valid spec");
        let cached = run_conventional(&config);
        assert_eq!(cached.jobs_completed(), baseline.jobs_completed());
        assert!(
            cached.makespan < baseline.makespan,
            "hits must shorten the run: {:?} vs {:?}",
            cached.makespan,
            baseline.makespan
        );
        assert!(
            cached.records.iter().any(|r| r.exec.is_zero()),
            "some completions must be served from the cache"
        );
    }

    #[test]
    fn vm_cluster_power_matches_model() {
        assert_eq!(vm_cluster_power(0), 60.0);
        assert!(vm_cluster_power(6) > 100.0);
        assert_eq!(vm_cluster_power(40), 150.0);
    }

    #[test]
    fn per_function_exec_matches_calibration() {
        let mut config =
            ConventionalConfig::paper_baseline(WorkloadMix::new(FunctionId::ALL.to_vec(), 40), 6);
        config.jitter = Jitter::none();
        let run = run_conventional(&config);
        for (function, stats) in run.per_function() {
            let expected = service_time(function)
                .exec(WorkerPlatform::X86Vm)
                .as_millis_f64();
            assert!(
                (stats.exec_ms.mean() - expected).abs() < 1.0,
                "{function}: {:.1} vs {expected:.1}",
                stats.exec_ms.mean()
            );
        }
    }

    #[test]
    fn invocation_timeout_kills_long_jobs_on_vms() {
        // MatMul runs ~1.9 s on a VM, RegexMatch ~0.26 s; a 1.2 s
        // platform timeout kills every MatMul and spares RegexMatch.
        let mix = WorkloadMix::new(vec![FunctionId::MatMul, FunctionId::RegexMatch], 20);
        let mut config = ConventionalConfig::paper_baseline(mix, 11);
        config.invocation_timeout = Some(SimDuration::from_millis(1_200));
        let run = run_conventional(&config);
        assert_eq!(run.timed_out(), 20, "every MatMul must be killed");
        assert_eq!(run.jobs_completed(), 20, "every RegexMatch must finish");
        assert_eq!(run.jobs_accounted(), 40);
    }

    #[test]
    fn registry_timeout_is_enforced_per_function_on_vms() {
        // The 1.2 s kill switch of the platform-timeout test above, but
        // deployed on MatMul (~1.9 s on a VM) instead of platform-wide.
        let mix = WorkloadMix::new(vec![FunctionId::MatMul, FunctionId::RegexMatch], 20);
        let mut config = ConventionalConfig::paper_baseline(mix, 11);
        config
            .registry
            .redeploy_with_timeout(FunctionId::MatMul, SimDuration::from_millis(1_200));
        let run = run_conventional(&config);
        assert_eq!(run.timed_out(), 20, "every MatMul must be killed");
        assert_eq!(run.jobs_completed(), 20, "every RegexMatch must finish");
        assert!(
            run.per_function()
                .keys()
                .all(|&f| f == FunctionId::RegexMatch),
            "only RegexMatch completions should be recorded"
        );
    }

    #[test]
    fn the_tighter_of_platform_and_registry_timeout_wins_on_vms() {
        // Each order of the two limits must behave exactly like the
        // 1.2 s limit alone.
        let mix = WorkloadMix::new(vec![FunctionId::MatMul, FunctionId::RegexMatch], 20);
        let tight = SimDuration::from_millis(1_200);
        let loose = SimDuration::from_secs(10);
        let mut tight_only = ConventionalConfig::paper_baseline(mix.clone(), 11);
        tight_only.invocation_timeout = Some(tight);
        let want = run_conventional(&tight_only);
        assert_eq!(want.timed_out(), 20);
        for (platform, per_function) in [(tight, loose), (loose, tight)] {
            let mut config = ConventionalConfig::paper_baseline(mix.clone(), 11);
            config.invocation_timeout = Some(platform);
            config
                .registry
                .redeploy_with_timeout(FunctionId::MatMul, per_function);
            let run = run_conventional(&config);
            assert_eq!(
                run.timed_out(),
                20,
                "platform {platform}, MatMul {per_function}"
            );
            assert_eq!(run.jobs_completed(), 20);
            assert_eq!(run.makespan, want.makespan);
        }
    }

    #[test]
    fn a_timeout_deployed_under_another_name_is_not_applied_on_vms() {
        // The engines look timeouts up by the handler's paper name, so
        // a Decompress deployment named "thumbnailer" limits nothing.
        let mix = WorkloadMix::new(vec![FunctionId::Decompress], 20);
        let plain = run_conventional(&ConventionalConfig::paper_baseline(mix.clone(), 14));
        let mut config = ConventionalConfig::paper_baseline(mix, 14);
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
        let run = run_conventional(&config);
        assert_eq!(run.timed_out(), 0);
        assert_eq!(run.jobs_completed(), 20);
        assert_eq!(run.makespan, plain.makespan);
    }

    #[test]
    fn crashed_vm_respawns_and_the_job_is_retried() {
        // Without between-job reboots the VMs are executing essentially
        // all the time, so the t=5 s crash lands mid-invocation; the
        // respawned VM rejoins and the retried job completes.
        let mix = WorkloadMix::new(vec![FunctionId::MatMul], 60);
        let mut config = ConventionalConfig::paper_baseline(mix, 21);
        config.reboot_between_jobs = false;
        config.faults = FaultsConfig::with_plan(FaultPlan {
            seed: 9,
            faults: vec![FaultSpec {
                kind: FaultKind::Crash,
                worker: Some(2),
                trigger: FaultTrigger::At(SimTime::from_secs(5)),
            }],
        });
        let run = run_conventional(&config);
        assert_eq!(run.faults.injected, 1);
        assert_eq!(run.faults.requeued, 1);
        assert_eq!(run.jobs_completed(), 60, "the retry must recover the job");
        assert_eq!(run.jobs_accounted(), 60);
    }

    #[test]
    fn losing_a_vm_costs_wall_clock_time() {
        let mix = WorkloadMix::new(vec![FunctionId::MatMul], 60);
        let clean = run_conventional(&ConventionalConfig::paper_baseline(mix.clone(), 30));
        let mut faulty_config = ConventionalConfig::paper_baseline(mix, 30);
        faulty_config.faults = FaultsConfig::with_plan(FaultPlan {
            seed: 1,
            faults: vec![FaultSpec {
                kind: FaultKind::Crash,
                worker: Some(0),
                trigger: FaultTrigger::At(SimTime::from_secs(4)),
            }],
        });
        let faulty = run_conventional(&faulty_config);
        assert_eq!(faulty.jobs_accounted(), 60);
        assert!(
            faulty.makespan > clean.makespan,
            "losing a VM mid-run must cost wall-clock time"
        );
    }

    #[test]
    fn faulted_vm_runs_are_deterministic() {
        let mix = WorkloadMix::new(vec![FunctionId::MatMul, FunctionId::RedisInsert], 30);
        let mut config = ConventionalConfig::paper_baseline(mix, 31);
        config.faults = FaultsConfig::with_plan(FaultPlan {
            seed: 6,
            faults: vec![
                FaultSpec {
                    kind: FaultKind::Crash,
                    worker: Some(1),
                    trigger: FaultTrigger::At(SimTime::from_secs(6)),
                },
                FaultSpec {
                    kind: FaultKind::Hang,
                    worker: None,
                    trigger: FaultTrigger::Probability(0.05),
                },
            ],
        });
        let a = run_conventional(&config);
        let b = run_conventional(&config);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.energy.total_joules, b.energy.total_joules);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.dropped, b.dropped);
    }
}
