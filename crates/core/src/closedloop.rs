//! The closed-loop engine both evaluation clusters run on.
//!
//! The orchestration plane is the same over SBCs and microVMs: it
//! queues every invocation up front, pulls the next job whenever a
//! worker is ready, reboots the worker between jobs, and recovers from
//! injected faults through heartbeats, retries with backoff,
//! redistribution and load shedding (`docs/FAILURE_MODEL.md`). This
//! module owns that whole job lifecycle once: dispatch and the result
//! cache's pull loop, execution, result transfer and retransmits,
//! timeouts and watchdogs, crash recovery, records, metrics and the
//! end-of-run report.
//!
//! What differs between the clusters is the hardware under each worker,
//! and a [`NodeClass`] supplies it: how a node boots, runs, crashes and
//! draws power. [`crate::micro`] implements it for a fleet of SBCs
//! behind GPIO power control, [`crate::conventional`] for microVMs that
//! share one rack server. The engine takes the class as a type
//! parameter, so each class compiles to its own event loop.

use microfaas_energy::{ChannelId, EnergyMeter};
use microfaas_sched::{GovernorKind, PlacementKind, PolicyEngine};
use microfaas_sim::faults::{FaultKind, FaultPlan};
use microfaas_sim::trace::{Observer, TraceEvent, WorkerState};
use microfaas_sim::{
    CounterId, EventId, EventQueue, HistogramId, MetricsRegistry, Rng, SimDuration, SimTime,
};
use microfaas_workloads::calibration::{service_time, WorkerPlatform};
use microfaas_workloads::FunctionId;

use crate::cache::{content_key, CacheConfig, CacheStats, ResultCache};
use crate::config::{Jitter, WorkloadMix};
use crate::job::{Dispatcher, Job, JobRecord};
use crate::netmap::ClusterNet;
use crate::recovery::{
    backoff, priority_of, FaultRuntime, Priority, DETECTION_DELAY, HANG_WATCHDOG, MAX_ATTEMPTS,
    MAX_BOOT_RETRIES, RETRANSMIT_DELAY, SHED_BELOW_CAPACITY,
};
use crate::registry::TimeoutTable;
use crate::report::{ClusterRun, DroppedJob, Outcome};

/// Histogram bucket upper bounds (seconds) shared by the cluster
/// simulators so SBC and VM exec distributions land in comparable
/// buckets.
pub(crate) const EXEC_BUCKETS: [f64; 9] = [0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0];
/// See [`EXEC_BUCKETS`]; overheads are an order of magnitude smaller.
const OVERHEAD_BUCKETS: [f64; 9] = [0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5];

/// One kind of worker hardware under the closed-loop engine.
///
/// The hooks are the points where the job lifecycle touches a node:
/// its state machine, its power draw, and its boot, exec and recovery
/// timings. Hooks that need the run's shared state take the engine's
/// [`Core`].
pub(crate) trait NodeClass {
    /// Timers only this class schedules (none for VMs).
    type Event: Copy;
    /// Metric-name prefix: `micro` or `conv`.
    const PREFIX: &'static str;
    /// The boot counter's name after the prefix.
    const BOOTS: &'static str;
    /// The platform whose calibrated service times the workers run.
    const PLATFORM: WorkerPlatform;
    /// Whether the reboot after every job counts toward [`Self::BOOTS`]
    /// (VMs) or only power-ons, recoveries and boot retries do (SBCs).
    const REBOOT_IS_A_BOOT: bool;

    /// The run label, e.g. `MicroFaaS (10 SBCs)`.
    fn label(&self) -> String;
    /// The meter channel, the worker index a power sample carries, and
    /// the draw to record, as of worker `w`'s current state.
    fn power(&self, w: usize) -> (ChannelId, usize, f64);
    /// Whether `w` is booting, rebooting or executing, or crashed and
    /// awaiting recovery: on a path that ends in pulling its queue.
    fn pulling(&self, w: usize) -> bool;
    /// [`Self::pulling`], or otherwise certain to look at its queue
    /// again without being woken.
    fn returning(&self, core: &Core<'_, '_, Self::Event>, w: usize) -> bool;
    /// Whether `w` is down after a crash.
    fn crashed(&self, w: usize) -> bool;
    /// Asks `w` to come to its queue; `true` when it is idle and can
    /// start a job now.
    fn wake(
        &mut self,
        core: &mut Core<'_, '_, Self::Event>,
        w: usize,
        now: SimTime,
        reason: &'static str,
    ) -> bool;
    /// Idle → executing.
    fn start_job(&mut self, core: &mut Core<'_, '_, Self::Event>, w: usize);
    /// How long `function` runs on a worker just started, given the
    /// run-to-run `jitter` factor.
    fn exec(&self, function: FunctionId, jitter: f64) -> SimDuration;
    /// `w` was ready but found its queue empty.
    fn idle(&mut self, core: &mut Core<'_, '_, Self::Event>, w: usize, now: SimTime);
    /// `w` finished an invocation with nothing queued. Returns `true`
    /// if the class took the node out of the reboot cycle.
    fn drain(
        &mut self,
        core: &mut Core<'_, '_, Self::Event>,
        w: usize,
        now: SimTime,
        forced: bool,
    ) -> bool;
    /// Executing → rebooting.
    fn finish_job(&mut self, w: usize);
    /// One boot or reboot window; the same for every worker.
    fn boot_window(&self) -> SimDuration;
    /// Booting or rebooting → idle.
    fn boot_complete(&mut self, w: usize);
    /// Takes `w` down; `false` if there was nothing running to crash.
    fn crash(&mut self, core: &mut Core<'_, '_, Self::Event>, w: usize) -> bool;
    /// Crashed → back on the way up. Returns the state to report and
    /// the boot window that follows.
    fn recover(&mut self, w: usize) -> (WorkerState, SimDuration);
    /// Handles one of the class's own timers; `true` asks the engine
    /// to start `w`'s next job.
    fn on_event(
        &mut self,
        core: &mut Core<'_, '_, Self::Event>,
        w: usize,
        event: Self::Event,
        now: SimTime,
    ) -> bool;
}

/// What a closed-loop run takes from either class's config.
pub(crate) struct Setup<'a> {
    pub workers: usize,
    pub mix: &'a WorkloadMix,
    pub seed: u64,
    pub jitter: Jitter,
    pub assignment: PlacementKind,
    pub governor: GovernorKind,
    /// The legacy between-jobs reboot switch; see
    /// [`PolicyEngine::reboot_between_jobs`].
    pub reboot_between_jobs: bool,
    pub timeouts: TimeoutTable,
    pub faults: &'a FaultPlan,
    pub cache: &'a CacheConfig,
    pub net: ClusterNet,
    /// The meter, with the class's channels already added.
    pub meter: EnergyMeter,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Event<E> {
    /// A boot or reboot window ended; the worker is ready for a job.
    BootDone(usize),
    /// Function body finished; the result/overhead phase begins.
    ExecDone(usize),
    /// Result delivered; the job is complete.
    JobDone(usize),
    /// The invocation timeout fired; the invocation is killed.
    TimedOut(usize),
    /// An injected crash takes the worker down.
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
    /// A timer of the node class.
    Node(usize, E),
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

impl InFlight {
    /// Cancels every timer the invocation still holds (cancelling one
    /// that already fired is a no-op).
    fn cancel<E>(&self, queue: &mut EventQueue<E>) {
        for id in [self.pending, self.timeout, self.watchdog]
            .into_iter()
            .flatten()
        {
            queue.cancel(id);
        }
    }
}

/// Per-run metric handles, all prefixed with the class's
/// [`NodeClass::PREFIX`].
pub(crate) struct ClusterMetrics {
    jobs_enqueued: CounterId,
    jobs_completed: CounterId,
    jobs_timed_out: CounterId,
    pub(crate) boots: CounterId,
    net_bytes: CounterId,
    faults_injected: CounterId,
    jobs_requeued: CounterId,
    job_retries: CounterId,
    jobs_shed: CounterId,
    jobs_failed: CounterId,
    exec_seconds: HistogramId,
    overhead_seconds: HistogramId,
}

impl ClusterMetrics {
    fn register<N: NodeClass>(metrics: &mut MetricsRegistry) -> Self {
        let named = |name: &str| format!("{}_{name}", N::PREFIX);
        ClusterMetrics {
            jobs_enqueued: metrics.counter(&named("jobs_enqueued_total")),
            jobs_completed: metrics.counter(&named("jobs_completed_total")),
            jobs_timed_out: metrics.counter(&named("jobs_timed_out_total")),
            boots: metrics.counter(&named(N::BOOTS)),
            net_bytes: metrics.counter(&named("net_bytes_total")),
            faults_injected: metrics.counter(&named("faults_injected_total")),
            jobs_requeued: metrics.counter(&named("jobs_requeued_total")),
            job_retries: metrics.counter(&named("job_retries_total")),
            jobs_shed: metrics.counter(&named("jobs_shed_total")),
            jobs_failed: metrics.counter(&named("jobs_failed_total")),
            exec_seconds: metrics.histogram(&named("exec_seconds"), &EXEC_BUCKETS),
            overhead_seconds: metrics.histogram(&named("overhead_seconds"), &OVERHEAD_BUCKETS),
        }
    }
}

/// Metric handles for the scheduling subsystem, shared by both cluster
/// classes and the open-loop simulator. Registered only when a
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

/// The run state every hook may touch, generic over the class's timer
/// type only.
pub(crate) struct Core<'a, 'b, E> {
    pub observer: &'a mut Observer<'b>,
    pub queue: EventQueue<Event<E>>,
    pub dispatcher: Dispatcher,
    /// The pending boot-window event per worker (a class power-on timer
    /// or a BootDone), cancelled when a crash interrupts it.
    pub boot_pending: Vec<Option<EventId>>,
    pub fr: FaultRuntime,
    /// The run's placement and governor; the class asks it what a
    /// drained node does.
    pub policy: PolicyEngine,
    /// Whether a non-default scheduling policy is active; all of its
    /// telemetry is gated on this so default runs stay byte-identical.
    pub sched_active: bool,
    workers: usize,
    jitter: Jitter,
    rng: Rng,
    meter: EnergyMeter,
    net: ClusterNet,
    in_flight: Vec<Option<InFlight>>,
    records: Vec<JobRecord>,
    last_completion: SimTime,
    handles: Option<ClusterMetrics>,
    sched_handles: Option<SchedMetrics>,
    /// The governor's between-jobs reboot decision, resolved once (it
    /// is time-invariant for every governor).
    reboot_between: bool,
    /// The orchestrator's result cache; `None` when caching is off,
    /// keeping the pull path free of cache branches.
    cache: Option<ResultCache<()>>,
    /// Each function's kill deadline, resolved once per run.
    timeouts: TimeoutTable,
    /// Each function's fixed result overhead on the class's platform, by
    /// [`FunctionId::index`], resolved once per run.
    fixed_overheads: [SimDuration; FunctionId::ALL.len()],
}

impl<E> Core<'_, '_, E> {
    /// Meters `watts` on `channel` and emits the state-change +
    /// power-sample pair for worker `w`.
    pub fn mark(
        &mut self,
        now: SimTime,
        w: usize,
        state: WorkerState,
        (channel, sampled, watts): (ChannelId, usize, f64),
    ) {
        self.meter.set_power(now, channel, watts);
        self.observer
            .emit(now, TraceEvent::WorkerStateChange { worker: w, state });
        self.observer.emit(
            now,
            TraceEvent::PowerSample {
                worker: sampled,
                watts,
            },
        );
    }

    pub fn with_metrics(&mut self, apply: impl FnOnce(&mut MetricsRegistry, &ClusterMetrics)) {
        if let (Some(metrics), Some(h)) = (self.observer.metrics(), self.handles.as_ref()) {
            apply(metrics, h);
        }
    }

    pub fn with_sched_metrics(&mut self, apply: impl FnOnce(&mut MetricsRegistry, &SchedMetrics)) {
        if let (Some(metrics), Some(h)) = (self.observer.metrics(), self.sched_handles.as_ref()) {
            apply(metrics, h);
        }
    }

    /// Live workers in index order.
    fn live(&self) -> impl Iterator<Item = usize> + '_ {
        let dead = &self.fr.dead;
        (0..dead.len()).filter(move |&w| !dead[w])
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

    fn fail(&mut self, job: Job, attempts: u32, now: SimTime) {
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

    fn drop_failed(&mut self, job: Job, now: SimTime) {
        self.fail(job, self.fr.attempts[job.id as usize], now);
    }

    /// Books a completion: trace, metrics and record.
    #[inline]
    fn complete(&mut self, job: Job, w: usize, started: SimTime, exec: SimDuration, now: SimTime) {
        let overhead = now.duration_since(started + exec);
        self.observer.emit(
            now,
            TraceEvent::JobCompleted {
                job: job.id,
                function: job.function.name(),
                worker: w,
                exec,
                overhead,
            },
        );
        self.with_metrics(|m, h| {
            m.inc(h.jobs_completed);
            m.observe(h.exec_seconds, exec.as_secs_f64());
            m.observe(h.overhead_seconds, overhead.as_secs_f64());
        });
        self.records.push(JobRecord {
            job,
            worker: w,
            started,
            exec,
            overhead,
        });
        self.last_completion = now;
    }
}

/// Runs one closed-loop cluster to completion.
pub(crate) fn run<N: NodeClass>(
    setup: Setup<'_>,
    fleet: N,
    observer: &mut Observer<'_>,
) -> ClusterRun {
    ClusterSim::new(setup, fleet, observer).run()
}

/// The engine: the shared run state plus the class's nodes.
struct ClusterSim<'a, 'b, N: NodeClass> {
    core: Core<'a, 'b, N::Event>,
    fleet: N,
}

impl<'a, 'b, N: NodeClass> ClusterSim<'a, 'b, N> {
    fn new(setup: Setup<'a>, fleet: N, observer: &'a mut Observer<'b>) -> Self {
        let policy = PolicyEngine::new(setup.assignment, setup.governor, setup.seed);
        let mut rng = Rng::new(setup.seed);
        let workers = setup.workers;

        // The orchestration plane queues every invocation up front
        // (paper §IV-D), under the configured assignment policy.
        let jobs = setup.mix.jobs(&mut rng);
        let handles = observer.metrics().map(ClusterMetrics::register::<N>);
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
        let fr = FaultRuntime::new(setup.faults, workers, jobs.len());
        // LeastLoaded balances expected execution seconds on the class's
        // platform, not job counts, so a queue of MatMuls is not "equal"
        // to one of regexes.
        let dispatcher =
            Dispatcher::with_weights(setup.assignment, workers, jobs, &mut rng, |function| {
                service_time(function).exec(N::PLATFORM).as_secs_f64()
            });

        // Everything below is observation only (no RNG, no events): the
        // legacy defaults keep traces and expositions byte-identical.
        let sched_active = !(setup.assignment.is_legacy_assignment()
            && setup.governor == GovernorKind::RebootPerJob);
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
                            policy: setup.assignment.label(),
                        },
                    );
                }
            }
            if let (Some(metrics), Some(h)) = (observer.metrics(), sched_handles.as_ref()) {
                metrics.add(h.placements, placed.len() as u64);
            }
        }

        let core = Core {
            observer,
            // Peak outstanding events: one progress event per worker
            // plus timeout/watchdog timers and a handful of planned
            // crashes — sized up front so the hot loop never regrows.
            queue: EventQueue::with_capacity(4 * workers + 16),
            dispatcher,
            boot_pending: vec![None; workers],
            fr,
            reboot_between: policy.reboot_between_jobs(setup.reboot_between_jobs),
            policy,
            sched_active,
            workers,
            jitter: setup.jitter,
            rng,
            meter: setup.meter,
            net: setup.net,
            in_flight: (0..workers).map(|_| None).collect(),
            records: Vec::with_capacity(setup.mix.total_jobs() as usize),
            last_completion: SimTime::ZERO,
            handles,
            sched_handles,
            cache: ResultCache::from_config(setup.cache),
            timeouts: setup.timeouts,
            fixed_overheads: FunctionId::ALL
                .map(|function| service_time(function).fixed_overhead(N::PLATFORM)),
        };
        ClusterSim { core, fleet }
    }

    fn run(mut self) -> ClusterRun {
        // Planned crashes are ordinary events; an empty plan schedules
        // nothing, keeping the event sequence bit-identical. Crashes
        // aimed past the fleet (a plan written for a larger cluster)
        // are no-ops.
        for (at, w) in self.core.fr.injector.scheduled_crashes().to_vec() {
            if w < self.core.workers {
                self.core.queue.schedule(at, Event::Crash(w));
            }
        }
        // Every worker that has work comes to its queue.
        for w in 0..self.core.workers {
            if self.core.dispatcher.has_work(w) {
                self.wake(w, SimTime::ZERO, "dispatch");
            }
        }

        while let Some((now, event)) = self.core.queue.pop() {
            match event {
                Event::BootDone(w) => self.on_boot_done(w, now),
                Event::ExecDone(w) => self.on_exec_done(w, now),
                Event::JobDone(w) => self.on_job_done(w, now),
                Event::TimedOut(w) => self.on_timed_out(w, now),
                Event::Crash(w) => self.on_crash(w, now),
                Event::Recover(w) => self.on_recover(w, now),
                Event::Watchdog(w) => self.on_watchdog(w, now),
                Event::Retransmit(w) => self.attempt_transfer(w, now),
                Event::Retry(job) => self.on_retry(job, now),
                Event::Node(w, timer) => {
                    if self.fleet.on_event(&mut self.core, w, timer, now) {
                        self.start_next_job(w, now);
                    }
                }
            }
        }

        // With every worker dead, queued work has nowhere to go: account
        // each stranded job so completions + drops always equal
        // submissions. Fault-free runs drain their queues and skip this.
        let core = &mut self.core;
        debug_assert!(
            core.dispatcher.remaining() == 0 || core.fr.live_workers() == 0,
            "jobs stranded on a live fleet"
        );
        let at_end = core.queue.now();
        for w in 0..core.workers {
            while let Some(job) = core.dispatcher.pull(w) {
                core.drop_failed(job, at_end);
            }
            if let Some(flight) = core.in_flight[w].take() {
                core.drop_failed(flight.job, at_end);
            }
        }

        // A worker that booted to an already-drained queue may touch the
        // meter after the final completion; report at the later instant.
        let end = core.queue.now().max(core.last_completion);
        let energy = core.meter.report(end, core.records.len() as u64);
        let run = ClusterRun {
            label: self.fleet.label(),
            workers: core.workers,
            energy,
            makespan: core.last_completion.duration_since(SimTime::ZERO),
            records: std::mem::take(&mut core.records),
            dropped: std::mem::take(&mut core.fr.dropped),
            faults: core.fr.summary,
        };
        // Headline gauges are computed from the finished run itself, so
        // the exposition agrees bit-for-bit with the `ClusterRun`
        // accessors.
        let cache_stats = core.cache.as_ref().map(|c| c.stats());
        if let Some(metrics) = core.observer.metrics() {
            core.meter.publish_metrics(metrics, N::PREFIX, end);
            publish_run_gauges(metrics, N::PREFIX, &run);
            // Cache counters only exist when a cache ran: the default
            // exposition must stay byte-identical to pre-cache builds.
            if let Some(stats) = cache_stats.as_ref() {
                publish_cache_counters(metrics, N::PREFIX, stats);
            }
        }
        run
    }

    fn mark(&mut self, now: SimTime, w: usize, state: WorkerState) {
        let power = self.fleet.power(w);
        self.core.mark(now, w, state, power);
    }

    /// Brings `w` to its queue: an idle worker starts its next job now.
    fn wake(&mut self, w: usize, now: SimTime, reason: &'static str) {
        if self.fleet.wake(&mut self.core, w, now, reason) {
            self.start_next_job(w, now);
        }
    }

    /// Makes sure someone comes for work just queued for worker `w`. A
    /// shared queue is reached by any worker that pulls, so only an
    /// all-idle fleet wakes `w` (the first live worker). A static queue
    /// is reached only by its owner, so `w` is woken unless it is
    /// already on its way back.
    fn wake_for(&mut self, w: usize, now: SimTime) {
        let reached = if self.core.dispatcher.is_shared() {
            self.core.live().any(|x| self.fleet.pulling(x))
        } else {
            self.fleet.returning(&self.core, w)
        };
        if !reached {
            self.wake(w, now, "requeue");
        }
    }

    fn on_boot_done(&mut self, w: usize, now: SimTime) {
        let core = &mut self.core;
        core.boot_pending[w] = None;
        if core.fr.injector.boot_fails(w) {
            core.fault_injected(now, w, FaultKind::BootFailure);
            core.fr.boot_failures[w] += 1;
            if core.fr.boot_failures[w] > MAX_BOOT_RETRIES {
                // The node never comes up: declare it dead and move its
                // statically assigned queue to the survivors.
                core.fr.dead[w] = true;
                let went_down = self.fleet.crash(core, w);
                debug_assert!(went_down, "a booting worker can crash");
                self.mark(now, w, WorkerState::Crashed);
                self.redistribute(w, now);
                self.maybe_shed(now);
            } else {
                // The boot wedged; the orchestrator power-cycles and the
                // worker spends another boot window.
                core.with_metrics(|m, h| m.inc(h.boots));
                let at = now + self.fleet.boot_window();
                core.boot_pending[w] = Some(core.queue.schedule(at, Event::BootDone(w)));
            }
            return;
        }
        core.fr.boot_failures[w] = 0;
        self.fleet.boot_complete(w);
        self.mark(now, w, WorkerState::Idle);
        self.start_next_job(w, now);
    }

    fn on_exec_done(&mut self, w: usize, now: SimTime) {
        let core = &mut self.core;
        let job = core.in_flight[w].as_ref().expect("job in flight").job;
        let fixed = core.fixed_overheads[job.function.index() as usize]
            .mul_f64(core.jitter.factor(&mut core.rng));
        // The byte-proportional part travels the simulated switch, where
        // port contention can stretch it beyond nominal.
        self.attempt_transfer(w, now + fixed);
    }

    /// Pushes the result transfer through the switch; an injected loss
    /// consumes the wire, then either retransmits or hands the job to
    /// the watchdog once the retry budget is spent.
    fn attempt_transfer(&mut self, w: usize, start: SimTime) {
        let core = &mut self.core;
        let job = core.in_flight[w].as_ref().expect("job in flight").job;
        let bytes = service_time(job.function).transfer_bytes();
        let lost = core.fr.injector.transfer_lost(w);
        if lost {
            core.fault_injected(start, w, FaultKind::NetLoss);
        }
        // The response leaves the worker as the transfer starts; a lost
        // copy re-emits on retransmit (span derivation keeps the first).
        core.observer.emit(
            start,
            TraceEvent::ResponseSent {
                job: job.id,
                function: job.function.name(),
                worker: w,
            },
        );
        let (delivered, src, dst) = core.net.transfer(start, w, job.function);
        core.observer
            .emit(start, TraceEvent::NetTransfer { src, dst, bytes });
        core.with_metrics(|m, h| m.add(h.net_bytes, bytes));
        let flight = core.in_flight[w].as_mut().expect("job in flight");
        if !lost {
            flight.pending = Some(core.queue.schedule(delivered, Event::JobDone(w)));
            return;
        }
        flight.transfer_tries += 1;
        if flight.transfer_tries <= MAX_ATTEMPTS {
            let at = delivered + RETRANSMIT_DELAY;
            flight.pending = Some(core.queue.schedule(at, Event::Retransmit(w)));
        } else {
            // Every copy vanished: when the last one would have arrived,
            // the orchestrator's supervision gives up on this worker.
            flight.pending = None;
            flight.watchdog = Some(core.queue.schedule(delivered, Event::Watchdog(w)));
        }
    }

    fn on_job_done(&mut self, w: usize, now: SimTime) {
        let core = &mut self.core;
        let flight = core.in_flight[w].take().expect("job in flight");
        // The progress event just fired and no watchdog runs beside it:
        // only the timeout is still armed.
        if let Some(timeout) = flight.timeout {
            core.queue.cancel(timeout);
        }
        core.complete(flight.job, w, flight.started, flight.exec, now);
        if let Some(cache) = core.cache.as_mut() {
            cache.insert(
                content_key(flight.job.function.index(), 0),
                (),
                now.as_micros(),
            );
        }
        self.release(w, now, false);
    }

    fn on_timed_out(&mut self, w: usize, now: SimTime) {
        let core = &mut self.core;
        let flight = core.in_flight[w].take().expect("job in flight");
        flight.cancel(&mut core.queue);
        core.fr.dropped.push(DroppedJob {
            job: flight.job,
            outcome: Outcome::TimedOut,
            attempts: core.fr.attempts[flight.job.id as usize],
        });
        core.observer.emit(
            now,
            TraceEvent::JobTimedOut {
                job: flight.job.id,
                function: flight.job.function.name(),
                worker: w,
            },
        );
        core.with_metrics(|m, h| m.inc(h.jobs_timed_out));
        // The worker is reset exactly as after a normal job: the reboot
        // restores the clean state the next tenant needs.
        self.release(w, now, true);
    }

    fn on_crash(&mut self, w: usize, now: SimTime) {
        if self.core.fr.dead[w] || !self.fleet.crash(&mut self.core, w) {
            // Nothing is running to crash; the planned fault fizzles.
            return;
        }
        let core = &mut self.core;
        core.fault_injected(now, w, FaultKind::Crash);
        if let Some(eid) = core.boot_pending[w].take() {
            core.queue.cancel(eid);
        }
        if let Some(flight) = core.in_flight[w].take() {
            flight.cancel(&mut core.queue);
            self.requeue(flight.job, w, now);
        }
        self.mark(now, w, WorkerState::Crashed);
        let at = now + DETECTION_DELAY;
        self.core.queue.schedule(at, Event::Recover(w));
        self.maybe_shed(now);
    }

    fn on_recover(&mut self, w: usize, now: SimTime) {
        if self.core.fr.dead[w] || !self.fleet.crashed(w) {
            return;
        }
        let (state, window) = self.fleet.recover(w);
        self.mark(now, w, state);
        let core = &mut self.core;
        core.with_metrics(|m, h| m.inc(h.boots));
        core.boot_pending[w] = Some(core.queue.schedule(now + window, Event::BootDone(w)));
    }

    fn on_watchdog(&mut self, w: usize, now: SimTime) {
        let Some(flight) = self.core.in_flight[w].take() else {
            return;
        };
        flight.cancel(&mut self.core.queue);
        self.requeue(flight.job, w, now);
        self.release(w, now, true);
    }

    fn on_retry(&mut self, job: Job, now: SimTime) {
        let Some(target) = self.core.live().next() else {
            self.core.drop_failed(job, now);
            return;
        };
        self.core.dispatcher.requeue_front(target, job);
        self.wake_for(target, now);
    }

    /// Pulls a job back off a failed worker and schedules its retry (or
    /// declares it failed once the budget is spent).
    fn requeue(&mut self, job: Job, w: usize, now: SimTime) {
        let core = &mut self.core;
        core.fr.summary.requeued += 1;
        core.observer.emit(
            now,
            TraceEvent::JobRequeued {
                job: job.id,
                function: job.function.name(),
                worker: w,
            },
        );
        core.with_metrics(|m, h| m.inc(h.jobs_requeued));
        let attempt = core.fr.next_attempt(job);
        if attempt > MAX_ATTEMPTS {
            core.fail(job, attempt - 1, now);
            return;
        }
        let delay = backoff(attempt, core.fr.injector.jitter01());
        core.fr.summary.retries += 1;
        core.observer.emit(
            now,
            TraceEvent::JobRetryScheduled {
                job: job.id,
                function: job.function.name(),
                attempt,
                delay,
            },
        );
        core.with_metrics(|m, h| m.inc(h.job_retries));
        core.queue.schedule(now + delay, Event::Retry(job));
    }

    /// Moves a dead worker's statically assigned queue to the survivors
    /// round-robin and wakes each one that received work; with nobody
    /// left, the jobs are failed outright.
    fn redistribute(&mut self, w: usize, now: SimTime) {
        let stranded = self.core.dispatcher.drain_worker(w);
        if stranded.is_empty() {
            return;
        }
        let live: Vec<usize> = self.core.live().collect();
        if live.is_empty() {
            for job in stranded {
                self.core.drop_failed(job, now);
            }
            return;
        }
        let receivers = stranded.len().min(live.len());
        for (i, job) in stranded.into_iter().enumerate() {
            self.core.dispatcher.enqueue_back(live[i % live.len()], job);
        }
        for &x in &live[..receivers] {
            self.wake_for(x, now);
        }
    }

    /// Graceful degradation: when live capacity falls below
    /// [`SHED_BELOW_CAPACITY`] of the fleet, queued batch work is shed so
    /// the surviving workers serve interactive invocations first.
    fn maybe_shed(&mut self, now: SimTime) {
        let up = self.core.live().filter(|&w| !self.fleet.crashed(w)).count();
        let core = &mut self.core;
        if (up as f64) >= SHED_BELOW_CAPACITY * core.workers as f64 {
            return;
        }
        let shed = core
            .dispatcher
            .shed_where(|job| priority_of(job.function) == Priority::Batch);
        for job in shed {
            core.observer.emit(
                now,
                TraceEvent::JobShed {
                    job: job.id,
                    function: job.function.name(),
                },
            );
            core.fr.dropped.push(DroppedJob {
                job,
                outcome: Outcome::Shed,
                attempts: core.fr.attempts[job.id as usize],
            });
            core.with_metrics(|m, h| m.inc(h.jobs_shed));
        }
    }

    /// Frees a worker whose invocation ended. `forced` resets (timeout,
    /// hang, lost result) always take the full reboot window to restore
    /// a clean worker.
    fn release(&mut self, w: usize, now: SimTime, forced: bool) {
        if !self.core.dispatcher.has_work(w) && self.fleet.drain(&mut self.core, w, now, forced) {
            return;
        }
        self.fleet.finish_job(w);
        self.mark(now, w, WorkerState::Rebooting);
        let core = &mut self.core;
        if N::REBOOT_IS_A_BOOT {
            core.with_metrics(|m, h| m.inc(h.boots));
        }
        let reboot = if forced || core.reboot_between {
            self.fleet.boot_window()
        } else {
            SimDuration::ZERO
        };
        // Warm/cold accounting only where another job actually follows.
        if core.sched_active && core.dispatcher.has_work(w) {
            let warm = reboot.is_zero();
            core.with_sched_metrics(|m, h| m.inc(if warm { h.warm_hits } else { h.cold_boots }));
        }
        core.boot_pending[w] = Some(core.queue.schedule(now + reboot, Event::BootDone(w)));
    }

    /// Completes a pulled job from the orchestrator's result cache: the
    /// worker never sees it, so it costs zero boot/exec/energy. The job
    /// still gets a record and a completion event (with zero durations)
    /// so completions, traces, and per-function stats stay conserved.
    fn complete_from_cache(&mut self, job: Job, w: usize, key: u64, now: SimTime) {
        self.core.observer.emit(
            now,
            TraceEvent::CacheHit {
                job: job.id,
                function: job.function.name(),
                key,
            },
        );
        self.core.complete(job, w, now, SimDuration::ZERO, now);
    }

    fn start_next_job(&mut self, w: usize, now: SimTime) {
        // Drain cache hits before committing the worker: each one
        // completes instantly at the orchestrator and the pull loop
        // moves on, so the worker only boots/executes for real misses.
        let next = loop {
            let Some(job) = self.core.dispatcher.pull(w) else {
                break None;
            };
            let key = content_key(job.function.index(), 0);
            let hit = match self.core.cache.as_mut() {
                Some(cache) => cache.lookup(key, now.as_micros()).is_some(),
                None => false,
            };
            if !hit {
                break Some(job);
            }
            self.complete_from_cache(job, w, key, now);
        };
        let Some(job) = next else {
            self.fleet.idle(&mut self.core, w, now);
            return;
        };
        self.fleet.start_job(&mut self.core, w);
        self.core.observer.emit(
            now,
            TraceEvent::JobStarted {
                job: job.id,
                function: job.function.name(),
                worker: w,
            },
        );
        self.mark(now, w, WorkerState::Executing);
        let core = &mut self.core;
        let exec = self
            .fleet
            .exec(job.function, core.jitter.factor(&mut core.rng));
        let (pending, watchdog) = if core.fr.injector.hangs(w) {
            // The invocation wedges: no progress event, only the
            // supervision deadline.
            core.fault_injected(now, w, FaultKind::Hang);
            let deadline = now + HANG_WATCHDOG;
            (
                None,
                Some(core.queue.schedule(deadline, Event::Watchdog(w))),
            )
        } else {
            (
                Some(core.queue.schedule(now + exec, Event::ExecDone(w))),
                None,
            )
        };
        let timeout = core
            .timeouts
            .get(job.function)
            .map(|limit| core.queue.schedule(now + limit, Event::TimedOut(w)));
        core.in_flight[w] = Some(InFlight {
            job,
            started: now,
            exec,
            pending,
            timeout,
            watchdog,
            transfer_tries: 0,
        });
    }
}

/// Publishes the headline `ClusterRun` aggregates as `{prefix}_*`
/// gauges, identical to the values the accessors return.
fn publish_run_gauges(metrics: &mut MetricsRegistry, prefix: &str, run: &ClusterRun) {
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
    stats: &CacheStats,
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
