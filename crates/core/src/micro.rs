//! The MicroFaaS cluster: SBC workers driven by the orchestration plane
//! through GPIO power control, run-to-completion scheduling, reboots
//! between jobs, and power-gating of idle nodes.
//!
//! The job lifecycle itself (dispatch, transfers, timeouts, fault
//! recovery, records and metrics) is the shared closed-loop engine's;
//! this module is its SBC node class. Each worker is an [`SbcNode`]
//! state machine on its own meter channel, powered on and off through
//! its GPIO line, and the power governor decides what a drained node
//! does: gate off, park in standby, or stay warm for a while.
//!
//! Fault injection (crashes, boot failures, hangs, lost transfers) and
//! the recovery policies around it are documented in
//! `docs/FAILURE_MODEL.md`; with an empty [`FaultPlan`] the machinery
//! is inert and runs are bit-identical to a build without it. A
//! crashed SBC is power-cycled through a full boot.
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
use microfaas_hw::gpio::PowerController;
use microfaas_hw::sbc::SbcNode;
use microfaas_hw::SbcPowerModel;
use microfaas_net::LinkSpec;
use microfaas_sched::{DrainAction, GovernorKind, PlacementKind};
use microfaas_sim::faults::FaultPlan;
use microfaas_sim::trace::{Observer, TraceEvent, WorkerState};
use microfaas_sim::{EventId, SimDuration, SimTime};
use microfaas_workloads::calibration::{service_time, WorkerPlatform};
use microfaas_workloads::FunctionId;

use crate::cache::CacheConfig;
use crate::closedloop::{self, Core, Event, NodeClass, Setup};
use crate::config::{Jitter, WorkloadMix};
use crate::netmap::ClusterNet;
use crate::registry::TimeoutTable;
use crate::report::ClusterRun;

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
    pub assignment: PlacementKind,
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
    /// Kill an invocation of a function that runs longer than its
    /// limit here. [`FunctionRegistry::timeouts`] builds the table from
    /// a platform-wide limit and the deployments' per-function ones (the
    /// tighter wins); the default sets none, the paper's pure
    /// run-to-completion model. Shared behind an [`Arc`] so a config
    /// stays small and cloning it never copies the table.
    ///
    /// [`FunctionRegistry::timeouts`]: crate::registry::FunctionRegistry::timeouts
    pub timeouts: Arc<TimeoutTable>,
    /// Fault plan ([`FaultPlan::empty`], the default, keeps the run
    /// fault-free and bit-identical to earlier builds); recovery follows
    /// the fixed policy in [`crate::recovery`]. Shared behind an [`Arc`]
    /// so cloning a config never copies the plan's fault list.
    pub faults: Arc<FaultPlan>,
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
            assignment: PlacementKind::WorkConserving,
            governor: GovernorKind::RebootPerJob,
            service_nic_bits_per_sec: 1_000_000_000,
            timeouts: Arc::default(),
            faults: Arc::default(),
            cache: CacheConfig::Off,
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
    let mut meter = EnergyMeter::new(SimTime::ZERO);
    let fleet = SbcFleet {
        nodes: vec![SbcNode::default(); config.workers],
        boot_window: SbcNode::boot_duration(),
        channels: (0..config.workers)
            .map(|w| meter.add_channel(format_args!("sbc-{w}")))
            .collect(),
        gpio: PowerController::default(),
        gate_pending: vec![None; config.workers],
        power_gating: config.power_gating,
        crypto_exec_scale: config.crypto_exec_scale,
    };
    let setup = Setup {
        workers: config.workers,
        mix: &config.mix,
        seed: config.seed,
        jitter: config.jitter,
        assignment: config.assignment,
        governor: config.governor,
        reboot_between_jobs: config.reboot_between_jobs,
        timeouts: *config.timeouts,
        faults: &config.faults,
        cache: &config.cache,
        net: ClusterNet::new(config.workers, worker_link, service_link),
        meter,
    };
    closedloop::run(setup, fleet, observer)
}

/// The SBC node class: one [`SbcNode`] state machine and meter channel
/// per worker and GPIO power control. The power governor is the
/// engine's [`Core::policy`].
struct SbcFleet {
    nodes: Vec<SbcNode>,
    /// Every node's boot and reboot window, resolved once per run.
    boot_window: SimDuration,
    channels: Vec<ChannelId>,
    gpio: PowerController,
    /// The pending IdleGate timer per standby worker, cancelled when a
    /// job start or crash pre-empts the idle window.
    gate_pending: Vec<Option<EventId>>,
    /// [`MicroFaasConfig::power_gating`].
    power_gating: bool,
    /// [`MicroFaasConfig::crypto_exec_scale`].
    crypto_exec_scale: f64,
}

/// The timers only SBCs schedule.
#[derive(Debug, Clone, Copy)]
enum SbcTimer {
    /// GPIO press registered; the node starts booting.
    PowerEffective,
    /// A standby worker's governor idle window elapsed; it may gate off.
    IdleGate,
}

/// The engine state the SBC hooks receive.
type SbcCore<'c, 'a, 'b> = &'c mut Core<'a, 'b, SbcTimer>;

impl SbcFleet {
    /// Booted-idle workers right now — the governor's "warm pool".
    fn warm_idle_count(&self, core: &Core<'_, '_, SbcTimer>) -> usize {
        (0..self.nodes.len())
            .filter(|&x| !core.fr.dead[x] && self.nodes[x].state() == WorkerState::Idle)
            .count()
    }

    /// Emits the governor-transition trace/metric pair (active policies
    /// only — the default governor never reaches the standby paths).
    fn governor_transition(&self, core: SbcCore, now: SimTime, w: usize, action: &'static str) {
        if !core.sched_active {
            return;
        }
        core.observer
            .emit(now, TraceEvent::GovernorTransition { worker: w, action });
        core.with_sched_metrics(|m, h| m.inc(h.governor_transitions));
    }

    fn cancel_gate(&mut self, core: SbcCore, w: usize) {
        if let Some(eid) = self.gate_pending[w].take() {
            core.queue.cancel(eid);
        }
    }

    /// Holds an idle node booted at standby draw, arming the governor's
    /// idle window if it sets one.
    fn standby(&mut self, core: SbcCore, w: usize, now: SimTime, window: Option<SimDuration>) {
        self.governor_transition(core, now, w, "standby");
        if let Some(window) = window {
            let gate = Event::Node(w, SbcTimer::IdleGate);
            self.gate_pending[w] = Some(core.queue.schedule(now + window, gate));
        }
    }

    /// Cuts a node that just went off through its GPIO line.
    fn gate_off(&self, core: SbcCore, w: usize, now: SimTime) {
        core.mark(now, w, WorkerState::Off, self.power(w));
    }
}

impl NodeClass for SbcFleet {
    type Event = SbcTimer;
    const PREFIX: &'static str = "micro";
    const BOOTS: &'static str = "worker_boots_total";
    const PLATFORM: WorkerPlatform = WorkerPlatform::ArmSbc;
    const REBOOT_IS_A_BOOT: bool = false;

    fn label(&self) -> String {
        format!("MicroFaaS ({} SBCs)", self.nodes.len())
    }

    fn state(&self, w: usize) -> WorkerState {
        self.nodes[w].state()
    }

    fn power(&self, w: usize) -> (ChannelId, usize, f64) {
        (self.channels[w], w, self.nodes[w].power())
    }

    fn returning(&self, core: &Core<'_, '_, SbcTimer>, w: usize) -> bool {
        match self.state(w) {
            // A power-on in the GPIO actuation window boots and pulls.
            WorkerState::Off => core.boot_pending[w].is_some(),
            // An armed idle gate re-checks the queue before gating.
            WorkerState::Idle => self.gate_pending[w].is_some(),
            _ => true,
        }
    }

    fn wake(&mut self, core: SbcCore, w: usize, now: SimTime, reason: &'static str) -> bool {
        match self.state(w) {
            // A power-on already in the GPIO actuation window will pull
            // the queue when it lands; actuating again would leave a
            // stale PowerEffective firing into the middle of that boot.
            WorkerState::Off if core.boot_pending[w].is_none() => {
                core.observer
                    .emit(now, TraceEvent::WakeRequested { worker: w, reason });
                let effective = self.gpio.power_on(now);
                let power_on = Event::Node(w, SbcTimer::PowerEffective);
                core.boot_pending[w] = Some(core.queue.schedule(effective, power_on));
                false
            }
            // A parked (standby) node starts the next job directly.
            WorkerState::Idle => true,
            _ => false,
        }
    }

    #[inline]
    fn start_job(&mut self, core: SbcCore, w: usize) {
        // A job start pre-empts any armed idle-gate window.
        self.cancel_gate(core, w);
        self.nodes[w].start_job().expect("node is idle");
    }

    fn exec(&self, function: FunctionId, jitter: f64) -> SimDuration {
        let exec = service_time(function)
            .exec(WorkerPlatform::ArmSbc)
            .mul_f64(jitter);
        if self.crypto_exec_scale < 1.0 && is_crypto(function) {
            exec.mul_f64(self.crypto_exec_scale)
        } else {
            exec
        }
    }

    fn idle(&mut self, core: SbcCore, w: usize, now: SimTime) {
        self.cancel_gate(core, w);
        // Booted with nothing to do (possible when the initial random
        // assignment left this worker a short queue): the governor
        // decides between gating off and staying warm. The node is
        // already Idle, so `warm_idle_count` counts it, matching the
        // on_drain contract.
        let warm_idle = self.warm_idle_count(core);
        match core.policy.on_drain(now, warm_idle) {
            DrainAction::PowerOff => {
                if self.power_gating {
                    self.nodes[w].power_off().expect("node is idle");
                    self.gate_off(core, w, now);
                }
            }
            DrainAction::Standby { idle_timeout } => self.standby(core, w, now, idle_timeout),
        }
    }

    fn drain(&mut self, core: SbcCore, w: usize, now: SimTime, forced: bool) -> bool {
        // The governor picks the power regime. Forced resets (timeout,
        // hang, lost result) always gate, since timeout semantics
        // predate governors, and the default RebootPerJob always answers
        // PowerOff, so the legacy paths below run unchanged.
        let action = if forced {
            DrainAction::PowerOff
        } else {
            // +1: this worker is still Executing but would join the
            // warm pool, and the contract counts it in.
            let warm_idle = self.warm_idle_count(core) + 1;
            core.policy.on_drain(now, warm_idle)
        };
        match action {
            DrainAction::PowerOff => {
                self.nodes[w]
                    .finish_job_and_power_off()
                    .expect("job was executing");
                if !forced && !self.power_gating {
                    // The gating ablation: model standby as the idle draw
                    // without the FSM round trip; the node is "parked".
                    let standby = SbcPowerModel.standby();
                    core.mark(now, w, WorkerState::Idle, (self.channels[w], w, standby));
                } else {
                    self.gate_off(core, w, now);
                }
            }
            DrainAction::Standby { idle_timeout } => {
                // Stay booted-idle at standby draw; the node can take a
                // later requeue without paying the boot.
                self.nodes[w]
                    .finish_job_and_standby()
                    .expect("job was executing");
                core.mark(now, w, WorkerState::Idle, self.power(w));
                self.standby(core, w, now, idle_timeout);
            }
        }
        true
    }

    fn finish_job(&mut self, w: usize) {
        self.nodes[w]
            .finish_job_and_reboot()
            .expect("job was executing");
    }

    fn boot_window(&self) -> SimDuration {
        self.boot_window
    }

    fn boot_complete(&mut self, w: usize) {
        self.nodes[w]
            .boot_complete()
            .expect("scheduled only while booting");
    }

    /// An off or crashed node has nothing to crash and refuses the move.
    fn crash(&mut self, core: SbcCore, w: usize) -> bool {
        if self.nodes[w].crash().is_err() {
            return false;
        }
        self.cancel_gate(core, w);
        true
    }

    fn recover(&mut self, w: usize) -> SimDuration {
        self.nodes[w].recover().expect("node crashed");
        self.boot_window
    }

    fn on_event(&mut self, core: SbcCore, w: usize, timer: SbcTimer, now: SimTime) -> bool {
        match timer {
            SbcTimer::PowerEffective => {
                self.nodes[w].power_on().expect("scheduled only while off");
                core.mark(now, w, WorkerState::Booting, self.power(w));
                core.with_metrics(|m, h| m.inc(h.boots));
                let at = now + self.boot_window;
                core.boot_pending[w] = Some(core.queue.schedule(at, Event::BootDone(w)));
                false
            }
            SbcTimer::IdleGate => {
                self.gate_pending[w] = None;
                // Stale gates (the worker crashed, died, or started a job
                // that re-armed nothing) are dropped silently.
                if core.fr.dead[w] || self.state(w) != WorkerState::Idle {
                    return false;
                }
                // Work arrived while idle: run it instead of gating.
                if core.dispatcher.has_work(w) {
                    return true;
                }
                let warm_idle = self.warm_idle_count(core);
                if core.policy.gate_on_idle_expiry(now, warm_idle) {
                    self.nodes[w].power_off().expect("node is idle");
                    self.gate_off(core, w, now);
                    self.governor_transition(core, now, w, "gate-off");
                }
                // A `false` answer leaves the node idle with no further
                // expiry scheduled (see
                // `PolicyEngine::gate_on_idle_expiry`), keeping the loop
                // finite.
                false
            }
        }
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
    let model = SbcPowerModel;
    let idle_draw = if power_gating {
        model.off()
    } else {
        model.standby()
    };
    active as f64 * model.busy() + (total - active) as f64 * idle_draw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{priority_of, Priority};
    use crate::registry::{FunctionRegistry, FunctionSpec};
    use crate::report::Outcome;
    use microfaas_sim::faults::{FaultKind, FaultPlan, FaultSpec, FaultTrigger};
    use microfaas_sim::MetricsRegistry;

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
        config.timeouts = TimeoutTable::platform(SimDuration::from_secs(2)).into();
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
        let mut registry = FunctionRegistry::paper_suite();
        registry.redeploy_with_timeout(FunctionId::MatMul, SimDuration::from_secs(2));
        config.timeouts = registry.timeouts(None).into();
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
        tight_only.timeouts = TimeoutTable::platform(SimDuration::from_secs(2)).into();
        let want = run_microfaas(&tight_only);
        assert_eq!(want.timed_out(), 30);
        for (platform, per_function) in [(2, 10), (10, 2)] {
            let mut config = MicroFaasConfig::paper_prototype(mix.clone(), 11);
            let mut registry = FunctionRegistry::paper_suite();
            registry
                .redeploy_with_timeout(FunctionId::MatMul, SimDuration::from_secs(per_function));
            config.timeouts = registry
                .timeouts(Some(SimDuration::from_secs(platform)))
                .into();
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
        let mut registry = FunctionRegistry::paper_suite();
        registry
            .deploy(
                "thumbnailer",
                FunctionSpec {
                    handler: FunctionId::Decompress,
                    memory_mb: 128,
                    timeout: Some(SimDuration::from_millis(1)),
                },
            )
            .expect("a new name");
        config.timeouts = registry.timeouts(None).into();
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
        config.timeouts = TimeoutTable::platform(SimDuration::from_secs(1)).into();
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
        config.faults = Arc::new(FaultPlan {
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
        config.faults = Arc::new(plan);
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
        config.faults = Arc::new(FaultPlan { seed: 1, faults });
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
        config.faults = Arc::new(FaultPlan {
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
        config.faults = Arc::new(FaultPlan {
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
        config.faults = Arc::new(FaultPlan {
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
