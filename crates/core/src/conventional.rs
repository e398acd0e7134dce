//! The conventional (virtualization-based) cluster: QEMU microVMs on
//! one rack server, with CPU contention and the host's idle power
//! floor.
//!
//! The job lifecycle itself (dispatch, transfers, timeouts, fault
//! recovery, records and metrics) is the shared closed-loop engine's;
//! this module is its VM node class. Every VM shares one
//! [`RackServer`]: a job's exec and every reboot stretch by the host's
//! CPU-share slowdown, the host is metered on a single `rack-server`
//! channel (traced as worker `0`), and a VM reboots after every job,
//! drained queue or not.
//!
//! Fault injection mirrors the MicroFaaS cluster with VM semantics: a
//! crashed VM is respawned (with a cold-boot penalty) instead of
//! power-cycled, and its CPU share rebalances onto the survivors while
//! it is down. See `docs/FAILURE_MODEL.md`.

use std::convert::Infallible;
use std::sync::Arc;

use microfaas_energy::{ChannelId, EnergyMeter};
use microfaas_hw::server::{RackServer, VmState};
use microfaas_net::LinkSpec;
use microfaas_sched::{GovernorKind, PlacementKind};
use microfaas_sim::faults::FaultPlan;
use microfaas_sim::trace::{Observer, TraceEvent, WorkerState};
use microfaas_sim::{SimDuration, SimTime};
use microfaas_workloads::calibration::{service_time, WorkerPlatform};
use microfaas_workloads::FunctionId;

use crate::cache::CacheConfig;
use crate::closedloop::{self, Core, NodeClass, Setup};
use crate::config::{Jitter, WorkloadMix};
use crate::netmap::ClusterNet;
use crate::registry::FunctionRegistry;
use crate::report::ClusterRun;

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
    pub assignment: PlacementKind,
    /// Between-jobs power policy. VMs have no per-node gating to govern
    /// (the rack host's idle floor draws regardless), so only the
    /// [`microfaas_sched::PolicyEngine::reboot_between_jobs`] decision
    /// applies here: any governor other than the default
    /// [`GovernorKind::RebootPerJob`] skips the between-jobs reboot.
    pub governor: GovernorKind,
    /// Kill invocations that run longer than this (platform-wide
    /// limit). Combined with any per-function timeout from
    /// [`ConventionalConfig::registry`]; the tighter limit wins.
    pub invocation_timeout: Option<SimDuration>,
    /// Deployed-function metadata; per-function timeouts are enforced.
    pub registry: FunctionRegistry,
    /// Fault plan ([`FaultPlan::empty`], the default, keeps the run
    /// fault-free and bit-identical to earlier builds); recovery follows
    /// the fixed policy in [`crate::recovery`]. Shared behind an [`Arc`]
    /// so cloning a config never copies the plan's fault list.
    pub faults: Arc<FaultPlan>,
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
            assignment: PlacementKind::WorkConserving,
            governor: GovernorKind::RebootPerJob,
            invocation_timeout: None,
            registry: FunctionRegistry::paper_suite(),
            faults: Arc::default(),
            cache: CacheConfig::Off,
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
    let mut meter = EnergyMeter::new(SimTime::ZERO);
    let server = RackServer::new(config.vms);
    // The host draws its idle floor before any job exists, and its
    // channel is traced as worker 0 from t = 0.
    let channel = meter.add_channel("rack-server");
    let watts = server.power().value();
    meter.set_power(SimTime::ZERO, channel, watts);
    observer.emit(SimTime::ZERO, TraceEvent::PowerSample { worker: 0, watts });
    let setup = Setup {
        workers: config.vms,
        mix: &config.mix,
        seed: config.seed,
        jitter: config.jitter,
        assignment: config.assignment,
        governor: config.governor,
        reboot_between_jobs: config.reboot_between_jobs,
        timeouts: config.registry.timeouts(config.invocation_timeout),
        faults: &config.faults,
        cache: &config.cache,
        // All VM traffic leaves through the host's bridged GigE NIC;
        // each VM is modeled as a GigE attachment (the virtio/bridge
        // latency cost is in the calibrated fixed overhead).
        net: ClusterNet::new("vm-", config.vms, LinkSpec::gigabit(), LinkSpec::gigabit()),
        meter,
    };
    closedloop::run(setup, VmHost { server, channel }, observer)
}

/// The VM node class: every VM on one [`RackServer`], metered on one
/// shared channel.
struct VmHost {
    server: RackServer,
    channel: ChannelId,
}

impl VmHost {
    fn state(&self, v: usize) -> VmState {
        self.server.vm(v).state()
    }
}

impl NodeClass for VmHost {
    /// VMs schedule no timers of their own.
    type Event = Infallible;
    const PREFIX: &'static str = "conv";
    const BOOTS: &'static str = "vm_reboots_total";
    const PLATFORM: WorkerPlatform = WorkerPlatform::X86Vm;
    const REBOOT_IS_A_BOOT: bool = true;

    fn label(&self) -> String {
        format!("Conventional ({} VMs)", self.server.vm_count())
    }

    /// The shared host channel, re-read after every VM state change.
    fn power(&self, _v: usize) -> (ChannelId, usize, f64) {
        (self.channel, 0, self.server.power().value())
    }

    fn pulling(&self, v: usize) -> bool {
        matches!(
            self.state(v),
            VmState::Executing | VmState::Rebooting | VmState::Crashed
        )
    }

    fn returning(&self, _core: &Core<'_, '_, Infallible>, v: usize) -> bool {
        self.pulling(v)
    }

    fn crashed(&self, v: usize) -> bool {
        self.state(v) == VmState::Crashed
    }

    /// VMs never power off, so only an idle VM answers a wake.
    fn wake(&mut self, _: &mut Core<'_, '_, Infallible>, v: usize, _: SimTime, _: &str) -> bool {
        self.state(v) == VmState::Idle
    }

    fn start_job(&mut self, _: &mut Core<'_, '_, Infallible>, v: usize) {
        self.server.start_job(v).expect("vm is idle");
    }

    /// CPU contention is sampled at dispatch: a job's execution is
    /// stretched by the host slowdown in effect when it starts.
    fn exec(&self, function: FunctionId, jitter: f64) -> SimDuration {
        service_time(function)
            .exec(WorkerPlatform::X86Vm)
            .mul_f64(jitter * self.server.current_slowdown())
    }

    /// An idle VM simply waits; the host idle floor keeps burning 60 W —
    /// the very anti-proportionality the paper targets.
    fn idle(&mut self, _: &mut Core<'_, '_, Infallible>, _: usize, _: SimTime) {}

    /// A VM reboots after every job, drained queue or not.
    fn drain(&mut self, _: &mut Core<'_, '_, Infallible>, _: usize, _: SimTime, _: bool) -> bool {
        false
    }

    fn finish_job(&mut self, v: usize) {
        self.server.finish_job(v).expect("vm was executing");
    }

    /// A warm reboot of the worker OS, stretched by contention.
    fn boot_window(&self) -> SimDuration {
        self.server
            .vm_boot_duration()
            .mul_f64(self.server.current_slowdown())
    }

    fn boot_complete(&mut self, v: usize) {
        self.server.reboot_complete(v).expect("vm was rebooting");
    }

    /// The dead VM's CPU share rebalances onto the survivors and the
    /// host power steps down with the busy-VM count.
    fn crash(&mut self, _: &mut Core<'_, '_, Infallible>, v: usize) -> bool {
        if self.crashed(v) {
            return false;
        }
        self.server.crash_vm(v).expect("vm is running");
        true
    }

    /// A fresh VM is spawned in the dead one's slot. A respawn
    /// cold-starts the guest: the boot window stretches beyond the warm
    /// between-jobs reboot, and contention applies.
    fn recover(&mut self, v: usize) -> (WorkerState, SimDuration) {
        self.server.respawn_vm(v).expect("vm crashed");
        let boot = self
            .server
            .vm_boot_duration()
            .mul_f64(RESPAWN_BOOT_PENALTY * self.server.current_slowdown());
        (WorkerState::Rebooting, boot)
    }

    fn on_event(
        &mut self,
        _: &mut Core<'_, '_, Infallible>,
        _: usize,
        timer: Infallible,
        _: SimTime,
    ) -> bool {
        match timer {}
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
    use microfaas_sim::faults::{FaultKind, FaultPlan, FaultSpec, FaultTrigger};

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
        config.faults = Arc::new(FaultPlan {
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
        faulty_config.faults = Arc::new(FaultPlan {
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
        config.faults = Arc::new(FaultPlan {
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
