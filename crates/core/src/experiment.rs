//! Experiment drivers — one function per figure or table of the paper's
//! evaluation (Section V). The bench targets in `microfaas-bench` print
//! these results; integration tests assert their shapes.
//!
//! Every sweep and replicate driver here runs on the parallel
//! deterministic experiment engine ([`microfaas_sim::exec`]): each
//! takes a [`Jobs`] budget that fans independent simulation runs across
//! cores ([`Jobs::auto`] for available parallelism, overridable via the
//! `MICROFAAS_JOBS` environment variable). Output is **bit-identical**
//! for every job count — each run derives all randomness from its own
//! config and seed, and results are gathered in canonical submission
//! order (see `docs/PERFORMANCE.md`).

use std::sync::Arc;

use microfaas_sched::{edp_winner, pareto_front, GovernorKind, PlacementKind};
use microfaas_sim::faults::FaultPlan;
use microfaas_sim::{exec, Jobs, MetricsRegistry, Observer, OnlineStats, SimDuration};
use microfaas_workloads::FunctionId;

use crate::arrivals::Scenario;
use crate::cache::CacheConfig;
use crate::config::WorkloadMix;
use crate::conventional::{
    run_conventional, run_conventional_with, vm_cluster_power, ConventionalConfig,
};
use crate::micro::{run_microfaas, run_microfaas_with, sbc_cluster_power, MicroFaasConfig};
use crate::openloop::{run_open_loop, ArrivalProcess, OpenLoopConfig, OpenLoopRun};
use crate::report::ClusterRun;

/// The paper's evaluation mix, shared across sweep points without
/// re-allocating the function list per run.
fn suite_mix(invocations_per_function: u32) -> Arc<WorkloadMix> {
    Arc::new(WorkloadMix::new(
        FunctionId::ALL.to_vec(),
        invocations_per_function,
    ))
}

/// One row of the Fig. 3 runtime-breakdown chart.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeBreakdownRow {
    /// The workload function.
    pub function: FunctionId,
    /// MicroFaaS mean execution time, ms ("Working").
    pub micro_exec_ms: f64,
    /// MicroFaaS mean network overhead, ms ("Overhead").
    pub micro_overhead_ms: f64,
    /// Conventional mean execution time, ms.
    pub conv_exec_ms: f64,
    /// Conventional mean network overhead, ms.
    pub conv_overhead_ms: f64,
}

impl RuntimeBreakdownRow {
    /// Total MicroFaaS runtime (exec + overhead), ms.
    pub fn micro_total_ms(&self) -> f64 {
        self.micro_exec_ms + self.micro_overhead_ms
    }

    /// Total conventional runtime, ms.
    pub fn conv_total_ms(&self) -> f64 {
        self.conv_exec_ms + self.conv_overhead_ms
    }
}

/// Results of running the full suite on both clusters (Fig. 3 plus the
/// §V headline numbers).
#[derive(Debug, Clone)]
pub struct SuiteComparison {
    /// The MicroFaaS run.
    pub micro: ClusterRun,
    /// The conventional run.
    pub conventional: ClusterRun,
    /// Per-function breakdown rows in Table-I order.
    pub rows: Vec<RuntimeBreakdownRow>,
}

impl SuiteComparison {
    /// Functions where MicroFaaS is faster outright.
    pub fn faster_on_microfaas(&self) -> Vec<FunctionId> {
        self.rows
            .iter()
            .filter(|r| r.micro_total_ms() < r.conv_total_ms())
            .map(|r| r.function)
            .collect()
    }

    /// Functions at better than half the conventional speed (but not
    /// faster outright).
    pub fn within_half_speed(&self) -> Vec<FunctionId> {
        self.rows
            .iter()
            .filter(|r| {
                let ratio = r.micro_total_ms() / r.conv_total_ms();
                (1.0..=2.0).contains(&ratio)
            })
            .map(|r| r.function)
            .collect()
    }

    /// The energy-efficiency gain (conventional J/func ÷ MicroFaaS
    /// J/func); the paper reports 5.6×.
    pub fn efficiency_gain(&self) -> f64 {
        match (
            self.conventional.joules_per_function(),
            self.micro.joules_per_function(),
        ) {
            (Some(conv), Some(micro)) if micro > 0.0 => conv / micro,
            _ => f64::NAN,
        }
    }
}

/// Runs the paper's main experiment — the full suite on both clusters,
/// with `invocations_per_function` per function (the paper uses 1,000)
/// — under `faults` (`microfaas compare --faults plan.json`). Both
/// clusters publish their `micro_*` / `conv_*` series into `metrics`,
/// ready for one combined Prometheus exposition (`microfaas compare
/// --metrics-out`). With `jobs >= 2` the two independent runs execute
/// on separate threads; the result is bit-identical at every job count.
///
/// Metrics collection never perturbs the simulation, and with an empty
/// [`FaultPlan`] the fault hooks schedule nothing and draw nothing, so
/// the runs are the plain paper runs.
///
/// In parallel mode each cluster meters into a private registry;
/// merging micro-then-conv in canonical order reproduces the sequential
/// registration order, so the rendered exposition and the fault
/// counters are byte-identical to the serial path at every job count.
pub fn compare_suites_faulted_jobs(
    invocations_per_function: u32,
    seed: u64,
    faults: &Arc<FaultPlan>,
    metrics: &mut MetricsRegistry,
    jobs: Jobs,
) -> SuiteComparison {
    let mix = suite_mix(invocations_per_function);
    let micro_config = {
        let mut config = MicroFaasConfig::paper_prototype(Arc::clone(&mix), seed);
        config.faults = Arc::clone(faults);
        config
    };
    let conv_config = {
        let mut config = ConventionalConfig::paper_baseline(Arc::clone(&mix), seed);
        config.faults = Arc::clone(faults);
        config
    };
    if jobs.is_serial() {
        let micro = run_microfaas_with(&micro_config, &mut Observer::metered(metrics));
        let conventional = run_conventional_with(&conv_config, &mut Observer::metered(metrics));
        return breakdown(micro, conventional);
    }
    // Each run meters into its own registry; the per-run registries are
    // merged below in canonical (micro, conv) order, which reproduces
    // the serial registration order byte-for-byte.
    let mut runs = exec::par_map_indexed(jobs, 2, |i| {
        let mut private = MetricsRegistry::new();
        let run = if i == 0 {
            run_microfaas_with(&micro_config, &mut Observer::metered(&mut private))
        } else {
            run_conventional_with(&conv_config, &mut Observer::metered(&mut private))
        };
        (run, private)
    });
    let (conventional, conv_metrics) = runs.pop().expect("two runs");
    let (micro, micro_metrics) = runs.pop().expect("two runs");
    metrics.merge(&micro_metrics);
    metrics.merge(&conv_metrics);
    breakdown(micro, conventional)
}

fn breakdown(micro: ClusterRun, conventional: ClusterRun) -> SuiteComparison {
    let micro_stats = micro.per_function();
    let conv_stats = conventional.per_function();
    let rows = FunctionId::ALL
        .iter()
        .map(|&function| RuntimeBreakdownRow {
            function,
            micro_exec_ms: micro_stats[&function].exec_ms.mean(),
            micro_overhead_ms: micro_stats[&function].overhead_ms.mean(),
            conv_exec_ms: conv_stats[&function].exec_ms.mean(),
            conv_overhead_ms: conv_stats[&function].overhead_ms.mean(),
        })
        .collect();

    SuiteComparison {
        micro,
        conventional,
        rows,
    }
}

/// One point of the Fig. 4 VM-count sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct VmSweepPoint {
    /// VMs on the rack server.
    pub vms: usize,
    /// Measured cluster throughput, functions per minute.
    pub functions_per_minute: f64,
    /// Measured energy per function, joules.
    pub joules_per_function: f64,
}

/// Sweeps the conventional cluster from 1 to `max_vms` VMs (Fig. 4's
/// x-axis), returning one simulated point per count. Every point is an
/// independent run seeded identically, so the sweep is bit-identical at
/// every job count; the mix is built once and shared across points.
pub fn vm_sweep_jobs(
    max_vms: usize,
    invocations_per_function: u32,
    seed: u64,
    jobs: Jobs,
) -> Vec<VmSweepPoint> {
    let mix = suite_mix(invocations_per_function);
    exec::par_map_indexed(jobs, max_vms, |i| {
        let vms = i + 1;
        let mut config = ConventionalConfig::paper_baseline(Arc::clone(&mix), seed);
        config.vms = vms;
        let run = run_conventional(&config);
        VmSweepPoint {
            vms,
            functions_per_minute: run.functions_per_minute(),
            joules_per_function: run.joules_per_function().unwrap_or(f64::NAN),
        }
    })
}

/// The MicroFaaS reference lines drawn across Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroFaasReference {
    /// 10-SBC throughput, functions per minute.
    pub functions_per_minute: f64,
    /// 10-SBC energy per function, joules.
    pub joules_per_function: f64,
}

/// Measures the 10-SBC reference for Fig. 4.
pub fn microfaas_reference(invocations_per_function: u32, seed: u64) -> MicroFaasReference {
    let run = run_microfaas(&MicroFaasConfig::paper_prototype(
        suite_mix(invocations_per_function),
        seed,
    ));
    MicroFaasReference {
        functions_per_minute: run.functions_per_minute(),
        joules_per_function: run.joules_per_function().unwrap_or(f64::NAN),
    }
}

/// One point of the MicroFaaS worker-count scaling study (§III-c's
/// "transparently cost-proportional" claim).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SbcScalePoint {
    /// SBC worker count.
    pub workers: usize,
    /// Measured throughput, functions per minute.
    pub functions_per_minute: f64,
    /// Measured energy per function, joules.
    pub joules_per_function: f64,
}

/// Sweeps the MicroFaaS cluster size. The paper argues capacity and cost
/// scale linearly with node count; throughput per node and J/function
/// should stay constant across the sweep. Points run in parallel under
/// `jobs` and are bit-identical at every job count.
pub fn sbc_scale_sweep_jobs(
    worker_counts: &[usize],
    invocations_per_function: u32,
    seed: u64,
    jobs: Jobs,
) -> Vec<SbcScalePoint> {
    let mix = suite_mix(invocations_per_function);
    exec::par_map(jobs, worker_counts, |&workers| {
        let mut config = MicroFaasConfig::paper_prototype(Arc::clone(&mix), seed);
        config.workers = workers;
        let run = run_microfaas(&config);
        SbcScalePoint {
            workers,
            functions_per_minute: run.functions_per_minute(),
            joules_per_function: run.joules_per_function().unwrap_or(f64::NAN),
        }
    })
}

/// One point of the Fig. 5 energy-proportionality chart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProportionalityPoint {
    /// Active worker count.
    pub active_workers: usize,
    /// 10-SBC cluster draw with that many workers busy, watts.
    pub sbc_cluster_watts: f64,
    /// Rack-server draw with that many VMs busy, watts.
    pub vm_cluster_watts: f64,
}

/// The Fig. 5 series: average cluster power as the number of active
/// workers varies. The SBC cluster starts at ~0 W (everything powered
/// off); the server starts at its 60 W idle floor.
pub fn energy_proportionality(max_workers: usize) -> Vec<ProportionalityPoint> {
    (0..=max_workers)
        .map(|active| ProportionalityPoint {
            active_workers: active,
            sbc_cluster_watts: sbc_cluster_power(max_workers.max(10), active, true),
            vm_cluster_watts: vm_cluster_power(active),
        })
        .collect()
}

/// Aggregate statistics over `n` seed replicates of one cluster
/// configuration — the statistically-honest way to report a headline
/// number (mean ± spread over seeds rather than one lucky run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplicateSummary {
    /// Replicates aggregated.
    pub runs: u32,
    /// Throughput distribution over replicates, functions per minute.
    pub functions_per_minute: OnlineStats,
    /// Energy distribution over replicates, joules per function.
    pub joules_per_function: OnlineStats,
    /// Makespan distribution over replicates, seconds.
    pub makespan_seconds: OnlineStats,
    /// Completed invocations across all replicates.
    pub jobs_completed: u64,
    /// Dropped invocations (timed out, shed, or failed) across all
    /// replicates.
    pub jobs_dropped: u64,
    /// Faults injected across all replicates.
    pub faults_injected: u64,
    /// Recovery retries scheduled across all replicates.
    pub fault_retries: u64,
}

impl ReplicateSummary {
    /// Folds completed runs (in canonical seed order) into the summary.
    fn from_runs(runs: &[ClusterRun]) -> Self {
        let mut summary = ReplicateSummary {
            runs: runs.len() as u32,
            ..ReplicateSummary::default()
        };
        for run in runs {
            summary
                .functions_per_minute
                .record(run.functions_per_minute());
            if let Some(jpf) = run.joules_per_function() {
                summary.joules_per_function.record(jpf);
            }
            summary.makespan_seconds.record(run.makespan.as_secs_f64());
            summary.jobs_completed += run.jobs_completed();
            summary.jobs_dropped += run.dropped.len() as u64;
            summary.faults_injected += run.faults.injected;
            summary.fault_retries += run.faults.retries;
        }
        summary
    }
}

/// Runs `n` independent replicates — replicate `i` calls
/// `run_at(base_seed + i)` — with up to `jobs` concurrent workers, and aggregates them
/// via [`sim::stats`](OnlineStats). Replicates are folded in canonical
/// seed order, so the summary (including its floating-point
/// accumulations) is bit-identical at every job count.
///
/// # Examples
///
/// ```
/// use microfaas::config::WorkloadMix;
/// use microfaas::experiment::run_replicates;
/// use microfaas::micro::{run_microfaas, MicroFaasConfig};
/// use microfaas_sim::Jobs;
/// use std::sync::Arc;
///
/// let mix = Arc::new(WorkloadMix::quick());
/// let summary = run_replicates(3, 42, Jobs::serial(), |seed| {
///     run_microfaas(&MicroFaasConfig::paper_prototype(Arc::clone(&mix), seed))
/// });
/// assert_eq!(summary.runs, 3);
/// assert_eq!(summary.functions_per_minute.count(), 3);
/// assert!(summary.functions_per_minute.mean() > 0.0);
/// ```
pub fn run_replicates<F>(n: u32, base_seed: u64, jobs: Jobs, run_at: F) -> ReplicateSummary
where
    F: Fn(u64) -> ClusterRun + Sync,
{
    let runs = exec::par_map_indexed(jobs, n as usize, |i| run_at(base_seed + i as u64));
    ReplicateSummary::from_runs(&runs)
}

/// [`run_replicates`] over the MicroFaaS cluster: replicate `i` runs
/// `base` with seed `base_seed + i`. Cloning the config per replicate
/// is cheap — the mix and fault plan are [`Arc`]-shared.
pub fn micro_replicates(
    base: &MicroFaasConfig,
    n: u32,
    base_seed: u64,
    jobs: Jobs,
) -> ReplicateSummary {
    run_replicates(n, base_seed, jobs, |seed| {
        let mut config = base.clone();
        config.seed = seed;
        run_microfaas(&config)
    })
}

/// [`run_replicates`] over the conventional cluster: replicate `i` runs
/// `base` with seed `base_seed + i`.
pub fn conventional_replicates(
    base: &ConventionalConfig,
    n: u32,
    base_seed: u64,
    jobs: Jobs,
) -> ReplicateSummary {
    run_replicates(n, base_seed, jobs, |seed| {
        let mut config = base.clone();
        config.seed = seed;
        run_conventional(&config)
    })
}

/// One point of the placement × governor policy sweep: a full open-loop
/// run under one `(placement, governor)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyPoint {
    /// Placement policy this point ran under.
    pub placement: PlacementKind,
    /// Power governor this point ran under.
    pub governor: GovernorKind,
    /// Jobs completed over the run.
    pub completed: u64,
    /// Mean end-to-end latency, seconds.
    pub mean_latency_s: f64,
    /// 95th-percentile end-to-end latency, seconds.
    pub p95_latency_s: f64,
    /// Time-averaged cluster power, watts.
    pub mean_power_w: f64,
    /// Energy per completed function, joules.
    pub joules_per_function: f64,
    /// GPIO power-on actuations (cold boots paid).
    pub power_cycles: u64,
    /// Result-cache hit rate over all completions — `(hits + coalesced)
    /// / completed` — or `0.0` when the sweep ran cache-off.
    pub hit_rate: f64,
    /// Cache consultations over the run (hits + misses + coalesced
    /// followers); `0` when the sweep ran cache-off. The CLI suppresses
    /// its conditional `hit%` summary column when a whole sweep records
    /// none, so a cached-but-idle run prints like an uncached one.
    pub cache_lookups: u64,
    /// Estimated joules the cache's zero-energy completions avoided,
    /// extrapolated from the measured per-*executed*-function energy;
    /// `0.0` cache-off.
    pub joules_saved: f64,
    /// Energy-delay product (mean latency × joules per function) as
    /// measured. With a cache on, both factors already include the free
    /// completions — this is the "cached EDP" the winner re-evaluation
    /// ranks by.
    pub cached_edp: f64,
    /// Whether this point sits on the latency–energy Pareto front
    /// (minimizing both [`PolicyPoint::mean_latency_s`] and
    /// [`PolicyPoint::joules_per_function`]) over the whole sweep.
    pub pareto: bool,
}

/// Folds one finished open-loop run into a [`PolicyPoint`] (Pareto flag
/// unset; the sweep computes fronts after gathering).
fn policy_point(
    placement: PlacementKind,
    governor: GovernorKind,
    run: &OpenLoopRun,
) -> PolicyPoint {
    let skipped = run.cache_hits + run.cache_coalesced;
    let hit_rate = if run.completed > 0 {
        skipped as f64 / run.completed as f64
    } else {
        0.0
    };
    // Energy was only spent on the executed (missed) jobs; each skipped
    // completion avoided that per-executed-function cost.
    let total_joules = run.joules_per_function * run.completed as f64;
    let joules_saved = if skipped > 0 && run.cache_misses > 0 {
        skipped as f64 * total_joules / run.cache_misses as f64
    } else {
        0.0
    };
    PolicyPoint {
        placement,
        governor,
        completed: run.completed,
        mean_latency_s: run.mean_latency_s,
        p95_latency_s: run.p95_latency_s,
        mean_power_w: run.mean_power_w,
        joules_per_function: run.joules_per_function,
        power_cycles: run.power_cycles,
        hit_rate,
        cache_lookups: run.cache_hits + run.cache_misses + run.cache_coalesced,
        joules_saved,
        cached_edp: run.mean_latency_s * run.joules_per_function,
        pareto: false,
    }
}

/// Crosses every [`PlacementKind`] with every [`GovernorKind`]
/// (35 combinations) on the open-loop cluster and flags the
/// latency–energy Pareto front. The interesting regime is **sparse**
/// load — per-node idle gaps above the ~23 s standby/boot break-even —
/// where keeping nodes warm genuinely trades energy for latency; at
/// saturating rates keep-alive simply dominates and the front
/// collapses. Each point is an independent, identically-seeded run and
/// results are gathered in canonical order, so the sweep is
/// bit-identical at every job count.
///
/// `cache` is installed on every point (`microfaas sched --cache`): the
/// `hit_rate`, `joules_saved`, and `cached_edp` columns become live
/// measurements and the Pareto front re-forms around the cache's
/// zero-energy completions. [`CacheConfig::Off`] runs the plain sweep.
pub fn policy_sweep_cached_jobs(
    per_second: f64,
    duration: SimDuration,
    workers: usize,
    seed: u64,
    cache: &CacheConfig,
    jobs: Jobs,
) -> Vec<PolicyPoint> {
    let combos: Vec<(PlacementKind, GovernorKind)> = PlacementKind::ALL
        .into_iter()
        .flat_map(|p| GovernorKind::ALL.into_iter().map(move |g| (p, g)))
        .collect();
    let mut points = exec::par_map(jobs, &combos, |&(placement, governor)| {
        let mut config = OpenLoopConfig::paper_arrangement(1, duration, seed);
        config.workers = workers;
        config.arrival = ArrivalProcess::Poisson { per_second };
        config.scheduler = placement;
        config.governor = governor;
        config.cache = *cache;
        let run = run_open_loop(&config);
        policy_point(placement, governor, &run)
    });
    let coords: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.mean_latency_s, p.joules_per_function))
        .collect();
    for (point, on_front) in points.iter_mut().zip(pareto_front(&coords)) {
        point.pareto = on_front;
    }
    points
}

/// Renders a sweep as the CSV the `sched` CLI subcommand emits (see
/// `docs/EXPERIMENTS.md` for the column contract).
pub fn policy_sweep_csv(points: &[PolicyPoint]) -> String {
    let mut out = String::from(
        "placement,governor,completed,mean_latency_s,p95_latency_s,\
         mean_power_w,joules_per_function,power_cycles,hit_rate,\
         joules_saved,cached_edp,pareto\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{},{:.6},{:.6},{:.6},{:.6},{},{:.6},{:.6},{:.6},{}\n",
            p.placement.label(),
            p.governor.label(),
            p.completed,
            p.mean_latency_s,
            p.p95_latency_s,
            p.mean_power_w,
            p.joules_per_function,
            p.power_cycles,
            p.hit_rate,
            p.joules_saved,
            p.cached_edp,
            u8::from(p.pareto),
        ));
    }
    out
}

/// One traffic regime's slice of a [`scenario_sweep_cached_jobs`]: the full
/// placement × governor cross product run under that regime's arrival
/// process, popularity skew, and tenant mix.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The regime that was run.
    pub scenario: Scenario,
    /// One [`PolicyPoint`] per placement × governor pair, in canonical
    /// order; `pareto` flags are computed **within this regime**.
    pub points: Vec<PolicyPoint>,
    /// Worst-tenant SLO attainment per point (aligned with
    /// [`ScenarioOutcome::points`]); `NaN` when the regime has no
    /// tenant classes.
    pub slo_attainment: Vec<f64>,
    /// Index into [`ScenarioOutcome::points`] of the regime's
    /// energy-delay-product winner ([`microfaas_sched::edp_winner`]);
    /// `None` when no point has a finite product (say, a zero duration,
    /// where no job completes and every mean latency is NaN).
    pub winner: Option<usize>,
}

impl ScenarioOutcome {
    /// The regime's EDP-winning point, if it has one.
    pub fn winning_point(&self) -> Option<&PolicyPoint> {
        self.winner.map(|w| &self.points[w])
    }
}

/// Runs [`policy_sweep_cached_jobs`]'s placement × governor cross
/// product once per scenario and names each regime's
/// energy-delay-product winner — the regime-conditional answer to
/// "which policy should I deploy?". The per-regime winner genuinely
/// moves with traffic shape; the worked example in `docs/WORKLOADS.md`
/// and `examples/diurnal_pareto.rs` show the flip. The full scenarios ×
/// placements × governors cube is flattened into one parallel batch;
/// every run derives its randomness from the shared `seed`, so results
/// are bit-identical at every job count.
///
/// `cache` is installed on every point (`microfaas scenarios --cache`):
/// per-regime winners are re-evaluated on the cached latency/energy
/// numbers, which is how the cache reshapes the regime-conditional
/// policy answer. [`CacheConfig::Off`] runs the plain sweep.
pub fn scenario_sweep_cached_jobs(
    scenarios: &[Scenario],
    duration: SimDuration,
    workers: usize,
    seed: u64,
    cache: &CacheConfig,
    jobs: Jobs,
) -> Vec<ScenarioOutcome> {
    let combos: Vec<(usize, PlacementKind, GovernorKind)> = (0..scenarios.len())
        .flat_map(|s| {
            PlacementKind::ALL
                .into_iter()
                .flat_map(move |p| GovernorKind::ALL.into_iter().map(move |g| (s, p, g)))
        })
        .collect();
    let per_scenario = PlacementKind::ALL.len() * GovernorKind::ALL.len();
    let runs = exec::par_map(jobs, &combos, |&(s, placement, governor)| {
        let scenario = &scenarios[s];
        let mut config = OpenLoopConfig::paper_arrangement(1, duration, seed);
        config.workers = workers;
        config.arrival = scenario.arrival;
        config.popularity = scenario.popularity;
        config.tenants = scenario.tenants.clone();
        config.scheduler = placement;
        config.governor = governor;
        config.cache = *cache;
        let run = run_open_loop(&config);
        let attainment = run
            .tenants
            .iter()
            .map(|t| t.attainment())
            .fold(f64::NAN, f64::min);
        (policy_point(placement, governor, &run), attainment)
    });
    runs.chunks(per_scenario)
        .zip(scenarios)
        .map(|(chunk, scenario)| {
            let mut points: Vec<PolicyPoint> = chunk.iter().map(|(p, _)| *p).collect();
            let slo_attainment: Vec<f64> = chunk.iter().map(|(_, a)| *a).collect();
            let coords: Vec<(f64, f64)> = points
                .iter()
                .map(|p| (p.mean_latency_s, p.joules_per_function))
                .collect();
            for (point, on_front) in points.iter_mut().zip(pareto_front(&coords)) {
                point.pareto = on_front;
            }
            ScenarioOutcome {
                scenario: scenario.clone(),
                points,
                slo_attainment,
                winner: edp_winner(&coords),
            }
        })
        .collect()
}

/// Renders a scenario sweep as the CSV the `scenarios` CLI subcommand
/// emits (see `docs/EXPERIMENTS.md` for the column contract). The
/// `slo_attainment` column is empty for regimes without tenant classes,
/// and `winner` marks each regime's energy-delay-product pick (a regime
/// with no finite product marks none).
pub fn scenario_sweep_csv(outcomes: &[ScenarioOutcome]) -> String {
    let mut out = String::from(
        "scenario,placement,governor,completed,mean_latency_s,p95_latency_s,\
         mean_power_w,joules_per_function,power_cycles,slo_attainment,\
         hit_rate,joules_saved,cached_edp,pareto,winner\n",
    );
    for outcome in outcomes {
        for (i, p) in outcome.points.iter().enumerate() {
            let attainment = outcome.slo_attainment[i];
            out.push_str(&format!(
                "{},{},{},{},{:.6},{:.6},{:.6},{:.6},{},{},{:.6},{:.6},{:.6},{},{}\n",
                outcome.scenario.name,
                p.placement.label(),
                p.governor.label(),
                p.completed,
                p.mean_latency_s,
                p.p95_latency_s,
                p.mean_power_w,
                p.joules_per_function,
                p.power_cycles,
                if attainment.is_nan() {
                    String::new()
                } else {
                    format!("{attainment:.6}")
                },
                p.hit_rate,
                p.joules_saved,
                p.cached_edp,
                u8::from(p.pareto),
                u8::from(outcome.winner == Some(i)),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `sched` CLI subcommand's default sweep arrangement; tests
    /// pin the acceptance property at exactly these settings.
    fn default_sweep() -> Vec<PolicyPoint> {
        policy_sweep_cached_jobs(
            0.1,
            SimDuration::from_secs(1200),
            10,
            1,
            &CacheConfig::Off,
            Jobs::auto(),
        )
    }

    #[test]
    fn policy_sweep_covers_the_full_cross_product() {
        let points = default_sweep();
        assert_eq!(points.len(), 35);
        for p in PlacementKind::ALL {
            for g in GovernorKind::ALL {
                assert_eq!(
                    points
                        .iter()
                        .filter(|pt| pt.placement == p && pt.governor == g)
                        .count(),
                    1,
                    "missing ({p}, {g})"
                );
            }
        }
        assert!(
            points.iter().any(|p| p.pareto),
            "a non-empty sweep has a non-empty Pareto front"
        );
        // Front membership is consistent: no point may dominate a
        // front member on both axes.
        for a in points.iter().filter(|p| p.pareto) {
            for b in &points {
                assert!(
                    !(b.mean_latency_s < a.mean_latency_s
                        && b.joules_per_function < a.joules_per_function),
                    "{}/{} dominates front member {}/{}",
                    b.placement,
                    b.governor,
                    a.placement,
                    a.governor
                );
            }
        }
    }

    #[test]
    fn warm_governors_trade_energy_for_latency_in_the_sweep() {
        // The acceptance property for the whole subsystem: under the
        // sweep's sparse default load, KeepAlive and WarmPool must pay
        // strictly more energy than RebootPerJob for strictly lower
        // mean latency, at the paper's random placement.
        let points = default_sweep();
        let at = |g: &str| {
            points
                .iter()
                .find(|p| p.placement == PlacementKind::RandomStatic && p.governor.label() == g)
                .unwrap()
        };
        let reboot = at("reboot-per-job");
        for warm in ["keep-alive", "warm-pool"] {
            let point = at(warm);
            assert!(
                point.joules_per_function > reboot.joules_per_function,
                "{warm} J/func {:.3} must exceed reboot-per-job {:.3}",
                point.joules_per_function,
                reboot.joules_per_function
            );
            assert!(
                point.mean_latency_s < reboot.mean_latency_s,
                "{warm} mean latency {:.3}s must beat reboot-per-job {:.3}s",
                point.mean_latency_s,
                reboot.mean_latency_s
            );
        }
    }

    #[test]
    fn policy_sweep_is_bit_identical_across_job_counts() {
        let serial = policy_sweep_cached_jobs(
            0.5,
            SimDuration::from_secs(300),
            10,
            9,
            &CacheConfig::Off,
            Jobs::serial(),
        );
        let parallel = policy_sweep_cached_jobs(
            0.5,
            SimDuration::from_secs(300),
            10,
            9,
            &CacheConfig::Off,
            Jobs::new(4),
        );
        assert_eq!(serial, parallel);
        assert_eq!(
            policy_sweep_csv(&serial),
            policy_sweep_csv(&parallel),
            "CSV must be byte-identical at any job count"
        );
    }

    #[test]
    fn policy_sweep_csv_shape() {
        let points = policy_sweep_cached_jobs(
            0.5,
            SimDuration::from_secs(300),
            10,
            9,
            &CacheConfig::Off,
            Jobs::serial(),
        );
        let csv = policy_sweep_csv(&points);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "placement,governor,completed,mean_latency_s,p95_latency_s,\
             mean_power_w,joules_per_function,power_cycles,hit_rate,\
             joules_saved,cached_edp,pareto"
        );
        assert_eq!(csv.lines().count(), 36);
        for line in lines {
            assert_eq!(line.split(',').count(), 12, "bad row: {line}");
        }
    }

    #[test]
    fn cached_sweeps_measure_hit_rates_and_savings() {
        let cache = CacheConfig::parse("lru:1024").expect("valid spec");
        let cached = policy_sweep_cached_jobs(
            2.0,
            SimDuration::from_secs(300),
            10,
            9,
            &cache,
            Jobs::serial(),
        );
        let plain = policy_sweep_cached_jobs(
            2.0,
            SimDuration::from_secs(300),
            10,
            9,
            &CacheConfig::Off,
            Jobs::serial(),
        );
        assert_eq!(cached.len(), plain.len());
        assert!(
            plain
                .iter()
                .all(|p| p.hit_rate == 0.0 && p.joules_saved == 0.0),
            "cache-off sweeps must report zero cache activity"
        );
        assert!(
            cached.iter().all(|p| (0.0..=1.0).contains(&p.hit_rate)),
            "hit rate is a fraction"
        );
        assert!(
            cached
                .iter()
                .any(|p| p.hit_rate > 0.0 && p.joules_saved > 0.0),
            "a warm cache must record hits and savings"
        );
        // The default 16-variant input space repeats keys heavily, so
        // the cache must cut the measured per-function energy somewhere.
        let mean = |pts: &[PolicyPoint]| {
            pts.iter().map(|p| p.joules_per_function).sum::<f64>() / pts.len() as f64
        };
        assert!(
            mean(&cached) < mean(&plain),
            "cached sweep mean J/func {:.3} must beat cache-off {:.3}",
            mean(&cached),
            mean(&plain)
        );
    }

    /// A short two-regime suite so the scenario tests stay fast; the
    /// full five-regime default is exercised by the CLI smoke and
    /// `examples/diurnal_pareto.rs`.
    fn short_suite() -> Vec<Scenario> {
        let all = Scenario::standard_suite();
        vec![all[0].clone(), all[4].clone()]
    }

    #[test]
    fn scenario_sweep_scores_every_regime_and_names_a_winner() {
        let outcomes = scenario_sweep_cached_jobs(
            &short_suite(),
            SimDuration::from_secs(300),
            10,
            9,
            &CacheConfig::Off,
            Jobs::serial(),
        );
        assert_eq!(outcomes.len(), 2);
        for outcome in &outcomes {
            assert_eq!(
                outcome.points.len(),
                PlacementKind::ALL.len() * GovernorKind::ALL.len()
            );
            assert_eq!(outcome.slo_attainment.len(), outcome.points.len());
            // The EDP winner sits on that regime's Pareto front.
            assert!(outcome.winning_point().expect("a winner").pareto);
        }
        // Regime 0 (steady) has no tenants; regime 1 (heavy-tail) does,
        // so its worst-tenant attainment is a real fraction.
        assert!(outcomes[0].slo_attainment.iter().all(|a| a.is_nan()));
        assert!(outcomes[1]
            .slo_attainment
            .iter()
            .all(|a| (0.0..=1.0).contains(a)));
    }

    #[test]
    fn a_regime_with_no_finite_edp_names_no_winner() {
        // At a zero duration nothing arrives, so every point's mean
        // latency is NaN and no energy-delay product is finite.
        let outcomes = scenario_sweep_cached_jobs(
            &Scenario::standard_suite(),
            SimDuration::ZERO,
            10,
            1,
            &CacheConfig::Off,
            Jobs::serial(),
        );
        assert_eq!(outcomes.len(), 5);
        assert!(outcomes.iter().all(|o| o.winner.is_none()));
        let csv = scenario_sweep_csv(&outcomes);
        assert!(csv.lines().skip(1).all(|row| row.ends_with(",0")));
    }

    #[test]
    fn scenario_sweep_is_bit_identical_across_job_counts() {
        let suite = short_suite();
        let serial = scenario_sweep_cached_jobs(
            &suite,
            SimDuration::from_secs(300),
            10,
            9,
            &CacheConfig::Off,
            Jobs::serial(),
        );
        let parallel = scenario_sweep_cached_jobs(
            &suite,
            SimDuration::from_secs(300),
            10,
            9,
            &CacheConfig::Off,
            Jobs::new(4),
        );
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.points, b.points);
            assert_eq!(a.winner, b.winner);
            // Attainment is NaN for tenant-less regimes, so compare
            // bit patterns rather than by (NaN-rejecting) equality.
            let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&a.slo_attainment), bits(&b.slo_attainment));
        }
        assert_eq!(
            scenario_sweep_csv(&serial),
            scenario_sweep_csv(&parallel),
            "CSV must be byte-identical at any job count"
        );
    }

    #[test]
    fn scenario_sweep_csv_shape() {
        let outcomes = scenario_sweep_cached_jobs(
            &short_suite(),
            SimDuration::from_secs(300),
            10,
            9,
            &CacheConfig::Off,
            Jobs::serial(),
        );
        let csv = scenario_sweep_csv(&outcomes);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "scenario,placement,governor,completed,mean_latency_s,p95_latency_s,\
             mean_power_w,joules_per_function,power_cycles,slo_attainment,\
             hit_rate,joules_saved,cached_edp,pareto,winner"
        );
        assert_eq!(csv.lines().count(), 1 + 2 * 35);
        let mut winners = 0;
        for line in lines {
            assert_eq!(line.split(',').count(), 15, "bad row: {line}");
            winners += usize::from(line.ends_with(",1"));
        }
        assert_eq!(winners, 2, "exactly one winner per regime");
    }

    #[test]
    fn binding_budget_flips_the_edp_winner() {
        // Overloaded regime: offered load above fleet capacity, random
        // placement. With a non-binding cap the EnergyBudget governor
        // behaves exactly like keep-alive and cannot beat it; a tight
        // shedding cap keeps the queues short (low latency) while the
        // shed jobs burn nothing (low energy), pulling the
        // energy-delay product below every uncapped governor — the
        // regime's winner moves the moment the cap binds.
        use microfaas_sched::{edp_winner, BudgetAction};
        let budget_idx = GovernorKind::ALL.len() - 1;
        let winner_with = |budget: GovernorKind| -> usize {
            let mut governors = GovernorKind::ALL;
            governors[budget_idx] = budget;
            let coords: Vec<(f64, f64)> = governors
                .iter()
                .map(|&g| {
                    let mut config =
                        OpenLoopConfig::paper_arrangement(1, SimDuration::from_secs(300), 7);
                    config.arrival = ArrivalProcess::Poisson { per_second: 8.0 };
                    config.governor = g;
                    let run = run_open_loop(&config);
                    (run.mean_latency_s, run.joules_per_function)
                })
                .collect();
            edp_winner(&coords).expect("five points")
        };
        let loose = winner_with(GovernorKind::EnergyBudget {
            cap_w: 1e9,
            burst_j: 1e9,
            action: BudgetAction::Shed,
        });
        let tight = winner_with(GovernorKind::EnergyBudget {
            cap_w: 1.0,
            burst_j: 25.0,
            action: BudgetAction::Shed,
        });
        assert_ne!(loose, budget_idx, "a cap that never binds cannot win");
        assert_eq!(tight, budget_idx, "a binding cap must take the EDP crown");
    }

    #[test]
    fn suite_comparison_reproduces_fig3_claims() {
        let cmp = compare_suites_faulted_jobs(
            60,
            11,
            &Arc::default(),
            &mut MetricsRegistry::new(),
            Jobs::auto(),
        );
        assert_eq!(cmp.rows.len(), 17);
        assert_eq!(
            cmp.faster_on_microfaas().len(),
            4,
            "paper: 4 of 17 functions faster on MicroFaaS"
        );
        assert_eq!(
            cmp.within_half_speed().len(),
            9,
            "paper: 9 more at better than half speed"
        );
    }

    #[test]
    fn efficiency_gain_near_5_6x() {
        let cmp = compare_suites_faulted_jobs(
            60,
            12,
            &Arc::default(),
            &mut MetricsRegistry::new(),
            Jobs::auto(),
        );
        let gain = cmp.efficiency_gain();
        assert!((gain - 5.6).abs() < 0.8, "gain {gain:.2} vs paper 5.6");
    }

    #[test]
    fn vm_sweep_throughput_rises_then_saturates() {
        let sweep = vm_sweep_jobs(20, 20, 13, Jobs::auto());
        assert_eq!(sweep.len(), 20);
        // Throughput at 6 VMs should roughly double 3 VMs.
        let t3 = sweep[2].functions_per_minute;
        let t6 = sweep[5].functions_per_minute;
        assert!((t6 / t3 - 2.0).abs() < 0.25, "t6/t3 = {:.2}", t6 / t3);
        // Beyond saturation (16 VMs) throughput flattens.
        let t16 = sweep[15].functions_per_minute;
        let t20 = sweep[19].functions_per_minute;
        assert!(t20 / t16 < 1.10, "t20/t16 = {:.2}", t20 / t16);
    }

    #[test]
    fn vm_sweep_efficiency_improves_to_saturation() {
        let sweep = vm_sweep_jobs(18, 20, 14, Jobs::auto());
        let j1 = sweep[0].joules_per_function;
        let j6 = sweep[5].joules_per_function;
        let j16 = sweep[15].joules_per_function;
        assert!(
            j1 > j6 && j6 > j16,
            "J/func should fall: {j1:.1} > {j6:.1} > {j16:.1}"
        );
        // The paper's peak efficiency is ~16.1 J/func.
        assert!((j16 - 16.1).abs() < 2.5, "peak {j16:.1} vs paper 16.1");
    }

    #[test]
    fn sbc_scaling_is_linear_in_node_count() {
        // §III-c: doubling nodes doubles capacity; per-function energy
        // is unchanged. This is what lets a provider quote marginal cost.
        let points = sbc_scale_sweep_jobs(&[5, 10, 20, 40], 40, 15, Jobs::auto());
        let per_node: Vec<f64> = points
            .iter()
            .map(|p| p.functions_per_minute / p.workers as f64)
            .collect();
        for pair in per_node.windows(2) {
            let drift = (pair[1] / pair[0] - 1.0).abs();
            assert!(
                drift < 0.05,
                "per-node rate must stay flat, drift {drift:.3}"
            );
        }
        let jpf: Vec<f64> = points.iter().map(|p| p.joules_per_function).collect();
        for pair in jpf.windows(2) {
            let drift = (pair[1] / pair[0] - 1.0).abs();
            assert!(drift < 0.05, "J/func must stay flat, drift {drift:.3}");
        }
    }

    #[test]
    fn replicates_aggregate_across_seeds() {
        let base = MicroFaasConfig::paper_prototype(WorkloadMix::quick(), 0);
        let summary = micro_replicates(&base, 4, 100, Jobs::serial());
        assert_eq!(summary.runs, 4);
        assert_eq!(summary.functions_per_minute.count(), 4);
        assert!(
            summary.functions_per_minute.std_dev() > 0.0,
            "different seeds must produce different throughput"
        );
        let per_run = WorkloadMix::quick().total_jobs();
        assert_eq!(summary.jobs_completed, 4 * per_run);
        assert_eq!(summary.jobs_dropped, 0);
        assert_eq!(summary.faults_injected, 0);
    }

    #[test]
    fn conventional_replicates_share_the_config() {
        let base = ConventionalConfig::paper_baseline(WorkloadMix::quick(), 0);
        let summary = conventional_replicates(&base, 3, 7, Jobs::new(2));
        assert_eq!(summary.runs, 3);
        assert_eq!(summary.makespan_seconds.count(), 3);
        assert!(summary.joules_per_function.mean() > 0.0);
    }

    #[test]
    fn replicate_summary_is_jobs_invariant() {
        let base = MicroFaasConfig::paper_prototype(WorkloadMix::quick(), 0);
        let serial = micro_replicates(&base, 5, 40, Jobs::serial());
        let parallel = micro_replicates(&base, 5, 40, Jobs::new(8));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn proportionality_series_shape() {
        let series = energy_proportionality(10);
        assert_eq!(series.len(), 11);
        // Idle: SBC cluster ~0 W, server at its 60 W floor.
        assert_eq!(series[0].sbc_cluster_watts, 0.0);
        assert_eq!(series[0].vm_cluster_watts, 60.0);
        // Fully busy: 10 SBCs still draw less than the idle server.
        assert!(series[10].sbc_cluster_watts < series[0].vm_cluster_watts);
        // Both lines are monotone.
        for pair in series.windows(2) {
            assert!(pair[1].sbc_cluster_watts >= pair[0].sbc_cluster_watts);
            assert!(pair[1].vm_cluster_watts >= pair[0].vm_cluster_watts);
        }
    }
}
