//! The energy-attribution subsystem's contracts (docs/ENERGY.md):
//!
//! 1. **Conservation is bit-exact.** For arbitrary seeds, traffic
//!    shapes, placements, governors, and idle policies, the sum of
//!    per-function attributed picojoules plus the idle pool equals the
//!    whole-cluster integral exactly — integer picojoules, no epsilon.
//!    The same holds per tenant, and the integer ledger agrees with the
//!    f64 `EnergyMeter` to float precision.
//! 2. **Off = inert.** `run_open_loop` (no attributor) must stay
//!    byte-identical to the attributed run's aggregates: attribution
//!    observes the engine, it never perturbs it. Fanning attributed
//!    runs over 1 or 8 threads renders byte-identical ledger CSV.
//! 3. **Ledger bytes are pinned.** Four engine runs that reach every
//!    attribution path — a crash that parks a job, the shared host's
//!    n-way split, budget shedding, two tenants under keep-alive — keep
//!    their CSV and Prometheus renderings byte for byte.

use std::sync::Arc;

use microfaas::cache::{fnv1a_extend, FNV_OFFSET};
use microfaas::openloop::{
    run_open_loop, run_open_loop_attributed, run_open_loop_conventional,
    run_open_loop_conventional_attributed, run_open_loop_streaming_attributed, ArrivalProcess,
    NullSink, OpenLoopConfig,
};
use microfaas::{Popularity, TenantClass};
use microfaas_energy::attribution::{EnergyLedger, IdlePolicy};
use microfaas_sched::{BudgetAction, GovernorKind, PlacementKind};
use microfaas_sim::exec::par_map_indexed;
use microfaas_sim::faults::{FaultKind, FaultPlan, FaultSpec, FaultTrigger};
use microfaas_sim::{Jobs, SimDuration, SimTime};
use proptest::prelude::*;

/// The governor menu the proptest samples from — every node policy
/// family plus a binding energy budget.
fn governor(idx: usize) -> GovernorKind {
    match idx % 4 {
        0 => GovernorKind::RebootPerJob,
        1 => GovernorKind::KeepAlive {
            idle_timeout: SimDuration::from_secs(10),
        },
        2 => GovernorKind::AlwaysOn,
        _ => GovernorKind::EnergyBudget {
            cap_w: 1.0,
            burst_j: 25.0,
            action: BudgetAction::Shed,
        },
    }
}

/// Traffic-shape menu: steady Poisson, the paper's fixed batch, and a
/// bursty MMPP.
fn arrival(idx: usize) -> ArrivalProcess {
    match idx % 3 {
        0 => ArrivalProcess::Poisson { per_second: 1.5 },
        1 => ArrivalProcess::EverySecond { jobs_per_tick: 1 },
        _ => ArrivalProcess::parse("mmpp:0.2,3,60,15").expect("valid spec"),
    }
}

fn config(seed: u64, shape: usize, placement: usize, gov: usize) -> OpenLoopConfig {
    let mut config = OpenLoopConfig::paper_arrangement(1, SimDuration::from_secs(120), seed);
    config.workers = 4;
    config.arrival = arrival(shape);
    config.scheduler = PlacementKind::ALL[placement % PlacementKind::ALL.len()];
    config.governor = governor(gov);
    config.popularity = Popularity::Zipf { exponent: 1.1 };
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The conservation invariant, re-derived from the raw accessors
    /// rather than trusting `EnergyLedger::conserves`: function rows +
    /// idle pool == total, tenant rows + idle pool == total, idle
    /// shares fit in the pool, and the integer total matches the f64
    /// meter the engine always runs.
    #[test]
    fn attribution_conserves_for_arbitrary_runs(
        seed in 0u64..10_000,
        shape in 0usize..3,
        placement in 0usize..7,
        gov in 0usize..4,
        idle in 0usize..3,
    ) {
        let config = config(seed, shape, placement, gov);
        let idle_policy = IdlePolicy::ALL[idle];
        let (run, ledger) = run_open_loop_attributed(&config, idle_policy);

        let attributed: u128 = (0..ledger.functions().len())
            .map(|f| ledger.function_attributed_pj(f))
            .sum();
        prop_assert_eq!(attributed + ledger.idle_pj(), ledger.total_pj());
        let tenant_attributed: u128 = (0..ledger.tenants().len())
            .map(|t| ledger.tenant_attributed_pj(t))
            .sum();
        prop_assert_eq!(tenant_attributed + ledger.idle_pj(), ledger.total_pj());
        let func_shares: u128 = (0..ledger.functions().len())
            .map(|f| ledger.function_idle_pj(f))
            .sum();
        prop_assert!(func_shares <= ledger.idle_pj());
        prop_assert!(ledger.conserves());

        let completions: u64 = (0..ledger.functions().len())
            .map(|f| ledger.function_completions(f))
            .sum();
        prop_assert_eq!(completions, run.completed);

        // Integer ledger vs the f64 meter the engine always integrates
        // (`joules_per_function` is the meter total over completions).
        let meter_j = run.joules_per_function * run.completed as f64;
        let err = (ledger.total_joules() - meter_j).abs();
        prop_assert!(
            err < 1e-6 * meter_j.max(1.0),
            "ledger {} vs meter {meter_j}",
            ledger.total_joules()
        );
    }

    /// Attribution off must be inert: the plain entry point returns the
    /// same bits as the attributed run's engine-side aggregates.
    #[test]
    fn attribution_off_is_byte_identical(
        seed in 0u64..10_000,
        shape in 0usize..3,
        gov in 0usize..4,
    ) {
        let config = config(seed, shape, 0, gov);
        let plain = run_open_loop(&config);
        let (attributed, _) = run_open_loop_attributed(&config, IdlePolicy::Equal);
        prop_assert_eq!(plain.completed, attributed.completed);
        prop_assert_eq!(plain.mean_latency_s.to_bits(), attributed.mean_latency_s.to_bits());
        prop_assert_eq!(plain.p95_latency_s.to_bits(), attributed.p95_latency_s.to_bits());
        prop_assert_eq!(plain.mean_power_w.to_bits(), attributed.mean_power_w.to_bits());
        prop_assert_eq!(
            plain.joules_per_function.to_bits(),
            attributed.joules_per_function.to_bits()
        );
        prop_assert_eq!(plain.power_cycles, attributed.power_cycles);
    }
}

/// The exact-decimal ledger CSV is `--jobs`-invariant: fanning the same
/// grid of attributed runs over one thread or eight renders the same
/// bytes, row for row.
#[test]
fn ledger_csv_is_identical_across_job_counts() {
    let grid: Vec<(u64, usize, usize, usize)> = (0..8)
        .map(|i| (40 + i as u64, i % 3, i % 7, i % 4))
        .collect();
    let render = |jobs: Jobs| -> Vec<String> {
        par_map_indexed(jobs, grid.len(), |i| {
            let (seed, shape, placement, gov) = grid[i];
            let (_, ledger) = run_open_loop_attributed(
                &config(seed, shape, placement, gov),
                IdlePolicy::ALL[i % 3],
            );
            ledger.to_csv()
        })
    };
    let serial = render(Jobs::new(1));
    let parallel = render(Jobs::new(8));
    assert_eq!(serial, parallel, "ledger CSV must not depend on --jobs");
    for csv in &serial {
        assert!(csv.starts_with("idle_policy,function,completions,"));
    }
}

/// The streaming (O(1)-memory) path finalizes the same ledger bytes as
/// the exact path.
#[test]
fn streaming_ledger_matches_exact() {
    let config = config(77, 0, 3, 3);
    let (_, exact) = run_open_loop_attributed(&config, IdlePolicy::UsageWeighted);
    let (_, streamed) =
        run_open_loop_streaming_attributed(&config, &mut NullSink, IdlePolicy::UsageWeighted);
    assert_eq!(exact.to_csv(), streamed.to_csv());
    assert_eq!(exact.render_prometheus(), streamed.render_prometheus());
}

/// The conventional (always-on host) engine conserves too, and its
/// attributor is just as inert.
#[test]
fn conventional_attribution_conserves_and_is_inert() {
    let mut cfg = config(91, 0, 0, 0);
    cfg.governor = GovernorKind::RebootPerJob;
    let plain = run_open_loop_conventional(&cfg, 8);
    let (attributed, ledger) = run_open_loop_conventional_attributed(&cfg, 8, IdlePolicy::Equal);
    assert_eq!(plain.completed, attributed.completed);
    assert_eq!(
        plain.joules_per_function.to_bits(),
        attributed.joules_per_function.to_bits()
    );
    assert!(ledger.conserves());
    let meter_j = attributed.joules_per_function * attributed.completed as f64;
    let err = (ledger.total_joules() - meter_j).abs();
    assert!(err < 1e-6 * meter_j.max(1.0), "ledger vs meter: {err}");
}

/// One number for a ledger's exported bytes: FNV-1a over its CSV
/// followed by its Prometheus exposition.
fn ledger_fingerprint(ledger: &EnergyLedger) -> u64 {
    let hash = fnv1a_extend(FNV_OFFSET, ledger.to_csv().as_bytes());
    fnv1a_extend(hash, ledger.render_prometheus().as_bytes())
}

/// Ten scheduled crashes, round-robin over four saturated workers: the
/// ones that land pull a job off its channel mid-execution, and the job
/// restarts on that worker after recovery.
fn crash_config() -> OpenLoopConfig {
    let mut config = config(12, 0, 1, 0);
    config.arrival = ArrivalProcess::Poisson { per_second: 2.0 };
    config.faults = Arc::new(FaultPlan {
        seed: 12,
        faults: (0..10u64)
            .map(|i| FaultSpec {
                kind: FaultKind::Crash,
                worker: Some(i as usize % 4),
                trigger: FaultTrigger::At(SimTime::from_secs(7 + 11 * i)),
            })
            .collect(),
    });
    config
}

/// A binding energy budget that sheds arrivals.
fn budget_config() -> OpenLoopConfig {
    let mut config = config(7, 0, 0, 0);
    config.arrival = ArrivalProcess::Poisson { per_second: 2.0 };
    config.governor = GovernorKind::EnergyBudget {
        cap_w: 0.5,
        burst_j: 5.0,
        action: BudgetAction::Shed,
    };
    config
}

/// Two tenants on keep-alive nodes: standby draw lands in the idle
/// pool and the per-tenant rows split the completed work.
fn two_tenant_config() -> OpenLoopConfig {
    let mut config = config(2022, 0, 0, 1);
    config.tenants = vec![
        TenantClass {
            name: "paid".to_string(),
            weight: 1.0,
            slo_latency_s: 2.5,
        },
        TenantClass {
            name: "free".to_string(),
            weight: 4.0,
            slo_latency_s: 30.0,
        },
    ];
    config
}

/// The ledgers' exported bytes, pinned per run and idle policy (in
/// `IdlePolicy::ALL` order: none, equal, usage-weighted). A change to
/// how joules are split or stored must leave every one of them as is.
#[test]
fn ledger_goldens_are_unchanged() {
    let crash = crash_config();
    let (run, _) = run_open_loop_attributed(&crash, IdlePolicy::None);
    assert_eq!(run.faults_injected, 5, "crashes that landed mid-job");
    let budget = budget_config();
    let (run, _) = run_open_loop_attributed(&budget, IdlePolicy::None);
    let arrived = (run.offered_per_second * budget.duration.as_secs_f64()).round() as u64;
    assert!(run.completed < arrived, "the budget sheds arrivals");

    let conventional = config(31, 0, 0, 0);
    let tenants = two_tenant_config();
    type Ledger<'a> = Box<dyn Fn(IdlePolicy) -> EnergyLedger + 'a>;
    let cases: [(&str, Ledger, [u64; 3]); 4] = [
        (
            "crash",
            Box::new(|p| run_open_loop_attributed(&crash, p).1),
            [0xadc4a24dca19f1df, 0xa680c21deb914163, 0x656694745c61749d],
        ),
        (
            "conventional-8vm",
            Box::new(|p| run_open_loop_conventional_attributed(&conventional, 8, p).1),
            [0x6852ba52942d8130, 0x8cef0c14a0c34977, 0x65f408a8a063023d],
        ),
        (
            "budget-shed",
            Box::new(|p| run_open_loop_attributed(&budget, p).1),
            [0x75265e90138d9c33, 0x7dc7c77277328d97, 0x77ea71a189250f2f],
        ),
        (
            "keep-alive-two-tenant",
            Box::new(|p| run_open_loop_attributed(&tenants, p).1),
            [0x6f61e18bea3b733a, 0x9a18188d246ac729, 0xb3cc7b739b154bd0],
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, ledger_under, pinned) in &cases {
        for (policy, &want) in IdlePolicy::ALL.into_iter().zip(pinned) {
            let ledger = ledger_under(policy);
            assert!(ledger.conserves(), "{name} under {policy}");
            let got = ledger_fingerprint(&ledger);
            if got != want {
                mismatches.push(format!(
                    "{name} {policy}: {got:#018x} (pinned {want:#018x})"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
