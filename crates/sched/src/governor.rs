//! Power governors: what a node does when its queue runs dry.
//!
//! The paper's policy — reboot between jobs, power-gate the node the
//! moment it drains — is [`GovernorKind::RebootPerJob`], and it is the
//! default everywhere so existing configurations reproduce the paper's
//! numbers bit-for-bit. The keep-alive, always-on and warm-pool governors
//! trade standby energy (0.128 W per idle node) against the 1.51 s cold
//! boot in front of the next arrival, and the energy budget caps each
//! tenant's attributed joules; the `policy_sweep_cached_jobs` experiment
//! charts that frontier.
//!
//! [`PolicyEngine`] holds the governor's state and answers each of its
//! decisions with one `match` on the [`GovernorKind`]. Governors are
//! consulted at three points:
//!
//! 1. **between back-to-back jobs** —
//!    [`PolicyEngine::reboot_between_jobs`] decides whether the full
//!    boot window runs before the next queued job starts;
//! 2. **on drain** — [`PolicyEngine::on_drain`] picks a
//!    [`DrainAction`]: gate off (the paper), or hold the node
//!    booted-idle at standby power, optionally re-checking after an
//!    idle window;
//! 3. **on idle expiry** — [`PolicyEngine::gate_on_idle_expiry`]
//!    decides whether a node whose idle window elapsed finally gates
//!    off.
//!
//! All governors are deterministic; none draws randomness. A future
//! stochastic governor must use the dedicated policy stream owned by
//! [`PolicyEngine`] (the `sim/src/faults.rs` discipline), never the
//! simulation stream.
//!
//! Every power-on a governor decision triggers is visible in the trace
//! as a `wake_requested` anchor (reasons `dispatch`, `requeue`, or
//! `prewarm`), which the span deriver in `microfaas-sim::span` turns
//! into per-job `boot` phase attribution — so a governor's latency cost
//! shows up, quantified, in `microfaas analyze --breakdown` (see
//! `docs/TRACING.md`).

use std::fmt;
use std::str::FromStr;

use microfaas_sim::{SimDuration, SimTime};

use crate::placement::PolicyParseError;
use crate::PolicyEngine;

/// The paper's calibrated ARM worker boot window in seconds, used by
/// [`GovernorKind::WarmPool`] to size its reserve.
pub const SBC_BOOT_SECONDS: f64 = 1.51;

/// Default idle window for [`GovernorKind::KeepAlive`] (CLI and sweep
/// default).
pub const DEFAULT_KEEP_ALIVE_TIMEOUT: SimDuration = SimDuration::from_secs(10);

/// Default EWMA smoothing factor for [`GovernorKind::WarmPool`].
pub const DEFAULT_WARM_POOL_ALPHA: f64 = 0.2;

/// Default reserve headroom multiplier for [`GovernorKind::WarmPool`].
pub const DEFAULT_WARM_POOL_HEADROOM: f64 = 1.5;

/// Default per-tenant refill rate for [`GovernorKind::EnergyBudget`],
/// in joules per second (watts of sustained attributed draw).
pub const DEFAULT_BUDGET_CAP_W: f64 = 1.0;

/// Default per-tenant burst allowance for
/// [`GovernorKind::EnergyBudget`], in joules (the token-bucket depth).
pub const DEFAULT_BUDGET_BURST_J: f64 = 25.0;

/// Hysteresis: a breached tenant resumes only after its bucket refills
/// to this fraction of the burst depth, so the governor does not
/// flap admit/act on every arrival at the cap boundary.
pub const BUDGET_RESUME_FRACTION: f64 = 0.5;

/// Execution-time stretch applied by [`BudgetAction::Throttle`] — the
/// DVFS-style slowdown a breached tenant's jobs run at.
pub const BUDGET_THROTTLE_FACTOR: f64 = 1.5;

/// The governor family: node power-state policy after a job finishes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GovernorKind {
    /// The paper's policy and the default: reboot between jobs for a
    /// pristine worker OS, gate the node off the moment it drains. The
    /// legacy `reboot_between_jobs`/`power_gating` config switches keep
    /// their exact historical meaning under this governor only.
    #[default]
    RebootPerJob,
    /// Skip between-job reboots and hold a drained node booted-idle at
    /// standby power for `idle_timeout`; gate off if nothing arrives.
    KeepAlive {
        /// Idle window before the node gates off.
        idle_timeout: SimDuration,
    },
    /// Never gate a node once it has booted: drained workers idle at
    /// standby power for the rest of the run (the conventional-cluster
    /// mindset on SBC hardware).
    AlwaysOn,
    /// Size a booted-idle reserve from an EWMA of the open-loop arrival
    /// rate: the pool keeps `ceil(rate x 1.51 s x headroom)` nodes warm
    /// (clamped to the fleet) so the expected arrivals during one boot
    /// window find a warm node, and lets the rest gate off.
    WarmPool {
        /// EWMA smoothing factor in `(0, 1]` applied to inter-arrival
        /// gaps; higher tracks bursts faster.
        alpha: f64,
        /// Multiplier on the boot-window arrival estimate.
        headroom: f64,
    },
    /// Enforce per-tenant joule budgets with a token bucket: each
    /// tenant's attributed energy refills at `cap_w` joules per second
    /// up to a `burst_j` reserve; while a tenant is over budget its
    /// arrivals get `action` (shed, defer, or throttle) until the
    /// bucket recovers past the hysteresis mark. Node power policy is
    /// keep-alive (standby for the default idle window) so the budget
    /// loop, not reboot churn, dominates the energy picture.
    EnergyBudget {
        /// Sustained refill rate, joules per second of attributed work.
        cap_w: f64,
        /// Bucket depth: how many joules a tenant may burst above the
        /// sustained rate.
        burst_j: f64,
        /// What happens to a breached tenant's arrivals.
        action: BudgetAction,
    },
}

/// What [`GovernorKind::EnergyBudget`] does to arrivals from a tenant
/// that has exhausted its joule budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetAction {
    /// Drop the arrival (it never enters a queue) — the default.
    #[default]
    Shed,
    /// Park the arrival and release it when the bucket has refilled to
    /// the resume mark.
    Defer,
    /// Admit the arrival but stretch its execution by
    /// [`BUDGET_THROTTLE_FACTOR`] (a DVFS-style slowdown).
    Throttle,
}

impl BudgetAction {
    /// Stable label used in budget specs and `budget_action` trace
    /// events.
    pub fn label(self) -> &'static str {
        match self {
            BudgetAction::Shed => "shed",
            BudgetAction::Defer => "defer",
            BudgetAction::Throttle => "throttle",
        }
    }
}

impl fmt::Display for BudgetAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for BudgetAction {
    type Err = PolicyParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "shed" => Ok(BudgetAction::Shed),
            "defer" => Ok(BudgetAction::Defer),
            "throttle" => Ok(BudgetAction::Throttle),
            other => Err(PolicyParseError(format!(
                "unknown budget action '{other}' (expected shed, defer, throttle)"
            ))),
        }
    }
}

/// Parses a `--budget` spec: `CAP_W[,burst=J][,action=shed|defer|throttle]`,
/// e.g. `0.5,burst=10,action=defer`.
///
/// # Errors
///
/// Returns [`PolicyParseError`] for malformed numbers, non-positive
/// cap/burst, or unknown keys/actions.
pub fn parse_budget_spec(spec: &str) -> Result<GovernorKind, PolicyParseError> {
    let mut parts = spec.split(',');
    let cap_raw = parts.next().unwrap_or_default();
    let cap_w: f64 = cap_raw
        .parse()
        .map_err(|_| PolicyParseError(format!("budget cap '{cap_raw}' is not a number")))?;
    if !cap_w.is_finite() || cap_w <= 0.0 {
        return Err(PolicyParseError(format!(
            "budget cap must be positive watts, got '{cap_raw}'"
        )));
    }
    let mut burst_j = DEFAULT_BUDGET_BURST_J;
    let mut action = BudgetAction::default();
    for part in parts {
        match part.split_once('=') {
            Some(("burst", v)) => {
                burst_j = v
                    .parse()
                    .map_err(|_| PolicyParseError(format!("budget burst '{v}' is not a number")))?;
                if !burst_j.is_finite() || burst_j <= 0.0 {
                    return Err(PolicyParseError(format!(
                        "budget burst must be positive joules, got '{v}'"
                    )));
                }
            }
            Some(("action", v)) => action = v.parse()?,
            _ => {
                return Err(PolicyParseError(format!(
                    "unknown budget spec component '{part}' \
                     (expected burst=J or action=shed|defer|throttle)"
                )));
            }
        }
    }
    Ok(GovernorKind::EnergyBudget {
        cap_w,
        burst_j,
        action,
    })
}

impl GovernorKind {
    /// The five governors at their default parameters, in canonical
    /// sweep order.
    pub const ALL: [GovernorKind; 5] = [
        GovernorKind::RebootPerJob,
        GovernorKind::KeepAlive {
            idle_timeout: DEFAULT_KEEP_ALIVE_TIMEOUT,
        },
        GovernorKind::AlwaysOn,
        GovernorKind::WarmPool {
            alpha: DEFAULT_WARM_POOL_ALPHA,
            headroom: DEFAULT_WARM_POOL_HEADROOM,
        },
        GovernorKind::EnergyBudget {
            cap_w: DEFAULT_BUDGET_CAP_W,
            burst_j: DEFAULT_BUDGET_BURST_J,
            action: BudgetAction::Shed,
        },
    ];

    /// Stable kebab-case label used in CLI flags, CSV rows, and trace
    /// events.
    pub fn label(self) -> &'static str {
        match self {
            GovernorKind::RebootPerJob => "reboot-per-job",
            GovernorKind::KeepAlive { .. } => "keep-alive",
            GovernorKind::AlwaysOn => "always-on",
            GovernorKind::WarmPool { .. } => "warm-pool",
            GovernorKind::EnergyBudget { .. } => "energy-budget",
        }
    }

    /// The per-tenant power cap in watts when this governor enforces an
    /// energy budget, `None` for every other kind. Monitoring surfaces
    /// use it to annotate budget-breach alerts with the cap that was
    /// broken.
    pub fn budget_cap_w(&self) -> Option<f64> {
        match self {
            GovernorKind::EnergyBudget { cap_w, .. } => Some(*cap_w),
            _ => None,
        }
    }
}

impl fmt::Display for GovernorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for GovernorKind {
    type Err = PolicyParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reboot-per-job" => Ok(GovernorKind::RebootPerJob),
            "keep-alive" => Ok(GovernorKind::KeepAlive {
                idle_timeout: DEFAULT_KEEP_ALIVE_TIMEOUT,
            }),
            "always-on" => Ok(GovernorKind::AlwaysOn),
            "warm-pool" => Ok(GovernorKind::WarmPool {
                alpha: DEFAULT_WARM_POOL_ALPHA,
                headroom: DEFAULT_WARM_POOL_HEADROOM,
            }),
            "energy-budget" => Ok(GovernorKind::EnergyBudget {
                cap_w: DEFAULT_BUDGET_CAP_W,
                burst_j: DEFAULT_BUDGET_BURST_J,
                action: BudgetAction::Shed,
            }),
            other => Err(PolicyParseError(format!(
                "unknown governor '{other}' (expected one of: reboot-per-job, \
                 keep-alive, always-on, warm-pool, energy-budget)"
            ))),
        }
    }
}

/// What a drained worker does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainAction {
    /// Gate the node off (0 W) — the paper's policy.
    PowerOff,
    /// Hold the node booted-idle at standby power.
    Standby {
        /// `Some(window)`: schedule an idle-expiry check after this
        /// long; `None`: idle indefinitely (no expiry event).
        idle_timeout: Option<SimDuration>,
    },
}

/// The energy-budget governor's verdict on one arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetDecision {
    /// Within budget: dispatch normally.
    Admit,
    /// Over budget: drop the arrival.
    Shed,
    /// Over budget: hold the arrival for this long, then dispatch it.
    Defer(SimDuration),
    /// Over budget: dispatch now but stretch execution by
    /// [`BUDGET_THROTTLE_FACTOR`].
    Throttle,
}

/// Re-check window a warm-pool member waits before asking again whether
/// it may gate off.
const WARM_POOL_RECHECK: SimDuration = SimDuration::from_secs(5);

/// Per-tenant token-bucket state inside [`GovernorKind::EnergyBudget`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct TenantBucket {
    /// Joules in reserve; negative while the tenant is over-drawn.
    balance_j: f64,
    /// Instant of the last refill.
    last: SimTime,
    /// Breach latch for hysteresis.
    breached: bool,
}

impl PolicyEngine {
    /// Whether the full boot window runs between back-to-back jobs.
    /// `configured` is the engine's legacy `reboot_between_jobs` switch
    /// — only [`GovernorKind::RebootPerJob`] honors it (preserving the
    /// historical ablation configs); every other governor exists to
    /// skip that reboot, so they return `false`.
    pub fn reboot_between_jobs(&self, configured: bool) -> bool {
        configured && self.governor == GovernorKind::RebootPerJob
    }

    /// Called when a worker finishes its last queued job. `warm_idle`
    /// counts the booted-idle workers the fleet would have if this one
    /// stayed up (i.e. including this worker).
    pub fn on_drain(&mut self, _now: SimTime, warm_idle: usize) -> DrainAction {
        let standby = |idle_timeout| DrainAction::Standby { idle_timeout };
        match self.governor {
            GovernorKind::RebootPerJob => DrainAction::PowerOff,
            GovernorKind::KeepAlive { idle_timeout } => standby(Some(idle_timeout)),
            GovernorKind::AlwaysOn => standby(None),
            GovernorKind::WarmPool { .. } if warm_idle <= self.warm_reserve() => {
                standby(Some(WARM_POOL_RECHECK))
            }
            GovernorKind::WarmPool { .. } => DrainAction::PowerOff,
            // Node power policy: keep-alive, so the budget loop rather
            // than reboot churn dominates the energy the ledger
            // attributes.
            GovernorKind::EnergyBudget { .. } => standby(Some(DEFAULT_KEEP_ALIVE_TIMEOUT)),
        }
    }

    /// Called when a standby worker's idle window elapses with its
    /// queue still empty: `true` gates the node off. A `false` answer
    /// leaves the node idle with no further expiry scheduled (the pool
    /// shrinks again at later drain/expiry points), which keeps the
    /// event loop finite.
    pub fn gate_on_idle_expiry(&mut self, _now: SimTime, warm_idle: usize) -> bool {
        match self.governor {
            GovernorKind::AlwaysOn => false,
            GovernorKind::WarmPool { .. } => warm_idle > self.warm_reserve(),
            GovernorKind::RebootPerJob
            | GovernorKind::KeepAlive { .. }
            | GovernorKind::EnergyBudget { .. } => true,
        }
    }

    /// Observes an arrival for rate tracking (open loop only). Only
    /// [`GovernorKind::WarmPool`] tracks the rate; it keeps an EWMA of
    /// the inter-arrival gaps.
    pub fn observe_arrival(&mut self, now: SimTime) {
        let GovernorKind::WarmPool { alpha, .. } = self.governor else {
            return;
        };
        if let Some(last) = self.last_arrival {
            let gap = now.duration_since(last).as_secs_f64();
            self.ewma_gap_s = Some(match self.ewma_gap_s {
                Some(ewma) => alpha * gap + (1.0 - alpha) * ewma,
                None => gap,
            });
        }
        self.last_arrival = Some(now);
    }

    /// How many workers the governor wants kept booted-idle right now,
    /// clamped to `workers`. Zero for every governor but
    /// [`GovernorKind::WarmPool`].
    pub fn warm_target(&self, workers: usize) -> usize {
        self.warm_reserve().min(workers)
    }

    /// The warm pool's reserve before clamping to the fleet.
    fn warm_reserve(&self) -> usize {
        let GovernorKind::WarmPool { headroom, .. } = self.governor else {
            return 0;
        };
        match self.ewma_gap_s {
            // ceil(rate x boot x headroom): enough warm nodes for the
            // arrivals expected during one boot window, plus headroom.
            Some(gap) if gap > 0.0 => {
                let rate = 1.0 / gap;
                (rate * SBC_BOOT_SECONDS * headroom).ceil() as usize
            }
            // A burst of simultaneous arrivals (gap 0): want everything
            // warm; the engine clamps to the fleet.
            Some(_) => usize::MAX,
            // No rate estimate yet: no reserve.
            None => 0,
        }
    }

    /// Whether [`PolicyEngine::on_drain`] /
    /// [`PolicyEngine::gate_on_idle_expiry`] actually read their
    /// `warm_idle` argument. Counting booted-idle workers costs the
    /// engine an O(workers) fleet scan per drain, so governors that
    /// ignore the census (every one but [`GovernorKind::WarmPool`])
    /// return `false` here and the engine skips the scan — the
    /// difference between O(1) and O(workers) per job on the
    /// million-event streaming path. When `false`, the engine may pass
    /// any placeholder as `warm_idle`.
    pub fn wants_idle_census(&self) -> bool {
        matches!(self.governor, GovernorKind::WarmPool { .. })
    }

    /// Whether this governor enforces per-tenant energy budgets. When
    /// `false` (every governor but [`GovernorKind::EnergyBudget`]) the
    /// engine skips attribution bookkeeping and budget gating entirely,
    /// keeping default runs bit-identical to pre-budget builds.
    pub fn budget_active(&self) -> bool {
        matches!(self.governor, GovernorKind::EnergyBudget { .. })
    }

    /// Gate one arrival from `tenant` at instant `now`. Only consulted
    /// when [`PolicyEngine::budget_active`] is `true`; every other
    /// governor admits.
    pub fn budget_admit(&mut self, tenant: u16, now: SimTime) -> BudgetDecision {
        let GovernorKind::EnergyBudget {
            cap_w,
            burst_j,
            action,
        } = self.governor
        else {
            return BudgetDecision::Admit;
        };
        let resume = BUDGET_RESUME_FRACTION * burst_j;
        let bucket = self.bucket(tenant, now, cap_w, burst_j);
        if !bucket.breached {
            return BudgetDecision::Admit;
        }
        if bucket.balance_j >= resume {
            bucket.breached = false;
            return BudgetDecision::Admit;
        }
        match action {
            BudgetAction::Shed => BudgetDecision::Shed,
            BudgetAction::Defer => {
                // Hold until the bucket would refill to the resume
                // mark; at least 1 ms so the release event is ordered
                // strictly after this arrival.
                let secs = ((resume - bucket.balance_j) / cap_w).max(0.001);
                BudgetDecision::Defer(SimDuration::from_micros((secs * 1e6).ceil() as u64))
            }
            BudgetAction::Throttle => BudgetDecision::Throttle,
        }
    }

    /// Charges `joules` of attributed energy to `tenant` when one of
    /// its jobs completes. Returns `true` on a *fresh* breach (the
    /// crossing edge, for `budget_breach` trace events), `false`
    /// otherwise — always `false` for every governor but
    /// [`GovernorKind::EnergyBudget`].
    pub fn budget_note_energy(&mut self, tenant: u16, joules: f64, now: SimTime) -> bool {
        let GovernorKind::EnergyBudget { cap_w, burst_j, .. } = self.governor else {
            return false;
        };
        let bucket = self.bucket(tenant, now, cap_w, burst_j);
        bucket.balance_j -= joules;
        if !bucket.breached && bucket.balance_j < 0.0 {
            bucket.breached = true;
            return true;
        }
        false
    }

    /// Refills `tenant`'s bucket through `now` and returns it. Buckets
    /// grow lazily, indexed by tenant id; new tenants start full.
    fn bucket(&mut self, tenant: u16, now: SimTime, cap_w: f64, burst_j: f64) -> &mut TenantBucket {
        let idx = tenant as usize;
        while self.buckets.len() <= idx {
            self.buckets.push(TenantBucket {
                balance_j: burst_j,
                last: SimTime::ZERO,
                breached: false,
            });
        }
        let bucket = &mut self.buckets[idx];
        let elapsed = now.duration_since(bucket.last).as_secs_f64();
        bucket.balance_j = (bucket.balance_j + cap_w * elapsed).min(burst_j);
        bucket.last = now;
        bucket
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlacementKind;

    fn engine(kind: GovernorKind) -> PolicyEngine {
        PolicyEngine::new(PlacementKind::default(), kind, 0)
    }

    #[test]
    fn labels_round_trip_through_from_str() {
        for kind in GovernorKind::ALL {
            assert_eq!(kind.label().parse::<GovernorKind>().unwrap(), kind);
        }
        assert!("mystery".parse::<GovernorKind>().is_err());
    }

    #[test]
    fn reboot_per_job_honors_the_legacy_switches() {
        let gov = engine(GovernorKind::RebootPerJob);
        assert!(gov.reboot_between_jobs(true));
        assert!(!gov.reboot_between_jobs(false));
        let mut gov = engine(GovernorKind::RebootPerJob);
        assert_eq!(gov.on_drain(SimTime::ZERO, 1), DrainAction::PowerOff);
    }

    #[test]
    fn keep_alive_holds_for_its_window_then_gates() {
        let mut gov = engine(GovernorKind::KeepAlive {
            idle_timeout: SimDuration::from_secs(7),
        });
        assert!(!gov.reboot_between_jobs(true));
        assert_eq!(
            gov.on_drain(SimTime::ZERO, 1),
            DrainAction::Standby {
                idle_timeout: Some(SimDuration::from_secs(7)),
            }
        );
        assert!(gov.gate_on_idle_expiry(SimTime::from_secs(7), 1));
    }

    #[test]
    fn always_on_never_gates() {
        let mut gov = engine(GovernorKind::AlwaysOn);
        assert_eq!(
            gov.on_drain(SimTime::ZERO, 5),
            DrainAction::Standby { idle_timeout: None }
        );
        assert!(!gov.gate_on_idle_expiry(SimTime::from_secs(1_000), 10));
    }

    #[test]
    fn warm_pool_sizes_the_reserve_from_the_arrival_rate() {
        let mut gov = engine(GovernorKind::WarmPool {
            alpha: 1.0,
            headroom: 1.5,
        });
        assert_eq!(
            gov.warm_target(usize::MAX),
            0,
            "no estimate before two arrivals"
        );
        // Arrivals 0.5 s apart: rate 2/s -> ceil(2 x 1.51 x 1.5) = 5.
        gov.observe_arrival(SimTime::ZERO);
        gov.observe_arrival(SimTime::from_millis(500));
        assert_eq!(gov.warm_target(usize::MAX), 5);
        // Pool below target: stay warm; above target: gate.
        assert_eq!(
            gov.on_drain(SimTime::from_secs(1), 3),
            DrainAction::Standby {
                idle_timeout: Some(WARM_POOL_RECHECK),
            }
        );
        assert_eq!(
            gov.on_drain(SimTime::from_secs(1), 6),
            DrainAction::PowerOff
        );
        assert!(gov.gate_on_idle_expiry(SimTime::from_secs(2), 6));
        assert!(!gov.gate_on_idle_expiry(SimTime::from_secs(2), 5));
    }

    #[test]
    fn warm_pool_tracks_a_slowing_rate_downward() {
        let mut gov = engine(GovernorKind::WarmPool {
            alpha: 0.5,
            headroom: 1.0,
        });
        gov.observe_arrival(SimTime::ZERO);
        gov.observe_arrival(SimTime::from_millis(250));
        let busy_target = gov.warm_target(usize::MAX);
        for s in 1..40 {
            gov.observe_arrival(SimTime::from_secs(10 * s));
        }
        assert!(gov.warm_target(usize::MAX) < busy_target);
        assert_eq!(
            gov.warm_target(usize::MAX),
            1,
            "10 s gaps still warrant one warm node"
        );
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn warm_pool_rejects_bad_alpha() {
        engine(GovernorKind::WarmPool {
            alpha: 0.0,
            headroom: 1.0,
        });
    }

    #[test]
    fn energy_budget_breaches_and_recovers_with_hysteresis() {
        let mut gov = engine(GovernorKind::EnergyBudget {
            cap_w: 1.0,
            burst_j: 10.0,
            action: BudgetAction::Shed,
        });
        assert!(gov.budget_active());
        // Full bucket: admit, and the first over-draw breaches once.
        assert_eq!(gov.budget_admit(0, SimTime::ZERO), BudgetDecision::Admit);
        assert!(gov.budget_note_energy(0, 12.0, SimTime::ZERO));
        assert!(
            !gov.budget_note_energy(0, 1.0, SimTime::ZERO),
            "breach edge fires once"
        );
        // Balance -3 J, refill 1 J/s: still shedding at t=4 s
        // (balance 1 J < resume mark 5 J)...
        assert_eq!(
            gov.budget_admit(0, SimTime::from_secs(4)),
            BudgetDecision::Shed
        );
        // ...admitted again at t=9 s (balance 6 J >= 5 J).
        assert_eq!(
            gov.budget_admit(0, SimTime::from_secs(9)),
            BudgetDecision::Admit
        );
        // Tenants are independent.
        assert_eq!(gov.budget_admit(3, SimTime::ZERO), BudgetDecision::Admit);
    }

    #[test]
    fn energy_budget_defer_sizes_the_hold_to_the_refill_gap() {
        let mut gov = engine(GovernorKind::EnergyBudget {
            cap_w: 2.0,
            burst_j: 10.0,
            action: BudgetAction::Defer,
        });
        assert!(gov.budget_note_energy(0, 11.0, SimTime::ZERO));
        // Balance -1 J; resume mark 5 J; refill 2 J/s -> 3 s hold.
        assert_eq!(
            gov.budget_admit(0, SimTime::ZERO),
            BudgetDecision::Defer(SimDuration::from_secs(3))
        );
    }

    #[test]
    fn energy_budget_throttle_stretches_execution() {
        let mut gov = engine(GovernorKind::EnergyBudget {
            cap_w: 1.0,
            burst_j: 5.0,
            action: BudgetAction::Throttle,
        });
        assert!(gov.budget_note_energy(0, 6.0, SimTime::ZERO));
        assert_eq!(gov.budget_admit(0, SimTime::ZERO), BudgetDecision::Throttle);
    }

    #[test]
    fn non_budget_governors_always_admit() {
        for kind in [GovernorKind::RebootPerJob, GovernorKind::AlwaysOn] {
            let mut gov = engine(kind);
            assert!(!gov.budget_active());
            assert!(!gov.budget_note_energy(0, 1e9, SimTime::ZERO));
            assert_eq!(gov.budget_admit(0, SimTime::ZERO), BudgetDecision::Admit);
        }
    }

    #[test]
    fn budget_specs_parse_and_reject() {
        assert_eq!(
            parse_budget_spec("0.5,burst=10,action=defer").unwrap(),
            GovernorKind::EnergyBudget {
                cap_w: 0.5,
                burst_j: 10.0,
                action: BudgetAction::Defer,
            }
        );
        assert_eq!(
            parse_budget_spec("2").unwrap(),
            GovernorKind::EnergyBudget {
                cap_w: 2.0,
                burst_j: DEFAULT_BUDGET_BURST_J,
                action: BudgetAction::Shed,
            }
        );
        assert!(parse_budget_spec("").is_err());
        assert!(parse_budget_spec("-1").is_err());
        assert!(parse_budget_spec("1,burst=0").is_err());
        assert!(parse_budget_spec("1,action=explode").is_err());
        assert!(parse_budget_spec("1,bogus=2").is_err());
    }
}
