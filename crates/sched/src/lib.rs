//! # microfaas-sched
//!
//! The pluggable scheduling subsystem of the MicroFaaS reproduction:
//! placement policies (which worker gets the next invocation) and power
//! governors (what a drained node does with its power state), plus the
//! Pareto-front helper behind the `policy_sweep_cached_jobs` latency-energy
//! explorer. See `docs/SCHEDULING.md` at the repository root for the
//! full handbook.
//!
//! The paper's configuration — [`PlacementKind::WorkConserving`] or
//! [`PlacementKind::RandomStatic`] placement under the
//! [`GovernorKind::RebootPerJob`] governor — is the default everywhere,
//! and runs under it are bit-identical to the pre-subsystem code (a
//! property test pins this against drift).
//!
//! ## Determinism
//!
//! Policies follow the `sim/src/faults.rs` discipline: anything
//! stochastic draws from a dedicated seeded stream owned by
//! [`PolicyEngine`], never from the simulation RNG — with one
//! deliberate exception. The ported legacy [`PlacementKind::RandomStatic`]
//! keeps its historical draws on the *simulation* stream, because
//! moving them would shift every subsequent jitter draw and break
//! bit-compatibility with the paper-calibrated goldens. The four new
//! placements and all five governors are deterministic and draw
//! nothing.
//!
//! # Examples
//!
//! ```
//! use microfaas_sched::{NodeView, PlacementKind, PolicyEngine, GovernorKind};
//! use microfaas_sim::Rng;
//!
//! let mut engine = PolicyEngine::new(
//!     PlacementKind::LeastLoaded,
//!     GovernorKind::AlwaysOn,
//!     42,
//! );
//! let views = [
//!     NodeView { queued: 3, busy: true, powered: true, load: 4.0 },
//!     NodeView { queued: 0, busy: false, powered: true, load: 0.0 },
//! ];
//! let mut sim_rng = Rng::new(7);
//! assert_eq!(engine.place(&views, &mut sim_rng), 1);
//! assert!(!engine.reboot_between_jobs(true), "always-on skips reboots");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod governor;
pub mod pareto;
pub mod placement;

pub use governor::{
    governor, parse_budget_spec, BudgetAction, BudgetDecision, DrainAction, Governor, GovernorKind,
    BUDGET_RESUME_FRACTION, BUDGET_THROTTLE_FACTOR, DEFAULT_BUDGET_BURST_J, DEFAULT_BUDGET_CAP_W,
    DEFAULT_KEEP_ALIVE_TIMEOUT, DEFAULT_WARM_POOL_ALPHA, DEFAULT_WARM_POOL_HEADROOM,
    SBC_BOOT_SECONDS,
};
pub use pareto::{edp_winner, pareto_front};
pub use placement::{
    placement, NodeView, Placement, PlacementKind, PolicyParseError, CACHE_AFFINE_SPILL_BACKLOG,
    POWER_AWARE_WAKE_BACKLOG,
};

use microfaas_sim::{Rng, SimTime};

/// Salt mixed into the run seed for the subsystem's private RNG stream,
/// so policy draws can never collide with the simulation stream derived
/// from the same seed.
const POLICY_STREAM_SALT: u64 = 0x5343_4845_445f_5247; // "SCHED_RG"

/// One run's scheduling state: a boxed placement policy, a boxed
/// governor, and the subsystem's private RNG stream.
///
/// Engines hold exactly one of these per run. Both policies are trait
/// objects on purpose — the ISSUE's bench (`benches/sched_overhead.rs`)
/// guards that the dynamic dispatch adds no measurable cost to the
/// event-loop hot path.
pub struct PolicyEngine {
    placement_kind: PlacementKind,
    governor_kind: GovernorKind,
    placement: Box<dyn Placement + Send>,
    governor: Box<dyn Governor + Send>,
    /// The dedicated policy stream (the `faults.rs` discipline). Only
    /// non-legacy stochastic policies may draw from it; today none do,
    /// but the stream is seeded and threaded so adding one cannot
    /// perturb the simulation stream.
    policy_rng: Rng,
}

impl PolicyEngine {
    /// Builds the engine for one run. `seed` is the run seed; the
    /// private policy stream is derived from it with a fixed salt.
    pub fn new(placement_kind: PlacementKind, governor_kind: GovernorKind, seed: u64) -> Self {
        PolicyEngine {
            placement_kind,
            governor_kind,
            placement: placement(placement_kind),
            governor: governor(governor_kind),
            policy_rng: Rng::new(seed ^ POLICY_STREAM_SALT),
        }
    }

    /// The configured placement kind.
    pub fn placement_kind(&self) -> PlacementKind {
        self.placement_kind
    }

    /// The configured governor kind.
    pub fn governor_kind(&self) -> GovernorKind {
        self.governor_kind
    }

    /// Whether this configuration is the legacy default surface: a
    /// ported legacy placement under [`GovernorKind::RebootPerJob`].
    /// Engines keep scheduler telemetry (trace events, `sched_*`
    /// metrics) silent in that case so default traces and Prometheus
    /// expositions stay byte-identical to the pre-subsystem code.
    pub fn is_legacy_default(&self) -> bool {
        self.placement_kind.is_legacy_assignment()
            && self.governor_kind == GovernorKind::RebootPerJob
    }

    /// Places the next job. Routes the legacy
    /// [`PlacementKind::RandomStatic`] at the simulation stream
    /// (`sim_rng`) to preserve its historical draw sites; every other
    /// policy gets the private policy stream.
    pub fn place(&mut self, views: &[NodeView], sim_rng: &mut Rng) -> usize {
        if self.placement_kind.is_legacy_assignment() {
            self.placement.place(views, sim_rng)
        } else {
            self.placement.place(views, &mut self.policy_rng)
        }
    }

    /// Places the next job given its content-cache key, with the same
    /// legacy-vs-policy RNG routing as [`PolicyEngine::place`]. Only
    /// [`PlacementKind::CacheAffine`] reads the key.
    pub fn place_keyed(&mut self, key: u64, views: &[NodeView], sim_rng: &mut Rng) -> usize {
        if self.placement_kind.is_legacy_assignment() {
            self.placement.place_keyed(key, views, sim_rng)
        } else {
            self.placement.place_keyed(key, views, &mut self.policy_rng)
        }
    }

    /// See [`Governor::reboot_between_jobs`].
    pub fn reboot_between_jobs(&self, configured: bool) -> bool {
        self.governor.reboot_between_jobs(configured)
    }

    /// See [`Governor::on_drain`].
    pub fn on_drain(&mut self, now: SimTime, warm_idle: usize) -> DrainAction {
        self.governor.on_drain(now, warm_idle)
    }

    /// See [`Governor::gate_on_idle_expiry`].
    pub fn gate_on_idle_expiry(&mut self, now: SimTime, warm_idle: usize) -> bool {
        self.governor.gate_on_idle_expiry(now, warm_idle)
    }

    /// See [`Governor::observe_arrival`].
    pub fn observe_arrival(&mut self, now: SimTime) {
        self.governor.observe_arrival(now);
    }

    /// The governor's booted-idle reserve target, clamped to `workers`.
    pub fn warm_target(&self, workers: usize) -> usize {
        self.governor.warm_target().min(workers)
    }

    /// See [`Governor::wants_idle_census`]. When `false`, the engine may
    /// pass any placeholder as `warm_idle` — the governor never reads it.
    pub fn wants_idle_census(&self) -> bool {
        self.governor.wants_idle_census()
    }

    /// See [`Governor::budget_active`]. When `false`, the engine skips
    /// energy attribution and budget gating entirely.
    pub fn budget_active(&self) -> bool {
        self.governor.budget_active()
    }

    /// See [`Governor::budget_admit`].
    pub fn budget_admit(&mut self, tenant: u16, now: SimTime) -> BudgetDecision {
        self.governor.budget_admit(tenant, now)
    }

    /// See [`Governor::budget_note_energy`].
    pub fn budget_note_energy(&mut self, tenant: u16, joules: f64, now: SimTime) -> bool {
        self.governor.budget_note_energy(tenant, joules, now)
    }
}

impl std::fmt::Debug for PolicyEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyEngine")
            .field("placement", &self.placement_kind)
            .field("governor", &self.governor_kind)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_default_detection() {
        for placement_kind in PlacementKind::ALL {
            for governor_kind in GovernorKind::ALL {
                let engine = PolicyEngine::new(placement_kind, governor_kind, 1);
                assert_eq!(
                    engine.is_legacy_default(),
                    placement_kind.is_legacy_assignment()
                        && governor_kind == GovernorKind::RebootPerJob,
                );
            }
        }
    }

    #[test]
    fn random_static_draws_come_from_the_simulation_stream() {
        let views = [NodeView {
            queued: 0,
            busy: false,
            powered: false,
            load: 0.0,
        }; 5];
        let mut engine =
            PolicyEngine::new(PlacementKind::RandomStatic, GovernorKind::RebootPerJob, 123);
        let mut sim_rng = Rng::new(77);
        let mut reference = Rng::new(77);
        for _ in 0..32 {
            assert_eq!(engine.place(&views, &mut sim_rng), reference.index(5));
        }
    }

    #[test]
    fn deterministic_placements_leave_the_simulation_stream_untouched() {
        let views = [NodeView {
            queued: 0,
            busy: false,
            powered: false,
            load: 0.0,
        }; 5];
        for kind in [
            PlacementKind::LeastLoaded,
            PlacementKind::JoinShortestQueue,
            PlacementKind::WarmFirst,
            PlacementKind::PowerAware,
        ] {
            let mut engine = PolicyEngine::new(kind, GovernorKind::RebootPerJob, 123);
            let mut sim_rng = Rng::new(77);
            for _ in 0..8 {
                engine.place(&views, &mut sim_rng);
            }
            let mut untouched = Rng::new(77);
            assert_eq!(
                sim_rng.next_u64(),
                untouched.next_u64(),
                "{kind}: simulation stream must not advance"
            );
        }
    }

    #[test]
    fn warm_target_clamps_to_the_fleet() {
        let mut engine = PolicyEngine::new(
            PlacementKind::WarmFirst,
            GovernorKind::WarmPool {
                alpha: 1.0,
                headroom: 10.0,
            },
            5,
        );
        engine.observe_arrival(SimTime::ZERO);
        engine.observe_arrival(SimTime::from_millis(100));
        assert_eq!(engine.warm_target(10), 10);
        assert_eq!(engine.warm_target(3), 3);
    }
}
