//! # microfaas-sched
//!
//! The scheduling subsystem of the MicroFaaS reproduction: placement
//! policies ([`PlacementKind`]: which worker gets the next invocation)
//! and power governors ([`GovernorKind`]: what a drained node does with
//! its power state), plus the Pareto-front helper behind the
//! `policy_sweep_cached_jobs` latency-energy explorer. Each policy is
//! written once, as a `match` arm: [`PlacementKind::place`] picks a
//! worker, and [`PolicyEngine`], the one runtime policy type both
//! engines hold, keeps the governor's state and answers its decisions.
//! See `docs/SCHEDULING.md` at the repository root for the full
//! handbook.
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
//! bit-compatibility with the paper-calibrated goldens. The other six
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
    parse_budget_spec, BudgetAction, BudgetDecision, DrainAction, GovernorKind,
    BUDGET_RESUME_FRACTION, BUDGET_THROTTLE_FACTOR, DEFAULT_BUDGET_BURST_J, DEFAULT_BUDGET_CAP_W,
    DEFAULT_KEEP_ALIVE_TIMEOUT, DEFAULT_WARM_POOL_ALPHA, DEFAULT_WARM_POOL_HEADROOM,
    SBC_BOOT_SECONDS,
};
pub use pareto::{edp_winner, pareto_front};
pub use placement::{
    NodeView, PlacementKind, PolicyParseError, CACHE_AFFINE_SPILL_BACKLOG, POWER_AWARE_WAKE_BACKLOG,
};

use governor::TenantBucket;
use microfaas_sim::{Rng, SimTime};

/// Salt mixed into the run seed for the subsystem's private RNG stream,
/// so policy draws can never collide with the simulation stream derived
/// from the same seed.
const POLICY_STREAM_SALT: u64 = 0x5343_4845_445f_5247; // "SCHED_RG"

/// One run's scheduling state: the placement and governor kinds, the
/// governor's state, and the subsystem's private RNG stream.
///
/// Engines hold exactly one of these per run. Placement is
/// [`PlacementKind::place`]; each governor decision (the methods in
/// [`governor`]) is one `match` on the [`GovernorKind`].
#[derive(Debug)]
pub struct PolicyEngine {
    placement: PlacementKind,
    governor: GovernorKind,
    /// [`GovernorKind::WarmPool`]: EWMA of inter-arrival gaps in
    /// seconds; `None` until two arrivals have been seen.
    ewma_gap_s: Option<f64>,
    last_arrival: Option<SimTime>,
    /// [`GovernorKind::EnergyBudget`]: per-tenant token buckets.
    buckets: Vec<TenantBucket>,
    /// The dedicated policy stream (the `faults.rs` discipline). Only
    /// non-legacy stochastic policies may draw from it; today none do,
    /// but the stream is seeded and threaded so adding one cannot
    /// perturb the simulation stream.
    policy_rng: Rng,
}

impl PolicyEngine {
    /// Builds the engine for one run. `seed` is the run seed; the
    /// private policy stream is derived from it with a fixed salt.
    ///
    /// # Panics
    ///
    /// Panics if a [`GovernorKind::WarmPool`] parameter is out of range
    /// (`alpha` outside `(0, 1]` or non-positive `headroom`), or if an
    /// [`GovernorKind::EnergyBudget`] cap or burst is non-positive.
    pub fn new(placement: PlacementKind, governor: GovernorKind, seed: u64) -> Self {
        match governor {
            GovernorKind::WarmPool { alpha, headroom } => {
                assert!(alpha > 0.0 && alpha <= 1.0, "warm-pool alpha in (0, 1]");
                assert!(headroom > 0.0, "warm-pool headroom must be positive");
            }
            GovernorKind::EnergyBudget { cap_w, burst_j, .. } => {
                assert!(
                    cap_w.is_finite() && cap_w > 0.0,
                    "energy-budget cap must be positive watts"
                );
                assert!(
                    burst_j.is_finite() && burst_j > 0.0,
                    "energy-budget burst must be positive joules"
                );
            }
            _ => {}
        }
        PolicyEngine {
            placement,
            governor,
            ewma_gap_s: None,
            last_arrival: None,
            buckets: Vec::new(),
            policy_rng: Rng::new(seed ^ POLICY_STREAM_SALT),
        }
    }

    /// Places the next job. Routes the legacy
    /// [`PlacementKind::RandomStatic`] at the simulation stream
    /// (`sim_rng`) to preserve its historical draw sites; every other
    /// policy gets the private policy stream.
    pub fn place(&mut self, views: &[NodeView], sim_rng: &mut Rng) -> usize {
        self.place_with(None, views, sim_rng)
    }

    /// Places the next job given its content-cache key, with the same
    /// RNG routing as [`PolicyEngine::place`]. Only
    /// [`PlacementKind::CacheAffine`] reads the key.
    pub fn place_keyed(&mut self, key: u64, views: &[NodeView], sim_rng: &mut Rng) -> usize {
        self.place_with(Some(key), views, sim_rng)
    }

    fn place_with(&mut self, key: Option<u64>, views: &[NodeView], sim_rng: &mut Rng) -> usize {
        let rng = if self.placement == PlacementKind::RandomStatic {
            sim_rng
        } else {
            &mut self.policy_rng
        };
        self.placement.place(key, views, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn every_policy_label_opens_a_row_of_the_handbook_tables() {
        let handbook = include_str!("../../../docs/SCHEDULING.md");
        let placements = PlacementKind::ALL.map(PlacementKind::label);
        let governors = GovernorKind::ALL.map(GovernorKind::label);
        for label in placements.into_iter().chain(governors) {
            let row = format!("| `{label}`");
            assert!(
                handbook.lines().any(|line| line.starts_with(&row)),
                "docs/SCHEDULING.md has no table row for `{label}`"
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
