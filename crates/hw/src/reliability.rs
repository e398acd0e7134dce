//! Fleet reliability: Monte-Carlo failure injection over the 5-year TCO
//! horizon.
//!
//! The paper's footnote 4 contrasts published MTBF figures — 2,320,456 h
//! for a representative SBC (Technologic TS-7800-V2) versus 234,708 h
//! for a server board (Intel S2600CW) — and argues SBC fleets fail less.
//! This module turns that argument into a simulation: exponential
//! time-to-failure per node, a fixed replacement turnaround, and the
//! resulting fleet *online rate* (the OR that Table II's "realistic"
//! scenario fixes at 95%).

use microfaas_sim::Rng;

/// Published MTBF of the Technologic TS-7800-V2 SBC, hours.
const SBC_MTBF_HOURS: f64 = 2_320_456.0;

/// Published MTBF of the Intel Server Board S2600CW, hours.
const SERVER_MTBF_HOURS: f64 = 234_708.0;

/// Parameters of a fleet-reliability simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Number of nodes in the fleet.
    pub nodes: u64,
    /// Mean time between failures per node, hours.
    pub mtbf_hours: f64,
    /// Hours from failure to a replacement being online.
    pub replacement_hours: f64,
    /// Simulation horizon, hours (the TCO model uses 43,200).
    pub horizon_hours: f64,
}

impl FleetSpec {
    /// The paper's 989-SBC rack with a 72-hour replacement turnaround.
    pub fn microfaas_rack() -> Self {
        FleetSpec {
            nodes: 989,
            mtbf_hours: SBC_MTBF_HOURS,
            replacement_hours: 72.0,
            horizon_hours: 43_200.0,
        }
    }

    /// The paper's 41-server rack with the same turnaround.
    pub fn conventional_rack() -> Self {
        FleetSpec {
            nodes: 41,
            mtbf_hours: SERVER_MTBF_HOURS,
            replacement_hours: 72.0,
            horizon_hours: 43_200.0,
        }
    }
}

/// Results of one fleet simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetReliability {
    /// Total failures over the horizon.
    pub failures: u64,
    /// Fraction of node-hours the fleet was online.
    pub online_rate: f64,
    /// Expected failures per year across the fleet.
    pub failures_per_year: f64,
    /// Fraction of the original node count replaced over the horizon.
    pub replaced_fraction: f64,
}

/// Simulates the fleet: each slot draws exponential times-to-failure;
/// every failure costs `replacement_hours` of downtime, after which a
/// fresh node (fresh exponential clock) takes over.
///
/// # Panics
///
/// Panics if any spec field is non-positive.
///
/// # Examples
///
/// ```
/// use microfaas_hw::reliability::{simulate_fleet, FleetSpec};
/// use microfaas_sim::Rng;
///
/// let report = simulate_fleet(&FleetSpec::microfaas_rack(), &mut Rng::new(1));
/// assert!(report.online_rate > 0.99, "SBC fleets are almost always whole");
/// ```
pub fn simulate_fleet(spec: &FleetSpec, rng: &mut Rng) -> FleetReliability {
    assert!(spec.nodes > 0, "fleet needs nodes");
    assert!(
        spec.mtbf_hours > 0.0 && spec.replacement_hours >= 0.0 && spec.horizon_hours > 0.0,
        "reliability parameters must be positive"
    );
    let mut failures = 0u64;
    let mut downtime_hours = 0.0;
    for _ in 0..spec.nodes {
        let mut t = 0.0;
        loop {
            t += rng.exponential(spec.mtbf_hours);
            if t >= spec.horizon_hours {
                break;
            }
            failures += 1;
            let down_until = (t + spec.replacement_hours).min(spec.horizon_hours);
            downtime_hours += down_until - t;
            t = down_until;
        }
    }
    let node_hours = spec.nodes as f64 * spec.horizon_hours;
    FleetReliability {
        failures,
        online_rate: 1.0 - downtime_hours / node_hours,
        failures_per_year: failures as f64 / (spec.horizon_hours / 8_640.0),
        replaced_fraction: failures as f64 / spec.nodes as f64,
    }
}

/// Closed-form expected failures (sanity anchor for the Monte Carlo):
/// `nodes × horizon / MTBF`.
pub fn expected_failures(spec: &FleetSpec) -> f64 {
    spec.nodes as f64 * spec.horizon_hours / spec.mtbf_hours
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monte_carlo_matches_closed_form() {
        // Average over seeds to beat sampling noise.
        let spec = FleetSpec::conventional_rack();
        let total: u64 = (0..40)
            .map(|seed| simulate_fleet(&spec, &mut Rng::new(seed)).failures)
            .sum();
        let mean = total as f64 / 40.0;
        let expected = expected_failures(&spec);
        assert!(
            (mean - expected).abs() < expected * 0.25,
            "mean {mean:.1} vs expected {expected:.1}"
        );
    }

    #[test]
    fn sbc_fleet_fails_less_often_per_node() {
        // 989 SBCs vs 41 servers: despite 24x more nodes, the SBC fleet's
        // per-node failure probability over 5 years is ~10x lower.
        let sbc = FleetSpec::microfaas_rack();
        let server = FleetSpec::conventional_rack();
        let sbc_per_node = expected_failures(&sbc) / sbc.nodes as f64;
        let server_per_node = expected_failures(&server) / server.nodes as f64;
        assert!(sbc_per_node < server_per_node / 9.0);
    }

    #[test]
    fn online_rates_are_high_for_both() {
        let mut rng = Rng::new(7);
        let sbc = simulate_fleet(&FleetSpec::microfaas_rack(), &mut rng);
        let server = simulate_fleet(&FleetSpec::conventional_rack(), &mut rng);
        assert!(sbc.online_rate > 0.999);
        assert!(server.online_rate > 0.99);
        assert!(sbc.online_rate >= server.online_rate);
    }

    #[test]
    fn failure_impact_scales_with_node_granularity() {
        // Losing one node costs 1/989 of a MicroFaaS rack's capacity but
        // 1/41 of a conventional rack's — the blast-radius argument.
        let sbc_blast = 1.0 / FleetSpec::microfaas_rack().nodes as f64;
        let server_blast = 1.0 / FleetSpec::conventional_rack().nodes as f64;
        assert!(sbc_blast < server_blast / 20.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = FleetSpec::conventional_rack();
        let a = simulate_fleet(&spec, &mut Rng::new(3));
        let b = simulate_fleet(&spec, &mut Rng::new(3));
        assert_eq!(a, b);
    }

    #[test]
    fn zero_replacement_time_means_full_uptime() {
        let spec = FleetSpec {
            replacement_hours: 0.0,
            ..FleetSpec::conventional_rack()
        };
        let report = simulate_fleet(&spec, &mut Rng::new(5));
        assert_eq!(report.online_rate, 1.0);
    }

    #[test]
    #[should_panic(expected = "fleet needs nodes")]
    fn empty_fleet_panics() {
        let spec = FleetSpec {
            nodes: 0,
            ..FleetSpec::microfaas_rack()
        };
        simulate_fleet(&spec, &mut Rng::new(0));
    }
}
