//! # microfaas-tco
//!
//! The simplified Cui et al. datacenter total-cost-of-ownership model the
//! paper applies in Table II, reverse-engineered to reproduce all eight
//! published dollar figures within rounding (see `DESIGN.md` §5).
//!
//! Structure (per 5-year single rack):
//!
//! * **compute** = `node_count × node_cost ÷ online_rate` — replacement of
//!   failed nodes is modeled as the ideal cost inflated by the online
//!   rate;
//! * **network** = `⌈node_count / switch_ports⌉ × switch_cost +
//!   node_count × cable_cost`;
//! * **energy** = `price × PUE × (SPUE × Σ node P_avg + Σ switch P) × T`,
//!   with `P_avg = util × P_busy + (1 − util) × P_idle` and
//!   `T = 43,200 h` (5 y × 360 d × 24 h — the only horizon that
//!   reproduces the paper's energy rows exactly).
//!
//! # Examples
//!
//! ```
//! use microfaas_tco::{CostModel, ClusterSpec, Conditions};
//!
//! let model = CostModel::benchmark_datacenter();
//! let ideal = model.evaluate(&ClusterSpec::microfaas_rack(), Conditions::ideal());
//! // Paper Table II: $82,087 total for the ideal MicroFaaS rack.
//! assert!((ideal.total() - 82_087.0).abs() < 25.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Per-node hardware and power characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Acquisition cost per node, USD.
    pub unit_cost: f64,
    /// Draw under load, watts (the appendix's P_ss).
    pub busy_watts: f64,
    /// Draw when idle, watts (P_ss-idle; ≈0.128 W for an SBC that powers
    /// down).
    pub idle_watts: f64,
}

/// A rack-scale cluster to be costed.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Human-readable label used in reports.
    pub name: String,
    /// The node type filling the rack.
    pub node: NodeSpec,
    /// How many nodes.
    pub node_count: u64,
    /// Cost of one top-of-rack switch, USD.
    pub switch_cost: f64,
    /// Draw of one ToR switch, watts.
    pub switch_watts: f64,
    /// Ports per ToR switch (nodes per switch).
    pub switch_ports: u64,
    /// Cabling cost per node, USD (C_core-node).
    pub cable_cost_per_node: f64,
}

impl ClusterSpec {
    /// The paper's conventional rack: 41 mid-range servers
    /// (PowerEdge R6515 at $2,011; 150 W load / 60 W idle) plus one
    /// refurbished 48-port ToR switch.
    pub fn conventional_rack() -> Self {
        ClusterSpec {
            name: "Conventional".to_string(),
            node: NodeSpec {
                unit_cost: 2_011.0,
                busy_watts: 150.0,
                idle_watts: 60.0,
            },
            node_count: 41,
            switch_cost: 500.0,
            switch_watts: 40.87,
            switch_ports: 48,
            cable_cost_per_node: 1.80,
        }
    }

    /// The paper's throughput-equivalent MicroFaaS cluster: 989
    /// BeagleBone Black SBCs ($52.50; 1.96 W busy / 0.128 W idle) and 21
    /// of the same ToR switches.
    pub fn microfaas_rack() -> Self {
        ClusterSpec {
            name: "MicroFaaS".to_string(),
            node: NodeSpec {
                unit_cost: 52.50,
                busy_watts: 1.96,
                idle_watts: 0.128,
            },
            node_count: 989,
            switch_cost: 500.0,
            switch_watts: 40.87,
            switch_ports: 48,
            cable_cost_per_node: 1.80,
        }
    }

    /// A MicroFaaS-style cluster sized for a given throughput ratio: the
    /// paper derives 989 SBCs as throughput-equivalent to 41 fully-loaded
    /// servers, i.e. ≈24.1 SBCs per server.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn microfaas_sized(servers_replaced: u64, sbcs_per_server: f64) -> Self {
        assert!(servers_replaced > 0 && sbcs_per_server > 0.0);
        let mut spec = ClusterSpec::microfaas_rack();
        spec.node_count = (servers_replaced as f64 * sbcs_per_server).round() as u64;
        spec
    }

    /// Number of ToR switches needed (`⌈nodes / ports⌉`).
    pub fn switch_count(&self) -> u64 {
        self.node_count.div_ceil(self.switch_ports)
    }

    /// Meters of Cat6 cable at 6 ft (1.8 m) per node — the paper's
    /// "1.8 kilometers of cabling" aside for the 989-node cluster.
    pub fn cable_meters(&self) -> f64 {
        self.node_count as f64 * 1.8
    }
}

/// Operating conditions for a cost scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Conditions {
    /// Fraction of time each node runs under load (0 to 1).
    pub utilization: f64,
    /// Fraction of nodes online over the horizon (0 to 1]; failures are
    /// replaced, inflating compute cost.
    pub online_rate: f64,
}

impl Conditions {
    /// Table II's "Ideal": 100% utilization, 100% online rate.
    pub fn ideal() -> Self {
        Conditions {
            utilization: 1.0,
            online_rate: 1.0,
        }
    }

    /// Table II's "Realistic": 50% utilization, 95% online rate.
    pub fn realistic() -> Self {
        Conditions {
            utilization: 0.5,
            online_rate: 0.95,
        }
    }

    /// Checks the conditions [`CostModel::evaluate`] panics on.
    ///
    /// # Errors
    ///
    /// Describes the first problem: a utilization outside [0, 1] or an
    /// online rate outside (0, 1], NaN included.
    pub fn try_validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.utilization) {
            return Err(format!(
                "utilization must be in [0, 1], got {}",
                self.utilization
            ));
        }
        if !(self.online_rate > 0.0 && self.online_rate <= 1.0) {
            return Err(format!(
                "online rate must be in (0, 1], got {}",
                self.online_rate
            ));
        }
        Ok(())
    }
}

/// Datacenter-level cost parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Facility power usage effectiveness.
    pub pue: f64,
    /// Server power usage effectiveness (fans, PSU losses).
    pub spue: f64,
    /// Electricity price, USD per kWh.
    pub electricity_per_kwh: f64,
    /// Cost horizon in hours.
    pub horizon_hours: f64,
}

impl CostModel {
    /// Cui et al.'s "benchmark datacenter": PUE 1.3, SPUE 1.2,
    /// $0.10/kWh, over a 5-year (43,200 h) depreciation horizon.
    pub fn benchmark_datacenter() -> Self {
        CostModel {
            pue: 1.3,
            spue: 1.2,
            electricity_per_kwh: 0.10,
            horizon_hours: 43_200.0,
        }
    }

    /// Evaluates the full cost breakdown for a cluster under the given
    /// conditions.
    ///
    /// # Panics
    ///
    /// Panics if `conditions` carry out-of-range fractions.
    pub fn evaluate(&self, cluster: &ClusterSpec, conditions: Conditions) -> CostBreakdown {
        if let Err(problem) = conditions.try_validate() {
            panic!("{problem}");
        }
        let compute = cluster.node_count as f64 * cluster.node.unit_cost / conditions.online_rate;
        let network = cluster.switch_count() as f64 * cluster.switch_cost
            + cluster.node_count as f64 * cluster.cable_cost_per_node;

        let node_avg_watts = conditions.utilization * cluster.node.busy_watts
            + (1.0 - conditions.utilization) * cluster.node.idle_watts;
        let it_watts = self.spue * cluster.node_count as f64 * node_avg_watts
            + cluster.switch_count() as f64 * cluster.switch_watts;
        let kwh = self.pue * it_watts * self.horizon_hours / 1_000.0;
        let energy = kwh * self.electricity_per_kwh;

        CostBreakdown {
            cluster: cluster.name.clone(),
            compute,
            network,
            energy,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::benchmark_datacenter()
    }
}

/// The three expense rows of Table II, plus their total.
#[derive(Debug, Clone, PartialEq)]
pub struct CostBreakdown {
    /// Which cluster this describes.
    pub cluster: String,
    /// Server/SBC acquisition (C_s), USD.
    pub compute: f64,
    /// Switches + cabling (C_n), USD.
    pub network: f64,
    /// Electricity (C_p), USD.
    pub energy: f64,
}

impl CostBreakdown {
    /// Sum of all expense rows.
    pub fn total(&self) -> f64 {
        self.compute + self.network + self.energy
    }
}

impl fmt::Display for CostBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: compute ${:.0} + network ${:.0} + energy ${:.0} = ${:.0}",
            self.cluster,
            self.compute,
            self.network,
            self.energy,
            self.total()
        )
    }
}

/// Convenience: the relative saving of `ours` vs `baseline` in percent
/// (positive means `ours` is cheaper) — the paper's headline
/// 32.5–34.2% TCO reduction.
pub fn savings_percent(baseline: &CostBreakdown, ours: &CostBreakdown) -> f64 {
    (1.0 - ours.total() / baseline.total()) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_near(actual: f64, published: f64, tolerance: f64, what: &str) {
        assert!(
            (actual - published).abs() <= tolerance,
            "{what}: computed ${actual:.1} vs published ${published:.0}"
        );
    }

    #[test]
    fn table_two_conventional_ideal() {
        let model = CostModel::benchmark_datacenter();
        let b = model.evaluate(&ClusterSpec::conventional_rack(), Conditions::ideal());
        assert_near(b.compute, 82_451.0, 1.0, "conventional ideal compute");
        assert_near(b.network, 574.0, 1.0, "conventional ideal network");
        assert_near(b.energy, 41_676.0, 2.0, "conventional ideal energy");
        assert_near(b.total(), 124_701.0, 3.0, "conventional ideal total");
    }

    #[test]
    fn table_two_conventional_realistic() {
        let model = CostModel::benchmark_datacenter();
        let b = model.evaluate(&ClusterSpec::conventional_rack(), Conditions::realistic());
        assert_near(b.compute, 86_791.0, 2.0, "conventional realistic compute");
        assert_near(b.network, 574.0, 1.0, "conventional realistic network");
        assert_near(b.energy, 29_242.0, 2.0, "conventional realistic energy");
        assert_near(b.total(), 116_607.0, 4.0, "conventional realistic total");
    }

    #[test]
    fn table_two_microfaas_ideal() {
        let model = CostModel::benchmark_datacenter();
        let b = model.evaluate(&ClusterSpec::microfaas_rack(), Conditions::ideal());
        assert_near(b.compute, 51_923.0, 1.0, "microfaas ideal compute");
        assert_near(b.network, 12_280.0, 1.0, "microfaas ideal network");
        assert_near(b.energy, 17_884.0, 2.0, "microfaas ideal energy");
        assert_near(b.total(), 82_087.0, 3.0, "microfaas ideal total");
    }

    #[test]
    fn table_two_microfaas_realistic() {
        let model = CostModel::benchmark_datacenter();
        let b = model.evaluate(&ClusterSpec::microfaas_rack(), Conditions::realistic());
        assert_near(b.compute, 54_655.0, 2.0, "microfaas realistic compute");
        assert_near(b.network, 12_280.0, 1.0, "microfaas realistic network");
        assert_near(b.energy, 11_778.0, 2.0, "microfaas realistic energy");
        assert_near(b.total(), 78_713.0, 4.0, "microfaas realistic total");
    }

    #[test]
    fn headline_savings_range() {
        let model = CostModel::benchmark_datacenter();
        let ideal = savings_percent(
            &model.evaluate(&ClusterSpec::conventional_rack(), Conditions::ideal()),
            &model.evaluate(&ClusterSpec::microfaas_rack(), Conditions::ideal()),
        );
        let realistic = savings_percent(
            &model.evaluate(&ClusterSpec::conventional_rack(), Conditions::realistic()),
            &model.evaluate(&ClusterSpec::microfaas_rack(), Conditions::realistic()),
        );
        // The paper reports 32.5%–34.2% savings.
        assert!((34.2 - ideal).abs() < 0.2, "ideal savings {ideal:.1}%");
        assert!(
            (32.5 - realistic).abs() < 0.2,
            "realistic savings {realistic:.1}%"
        );
    }

    #[test]
    fn switch_counts_match_paper() {
        assert_eq!(ClusterSpec::conventional_rack().switch_count(), 1);
        assert_eq!(ClusterSpec::microfaas_rack().switch_count(), 21);
    }

    #[test]
    fn cabling_is_about_1_8_kilometers() {
        let meters = ClusterSpec::microfaas_rack().cable_meters();
        assert!((meters - 1_780.2).abs() < 1.0, "got {meters} m");
    }

    #[test]
    fn sized_cluster_reproduces_989() {
        let spec = ClusterSpec::microfaas_sized(41, 989.0 / 41.0);
        assert_eq!(spec.node_count, 989);
    }

    #[test]
    fn idle_sbc_energy_is_negligible() {
        // At 0% utilization the SBC rack's energy is dominated by the
        // 21 switches, not the 989 near-zero-idle nodes.
        let model = CostModel::benchmark_datacenter();
        let b = model.evaluate(
            &ClusterSpec::microfaas_rack(),
            Conditions {
                utilization: 0.0,
                online_rate: 1.0,
            },
        );
        let switch_only =
            model.pue * 21.0 * 40.87 * model.horizon_hours / 1_000.0 * model.electricity_per_kwh;
        assert!(
            b.energy < switch_only * 1.2,
            "nodes add < 20% over switches"
        );
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn out_of_range_conditions_panic() {
        CostModel::benchmark_datacenter().evaluate(
            &ClusterSpec::microfaas_rack(),
            Conditions {
                utilization: 1.5,
                online_rate: 1.0,
            },
        );
    }

    #[test]
    fn display_formats_rows() {
        let model = CostModel::benchmark_datacenter();
        let b = model.evaluate(&ClusterSpec::conventional_rack(), Conditions::ideal());
        let text = b.to_string();
        assert!(text.starts_with("Conventional: compute $82451"));
    }
}
