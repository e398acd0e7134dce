//! # microfaas-energy
//!
//! Power metering and energy accounting — the simulated counterpart of
//! the *WattsUp Pro* meter the paper wired in front of each cluster.
//!
//! An [`EnergyMeter`] tracks one power channel per device, integrates the
//! total draw exactly over simulated time, and produces the two numbers
//! the evaluation revolves around: total joules and joules per function.
//!
//! # Examples
//!
//! ```
//! use microfaas_energy::EnergyMeter;
//! use microfaas_sim::SimTime;
//!
//! let mut meter = EnergyMeter::new(SimTime::ZERO);
//! let node = meter.add_channel("sbc-0");
//! meter.set_power(SimTime::ZERO, node, 1.96);          // busy
//! meter.set_power(SimTime::from_secs(3), node, 0.0);   // powered off
//! let report = meter.report(SimTime::from_secs(10), 1);
//! assert!((report.total_joules - 5.88).abs() < 1e-9);  // 1.96 W x 3 s
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;

use std::fmt::{self, Write};

use microfaas_sim::{SimTime, TimeWeighted};

/// Identifies one metered power channel (one device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelId(usize);

/// A multi-channel power meter with exact piecewise-constant integration.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    start: SimTime,
    /// One integrator per channel: the 32 B record every power update
    /// touches, two to a cache line.
    channels: Vec<TimeWeighted>,
    /// Every channel's name, one after another, read only when
    /// publishing: one allocation for the whole fleet.
    names: String,
    /// Where each channel's name ends in `names`.
    name_ends: Vec<u32>,
}

impl EnergyMeter {
    /// Creates a meter that starts integrating at `start`, with no
    /// channels attached.
    pub fn new(start: SimTime) -> Self {
        EnergyMeter {
            start,
            channels: Vec::new(),
            names: String::new(),
            name_ends: Vec::new(),
        }
    }

    /// Attaches a new channel (initially drawing 0 W) and returns its id.
    /// The name is written straight into the meter's one name buffer, so
    /// `format_args!("sbc-{w}")` names a channel with no allocation of
    /// its own.
    ///
    /// # Panics
    ///
    /// Panics if the names of all channels pass 4 GiB.
    pub fn add_channel(&mut self, name: impl fmt::Display) -> ChannelId {
        self.channels.push(TimeWeighted::new(self.start, 0.0));
        write!(self.names, "{name}").expect("writing to a String cannot fail");
        let end = u32::try_from(self.names.len()).expect("channel names fit in 4 GiB");
        self.name_ends.push(end);
        ChannelId(self.channels.len() - 1)
    }

    /// Updates a channel's draw (watts) at instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the channel's previous update, if `watts`
    /// is negative or non-finite, or if `channel` is foreign.
    #[inline]
    pub fn set_power(&mut self, at: SimTime, channel: ChannelId, watts: f64) {
        assert!(
            watts.is_finite() && watts >= 0.0,
            "power must be a non-negative finite number of watts, got {watts}"
        );
        self.channels[channel.0].set(at, watts);
    }

    /// A channel's current draw.
    pub fn power(&self, channel: ChannelId) -> f64 {
        self.channels[channel.0].value()
    }

    /// The whole meter's integrated energy from the start through
    /// `until` — the sum of every channel's integral, the figure the
    /// windowed telemetry energy column must total to.
    ///
    /// # Examples
    ///
    /// ```
    /// use microfaas_energy::EnergyMeter;
    /// use microfaas_sim::SimTime;
    ///
    /// let mut meter = EnergyMeter::new(SimTime::ZERO);
    /// let a = meter.add_channel("sbc-0");
    /// let b = meter.add_channel("sbc-1");
    /// meter.set_power(SimTime::ZERO, a, 2.0);
    /// meter.set_power(SimTime::ZERO, b, 3.0);
    /// assert_eq!(meter.total_joules(SimTime::from_secs(10)), 50.0);
    /// ```
    pub fn total_joules(&self, until: SimTime) -> f64 {
        self.channels.iter().map(|c| c.integral(until)).sum()
    }

    /// Publishes one `{prefix}_channel_joules{channel="..."}` gauge per
    /// channel into `metrics`, integrated up to `until`.
    ///
    /// # Examples
    ///
    /// ```
    /// use microfaas_energy::EnergyMeter;
    /// use microfaas_sim::metrics::MetricsRegistry;
    /// use microfaas_sim::SimTime;
    ///
    /// let mut meter = EnergyMeter::new(SimTime::ZERO);
    /// let node = meter.add_channel("sbc-0");
    /// meter.set_power(SimTime::ZERO, node, 2.0);
    ///
    /// let mut metrics = MetricsRegistry::new();
    /// meter.publish_metrics(&mut metrics, "micro", SimTime::from_secs(3));
    /// assert!(metrics
    ///     .render_prometheus()
    ///     .contains("micro_channel_joules{channel=\"sbc-0\"} 6"));
    /// ```
    pub fn publish_metrics(
        &self,
        metrics: &mut microfaas_sim::MetricsRegistry,
        prefix: &str,
        until: SimTime,
    ) {
        let mut start = 0;
        for (channel, &end) in self.channels.iter().zip(&self.name_ends) {
            let name = &self.names[start..end as usize];
            start = end as usize;
            let name = format!("{prefix}_channel_joules{{channel=\"{name}\"}}");
            let gauge = metrics.gauge(&name);
            metrics.set_gauge(gauge, channel.integral(until));
        }
    }

    /// Snapshot of the whole meter at `until`.
    pub fn report(&self, until: SimTime, functions_completed: u64) -> EnergyReport {
        let total_joules: f64 = self.channels.iter().map(|c| c.integral(until)).sum();
        let elapsed = until.duration_since(self.start).as_secs_f64();
        EnergyReport {
            total_joules,
            elapsed_seconds: elapsed,
            average_watts: if elapsed > 0.0 {
                total_joules / elapsed
            } else {
                0.0
            },
            functions_completed,
        }
    }
}

/// The meter's summary, mirroring what the paper reads off the WattsUp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Total energy consumed, in joules.
    pub total_joules: f64,
    /// Metering window, in seconds.
    pub elapsed_seconds: f64,
    /// Time-averaged draw, in watts.
    pub average_watts: f64,
    /// Functions the cluster completed during the window.
    pub functions_completed: u64,
}

impl EnergyReport {
    /// Joules per completed function — the paper's headline efficiency
    /// metric (5.7 J for MicroFaaS vs 32.0 J conventional).
    ///
    /// Returns `None` if nothing completed.
    pub fn joules_per_function(&self) -> Option<f64> {
        (self.functions_completed > 0).then(|| self.total_joules / self.functions_completed as f64)
    }

    /// Completed functions per minute.
    pub fn functions_per_minute(&self) -> f64 {
        if self.elapsed_seconds > 0.0 {
            self.functions_completed as f64 * 60.0 / self.elapsed_seconds
        } else {
            0.0
        }
    }
}

impl fmt::Display for EnergyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} J over {:.1} s ({:.2} W avg, {} functions",
            self.total_joules, self.elapsed_seconds, self.average_watts, self.functions_completed
        )?;
        if let Some(jpf) = self.joules_per_function() {
            write!(f, ", {jpf:.2} J/function")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_step_changes_exactly() {
        let mut meter = EnergyMeter::new(SimTime::ZERO);
        let ch = meter.add_channel("dev");
        meter.set_power(SimTime::ZERO, ch, 10.0);
        meter.set_power(SimTime::from_secs(5), ch, 2.0);
        // 10 W x 5 s + 2 W x 5 s = 60 J
        let report = meter.report(SimTime::from_secs(10), 0);
        assert_eq!(report.total_joules, 60.0);
        assert_eq!(report.average_watts, 6.0);
    }

    #[test]
    fn channels_sum_independently() {
        let mut meter = EnergyMeter::new(SimTime::ZERO);
        let a = meter.add_channel("a");
        let b = meter.add_channel("b");
        meter.set_power(SimTime::ZERO, a, 1.0);
        meter.set_power(SimTime::from_secs(2), b, 3.0);
        let until = SimTime::from_secs(4);
        assert_eq!(meter.channels[a.0].integral(until), 4.0);
        assert_eq!(meter.channels[b.0].integral(until), 6.0);
        assert_eq!(meter.report(until, 0).total_joules, 10.0);
    }

    #[test]
    fn joules_per_function() {
        let mut meter = EnergyMeter::new(SimTime::ZERO);
        let ch = meter.add_channel("cluster");
        meter.set_power(SimTime::ZERO, ch, 19.6);
        let report = meter.report(SimTime::from_secs(60), 200);
        assert!((report.joules_per_function().expect("jobs ran") - 5.88).abs() < 1e-9);
        assert_eq!(report.functions_per_minute(), 200.0);
    }

    #[test]
    fn no_functions_means_no_ratio() {
        let meter = EnergyMeter::new(SimTime::ZERO);
        let report = meter.report(SimTime::from_secs(1), 0);
        assert_eq!(report.joules_per_function(), None);
    }

    #[test]
    fn power_is_the_live_draw() {
        let mut meter = EnergyMeter::new(SimTime::ZERO);
        let a = meter.add_channel("a");
        let b = meter.add_channel("b");
        meter.set_power(SimTime::ZERO, a, 1.5);
        meter.set_power(SimTime::ZERO, b, 2.5);
        assert_eq!(meter.power(a) + meter.power(b), 4.0);
        assert_eq!(meter.power(a), 1.5);
    }

    #[test]
    fn names_round_trip() {
        let mut meter = EnergyMeter::new(SimTime::ZERO);
        meter.add_channel("sbc-7");
        meter.add_channel(format_args!("sbc-{}", 10));
        let mut metrics = microfaas_sim::MetricsRegistry::new();
        meter.publish_metrics(&mut metrics, "m", SimTime::ZERO);
        let rows = metrics.flatten();
        assert_eq!(
            rows,
            [
                ("m_channel_joules{channel=\"sbc-7\"}".to_string(), 0.0),
                ("m_channel_joules{channel=\"sbc-10\"}".to_string(), 0.0)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_power_rejected() {
        let mut meter = EnergyMeter::new(SimTime::ZERO);
        let ch = meter.add_channel("bad");
        meter.set_power(SimTime::ZERO, ch, -1.0);
    }

    #[test]
    fn report_displays_summary() {
        let mut meter = EnergyMeter::new(SimTime::ZERO);
        let ch = meter.add_channel("c");
        meter.set_power(SimTime::ZERO, ch, 2.0);
        let text = meter.report(SimTime::from_secs(10), 4).to_string();
        assert!(text.contains("20.0 J"));
        assert!(text.contains("J/function"));
    }

    #[test]
    fn empty_window_average_is_zero() {
        let meter = EnergyMeter::new(SimTime::from_secs(5));
        let report = meter.report(SimTime::from_secs(5), 0);
        assert_eq!(report.average_watts, 0.0);
    }
}
