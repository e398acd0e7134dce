//! The GPIO power-control harness between the orchestration-plane SBC and
//! each worker's PWR_BUT pin (paper §IV-D).
//!
//! Electrically, the orchestrator pulls a worker's power-button line low
//! for a debounce interval to toggle it on or off. The model captures the
//! two things the simulator cares about: the actuation latency and a
//! running count of power-ons per line, kept in O(1) per actuation. The
//! audit record of individual actions is the engines' trace stream, not
//! this type: `WakeRequested` marks every power-on and
//! `WorkerStateChange { state: Off }` every power-off.

use std::fmt;

use microfaas_sim::{SimDuration, SimTime};

/// A power action the orchestrator can request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerAction {
    /// Press PWR_BUT to power the worker on.
    On,
    /// Press PWR_BUT to power the worker off.
    Off,
}

impl fmt::Display for PowerAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerAction::On => write!(f, "on"),
            PowerAction::Off => write!(f, "off"),
        }
    }
}

/// The orchestrator's bank of GPIO lines, one per worker.
///
/// # Examples
///
/// ```
/// use microfaas_hw::gpio::{PowerAction, PowerController};
/// use microfaas_sim::SimTime;
///
/// let mut gpio = PowerController::new(10);
/// let effective = gpio.actuate(SimTime::ZERO, 3, PowerAction::On);
/// assert!(effective > SimTime::ZERO, "debounce takes non-zero time");
/// gpio.actuate(effective, 3, PowerAction::Off);
/// assert_eq!(gpio.power_on_count(3), 1);
/// assert_eq!(gpio.power_cycles(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PowerController {
    power_ons: Vec<u64>,
    power_cycles: u64,
}

impl PowerController {
    /// A controller wired to `workers` PWR_BUT pins.
    pub fn new(workers: usize) -> Self {
        PowerController {
            power_ons: vec![0; workers],
            power_cycles: 0,
        }
    }

    /// Hold time for a press to register (button debounce).
    pub fn debounce(&self) -> SimDuration {
        SimDuration::from_millis(50)
    }

    /// Asserts a worker's pin at `now`; returns when the action takes
    /// electrical effect.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is not wired to this controller.
    #[inline]
    pub fn actuate(&mut self, now: SimTime, worker: usize, action: PowerAction) -> SimTime {
        assert!(
            worker < self.power_ons.len(),
            "worker {worker} is not wired (controller has {} lines)",
            self.power_ons.len()
        );
        if action == PowerAction::On {
            self.power_ons[worker] += 1;
            self.power_cycles += 1;
        }
        now + self.debounce()
    }

    /// Count of power-on actuations for one worker.
    pub fn power_on_count(&self, worker: usize) -> u64 {
        self.power_ons[worker]
    }

    /// Count of power-on actuations over every worker.
    pub fn power_cycles(&self) -> u64 {
        self.power_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actuation_is_counted_with_latency() {
        let mut gpio = PowerController::new(2);
        let effective = gpio.actuate(SimTime::from_secs(1), 0, PowerAction::On);
        assert_eq!(effective, SimTime::from_secs(1) + gpio.debounce());
        assert_eq!(gpio.power_on_count(0), 1);
        assert_eq!(gpio.power_on_count(1), 0);
        assert_eq!(gpio.power_cycles(), 1);
    }

    #[test]
    fn per_worker_counts() {
        let mut gpio = PowerController::new(3);
        gpio.actuate(SimTime::ZERO, 1, PowerAction::On);
        gpio.actuate(SimTime::from_secs(1), 1, PowerAction::Off);
        gpio.actuate(SimTime::from_secs(2), 1, PowerAction::On);
        gpio.actuate(SimTime::from_secs(2), 2, PowerAction::On);
        assert_eq!(gpio.power_on_count(1), 2);
        assert_eq!(gpio.power_on_count(2), 1);
        assert_eq!(gpio.power_on_count(0), 0);
        assert_eq!(gpio.power_cycles(), 3);
    }

    #[test]
    #[should_panic(expected = "not wired")]
    fn unwired_pin_panics() {
        PowerController::new(1).actuate(SimTime::ZERO, 5, PowerAction::On);
    }
}
