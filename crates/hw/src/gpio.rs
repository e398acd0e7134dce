//! The GPIO power-control harness between the orchestration-plane SBC and
//! each worker's PWR_BUT pin (paper §IV-D).
//!
//! Electrically, the orchestrator pulls a worker's power-button line low
//! for a debounce interval to toggle it on or off. The model keeps the
//! two things a run reads: the actuation latency of a power-on and one
//! running total of power-ons over the whole bank. Which line was
//! pressed, and every power-off, is the engines' trace stream, not this
//! type: `WakeRequested` marks every power-on and
//! `WorkerStateChange { state: Off }` every power-off.

use microfaas_sim::{SimDuration, SimTime};

/// Hold time for a press to register (button debounce).
const DEBOUNCE: SimDuration = SimDuration::from_millis(50);

/// The orchestrator's bank of GPIO lines, one per worker.
///
/// # Examples
///
/// ```
/// use microfaas_hw::gpio::PowerController;
/// use microfaas_sim::SimTime;
///
/// let mut gpio = PowerController::default();
/// let effective = gpio.power_on(SimTime::ZERO);
/// assert!(effective > SimTime::ZERO, "debounce takes non-zero time");
/// gpio.power_on(effective);
/// assert_eq!(gpio.power_cycles(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PowerController {
    power_cycles: u64,
}

impl PowerController {
    /// Presses a worker's PWR_BUT at `now` to power it on; returns when
    /// the press takes electrical effect.
    #[inline]
    pub fn power_on(&mut self, now: SimTime) -> SimTime {
        self.power_cycles += 1;
        now + DEBOUNCE
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
        let mut gpio = PowerController::default();
        let effective = gpio.power_on(SimTime::from_secs(1));
        assert_eq!(effective, SimTime::from_secs(1) + DEBOUNCE);
        gpio.power_on(effective);
        assert_eq!(gpio.power_cycles(), 2);
    }
}
