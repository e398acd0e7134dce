//! The single-board-computer worker node: a finite-state machine over the
//! power states the orchestration plane drives through each worker's
//! PWR_BUT GPIO pin (modeled by the [`crate::gpio`] module).

use std::fmt;

use microfaas_sim::{SimDuration, SimTime};

use crate::boot::{BootPlatform, BootTime};
use crate::power::{SbcPowerModel, Watts};

/// The power/lifecycle state of an SBC worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SbcState {
    /// Fully powered down (the energy-proportional default).
    Off,
    /// Booting the worker OS after power-on.
    Booting,
    /// Booted and waiting for a job.
    Idle,
    /// Running a function to completion (single tenant).
    Executing,
    /// Rebooting between jobs to restore the known-clean state.
    Rebooting,
    /// Down after a fault; draws nothing until the orchestrator
    /// power-cycles it back through a full boot.
    Crashed,
}

impl fmt::Display for SbcState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SbcState::Off => "off",
            SbcState::Booting => "booting",
            SbcState::Idle => "idle",
            SbcState::Executing => "executing",
            SbcState::Rebooting => "rebooting",
            SbcState::Crashed => "crashed",
        };
        write!(f, "{name}")
    }
}

/// Error for an illegal lifecycle transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionError {
    from: SbcState,
    attempted: &'static str,
}

impl fmt::Display for TransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot {} while {}", self.attempted, self.from)
    }
}

impl std::error::Error for TransitionError {}

/// One BeagleBone Black worker node.
///
/// Its boot window is the fully optimized ARM worker OS of the Fig. 1
/// profile ([`crate::boot`]), resolved once at construction: every boot
/// and reboot reads a stored duration. State reads, power draws and
/// transitions are inlinable, since the engines call them on every event.
///
/// # Examples
///
/// ```
/// use microfaas_hw::sbc::{SbcNode, SbcState};
/// use microfaas_sim::SimTime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut node = SbcNode::new(SimTime::ZERO);
/// node.power_on(SimTime::ZERO)?;
/// let ready_at = SimTime::ZERO + node.boot_duration();
/// node.boot_complete(ready_at)?;
/// assert_eq!(node.state(), SbcState::Idle);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SbcNode {
    state: SbcState,
    state_since: SimTime,
    boot_window: SimDuration,
    power_model: SbcPowerModel,
}

impl SbcNode {
    /// Creates a node that starts powered off at `now`, flashed with the
    /// fully optimized ARM worker OS.
    pub fn new(now: SimTime) -> Self {
        SbcNode {
            state: SbcState::Off,
            state_since: now,
            boot_window: BootTime::fully_optimized(BootPlatform::Arm).real,
            power_model: SbcPowerModel,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SbcState {
        self.state
    }

    /// When the node entered its current state: the instant of its last
    /// successful transition, or of its creation.
    pub fn state_since(&self) -> SimTime {
        self.state_since
    }

    /// Wall-clock boot time of the flashed worker OS.
    pub fn boot_duration(&self) -> SimDuration {
        self.boot_window
    }

    /// Instantaneous power draw in the current state.
    pub fn power(&self) -> Watts {
        match self.state {
            SbcState::Off | SbcState::Crashed => self.power_model.off(),
            SbcState::Idle => self.power_model.standby(),
            SbcState::Booting | SbcState::Executing | SbcState::Rebooting => {
                self.power_model.busy()
            }
        }
    }

    #[inline]
    fn transition(&mut self, now: SimTime, next: SbcState) {
        self.state = next;
        self.state_since = now;
    }

    /// The orchestrator asserts PWR_BUT: off → booting.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the node is off.
    #[inline]
    pub fn power_on(&mut self, now: SimTime) -> Result<(), TransitionError> {
        match self.state {
            SbcState::Off => {
                self.transition(now, SbcState::Booting);
                Ok(())
            }
            from => Err(TransitionError {
                from,
                attempted: "power on",
            }),
        }
    }

    /// The worker OS reaches its first network connection: booting → idle.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the node is booting or rebooting.
    #[inline]
    pub fn boot_complete(&mut self, now: SimTime) -> Result<(), TransitionError> {
        match self.state {
            SbcState::Booting | SbcState::Rebooting => {
                self.transition(now, SbcState::Idle);
                Ok(())
            }
            from => Err(TransitionError {
                from,
                attempted: "complete boot",
            }),
        }
    }

    /// A job begins executing: idle → executing.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the node is idle — the
    /// run-to-completion guarantee.
    #[inline]
    pub fn start_job(&mut self, now: SimTime) -> Result<(), TransitionError> {
        match self.state {
            SbcState::Idle => {
                self.transition(now, SbcState::Executing);
                Ok(())
            }
            from => Err(TransitionError {
                from,
                attempted: "start a job",
            }),
        }
    }

    /// The job finishes and the node reboots to a clean state for the
    /// next one: executing → rebooting.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the node is executing.
    #[inline]
    pub fn finish_job_and_reboot(&mut self, now: SimTime) -> Result<(), TransitionError> {
        match self.state {
            SbcState::Executing => {
                self.transition(now, SbcState::Rebooting);
                Ok(())
            }
            from => Err(TransitionError {
                from,
                attempted: "finish a job",
            }),
        }
    }

    /// The job finishes and the queue is empty, so the node powers down:
    /// executing → off.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the node is executing.
    #[inline]
    pub fn finish_job_and_power_off(&mut self, now: SimTime) -> Result<(), TransitionError> {
        match self.state {
            SbcState::Executing => {
                self.transition(now, SbcState::Off);
                Ok(())
            }
            from => Err(TransitionError {
                from,
                attempted: "finish a job",
            }),
        }
    }

    /// The job finishes and a power governor holds the node booted at
    /// standby power instead of gating it: executing → idle. Used by
    /// the `keep-alive`/`always-on`/`warm-pool` governors (the paper's
    /// `reboot-per-job` policy never takes this edge).
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the node is executing.
    #[inline]
    pub fn finish_job_and_standby(&mut self, now: SimTime) -> Result<(), TransitionError> {
        match self.state {
            SbcState::Executing => {
                self.transition(now, SbcState::Idle);
                Ok(())
            }
            from => Err(TransitionError {
                from,
                attempted: "finish a job",
            }),
        }
    }

    /// The orchestrator powers an idle node down: idle → off.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the node is idle.
    #[inline]
    pub fn power_off(&mut self, now: SimTime) -> Result<(), TransitionError> {
        match self.state {
            SbcState::Idle => {
                self.transition(now, SbcState::Off);
                Ok(())
            }
            from => Err(TransitionError {
                from,
                attempted: "power off",
            }),
        }
    }

    /// An injected fault drops the node: any powered state → crashed.
    /// An in-flight job is lost; the orchestrator requeues it.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] if the node is off or already
    /// crashed (there is nothing left to kill).
    pub fn crash(&mut self, now: SimTime) -> Result<(), TransitionError> {
        match self.state {
            SbcState::Booting | SbcState::Idle | SbcState::Executing | SbcState::Rebooting => {
                self.transition(now, SbcState::Crashed);
                Ok(())
            }
            from => Err(TransitionError {
                from,
                attempted: "crash",
            }),
        }
    }

    /// The orchestrator power-cycles a crashed node back to life:
    /// crashed → booting (a full cold boot follows).
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the node is crashed.
    pub fn recover(&mut self, now: SimTime) -> Result<(), TransitionError> {
        match self.state {
            SbcState::Crashed => {
                self.transition(now, SbcState::Booting);
                Ok(())
            }
            from => Err(TransitionError {
                from,
                attempted: "recover",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn full_lifecycle() {
        let mut node = SbcNode::new(at(0));
        assert_eq!(node.state(), SbcState::Off);
        node.power_on(at(1)).expect("off -> booting");
        node.boot_complete(at(3)).expect("booting -> idle");
        node.start_job(at(4)).expect("idle -> executing");
        node.finish_job_and_reboot(at(6))
            .expect("executing -> rebooting");
        node.boot_complete(at(8)).expect("rebooting -> idle");
        node.start_job(at(8)).expect("idle -> executing");
        node.finish_job_and_power_off(at(10))
            .expect("executing -> off");
        assert_eq!(node.state(), SbcState::Off);
        assert_eq!(node.state_since(), at(10));
    }

    #[test]
    fn power_follows_state() {
        let mut node = SbcNode::new(at(0));
        assert_eq!(node.power().value(), 0.0);
        node.power_on(at(0)).expect("on");
        assert_eq!(node.power().value(), 1.96);
        node.boot_complete(at(2)).expect("boot");
        assert_eq!(node.power().value(), 0.128);
        node.start_job(at(3)).expect("start");
        assert_eq!(node.power().value(), 1.96);
    }

    #[test]
    fn illegal_transitions_are_rejected() {
        let mut node = SbcNode::new(at(0));
        assert!(
            node.start_job(at(0)).is_err(),
            "cannot start a job while off"
        );
        assert!(node.boot_complete(at(0)).is_err());
        assert!(node.finish_job_and_reboot(at(0)).is_err());
        node.power_on(at(0)).expect("on");
        assert!(node.power_on(at(1)).is_err(), "double power-on");
        assert!(node.start_job(at(1)).is_err(), "cannot start mid-boot");
    }

    #[test]
    fn run_to_completion_blocks_second_job() {
        let mut node = SbcNode::new(at(0));
        node.power_on(at(0)).expect("on");
        node.boot_complete(at(2)).expect("boot");
        node.start_job(at(3)).expect("first job");
        let err = node.start_job(at(4)).expect_err("single tenancy");
        assert_eq!(err.to_string(), "cannot start a job while executing");
    }

    #[test]
    fn boot_duration_is_the_optimized_os() {
        let node = SbcNode::new(at(0));
        assert_eq!(node.boot_duration(), SimDuration::from_millis(1_510));
    }

    #[test]
    fn crash_drops_the_job_and_recovery_is_a_cold_boot() {
        let mut node = SbcNode::new(at(0));
        node.power_on(at(0)).expect("on");
        node.boot_complete(at(2)).expect("boot");
        node.start_job(at(3)).expect("start");
        node.crash(at(5)).expect("executing -> crashed");
        assert_eq!(node.state(), SbcState::Crashed);
        assert_eq!(node.power().value(), 0.0, "a crashed node draws nothing");
        assert!(node.start_job(at(6)).is_err(), "dead nodes take no work");
        node.recover(at(7)).expect("crashed -> booting");
        assert_eq!(node.state(), SbcState::Booting);
        node.boot_complete(at(9)).expect("booting -> idle");
    }

    #[test]
    fn standby_finish_returns_to_idle_without_a_boot() {
        let mut node = SbcNode::new(at(0));
        node.power_on(at(0)).expect("on");
        node.boot_complete(at(2)).expect("boot");
        node.start_job(at(3)).expect("start");
        node.finish_job_and_standby(at(5))
            .expect("executing -> idle");
        assert_eq!(node.state(), SbcState::Idle);
        assert_eq!(node.power().value(), 0.128, "standby draw");
        // The warm node takes the next job with no boot in between, and
        // a governor may still gate it from idle.
        node.start_job(at(6)).expect("idle -> executing");
        node.finish_job_and_standby(at(8)).expect("finish");
        node.power_off(at(9)).expect("idle -> off");
    }

    #[test]
    fn standby_finish_requires_an_executing_node() {
        let mut node = SbcNode::new(at(0));
        assert!(node.finish_job_and_standby(at(0)).is_err());
        node.power_on(at(0)).expect("on");
        assert!(node.finish_job_and_standby(at(1)).is_err());
    }

    #[test]
    fn crash_needs_a_powered_node() {
        let mut node = SbcNode::new(at(0));
        let err = node.crash(at(0)).expect_err("off nodes cannot crash");
        assert_eq!(err.to_string(), "cannot crash while off");
        assert!(node.recover(at(0)).is_err(), "nothing to recover");
        node.power_on(at(0)).expect("on");
        node.crash(at(1)).expect("booting -> crashed");
        assert!(node.crash(at(2)).is_err(), "already down");
    }
}
