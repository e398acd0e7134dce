//! The single-board-computer worker node: a finite-state machine over the
//! power states the orchestration plane drives through each worker's
//! PWR_BUT GPIO pin (modeled by the [`crate::gpio`] module).

use std::fmt;

use microfaas_sim::SimDuration;

use crate::boot::{BootPlatform, BootTime};
use crate::power::{SbcPowerModel, Watts};

/// The power/lifecycle state of an SBC worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SbcState {
    /// Fully powered down (the energy-proportional default).
    #[default]
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

/// One BeagleBone Black worker node: its lifecycle state, one byte. A
/// node starts powered off ([`SbcNode::default`]).
///
/// Every SBC boots the same fully optimized ARM worker OS of the Fig. 1
/// profile ([`crate::boot`]), so the boot window is not per node: a
/// fleet resolves [`SbcNode::boot_duration`] once and reads the stored
/// window on every boot and reboot. State reads, power draws and
/// transitions are inlinable, since the engines call them on every event.
///
/// # Examples
///
/// ```
/// use microfaas_hw::sbc::{SbcNode, SbcState};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut node = SbcNode::default();
/// node.power_on()?;
/// node.boot_complete()?;
/// assert_eq!(node.state(), SbcState::Idle);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SbcNode {
    state: SbcState,
}

impl SbcNode {
    /// Wall-clock boot time of the worker OS every SBC is flashed with,
    /// folded over the Fig. 1 stage table on each call.
    pub fn boot_duration() -> SimDuration {
        BootTime::fully_optimized(BootPlatform::Arm).real
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SbcState {
        self.state
    }

    /// Instantaneous power draw in the current state.
    pub fn power(&self) -> Watts {
        match self.state {
            SbcState::Off | SbcState::Crashed => SbcPowerModel.off(),
            SbcState::Idle => SbcPowerModel.standby(),
            SbcState::Booting | SbcState::Executing | SbcState::Rebooting => SbcPowerModel.busy(),
        }
    }

    /// The orchestrator asserts PWR_BUT: off → booting.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the node is off.
    #[inline]
    pub fn power_on(&mut self) -> Result<(), TransitionError> {
        match self.state {
            SbcState::Off => {
                self.state = SbcState::Booting;
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
    pub fn boot_complete(&mut self) -> Result<(), TransitionError> {
        match self.state {
            SbcState::Booting | SbcState::Rebooting => {
                self.state = SbcState::Idle;
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
    pub fn start_job(&mut self) -> Result<(), TransitionError> {
        match self.state {
            SbcState::Idle => {
                self.state = SbcState::Executing;
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
    pub fn finish_job_and_reboot(&mut self) -> Result<(), TransitionError> {
        match self.state {
            SbcState::Executing => {
                self.state = SbcState::Rebooting;
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
    pub fn finish_job_and_power_off(&mut self) -> Result<(), TransitionError> {
        match self.state {
            SbcState::Executing => {
                self.state = SbcState::Off;
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
    pub fn finish_job_and_standby(&mut self) -> Result<(), TransitionError> {
        match self.state {
            SbcState::Executing => {
                self.state = SbcState::Idle;
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
    pub fn power_off(&mut self) -> Result<(), TransitionError> {
        match self.state {
            SbcState::Idle => {
                self.state = SbcState::Off;
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
    pub fn crash(&mut self) -> Result<(), TransitionError> {
        match self.state {
            SbcState::Booting | SbcState::Idle | SbcState::Executing | SbcState::Rebooting => {
                self.state = SbcState::Crashed;
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
    pub fn recover(&mut self) -> Result<(), TransitionError> {
        match self.state {
            SbcState::Crashed => {
                self.state = SbcState::Booting;
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

    #[test]
    fn full_lifecycle() {
        let mut node = SbcNode::default();
        assert_eq!(node.state(), SbcState::Off);
        node.power_on().expect("off -> booting");
        node.boot_complete().expect("booting -> idle");
        node.start_job().expect("idle -> executing");
        node.finish_job_and_reboot()
            .expect("executing -> rebooting");
        node.boot_complete().expect("rebooting -> idle");
        node.start_job().expect("idle -> executing");
        node.finish_job_and_power_off().expect("executing -> off");
        assert_eq!(node.state(), SbcState::Off);
    }

    #[test]
    fn power_follows_state() {
        let mut node = SbcNode::default();
        assert_eq!(node.power().value(), 0.0);
        node.power_on().expect("on");
        assert_eq!(node.power().value(), 1.96);
        node.boot_complete().expect("boot");
        assert_eq!(node.power().value(), 0.128);
        node.start_job().expect("start");
        assert_eq!(node.power().value(), 1.96);
    }

    #[test]
    fn illegal_transitions_are_rejected() {
        let mut node = SbcNode::default();
        assert!(node.start_job().is_err(), "cannot start a job while off");
        assert!(node.boot_complete().is_err());
        assert!(node.finish_job_and_reboot().is_err());
        node.power_on().expect("on");
        assert!(node.power_on().is_err(), "double power-on");
        assert!(node.start_job().is_err(), "cannot start mid-boot");
    }

    #[test]
    fn run_to_completion_blocks_second_job() {
        let mut node = SbcNode::default();
        node.power_on().expect("on");
        node.boot_complete().expect("boot");
        node.start_job().expect("first job");
        let err = node.start_job().expect_err("single tenancy");
        assert_eq!(err.to_string(), "cannot start a job while executing");
    }

    #[test]
    fn boot_duration_is_the_optimized_os() {
        assert_eq!(SbcNode::boot_duration(), SimDuration::from_millis(1_510));
    }

    #[test]
    fn crash_drops_the_job_and_recovery_is_a_cold_boot() {
        let mut node = SbcNode::default();
        node.power_on().expect("on");
        node.boot_complete().expect("boot");
        node.start_job().expect("start");
        node.crash().expect("executing -> crashed");
        assert_eq!(node.state(), SbcState::Crashed);
        assert_eq!(node.power().value(), 0.0, "a crashed node draws nothing");
        assert!(node.start_job().is_err(), "dead nodes take no work");
        node.recover().expect("crashed -> booting");
        assert_eq!(node.state(), SbcState::Booting);
        node.boot_complete().expect("booting -> idle");
    }

    #[test]
    fn standby_finish_returns_to_idle_without_a_boot() {
        let mut node = SbcNode::default();
        node.power_on().expect("on");
        node.boot_complete().expect("boot");
        node.start_job().expect("start");
        node.finish_job_and_standby().expect("executing -> idle");
        assert_eq!(node.state(), SbcState::Idle);
        assert_eq!(node.power().value(), 0.128, "standby draw");
        // The warm node takes the next job with no boot in between, and
        // a governor may still gate it from idle.
        node.start_job().expect("idle -> executing");
        node.finish_job_and_standby().expect("finish");
        node.power_off().expect("idle -> off");
    }

    #[test]
    fn standby_finish_requires_an_executing_node() {
        let mut node = SbcNode::default();
        assert!(node.finish_job_and_standby().is_err());
        node.power_on().expect("on");
        assert!(node.finish_job_and_standby().is_err());
    }

    #[test]
    fn crash_needs_a_powered_node() {
        let mut node = SbcNode::default();
        let err = node.crash().expect_err("off nodes cannot crash");
        assert_eq!(err.to_string(), "cannot crash while off");
        assert!(node.recover().is_err(), "nothing to recover");
        node.power_on().expect("on");
        node.crash().expect("booting -> crashed");
        assert!(node.crash().is_err(), "already down");
    }
}
