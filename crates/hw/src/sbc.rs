//! The single-board-computer worker node: a finite-state machine over the
//! power states the orchestration plane drives through each worker's
//! PWR_BUT GPIO pin (modeled by the [`crate::gpio`] module).
//!
//! The node runs on the trace's own [`WorkerState`], so the state a node
//! is in is the state a trace reports. Its edges, each one method:
//!
//! | method | from | to |
//! |---|---|---|
//! | [`SbcNode::power_on`] | off | booting |
//! | [`SbcNode::boot_complete`] | booting, rebooting | idle |
//! | [`SbcNode::start_job`] | idle | executing |
//! | [`SbcNode::finish_job_and_reboot`] | executing | rebooting |
//! | [`SbcNode::finish_job_and_power_off`] | executing | off |
//! | [`SbcNode::finish_job_and_standby`] | executing | idle |
//! | [`SbcNode::power_off`] | idle | off |
//! | [`SbcNode::crash`] | booting, idle, executing, rebooting | crashed |
//! | [`SbcNode::recover`] | crashed | booting |
//!
//! Any other move is refused with a [`TransitionError`] and leaves the
//! node where it was.

use std::fmt;

use microfaas_sim::trace::WorkerState::{self, Booting, Crashed, Executing, Idle, Off, Rebooting};
use microfaas_sim::SimDuration;

use crate::boot::{BootPlatform, BootTime};
use crate::power::SbcPowerModel;

/// Error for an illegal lifecycle transition of an SBC or a VM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionError {
    from: WorkerState,
    attempted: &'static str,
}

impl fmt::Display for TransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot {} while {}", self.attempted, self.from)
    }
}

impl std::error::Error for TransitionError {}

/// The one checked step every node model takes: moves `state` to `to`
/// if it is one of `from` and returns the state it left; otherwise
/// leaves it as it was and names the `attempted` move.
#[inline]
pub(crate) fn step(
    state: &mut WorkerState,
    from: &[WorkerState],
    to: WorkerState,
    attempted: &'static str,
) -> Result<WorkerState, TransitionError> {
    let left = *state;
    if !from.contains(&left) {
        return Err(TransitionError {
            from: left,
            attempted,
        });
    }
    *state = to;
    Ok(left)
}

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
/// use microfaas_hw::sbc::SbcNode;
/// use microfaas_sim::trace::WorkerState;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut node = SbcNode::default();
/// node.power_on()?;
/// node.boot_complete()?;
/// assert_eq!(node.state(), WorkerState::Idle);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SbcNode {
    state: WorkerState,
}

impl Default for SbcNode {
    /// A powered-off node.
    fn default() -> Self {
        SbcNode { state: Off }
    }
}

impl SbcNode {
    /// Wall-clock boot time of the worker OS every SBC is flashed with,
    /// folded over the Fig. 1 stage table on each call.
    pub fn boot_duration() -> SimDuration {
        BootTime::fully_optimized(BootPlatform::Arm).real
    }

    /// Current lifecycle state.
    pub fn state(&self) -> WorkerState {
        self.state
    }

    /// Instantaneous power draw in the current state, watts.
    pub fn power(&self) -> f64 {
        match self.state {
            Off | Crashed => SbcPowerModel.off(),
            Idle => SbcPowerModel.standby(),
            Booting | Executing | Rebooting => SbcPowerModel.busy(),
        }
    }

    #[inline]
    fn step(
        &mut self,
        from: &[WorkerState],
        to: WorkerState,
        attempted: &'static str,
    ) -> Result<(), TransitionError> {
        step(&mut self.state, from, to, attempted).map(drop)
    }

    /// The orchestrator asserts PWR_BUT.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the node is off.
    #[inline]
    pub fn power_on(&mut self) -> Result<(), TransitionError> {
        self.step(&[Off], Booting, "power on")
    }

    /// The worker OS reaches its first network connection.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the node is booting or rebooting.
    #[inline]
    pub fn boot_complete(&mut self) -> Result<(), TransitionError> {
        self.step(&[Booting, Rebooting], Idle, "complete boot")
    }

    /// A job begins executing.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the node is idle — the
    /// run-to-completion guarantee.
    #[inline]
    pub fn start_job(&mut self) -> Result<(), TransitionError> {
        self.step(&[Idle], Executing, "start a job")
    }

    /// The job finishes and the node reboots to a clean state for the
    /// next one.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the node is executing.
    #[inline]
    pub fn finish_job_and_reboot(&mut self) -> Result<(), TransitionError> {
        self.step(&[Executing], Rebooting, "finish a job")
    }

    /// The job finishes and the queue is empty, so the node powers down.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the node is executing.
    #[inline]
    pub fn finish_job_and_power_off(&mut self) -> Result<(), TransitionError> {
        self.step(&[Executing], Off, "finish a job")
    }

    /// The job finishes and a power governor holds the node booted at
    /// standby power instead of gating it. Used by the
    /// `keep-alive`/`always-on`/`warm-pool` governors (the paper's
    /// `reboot-per-job` policy never takes this edge).
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the node is executing.
    #[inline]
    pub fn finish_job_and_standby(&mut self) -> Result<(), TransitionError> {
        self.step(&[Executing], Idle, "finish a job")
    }

    /// The orchestrator powers an idle node down.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the node is idle.
    #[inline]
    pub fn power_off(&mut self) -> Result<(), TransitionError> {
        self.step(&[Idle], Off, "power off")
    }

    /// An injected fault drops a powered node. An in-flight job is lost;
    /// the orchestrator requeues it.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] if the node is off or already
    /// crashed (there is nothing left to kill).
    pub fn crash(&mut self) -> Result<(), TransitionError> {
        self.step(&[Booting, Idle, Executing, Rebooting], Crashed, "crash")
    }

    /// The orchestrator power-cycles a crashed node back to life; a full
    /// cold boot follows.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the node is crashed.
    pub fn recover(&mut self) -> Result<(), TransitionError> {
        self.step(&[Crashed], Booting, "recover")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_lifecycle() {
        let mut node = SbcNode::default();
        assert_eq!(node.state(), WorkerState::Off);
        node.power_on().expect("off -> booting");
        node.boot_complete().expect("booting -> idle");
        node.start_job().expect("idle -> executing");
        node.finish_job_and_reboot()
            .expect("executing -> rebooting");
        node.boot_complete().expect("rebooting -> idle");
        node.start_job().expect("idle -> executing");
        node.finish_job_and_power_off().expect("executing -> off");
        assert_eq!(node.state(), WorkerState::Off);
    }

    #[test]
    fn power_follows_state() {
        let mut node = SbcNode::default();
        assert_eq!(node.power(), 0.0);
        node.power_on().expect("on");
        assert_eq!(node.power(), 1.96);
        node.boot_complete().expect("boot");
        assert_eq!(node.power(), 0.128);
        node.start_job().expect("start");
        assert_eq!(node.power(), 1.96);
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
        assert_eq!(node.state(), WorkerState::Crashed);
        assert_eq!(node.power(), 0.0, "a crashed node draws nothing");
        assert!(node.start_job().is_err(), "dead nodes take no work");
        node.recover().expect("crashed -> booting");
        assert_eq!(node.state(), WorkerState::Booting);
        node.boot_complete().expect("booting -> idle");
    }

    #[test]
    fn standby_finish_returns_to_idle_without_a_boot() {
        let mut node = SbcNode::default();
        node.power_on().expect("on");
        node.boot_complete().expect("boot");
        node.start_job().expect("start");
        node.finish_job_and_standby().expect("executing -> idle");
        assert_eq!(node.state(), WorkerState::Idle);
        assert_eq!(node.power(), 0.128, "standby draw");
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
