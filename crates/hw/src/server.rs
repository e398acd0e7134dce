//! The conventional cluster's hardware: one rack server hosting QEMU
//! microVM workers, with CPU contention and the linear utilization→power
//! model of the paper's Fig. 4/5.
//!
//! Each VM runs on the trace's own [`WorkerState`], through the same
//! checked step as an SBC ([`crate::sbc`]). A VM starts idle and is
//! never off or booting; its edges, each one [`RackServer`] method:
//!
//! | method | from | to |
//! |---|---|---|
//! | [`RackServer::start_job`] | idle | executing |
//! | [`RackServer::finish_job`] | executing | rebooting |
//! | [`RackServer::reboot_complete`] | rebooting | idle |
//! | [`RackServer::crash_vm`] | idle, executing, rebooting | crashed |
//! | [`RackServer::respawn_vm`] | crashed | rebooting |
//!
//! Any other move is refused with a [`TransitionError`] and leaves the VM
//! where it was.

use microfaas_sim::trace::WorkerState::{self, Crashed, Executing, Idle, Rebooting};
use microfaas_sim::SimDuration;

use crate::boot::{BootPlatform, BootTime};
use crate::power::ServerPowerModel;
use crate::sbc::{step, TransitionError};

/// CPU cores a busy VM cycle consumes on the host.
///
/// Derived in `DESIGN.md` §4: a VM's job cycle is mostly CPU (exec +
/// reboot) with some network wait, so the 12-core Opteron saturates near
/// 16 VMs — which reproduces the paper's ≈16.1 J/function peak efficiency.
pub const CPU_SHARE_PER_BUSY_VM: f64 = 0.75;

/// RAM in the evaluation server (16 GB), MB.
const HOST_MEMORY_MB: usize = 16 * 1024;

/// RAM allocated to each microVM (512 MB, matching the SBC), MB.
const VM_MEMORY_MB: usize = 512;

/// The most VMs the host's RAM admits once the host OS keeps its ~1 GB.
pub const MAX_VMS: usize = (HOST_MEMORY_MB - 1024) / VM_MEMORY_MB;

/// Whether a VM in `state` occupies host CPU. A crashed VM's process is
/// gone, so its CPU share flows back to the survivors.
fn is_busy(state: WorkerState) -> bool {
    matches!(state, Executing | Rebooting)
}

/// The rack server hosting the conventional cluster's VMs (1 vCPU,
/// 512 MB and a bridged virtio NIC each).
///
/// Modeled after the evaluation machine: a Thinkmate RAX with a 12-core
/// AMD Opteron 6172 and 16 GB of RAM.
///
/// What the engines read on every event is kept current instead of
/// recomputed: the VMs' boot window is the fully optimized x86 worker OS
/// of the Fig. 1 profile ([`crate::boot`]), resolved once at
/// construction, and the busy-VM count behind [`RackServer::power`] and
/// [`RackServer::current_slowdown`] moves with every VM transition.
///
/// # Examples
///
/// ```
/// use microfaas_hw::server::RackServer;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut server = RackServer::new(6);
/// server.start_job(0)?;
/// assert!(server.power() > 60.0, "a busy VM raises draw above idle");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RackServer {
    vms: Vec<WorkerState>,
    /// VMs executing or rebooting; every transition that enters or
    /// leaves those states updates it.
    busy: usize,
    vm_boot_window: SimDuration,
}

impl RackServer {
    /// Cores in the evaluation server's Opteron 6172.
    const CORES: f64 = 12.0;

    /// Hosts `vm_count` idle microVMs on the 12-core evaluation server.
    ///
    /// # Panics
    ///
    /// Panics if `vm_count` is zero or above [`MAX_VMS`], where the VMs'
    /// combined RAM reservation exceeds the host's 16 GB.
    pub fn new(vm_count: usize) -> Self {
        assert!(vm_count > 0, "a cluster needs at least one VM");
        assert!(
            vm_count <= MAX_VMS,
            "{vm_count} VMs x {VM_MEMORY_MB} MB exceed the host's {HOST_MEMORY_MB} MB \
             (max {MAX_VMS})"
        );
        RackServer {
            vms: vec![Idle; vm_count],
            busy: 0,
            vm_boot_window: BootTime::fully_optimized(BootPlatform::X86).real,
        }
    }

    /// Number of hosted VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// The lifecycle state of VM `vm`.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    pub fn state(&self, vm: usize) -> WorkerState {
        self.vms[vm]
    }

    /// VMs currently occupying host CPU (executing or rebooting).
    pub fn busy_vms(&self) -> usize {
        debug_assert_eq!(
            self.busy,
            self.vms.iter().filter(|&&state| is_busy(state)).count(),
            "the busy-VM count drifted from the VMs' states"
        );
        self.busy
    }

    /// Wall-clock boot time of the x86 worker OS inside a microVM.
    pub fn vm_boot_duration(&self) -> SimDuration {
        self.vm_boot_window
    }

    /// Instantaneous host draw for the current busy-VM count, watts.
    pub fn power(&self) -> f64 {
        ServerPowerModel.draw(self.busy_vms())
    }

    /// CPU-contention slowdown factor (≥ 1) if `busy` VMs run at once:
    /// 1.0 until the aggregate demand exceeds the core count, then
    /// proportional stretching.
    pub fn slowdown(&self, busy: usize) -> f64 {
        let demand = busy as f64 * CPU_SHARE_PER_BUSY_VM;
        (demand / Self::CORES).max(1.0)
    }

    /// The current slowdown given the live busy count.
    pub fn current_slowdown(&self) -> f64 {
        self.slowdown(self.busy_vms())
    }

    /// Moves `vm` through [`step`] and the busy count with it.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    #[inline]
    fn step(
        &mut self,
        vm: usize,
        from: &[WorkerState],
        to: WorkerState,
        attempted: &'static str,
    ) -> Result<(), TransitionError> {
        let left = step(&mut self.vms[vm], from, to, attempted)?;
        self.busy = self.busy + usize::from(is_busy(to)) - usize::from(is_busy(left));
        Ok(())
    }

    /// Starts a job on `vm`.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the VM is idle.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    pub fn start_job(&mut self, vm: usize) -> Result<(), TransitionError> {
        self.step(vm, &[Idle], Executing, "start a job")
    }

    /// Finishes a job and begins the between-jobs reboot.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the VM is executing.
    pub fn finish_job(&mut self, vm: usize) -> Result<(), TransitionError> {
        self.step(vm, &[Executing], Rebooting, "finish a job")
    }

    /// Completes the reboot.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the VM is rebooting.
    pub fn reboot_complete(&mut self, vm: usize) -> Result<(), TransitionError> {
        self.step(vm, &[Rebooting], Idle, "complete a reboot")
    }

    /// An injected fault kills `vm`'s QEMU process. An in-flight job is
    /// lost (not counted) and the VM's CPU share immediately rebalances
    /// to the surviving workers.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] if the VM is already crashed.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    pub fn crash_vm(&mut self, vm: usize) -> Result<(), TransitionError> {
        self.step(vm, &[Idle, Executing, Rebooting], Crashed, "crash")
    }

    /// The orchestrator spawns a replacement QEMU process for a crashed
    /// VM. The respawn occupies CPU until [`RackServer::reboot_complete`],
    /// like any other boot — callers model the extra process-spawn cost
    /// as a longer boot window.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] unless the VM is crashed.
    pub fn respawn_vm(&mut self, vm: usize) -> Result<(), TransitionError> {
        self.step(vm, &[Crashed], Rebooting, "respawn")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_scales_with_busy_vms() {
        let mut server = RackServer::new(6);
        assert_eq!(server.power(), 60.0);
        for vm in 0..6 {
            server.start_job(vm).expect("start");
        }
        assert!((server.power() - 112.8).abs() < 1e-9);
    }

    #[test]
    fn no_contention_below_core_count() {
        let server = RackServer::new(6);
        assert_eq!(server.slowdown(6), 1.0);
        assert_eq!(server.slowdown(16), 1.0);
        // 17 busy VMs x 0.75 = 12.75 cores demanded of 12.
        assert!(server.slowdown(17) > 1.0);
    }

    #[test]
    fn saturation_point_is_sixteen_vms() {
        let server = RackServer::new(20);
        assert_eq!(server.slowdown(16), 1.0, "16 VMs exactly fill 12 cores");
        let s20 = server.slowdown(20);
        assert!(
            (s20 - 1.25).abs() < 1e-9,
            "20 x 0.75 / 12 = 1.25, got {s20}"
        );
    }

    #[test]
    fn vm_lifecycle_walks_execute_reboot_idle() {
        let mut server = RackServer::new(2);
        server.start_job(0).expect("start");
        assert_eq!(server.state(0), WorkerState::Executing);
        server.finish_job(0).expect("finish");
        assert_eq!(server.state(0), WorkerState::Rebooting);
        server.reboot_complete(0).expect("reboot");
        assert_eq!(server.state(0), WorkerState::Idle);
        assert_eq!(
            server.state(1),
            WorkerState::Idle,
            "the other VM never moved"
        );
    }

    #[test]
    fn rebooting_vm_still_occupies_cpu() {
        let mut server = RackServer::new(1);
        server.start_job(0).expect("start");
        server.finish_job(0).expect("finish");
        assert_eq!(server.state(0), WorkerState::Rebooting);
        assert_eq!(server.busy_vms(), 1, "reboot burns CPU");
        assert!(server.power() > 60.0);
    }

    #[test]
    fn illegal_vm_transitions_rejected() {
        let mut server = RackServer::new(1);
        assert!(server.finish_job(0).is_err());
        assert!(server.reboot_complete(0).is_err());
        server.start_job(0).expect("start");
        let err = server.start_job(0).expect_err("busy");
        assert_eq!(err.to_string(), "cannot start a job while executing");
    }

    #[test]
    fn x86_worker_os_boot_time() {
        let server = RackServer::new(1);
        assert_eq!(server.vm_boot_duration(), SimDuration::from_millis(960));
    }

    #[test]
    #[should_panic(expected = "at least one VM")]
    fn zero_vms_panics() {
        RackServer::new(0);
    }

    #[test]
    fn memory_admits_thirty_vms() {
        // (16 GB - 1 GB host) / 512 MB = 30 VMs.
        assert_eq!(MAX_VMS, 30);
        let server = RackServer::new(30);
        assert_eq!(server.vm_count(), 30);
    }

    #[test]
    #[should_panic(expected = "exceed the host's")]
    fn overcommitted_memory_panics() {
        RackServer::new(31);
    }

    #[test]
    fn crashed_vm_frees_its_cpu_share() {
        let mut server = RackServer::new(2);
        server.start_job(0).expect("start");
        server.start_job(1).expect("start");
        assert_eq!(server.busy_vms(), 2);
        server.crash_vm(1).expect("crash");
        assert_eq!(server.state(1), WorkerState::Crashed);
        assert_eq!(server.busy_vms(), 1, "dead QEMU burns no CPU");
        assert!(
            server.finish_job(1).is_err(),
            "the in-flight job is lost, not completed"
        );
        assert!(server.start_job(1).is_err(), "crashed VMs take no work");
        assert!(server.crash_vm(1).is_err());
    }

    #[test]
    fn respawn_goes_through_a_reboot_window() {
        let mut server = RackServer::new(1);
        assert!(server.respawn_vm(0).is_err(), "only crashed VMs respawn");
        server.crash_vm(0).expect("crash idle VM");
        server.respawn_vm(0).expect("respawn");
        assert_eq!(server.state(0), WorkerState::Rebooting);
        assert_eq!(server.busy_vms(), 1, "the respawn burns CPU like a boot");
        server.reboot_complete(0).expect("respawn finishes");
        assert_eq!(server.state(0), WorkerState::Idle);
    }
}
