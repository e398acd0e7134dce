//! The conventional cluster's hardware: one rack server hosting QEMU
//! microVM workers, with CPU contention and the linear utilization→power
//! model of the paper's Fig. 4/5.

use std::fmt;

use microfaas_sim::SimDuration;

use crate::boot::{BootPlatform, BootTime};
use crate::power::{ServerPowerModel, Watts};

/// CPU cores a busy VM cycle consumes on the host.
///
/// Derived in `DESIGN.md` §4: a VM's job cycle is mostly CPU (exec +
/// reboot) with some network wait, so the 12-core Opteron saturates near
/// 16 VMs — which reproduces the paper's ≈16.1 J/function peak efficiency.
pub const CPU_SHARE_PER_BUSY_VM: f64 = 0.75;

/// Lifecycle state of one microVM worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmState {
    /// Waiting for a job (vCPU halted).
    Idle,
    /// Running a function.
    Executing,
    /// Rebooting its worker OS between jobs.
    Rebooting,
    /// The QEMU process died; the VM burns no CPU until respawned.
    Crashed,
}

impl fmt::Display for VmState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            VmState::Idle => "idle",
            VmState::Executing => "executing",
            VmState::Rebooting => "rebooting",
            VmState::Crashed => "crashed",
        };
        write!(f, "{name}")
    }
}

/// One QEMU microVM worker (1 vCPU, 512 MB, bridged virtio NIC).
#[derive(Debug, Clone)]
pub struct VmWorker {
    state: VmState,
}

impl VmWorker {
    /// Current state.
    pub fn state(&self) -> VmState {
        self.state
    }

    /// Whether the VM currently occupies host CPU. A crashed VM's
    /// process is gone, so its CPU share flows back to the survivors.
    pub fn is_busy(&self) -> bool {
        !matches!(self.state, VmState::Idle | VmState::Crashed)
    }
}

/// Error for an illegal VM transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmTransitionError {
    vm: usize,
    from: VmState,
    attempted: &'static str,
}

impl fmt::Display for VmTransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vm {} cannot {} while {}",
            self.vm, self.attempted, self.from
        )
    }
}

impl std::error::Error for VmTransitionError {}

/// The rack server hosting the conventional cluster's VMs.
///
/// Modeled after the evaluation machine: a Thinkmate RAX with a 12-core
/// AMD Opteron 6172 and 16 GB of RAM.
///
/// What the engines read on every event is kept current instead of
/// recomputed: the VMs' boot window is the fully optimized x86 worker OS
/// of the Fig. 1 profile ([`crate::boot`]), resolved once at
/// construction, and the busy-VM count behind [`RackServer::power`] and
/// [`RackServer::current_slowdown`] is updated by each VM transition.
///
/// # Examples
///
/// ```
/// use microfaas_hw::server::RackServer;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut server = RackServer::new(6);
/// server.start_job(0)?;
/// assert!(server.power().value() > 60.0, "a busy VM raises draw above idle");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RackServer {
    vms: Vec<VmWorker>,
    /// VMs executing or rebooting; every transition that enters or
    /// leaves those states updates it.
    busy: usize,
    vm_boot_window: SimDuration,
}

impl RackServer {
    /// Cores in the evaluation server's Opteron 6172.
    const CORES: f64 = 12.0;

    /// RAM in the evaluation server (16 GB), MB.
    const HOST_MEMORY_MB: usize = 16 * 1024;

    /// RAM allocated to each microVM (512 MB, matching the SBC), MB.
    const VM_MEMORY_MB: usize = 512;

    /// The largest VM count the host's RAM admits (the OS keeps ~1 GB).
    fn max_vms() -> usize {
        (Self::HOST_MEMORY_MB - 1024) / Self::VM_MEMORY_MB
    }

    /// Hosts `vm_count` microVMs on the 12-core evaluation server.
    ///
    /// # Panics
    ///
    /// Panics if `vm_count` is zero or the VMs' combined RAM reservation
    /// exceeds the host's 16 GB.
    pub fn new(vm_count: usize) -> Self {
        assert!(vm_count > 0, "a cluster needs at least one VM");
        assert!(
            vm_count <= Self::max_vms(),
            "{vm_count} VMs x {} MB exceed the host's {} MB (max {})",
            Self::VM_MEMORY_MB,
            Self::HOST_MEMORY_MB,
            Self::max_vms()
        );
        RackServer {
            vms: vec![
                VmWorker {
                    state: VmState::Idle
                };
                vm_count
            ],
            busy: 0,
            vm_boot_window: BootTime::fully_optimized(BootPlatform::X86).real,
        }
    }

    /// Number of hosted VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Immutable view of one VM.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    pub fn vm(&self, vm: usize) -> &VmWorker {
        &self.vms[vm]
    }

    /// VMs currently occupying host CPU (executing or rebooting).
    pub fn busy_vms(&self) -> usize {
        debug_assert_eq!(
            self.busy,
            self.vms.iter().filter(|v| v.is_busy()).count(),
            "the busy-VM count drifted from the VMs' states"
        );
        self.busy
    }

    /// Wall-clock boot time of the x86 worker OS inside a microVM.
    pub fn vm_boot_duration(&self) -> SimDuration {
        self.vm_boot_window
    }

    /// Instantaneous host draw for the current busy-VM count.
    pub fn power(&self) -> Watts {
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

    /// Starts a job on `vm`: idle → executing.
    ///
    /// # Errors
    ///
    /// Returns [`VmTransitionError`] unless the VM is idle.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    pub fn start_job(&mut self, vm: usize) -> Result<(), VmTransitionError> {
        let worker = &mut self.vms[vm];
        match worker.state {
            VmState::Idle => {
                worker.state = VmState::Executing;
                self.busy += 1;
                Ok(())
            }
            from => Err(VmTransitionError {
                vm,
                from,
                attempted: "start a job",
            }),
        }
    }

    /// Finishes a job and begins the between-jobs reboot:
    /// executing → rebooting.
    ///
    /// # Errors
    ///
    /// Returns [`VmTransitionError`] unless the VM is executing.
    pub fn finish_job(&mut self, vm: usize) -> Result<(), VmTransitionError> {
        let worker = &mut self.vms[vm];
        match worker.state {
            VmState::Executing => {
                worker.state = VmState::Rebooting;
                Ok(())
            }
            from => Err(VmTransitionError {
                vm,
                from,
                attempted: "finish a job",
            }),
        }
    }

    /// Completes the reboot: rebooting → idle.
    ///
    /// # Errors
    ///
    /// Returns [`VmTransitionError`] unless the VM is rebooting.
    pub fn reboot_complete(&mut self, vm: usize) -> Result<(), VmTransitionError> {
        let worker = &mut self.vms[vm];
        match worker.state {
            VmState::Rebooting => {
                worker.state = VmState::Idle;
                self.busy -= 1;
                Ok(())
            }
            from => Err(VmTransitionError {
                vm,
                from,
                attempted: "complete a reboot",
            }),
        }
    }

    /// An injected fault kills `vm`'s QEMU process: any live state →
    /// crashed. An in-flight job is lost (not counted) and the VM's CPU
    /// share immediately rebalances to the surviving workers.
    ///
    /// # Errors
    ///
    /// Returns [`VmTransitionError`] if the VM is already crashed.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    pub fn crash_vm(&mut self, vm: usize) -> Result<(), VmTransitionError> {
        let worker = &mut self.vms[vm];
        match worker.state {
            VmState::Idle | VmState::Executing | VmState::Rebooting => {
                if worker.is_busy() {
                    self.busy -= 1;
                }
                worker.state = VmState::Crashed;
                Ok(())
            }
            from => Err(VmTransitionError {
                vm,
                from,
                attempted: "crash",
            }),
        }
    }

    /// The orchestrator spawns a replacement QEMU process for a crashed
    /// VM: crashed → rebooting. The respawn occupies CPU until
    /// [`RackServer::reboot_complete`], like any other boot — callers
    /// model the extra process-spawn cost as a longer boot window.
    ///
    /// # Errors
    ///
    /// Returns [`VmTransitionError`] unless the VM is crashed.
    pub fn respawn_vm(&mut self, vm: usize) -> Result<(), VmTransitionError> {
        let worker = &mut self.vms[vm];
        match worker.state {
            VmState::Crashed => {
                worker.state = VmState::Rebooting;
                self.busy += 1;
                Ok(())
            }
            from => Err(VmTransitionError {
                vm,
                from,
                attempted: "respawn",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_scales_with_busy_vms() {
        let mut server = RackServer::new(6);
        assert_eq!(server.power().value(), 60.0);
        for vm in 0..6 {
            server.start_job(vm).expect("start");
        }
        assert!((server.power().value() - 112.8).abs() < 1e-9);
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
        assert_eq!(server.vm(0).state(), VmState::Executing);
        server.finish_job(0).expect("finish");
        assert_eq!(server.vm(0).state(), VmState::Rebooting);
        server.reboot_complete(0).expect("reboot");
        assert_eq!(server.vm(0).state(), VmState::Idle);
        assert_eq!(
            server.vm(1).state(),
            VmState::Idle,
            "the other VM never moved"
        );
    }

    #[test]
    fn rebooting_vm_still_occupies_cpu() {
        let mut server = RackServer::new(1);
        server.start_job(0).expect("start");
        server.finish_job(0).expect("finish");
        assert_eq!(server.vm(0).state(), VmState::Rebooting);
        assert_eq!(server.busy_vms(), 1, "reboot burns CPU");
        assert!(server.power().value() > 60.0);
    }

    #[test]
    fn illegal_vm_transitions_rejected() {
        let mut server = RackServer::new(1);
        assert!(server.finish_job(0).is_err());
        assert!(server.reboot_complete(0).is_err());
        server.start_job(0).expect("start");
        let err = server.start_job(0).expect_err("busy");
        assert_eq!(err.to_string(), "vm 0 cannot start a job while executing");
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
        assert_eq!(RackServer::max_vms(), 30);
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
        assert_eq!(server.vm(1).state(), VmState::Crashed);
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
        assert_eq!(server.vm(0).state(), VmState::Rebooting);
        assert_eq!(server.busy_vms(), 1, "the respawn burns CPU like a boot");
        server.reboot_complete(0).expect("respawn finishes");
        assert_eq!(server.vm(0).state(), VmState::Idle);
    }
}
