//! What the node models keep current at each transition, held against
//! what they would compute from scratch: the rack server's busy-VM count
//! against a scan of its VMs, and the boot windows the SBC fleets and the
//! rack server store against the Fig. 1 boot profile.

use microfaas_hw::boot::{BootPlatform, BootProfile};
use microfaas_hw::server::{RackServer, CPU_SHARE_PER_BUSY_VM};
use microfaas_hw::{SbcNode, ServerPowerModel};
use microfaas_sim::trace::WorkerState;
use proptest::prelude::*;

/// The busy count as a scan of every VM: a VM occupies host CPU while it
/// executes or reboots, and not while it is idle or crashed.
fn scanned_busy(server: &RackServer) -> usize {
    (0..server.vm_count())
        .filter(|&v| {
            matches!(
                server.state(v),
                WorkerState::Executing | WorkerState::Rebooting
            )
        })
        .count()
}

proptest! {
    /// After every step of a random sequence of VM transitions (legal or
    /// not, crashes and respawns included), `busy_vms()` equals the scan,
    /// and the power draw and slowdown follow that count.
    #[test]
    fn busy_count_matches_a_scan_after_every_transition(
        vms in 1usize..=30,
        steps in prop::collection::vec((0u8..5, any::<usize>()), 0..300),
    ) {
        let mut server = RackServer::new(vms);
        prop_assert_eq!(server.busy_vms(), 0);
        for &(op, pick) in &steps {
            let v = pick % vms;
            // Illegal transitions are rejected and must leave the count
            // untouched, so their errors are part of the sequence.
            let _ = match op {
                0 => server.start_job(v),
                1 => server.finish_job(v),
                2 => server.reboot_complete(v),
                3 => server.crash_vm(v),
                _ => server.respawn_vm(v),
            };
            let busy = scanned_busy(&server);
            prop_assert_eq!(server.busy_vms(), busy);
            prop_assert_eq!(server.power(), ServerPowerModel.draw(busy));
            prop_assert_eq!(server.current_slowdown(), server.slowdown(busy));
            // The evaluation server has 12 cores.
            prop_assert!(
                server.current_slowdown() == (busy as f64 * CPU_SHARE_PER_BUSY_VM / 12.0).max(1.0)
            );
        }
    }
}

#[test]
fn boot_windows_equal_the_fully_optimized_profile() {
    let arm = BootProfile::fully_optimized(BootPlatform::Arm)
        .boot_time()
        .real;
    let x86 = BootProfile::fully_optimized(BootPlatform::X86)
        .boot_time()
        .real;
    // The window every SBC fleet resolves once per run.
    assert_eq!(SbcNode::boot_duration(), arm);
    for vms in [1, 6, 30] {
        let mut server = RackServer::new(vms);
        assert_eq!(server.vm_boot_duration(), x86);
        server.start_job(0).expect("start");
        assert_eq!(server.vm_boot_duration(), x86);
    }
}
