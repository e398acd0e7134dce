//! Per-function, per-platform service-time calibration.
//!
//! The paper publishes only aggregate timing results; this table encodes a
//! consistent set of per-function constants chosen so that every published
//! aggregate is reproduced (see `DESIGN.md` §4):
//!
//! * exactly **4 of 17** functions run faster on the ARM SBC (RedisInsert,
//!   RedisUpdate, MQProduce, MQConsume) — small-payload network functions
//!   where the conventional cluster pays bridged-virtio and host network
//!   stack latency per round trip;
//! * exactly **9** of the rest run at better than half the conventional
//!   speed;
//! * the **4** below half speed are the ones the paper names: CascSHA,
//!   MatMul, AES128 (no crypto/SIMD acceleration on the Cortex-A8) and
//!   COSGet (Fast Ethernet bottleneck);
//! * mean job time (exec + overhead + reboot) yields ≈200.6 func/min for
//!   the 10-SBC cluster and ≈211.7 func/min for the 6-VM cluster.
//!
//! The network *overhead* column is split into a fixed latency component
//! and a byte-proportional transfer component so experiments can re-derive
//! overheads under different NIC speeds (the paper's Gigabit-upgrade
//! discussion).

use microfaas_sim::SimDuration;

use crate::suite::FunctionId;

/// Which worker platform a timing applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkerPlatform {
    /// BeagleBone Black: 1 GHz ARM Cortex-A8, 512 MB RAM, 10/100 Ethernet.
    ArmSbc,
    /// QEMU microVM: 1 vCPU of a 2.1 GHz Opteron 6172, 512 MB RAM,
    /// bridged virtio Gigabit NIC.
    X86Vm,
}

impl WorkerPlatform {
    /// Worker-OS boot/reboot time on this platform (paper §IV-A:
    /// 1.51 s ARM, 0.96 s x86).
    pub fn reboot_time(self) -> SimDuration {
        match self {
            WorkerPlatform::ArmSbc => SimDuration::from_millis(1_510),
            WorkerPlatform::X86Vm => SimDuration::from_millis(960),
        }
    }

    /// Nominal NIC line rate in bits per second (Fast Ethernet vs GigE).
    pub fn nic_bits_per_sec(self) -> u64 {
        match self {
            WorkerPlatform::ArmSbc => 100_000_000,
            WorkerPlatform::X86Vm => 1_000_000_000,
        }
    }
}

/// Calibrated timing entry for one workload function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceTime {
    exec_x86_ms: u64,
    exec_arm_ms: u64,
    overhead_x86_ms: u64,
    overhead_arm_ms: u64,
    /// Bytes moved over the worker NIC per invocation (function input,
    /// result, and any backing-service traffic).
    transfer_bytes: u64,
}

impl ServiceTime {
    /// Pure execution ("Working" in the paper's Fig. 3).
    pub fn exec(&self, platform: WorkerPlatform) -> SimDuration {
        SimDuration::from_millis(match platform {
            WorkerPlatform::ArmSbc => self.exec_arm_ms,
            WorkerPlatform::X86Vm => self.exec_x86_ms,
        })
    }

    /// Network overhead ("Overhead" in Fig. 3) at the platform's nominal
    /// NIC speed.
    pub fn overhead(&self, platform: WorkerPlatform) -> SimDuration {
        SimDuration::from_millis(match platform {
            WorkerPlatform::ArmSbc => self.overhead_arm_ms,
            WorkerPlatform::X86Vm => self.overhead_x86_ms,
        })
    }

    /// Total worker-visible time (exec + overhead), excluding the reboot.
    pub fn total(&self, platform: WorkerPlatform) -> SimDuration {
        self.exec(platform) + self.overhead(platform)
    }

    /// Bytes moved over the worker NIC per invocation.
    pub fn transfer_bytes(&self) -> u64 {
        self.transfer_bytes
    }

    /// The latency component of the overhead: everything that is *not*
    /// the byte-proportional transfer at the platform's nominal NIC speed.
    pub fn fixed_overhead(&self, platform: WorkerPlatform) -> SimDuration {
        let transfer = transfer_time(self.transfer_bytes, platform.nic_bits_per_sec());
        let nominal = self.overhead(platform);
        if transfer >= nominal {
            SimDuration::ZERO
        } else {
            nominal - transfer
        }
    }

    /// Re-derives the overhead under a different NIC line rate — the
    /// paper's "upgrade the SBC NIC to Gigabit" what-if.
    pub fn overhead_with_nic(&self, platform: WorkerPlatform, bits_per_sec: u64) -> SimDuration {
        self.fixed_overhead(platform) + transfer_time(self.transfer_bytes, bits_per_sec)
    }
}

/// Serialization time of `bytes` at `bits_per_sec`.
///
/// # Panics
///
/// Panics if `bits_per_sec` is zero.
pub fn transfer_time(bytes: u64, bits_per_sec: u64) -> SimDuration {
    assert!(bits_per_sec > 0, "line rate must be positive");
    SimDuration::from_micros(bytes * 8 * 1_000_000 / bits_per_sec)
}

/// Returns the calibrated timing for a function.
///
/// # Examples
///
/// ```
/// use microfaas_workloads::calibration::{service_time, WorkerPlatform};
/// use microfaas_workloads::suite::FunctionId;
///
/// let t = service_time(FunctionId::CascSha);
/// // CascSHA is one of the four functions the paper singles out as
/// // running below half the conventional speed on the SBC.
/// assert!(t.total(WorkerPlatform::ArmSbc).as_millis_f64()
///     > 2.0 * t.total(WorkerPlatform::X86Vm).as_millis_f64());
/// ```
#[inline]
pub fn service_time(function: FunctionId) -> ServiceTime {
    // Columns: exec_x86, exec_arm, overhead_x86, overhead_arm, bytes.
    let (exec_x86_ms, exec_arm_ms, overhead_x86_ms, overhead_arm_ms, transfer_bytes) =
        match function {
            FunctionId::FloatOps => (780, 1_383, 15, 35, 2_048),
            FunctionId::CascSha => (1_300, 3_300, 15, 35, 4_352),
            FunctionId::CascMd5 => (1_000, 1_850, 15, 35, 4_352),
            FunctionId::MatMul => (1_900, 4_700, 15, 35, 2_304),
            FunctionId::HtmlGen => (380, 692, 30, 55, 51_200),
            FunctionId::Aes128 => (1_500, 4_000, 15, 35, 8_448),
            FunctionId::Decompress => (900, 1_600, 40, 75, 131_072),
            FunctionId::RegexSearch => (1_000, 1_800, 25, 50, 65_792),
            FunctionId::RegexMatch => (260, 452, 15, 35, 2_048),
            FunctionId::RedisInsert => (160, 240, 260, 140, 1_024),
            FunctionId::RedisUpdate => (160, 240, 260, 140, 1_024),
            FunctionId::SqlSelect => (330, 560, 300, 180, 8_192),
            FunctionId::SqlUpdate => (350, 600, 300, 180, 2_048),
            FunctionId::CosGet => (180, 330, 180, 900, 8 * 1_024 * 1_024),
            FunctionId::CosPut => (200, 350, 200, 440, 2 * 1_024 * 1_024),
            FunctionId::MqProduce => (150, 220, 250, 130, 2_048),
            FunctionId::MqConsume => (155, 230, 250, 135, 4_096),
        };
    ServiceTime {
        exec_x86_ms,
        exec_arm_ms,
        overhead_x86_ms,
        overhead_arm_ms,
        transfer_bytes,
    }
}

/// Mean worker-visible time (exec + overhead) across the full suite.
pub fn suite_mean_total(platform: WorkerPlatform) -> SimDuration {
    let total_us: u64 = FunctionId::ALL
        .iter()
        .map(|&f| service_time(f).total(platform).as_micros())
        .sum();
    SimDuration::from_micros(total_us / FunctionId::ALL.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratio(f: FunctionId) -> f64 {
        let t = service_time(f);
        t.total(WorkerPlatform::ArmSbc).as_millis_f64()
            / t.total(WorkerPlatform::X86Vm).as_millis_f64()
    }

    #[test]
    fn exactly_four_functions_faster_on_arm() {
        let faster: Vec<FunctionId> = FunctionId::ALL
            .into_iter()
            .filter(|&f| ratio(f) < 1.0)
            .collect();
        assert_eq!(
            faster,
            vec![
                FunctionId::RedisInsert,
                FunctionId::RedisUpdate,
                FunctionId::MqProduce,
                FunctionId::MqConsume,
            ]
        );
    }

    #[test]
    fn exactly_nine_more_within_half_speed() {
        let within = FunctionId::ALL
            .into_iter()
            .filter(|&f| (1.0..=2.0).contains(&ratio(f)))
            .count();
        assert_eq!(within, 9);
    }

    #[test]
    fn the_four_slowest_are_the_ones_the_paper_names() {
        let below: Vec<FunctionId> = FunctionId::ALL
            .into_iter()
            .filter(|&f| ratio(f) > 2.0)
            .collect();
        assert_eq!(
            below,
            vec![
                FunctionId::CascSha,
                FunctionId::MatMul,
                FunctionId::Aes128,
                FunctionId::CosGet,
            ]
        );
    }

    #[test]
    fn cluster_throughputs_match_paper() {
        // 10 SBCs, jobs back-to-back with a reboot between each.
        let arm = suite_mean_total(WorkerPlatform::ArmSbc) + WorkerPlatform::ArmSbc.reboot_time();
        let sbc_cluster = 10.0 * 60.0 / arm.as_secs_f64();
        assert!(
            (sbc_cluster - 200.6).abs() < 4.0,
            "10-SBC throughput {sbc_cluster:.1} f/min vs paper 200.6"
        );

        let x86 = suite_mean_total(WorkerPlatform::X86Vm) + WorkerPlatform::X86Vm.reboot_time();
        let vm_cluster = 6.0 * 60.0 / x86.as_secs_f64();
        assert!(
            (vm_cluster - 211.7).abs() < 5.0,
            "6-VM throughput {vm_cluster:.1} f/min vs paper 211.7"
        );
    }

    #[test]
    fn fixed_plus_transfer_reconstructs_overhead() {
        for f in FunctionId::ALL {
            let t = service_time(f);
            for p in [WorkerPlatform::ArmSbc, WorkerPlatform::X86Vm] {
                let rebuilt = t.overhead_with_nic(p, p.nic_bits_per_sec());
                let nominal = t.overhead(p);
                let diff = (rebuilt.as_millis_f64() - nominal.as_millis_f64()).abs();
                assert!(diff < 0.01, "{f:?} on {p:?}: {rebuilt} vs {nominal}");
            }
        }
    }

    #[test]
    fn gigabit_upgrade_shrinks_cosget_overhead() {
        let t = service_time(FunctionId::CosGet);
        let fast_ethernet = t.overhead(WorkerPlatform::ArmSbc);
        let gigabit = t.overhead_with_nic(WorkerPlatform::ArmSbc, 1_000_000_000);
        assert!(
            gigabit.as_millis_f64() < fast_ethernet.as_millis_f64() / 2.0,
            "GigE should cut COSGet overhead by more than half: {fast_ethernet} -> {gigabit}"
        );
    }

    #[test]
    fn transfer_time_math() {
        // 1 MB at 100 Mb/s = 80 ms.
        assert_eq!(
            transfer_time(1_000_000, 100_000_000),
            SimDuration::from_millis(80)
        );
        // 0 bytes is free.
        assert_eq!(transfer_time(0, 1_000_000_000), SimDuration::ZERO);
    }

    #[test]
    fn reboot_times_match_paper() {
        assert_eq!(
            WorkerPlatform::ArmSbc.reboot_time(),
            SimDuration::from_millis(1_510)
        );
        assert_eq!(
            WorkerPlatform::X86Vm.reboot_time(),
            SimDuration::from_millis(960)
        );
    }
}
