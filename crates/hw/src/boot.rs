//! The worker-OS boot-time model (paper Fig. 1).
//!
//! The paper built its worker Linux distribution Linux-From-Scratch style
//! and measured boot time after each optimization stage, labelled **A**
//! through **I**. Only the endpoints are published (1.51 s real on ARM,
//! 0.96 s on x86); the per-stage deltas here are synthetic but monotone
//! and sized according to the paper's prose (the NIC work — stages F and
//! G — removes seconds; the cmdline tweaks — H, I — remove the final
//! hundreds of milliseconds). Stage E (U-Boot falcon mode) and stage G
//! (the vendor-specific PHY patch) apply only to the ARM SBC, matching
//! the paper's portability note.

use std::fmt;

use microfaas_sim::SimDuration;

/// The two boot platforms measured in Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BootPlatform {
    /// BeagleBone Black (ARM Cortex-A8, U-Boot).
    Arm,
    /// QEMU microVM (x86, SeaBIOS-style direct kernel load).
    X86,
}

/// One optimization stage from Fig. 1, in application order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BootStage {
    /// **A** — choice of Linux kernel version.
    KernelVersion,
    /// **B** — compile only the drivers/features the target needs.
    MinimalKernelConfig,
    /// **C** — initramfs containing only MicroPython and BusyBox.
    MicroPythonInitramfs,
    /// **D** — use the initramfs as the sole root filesystem.
    InitramfsRoot,
    /// **E** — U-Boot compiled in falcon mode (ARM only).
    FalconMode,
    /// **F** — patch NIC driver to skip Ethernet autonegotiation.
    SkipAutonegotiation,
    /// **G** — avoid unnecessary PHY hardware resets (vendor-specific,
    /// ARM only).
    NoPhyReset,
    /// **H** — configure networking in the kernel on boot.
    KernelNetworkSetup,
    /// **I** — static IPv4 address on the kernel command line.
    StaticIpv4,
}

impl BootStage {
    /// All stages in the order the paper applied them.
    pub const ALL: [BootStage; 9] = [
        BootStage::KernelVersion,
        BootStage::MinimalKernelConfig,
        BootStage::MicroPythonInitramfs,
        BootStage::InitramfsRoot,
        BootStage::FalconMode,
        BootStage::SkipAutonegotiation,
        BootStage::NoPhyReset,
        BootStage::KernelNetworkSetup,
        BootStage::StaticIpv4,
    ];

    /// The single-letter label used in Fig. 1.
    fn letter(self) -> char {
        match self {
            BootStage::KernelVersion => 'A',
            BootStage::MinimalKernelConfig => 'B',
            BootStage::MicroPythonInitramfs => 'C',
            BootStage::InitramfsRoot => 'D',
            BootStage::FalconMode => 'E',
            BootStage::SkipAutonegotiation => 'F',
            BootStage::NoPhyReset => 'G',
            BootStage::KernelNetworkSetup => 'H',
            BootStage::StaticIpv4 => 'I',
        }
    }

    /// Human-readable description.
    pub fn description(self) -> &'static str {
        match self {
            BootStage::KernelVersion => "choice of Linux kernel version",
            BootStage::MinimalKernelConfig => "minimal kernel configuration",
            BootStage::MicroPythonInitramfs => "initramfs with only MicroPython + BusyBox",
            BootStage::InitramfsRoot => "initramfs as sole root filesystem",
            BootStage::FalconMode => "U-Boot falcon mode",
            BootStage::SkipAutonegotiation => "skip Ethernet autonegotiation",
            BootStage::NoPhyReset => "avoid resetting PHY hardware",
            BootStage::KernelNetworkSetup => "kernel configures networking on boot",
            BootStage::StaticIpv4 => "static IPv4 on kernel command line",
        }
    }

    /// Whether this stage applies to the given platform.
    fn applies_to(self, platform: BootPlatform) -> bool {
        match self {
            BootStage::FalconMode | BootStage::NoPhyReset => platform == BootPlatform::Arm,
            _ => true,
        }
    }

    /// (real, cpu) boot-time reduction from applying this stage, in ms.
    fn reduction_ms(self, platform: BootPlatform) -> (u64, u64) {
        if !self.applies_to(platform) {
            return (0, 0);
        }
        match (platform, self) {
            (BootPlatform::Arm, BootStage::KernelVersion) => (4_000, 1_500),
            (BootPlatform::Arm, BootStage::MinimalKernelConfig) => (9_500, 3_500),
            (BootPlatform::Arm, BootStage::MicroPythonInitramfs) => (3_800, 1_600),
            (BootPlatform::Arm, BootStage::InitramfsRoot) => (2_700, 900),
            (BootPlatform::Arm, BootStage::FalconMode) => (2_300, 200),
            (BootPlatform::Arm, BootStage::SkipAutonegotiation) => (2_200, 300),
            (BootPlatform::Arm, BootStage::NoPhyReset) => (1_300, 180),
            (BootPlatform::Arm, BootStage::KernelNetworkSetup) => (400, 120),
            (BootPlatform::Arm, BootStage::StaticIpv4) => (290, 80),
            (BootPlatform::X86, BootStage::KernelVersion) => (2_600, 1_200),
            (BootPlatform::X86, BootStage::MinimalKernelConfig) => (6_200, 2_400),
            (BootPlatform::X86, BootStage::MicroPythonInitramfs) => (2_300, 900),
            (BootPlatform::X86, BootStage::InitramfsRoot) => (1_600, 600),
            (BootPlatform::X86, BootStage::SkipAutonegotiation) => (2_100, 300),
            (BootPlatform::X86, BootStage::KernelNetworkSetup) => (150, 130),
            (BootPlatform::X86, BootStage::StaticIpv4) => (90, 90),
            // Unreachable: non-applicable combinations returned above.
            _ => (0, 0),
        }
    }
}

impl fmt::Display for BootStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}) {}", self.letter(), self.description())
    }
}

/// A boot-time measurement: wall-clock and CPU-busy components, matching
/// the *Real* and *CPU* series of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootTime {
    /// Wall-clock time from power-on to first network connection.
    pub real: SimDuration,
    /// CPU-not-idle time during boot, as the kernel accounts it.
    pub cpu: SimDuration,
}

impl BootTime {
    /// The shipped worker OS's boot time: the baseline less every stage
    /// that applies to `platform`. Equals
    /// `BootProfile::fully_optimized(platform).boot_time()`, folded over
    /// the stage table without building a profile.
    ///
    /// # Examples
    ///
    /// ```
    /// use microfaas_hw::boot::{BootPlatform, BootProfile, BootTime};
    ///
    /// assert_eq!(
    ///     BootTime::fully_optimized(BootPlatform::X86),
    ///     BootProfile::fully_optimized(BootPlatform::X86).boot_time()
    /// );
    /// ```
    pub fn fully_optimized(platform: BootPlatform) -> BootTime {
        BootTime::after(platform, &BootStage::ALL)
    }

    /// The baseline boot time less the reductions of `stages`.
    fn after(platform: BootPlatform, stages: &[BootStage]) -> BootTime {
        let baseline = BootProfile::baseline_time(platform);
        let (real_cut, cpu_cut) = stages
            .iter()
            .map(|s| s.reduction_ms(platform))
            .fold((0, 0), |(r, c), (dr, dc)| (r + dr, c + dc));
        BootTime {
            real: baseline.real - SimDuration::from_millis(real_cut),
            cpu: baseline.cpu - SimDuration::from_millis(cpu_cut),
        }
    }
}

/// A worker-OS build: the baseline distribution plus a set of applied
/// optimization stages.
///
/// # Examples
///
/// ```
/// use microfaas_hw::boot::{BootPlatform, BootProfile};
///
/// let os = BootProfile::fully_optimized(BootPlatform::Arm);
/// // The paper's headline number: 1.51 s to boot on the BeagleBone.
/// assert_eq!(os.boot_time().real.as_micros(), 1_510_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BootProfile {
    platform: BootPlatform,
    applied: Vec<BootStage>,
}

impl BootProfile {
    /// Baseline (stock distribution) boot time for a platform.
    pub fn baseline_time(platform: BootPlatform) -> BootTime {
        match platform {
            BootPlatform::Arm => BootTime {
                real: SimDuration::from_millis(28_000),
                cpu: SimDuration::from_millis(9_000),
            },
            BootPlatform::X86 => BootTime {
                real: SimDuration::from_millis(16_000),
                cpu: SimDuration::from_millis(6_000),
            },
        }
    }

    /// Starts from the unoptimized baseline.
    fn baseline(platform: BootPlatform) -> Self {
        BootProfile {
            platform,
            applied: Vec::new(),
        }
    }

    /// A profile with every stage applied — the shipped worker OS.
    pub fn fully_optimized(platform: BootPlatform) -> Self {
        let mut profile = BootProfile::baseline(platform);
        for stage in BootStage::ALL {
            profile.apply(stage);
        }
        profile
    }

    /// Applies one optimization stage. Re-applying is a no-op.
    fn apply(&mut self, stage: BootStage) -> &mut Self {
        if !self.applied.contains(&stage) {
            self.applied.push(stage);
        }
        self
    }

    /// Boot time with the currently applied stages.
    pub fn boot_time(&self) -> BootTime {
        BootTime::after(self.platform, &self.applied)
    }

    /// The Fig. 1 series: boot time at the baseline and after each
    /// successive stage.
    pub fn progression(platform: BootPlatform) -> Vec<(Option<BootStage>, BootTime)> {
        let mut profile = BootProfile::baseline(platform);
        let mut series = vec![(None, profile.boot_time())];
        for stage in BootStage::ALL {
            profile.apply(stage);
            series.push((Some(stage), profile.boot_time()));
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_optimized_matches_published_endpoints() {
        let arm = BootProfile::fully_optimized(BootPlatform::Arm).boot_time();
        assert_eq!(arm.real, SimDuration::from_millis(1_510));
        let x86 = BootProfile::fully_optimized(BootPlatform::X86).boot_time();
        assert_eq!(x86.real, SimDuration::from_millis(960));
    }

    #[test]
    fn the_folded_table_equals_the_built_profile() {
        for platform in [BootPlatform::Arm, BootPlatform::X86] {
            assert_eq!(
                BootTime::fully_optimized(platform),
                BootProfile::fully_optimized(platform).boot_time()
            );
        }
    }

    #[test]
    fn progression_is_monotone_decreasing() {
        for platform in [BootPlatform::Arm, BootPlatform::X86] {
            let series = BootProfile::progression(platform);
            assert_eq!(series.len(), 10);
            for pair in series.windows(2) {
                assert!(
                    pair[1].1.real <= pair[0].1.real,
                    "real time must never increase on {platform:?}"
                );
                assert!(pair[1].1.cpu <= pair[0].1.cpu);
            }
        }
    }

    #[test]
    fn cpu_time_never_exceeds_real_time() {
        for platform in [BootPlatform::Arm, BootPlatform::X86] {
            for (_, t) in BootProfile::progression(platform) {
                assert!(
                    t.cpu <= t.real,
                    "{platform:?}: cpu {} > real {}",
                    t.cpu,
                    t.real
                );
            }
        }
    }

    #[test]
    fn arm_only_stages_are_noops_on_x86() {
        let mut with = BootProfile::baseline(BootPlatform::X86);
        for stage in BootStage::ALL {
            with.apply(stage);
        }
        let mut without = BootProfile::baseline(BootPlatform::X86);
        for stage in BootStage::ALL {
            if stage.applies_to(BootPlatform::X86) {
                without.apply(stage);
            }
        }
        assert_eq!(with.boot_time(), without.boot_time());
        assert!(!BootStage::FalconMode.applies_to(BootPlatform::X86));
        assert!(!BootStage::NoPhyReset.applies_to(BootPlatform::X86));
    }

    #[test]
    fn reapplying_a_stage_is_idempotent() {
        let mut p = BootProfile::baseline(BootPlatform::Arm);
        p.apply(BootStage::MinimalKernelConfig);
        let once = p.boot_time();
        p.apply(BootStage::MinimalKernelConfig);
        assert_eq!(p.boot_time(), once);
        assert_eq!(p.applied.len(), 1);
    }

    #[test]
    fn nic_stages_remove_seconds_on_arm() {
        // Stages F+G are the paper's NIC driver patches; together they
        // should account for multiple seconds of the ARM improvement.
        let mut before = BootProfile::fully_optimized(BootPlatform::Arm);
        let optimized = before.boot_time().real;
        let mut without_nic = BootProfile::baseline(BootPlatform::Arm);
        for stage in BootStage::ALL {
            if !matches!(
                stage,
                BootStage::SkipAutonegotiation | BootStage::NoPhyReset
            ) {
                without_nic.apply(stage);
            }
        }
        let gap = without_nic.boot_time().real - optimized;
        assert!(
            gap.as_secs_f64() > 2.0,
            "NIC patches should save > 2 s, got {gap}"
        );
        let _ = before.apply(BootStage::StaticIpv4);
    }

    #[test]
    fn letters_are_a_through_i() {
        let letters: String = BootStage::ALL.iter().map(|s| s.letter()).collect();
        assert_eq!(letters, "ABCDEFGHI");
    }

    #[test]
    fn display_includes_letter() {
        assert_eq!(BootStage::FalconMode.to_string(), "(E) U-Boot falcon mode");
    }
}
