//! Power models for every device in both clusters, using the constants
//! from the paper's appendix and evaluation section. Every draw is in
//! watts.

/// BeagleBone Black power model (paper appendix: P_ss = 1.96 W,
/// P_ss-idle = 0.128 W, fully powered down when idle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbcPowerModel;

impl SbcPowerModel {
    /// Draw while executing a function or booting, watts.
    pub fn busy(self) -> f64 {
        1.96
    }

    /// Draw in the low-energy standby state (powered but halted), watts.
    pub fn standby(self) -> f64 {
        0.128
    }

    /// Draw when powered off via the PWR_BUT GPIO, watts.
    pub fn off(self) -> f64 {
        0.0
    }
}

/// Rack-server power model: the evaluation server (Opteron 6172 in a
/// Thinkmate RAX chassis).
///
/// The paper's constants: 60 W idle, 150 W under load. The per-busy-VM
/// increment (8.8 W) is derived from the measured 32.0 J/function at six
/// VMs: `P(6) = 32.0 J/f x 211.7 f/min / 60 ≈ 112.9 W`, so each busy VM
/// adds `(112.9 − 60) / 6 ≈ 8.8 W`, saturating at the 150 W plateau.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerPowerModel;

impl ServerPowerModel {
    /// Idle draw with zero busy VMs.
    const IDLE_WATTS: f64 = 60.0;
    /// Peak draw when the package saturates.
    const MAX_WATTS: f64 = 150.0;
    /// Increment per concurrently busy VM.
    const PER_BUSY_VM_WATTS: f64 = 8.8;

    /// Draw in watts with `busy_vms` VMs actively working (linear,
    /// capped at the package maximum). A powered-on host always pays the
    /// idle floor — the crux of the paper's energy-proportionality
    /// argument.
    pub fn draw(self, busy_vms: usize) -> f64 {
        (Self::IDLE_WATTS + Self::PER_BUSY_VM_WATTS * busy_vms as f64).min(Self::MAX_WATTS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbc_constants_match_paper() {
        let m = SbcPowerModel;
        assert_eq!(m.busy(), 1.96);
        assert_eq!(m.standby(), 0.128);
        assert_eq!(m.off(), 0.0);
    }

    #[test]
    fn server_idle_floor_and_cap() {
        let m = ServerPowerModel;
        assert_eq!(m.draw(0), 60.0);
        assert!((m.draw(6) - 112.8).abs() < 1e-9);
        // Past saturation the package caps at 150 W.
        assert_eq!(m.draw(20), 150.0);
    }

    #[test]
    fn server_power_is_monotone() {
        let m = ServerPowerModel;
        for n in 0..30 {
            assert!(m.draw(n + 1) >= m.draw(n));
        }
    }

    #[test]
    fn ten_sbcs_busy_draw_less_than_idle_server() {
        // The paper's Fig. 5 punchline: a fully busy 10-SBC cluster draws
        // less than a completely idle rack server.
        let cluster: f64 = (0..10).map(|_| SbcPowerModel.busy()).sum();
        assert!(cluster < ServerPowerModel.draw(0));
    }
}
