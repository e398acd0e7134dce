//! Power models for every device in both clusters, using the constants
//! from the paper's appendix and evaluation section.

/// Power draw in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Watts(pub f64);

impl Watts {
    /// Zero draw.
    pub const ZERO: Watts = Watts(0.0);

    /// The numeric value in watts.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl std::ops::Add for Watts {
    type Output = Watts;

    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl std::iter::Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        Watts(iter.map(|w| w.0).sum())
    }
}

impl std::fmt::Display for Watts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} W", self.0)
    }
}

/// BeagleBone Black power model (paper appendix: P_ss = 1.96 W,
/// P_ss-idle = 0.128 W, fully powered down when idle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbcPowerModel;

impl SbcPowerModel {
    /// Draw while executing a function or booting.
    pub fn busy(self) -> Watts {
        Watts(1.96)
    }

    /// Draw in the low-energy standby state (powered but halted).
    pub fn standby(self) -> Watts {
        Watts(0.128)
    }

    /// Draw when powered off via the PWR_BUT GPIO.
    pub fn off(self) -> Watts {
        Watts::ZERO
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

    /// Draw with `busy_vms` VMs actively working (linear, capped at the
    /// package maximum). A powered-on host always pays the idle floor —
    /// the crux of the paper's energy-proportionality argument.
    pub fn draw(self, busy_vms: usize) -> Watts {
        Watts((Self::IDLE_WATTS + Self::PER_BUSY_VM_WATTS * busy_vms as f64).min(Self::MAX_WATTS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbc_constants_match_paper() {
        let m = SbcPowerModel;
        assert_eq!(m.busy(), Watts(1.96));
        assert_eq!(m.standby(), Watts(0.128));
        assert_eq!(m.off(), Watts::ZERO);
    }

    #[test]
    fn server_idle_floor_and_cap() {
        let m = ServerPowerModel;
        assert_eq!(m.draw(0), Watts(60.0));
        assert!((m.draw(6).value() - 112.8).abs() < 1e-9);
        // Past saturation the package caps at 150 W.
        assert_eq!(m.draw(20), Watts(150.0));
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
        let cluster: Watts = (0..10).map(|_| SbcPowerModel.busy()).sum();
        assert!(cluster.value() < ServerPowerModel.draw(0).value());
    }

    #[test]
    fn watts_arithmetic() {
        assert_eq!(Watts(1.5) + Watts(2.5), Watts(4.0));
        assert_eq!(Watts(3.0).to_string(), "3.000 W");
    }
}
