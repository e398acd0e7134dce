//! Orchestrator-level recovery policies for injected faults: bounded
//! retry with exponential backoff, crash detection delay, and graceful
//! degradation (shedding low-priority work when capacity drops).
//!
//! The fault *mechanisms* live in [`microfaas_sim::faults`]; this
//! module is the *policy* layer both cluster simulators share. The
//! policy models one fixed orchestrator, so its delays, budgets and
//! shedding threshold are constants; only the fault plan varies per
//! run. The full failure model — taxonomy, per-cluster recovery
//! semantics, and the backoff math below — is documented in
//! `docs/FAILURE_MODEL.md`.

use microfaas_sim::faults::{FaultInjector, FaultPlan};
use microfaas_sim::SimDuration;
use microfaas_workloads::{FunctionId, WorkloadClass};

use crate::job::Job;
use crate::report::{DroppedJob, FaultSummary};

/// Scheduling priority of an invocation, derived from its Table-I
/// workload class: network-bound functions are interactive store/queue
/// operations a client is waiting on, CPU-bound functions are batch
/// compute that can be shed first under degraded capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Sheddable batch compute (CPU- or RAM-bound functions).
    Batch,
    /// Latency-sensitive service calls (network-bound functions).
    Interactive,
}

/// The priority the orchestrator assigns to `function`.
///
/// # Examples
///
/// ```
/// use microfaas::recovery::{priority_of, Priority};
/// use microfaas_workloads::FunctionId;
///
/// assert_eq!(priority_of(FunctionId::MatMul), Priority::Batch);
/// assert_eq!(priority_of(FunctionId::RedisInsert), Priority::Interactive);
/// ```
pub fn priority_of(function: FunctionId) -> Priority {
    match function.class() {
        WorkloadClass::CpuBound => Priority::Batch,
        WorkloadClass::NetworkBound => Priority::Interactive,
    }
}

/// Retries before an invocation is declared failed, and retransmissions
/// of a lost result transfer before the orchestrator gives up on it.
pub(crate) const MAX_ATTEMPTS: u32 = 3;

/// Backoff before the first retry.
const BASE_BACKOFF: SimDuration = SimDuration::from_millis(250);

/// Ceiling the exponential backoff saturates at.
const BACKOFF_CAP: SimDuration = SimDuration::from_secs(2);

/// Heartbeat lag before the orchestrator notices a dead worker and
/// starts recovery.
pub(crate) const DETECTION_DELAY: SimDuration = SimDuration::from_millis(500);

/// When live workers drop below this fraction of the fleet, queued
/// [`Priority::Batch`] jobs are shed to protect interactive work.
pub(crate) const SHED_BELOW_CAPACITY: f64 = 0.5;

/// Watchdog deadline for a hung invocation (armed only when a hang
/// fault was injected, so fault-free runs schedule nothing).
pub(crate) const HANG_WATCHDOG: SimDuration = SimDuration::from_secs(30);

/// Wait before retransmitting a lost result transfer.
pub(crate) const RETRANSMIT_DELAY: SimDuration = SimDuration::from_millis(50);

/// Consecutive boot failures before a worker is declared dead and its
/// queue redistributed.
pub(crate) const MAX_BOOT_RETRIES: u32 = 3;

/// Backoff before retry `attempt` (1-based), jittered by
/// `jitter01 ∈ [0, 1)`: `min(2 s, 250 ms × 2ⁿ⁻¹) × (0.5 + 0.5 × jitter)`,
/// with the jitter drawn uniformly out of the fault plan's private RNG
/// stream — full-jitter-style spreading without touching simulation
/// randomness.
///
/// # Examples
///
/// ```
/// use microfaas::recovery::backoff;
/// use microfaas_sim::SimDuration;
///
/// // Zero jitter halves the nominal delay; the curve still doubles.
/// assert_eq!(backoff(1, 0.0), SimDuration::from_millis(125));
/// assert_eq!(backoff(2, 0.0), SimDuration::from_millis(250));
/// // The 2 s cap bounds late attempts regardless of the exponent.
/// assert!(backoff(30, 0.999) <= SimDuration::from_secs(2));
/// ```
pub fn backoff(attempt: u32, jitter01: f64) -> SimDuration {
    let doublings = attempt.saturating_sub(1).min(30);
    let nominal = BASE_BACKOFF
        .mul_f64((1u64 << doublings) as f64)
        .min(BACKOFF_CAP);
    nominal.mul_f64(0.5 + 0.5 * jitter01.clamp(0.0, 1.0))
}

/// Per-run bookkeeping the cluster event loops thread through their
/// fault handling: the injector, per-job retry attempts, per-worker
/// boot-failure streaks and dead flags, and the dropped/summary output
/// that lands in [`crate::report::ClusterRun`].
#[derive(Debug)]
pub(crate) struct FaultRuntime {
    pub injector: FaultInjector,
    pub attempts: Vec<u32>,
    pub boot_failures: Vec<u32>,
    pub dead: Vec<bool>,
    pub dropped: Vec<DroppedJob>,
    pub summary: FaultSummary,
}

impl FaultRuntime {
    pub fn new(plan: &FaultPlan, workers: usize, total_jobs: usize) -> Self {
        FaultRuntime {
            injector: FaultInjector::new(plan),
            attempts: vec![0; total_jobs],
            boot_failures: vec![0; workers],
            dead: vec![false; workers],
            dropped: Vec::new(),
            summary: FaultSummary::default(),
        }
    }

    /// Consumes one retry attempt for `job` and reports the 1-based
    /// attempt number.
    pub fn next_attempt(&mut self, job: Job) -> u32 {
        let slot = &mut self.attempts[job.id as usize];
        *slot += 1;
        *slot
    }

    /// Workers that have not been declared permanently dead.
    pub fn live_workers(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_saturates() {
        // Full jitter (≈1) gives the nominal curve.
        let near = |d: SimDuration, ms: u64| {
            let nominal = SimDuration::from_millis(ms);
            d > nominal.mul_f64(0.49) && d <= nominal
        };
        assert!(near(backoff(1, 0.999), 250));
        assert!(near(backoff(2, 0.999), 500));
        assert!(near(backoff(3, 0.999), 1000));
        assert!(near(backoff(4, 0.999), 2000));
        assert!(near(backoff(5, 0.999), 2000), "cap holds");
        assert!(near(backoff(64, 0.999), 2000), "huge attempts safe");
    }

    #[test]
    fn jitter_spreads_but_never_exceeds_nominal() {
        let lo = backoff(2, 0.0);
        let hi = backoff(2, 0.999);
        assert!(lo < hi);
        assert_eq!(lo, SimDuration::from_millis(250), "floor is half nominal");
        assert!(hi <= SimDuration::from_millis(500));
    }

    #[test]
    fn priorities_split_the_suite_in_two() {
        let interactive = FunctionId::ALL
            .iter()
            .filter(|f| priority_of(**f) == Priority::Interactive)
            .count();
        // Table I: 9 CPU-bound, 8 network-bound functions.
        assert_eq!(interactive, 8);
        assert!(Priority::Batch < Priority::Interactive, "shed batch first");
    }

    #[test]
    fn runtime_tracks_attempts_and_liveness() {
        let mut rt = FaultRuntime::new(&FaultPlan::empty(), 4, 10);
        assert_eq!(rt.live_workers(), 4);
        let job = Job {
            id: 7,
            function: FunctionId::CascSha,
        };
        assert_eq!(rt.next_attempt(job), 1);
        assert_eq!(rt.next_attempt(job), 2);
        rt.dead[2] = true;
        assert_eq!(rt.live_workers(), 3);
    }
}
