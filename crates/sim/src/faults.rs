//! Deterministic fault injection for the cluster simulators.
//!
//! A [`FaultPlan`] describes *what goes wrong* during a run: scheduled
//! node crashes, probabilistic boot failures, stuck-executing hangs,
//! and network-transfer losses. The plan carries its own RNG seed, and
//! a [`FaultInjector`] draws every probabilistic decision from that
//! private stream — never from the simulation's RNG — so an empty plan
//! is *structurally* identical to no plan at all: zero draws, zero
//! scheduled events, bit-identical results.
//!
//! Plans are written as JSON (see [`FaultPlan::from_json`]) and parsed
//! by the in-crate recursive-descent parser ([`crate::json`]),
//! preserving the workspace's zero-runtime-dependency policy. The
//! failure taxonomy and each cluster's recovery semantics are
//! documented in `docs/FAILURE_MODEL.md` at the repository root.

use std::fmt;

use crate::json;
use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};

/// The kinds of faults a plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A node loses power mid-run (scheduled, per worker).
    Crash,
    /// A worker-OS boot attempt fails and must be redone
    /// (probabilistic, drawn at every boot completion).
    BootFailure,
    /// An invocation wedges and never finishes on its own
    /// (probabilistic, drawn at job start).
    Hang,
    /// A result transfer is lost on the wire and must be retransmitted
    /// (probabilistic, drawn per transfer).
    NetLoss,
}

impl FaultKind {
    /// Lower-case wire label used in plan JSON and trace events.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::BootFailure => "boot_failure",
            FaultKind::Hang => "hang",
            FaultKind::NetLoss => "net_loss",
        }
    }

    fn from_label(label: &str) -> Option<FaultKind> {
        match label {
            "crash" => Some(FaultKind::Crash),
            "boot_failure" => Some(FaultKind::BootFailure),
            "hang" => Some(FaultKind::Hang),
            "net_loss" => Some(FaultKind::NetLoss),
            _ => None,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// When a fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultTrigger {
    /// At an absolute simulated instant (crashes).
    At(SimTime),
    /// With this probability at every exposure site (boot completions,
    /// job starts, transfers).
    Probability(f64),
}

/// One fault in a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// What goes wrong.
    pub kind: FaultKind,
    /// Which worker it strikes; `None` exposes every worker
    /// (probabilistic kinds only).
    pub worker: Option<usize>,
    /// When it fires.
    pub trigger: FaultTrigger,
}

/// Error from parsing or validating a fault plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError(pub String);

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan: {}", self.0)
    }
}

impl std::error::Error for FaultPlanError {}

/// A seeded, validated-on-use fault schedule.
///
/// # Examples
///
/// ```
/// use microfaas_sim::faults::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::from_json(
///     r#"{"seed": 99, "faults": [
///         {"kind": "crash", "worker": 3, "at_s": 10.0},
///         {"kind": "net_loss", "p": 0.05}
///     ]}"#,
/// ).expect("valid plan");
/// assert_eq!(plan.seed, 99);
/// assert_eq!(plan.faults.len(), 2);
/// assert_eq!(plan.faults[0].kind, FaultKind::Crash);
/// assert!(FaultPlan::empty().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the injector's private RNG stream.
    pub seed: u64,
    /// The faults to inject.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan that injects nothing. Runs with an empty plan are
    /// bit-identical to runs with no fault support at all.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Checks every fault's shape: crashes need a worker and a
    /// scheduled time; probabilistic kinds need `p` in `[0, 1]`. Returns
    /// a [`FaultPlanError`] naming the first malformed fault.
    fn validate(&self) -> Result<(), FaultPlanError> {
        for (i, fault) in self.faults.iter().enumerate() {
            match (fault.kind, fault.trigger) {
                (FaultKind::Crash, FaultTrigger::At(_)) => {
                    if fault.worker.is_none() {
                        return Err(FaultPlanError(format!(
                            "fault {i}: a crash needs a target worker"
                        )));
                    }
                }
                (FaultKind::Crash, FaultTrigger::Probability(_)) => {
                    return Err(FaultPlanError(format!(
                        "fault {i}: crashes are scheduled (use \"at_s\"), not probabilistic"
                    )));
                }
                (_, FaultTrigger::Probability(p)) => {
                    if !(0.0..=1.0).contains(&p) {
                        return Err(FaultPlanError(format!(
                            "fault {i}: probability {p} outside [0, 1]"
                        )));
                    }
                }
                (kind, FaultTrigger::At(_)) => {
                    return Err(FaultPlanError(format!(
                        "fault {i}: {kind} is probabilistic (use \"p\"), not scheduled"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Parses a plan from its JSON form:
    ///
    /// ```json
    /// {
    ///   "seed": 99,
    ///   "faults": [
    ///     {"kind": "crash", "worker": 3, "at_s": 10.0},
    ///     {"kind": "boot_failure", "p": 0.2},
    ///     {"kind": "hang", "worker": 2, "p": 0.05},
    ///     {"kind": "net_loss", "p": 0.01}
    ///   ]
    /// }
    /// ```
    ///
    /// `seed` defaults to 0; `worker` is optional for probabilistic
    /// kinds (absent = every worker). Unknown keys are rejected so
    /// typos cannot silently disable a fault.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError`] on malformed JSON, unknown keys or
    /// kinds, and a malformed fault: a crash needs a worker and a time,
    /// every other kind a probability in `[0, 1]`.
    pub fn from_json(text: &str) -> Result<FaultPlan, FaultPlanError> {
        let value = json::parse(text).map_err(FaultPlanError)?;
        let object = value
            .as_object()
            .ok_or_else(|| FaultPlanError("top level must be an object".to_string()))?;
        let mut plan = FaultPlan::empty();
        for (key, value) in object {
            match key.as_str() {
                "seed" => {
                    plan.seed = value.as_u64().ok_or_else(|| {
                        FaultPlanError("\"seed\" must be a non-negative integer".to_string())
                    })?;
                }
                "faults" => {
                    let list = value
                        .as_array()
                        .ok_or_else(|| FaultPlanError("\"faults\" must be an array".to_string()))?;
                    for (i, entry) in list.iter().enumerate() {
                        plan.faults.push(parse_fault(i, entry)?);
                    }
                }
                other => {
                    return Err(FaultPlanError(format!("unknown top-level key \"{other}\"")));
                }
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

fn parse_fault(i: usize, value: &json::Value) -> Result<FaultSpec, FaultPlanError> {
    let object = value
        .as_object()
        .ok_or_else(|| FaultPlanError(format!("fault {i} must be an object")))?;
    let mut kind = None;
    let mut worker = None;
    let mut trigger = None;
    for (key, value) in object {
        match key.as_str() {
            "kind" => {
                let label = value.as_str().ok_or_else(|| {
                    FaultPlanError(format!("fault {i}: \"kind\" must be a string"))
                })?;
                kind = Some(FaultKind::from_label(label).ok_or_else(|| {
                    FaultPlanError(format!(
                        "fault {i}: unknown kind \"{label}\" \
                         (crash | boot_failure | hang | net_loss)"
                    ))
                })?);
            }
            "worker" => {
                let w = value.as_u64().ok_or_else(|| {
                    FaultPlanError(format!(
                        "fault {i}: \"worker\" must be a non-negative integer"
                    ))
                })?;
                worker = Some(w as usize);
            }
            "at_s" => {
                let secs = value
                    .as_f64()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| {
                        FaultPlanError(format!(
                            "fault {i}: \"at_s\" must be a non-negative number of seconds"
                        ))
                    })?;
                trigger = Some(FaultTrigger::At(
                    SimTime::ZERO + SimDuration::from_secs_f64(secs),
                ));
            }
            "p" => {
                let p = value
                    .as_f64()
                    .ok_or_else(|| FaultPlanError(format!("fault {i}: \"p\" must be a number")))?;
                trigger = Some(FaultTrigger::Probability(p));
            }
            other => {
                return Err(FaultPlanError(format!(
                    "fault {i}: unknown key \"{other}\" (kind | worker | at_s | p)"
                )));
            }
        }
    }
    let kind = kind.ok_or_else(|| FaultPlanError(format!("fault {i}: missing \"kind\"")))?;
    let trigger = trigger
        .ok_or_else(|| FaultPlanError(format!("fault {i}: needs \"at_s\" (crash) or \"p\"")))?;
    Ok(FaultSpec {
        kind,
        worker,
        trigger,
    })
}

/// Draws a fault plan's probabilistic decisions from the plan's own
/// seeded RNG stream, keeping the simulation RNG untouched.
///
/// Construction performs no draws, and a check site whose combined
/// probability is zero performs none either, so an empty plan leaves
/// the injector completely inert.
///
/// # Examples
///
/// ```
/// use microfaas_sim::faults::{FaultInjector, FaultPlan};
///
/// let mut inert = FaultInjector::new(&FaultPlan::empty());
/// assert!(!inert.boot_fails(0), "no plan, no failures");
///
/// let plan = FaultPlan::from_json(
///     r#"{"seed": 7, "faults": [{"kind": "boot_failure", "p": 1.0}]}"#,
/// ).expect("valid");
/// let mut certain = FaultInjector::new(&plan);
/// assert!(certain.boot_fails(0), "p = 1 always fires");
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: Rng,
    crashes: Vec<(SimTime, usize)>,
    boot_failure: Vec<(Option<usize>, f64)>,
    hang: Vec<(Option<usize>, f64)>,
    net_loss: Vec<(Option<usize>, f64)>,
}

impl FaultInjector {
    /// Builds an injector for `plan`.
    ///
    /// # Panics
    ///
    /// Panics on a malformed fault, which [`FaultPlan::from_json`]
    /// refuses; parse plans through it to surface the error instead.
    pub fn new(plan: &FaultPlan) -> Self {
        plan.validate().expect("fault plan must be valid");
        let mut injector = FaultInjector {
            rng: Rng::new(plan.seed),
            crashes: Vec::new(),
            boot_failure: Vec::new(),
            hang: Vec::new(),
            net_loss: Vec::new(),
        };
        for fault in &plan.faults {
            match (fault.kind, fault.trigger) {
                (FaultKind::Crash, FaultTrigger::At(at)) => {
                    injector
                        .crashes
                        .push((at, fault.worker.expect("validated: crash has a worker")));
                }
                (FaultKind::BootFailure, FaultTrigger::Probability(p)) => {
                    injector.boot_failure.push((fault.worker, p));
                }
                (FaultKind::Hang, FaultTrigger::Probability(p)) => {
                    injector.hang.push((fault.worker, p));
                }
                (FaultKind::NetLoss, FaultTrigger::Probability(p)) => {
                    injector.net_loss.push((fault.worker, p));
                }
                _ => unreachable!("rejected by validate"),
            }
        }
        injector.crashes.sort_by_key(|&(at, w)| (at, w));
        injector
    }

    /// Scheduled `(instant, worker)` crashes, sorted by time.
    pub fn scheduled_crashes(&self) -> &[(SimTime, usize)] {
        &self.crashes
    }

    /// Draws whether `worker`'s current boot attempt fails.
    pub fn boot_fails(&mut self, worker: usize) -> bool {
        let p = combined_probability(&self.boot_failure, worker);
        p > 0.0 && self.rng.chance(p)
    }

    /// Draws whether the job starting on `worker` hangs.
    pub fn hangs(&mut self, worker: usize) -> bool {
        let p = combined_probability(&self.hang, worker);
        p > 0.0 && self.rng.chance(p)
    }

    /// Draws whether `worker`'s current result transfer is lost.
    pub fn transfer_lost(&mut self, worker: usize) -> bool {
        let p = combined_probability(&self.net_loss, worker);
        p > 0.0 && self.rng.chance(p)
    }

    /// A uniform draw in `[0, 1)` from the fault stream, used to jitter
    /// retry backoff without touching the simulation RNG.
    pub fn jitter01(&mut self) -> f64 {
        self.rng.next_f64()
    }
}

/// Combines every matching spec as independent Bernoulli trials:
/// `1 - Π(1 - pᵢ)`, resolved with a single draw at the check site.
fn combined_probability(specs: &[(Option<usize>, f64)], worker: usize) -> f64 {
    let mut miss = 1.0;
    for &(target, p) in specs {
        if target.is_none() || target == Some(worker) {
            miss *= 1.0 - p;
        }
    }
    1.0 - miss
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"{
        "seed": 99,
        "faults": [
            {"kind": "crash", "worker": 3, "at_s": 10.0},
            {"kind": "boot_failure", "p": 0.2},
            {"kind": "hang", "worker": 2, "p": 0.05},
            {"kind": "net_loss", "p": 0.01}
        ]
    }"#;

    #[test]
    fn parses_the_full_schema() {
        let plan = FaultPlan::from_json(EXAMPLE).expect("valid");
        assert_eq!(plan.seed, 99);
        assert_eq!(plan.faults.len(), 4);
        assert_eq!(
            plan.faults[0],
            FaultSpec {
                kind: FaultKind::Crash,
                worker: Some(3),
                trigger: FaultTrigger::At(SimTime::from_secs(10)),
            }
        );
        assert_eq!(plan.faults[1].worker, None, "absent worker = all workers");
        assert_eq!(plan.faults[2].trigger, FaultTrigger::Probability(0.05));
    }

    #[test]
    fn seed_defaults_to_zero() {
        let plan = FaultPlan::from_json(r#"{"faults": []}"#).expect("valid");
        assert_eq!(plan.seed, 0);
        assert!(plan.is_empty());
    }

    #[test]
    fn rejects_malformed_plans() {
        for (text, needle) in [
            ("[1, 2]", "top level"),
            (r#"{"sede": 1}"#, "unknown top-level key"),
            (
                r#"{"faults": [{"kind": "meteor", "p": 0.5}]}"#,
                "unknown kind",
            ),
            (
                r#"{"faults": [{"kind": "crash", "worker": 1, "p": 0.5}]}"#,
                "scheduled",
            ),
            (
                r#"{"faults": [{"kind": "hang", "at_s": 5}]}"#,
                "probabilistic",
            ),
            (
                r#"{"faults": [{"kind": "crash", "at_s": 5}]}"#,
                "target worker",
            ),
            (
                r#"{"faults": [{"kind": "hang", "p": 1.5}]}"#,
                "outside [0, 1]",
            ),
            (r#"{"faults": [{"kind": "hang"}]}"#, "needs"),
            (r#"{"faults": [{"p": 0.5}]}"#, "missing \"kind\""),
            (
                r#"{"faults": [{"kind": "hang", "p": 0.1, "when": 3}]}"#,
                "unknown key",
            ),
            (r#"{"seed": -4}"#, "non-negative"),
            (r#"{"seed": 1,}"#, "expected"),
            (r#"{"seed": 1} trailing"#, "trailing"),
        ] {
            let err = FaultPlan::from_json(text).expect_err(text);
            assert!(
                err.to_string().contains(needle),
                "{text}: {err} should mention {needle}"
            );
        }
    }

    #[test]
    fn empty_plan_is_inert() {
        let mut injector = FaultInjector::new(&FaultPlan::empty());
        assert!(injector.scheduled_crashes().is_empty());
        for w in 0..8 {
            assert!(!injector.boot_fails(w));
            assert!(!injector.hangs(w));
            assert!(!injector.transfer_lost(w));
        }
        // No draw was consumed: the stream still matches a fresh RNG.
        assert_eq!(injector.jitter01(), Rng::new(0).next_f64());
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let plan = FaultPlan::from_json(EXAMPLE).expect("valid");
        let mut a = FaultInjector::new(&plan);
        let mut b = FaultInjector::new(&plan);
        for w in 0..6 {
            assert_eq!(a.boot_fails(w), b.boot_fails(w));
            assert_eq!(a.hangs(w), b.hangs(w));
            assert_eq!(a.transfer_lost(w), b.transfer_lost(w));
        }
        assert_eq!(a.jitter01(), b.jitter01());
    }

    #[test]
    fn worker_filters_apply() {
        let plan = FaultPlan::from_json(
            r#"{"seed": 3, "faults": [{"kind": "hang", "worker": 2, "p": 1.0}]}"#,
        )
        .expect("valid");
        let mut injector = FaultInjector::new(&plan);
        assert!(!injector.hangs(0), "filtered out: no draw, no fault");
        assert!(injector.hangs(2), "targeted worker always hangs at p=1");
    }

    #[test]
    fn probabilities_combine_as_independent_trials() {
        let specs = vec![(None, 0.5), (Some(1), 0.5)];
        assert_eq!(combined_probability(&specs, 0), 0.5);
        assert_eq!(combined_probability(&specs, 1), 0.75);
        assert_eq!(combined_probability(&[], 0), 0.0);
    }

    #[test]
    fn scheduled_crashes_sort_by_time() {
        let plan = FaultPlan::from_json(
            r#"{"faults": [
                {"kind": "crash", "worker": 1, "at_s": 20},
                {"kind": "crash", "worker": 4, "at_s": 5}
            ]}"#,
        )
        .expect("valid");
        let injector = FaultInjector::new(&plan);
        assert_eq!(
            injector.scheduled_crashes(),
            &[(SimTime::from_secs(5), 4), (SimTime::from_secs(20), 1)]
        );
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let value =
            json::parse(r#"{"a": [1, -2.5, true, null, "x\ny"], "b": {}}"#).expect("valid json");
        let object = value.as_object().expect("object");
        assert_eq!(object.len(), 2);
        let items = object[0].1.as_array().expect("array");
        assert_eq!(items[0].as_f64(), Some(1.0));
        assert_eq!(items[1].as_f64(), Some(-2.5));
        assert_eq!(items[4].as_str(), Some("x\ny"));
        assert_eq!(items[1].as_u64(), None, "negative is not u64");
    }
}
