//! Results of one cluster run — throughput, energy, and per-function
//! timing breakdowns.

use std::collections::BTreeMap;
use std::fmt;

use microfaas_energy::EnergyReport;
use microfaas_sim::SimDuration;
use microfaas_workloads::FunctionId;

use crate::job::{aggregate, FunctionStats, Job, JobRecord};

/// Why an invocation did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Killed by the per-invocation timeout (terminal: not retried).
    TimedOut,
    /// Shed from the queue to protect degraded capacity.
    Shed,
    /// Lost to faults after exhausting the retry budget.
    Failed,
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Outcome::TimedOut => "timed_out",
            Outcome::Shed => "shed",
            Outcome::Failed => "failed",
        })
    }
}

/// One invocation that did not complete, with its typed [`Outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DroppedJob {
    /// The invocation.
    pub job: Job,
    /// Why it was dropped.
    pub outcome: Outcome,
    /// Retry attempts consumed before the drop.
    pub attempts: u32,
}

/// Counters for the fault-injection and recovery machinery
/// (see `docs/FAILURE_MODEL.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Faults fired from the active plan.
    pub injected: u64,
    /// In-flight jobs pulled back off failed workers.
    pub requeued: u64,
    /// Backoff retries scheduled by the orchestrator.
    pub retries: u64,
}

/// Everything measured during one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// Human-readable label ("MicroFaaS (10 SBCs)", "Conventional (6 VMs)").
    pub label: String,
    /// Worker count (SBCs or VMs).
    pub workers: usize,
    /// Energy metering over the run.
    pub energy: EnergyReport,
    /// Wall-clock span from the first event to the last completion.
    pub makespan: SimDuration,
    /// Raw per-job records (successful invocations only), in
    /// completion order.
    pub records: Vec<JobRecord>,
    /// Invocations that did not complete, each with a typed [`Outcome`].
    pub dropped: Vec<DroppedJob>,
    /// Fault-injection and recovery counters (all zero without a plan).
    pub faults: FaultSummary,
}

impl ClusterRun {
    /// Jobs completed.
    ///
    /// # Examples
    ///
    /// ```
    /// use microfaas::config::WorkloadMix;
    /// use microfaas::micro::{run_microfaas, MicroFaasConfig};
    ///
    /// let run = run_microfaas(&MicroFaasConfig::paper_prototype(WorkloadMix::quick(), 42));
    /// assert_eq!(run.jobs_completed(), run.records.len() as u64);
    /// assert!(run.jobs_completed() > 0);
    /// ```
    pub fn jobs_completed(&self) -> u64 {
        self.records.len() as u64
    }

    /// Invocations killed by the per-invocation timeout.
    ///
    /// # Examples
    ///
    /// ```
    /// use microfaas::config::WorkloadMix;
    /// use microfaas::micro::{run_microfaas, MicroFaasConfig};
    ///
    /// let run = run_microfaas(&MicroFaasConfig::paper_prototype(WorkloadMix::quick(), 42));
    /// assert_eq!(run.timed_out(), 0, "no timeout configured, no kills");
    /// ```
    pub fn timed_out(&self) -> u64 {
        self.count_outcome(Outcome::TimedOut)
    }

    /// Queued invocations shed under degraded capacity.
    pub fn shed(&self) -> u64 {
        self.count_outcome(Outcome::Shed)
    }

    /// Invocations lost to faults after exhausting their retry budget.
    pub fn failed(&self) -> u64 {
        self.count_outcome(Outcome::Failed)
    }

    fn count_outcome(&self, outcome: Outcome) -> u64 {
        self.dropped.iter().filter(|d| d.outcome == outcome).count() as u64
    }

    /// Every submitted invocation reached exactly one terminal state,
    /// so completions plus drops account for the whole workload.
    ///
    /// # Examples
    ///
    /// ```
    /// use microfaas::config::WorkloadMix;
    /// use microfaas::micro::{run_microfaas, MicroFaasConfig};
    ///
    /// let mix = WorkloadMix::quick();
    /// let submitted = mix.total_jobs();
    /// let run = run_microfaas(&MicroFaasConfig::paper_prototype(mix, 42));
    /// assert_eq!(run.jobs_accounted(), submitted);
    /// ```
    pub fn jobs_accounted(&self) -> u64 {
        self.jobs_completed() + self.dropped.len() as u64
    }

    /// Cluster throughput in functions per minute.
    ///
    /// # Examples
    ///
    /// ```
    /// use microfaas::config::WorkloadMix;
    /// use microfaas::micro::{run_microfaas, MicroFaasConfig};
    ///
    /// let run = run_microfaas(&MicroFaasConfig::paper_prototype(WorkloadMix::quick(), 42));
    /// let expected = run.jobs_completed() as f64 * 60.0 / run.makespan.as_secs_f64();
    /// assert_eq!(run.functions_per_minute(), expected);
    /// ```
    pub fn functions_per_minute(&self) -> f64 {
        if self.makespan.is_zero() {
            return 0.0;
        }
        self.jobs_completed() as f64 * 60.0 / self.makespan.as_secs_f64()
    }

    /// Energy per function in joules.
    ///
    /// # Examples
    ///
    /// ```
    /// use microfaas::config::WorkloadMix;
    /// use microfaas::micro::{run_microfaas, MicroFaasConfig};
    ///
    /// let run = run_microfaas(&MicroFaasConfig::paper_prototype(WorkloadMix::quick(), 42));
    /// let jpf = run.joules_per_function().expect("jobs completed");
    /// // The paper's SBC cluster lands near 5.7 J per function.
    /// assert!((1.0..20.0).contains(&jpf));
    /// ```
    pub fn joules_per_function(&self) -> Option<f64> {
        self.energy.joules_per_function()
    }

    /// Per-function aggregation (the Fig. 3 bars).
    ///
    /// # Examples
    ///
    /// ```
    /// use microfaas::config::WorkloadMix;
    /// use microfaas::micro::{run_microfaas, MicroFaasConfig};
    /// use microfaas_workloads::FunctionId;
    ///
    /// let mix = WorkloadMix::new(vec![FunctionId::CascSha], 5);
    /// let run = run_microfaas(&MicroFaasConfig::paper_prototype(mix, 42));
    /// let stats = run.per_function();
    /// assert_eq!(stats.len(), 1);
    /// assert_eq!(stats[&FunctionId::CascSha].exec_ms.count(), 5);
    /// ```
    pub fn per_function(&self) -> BTreeMap<FunctionId, FunctionStats> {
        aggregate(&self.records)
    }
}

impl fmt::Display for ClusterRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} jobs in {} ({:.1} func/min",
            self.label,
            self.jobs_completed(),
            self.makespan,
            self.functions_per_minute()
        )?;
        if let Some(jpf) = self.joules_per_function() {
            write!(f, ", {jpf:.2} J/func")?;
        }
        // Only faulted/timed-out runs mention drops, so fault-free
        // output stays byte-identical to builds without fault support.
        if !self.dropped.is_empty() {
            write!(f, ", {} dropped", self.dropped.len())?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microfaas_sim::SimTime;

    fn run_with(records: Vec<JobRecord>, makespan_secs: u64, joules: f64) -> ClusterRun {
        let n = records.len() as u64;
        ClusterRun {
            label: "test".to_string(),
            workers: 2,
            energy: EnergyReport {
                total_joules: joules,
                elapsed_seconds: makespan_secs as f64,
                average_watts: joules / makespan_secs as f64,
                functions_completed: n,
            },
            makespan: SimDuration::from_secs(makespan_secs),
            records,
            dropped: vec![],
            faults: FaultSummary::default(),
        }
    }

    #[test]
    fn throughput_and_energy_math() {
        let records: Vec<JobRecord> = (0..120)
            .map(|i| JobRecord {
                job: Job {
                    id: i,
                    function: FunctionId::FloatOps,
                },
                worker: 0,
                started: SimTime::ZERO,
                exec: SimDuration::from_millis(100),
                overhead: SimDuration::from_millis(10),
            })
            .collect();
        let run = run_with(records, 60, 600.0);
        assert_eq!(run.functions_per_minute(), 120.0);
        assert_eq!(run.joules_per_function(), Some(5.0));
        assert!(run.to_string().contains("120.0 func/min"));
    }

    #[test]
    fn empty_run_is_safe() {
        let run = run_with(vec![], 1, 0.0);
        assert_eq!(run.jobs_completed(), 0);
        assert_eq!(run.joules_per_function(), None);
    }

    #[test]
    fn dropped_jobs_split_by_outcome() {
        let mut run = run_with(vec![], 1, 0.0);
        for (id, outcome) in [
            (0, Outcome::TimedOut),
            (1, Outcome::TimedOut),
            (2, Outcome::Shed),
            (3, Outcome::Failed),
        ] {
            run.dropped.push(DroppedJob {
                job: Job {
                    id,
                    function: FunctionId::CascSha,
                },
                outcome,
                attempts: if outcome == Outcome::Failed { 3 } else { 0 },
            });
        }
        assert_eq!(run.timed_out(), 2);
        assert_eq!(run.shed(), 1);
        assert_eq!(run.failed(), 1);
        assert_eq!(run.jobs_accounted(), 4);
        assert!(run.to_string().contains("4 dropped"));
        assert_eq!(Outcome::TimedOut.to_string(), "timed_out");
    }
}
