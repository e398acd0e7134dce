//! Experiment configuration shared by both cluster simulators.

use microfaas_sim::Rng;
use microfaas_workloads::FunctionId;

use crate::job::Job;

/// Which functions to run and how many invocations of each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadMix {
    functions: Vec<FunctionId>,
    invocations_per_function: u32,
}

impl WorkloadMix {
    /// A smaller mix for quick runs and tests.
    pub fn quick() -> Self {
        WorkloadMix {
            functions: FunctionId::ALL.to_vec(),
            invocations_per_function: 50,
        }
    }

    /// A custom mix.
    ///
    /// # Panics
    ///
    /// Panics if `functions` is empty or `invocations_per_function` is 0.
    pub fn new(functions: Vec<FunctionId>, invocations_per_function: u32) -> Self {
        assert!(!functions.is_empty(), "mix needs at least one function");
        assert!(invocations_per_function > 0, "need at least one invocation");
        WorkloadMix {
            functions,
            invocations_per_function,
        }
    }

    /// Functions in the mix.
    pub fn functions(&self) -> &[FunctionId] {
        &self.functions
    }

    /// Total job count.
    pub fn total_jobs(&self) -> u64 {
        self.functions.len() as u64 * self.invocations_per_function as u64
    }

    /// Materializes the shuffled job list (deterministic for a given
    /// generator state) — the order the orchestrator issues invocations.
    pub fn jobs(&self, rng: &mut Rng) -> Vec<Job> {
        let mut jobs: Vec<Job> = Vec::with_capacity(self.total_jobs() as usize);
        let mut id = 0;
        for _ in 0..self.invocations_per_function {
            for &function in &self.functions {
                jobs.push(Job { id, function });
                id += 1;
            }
        }
        // Fisher–Yates shuffle for a random issue order.
        for i in (1..jobs.len()).rev() {
            let j = rng.index(i + 1);
            jobs.swap(i, j);
        }
        jobs
    }
}

/// Multiplicative runtime jitter: real systems never repeat a measurement
/// exactly, and the percentile columns of the reports need spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jitter {
    /// Relative standard deviation (e.g. 0.04 for ±4%).
    pub relative_std: f64,
}

impl Jitter {
    /// The default ±4% used for all headline experiments.
    pub fn default_run_to_run() -> Self {
        Jitter { relative_std: 0.04 }
    }

    /// No jitter (fully deterministic service times).
    pub fn none() -> Self {
        Jitter { relative_std: 0.0 }
    }

    /// Draws a multiplicative factor around 1.0, clamped to [0.8, 1.3]
    /// so a single outlier cannot distort a mean of thousands.
    pub fn factor(&self, rng: &mut Rng) -> f64 {
        if self.relative_std == 0.0 {
            return 1.0;
        }
        rng.normal(1.0, self.relative_std).clamp(0.8, 1.3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_cover_every_function_equally() {
        let mix = WorkloadMix::new(FunctionId::ALL.to_vec(), 5);
        let mut rng = Rng::new(1);
        let jobs = mix.jobs(&mut rng);
        assert_eq!(jobs.len(), 85);
        for function in FunctionId::ALL {
            let count = jobs.iter().filter(|j| j.function == function).count();
            assert_eq!(count, 5, "{function} should appear 5 times");
        }
        // Ids are unique.
        let mut ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 85);
    }

    #[test]
    fn shuffle_is_seed_deterministic() {
        let mix = WorkloadMix::quick();
        let a = mix.jobs(&mut Rng::new(7));
        let b = mix.jobs(&mut Rng::new(7));
        assert_eq!(a, b);
        let c = mix.jobs(&mut Rng::new(8));
        assert_ne!(a, c, "different seeds should shuffle differently");
    }

    #[test]
    fn jitter_stays_clamped_and_centered() {
        let jitter = Jitter::default_run_to_run();
        let mut rng = Rng::new(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let f = jitter.factor(&mut rng);
            assert!((0.8..=1.3).contains(&f));
            sum += f;
        }
        assert!((sum / 10_000.0 - 1.0).abs() < 0.01);
    }

    #[test]
    fn zero_jitter_is_exactly_one() {
        let mut rng = Rng::new(3);
        assert_eq!(Jitter::none().factor(&mut rng), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one function")]
    fn empty_mix_panics() {
        WorkloadMix::new(vec![], 1);
    }
}
