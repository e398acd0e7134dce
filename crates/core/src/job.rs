//! Jobs (function invocations) and their timing records.

use std::collections::BTreeMap;

use microfaas_sched::{NodeView, PlacementKind};
use microfaas_sim::{OnlineStats, Rng, SimDuration, SimTime};
use microfaas_workloads::FunctionId;

/// One function invocation flowing through a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Unique id within the run.
    pub id: u64,
    /// Which Table-I function to execute.
    pub function: FunctionId,
}

/// Completed-job timing record, the raw material for Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRecord {
    /// The job.
    pub job: Job,
    /// Worker that ran it.
    pub worker: usize,
    /// When execution began on the worker.
    pub started: SimTime,
    /// Time spent executing the function body ("Working").
    pub exec: SimDuration,
    /// Time spent receiving input / returning results ("Overhead").
    pub overhead: SimDuration,
}

impl JobRecord {
    /// Total worker-visible time for the job.
    pub fn total(&self) -> SimDuration {
        self.exec + self.overhead
    }
}

/// Aggregated per-function timing (one Fig. 3 bar pair).
#[derive(Debug, Clone, Default)]
pub struct FunctionStats {
    /// Execution-time distribution in milliseconds.
    pub exec_ms: OnlineStats,
    /// Overhead distribution in milliseconds.
    pub overhead_ms: OnlineStats,
}

impl FunctionStats {
    /// Records one completed job.
    pub fn record(&mut self, record: &JobRecord) {
        self.exec_ms.record(record.exec.as_millis_f64());
        self.overhead_ms.record(record.overhead.as_millis_f64());
    }

    /// Mean total (exec + overhead) in milliseconds.
    pub fn mean_total_ms(&self) -> f64 {
        self.exec_ms.mean() + self.overhead_ms.mean()
    }

    /// Number of completed invocations.
    pub fn count(&self) -> u64 {
        self.exec_ms.count()
    }
}

/// The orchestration plane's job queues under a chosen assignment policy.
#[derive(Debug, Clone)]
pub struct Dispatcher {
    mode: PlacementKind,
    shared: std::collections::VecDeque<Job>,
    per_worker: Vec<std::collections::VecDeque<Job>>,
}

impl Dispatcher {
    /// Distributes `jobs` over `workers` queues according to `mode`.
    ///
    /// `WorkConserving` keeps the single shared FIFO; every other
    /// [`PlacementKind`] places each job statically through
    /// [`PlacementKind::place`], with `weight` supplying the expected
    /// cost a `LeastLoaded` policy balances.
    ///
    /// Determinism: `rng` is the simulation stream, and the only policy
    /// that draws from it is the legacy `RandomStatic` — exactly one
    /// `index(workers)` per job, the historical sequence the bit-compat
    /// goldens pin. The other placements are deterministic picks.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn with_weights(
        mode: PlacementKind,
        workers: usize,
        jobs: Vec<Job>,
        rng: &mut Rng,
        weight: impl Fn(FunctionId) -> f64,
    ) -> Self {
        assert!(workers > 0, "dispatcher needs at least one worker");
        // Reserve each queue for its expected share up front (the full
        // workload for the shared queue, jobs/workers plus slack for the
        // static splits) so dispatch never regrows a ring buffer.
        let (shared_cap, per_worker_cap) = if mode.shared_queue() {
            (jobs.len(), 0)
        } else {
            (0, jobs.len() / workers + workers)
        };
        let mut dispatcher = Dispatcher {
            mode,
            shared: std::collections::VecDeque::with_capacity(shared_cap),
            per_worker: vec![std::collections::VecDeque::with_capacity(per_worker_cap); workers],
        };
        if mode.shared_queue() {
            dispatcher.shared.extend(jobs);
        } else {
            // A worker holding at least one job boots at t = 0, so the
            // packing policies treat "has work" as "will be warm".
            let mut views = vec![
                NodeView {
                    queued: 0,
                    busy: false,
                    powered: false,
                    load: 0.0,
                };
                workers
            ];
            for job in jobs {
                let w = mode.place(None, &views, rng);
                views[w].queued += 1;
                views[w].load += weight(job.function);
                views[w].powered = true;
                dispatcher.per_worker[w].push_back(job);
            }
        }
        dispatcher
    }

    /// Whether this dispatcher runs one shared FIFO (work-conserving)
    /// instead of static per-worker queues.
    pub(crate) fn is_shared(&self) -> bool {
        self.mode.shared_queue()
    }

    /// Whether worker `w` has any work available.
    pub fn has_work(&self, w: usize) -> bool {
        if self.is_shared() {
            !self.shared.is_empty()
        } else {
            !self.per_worker[w].is_empty()
        }
    }

    /// Takes the next job for worker `w`, if any.
    pub fn pull(&mut self, w: usize) -> Option<Job> {
        if self.is_shared() {
            self.shared.pop_front()
        } else {
            self.per_worker[w].pop_front()
        }
    }

    /// Jobs still queued across all workers.
    pub fn remaining(&self) -> usize {
        self.shared.len() + self.per_worker.iter().map(|q| q.len()).sum::<usize>()
    }

    /// Puts a recovered job back at the *head* of worker `w`'s queue so
    /// a retried invocation runs before fresh arrivals.
    pub fn requeue_front(&mut self, w: usize, job: Job) {
        if self.is_shared() {
            self.shared.push_front(job);
        } else {
            self.per_worker[w].push_front(job);
        }
    }

    /// Appends a job to worker `w`'s queue (redistribution target).
    pub fn enqueue_back(&mut self, w: usize, job: Job) {
        if self.is_shared() {
            self.shared.push_back(job);
        } else {
            self.per_worker[w].push_back(job);
        }
    }

    /// Removes every queued job matching `drop`, returning them in
    /// deterministic order (shared queue first, then per-worker queues
    /// by index). Used for graceful degradation under lost capacity.
    pub fn shed_where(&mut self, mut drop: impl FnMut(&Job) -> bool) -> Vec<Job> {
        let mut shed = Vec::new();
        let mut strain = |queue: &mut std::collections::VecDeque<Job>| {
            let mut kept = std::collections::VecDeque::with_capacity(queue.len());
            for job in queue.drain(..) {
                if drop(&job) {
                    shed.push(job);
                } else {
                    kept.push_back(job);
                }
            }
            *queue = kept;
        };
        strain(&mut self.shared);
        for queue in &mut self.per_worker {
            strain(queue);
        }
        shed
    }

    /// Drains everything statically assigned to a dead worker so the
    /// orchestrator can redistribute it. The shared (work-conserving)
    /// queue is untouched: surviving workers already pull from it.
    pub fn drain_worker(&mut self, w: usize) -> Vec<Job> {
        self.per_worker[w].drain(..).collect()
    }

    /// Iterates the static `(worker, job)` placements, worker-major
    /// (empty for the shared-queue policy, which places at pull time).
    /// The engines trace these as `placement_decision` events when a
    /// non-default policy is active.
    pub fn placements(&self) -> impl Iterator<Item = (usize, &Job)> + '_ {
        self.per_worker
            .iter()
            .enumerate()
            .flat_map(|(w, queue)| queue.iter().map(move |job| (w, job)))
    }
}

/// Builds the per-function aggregation from completed-job records.
pub fn aggregate(records: &[JobRecord]) -> BTreeMap<FunctionId, FunctionStats> {
    let mut map: BTreeMap<FunctionId, FunctionStats> = BTreeMap::new();
    for record in records {
        map.entry(record.job.function).or_default().record(record);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(function: FunctionId, exec_ms: u64, overhead_ms: u64) -> JobRecord {
        JobRecord {
            job: Job { id: 0, function },
            worker: 0,
            started: SimTime::ZERO,
            exec: SimDuration::from_millis(exec_ms),
            overhead: SimDuration::from_millis(overhead_ms),
        }
    }

    #[test]
    fn total_is_exec_plus_overhead() {
        assert_eq!(
            rec(FunctionId::FloatOps, 100, 25).total(),
            SimDuration::from_millis(125)
        );
    }

    #[test]
    fn requeue_front_jumps_the_line() {
        let mut rng = microfaas_sim::Rng::new(1);
        let jobs: Vec<Job> = (0..4)
            .map(|id| Job {
                id,
                function: FunctionId::FloatOps,
            })
            .collect();
        let mut d =
            Dispatcher::with_weights(PlacementKind::WorkConserving, 2, jobs, &mut rng, |_| 1.0);
        let retried = Job {
            id: 99,
            function: FunctionId::CascSha,
        };
        d.requeue_front(0, retried);
        assert_eq!(d.pull(1), Some(retried), "retry runs before fresh work");
        assert_eq!(d.remaining(), 4);
    }

    #[test]
    fn shed_where_keeps_order_of_survivors() {
        let mut rng = microfaas_sim::Rng::new(2);
        let jobs: Vec<Job> = (0..6)
            .map(|id| Job {
                id,
                function: if id % 2 == 0 {
                    FunctionId::MatMul
                } else {
                    FunctionId::RedisInsert
                },
            })
            .collect();
        let mut d =
            Dispatcher::with_weights(PlacementKind::WorkConserving, 2, jobs, &mut rng, |_| 1.0);
        let shed = d.shed_where(|job| job.function == FunctionId::MatMul);
        assert_eq!(shed.iter().map(|j| j.id).collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(d.pull(0).map(|j| j.id), Some(1), "survivors keep order");
        assert_eq!(d.remaining(), 2);
    }

    #[test]
    fn drain_worker_empties_only_the_static_queue() {
        let mut rng = microfaas_sim::Rng::new(3);
        let jobs: Vec<Job> = (0..10)
            .map(|id| Job {
                id,
                function: FunctionId::FloatOps,
            })
            .collect();
        let mut d =
            Dispatcher::with_weights(PlacementKind::RandomStatic, 2, jobs, &mut rng, |_| 1.0);
        let before = d.remaining();
        let drained = d.drain_worker(0);
        assert!(!drained.is_empty(), "seed 3 assigns worker 0 some jobs");
        assert_eq!(d.remaining(), before - drained.len());
        assert!(!d.has_work(0));
        for job in drained {
            d.enqueue_back(1, job);
        }
        assert_eq!(d.remaining(), before, "redistribution conserves jobs");
    }

    #[test]
    fn random_static_with_more_workers_than_jobs() {
        // 3 jobs across 8 workers: every job must land somewhere, most
        // workers stay empty, and the empty queues behave (no work, no
        // panic on pull/drain).
        let mut rng = microfaas_sim::Rng::new(5);
        let jobs: Vec<Job> = (0..3)
            .map(|id| Job {
                id,
                function: FunctionId::FloatOps,
            })
            .collect();
        let mut d =
            Dispatcher::with_weights(PlacementKind::RandomStatic, 8, jobs, &mut rng, |_| 1.0);
        assert_eq!(d.remaining(), 3);
        let occupied = (0..8).filter(|&w| d.has_work(w)).count();
        assert!((1..=3).contains(&occupied));
        let mut pulled = 0;
        for w in 0..8 {
            if !d.has_work(w) {
                assert_eq!(d.pull(w), None, "empty queue pulls nothing");
                assert!(d.drain_worker(w).is_empty());
            }
            while let Some(_job) = d.pull(w) {
                pulled += 1;
            }
        }
        assert_eq!(pulled, 3, "no job may vanish");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn drain_after_requeue_recovers_the_crashed_job_first() {
        // A mid-job crash requeues the in-flight job at the head of its
        // worker's queue; if the worker then never comes back, draining
        // it must surface that job *first* so redistribution preserves
        // the retry-before-fresh-work ordering.
        let mut rng = microfaas_sim::Rng::new(3);
        let jobs: Vec<Job> = (0..10)
            .map(|id| Job {
                id,
                function: FunctionId::FloatOps,
            })
            .collect();
        let mut d =
            Dispatcher::with_weights(PlacementKind::RandomStatic, 2, jobs, &mut rng, |_| 1.0);
        let in_flight = d.pull(0).expect("seed 3 assigns worker 0 work");
        let queued_behind = d.remaining();
        d.requeue_front(0, in_flight);
        assert_eq!(d.remaining(), queued_behind + 1);
        let drained = d.drain_worker(0);
        assert_eq!(
            drained.first(),
            Some(&in_flight),
            "the crashed job leads the drained queue"
        );
        assert!(!d.has_work(0), "the dead worker's queue is empty");
        for job in drained {
            d.enqueue_back(1, job);
        }
        assert_eq!(
            d.remaining(),
            queued_behind + 1,
            "redistribution conserves jobs"
        );
        let mut survivors = Vec::new();
        while let Some(job) = d.pull(1) {
            survivors.push(job);
        }
        assert!(
            survivors.contains(&in_flight),
            "the recovered job reaches the surviving worker"
        );
    }

    #[test]
    fn least_loaded_balances_by_weight_not_count() {
        let mut rng = microfaas_sim::Rng::new(1);
        // Four heavy jobs then four light ones: weighted placement puts
        // each heavy job on its own worker, then packs the light jobs
        // onto the emptiest weighted queues.
        let jobs: Vec<Job> = (0..4)
            .map(|id| Job {
                id,
                function: FunctionId::MatMul,
            })
            .chain((4..8).map(|id| Job {
                id,
                function: FunctionId::RegexMatch,
            }))
            .collect();
        let d = Dispatcher::with_weights(PlacementKind::LeastLoaded, 4, jobs, &mut rng, |f| {
            if f == FunctionId::MatMul {
                10.0
            } else {
                1.0
            }
        });
        for w in 0..4 {
            assert!(d.has_work(w), "every worker gets a share");
        }
        assert_eq!(d.remaining(), 8);
    }

    #[test]
    fn join_shortest_queue_round_robins_a_uniform_batch() {
        let mut rng = microfaas_sim::Rng::new(1);
        let jobs: Vec<Job> = (0..9)
            .map(|id| Job {
                id,
                function: FunctionId::FloatOps,
            })
            .collect();
        let mut d =
            Dispatcher::with_weights(PlacementKind::JoinShortestQueue, 3, jobs, &mut rng, |_| 1.0);
        // 9 jobs over 3 workers, ties to the lowest index: 3 each, and
        // worker 0 holds jobs 0, 3, 6.
        assert_eq!(d.pull(0).map(|j| j.id), Some(0));
        assert_eq!(d.pull(0).map(|j| j.id), Some(3));
        assert_eq!(d.pull(0).map(|j| j.id), Some(6));
        assert_eq!(d.pull(0), None);
    }

    #[test]
    fn warm_first_packs_the_whole_batch_onto_one_node() {
        let mut rng = microfaas_sim::Rng::new(1);
        let jobs: Vec<Job> = (0..6)
            .map(|id| Job {
                id,
                function: FunctionId::FloatOps,
            })
            .collect();
        let mut d = Dispatcher::with_weights(PlacementKind::WarmFirst, 4, jobs, &mut rng, |_| 1.0);
        assert!(d.has_work(0), "the first node warms up");
        for w in 1..4 {
            assert!(!d.has_work(w), "worker {w} never boots for a batch");
        }
        assert_eq!(d.drain_worker(0).len(), 6);
    }

    #[test]
    fn power_aware_fills_in_backlog_waves() {
        let mut rng = microfaas_sim::Rng::new(1);
        let jobs: Vec<Job> = (0..6)
            .map(|id| Job {
                id,
                function: FunctionId::FloatOps,
            })
            .collect();
        let mut d = Dispatcher::with_weights(PlacementKind::PowerAware, 4, jobs, &mut rng, |_| 1.0);
        // Packing threshold 2: six jobs warm exactly three nodes.
        assert_eq!((0..4).filter(|&w| d.has_work(w)).count(), 3);
        assert_eq!(d.drain_worker(0).len(), 2);
    }

    #[test]
    fn new_placements_leave_the_simulation_stream_untouched() {
        let jobs: Vec<Job> = (0..12)
            .map(|id| Job {
                id,
                function: FunctionId::FloatOps,
            })
            .collect();
        for mode in [
            PlacementKind::WorkConserving,
            PlacementKind::LeastLoaded,
            PlacementKind::JoinShortestQueue,
            PlacementKind::WarmFirst,
            PlacementKind::PowerAware,
        ] {
            let mut rng = microfaas_sim::Rng::new(17);
            let _ = Dispatcher::with_weights(mode, 5, jobs.clone(), &mut rng, |_| 1.0);
            let mut untouched = microfaas_sim::Rng::new(17);
            assert_eq!(
                rng.next_u64(),
                untouched.next_u64(),
                "{mode:?} must not draw from the simulation stream"
            );
        }
    }

    #[test]
    fn aggregate_groups_by_function() {
        let records = [
            rec(FunctionId::FloatOps, 100, 10),
            rec(FunctionId::FloatOps, 200, 30),
            rec(FunctionId::CascSha, 500, 20),
        ];
        let stats = aggregate(&records);
        assert_eq!(stats.len(), 2);
        let fo = &stats[&FunctionId::FloatOps];
        assert_eq!(fo.count(), 2);
        assert_eq!(fo.exec_ms.mean(), 150.0);
        assert_eq!(fo.overhead_ms.mean(), 20.0);
        assert_eq!(fo.mean_total_ms(), 170.0);
    }
}
