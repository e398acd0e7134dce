//! Worker-activity timelines reconstructed from a run's job records —
//! a text-mode Gantt view for eyeballing scheduling behaviour and
//! debugging utilization anomalies.

use std::collections::HashMap;

use microfaas_sim::trace::{TraceEvent, TraceRecord, WorkerState};
use microfaas_sim::{SimDuration, SimTime};

use crate::report::ClusterRun;

/// One busy interval on one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusySpan {
    /// Worker index.
    pub worker: usize,
    /// Job start (execution begin).
    pub from: SimTime,
    /// Job completion (result delivered).
    pub until: SimTime,
}

/// A reconstructed per-worker activity timeline.
///
/// # Examples
///
/// ```
/// use microfaas::config::WorkloadMix;
/// use microfaas::micro::{run_microfaas, MicroFaasConfig};
/// use microfaas::timeline::Timeline;
/// use microfaas_workloads::FunctionId;
///
/// let mix = WorkloadMix::new(vec![FunctionId::RegexMatch], 12);
/// let run = run_microfaas(&MicroFaasConfig::paper_prototype(mix, 3));
/// let timeline = Timeline::from_run(&run);
/// let chart = timeline.render(60);
/// assert!(chart.lines().count() >= 10, "one row per worker");
/// ```
#[derive(Debug, Clone)]
pub struct Timeline {
    workers: usize,
    spans: Vec<BusySpan>,
    /// Intervals a worker spent crashed (from a `Crashed` state change
    /// until the next state change). Only trace reconstruction can see
    /// these; [`Timeline::from_run`] leaves them empty.
    outages: Vec<BusySpan>,
    end: SimTime,
}

impl Timeline {
    /// Rebuilds the timeline from a completed run.
    pub fn from_run(run: &ClusterRun) -> Self {
        let mut spans: Vec<BusySpan> = run
            .records
            .iter()
            .map(|r| BusySpan {
                worker: r.worker,
                from: r.started,
                until: r.started + r.total(),
            })
            .collect();
        spans.sort_by_key(|s| (s.worker, s.from));
        Timeline {
            workers: run.workers,
            spans,
            outages: Vec::new(),
            end: SimTime::ZERO + run.makespan,
        }
    }

    /// Rebuilds the timeline from a recorded trace stream.
    ///
    /// Spans open at [`TraceEvent::JobStarted`] and close at the matching
    /// [`TraceEvent::JobCompleted`] or [`TraceEvent::JobTimedOut`]; jobs
    /// still in flight when the stream ends are dropped. The time axis
    /// extends to the latest timestamp in the stream, so trailing power
    /// samples stretch the chart exactly like the run's makespan does.
    ///
    /// On a full (non-overwritten) trace of a deterministic run this
    /// reproduces [`Timeline::from_run`] span for span, which is how the
    /// trace pipeline is validated against the simulator's own records.
    ///
    /// # Examples
    ///
    /// ```
    /// use microfaas::config::WorkloadMix;
    /// use microfaas::micro::{run_microfaas_with, MicroFaasConfig};
    /// use microfaas::timeline::Timeline;
    /// use microfaas_sim::{Observer, TraceBuffer};
    /// use microfaas_workloads::FunctionId;
    ///
    /// let mix = WorkloadMix::new(vec![FunctionId::RegexMatch], 12);
    /// let config = MicroFaasConfig::paper_prototype(mix, 3);
    /// let mut buffer = TraceBuffer::new(65_536);
    /// let run = run_microfaas_with(&config, &mut Observer::tracing(&mut buffer));
    /// let timeline = Timeline::from_trace(buffer.iter(), run.workers);
    /// assert_eq!(timeline.overlap_violation(), None);
    /// ```
    pub fn from_trace<'a>(
        records: impl IntoIterator<Item = &'a TraceRecord>,
        workers: usize,
    ) -> Self {
        let mut open: HashMap<u64, (usize, SimTime)> = HashMap::new();
        let mut down: HashMap<usize, SimTime> = HashMap::new();
        let mut spans = Vec::new();
        let mut outages = Vec::new();
        let mut end = SimTime::ZERO;
        for record in records {
            end = end.max(record.at);
            match record.event {
                TraceEvent::JobStarted { job, worker, .. } => {
                    open.insert(job, (worker, record.at));
                }
                TraceEvent::JobCompleted { job, .. } | TraceEvent::JobTimedOut { job, .. } => {
                    if let Some((worker, from)) = open.remove(&job) {
                        spans.push(BusySpan {
                            worker,
                            from,
                            until: record.at,
                        });
                    }
                }
                TraceEvent::WorkerStateChange { worker, state } => {
                    if state == WorkerState::Crashed {
                        down.entry(worker).or_insert(record.at);
                    } else if let Some(from) = down.remove(&worker) {
                        outages.push(BusySpan {
                            worker,
                            from,
                            until: record.at,
                        });
                    }
                }
                _ => {}
            }
        }
        // A worker still down when the stream ends stays down to the edge
        // of the chart.
        for (worker, from) in down {
            outages.push(BusySpan {
                worker,
                from,
                until: end,
            });
        }
        spans.sort_by_key(|s| (s.worker, s.from));
        outages.sort_by_key(|s| (s.worker, s.from));
        Timeline {
            workers,
            spans,
            outages,
            end,
        }
    }

    /// Busy spans, sorted by worker then start time.
    pub fn spans(&self) -> &[BusySpan] {
        &self.spans
    }

    /// Per-worker busy fraction over the run.
    fn utilization(&self, worker: usize) -> f64 {
        let total = self.end.duration_since(SimTime::ZERO).as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        let busy: f64 = self
            .spans
            .iter()
            .filter(|s| s.worker == worker)
            .map(|s| s.until.duration_since(s.from).as_secs_f64())
            .sum();
        busy / total
    }

    /// Checks the single-tenancy invariant: no worker ever runs two jobs
    /// at once. Returns the first violating pair if any.
    pub fn overlap_violation(&self) -> Option<(BusySpan, BusySpan)> {
        self.spans.windows(2).find_map(|pair| {
            (pair[0].worker == pair[1].worker && pair[1].from < pair[0].until)
                .then(|| (pair[0], pair[1]))
        })
    }

    /// Renders an ASCII Gantt chart, one row per worker, `width`
    /// characters across the makespan: `#` busy, `x` crashed, `.` not
    /// executing (booting, rebooting, off, or idle). Crash intervals are
    /// distinct from ordinary reboot gaps so a fault-injection run reads
    /// differently from a healthy one at a glance; where a cell is both
    /// (a job closed the instant the crash hit), busy wins.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn render(&self, width: usize) -> String {
        assert!(width > 0, "chart needs at least one column");
        let total = self.end.duration_since(SimTime::ZERO).as_secs_f64();
        let mut out = String::new();
        for worker in 0..self.workers {
            let mut row = vec!['.'; width];
            if total > 0.0 {
                for (glyph, spans) in [('x', &self.outages), ('#', &self.spans)] {
                    for span in spans.iter().filter(|s| s.worker == worker) {
                        let a = (span.from.as_secs_f64() / total * width as f64) as usize;
                        let b = (span.until.as_secs_f64() / total * width as f64).ceil() as usize;
                        for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                            *cell = glyph;
                        }
                    }
                }
            }
            let line: String = row.into_iter().collect();
            out.push_str(&format!(
                "w{worker:<3} |{line}| {:>5.1}%\n",
                self.utilization(worker) * 100.0
            ));
        }
        out.push_str(&format!(
            "      0s{:>width$}\n",
            format!("{:.1}s", total),
            width = width.saturating_sub(1)
        ));
        out
    }

    /// Mean gap between consecutive jobs on the same worker — under the
    /// paper's policy this is the reboot time.
    pub fn mean_gap(&self) -> Option<SimDuration> {
        let mut gaps = Vec::new();
        for pair in self.spans.windows(2) {
            if pair[0].worker == pair[1].worker {
                gaps.push(pair[1].from.duration_since(pair[0].until));
            }
        }
        if gaps.is_empty() {
            None
        } else {
            let total: u64 = gaps.iter().map(|g| g.as_micros()).sum();
            Some(SimDuration::from_micros(total / gaps.len() as u64))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadMix;
    use crate::micro::{run_microfaas, MicroFaasConfig};
    use microfaas_workloads::FunctionId;

    fn timeline() -> Timeline {
        let mix = WorkloadMix::new(vec![FunctionId::RegexMatch, FunctionId::CascSha], 25);
        let run = run_microfaas(&MicroFaasConfig::paper_prototype(mix, 9));
        Timeline::from_run(&run)
    }

    #[test]
    fn single_tenancy_holds() {
        assert_eq!(timeline().overlap_violation(), None);
    }

    #[test]
    fn gaps_match_the_reboot_time() {
        let gap = timeline().mean_gap().expect("multiple jobs per worker");
        // The ARM reboot is 1.51 s; jitter-free scheduling puts the gap
        // exactly there.
        let secs = gap.as_secs_f64();
        assert!(
            (1.45..1.6).contains(&secs),
            "mean inter-job gap {secs:.2}s should be the 1.51 s reboot"
        );
    }

    #[test]
    fn utilization_is_high_under_saturation() {
        let timeline = timeline();
        for worker in 0..10 {
            let u = timeline.utilization(worker);
            assert!(
                (0.2..=1.0).contains(&u),
                "worker {worker} utilization {u:.2} out of range"
            );
        }
    }

    #[test]
    fn render_has_one_row_per_worker_plus_axis() {
        let chart = timeline().render(40);
        assert_eq!(chart.lines().count(), 11);
        assert!(chart.contains('#'), "busy cells must appear");
        let first = chart.lines().next().expect("rows exist");
        assert!(first.starts_with("w0"));
    }

    #[test]
    fn trace_reconstruction_matches_the_run_records() {
        use crate::micro::run_microfaas_with;
        use microfaas_sim::{Observer, TraceBuffer};

        let mix = WorkloadMix::new(vec![FunctionId::RegexMatch, FunctionId::CascSha], 25);
        let config = MicroFaasConfig::paper_prototype(mix, 9);
        let mut buffer = TraceBuffer::new(1 << 16);
        let run = run_microfaas_with(&config, &mut Observer::tracing(&mut buffer));
        assert_eq!(buffer.dropped(), 0, "buffer must hold the whole run");

        let from_run = Timeline::from_run(&run);
        let from_trace = Timeline::from_trace(buffer.iter(), run.workers);
        assert_eq!(from_trace.spans(), from_run.spans());
        assert_eq!(from_trace.overlap_violation(), None);
        assert_eq!(from_trace.render(40), from_run.render(40));
    }

    #[test]
    fn overlap_detector_fires_on_bad_data() {
        let spans = vec![
            BusySpan {
                worker: 0,
                from: SimTime::ZERO,
                until: SimTime::from_secs(5),
            },
            BusySpan {
                worker: 0,
                from: SimTime::from_secs(3),
                until: SimTime::from_secs(6),
            },
        ];
        let timeline = Timeline {
            workers: 1,
            spans,
            outages: vec![],
            end: SimTime::from_secs(6),
        };
        assert!(timeline.overlap_violation().is_some());
    }

    #[test]
    fn crash_outages_render_with_their_own_glyph() {
        use crate::micro::run_microfaas_with;
        use microfaas_sim::faults::{FaultKind, FaultPlan, FaultSpec, FaultTrigger};
        use microfaas_sim::{Observer, TraceBuffer};
        use std::sync::Arc;

        let mix = WorkloadMix::new(vec![FunctionId::MatMul], 40);
        let mut config = MicroFaasConfig::paper_prototype(mix, 9);
        config.faults = Arc::new(FaultPlan {
            seed: 4,
            faults: vec![FaultSpec {
                kind: FaultKind::Crash,
                worker: Some(3),
                trigger: FaultTrigger::At(SimTime::from_secs(10)),
            }],
        });
        let mut buffer = TraceBuffer::new(1 << 16);
        run_microfaas_with(&config, &mut Observer::tracing(&mut buffer));
        let timeline = Timeline::from_trace(buffer.iter(), config.workers);
        let outages = &timeline.outages;
        assert!(!outages.is_empty(), "the injected crash must show up");
        assert!(outages.iter().all(|o| o.worker == 3));
        let chart = timeline.render(120);
        let crashed_row = chart.lines().nth(3).expect("worker 3 row");
        assert!(
            crashed_row.contains('x'),
            "crash interval must render as x: {crashed_row}"
        );
        let healthy_row = chart.lines().next().expect("worker 0 row");
        assert!(!healthy_row.contains('x'), "healthy workers stay x-free");
    }

    #[test]
    fn empty_run_renders_idle_chart() {
        let timeline = Timeline {
            workers: 2,
            spans: vec![],
            outages: vec![],
            end: SimTime::ZERO,
        };
        let chart = timeline.render(10);
        assert!(chart.contains("w0"));
        assert!(!chart.contains('#'));
        assert_eq!(timeline.mean_gap(), None);
        assert_eq!(timeline.utilization(0), 0.0);
    }
}
