//! `--compare PARENT.json CHANGE.json`: one verdict per workload and
//! end-to-end metric, against each metric's bound in `BENCHMARK.json`
//! and the ten-pair rule for claiming a gain.

use std::process::ExitCode;

use microfaas_sim::json;

use crate::measure::quartiles;
use crate::record::{Metric, Record};
use crate::Better;

/// Set-up times are microseconds, so a relative bound alone would flag
/// noise: set-up counts as worse only past this many seconds as well.
const SETUP_FLOOR_S: f64 = 1e-3;

/// How a change's samples of one metric read against the parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the gain rule: the change wins at least nine in ten
    /// pairs and the values differ by more than the parent's IQR.
    Gain,
    /// Within the bound, and not a gain.
    Unchanged,
    /// Worse than the parent's value by more than the bound.
    Regression,
    /// The run-to-run spread is wider than the bound, so a difference
    /// of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Unchanged => "unchanged",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the change's metric against the parent's from their per-pass
/// samples alone; each side's median is also its reported value. A
/// regression is a median worse by more than `bound` (a share of the
/// parent's median, but never less than `floor` in absolute terms). A spread (IQR / median) wider than the bound is unresolved
/// unless every change sample beats every parent sample, and a gain
/// needs nine wins in ten pairs, paired by position (round order), and a
/// difference larger than the parent's interquartile range.
pub fn verdict(parent: &Metric, change: &Metric, bound: f64, floor: f64) -> Verdict {
    let (p, c) = (&parent.samples, &change.samples);
    let (p1, pm, p3) = quartiles(p);
    let (c1, cm, c3) = quartiles(c);
    // Positive when `a` is worse than `b`.
    let worse = |a: f64, b: f64| match parent.better {
        Better::Lower => a - b,
        Better::Higher => b - a,
    };
    let every_change_better = c.iter().all(|&x| p.iter().all(|&y| worse(x, y) < 0.0));
    let spread = ((p3 - p1) / pm.abs()).max((c3 - c1) / cm.abs());
    if spread > bound && !every_change_better {
        return Verdict::Unresolved;
    }
    if worse(cm, pm) > (bound * pm.abs()).max(floor) {
        return Verdict::Regression;
    }
    let pairs = p.len().min(c.len());
    let wins = (0..pairs).filter(|&i| worse(c[i], p[i]) < 0.0).count();
    if pairs > 0 && wins * 10 >= pairs * 9 && -worse(cm, pm) > p3 - p1 {
        Verdict::Gain
    } else {
        Verdict::Unchanged
    }
}

/// The end-to-end metrics of `BENCHMARK.json` with their directions and
/// bounds.
pub fn load_bounds(text: &str) -> Result<Vec<(String, Better, f64)>, String> {
    let doc = json::parse(text)?;
    let object = doc.as_object().ok_or("BENCHMARK.json is not an object")?;
    let metrics = object
        .iter()
        .find(|(k, _)| k == "end_to_end")
        .and_then(|(_, v)| v.as_array())
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let m = m.as_object().ok_or("end_to_end entry is not an object")?;
            let get = |key: &str| {
                m.iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .ok_or_else(|| format!("end_to_end entry without '{key}'"))
            };
            let name = get("name")?.as_str().ok_or("name is not a string")?;
            let better = get("better")?.as_str().ok_or("better is not a string")?;
            Ok((
                name.to_string(),
                Better::parse(better).ok_or_else(|| format!("unknown direction '{better}'"))?,
                get("bound")?.as_f64().ok_or("bound is not a number")?,
            ))
        })
        .collect()
}

fn load(path: &str) -> Result<Record, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Record::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// Whether two records time the same simulated work: neither is a
/// `--trace` record (which holds no timed passes), both ran at one seed,
/// and every workload both ran printed one fingerprint in both.
pub fn comparable(parent: &Record, change: &Record) -> Result<(), String> {
    if parent.trace || change.trace {
        return Err("a --trace record holds no timed passes to compare".to_string());
    }
    if parent.seed != change.seed {
        return Err(format!(
            "the records ran at seeds {} and {}, so they time different work",
            parent.seed, change.seed
        ));
    }
    for p in &parent.workloads {
        let Some(c) = change.workloads.iter().find(|c| c.name == p.name) else {
            continue;
        };
        // A workload whose every pass failed has no fingerprint.
        if !p.fingerprint.is_empty() && !c.fingerprint.is_empty() && p.fingerprint != c.fingerprint
        {
            return Err(format!(
                "{}: the fingerprints differ ('{}' and '{}'), so the records time different work",
                p.name, p.fingerprint, c.fingerprint
            ));
        }
    }
    Ok(())
}

/// Prints one row per workload and metric; fails on any regression.
pub fn run(parent_path: &str, change_path: &str) -> ExitCode {
    let loaded = (|| {
        let bounds = load_bounds(
            &std::fs::read_to_string("BENCHMARK.json")
                .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?,
        )?;
        let (parent, change) = (load(parent_path)?, load(change_path)?);
        comparable(&parent, &change)?;
        Ok::<_, String>((bounds, parent, change))
    })();
    let (bounds, parent, change) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "parent {} ({} rounds) vs change {} ({} rounds), seed {}",
        parent.git_rev, parent.rounds, change.git_rev, change.rounds, parent.seed
    );
    println!(
        "{:<14} {:<15} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "parent", "change", "delta", "bound"
    );
    let mut regressions = 0;
    for p in &parent.workloads {
        let Some(c) = change.workloads.iter().find(|c| c.name == p.name) else {
            println!("{:<14} missing from the change record", p.name);
            continue;
        };
        if c.failed > p.failed {
            regressions += 1;
            println!(
                "{:<14} {:<15} {:>14} {:>14} {:>9} {:>7}  REGRESSION",
                p.name, "failed_runs", p.failed, c.failed, "", 0
            );
        }
        for pm in &p.metrics {
            let Some(cm) = c.metrics.iter().find(|m| m.name == pm.name) else {
                continue;
            };
            if pm.samples.is_empty() || cm.samples.is_empty() {
                continue;
            }
            // Metrics without a bound in BENCHMARK.json are shown, not
            // judged.
            let (bound, label) = match bounds.iter().find(|(name, _, _)| *name == pm.name) {
                Some((name, _, bound)) => {
                    let floor = if name == "setup_s" {
                        SETUP_FLOOR_S
                    } else {
                        0.0
                    };
                    let v = verdict(pm, cm, *bound, floor);
                    if v == Verdict::Regression {
                        regressions += 1;
                    }
                    (format!("{:.0}%", bound * 100.0), v.label())
                }
                None => ("-".to_string(), "info"),
            };
            println!(
                "{:<14} {:<15} {:>14} {:>14} {:>+8.2}% {:>7}  {label}",
                p.name,
                pm.name,
                crate::show(pm.value),
                crate::show(cm.value),
                (cm.value / pm.value - 1.0) * 100.0,
                bound,
            );
        }
    }
    if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, samples: &[f64]) -> Metric {
        Metric {
            name: "run_s".to_string(),
            unit: "s".to_string(),
            better,
            value: crate::measure::median(samples),
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_pair_rule() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        let judge = |better, parent: &[f64], change: &[f64], floor| {
            verdict(
                &metric(better, parent),
                &metric(better, change),
                0.08,
                floor,
            )
        };
        assert_eq!(judge(Better::Lower, &base, &base, 0.0), Verdict::Unchanged);
        let slower = base.map(|x| x * 1.2);
        assert_eq!(
            judge(Better::Lower, &base, &slower, 0.0),
            Verdict::Regression
        );
        // A 20% drop is a regression when higher is better and a gain
        // when lower is.
        let fewer = base.map(|x| x * 0.8);
        assert_eq!(
            judge(Better::Higher, &base, &fewer, 0.0),
            Verdict::Regression
        );
        assert_eq!(judge(Better::Lower, &base, &fewer, 0.0), Verdict::Gain);
        // A 20% slowdown inside the absolute floor is no regression.
        assert_eq!(
            judge(Better::Lower, &base, &slower, 5.0),
            Verdict::Unchanged
        );
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(
            judge(Better::Lower, &noisy, &noisy, 0.0),
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        let far = noisy.map(|x| x * 0.1);
        assert_eq!(judge(Better::Lower, &noisy, &far, 0.0), Verdict::Gain);
    }

    #[test]
    fn only_records_of_the_same_work_compare() {
        let record = |seed: u64, trace: bool, fingerprint: &str| Record {
            git_rev: "unknown".to_string(),
            date: "2026-01-02T03:04:05Z".to_string(),
            nproc: 2,
            cpu_model: "Test CPU".to_string(),
            seed,
            rounds: 3,
            trace,
            workloads: vec![crate::record::WorkloadResult {
                name: "flash-day".to_string(),
                attempted: 3,
                failed: 0,
                failures: Vec::new(),
                fingerprint: fingerprint.to_string(),
                metrics: Vec::new(),
            }],
        };
        let parent = record(7, false, "363345 / 33.83 s");
        assert_eq!(
            comparable(&parent, &record(7, false, "363345 / 33.83 s")),
            Ok(())
        );
        // A workload that failed every pass has no fingerprint to differ.
        assert_eq!(comparable(&parent, &record(7, false, "")), Ok(()));
        for other in [
            record(8, false, "363345 / 33.83 s"),
            record(7, true, "363345 / 33.83 s"),
            record(7, false, "363346 / 33.83 s"),
        ] {
            assert!(comparable(&parent, &other).is_err(), "{other:?}");
            assert!(comparable(&other, &parent).is_err(), "{other:?}");
        }
    }

    #[test]
    fn bounds_load_from_the_benchmark_file() {
        let bounds = load_bounds(include_str!("../../BENCHMARK.json")).expect("parses");
        assert_eq!(bounds.len(), crate::END_TO_END.len());
        for ((name, better, bound), (n, _, b)) in bounds.iter().zip(crate::END_TO_END) {
            assert_eq!((name.as_str(), *better), (n, b));
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}: {bound}");
        }
    }
}
