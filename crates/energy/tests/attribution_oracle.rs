//! Differential test of the attributor against a reference model: the
//! original algorithm, which kept every running job's joule accumulator
//! in one map keyed by job id and each channel's job ids in a list.
//!
//! Random valid lifecycles drive both side by side — SBC-like channels
//! with one job at a time, shared channels with up to eight, boots,
//! response edges, crashes whose jobs restart on another channel, free
//! completions, and jobs the horizon cuts off — and every
//! `job_finished` return value and the finalized ledger must agree
//! under every idle policy.

use std::collections::HashMap;

use microfaas_energy::attribution::{Attributor, IdlePolicy, Phase, ENERGY_BUCKETS_J};
use microfaas_sim::SimTime;
use proptest::prelude::*;

const PJ_PER_J: u128 = 1_000_000_000_000;

fn phase_index(phase: Phase) -> usize {
    Phase::ALL.iter().position(|&p| p == phase).unwrap()
}

struct OracleChannel {
    last_us: u64,
    microwatts: u64,
    booting: bool,
    active: Vec<u64>,
    pending_boot_pj: u128,
}

struct OracleAcc {
    func: usize,
    tenant: usize,
    phase: Phase,
    phase_pj: [u128; 5],
}

impl OracleAcc {
    fn total_pj(&self) -> u128 {
        self.phase_pj.iter().sum()
    }
}

/// The reference attributor: each settle looks every active job up in
/// `inflight`.
struct Oracle {
    policy: IdlePolicy,
    functions: Vec<String>,
    tenants: Vec<String>,
    channels: Vec<OracleChannel>,
    inflight: HashMap<u64, OracleAcc>,
    func_pj: Vec<[u128; 5]>,
    func_completions: Vec<u64>,
    tenant_pj: Vec<u128>,
    tenant_completions: Vec<u64>,
    hist_counts: Vec<u64>,
    hist_sum_pj: u128,
    idle_pj: u128,
    total_pj: u128,
}

/// The fields of `EnergyLedger`, in its declaration order and under its
/// name, so that the two `Debug` renderings — which print every private
/// field — are equal exactly when the ledgers are.
#[derive(Debug)]
#[allow(dead_code)] // read only through `Debug`
struct EnergyLedger {
    policy: IdlePolicy,
    functions: Vec<String>,
    tenants: Vec<String>,
    func_pj: Vec<[u128; 5]>,
    func_completions: Vec<u64>,
    func_idle_pj: Vec<u128>,
    tenant_pj: Vec<u128>,
    tenant_completions: Vec<u64>,
    tenant_idle_pj: Vec<u128>,
    hist_counts: Vec<u64>,
    hist_sum_pj: u128,
    idle_pj: u128,
    total_pj: u128,
}

impl Oracle {
    fn new(policy: IdlePolicy, functions: Vec<String>, tenants: Vec<String>) -> Self {
        let (nf, nt) = (functions.len(), tenants.len());
        Oracle {
            policy,
            functions,
            tenants,
            channels: Vec::new(),
            inflight: HashMap::new(),
            func_pj: vec![[0; 5]; nf],
            func_completions: vec![0; nf],
            tenant_pj: vec![0; nt],
            tenant_completions: vec![0; nt],
            hist_counts: vec![0; ENERGY_BUCKETS_J.len() + 1],
            hist_sum_pj: 0,
            idle_pj: 0,
            total_pj: 0,
        }
    }

    fn add_channel(&mut self) -> usize {
        self.channels.push(OracleChannel {
            last_us: 0,
            microwatts: 0,
            booting: false,
            active: Vec::new(),
            pending_boot_pj: 0,
        });
        self.channels.len() - 1
    }

    fn settle(&mut self, ch: usize, now_us: u64) {
        let state = &mut self.channels[ch];
        assert!(now_us >= state.last_us, "attribution time went backwards");
        let delta = (now_us - state.last_us) as u128;
        state.last_us = now_us;
        if delta == 0 || state.microwatts == 0 {
            return;
        }
        let seg = state.microwatts as u128 * delta;
        self.total_pj += seg;
        if state.booting {
            state.pending_boot_pj += seg;
        } else if state.active.is_empty() {
            self.idle_pj += seg;
        } else {
            let n = state.active.len() as u128;
            let share = seg / n;
            self.idle_pj += seg % n;
            for &job in &state.active {
                let acc = self.inflight.get_mut(&job).unwrap();
                acc.phase_pj[phase_index(acc.phase)] += share;
            }
        }
    }

    fn set_power(&mut self, ch: usize, at: SimTime, watts: f64) {
        self.settle(ch, at.as_micros());
        self.channels[ch].microwatts = (watts * 1e6).round() as u64;
    }

    fn boot_started(&mut self, ch: usize, at: SimTime) {
        self.settle(ch, at.as_micros());
        self.channels[ch].booting = true;
    }

    fn boot_done(&mut self, ch: usize, at: SimTime) {
        self.settle(ch, at.as_micros());
        self.channels[ch].booting = false;
    }

    fn job_started(&mut self, ch: usize, at: SimTime, job: u64, func: usize, tenant: usize) {
        self.settle(ch, at.as_micros());
        let pending = std::mem::take(&mut self.channels[ch].pending_boot_pj);
        let acc = self.inflight.entry(job).or_insert(OracleAcc {
            func,
            tenant,
            phase: Phase::Exec,
            phase_pj: [0; 5],
        });
        acc.phase = Phase::Exec;
        acc.phase_pj[phase_index(Phase::Boot)] += pending;
        self.channels[ch].active.push(job);
    }

    fn response_started(&mut self, ch: usize, at: SimTime, job: u64) {
        self.settle(ch, at.as_micros());
        if let Some(acc) = self.inflight.get_mut(&job) {
            acc.phase = Phase::Response;
        }
    }

    fn job_finished(&mut self, ch: usize, at: SimTime, job: u64) -> u64 {
        self.settle(ch, at.as_micros());
        self.channels[ch].active.retain(|&j| j != job);
        let Some(acc) = self.inflight.remove(&job) else {
            return 0;
        };
        let total = acc.total_pj();
        for (slot, pj) in self.func_pj[acc.func].iter_mut().zip(acc.phase_pj) {
            *slot += pj;
        }
        self.func_completions[acc.func] += 1;
        self.tenant_pj[acc.tenant] += total;
        self.tenant_completions[acc.tenant] += 1;
        self.observe_hist(total);
        u64::try_from(total).unwrap_or(u64::MAX)
    }

    fn interrupted(&mut self, ch: usize, at: SimTime, job: u64) {
        self.settle(ch, at.as_micros());
        self.channels[ch].active.retain(|&j| j != job);
    }

    fn record_free(&mut self, func: usize, tenant: usize) {
        self.func_completions[func] += 1;
        self.tenant_completions[tenant] += 1;
        self.observe_hist(0);
    }

    fn observe_hist(&mut self, total_pj: u128) {
        let joules = total_pj as f64 / PJ_PER_J as f64;
        let bucket = ENERGY_BUCKETS_J
            .iter()
            .position(|&b| joules <= b)
            .unwrap_or(ENERGY_BUCKETS_J.len());
        self.hist_counts[bucket] += 1;
        self.hist_sum_pj += total_pj;
    }

    fn finalize(mut self, end: SimTime) -> EnergyLedger {
        let end_us = end.as_micros();
        for ch in 0..self.channels.len() {
            self.settle(ch, end_us);
            self.idle_pj += std::mem::take(&mut self.channels[ch].pending_boot_pj);
        }
        let orphans: u128 = self.inflight.values().map(OracleAcc::total_pj).sum();
        self.idle_pj += orphans;

        let nf = self.functions.len();
        let attributed: Vec<u128> = (0..nf).map(|f| self.func_pj[f].iter().sum()).collect();
        let mut func_idle = vec![0u128; nf];
        let mut tenant_idle = vec![0u128; self.tenants.len()];
        match self.policy {
            IdlePolicy::None => {}
            IdlePolicy::Equal => {
                split_equal(&mut func_idle, &self.func_completions, self.idle_pj);
                split_equal(&mut tenant_idle, &self.tenant_completions, self.idle_pj);
            }
            IdlePolicy::UsageWeighted => {
                split_weighted(&mut func_idle, &attributed, self.idle_pj);
                split_weighted(&mut tenant_idle, &self.tenant_pj, self.idle_pj);
            }
        }
        EnergyLedger {
            policy: self.policy,
            functions: self.functions,
            tenants: self.tenants,
            func_pj: self.func_pj,
            func_completions: self.func_completions,
            func_idle_pj: func_idle,
            tenant_pj: self.tenant_pj,
            tenant_completions: self.tenant_completions,
            tenant_idle_pj: tenant_idle,
            hist_counts: self.hist_counts,
            hist_sum_pj: self.hist_sum_pj,
            idle_pj: self.idle_pj,
            total_pj: self.total_pj,
        }
    }
}

fn split_equal(shares: &mut [u128], completions: &[u64], pool: u128) {
    let eligible = completions.iter().filter(|&&c| c > 0).count() as u128;
    if eligible == 0 {
        return;
    }
    for (slot, &c) in shares.iter_mut().zip(completions) {
        if c > 0 {
            *slot = pool / eligible;
        }
    }
}

/// The plain product: the generated runs stay far below `u128::MAX`.
fn split_weighted(shares: &mut [u128], weights: &[u128], pool: u128) {
    let total: u128 = weights.iter().sum();
    if total == 0 {
        return;
    }
    for (slot, &w) in shares.iter_mut().zip(weights) {
        *slot = pool * w / total;
    }
}

/// Where a generated job is.
#[derive(Clone, Copy)]
enum Place {
    /// Drawing on a channel.
    On(usize),
    /// Pulled off a crashed channel, waiting to restart.
    Parked,
}

/// One lifecycle edge, applied to both attributors at once.
#[derive(Debug, Clone, Copy)]
enum Call {
    SetPower(usize, f64),
    BootStarted(usize),
    BootDone(usize),
    Started(usize, u64, usize, usize),
    Response(usize, u64),
    Finished(usize, u64),
    Interrupted(usize, u64),
    Free(usize, usize),
}

/// Turns random draws into a valid lifecycle: a job starts only on a
/// channel with room that is not booting, is active on at most one
/// channel at a time, and restarts after a crash on any channel. Each
/// step carries the gap (µs) since the previous one.
fn lifecycle(
    capacities: &[usize],
    functions: usize,
    tenants: usize,
    draws: &[(u8, u64, u64)],
) -> Vec<(u64, Call)> {
    let n = capacities.len();
    let mut watts = vec![0.0; n];
    let mut booting = vec![false; n];
    let mut load = vec![0usize; n];
    let mut jobs: Vec<(u64, Place)> = Vec::new();
    let mut next_job = 1u64;
    let mut calls = Vec::with_capacity(draws.len());
    for &(kind, pick, gap) in draws {
        let ch = (pick % n as u64) as usize;
        let sel = (pick >> 8) as usize;
        let gap = if pick.is_multiple_of(5) { 0 } else { gap };
        let call = match kind % 10 {
            0 | 1 => {
                // Draws up to 5 W, sometimes a conventional host's 60-200 W.
                let microwatts = if sel.is_multiple_of(7) {
                    60_000_000 + (sel as u64 % 140_000_000)
                } else {
                    sel as u64 % 5_000_001
                };
                watts[ch] = microwatts as f64 / 1e6;
                Call::SetPower(ch, watts[ch])
            }
            2 if booting[ch] => {
                booting[ch] = false;
                Call::BootDone(ch)
            }
            2 if load[ch] == 0 => {
                booting[ch] = true;
                Call::BootStarted(ch)
            }
            3..=5 if !booting[ch] && load[ch] < capacities[ch] => {
                let parked: Vec<usize> = (0..jobs.len())
                    .filter(|&i| matches!(jobs[i].1, Place::Parked))
                    .collect();
                let job = if !parked.is_empty() && sel.is_multiple_of(2) {
                    let i = parked[sel / 2 % parked.len()];
                    jobs[i].1 = Place::On(ch);
                    jobs[i].0
                } else {
                    next_job += 1;
                    jobs.push((next_job, Place::On(ch)));
                    next_job
                };
                load[ch] += 1;
                Call::Started(ch, job, sel % functions, sel / 3 % tenants)
            }
            6 | 7 if !jobs.is_empty() => {
                let i = sel % jobs.len();
                let (job, place) = jobs[i];
                match (place, kind % 10) {
                    (Place::On(at), 6) => Call::Response(at, job),
                    (Place::On(at), _) => {
                        load[at] -= 1;
                        jobs.swap_remove(i);
                        Call::Finished(at, job)
                    }
                    // A parked job's edges reach it from any channel.
                    (Place::Parked, 6) => Call::Response(ch, job),
                    (Place::Parked, _) => {
                        jobs.swap_remove(i);
                        Call::Finished(ch, job)
                    }
                }
            }
            8 => match jobs
                .iter()
                .position(|&(_, p)| matches!(p, Place::On(at) if at == ch))
            {
                Some(i) => {
                    load[ch] -= 1;
                    jobs[i].1 = Place::Parked;
                    Call::Interrupted(ch, jobs[i].0)
                }
                // A job id that never started: both sides return 0.
                None => Call::Finished(ch, u64::MAX - sel as u64),
            },
            9 => Call::Free(sel % functions, sel / 3 % tenants),
            // A drawn edge that is not valid now only settles the channel.
            _ => Call::SetPower(ch, watts[ch]),
        };
        calls.push((gap, call));
    }
    calls
}

fn labels(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn attributor_matches_the_map_based_reference(
        shapes in prop::collection::vec((any::<bool>(), 1usize..=8), 1..9),
        functions in 1usize..=4,
        tenants in 1usize..=3,
        draws in prop::collection::vec((any::<u8>(), any::<u64>(), 0u64..3_000_000), 0..240),
        tail_us in 0u64..5_000_000,
    ) {
        // An SBC-like channel runs one job at a time; a shared one up
        // to eight.
        let capacities: Vec<usize> = shapes
            .iter()
            .map(|&(sbc, room)| if sbc { 1 } else { room })
            .collect();
        let calls = lifecycle(&capacities, functions, tenants, &draws);
        for policy in IdlePolicy::ALL {
            let mut attr = Attributor::new(policy, labels("f", functions), labels("t", tenants));
            let mut oracle = Oracle::new(policy, labels("f", functions), labels("t", tenants));
            for _ in &capacities {
                prop_assert_eq!(attr.add_channel(), oracle.add_channel());
            }
            let mut now = SimTime::ZERO;
            for &(gap, call) in &calls {
                now = SimTime::from_micros(now.as_micros() + gap);
                match call {
                    Call::SetPower(ch, w) => {
                        attr.set_power(ch, now, w);
                        oracle.set_power(ch, now, w);
                    }
                    Call::BootStarted(ch) => {
                        attr.boot_started(ch, now);
                        oracle.boot_started(ch, now);
                    }
                    Call::BootDone(ch) => {
                        attr.boot_done(ch, now);
                        oracle.boot_done(ch, now);
                    }
                    Call::Started(ch, job, f, t) => {
                        attr.job_started(ch, now, job, f, t);
                        oracle.job_started(ch, now, job, f, t);
                    }
                    Call::Response(ch, job) => {
                        attr.response_started(ch, now, job);
                        oracle.response_started(ch, now, job);
                    }
                    Call::Finished(ch, job) => {
                        prop_assert_eq!(
                            attr.job_finished(ch, now, job),
                            oracle.job_finished(ch, now, job),
                            "job {} on channel {}", job, ch
                        );
                    }
                    Call::Interrupted(ch, job) => {
                        attr.interrupted(ch, now, job);
                        oracle.interrupted(ch, now, job);
                    }
                    Call::Free(f, t) => {
                        attr.record_free(f, t);
                        oracle.record_free(f, t);
                    }
                }
            }
            // Whatever is still running or parked is cut off here.
            let end = SimTime::from_micros(now.as_micros() + tail_us);
            let ledger = attr.finalize(end);
            prop_assert!(ledger.conserves());
            prop_assert_eq!(format!("{ledger:?}"), format!("{:?}", oracle.finalize(end)));
        }
    }
}
