//! Per-function energy attribution — the ledger behind `microfaas energy`.
//!
//! The paper meters whole-cluster power, so a tenant's joules are
//! invisible below the cluster line. This module closes that gap: an
//! [`Attributor`] rides along with the engine's power ledger, splits
//! every piecewise-constant power segment between the jobs drawing it,
//! and folds each completed job's joule vector (queue / boot / exec /
//! overhead / response) into per-function and per-tenant
//! [`EnergyLedger`] rows.
//!
//! # Exactness
//!
//! All arithmetic is integer: power is quantised to **microwatts**
//! (`round(watts x 1e6)`), simulated time advances in microseconds, and
//! each segment's energy is `microwatts x delta_us` **picojoules** —
//! exact, no floating point anywhere on the accounting path. Equal
//! splits use integer division and bank the sub-picojoule remainder in
//! the idle pool, so the conservation invariant
//!
//! > attributed + idle-remainder == whole-cluster energy
//!
//! holds *bit-exactly*, for every seed, serial or parallel
//! (`EnergyLedger::conserves`). The f64 [`crate::EnergyMeter`] and the
//! integer ledger agree to meter rounding (~1e-9 relative).
//!
//! # Idle apportionment
//!
//! Energy drawn while no job is on a channel (standby parks, prewarmed
//! waits, drain tails) lands in the idle pool. [`IdlePolicy`] decides
//! what the ledger does with it at finalisation: keep it unattributed
//! (`none`), split it equally across the functions that completed work
//! (`equal`), or split it proportionally to each function's attributed
//! joules (`usage-weighted`). Whatever integer remainder the split
//! leaves stays unattributed, keeping conservation exact.
//!
//! # Examples
//!
//! ```
//! use microfaas_energy::attribution::{Attributor, IdlePolicy};
//! use microfaas_sim::SimTime;
//!
//! let mut attr = Attributor::new(
//!     IdlePolicy::None,
//!     vec!["CascSHA".to_string()],
//!     vec!["all".to_string()],
//! );
//! let ch = attr.add_channel();
//! attr.set_power(ch, SimTime::ZERO, 2.0); // 2 W exec draw
//! attr.job_started(ch, SimTime::ZERO, 7, 0, 0);
//! let pj = attr.job_finished(ch, SimTime::from_secs(3), 7);
//! assert_eq!(pj, 6_000_000_000_000); // 2 W x 3 s = 6 J, exact in pJ
//! let ledger = attr.finalize(SimTime::from_secs(3));
//! assert!(ledger.conserves());
//! assert_eq!(ledger.total_joules(), 6.0);
//! ```

use std::collections::HashMap;
use std::fmt;

use microfaas_sim::SimTime;

/// Picojoules per joule: microwatts x microseconds.
const PJ_PER_J: u128 = 1_000_000_000_000;

/// What a completed job's energy splits into — the power-side mirror of
/// the five-phase latency decomposition in `sim::span`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Waiting in a dispatch queue (draws nothing in this power model:
    /// a queued job occupies no channel).
    Queue,
    /// Cold boot charged to the job that triggered (or first consumed)
    /// it.
    Boot,
    /// Function execution.
    Exec,
    /// Platform overhead (zero in the open-loop engine: the response
    /// anchor fires when execution ends).
    Overhead,
    /// Result transfer back to the orchestrator.
    Response,
}

impl Phase {
    /// All phases, in vector order.
    pub const ALL: [Phase; 5] = [
        Phase::Queue,
        Phase::Boot,
        Phase::Exec,
        Phase::Overhead,
        Phase::Response,
    ];

    /// Lower-case label used in CSV headers and Prometheus names.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Queue => "queue",
            Phase::Boot => "boot",
            Phase::Exec => "exec",
            Phase::Overhead => "overhead",
            Phase::Response => "response",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Queue => 0,
            Phase::Boot => 1,
            Phase::Exec => 2,
            Phase::Overhead => 3,
            Phase::Response => 4,
        }
    }
}

/// What the ledger does with idle (no-job) energy at finalisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IdlePolicy {
    /// Idle joules stay unattributed — the honest baseline.
    #[default]
    None,
    /// Idle joules split equally across functions that completed work.
    Equal,
    /// Idle joules split proportionally to attributed joules.
    UsageWeighted,
}

impl IdlePolicy {
    /// Every policy, in CLI presentation order.
    pub const ALL: [IdlePolicy; 3] = [
        IdlePolicy::None,
        IdlePolicy::Equal,
        IdlePolicy::UsageWeighted,
    ];

    /// Kebab-case label, as accepted by `--idle` and shown in CSV.
    pub fn label(self) -> &'static str {
        match self {
            IdlePolicy::None => "none",
            IdlePolicy::Equal => "equal",
            IdlePolicy::UsageWeighted => "usage-weighted",
        }
    }
}

impl fmt::Display for IdlePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for IdlePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(IdlePolicy::None),
            "equal" => Ok(IdlePolicy::Equal),
            "usage-weighted" => Ok(IdlePolicy::UsageWeighted),
            other => Err(format!(
                "unknown idle policy '{other}' (expected none, equal, usage-weighted)"
            )),
        }
    }
}

/// Fixed histogram bounds for `function_energy_j`, in joules. A cold
/// boot plus a paper-suite execution costs single-digit joules, so the
/// ladder doubles from 1 J; `+Inf` catches pathological stragglers.
pub const ENERGY_BUCKETS_J: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

#[derive(Debug, Clone)]
struct ChannelState {
    /// Instant of the last settled segment boundary, in µs.
    last_us: u64,
    /// Current draw, in µW.
    microwatts: u64,
    /// True between `boot_started` and `boot_done`: segments route to
    /// the boot pool, credited to the next job the channel runs.
    booting: bool,
    /// Accumulators of the jobs currently drawing on this channel,
    /// credited in place by every settle (the SBC engine keeps at most
    /// one; the shared conventional channel holds many).
    active: Vec<JobAcc>,
    /// Boot joules waiting to be claimed by the next job, in pJ.
    pending_boot_pj: u128,
}

#[derive(Debug, Clone)]
struct JobAcc {
    job: u64,
    func: usize,
    tenant: usize,
    phase: Phase,
    phase_pj: [u128; 5],
}

impl JobAcc {
    fn credit(&mut self, pj: u128) {
        self.phase_pj[self.phase.index()] += pj;
    }

    fn total_pj(&self) -> u128 {
        self.phase_pj.iter().sum()
    }
}

/// Streaming per-job energy attribution over a set of power channels.
///
/// Mirror every `EnergyMeter::set_power` call with [`Attributor::set_power`]
/// and mark job lifecycle edges as they happen; [`Attributor::finalize`]
/// then yields the conserving [`EnergyLedger`]. Each channel carries the
/// accumulators of the jobs drawing on it (one slot on an SBC), so a
/// power change or job edge touches only that channel and hashes no job
/// id; only a job pulled off a crashed channel waits in a map until it
/// restarts. The attributor consumes no randomness, so running one
/// alongside an engine leaves simulated results bit-identical.
#[derive(Debug, Clone)]
pub struct Attributor {
    policy: IdlePolicy,
    functions: Vec<String>,
    tenants: Vec<String>,
    channels: Vec<ChannelState>,
    /// Accumulators of [`Attributor::interrupted`] jobs, keyed by job id,
    /// until they restart or finish. Empty in a fault-free run.
    parked: HashMap<u64, JobAcc>,
    /// Completed-job attribution per function: `[func][phase]` pJ.
    func_pj: Vec<[u128; 5]>,
    func_completions: Vec<u64>,
    tenant_pj: Vec<u128>,
    tenant_completions: Vec<u64>,
    hist_counts: Vec<u64>,
    hist_sum_pj: u128,
    idle_pj: u128,
    total_pj: u128,
}

impl Attributor {
    /// Creates an attributor for the given function and tenant row
    /// labels (engine order; job indices refer into these).
    ///
    /// # Panics
    ///
    /// Panics if either label set is empty — every job must have a row.
    pub fn new(policy: IdlePolicy, functions: Vec<String>, tenants: Vec<String>) -> Self {
        assert!(
            !functions.is_empty(),
            "attributor needs at least one function row"
        );
        assert!(
            !tenants.is_empty(),
            "attributor needs at least one tenant row"
        );
        let nf = functions.len();
        let nt = tenants.len();
        Attributor {
            policy,
            functions,
            tenants,
            channels: Vec::new(),
            parked: HashMap::new(),
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

    /// The configured idle-apportionment policy.
    pub fn policy(&self) -> IdlePolicy {
        self.policy
    }

    /// Attaches a power channel (initially 0 W, idle) and returns its
    /// index. Call in the same order as `EnergyMeter::add_channel`.
    pub fn add_channel(&mut self) -> usize {
        self.channels.push(ChannelState {
            last_us: 0,
            microwatts: 0,
            booting: false,
            active: Vec::new(),
            pending_boot_pj: 0,
        });
        self.channels.len() - 1
    }

    /// Integrates the channel forward to `now_us` and banks the segment
    /// in the right pool.
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
            return;
        }
        match state.active.as_mut_slice() {
            [] => self.idle_pj += seg,
            // A lone job draws the whole segment: seg / 1 == seg exactly.
            [acc] => acc.credit(seg),
            accs => {
                let n = accs.len() as u128;
                let share = seg / n;
                self.idle_pj += seg % n;
                for acc in accs {
                    acc.credit(share);
                }
            }
        }
    }

    /// Updates a channel's draw at instant `at`, settling the segment
    /// that just ended. Mirror every `EnergyMeter::set_power` call.
    ///
    /// # Panics
    ///
    /// Panics if `watts` is negative or non-finite, or if `at` precedes
    /// the channel's previous update.
    pub fn set_power(&mut self, ch: usize, at: SimTime, watts: f64) {
        assert!(
            watts.is_finite() && watts >= 0.0,
            "power must be a non-negative finite number of watts, got {watts}"
        );
        self.settle(ch, at.as_micros());
        self.channels[ch].microwatts = (watts * 1e6).round() as u64;
    }

    /// Marks the start of a cold boot: subsequent draw banks in the
    /// channel's boot pool until [`Attributor::boot_done`].
    pub fn boot_started(&mut self, ch: usize, at: SimTime) {
        self.settle(ch, at.as_micros());
        self.channels[ch].booting = true;
    }

    /// Ends a cold boot. The banked boot joules wait for the next
    /// [`Attributor::job_started`] on this channel (a prewarm boot that
    /// never serves a job drains to idle at finalisation).
    pub fn boot_done(&mut self, ch: usize, at: SimTime) {
        self.settle(ch, at.as_micros());
        self.channels[ch].booting = false;
    }

    /// A job began executing on `ch`: it claims the channel's pending
    /// boot joules and draws the exec share from here on. Re-starting a
    /// job that was [`Attributor::interrupted`] resumes its accumulator.
    pub fn job_started(&mut self, ch: usize, at: SimTime, job: u64, func: usize, tenant: usize) {
        self.settle(ch, at.as_micros());
        let mut acc = self.unpark(job).unwrap_or(JobAcc {
            job,
            func,
            tenant,
            phase: Phase::Exec,
            phase_pj: [0; 5],
        });
        let state = &mut self.channels[ch];
        acc.phase = Phase::Exec;
        acc.phase_pj[Phase::Boot.index()] += std::mem::take(&mut state.pending_boot_pj);
        if state.active.capacity() == 0 {
            // One slot per SBC channel, not the four a first push takes.
            state.active.reserve_exact(1);
        }
        state.active.push(acc);
    }

    /// Execution finished; the job's remaining draw on the channel is
    /// response-transfer energy.
    pub fn response_started(&mut self, ch: usize, at: SimTime, job: u64) {
        self.settle(ch, at.as_micros());
        // A parked job draws nothing and restarts in `Exec`, so only the
        // channel's own jobs can be in their response phase.
        if let Some(acc) = self.channels[ch].active.iter_mut().find(|a| a.job == job) {
            acc.phase = Phase::Response;
        }
    }

    /// The job completed: folds its joule vector into the ledger rows
    /// and returns its total energy in picojoules (for budget
    /// governors).
    pub fn job_finished(&mut self, ch: usize, at: SimTime, job: u64) -> u64 {
        self.settle(ch, at.as_micros());
        let Some(acc) = self.take_active(ch, job).or_else(|| self.unpark(job)) else {
            return 0;
        };
        let total = acc.total_pj();
        for phase in Phase::ALL {
            self.func_pj[acc.func][phase.index()] += acc.phase_pj[phase.index()];
        }
        self.func_completions[acc.func] += 1;
        self.tenant_pj[acc.tenant] += total;
        self.tenant_completions[acc.tenant] += 1;
        self.observe_hist(total);
        u64::try_from(total).unwrap_or(u64::MAX)
    }

    /// The job was pulled off a failed worker: it stops drawing but
    /// keeps its accumulated joules for when it restarts elsewhere.
    pub fn interrupted(&mut self, ch: usize, at: SimTime, job: u64) {
        self.settle(ch, at.as_micros());
        if let Some(acc) = self.take_active(ch, job) {
            self.parked.insert(job, acc);
        }
    }

    /// Removes `job`'s accumulator from channel `ch`. Every active job
    /// on a channel draws the same share, so the order `swap_remove`
    /// leaves behind cannot change a result.
    fn take_active(&mut self, ch: usize, job: u64) -> Option<JobAcc> {
        let active = &mut self.channels[ch].active;
        let i = active.iter().position(|a| a.job == job)?;
        Some(active.swap_remove(i))
    }

    /// Takes an interrupted job's accumulator back out of the map, which
    /// is never hashed into while it is empty.
    fn unpark(&mut self, job: u64) -> Option<JobAcc> {
        if self.parked.is_empty() {
            None
        } else {
            self.parked.remove(&job)
        }
    }

    /// Records a completion that consumed no cluster energy — a result
    /// served from cache or a coalesced follower.
    pub fn record_free(&mut self, func: usize, tenant: usize) {
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

    /// Settles every channel through `end`, drains unclaimed boot pools
    /// and still-in-flight accumulators to idle, and produces the
    /// conserving ledger.
    pub fn finalize(mut self, end: SimTime) -> EnergyLedger {
        let end_us = end.as_micros();
        for ch in 0..self.channels.len() {
            self.settle(ch, end_us);
            self.idle_pj += std::mem::take(&mut self.channels[ch].pending_boot_pj);
        }
        // Jobs the horizon cut off never completed: their partial
        // joules stay unattributed so completed rows mean what they say.
        let orphans: u128 = self
            .channels
            .iter()
            .flat_map(|state| &state.active)
            .chain(self.parked.values())
            .map(JobAcc::total_pj)
            .sum();
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

/// Splits `pool` equally across rows with at least one completion;
/// the integer remainder stays unapportioned.
fn split_equal(shares: &mut [u128], completions: &[u64], pool: u128) {
    let eligible = completions.iter().filter(|&&c| c > 0).count() as u128;
    if eligible == 0 {
        return;
    }
    let share = pool / eligible;
    for (slot, &c) in shares.iter_mut().zip(completions) {
        if c > 0 {
            *slot = share;
        }
    }
}

/// Splits `pool` proportionally to `weights`; the integer remainder of
/// each `pool * w / total` division stays unapportioned.
fn split_weighted(shares: &mut [u128], weights: &[u128], pool: u128) {
    let total: u128 = weights.iter().sum();
    if total == 0 {
        return;
    }
    for (slot, &w) in shares.iter_mut().zip(weights) {
        *slot = mul_div(pool, w, total);
    }
}

/// `floor(a * b / d)` exactly, for `b <= d` (so the quotient is at most
/// `a`). Long runs push `a * b` past `u128::MAX` — a 30 h, 200 W segment
/// and its 30 h idle tail already do — so the product is formed in 256
/// bits and divided by shift-and-subtract.
fn mul_div(a: u128, b: u128, d: u128) -> u128 {
    debug_assert!(b <= d, "weight exceeds the weight total");
    let (lo, hi) = a.carrying_mul(b, 0);
    // b <= d makes a * b < 2^128 * d, so hi < d and every quotient bit
    // lands in the low word.
    let mut rem = hi;
    let mut quot = 0u128;
    for i in (0..128).rev() {
        let carry = rem >> 127;
        rem = (rem << 1) | ((lo >> i) & 1);
        quot <<= 1;
        // With the carry set the true remainder is 2^128 + rem >= d, and
        // the wrapped subtraction yields its exact difference.
        if carry == 1 || rem >= d {
            rem = rem.wrapping_sub(d);
            quot |= 1;
        }
    }
    quot
}

/// The finalized attribution: per-function and per-tenant joule rows,
/// the idle pool, and the whole-cluster total — all in exact integer
/// picojoules.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyLedger {
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

impl EnergyLedger {
    /// The idle policy the ledger was finalized under.
    pub fn policy(&self) -> IdlePolicy {
        self.policy
    }

    /// Function row labels, engine order.
    pub fn functions(&self) -> &[String] {
        &self.functions
    }

    /// Tenant row labels, engine order.
    pub fn tenants(&self) -> &[String] {
        &self.tenants
    }

    /// Completed jobs attributed to function `f` (cache-served included).
    pub fn function_completions(&self, f: usize) -> u64 {
        self.func_completions[f]
    }

    /// Function `f`'s attributed energy in `phase`, picojoules.
    pub fn function_phase_pj(&self, f: usize, phase: Phase) -> u128 {
        self.func_pj[f][phase.index()]
    }

    /// Function `f`'s attributed total (sum over phases, no idle share).
    pub fn function_attributed_pj(&self, f: usize) -> u128 {
        self.func_pj[f].iter().sum()
    }

    /// Function `f`'s apportioned idle share under the ledger's policy.
    pub fn function_idle_pj(&self, f: usize) -> u128 {
        self.func_idle_pj[f]
    }

    /// Tenant `t`'s attributed total, picojoules.
    pub fn tenant_attributed_pj(&self, t: usize) -> u128 {
        self.tenant_pj[t]
    }

    /// Tenant `t`'s apportioned idle share.
    pub fn tenant_idle_pj(&self, t: usize) -> u128 {
        self.tenant_idle_pj[t]
    }

    /// Completed jobs attributed to tenant `t`.
    pub fn tenant_completions(&self, t: usize) -> u64 {
        self.tenant_completions[t]
    }

    /// The idle pool: every picojoule no completed job claimed.
    pub fn idle_pj(&self) -> u128 {
        self.idle_pj
    }

    /// Whole-cluster energy integrated by the attributor, picojoules.
    pub fn total_pj(&self) -> u128 {
        self.total_pj
    }

    /// Whole-cluster energy in joules (for comparison against the f64
    /// [`crate::EnergyMeter`]).
    pub fn total_joules(&self) -> f64 {
        self.total_pj as f64 / PJ_PER_J as f64
    }

    /// The conservation invariant, checked bit-exactly in integer
    /// picojoules: attributed-to-functions + idle pool == cluster
    /// total, and every apportioned idle share fits inside the pool
    /// (the division remainders stay unattributed).
    pub fn conserves(&self) -> bool {
        let attributed: u128 = (0..self.functions.len())
            .map(|f| self.function_attributed_pj(f))
            .sum();
        let func_shares: u128 = self.func_idle_pj.iter().sum();
        let tenant_attr: u128 = self.tenant_pj.iter().sum();
        let tenant_shares: u128 = self.tenant_idle_pj.iter().sum();
        attributed + self.idle_pj == self.total_pj
            && tenant_attr + self.idle_pj == self.total_pj
            && func_shares <= self.idle_pj
            && tenant_shares <= self.idle_pj
    }

    /// Renders the per-function rows (plus the idle remainder row) as
    /// CSV. Values are exact decimal joules rendered from the integer
    /// picojoule ledger, so output is byte-identical for any `--jobs N`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "idle_policy,function,completions,queue_j,boot_j,exec_j,overhead_j,\
             response_j,idle_share_j,total_j\n",
        );
        use fmt::Write as _;
        for f in 0..self.functions.len() {
            let total = self.function_attributed_pj(f) + self.func_idle_pj[f];
            let _ = write!(
                out,
                "{},{},{}",
                self.policy, self.functions[f], self.func_completions[f]
            );
            for phase in Phase::ALL {
                let _ = write!(out, ",{}", fmt_joules(self.func_pj[f][phase.index()]));
            }
            let _ = writeln!(
                out,
                ",{},{}",
                fmt_joules(self.func_idle_pj[f]),
                fmt_joules(total)
            );
        }
        let apportioned: u128 = self.func_idle_pj.iter().sum();
        let _ = writeln!(
            out,
            "{},(idle),0,0,0,0,0,0,{},{}",
            self.policy,
            fmt_joules(self.idle_pj - apportioned),
            fmt_joules(self.idle_pj - apportioned)
        );
        out
    }

    /// Renders the ledger as Prometheus text exposition: per-function
    /// and per-tenant joule gauges plus the `function_energy_j`
    /// histogram (the registry ingests samples, not bucket counts, so
    /// the ledger renders its own).
    pub fn render_prometheus(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# HELP function_energy_total_j Attributed joules per function (idle share included)."
        );
        let _ = writeln!(out, "# TYPE function_energy_total_j gauge");
        for f in 0..self.functions.len() {
            let total = self.function_attributed_pj(f) + self.func_idle_pj[f];
            let _ = writeln!(
                out,
                "function_energy_total_j{{function=\"{}\",idle_policy=\"{}\"}} {}",
                self.functions[f],
                self.policy,
                fmt_joules(total)
            );
        }
        let _ = writeln!(
            out,
            "# HELP tenant_energy_total_j Attributed joules per tenant (idle share included)."
        );
        let _ = writeln!(out, "# TYPE tenant_energy_total_j gauge");
        for t in 0..self.tenants.len() {
            let total = self.tenant_pj[t] + self.tenant_idle_pj[t];
            let _ = writeln!(
                out,
                "tenant_energy_total_j{{tenant=\"{}\",idle_policy=\"{}\"}} {}",
                self.tenants[t],
                self.policy,
                fmt_joules(total)
            );
        }
        let _ = writeln!(out, "# HELP energy_idle_j Joules no completed job claimed.");
        let _ = writeln!(out, "# TYPE energy_idle_j gauge");
        let _ = writeln!(out, "energy_idle_j {}", fmt_joules(self.idle_pj));
        let _ = writeln!(out, "# HELP energy_total_j Whole-cluster joules.");
        let _ = writeln!(out, "# TYPE energy_total_j gauge");
        let _ = writeln!(out, "energy_total_j {}", fmt_joules(self.total_pj));
        let _ = writeln!(out, "# HELP function_energy_j Joules per completed job.");
        let _ = writeln!(out, "# TYPE function_energy_j histogram");
        let mut cumulative = 0u64;
        for (i, bound) in ENERGY_BUCKETS_J.iter().enumerate() {
            cumulative += self.hist_counts[i];
            let _ = writeln!(
                out,
                "function_energy_j_bucket{{le=\"{bound}\"}} {cumulative}"
            );
        }
        cumulative += self.hist_counts[ENERGY_BUCKETS_J.len()];
        let _ = writeln!(out, "function_energy_j_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(
            out,
            "function_energy_j_sum {}",
            fmt_joules(self.hist_sum_pj)
        );
        let _ = writeln!(out, "function_energy_j_count {cumulative}");
        out
    }
}

/// Renders integer picojoules as an exact decimal joule string
/// ("6", "2.75", "0.000000000001") — no floating point, so the text is
/// byte-stable across platforms and `--jobs` counts.
fn fmt_joules(pj: u128) -> String {
    let whole = pj / PJ_PER_J;
    let frac = pj % PJ_PER_J;
    if frac == 0 {
        return whole.to_string();
    }
    let mut digits = format!("{frac:012}");
    while digits.ends_with('0') {
        digits.pop();
    }
    format!("{whole}.{digits}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(policy: IdlePolicy) -> Attributor {
        Attributor::new(
            policy,
            vec!["CascSHA".to_string(), "AES128".to_string()],
            vec!["all".to_string()],
        )
    }

    #[test]
    fn exec_energy_is_exact() {
        let mut a = attr(IdlePolicy::None);
        let ch = a.add_channel();
        a.set_power(ch, SimTime::ZERO, 1.96);
        a.job_started(ch, SimTime::ZERO, 1, 0, 0);
        let pj = a.job_finished(ch, SimTime::from_secs(2), 1);
        assert_eq!(pj, 2 * 1_960_000 * 1_000_000); // 1.96 W x 2 s in pJ
        let ledger = a.finalize(SimTime::from_secs(2));
        assert!(ledger.conserves());
        assert_eq!(ledger.function_phase_pj(0, Phase::Exec), pj as u128);
        assert_eq!(ledger.idle_pj(), 0);
    }

    #[test]
    fn boot_energy_credits_the_next_job() {
        let mut a = attr(IdlePolicy::None);
        let ch = a.add_channel();
        a.set_power(ch, SimTime::ZERO, 1.82);
        a.boot_started(ch, SimTime::ZERO);
        a.boot_done(ch, SimTime::from_secs(1));
        a.set_power(ch, SimTime::from_secs(1), 1.96);
        a.job_started(ch, SimTime::from_secs(1), 5, 1, 0);
        a.job_finished(ch, SimTime::from_secs(3), 5);
        let ledger = a.finalize(SimTime::from_secs(3));
        assert!(ledger.conserves());
        assert_eq!(
            ledger.function_phase_pj(1, Phase::Boot),
            1_820_000 * 1_000_000
        );
        assert_eq!(
            ledger.function_phase_pj(1, Phase::Exec),
            2 * 1_960_000 * 1_000_000
        );
    }

    #[test]
    fn unclaimed_boot_and_orphans_land_in_idle() {
        let mut a = attr(IdlePolicy::None);
        let ch = a.add_channel();
        a.set_power(ch, SimTime::ZERO, 2.0);
        a.boot_started(ch, SimTime::ZERO);
        a.boot_done(ch, SimTime::from_secs(1)); // prewarm, never claimed
        let ch2 = a.add_channel();
        a.set_power(ch2, SimTime::ZERO, 1.0);
        a.job_started(ch2, SimTime::ZERO, 9, 0, 0); // cut off by horizon
        let ledger = a.finalize(SimTime::from_secs(2));
        assert!(ledger.conserves());
        assert_eq!(ledger.function_completions(0), 0);
        // boot 2 J + post-boot idle 2 J + orphan 2 J, all unattributed.
        assert_eq!(ledger.idle_pj(), ledger.total_pj());
        assert_eq!(ledger.total_joules(), 6.0);
    }

    #[test]
    fn shared_channel_splits_equally_with_exact_remainder() {
        let mut a = attr(IdlePolicy::None);
        let ch = a.add_channel();
        a.set_power(ch, SimTime::ZERO, 0.000003); // 3 µW
        a.job_started(ch, SimTime::ZERO, 1, 0, 0);
        a.job_started(ch, SimTime::ZERO, 2, 1, 0);
        // 3 µW x 1 µs = 3 pJ -> 1 pJ each, 1 pJ to idle.
        a.job_finished(ch, SimTime::from_micros(1), 1);
        a.job_finished(ch, SimTime::from_micros(1), 2);
        let ledger = a.finalize(SimTime::from_micros(1));
        assert!(ledger.conserves());
        assert_eq!(ledger.function_attributed_pj(0), 1);
        assert_eq!(ledger.function_attributed_pj(1), 1);
        assert_eq!(ledger.idle_pj(), 1);
        assert_eq!(ledger.total_pj(), 3);
    }

    #[test]
    fn response_phase_splits_from_exec() {
        let mut a = attr(IdlePolicy::None);
        let ch = a.add_channel();
        a.set_power(ch, SimTime::ZERO, 1.0);
        a.job_started(ch, SimTime::ZERO, 1, 0, 0);
        a.response_started(ch, SimTime::from_secs(3), 1);
        a.job_finished(ch, SimTime::from_secs(4), 1);
        let ledger = a.finalize(SimTime::from_secs(4));
        assert_eq!(ledger.function_phase_pj(0, Phase::Exec), 3 * PJ_PER_J);
        assert_eq!(ledger.function_phase_pj(0, Phase::Response), PJ_PER_J);
        assert_eq!(ledger.function_phase_pj(0, Phase::Overhead), 0);
        assert_eq!(ledger.function_phase_pj(0, Phase::Queue), 0);
    }

    #[test]
    fn equal_idle_policy_splits_across_completing_functions() {
        let mut a = attr(IdlePolicy::Equal);
        let ch = a.add_channel();
        a.set_power(ch, SimTime::ZERO, 1.0);
        a.job_started(ch, SimTime::ZERO, 1, 0, 0);
        a.job_finished(ch, SimTime::from_secs(1), 1);
        // 1 s of idle draw afterwards.
        let ledger = a.finalize(SimTime::from_secs(2));
        assert!(ledger.conserves());
        // Only function 0 completed, so it takes the whole idle pool.
        assert_eq!(ledger.function_idle_pj(0), PJ_PER_J);
        assert_eq!(ledger.function_idle_pj(1), 0);
    }

    #[test]
    fn usage_weighted_idle_policy_follows_attribution() {
        let mut a = attr(IdlePolicy::UsageWeighted);
        let ch = a.add_channel();
        a.set_power(ch, SimTime::ZERO, 1.0);
        a.job_started(ch, SimTime::ZERO, 1, 0, 0);
        a.job_finished(ch, SimTime::from_secs(3), 1);
        a.job_started(ch, SimTime::from_secs(3), 2, 1, 0);
        a.job_finished(ch, SimTime::from_secs(4), 2);
        // 2 s idle tail: split 3:1 between the functions.
        let ledger = a.finalize(SimTime::from_secs(6));
        assert!(ledger.conserves());
        assert_eq!(ledger.function_idle_pj(0), 3 * PJ_PER_J / 2);
        assert_eq!(ledger.function_idle_pj(1), PJ_PER_J / 2);
    }

    #[test]
    fn usage_weighted_split_survives_a_product_past_u128() {
        // 200 W for 30 h, then 30 h idle: 2.16e19 pJ attributed and an
        // equal idle pool, whose product (4.7e38) exceeds u128::MAX.
        let mut a = attr(IdlePolicy::UsageWeighted);
        let ch = a.add_channel();
        let thirty_h = SimTime::from_secs(30 * 3600);
        a.set_power(ch, SimTime::ZERO, 200.0);
        a.job_started(ch, SimTime::ZERO, 1, 0, 0);
        a.job_finished(ch, thirty_h, 1);
        let ledger = a.finalize(SimTime::from_secs(60 * 3600));
        let pool = ledger.idle_pj();
        assert_eq!(pool, 200 * 1_000_000 * 30 * 3600 * 1_000_000);
        assert!(pool.checked_mul(ledger.function_attributed_pj(0)).is_none());
        assert!(ledger.conserves());
        // The sole function and the sole tenant take the whole pool.
        assert_eq!(ledger.function_idle_pj(0), pool);
        assert_eq!(ledger.tenant_idle_pj(0), pool);
        let shares: u128 = (0..ledger.functions().len())
            .map(|f| ledger.function_idle_pj(f))
            .sum();
        assert!(shares >= pool - ledger.functions().len() as u128);
    }

    #[test]
    fn mul_div_is_exact_at_the_edges() {
        let max = u128::MAX;
        assert_eq!(mul_div(max, max, max), max);
        assert_eq!(mul_div(max, 1, max), 1);
        assert_eq!(mul_div(max, max - 1, max), max - 1);
        assert_eq!(mul_div(max - 1, max - 1, max), max - 2);
        assert_eq!(mul_div(0, 5, 7), 0);
        assert_eq!(mul_div(10, 3, 7), 4);
        // Agrees with the plain expression wherever that fits.
        for (a, b, d) in [
            (1u128 << 100, 3, 7),
            (12_345, 678, 91_011),
            (1 << 63, 1 << 62, 1 << 64),
        ] {
            assert_eq!(mul_div(a, b, d), a * b / d);
        }
        // floor((2^127 + 1) * 3 / 4) = 3 * 2^125 (the 3/4 remainder drops).
        assert_eq!(mul_div((1 << 127) + 1, 3, 4), 3 << 125);
    }

    #[test]
    fn interrupted_jobs_resume_their_accumulator() {
        let mut a = attr(IdlePolicy::None);
        let ch0 = a.add_channel();
        let ch1 = a.add_channel();
        a.set_power(ch0, SimTime::ZERO, 1.0);
        a.job_started(ch0, SimTime::ZERO, 1, 0, 0);
        a.interrupted(ch0, SimTime::from_secs(1), 1);
        a.set_power(ch0, SimTime::from_secs(1), 0.0);
        a.set_power(ch1, SimTime::from_secs(1), 1.0);
        a.job_started(ch1, SimTime::from_secs(1), 1, 0, 0);
        let pj = a.job_finished(ch1, SimTime::from_secs(2), 1);
        assert_eq!(pj as u128, 2 * PJ_PER_J); // both halves accumulate
        let ledger = a.finalize(SimTime::from_secs(2));
        assert!(ledger.conserves());
    }

    #[test]
    fn cache_served_completions_are_free() {
        let mut a = attr(IdlePolicy::Equal);
        a.record_free(0, 0);
        let ledger = a.finalize(SimTime::from_secs(1));
        assert!(ledger.conserves());
        assert_eq!(ledger.function_completions(0), 1);
        assert_eq!(ledger.function_attributed_pj(0), 0);
        assert_eq!(ledger.total_pj(), 0);
    }

    #[test]
    fn csv_and_prometheus_render_exact_decimals() {
        let mut a = attr(IdlePolicy::None);
        let ch = a.add_channel();
        a.set_power(ch, SimTime::ZERO, 1.82);
        a.job_started(ch, SimTime::ZERO, 1, 0, 0);
        a.job_finished(ch, SimTime::from_millis(1510), 1);
        let ledger = a.finalize(SimTime::from_millis(1510));
        let csv = ledger.to_csv();
        assert!(
            csv.contains("none,CascSHA,1,0,0,2.7482,0,0,0,2.7482"),
            "{csv}"
        );
        assert!(
            csv.lines().last().unwrap().starts_with("none,(idle),0"),
            "{csv}"
        );
        let prom = ledger.render_prometheus();
        assert!(
            prom.contains(
                "function_energy_total_j{function=\"CascSHA\",idle_policy=\"none\"} 2.7482"
            ),
            "{prom}"
        );
        assert!(
            prom.contains("function_energy_j_bucket{le=\"4\"} 1"),
            "{prom}"
        );
        assert!(prom.contains("function_energy_j_count 1"), "{prom}");
    }

    #[test]
    fn fmt_joules_is_exact() {
        assert_eq!(fmt_joules(0), "0");
        assert_eq!(fmt_joules(PJ_PER_J), "1");
        assert_eq!(fmt_joules(PJ_PER_J / 2), "0.5");
        assert_eq!(fmt_joules(1), "0.000000000001");
        assert_eq!(fmt_joules(5 * PJ_PER_J + 250), "5.00000000025");
    }

    #[test]
    fn idle_policy_labels_round_trip() {
        for policy in IdlePolicy::ALL {
            assert_eq!(policy.label().parse::<IdlePolicy>().unwrap(), policy);
        }
        assert!("bogus".parse::<IdlePolicy>().is_err());
    }
}
