//! Placement policies: which worker receives the next invocation.
//!
//! [`PlacementKind::place`] is deliberately narrow — a policy sees a
//! per-worker [`NodeView`] snapshot and names a worker index — so the
//! same seven policies drive both cluster shapes:
//!
//! * **closed loop** (`micro`/`conventional`): the whole batch is known
//!   at `t = 0` and the dispatcher calls [`PlacementKind::place`] once
//!   per job while building the static per-worker queues (except
//!   [`PlacementKind::WorkConserving`], which keeps one shared FIFO and
//!   never places statically);
//! * **open loop** (`openloop`): arrivals stream in and the policy is
//!   consulted once per arrival against live worker state.
//!
//! Determinism contract: the two ported legacy policies keep their
//! historical randomness sites *on the simulation RNG stream* so
//! default runs stay bit-identical to the pre-subsystem code —
//! [`PlacementKind::RandomStatic`] draws exactly one `rng.index(n)` per
//! placement, and [`PlacementKind::WorkConserving`] draws nothing. The
//! other five policies are deterministic index-picks and draw nothing
//! at all; any future stochastic policy must draw from the dedicated
//! policy stream owned by [`PolicyEngine`](crate::PolicyEngine), never
//! from the simulation stream.

use std::fmt;
use std::str::FromStr;

use microfaas_sim::Rng;

/// Queue depth at which [`PlacementKind::PowerAware`] stops packing and
/// wakes a gated node instead (the historical `WAKE_BACKLOG` constant).
pub const POWER_AWARE_WAKE_BACKLOG: usize = 2;

/// Backlog at which [`PlacementKind::CacheAffine`] abandons a key's home
/// node and spills to the least-loaded worker instead. Below this, hot
/// keys stay node-affine so a per-node result cache sees every repeat.
pub const CACHE_AFFINE_SPILL_BACKLOG: usize = 4;

/// The placement-policy family. `WorkConserving` and `RandomStatic` are
/// the two modes the orchestration plane has always had; the other five
/// are new with the scheduling subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementKind {
    /// One shared FIFO; idle workers pull the next job (closed loop).
    /// In the open loop: route to a powered idle worker when one
    /// exists, wake a gated node before queueing behind a busy one,
    /// and only then join the shortest powered backlog — work is never
    /// left waiting while capacity sits unused.
    ///
    /// This measures saturated cluster capacity and is the default.
    #[default]
    WorkConserving,
    /// Uniform random choice — the paper's literal mechanism: a static
    /// random split over jobs (closed loop) or one random queue pick
    /// per arrival (open loop, formerly `RandomQueue`).
    RandomStatic,
    /// Join the worker with the least outstanding load: accumulated
    /// expected execution seconds in the closed loop, current backlog
    /// (queued + running) in the open loop. Ignores power state.
    LeastLoaded,
    /// Join the worker with the shortest *queue* (in-flight work does
    /// not count). The classic JSQ policy.
    JoinShortestQueue,
    /// Prefer an already-booted node regardless of its backlog, so an
    /// arrival never pays the 1.51 s boot while any node is warm. Only
    /// boots a cold node when nothing is powered. In the closed loop a
    /// batch dropped on an all-off fleet therefore warms exactly one
    /// node — maximum packing, serial makespan.
    WarmFirst,
    /// Pack onto the fewest live nodes so the rest stay gated: join the
    /// least-backlogged powered node while its backlog is below
    /// [`POWER_AWARE_WAKE_BACKLOG`], else wake the first gated node.
    PowerAware,
    /// Route each content key to a fixed home node (`mix(key) % n`) so
    /// repeat invocations of the same function+input land where the
    /// result cache is warm, spilling to the least-loaded worker once
    /// the home backlog reaches [`CACHE_AFFINE_SPILL_BACKLOG`]. Without
    /// a key (key-less closed-loop dispatch) it degrades to
    /// least-loaded-by-backlog.
    CacheAffine,
}

impl PlacementKind {
    /// Every placement kind, in canonical sweep order.
    pub const ALL: [PlacementKind; 7] = [
        PlacementKind::WorkConserving,
        PlacementKind::RandomStatic,
        PlacementKind::LeastLoaded,
        PlacementKind::JoinShortestQueue,
        PlacementKind::WarmFirst,
        PlacementKind::PowerAware,
        PlacementKind::CacheAffine,
    ];

    /// Stable kebab-case label used in CLI flags, CSV rows, and trace
    /// events.
    pub fn label(self) -> &'static str {
        match self {
            PlacementKind::WorkConserving => "work-conserving",
            PlacementKind::RandomStatic => "random-static",
            PlacementKind::LeastLoaded => "least-loaded",
            PlacementKind::JoinShortestQueue => "join-shortest-queue",
            PlacementKind::WarmFirst => "warm-first",
            PlacementKind::PowerAware => "power-aware",
            PlacementKind::CacheAffine => "cache-affine",
        }
    }

    /// Whether this kind is one of the two legacy orchestration modes
    /// whose randomness stays on the simulation RNG stream (see the
    /// module docs).
    pub fn is_legacy_assignment(self) -> bool {
        matches!(
            self,
            PlacementKind::WorkConserving | PlacementKind::RandomStatic
        )
    }
}

impl fmt::Display for PlacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error from parsing a policy name (placement or governor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyParseError(pub String);

impl fmt::Display for PolicyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for PolicyParseError {}

impl FromStr for PlacementKind {
    type Err = PolicyParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "work-conserving" => Ok(PlacementKind::WorkConserving),
            // "random" is the historical open-loop CLI spelling.
            "random-static" | "random" => Ok(PlacementKind::RandomStatic),
            "least-loaded" => Ok(PlacementKind::LeastLoaded),
            "join-shortest-queue" | "jsq" => Ok(PlacementKind::JoinShortestQueue),
            "warm-first" => Ok(PlacementKind::WarmFirst),
            "power-aware" => Ok(PlacementKind::PowerAware),
            "cache-affine" => Ok(PlacementKind::CacheAffine),
            other => Err(PolicyParseError(format!(
                "unknown placement '{other}' (expected one of: work-conserving, \
                 random-static, least-loaded, join-shortest-queue, warm-first, power-aware, \
                 cache-affine)"
            ))),
        }
    }
}

/// One worker's state as the placement policy sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeView {
    /// Jobs waiting in the worker's queue (excludes the running job).
    pub queued: usize,
    /// Whether an invocation is executing right now.
    pub busy: bool,
    /// Whether the node is powered (booted, booting, or waking — i.e.
    /// an arrival would not pay a cold boot to reach it eventually).
    pub powered: bool,
    /// Scalar load figure: accumulated expected execution seconds in
    /// the closed loop, backlog in the open loop.
    pub load: f64,
}

impl NodeView {
    /// Queue depth plus the running job, the figure JSQ ignores and
    /// least-loaded/power-aware use.
    fn backlog(&self) -> usize {
        self.queued + usize::from(self.busy)
    }
}

/// First index minimizing `key` (ties break to the lowest index, the
/// same contract as `Iterator::min_by_key`).
fn argmin_by<K: PartialOrd>(
    views: &[NodeView],
    mut accept: impl FnMut(&NodeView) -> bool,
    mut key: impl FnMut(&NodeView) -> K,
) -> Option<usize> {
    let mut best: Option<(usize, K)> = None;
    for (i, view) in views.iter().enumerate() {
        if !accept(view) {
            continue;
        }
        let k = key(view);
        match &best {
            Some((_, bk)) if *bk <= k => {}
            _ => best = Some((i, k)),
        }
    }
    best.map(|(i, _)| i)
}

impl PlacementKind {
    /// Whether the closed-loop dispatcher should keep one shared FIFO
    /// instead of asking for per-job placements.
    pub fn shared_queue(self) -> bool {
        self == PlacementKind::WorkConserving
    }

    /// Picks the worker for the next job. `views` must be non-empty;
    /// the returned index is `< views.len()`.
    ///
    /// `key` is the job's content-cache key when the caller has one.
    /// Only [`PlacementKind::CacheAffine`] reads it; without a key it
    /// places least-loaded-by-backlog.
    ///
    /// `rng` is the stream the policy may draw from — the simulation
    /// stream for the legacy [`PlacementKind::RandomStatic`], the
    /// dedicated policy stream for everything else (see module docs).
    pub fn place(self, key: Option<u64>, views: &[NodeView], rng: &mut Rng) -> usize {
        match self {
            PlacementKind::WorkConserving => {
                // Powered and idle beats everything; waking a gated node
                // beats queueing; only then join the shortest powered
                // backlog.
                if let Some(i) = argmin_by(views, |v| v.powered && v.backlog() == 0, |_| 0usize) {
                    return i;
                }
                if let Some(i) = views.iter().position(|v| !v.powered) {
                    return i;
                }
                argmin_by(views, |v| v.powered, NodeView::backlog).unwrap_or(0)
            }
            // Exactly one uniform draw over the full fleet — the
            // historical draw the bit-compat goldens pin.
            PlacementKind::RandomStatic => rng.index(views.len()),
            PlacementKind::LeastLoaded => argmin_by(views, |_| true, |v| v.load).unwrap_or(0),
            PlacementKind::JoinShortestQueue => {
                argmin_by(views, |_| true, |v| v.queued).unwrap_or(0)
            }
            PlacementKind::WarmFirst => {
                if let Some(i) = argmin_by(views, |v| v.powered, NodeView::backlog) {
                    return i;
                }
                views.iter().position(|v| !v.powered).unwrap_or(0)
            }
            PlacementKind::PowerAware => {
                // This reproduces the historical open-loop scheduler
                // verbatim (same candidate order, same tie-breaks) so runs
                // that used it before the subsystem existed stay
                // bit-identical.
                let powered_best = argmin_by(views, |v| v.powered, NodeView::backlog);
                if let Some(i) = powered_best {
                    if views[i].backlog() < POWER_AWARE_WAKE_BACKLOG {
                        return i;
                    }
                }
                if let Some(i) = views.iter().position(|v| !v.powered) {
                    return i;
                }
                if let Some(i) = powered_best {
                    return i;
                }
                // Unreachable when `views` is non-empty, kept as the
                // historical uniform fallback.
                rng.index(views.len())
            }
            PlacementKind::CacheAffine => {
                let least_backlog = || argmin_by(views, |_| true, NodeView::backlog);
                // Key-less dispatch (closed-loop batches): nothing to be
                // affine to, so behave like least-loaded-by-backlog.
                let Some(key) = key else {
                    return least_backlog().unwrap_or(0);
                };
                // A fixed multiplicative mix (splitmix64 finalizer)
                // spreads sequential FNV keys over the fleet; the home
                // pick is a pure function of (key, fleet size) so it is
                // stable across runs.
                let mut h = key;
                h ^= h >> 30;
                h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                h ^= h >> 27;
                h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
                h ^= h >> 31;
                let home = (h % views.len() as u64) as usize;
                if views[home].backlog() < CACHE_AFFINE_SPILL_BACKLOG {
                    return home;
                }
                least_backlog().unwrap_or(home)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(queued: usize, busy: bool, powered: bool) -> NodeView {
        NodeView {
            queued,
            busy,
            powered,
            load: (queued + usize::from(busy)) as f64,
        }
    }

    #[test]
    fn labels_round_trip_through_from_str() {
        for kind in PlacementKind::ALL {
            assert_eq!(kind.label().parse::<PlacementKind>().unwrap(), kind);
        }
        assert_eq!(
            "random".parse::<PlacementKind>().unwrap(),
            PlacementKind::RandomStatic
        );
        assert_eq!(
            "jsq".parse::<PlacementKind>().unwrap(),
            PlacementKind::JoinShortestQueue
        );
        assert!("mystery".parse::<PlacementKind>().is_err());
    }

    #[test]
    fn only_work_conserving_uses_the_shared_queue() {
        for kind in PlacementKind::ALL {
            assert_eq!(kind.shared_queue(), kind == PlacementKind::WorkConserving);
        }
    }

    #[test]
    fn random_draws_exactly_one_index_per_placement() {
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        let views = vec![view(0, false, false); 7];
        for _ in 0..50 {
            assert_eq!(
                PlacementKind::RandomStatic.place(None, &views, &mut a),
                b.index(7)
            );
        }
    }

    #[test]
    fn least_loaded_breaks_ties_to_the_first_index() {
        let mut rng = Rng::new(1);
        let views = vec![
            view(2, true, true),
            view(1, false, true),
            view(1, false, true),
        ];
        assert_eq!(PlacementKind::LeastLoaded.place(None, &views, &mut rng), 1);
    }

    #[test]
    fn jsq_ignores_the_running_job() {
        let mut rng = Rng::new(1);
        // Worker 0 has the shortest queue even though it is busy.
        let views = vec![view(0, true, true), view(1, false, true)];
        assert_eq!(
            PlacementKind::JoinShortestQueue.place(None, &views, &mut rng),
            0
        );
        assert_eq!(PlacementKind::LeastLoaded.place(None, &views, &mut rng), 0);
    }

    #[test]
    fn warm_first_never_wakes_while_anything_is_powered() {
        let mut rng = Rng::new(1);
        let views = vec![view(0, false, false), view(9, true, true)];
        assert_eq!(PlacementKind::WarmFirst.place(None, &views, &mut rng), 1);
        let all_off = vec![view(0, false, false); 4];
        assert_eq!(PlacementKind::WarmFirst.place(None, &all_off, &mut rng), 0);
    }

    #[test]
    fn power_aware_packs_until_the_wake_backlog() {
        let mut rng = Rng::new(1);
        let policy = PlacementKind::PowerAware;
        // Backlog 1 < 2: keep packing onto the powered node.
        let packing = vec![view(0, true, true), view(0, false, false)];
        assert_eq!(policy.place(None, &packing, &mut rng), 0);
        // Backlog 2: wake the gated node instead.
        let spilling = vec![view(1, true, true), view(0, false, false)];
        assert_eq!(policy.place(None, &spilling, &mut rng), 1);
        // Nothing gated left: fall back to the least-backlogged node.
        let saturated = vec![view(3, true, true), view(2, true, true)];
        assert_eq!(policy.place(None, &saturated, &mut rng), 1);
    }

    #[test]
    fn cache_affine_keeps_keys_home_until_the_spill_backlog() {
        let mut rng = Rng::new(1);
        let policy = PlacementKind::CacheAffine;
        let views = vec![view(0, false, true); 4];
        // Same key, same home — repeatedly.
        let home = policy.place(Some(0xfeed), &views, &mut rng);
        for _ in 0..8 {
            assert_eq!(policy.place(Some(0xfeed), &views, &mut rng), home);
        }
        // Saturate the home node past the spill threshold: the key
        // moves to the least-backlogged worker instead.
        let mut loaded = views.clone();
        loaded[home] = view(CACHE_AFFINE_SPILL_BACKLOG, true, true);
        let spilled = policy.place(Some(0xfeed), &loaded, &mut rng);
        assert_ne!(spilled, home);
        assert_eq!(loaded[spilled].backlog(), 0);
        // Key-less placement degrades to least-loaded-by-backlog.
        let uneven = vec![view(2, true, true), view(0, false, true)];
        assert_eq!(policy.place(None, &uneven, &mut rng), 1);
        // Other policies ignore the key.
        let jsq = PlacementKind::JoinShortestQueue;
        assert_eq!(
            jsq.place(Some(0xfeed), &uneven, &mut rng),
            jsq.place(None, &uneven, &mut rng)
        );
    }

    #[test]
    fn work_conserving_routes_idle_then_wakes_then_queues() {
        let mut rng = Rng::new(1);
        let policy = PlacementKind::WorkConserving;
        let idle_available = vec![view(2, true, true), view(0, false, true)];
        assert_eq!(policy.place(None, &idle_available, &mut rng), 1);
        let must_wake = vec![view(1, true, true), view(0, false, false)];
        assert_eq!(policy.place(None, &must_wake, &mut rng), 1);
        let all_busy = vec![view(2, true, true), view(1, true, true)];
        assert_eq!(policy.place(None, &all_busy, &mut rng), 1);
    }
}
