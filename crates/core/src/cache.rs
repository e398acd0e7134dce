//! Content-addressed result caching with in-flight request coalescing.
//!
//! A cache **hit** is the cheapest invocation a serverless platform can
//! serve: no queueing, no boot, no execution — near-zero latency at
//! zero marginal energy. With the skewed popularity models of
//! `docs/WORKLOADS.md` (Zipf, hot/cold) most traffic repeats a small
//! set of idempotent function + input pairs, so a bounded cache in the
//! orchestration plane reshapes every latency–energy Pareto curve the
//! policy sweeps measure. `docs/CACHING.md` is the handbook page.
//!
//! The design is deliberately deterministic and dependency-free:
//!
//! * **Keys** are FNV-1a over the interned function identity plus the
//!   canonical input bytes ([`content_key`]).
//! * **Storage** is a hand-rolled bounded LRU (a [`HashMap`] from key
//!   to slot index over an index-linked slab — O(1) lookup, insert,
//!   and eviction) with TTL expiry checked lazily against simulated
//!   time, so equal seeds give bit-identical hit sequences.
//! * **Coalescing** ([`CoalesceTable`]) collapses concurrent identical
//!   invokes onto one leader execution; followers complete when the
//!   leader does, paying queue time only.
//!
//! Configuration is a spec string in the arrivals style
//! (`off` | `lru:CAP[,ttl=SECS][,inputs=N]`), parsed by
//! [`CacheConfig::parse`] and validated by [`CacheConfig::try_validate`].
//!
//! # Examples
//!
//! ```
//! use microfaas::cache::{content_key, CacheConfig, ResultCache};
//!
//! let config = CacheConfig::parse("lru:2,ttl=300").unwrap();
//! let mut cache: ResultCache<u32> = ResultCache::from_config(&config).unwrap();
//! let key = content_key(3, 7);
//!
//! assert!(cache.lookup(key, 0).is_none()); // cold
//! cache.insert(key, 42, 0);
//! assert_eq!(cache.lookup(key, 1_000_000), Some(&42)); // warm at t=1 s
//! assert!(cache.lookup(key, 400_000_000).is_none()); // expired at t=400 s
//! assert_eq!(cache.stats().hits, 1);
//! assert_eq!(cache.stats().misses, 2);
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use microfaas_sim::SimDuration;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a hash state (start from [`FNV_OFFSET`]).
#[inline]
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over one byte string.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// The content address of one invocation: the interned function
/// identity (`FunctionId::index`) folded with the canonical input
/// bytes. Two invocations share a key exactly when they would compute
/// the same result.
#[inline]
pub fn content_key(function_index: u8, input: u64) -> u64 {
    fnv1a_extend(
        fnv1a_extend(FNV_OFFSET, &[function_index]),
        &input.to_le_bytes(),
    )
}

/// Identity-strength FNV hasher for the cache's `u64`-keyed maps: the
/// keys are already FNV digests, so this avoids SipHash on the lookup
/// hot path while staying deterministic.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_extend(self.0, bytes);
    }
}

type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// Input variants drawn per arrival when a spec omits `inputs=N`: a
/// proxy for "how many distinct request payloads a function sees".
pub const DEFAULT_INPUT_VARIANTS: u32 = 16;

/// The spec string the CLI treats as `--cache on`.
pub const DEFAULT_CACHE_SPEC: &str = "lru:4096,ttl=300";

/// Result-cache configuration, parsed from a spec string. The default
/// is [`CacheConfig::Off`], which keeps every engine byte-identical to
/// the pre-cache builds (the bit-compat goldens pin this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheConfig {
    /// No caching: the zero-cost default.
    #[default]
    Off,
    /// Bounded LRU keyed on content addresses.
    Lru {
        /// Maximum number of cached results.
        capacity: usize,
        /// Entries older than this (in simulated time) miss and are
        /// dropped; `None` never expires.
        ttl: Option<SimDuration>,
        /// Distinct canonical inputs drawn per function in the
        /// simulation engines (the gateway uses real request bodies).
        inputs: u32,
    },
}

impl CacheConfig {
    /// Whether this configuration caches at all.
    pub fn enabled(&self) -> bool {
        *self != CacheConfig::Off
    }

    /// The configured input-variant count (engines only consult this
    /// when the cache is enabled).
    pub fn input_variants(&self) -> u32 {
        match self {
            CacheConfig::Off => DEFAULT_INPUT_VARIANTS,
            CacheConfig::Lru { inputs, .. } => *inputs,
        }
    }

    /// Parses a spec string: `off`, `lru:CAP`, `lru:CAP,ttl=SECS`,
    /// `lru:CAP,ttl=SECS,inputs=N`.
    ///
    /// # Examples
    ///
    /// ```
    /// use microfaas::cache::CacheConfig;
    /// use microfaas_sim::SimDuration;
    ///
    /// assert_eq!(CacheConfig::parse("off").unwrap(), CacheConfig::Off);
    /// assert_eq!(
    ///     CacheConfig::parse("lru:4096,ttl=300").unwrap(),
    ///     CacheConfig::Lru {
    ///         capacity: 4096,
    ///         ttl: Some(SimDuration::from_secs(300)),
    ///         inputs: 16,
    ///     }
    /// );
    /// assert!(CacheConfig::parse("lru:0").is_err());
    /// assert!(CacheConfig::parse("arc:64").is_err());
    /// ```
    pub fn parse(spec: &str) -> Result<CacheConfig, String> {
        let (kind, args) = spec.split_once(':').unwrap_or((spec, ""));
        let config = match kind {
            "off" => {
                if !args.is_empty() {
                    return Err(format!(
                        "cache spec \"off\" takes no arguments, got \"{args}\""
                    ));
                }
                CacheConfig::Off
            }
            "lru" => {
                if args.is_empty() {
                    return Err(format!(
                        "cache spec \"{spec}\" needs a capacity (lru:CAP[,ttl=SECS][,inputs=N])"
                    ));
                }
                let mut parts = args.split(',');
                let cap_text = parts.next().unwrap_or("").trim();
                let capacity: usize = cap_text
                    .parse()
                    .map_err(|_| format!("bad capacity \"{cap_text}\" in cache spec \"{spec}\""))?;
                let mut ttl = None;
                let mut inputs = DEFAULT_INPUT_VARIANTS;
                for part in parts {
                    let (name, value) = part.split_once('=').ok_or_else(|| {
                        format!(
                            "bad option \"{part}\" in cache spec \"{spec}\" \
                             (expected ttl=SECS or inputs=N)"
                        )
                    })?;
                    match name.trim() {
                        "ttl" => {
                            let secs: u64 = value.trim().parse().map_err(|_| {
                                format!("bad number \"{value}\" in cache spec \"{spec}\"")
                            })?;
                            let micros = secs.checked_mul(1_000_000).ok_or_else(|| {
                                format!("cache ttl {secs} s overflows the simulated clock")
                            })?;
                            ttl = Some(SimDuration::from_micros(micros));
                        }
                        "inputs" => {
                            inputs = value.trim().parse().map_err(|_| {
                                format!("bad number \"{value}\" in cache spec \"{spec}\"")
                            })?;
                        }
                        other => {
                            return Err(format!(
                                "unknown option \"{other}\" in cache spec \"{spec}\" \
                                 (ttl | inputs)"
                            ));
                        }
                    }
                }
                CacheConfig::Lru {
                    capacity,
                    ttl,
                    inputs,
                }
            }
            other => {
                return Err(format!("unknown cache spec \"{other}\" (off | lru:CAP)"));
            }
        };
        config.try_validate()?;
        Ok(config)
    }

    /// Validates the configuration, mirroring the arrivals style:
    /// construction is infallible, use is not.
    pub fn try_validate(&self) -> Result<(), String> {
        match self {
            CacheConfig::Off => Ok(()),
            CacheConfig::Lru {
                capacity,
                ttl,
                inputs,
            } => {
                if *capacity == 0 {
                    return Err("cache capacity must be positive, got 0".to_string());
                }
                if let Some(ttl) = ttl {
                    if ttl.is_zero() {
                        return Err("cache ttl must be positive, got 0".to_string());
                    }
                }
                if *inputs == 0 {
                    return Err("cache inputs must be positive, got 0".to_string());
                }
                Ok(())
            }
        }
    }

    /// Round-trippable display label (`off` or `lru:CAP,...`).
    pub fn label(&self) -> String {
        match self {
            CacheConfig::Off => "off".to_string(),
            CacheConfig::Lru {
                capacity,
                ttl,
                inputs,
            } => {
                let mut label = format!("lru:{capacity}");
                if let Some(ttl) = ttl {
                    label.push_str(&format!(",ttl={}", ttl.as_micros() / 1_000_000));
                }
                if *inputs != DEFAULT_INPUT_VARIANTS {
                    label.push_str(&format!(",inputs={inputs}"));
                }
                label
            }
        }
    }
}

/// Monotonic cache telemetry, published as `cache_*` counters when an
/// engine runs with the cache enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing (including TTL expiries).
    pub misses: u64,
    /// Results stored.
    pub insertions: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries dropped because their TTL elapsed.
    pub expirations: u64,
    /// Invocations that collapsed onto an in-flight leader.
    pub coalesced: u64,
}

const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Slot<V> {
    key: u64,
    value: V,
    stored_at: u64,
    prev: u32,
    next: u32,
}

/// A bounded, deterministic LRU result cache with lazy TTL expiry.
///
/// Time is a caller-supplied monotonic `u64`: the simulation engines
/// pass microseconds of sim time, the HTTP gateway passes its request
/// counter. Lookups, inserts, and evictions are all O(1) — the recency
/// list is index-linked over a slab, so the hot path never allocates.
#[derive(Debug)]
pub struct ResultCache<V> {
    capacity: usize,
    ttl: Option<u64>,
    map: HashMap<u64, u32, FnvBuildHasher>,
    slots: Vec<Slot<V>>,
    head: u32,
    tail: u32,
    free: Vec<u32>,
    stats: CacheStats,
}

impl<V> ResultCache<V> {
    /// Creates a cache holding at most `capacity` entries whose age may
    /// not exceed `ttl` time units (`None` never expires).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, ttl: Option<u64>) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        let reserve = capacity.min(1 << 16);
        ResultCache {
            capacity,
            ttl,
            map: HashMap::with_capacity_and_hasher(reserve, FnvBuildHasher::default()),
            slots: Vec::with_capacity(reserve),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Builds a cache from a [`CacheConfig`], with TTL converted to
    /// microseconds of simulated time. Returns `None` when the config
    /// is [`CacheConfig::Off`].
    pub fn from_config(config: &CacheConfig) -> Option<Self> {
        match config {
            CacheConfig::Off => None,
            CacheConfig::Lru { capacity, ttl, .. } => {
                Some(ResultCache::new(*capacity, ttl.map(|t| t.as_micros())))
            }
        }
    }

    /// Looks up `key` at time `now`, counting a hit or a miss; an entry
    /// older than the TTL is dropped and counts as a miss.
    pub fn lookup(&mut self, key: u64, now: u64) -> Option<&V> {
        let Some(&slot) = self.map.get(&key) else {
            self.stats.misses += 1;
            return None;
        };
        if let Some(ttl) = self.ttl {
            if now.saturating_sub(self.slots[slot as usize].stored_at) > ttl {
                self.unlink(slot);
                self.map.remove(&key);
                self.free.push(slot);
                self.stats.expirations += 1;
                self.stats.misses += 1;
                return None;
            }
        }
        self.touch(slot);
        self.stats.hits += 1;
        Some(&self.slots[slot as usize].value)
    }

    /// Stores `value` under `key` at time `now`, refreshing the entry's
    /// recency and TTL clock; evicts the least-recently-used entry at
    /// capacity.
    pub fn insert(&mut self, key: u64, value: V, now: u64) {
        if let Some(&slot) = self.map.get(&key) {
            let s = &mut self.slots[slot as usize];
            s.value = value;
            s.stored_at = now;
            self.touch(slot);
            self.stats.insertions += 1;
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "capacity > 0 so a tail exists");
            self.unlink(victim);
            self.map.remove(&self.slots[victim as usize].key);
            self.free.push(victim);
            self.stats.evictions += 1;
        }
        let slot = match self.free.pop() {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                s.key = key;
                s.value = value;
                s.stored_at = now;
                i
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(Slot {
                    key,
                    value,
                    stored_at: now,
                    prev: NIL,
                    next: NIL,
                });
                i
            }
        };
        self.push_front(slot);
        self.map.insert(key, slot);
        self.stats.insertions += 1;
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum entry count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Telemetry accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Counts one coalesced follower, reclassifying the miss its
    /// [`ResultCache::lookup`] just recorded (a follower neither hits
    /// nor executes, so each arrival lands in exactly one of the three
    /// buckets). The engines own the in-flight table; the cache owns
    /// the telemetry.
    pub fn note_coalesced(&mut self) {
        self.stats.misses = self.stats.misses.saturating_sub(1);
        self.stats.coalesced += 1;
    }

    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[slot as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = slot;
        } else {
            self.tail = slot;
        }
        self.head = slot;
    }

    #[inline]
    fn touch(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }
}

/// In-flight coalescing: maps a content key to the followers waiting on
/// its leader execution. The engines call [`CoalesceTable::try_lead`]
/// on a cache miss, park duplicates with [`CoalesceTable::follow`], and
/// drain them with [`CoalesceTable::complete`] when the leader's result
/// commits.
///
/// # Examples
///
/// ```
/// use microfaas::cache::CoalesceTable;
///
/// let mut table: CoalesceTable<u64> = CoalesceTable::new();
/// assert!(table.try_lead(9, 100)); // first invoke (job 100) executes
/// assert!(!table.try_lead(9, 101)); // duplicate while in flight
/// assert_eq!(table.leader(9), Some(100));
/// table.follow(9, 101);
/// table.follow(9, 102);
/// assert_eq!(table.complete(9), vec![101, 102]);
/// assert!(table.try_lead(9, 103)); // key free again
/// ```
#[derive(Debug, Default)]
pub struct CoalesceTable<J> {
    waiting: HashMap<u64, (u64, Vec<J>), FnvBuildHasher>,
}

impl<J> CoalesceTable<J> {
    /// Creates an empty table.
    pub fn new() -> Self {
        CoalesceTable {
            waiting: HashMap::with_hasher(FnvBuildHasher::default()),
        }
    }

    /// Claims leadership of `key` for the job `leader`: returns true if
    /// no identical invoke is in flight (the caller must execute),
    /// false if one is (the caller should [`CoalesceTable::follow`]).
    pub fn try_lead(&mut self, key: u64, leader: u64) -> bool {
        use std::collections::hash_map::Entry;
        match self.waiting.entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert((leader, Vec::new()));
                true
            }
        }
    }

    /// The job id leading `key`'s in-flight execution, if any.
    pub fn leader(&self, key: u64) -> Option<u64> {
        self.waiting.get(&key).map(|(leader, _)| *leader)
    }

    /// Parks a follower behind `key`'s in-flight leader.
    ///
    /// # Panics
    ///
    /// Panics if no leader holds `key` (callers must check
    /// [`CoalesceTable::try_lead`] first).
    pub fn follow(&mut self, key: u64, job: J) {
        self.waiting
            .get_mut(&key)
            .expect("follow() requires an in-flight leader")
            .1
            .push(job);
    }

    /// Releases `key` and returns its parked followers in arrival
    /// order (empty if the leader ran alone, or if the key was never
    /// led — completions of uncached work are fine to report).
    pub fn complete(&mut self, key: u64) -> Vec<J> {
        self.waiting
            .remove(&key)
            .map(|(_, jobs)| jobs)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_and_validates() {
        assert_eq!(CacheConfig::parse("off").unwrap(), CacheConfig::Off);
        let full = CacheConfig::parse("lru:128,ttl=60,inputs=4").unwrap();
        assert_eq!(
            full,
            CacheConfig::Lru {
                capacity: 128,
                ttl: Some(SimDuration::from_secs(60)),
                inputs: 4,
            }
        );
        assert_eq!(CacheConfig::parse(&full.label()).unwrap(), full);
        let no_ttl = CacheConfig::parse("lru:64").unwrap();
        assert_eq!(
            no_ttl,
            CacheConfig::Lru {
                capacity: 64,
                ttl: None,
                inputs: DEFAULT_INPUT_VARIANTS,
            }
        );
        assert_eq!(CacheConfig::parse(&no_ttl.label()).unwrap(), no_ttl);
        assert_eq!(CacheConfig::default(), CacheConfig::Off);
        assert!(CacheConfig::parse(DEFAULT_CACHE_SPEC).is_ok());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "lru",
            "lru:",
            "lru:0",
            "lru:abc",
            "lru:4,ttl=0",
            "lru:4,ttl=x",
            // Its microseconds overflow u64.
            "lru:4,ttl=18446744073710",
            "lru:4,inputs=0",
            "lru:4,depth=2",
            "lru:4,ttl",
            "off:1",
            "arc:16",
        ] {
            assert!(CacheConfig::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn content_keys_separate_functions_and_inputs() {
        let a = content_key(0, 0);
        assert_ne!(a, content_key(1, 0), "function identity is part of the key");
        assert_ne!(a, content_key(0, 1), "input bytes are part of the key");
        assert_eq!(a, content_key(0, 0), "keys are pure");
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache: ResultCache<u32> = ResultCache::new(2, None);
        cache.insert(1, 10, 0);
        cache.insert(2, 20, 1);
        assert_eq!(cache.lookup(1, 2), Some(&10)); // 1 now most recent
        cache.insert(3, 30, 3); // evicts 2
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(2, 4).is_none());
        assert_eq!(cache.lookup(1, 5), Some(&10));
        assert_eq!(cache.lookup(3, 6), Some(&30));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn ttl_expires_lazily_and_refreshes_on_insert() {
        let mut cache: ResultCache<&str> = ResultCache::new(4, Some(100));
        cache.insert(7, "old", 0);
        assert_eq!(
            cache.lookup(7, 100),
            Some(&"old"),
            "exactly at ttl still hits"
        );
        assert!(cache.lookup(7, 101).is_none(), "past ttl expires");
        assert_eq!(cache.stats().expirations, 1);
        cache.insert(7, "new", 200);
        assert_eq!(
            cache.lookup(7, 290),
            Some(&"new"),
            "insert resets the clock"
        );
    }

    #[test]
    fn slot_reuse_keeps_the_map_and_list_consistent() {
        let mut cache: ResultCache<u64> = ResultCache::new(3, Some(10));
        for round in 0u64..50 {
            cache.insert(round % 5, round, round);
            let _ = cache.lookup((round + 2) % 5, round);
        }
        assert!(cache.len() <= 3);
        let stats = cache.stats();
        assert_eq!(stats.insertions, 50);
        assert!(stats.evictions > 0);
        // Every surviving key must still resolve through the map.
        let survivors: Vec<u64> = (0..5)
            .filter_map(|k| cache.lookup(k, 49).copied())
            .collect();
        assert!(!survivors.is_empty());
    }

    #[test]
    fn coalesce_table_round_trip() {
        let mut table: CoalesceTable<u32> = CoalesceTable::new();
        assert!(table.try_lead(1, 7));
        assert!(!table.try_lead(1, 8));
        assert_eq!(table.leader(1), Some(7));
        assert_eq!(table.leader(2), None);
        table.follow(1, 8);
        assert_eq!(table.complete(1), vec![8]);
        assert_eq!(table.leader(1), None, "completion ends the flight");
        assert_eq!(table.complete(1), Vec::<u32>::new());
    }
}
