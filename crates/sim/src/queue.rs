//! The discrete-event queue at the heart of the simulator.
//!
//! [`EventQueue`] is generic over the event payload so each simulation
//! defines its own event enum. Events scheduled for the same instant are
//! delivered in scheduling order (FIFO tie-break by sequence number), which
//! keeps runs deterministic.
//!
//! # Implementation: a flat list, then a hierarchical timing wheel
//!
//! A queue starts in **flat mode**: while at most 32 events are
//! pending they sit in one `Vec` in sequence order (`schedule` appends
//! the newest, and every removal keeps the rest in order), and `pop`
//! takes the first entry with the earliest time, found by linear scan.
//! That is the `(time, seq)` minimum, so pop order is the same order
//! the wheel delivers, FIFO ties included. The sparse closed-loop runs
//! (the 340-job paper run never holds more than ten pending events)
//! live here for their whole lifetime and never build a wheel.
//!
//! The `schedule` that pushes the count past the limit **spills**: the
//! wheel is anchored at the current time and built on first use, and
//! the entries are placed in sequence order, so same-time entries keep
//! sequence order in their slot and past-horizon entries go to the
//! overflow heap. Cancelled entries are dropped first; if that leaves
//! at most 32, the queue stays flat.
//! A spill follows at least 33 schedules since the queue last emptied,
//! so spills cost O(1) amortized. The queue returns to flat mode when
//! `pop` finds it empty, keeping the built wheel for the next spill.
//!
//! In wheel mode the queue is a hashed hierarchical timing wheel (the
//! structure behind kernel timers and tokio's timer driver), not a
//! binary heap. Each of the [`DEFAULT_LEVELS`] levels has 64 slots and
//! resolves six more bits of the microsecond timestamp than the level
//! below, so the default wheel spans `2^36` µs ≈ 19.1 simulated hours
//! ahead of the current anchor. A `u64` occupancy bitmap per level
//! makes "find the earliest slot" a single `trailing_zeros`. Events
//! beyond the wheel's horizon wait in a small overflow [`BinaryHeap`]
//! and migrate into the wheel as simulated time approaches them.
//!
//! Cost model (see `docs/SCALING.md` for the full analysis):
//!
//! * `schedule` — O(1): flat mode pushes onto the list; wheel mode does
//!   one XOR + `leading_zeros` to pick the slot and one
//!   `VecDeque::push_back`.
//! * `pop` — flat mode scans at most 32 entries; wheel mode is O(1)
//!   amortized, since an event cascades down at most `levels − 1` times
//!   over its whole lifetime.
//! * `cancel` — O(1) in both modes: sets a bit in a sequence-indexed
//!   bitmap (no hashing), and the event is reclaimed lazily when a pop,
//!   cascade or spill reaches it. Every delivered event sets its bit
//!   too, so cancelling an event that already fired is refused.
//!
//! Within a level-0 slot every entry shares the *same* timestamp, so the
//! slot's `VecDeque` order is exactly sequence order and FIFO tie-breaking
//! falls out of `push_back`/`pop_front` with no comparisons at all.
//!
//! Memory follows the events pending now, not the most ever pending: a
//! slot that a cascade or `pop` empties keeps its buffer only if it has
//! room for at most 256 entries, and frees a larger one. An idle wheel
//! therefore holds at most `slots × 256` entries of buffer (2.4 MB for
//! the default 384 slots of 24-byte entries), and a slot still holding
//! events holds at most the buffer of its fullest moment since it last
//! emptied.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::num::NonZeroU64;

use crate::time::{SimDuration, SimTime};

/// Identifies a scheduled event so it can be cancelled before it fires.
///
/// It holds the event's sequence number plus one, so the zero niche
/// makes `Option<EventId>` eight bytes: the engines keep one such
/// pending-event handle in every worker record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(NonZeroU64);

const _: () = assert!(std::mem::size_of::<Option<EventId>>() == 8);

impl EventId {
    /// The id of the event with sequence number `seq`.
    #[inline]
    fn new(seq: u64) -> Self {
        EventId(NonZeroU64::MIN.saturating_add(seq))
    }

    /// The sequence number of the event this id names.
    #[inline]
    fn seq(self) -> u64 {
        self.0.get() - 1
    }
}

/// Bits of timestamp resolved per wheel level; each level has `2^6 = 64`
/// slots so one `u64` bitmap tracks slot occupancy.
const SLOT_BITS: u32 = 6;

/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;

/// Most pending events flat mode holds; the `schedule` that would make
/// it 33 spills them into the wheel. Chosen from measured depths: the
/// closed-loop paper runs peak at 10 pending events and the sparse
/// open-loop sweeps stay at or under 32 on 99.7% of pops, while the
/// dense runs pass 32 within their first few hundred pops. Checked end
/// to end on a 2-vCPU VM against a limit of 24, near where a
/// fixed-depth pop/reschedule loop puts the flat list's break-even with
/// the wheel: 32 read the same on `paper-closed` and its median was 6%
/// lower on `policy-sweeps` (six alternating benchmark pairs each).
const FLAT_LIMIT: usize = 32;

/// Most entries of buffer a wheel slot keeps once it empties. A cascade
/// or `pop` that empties a slot with room for more frees the buffer, so
/// a dense wave's slots do not hold its peak for the rest of the run,
/// while a slot that refills to a few hundred entries reuses its buffer
/// instead of paying malloc again. Measured on a 2-vCPU VM with the
/// dense `capacity-1m` benchmark (16,384 nodes, 1M jobs): 64 / 256 /
/// 1024 read 14.0 / 13.8 / 14.0 MB of peak RSS (24.8 MB when every
/// buffer is kept) and 1.010 / 0.875 / 0.911 of the keep-everything
/// build's run time (medians of 12 runs interleaved in one process).
/// Freeing every emptied buffer read 12.7 MB, but 1.078 of that run
/// time, and 1.186 on the flash-crowd day: each refill pays malloc.
const SLOT_KEEP: usize = 256;

/// Default number of wheel levels. Six levels × six bits = 36 bits of
/// microseconds ≈ 19.1 hours of horizon before events spill to the
/// overflow heap — comfortably past every workload in the repo (the
/// longest TCO horizons are simulated analytically, not event by event).
pub const DEFAULT_LEVELS: u32 = 6;

/// Maximum supported wheel depth (`10 × 6 = 60` bits ≈ 36 557 years).
pub const MAX_LEVELS: u32 = 10;

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

// Order entries so that the *earliest* time (and, within a time, the
// lowest sequence number) is the greatest element of the overflow
// max-heap.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

/// A deterministic discrete-event queue.
///
/// # Examples
///
/// ```
/// use microfaas_sim::{EventQueue, SimDuration, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule_in(SimDuration::from_millis(5), "later");
/// q.schedule_in(SimDuration::from_millis(1), "sooner");
///
/// let (t, e) = q.pop().expect("two events queued");
/// assert_eq!((t, e), (SimTime::from_millis(1), "sooner"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Flat mode's pending entries, in sequence order. Empty while the
    /// wheel holds the events; the buffer is kept for the return to
    /// flat mode.
    flat: Vec<Entry<E>>,
    /// True while the wheel (slots, overflow heap and front buffer)
    /// holds the pending events; false in flat mode.
    wheeled: bool,
    /// `levels × 64` slot queues, flattened (`level * SLOTS + slot`).
    /// Empty until the first spill builds the wheel.
    slots: Vec<VecDeque<Entry<E>>>,
    /// One occupancy bitmap per level; bit `s` set iff slot `s` is
    /// non-empty. Built with `slots`.
    occupied: Vec<u64>,
    /// Number of wheel levels (the granularity knob; see
    /// [`Self::with_levels`]).
    levels: u32,
    /// `2^(6·levels)` µs — events at or beyond `anchor + span` overflow.
    span: u64,
    /// Far-future events that do not fit the wheel yet, min-ordered by
    /// `(time, seq)`.
    overflow: BinaryHeap<Entry<E>>,
    /// One-entry fast path: when present, holds the global minimum by
    /// `(time, seq)` — strictly earlier than everything in the wheel and
    /// overflow. Serial event chains (schedule an event, pop it next,
    /// repeat) flow through this buffer without ever touching a wheel
    /// slot. Unused in flat mode.
    front: Option<Entry<E>>,
    /// Sequence numbers whose event fired or was cancelled. A stored
    /// entry in this set is a tombstone.
    retired: Retired,
    /// Stored entries that are in `retired` (cancelled but not yet
    /// reclaimed).
    tombstones: usize,
    /// Entries physically present in the flat list, or in the wheel
    /// plus the overflow heap (including not-yet-reclaimed tombstones).
    stored: usize,
    /// The wheel's reference time in µs. Invariant between public calls
    /// in wheel mode: `anchor ≤ now`, and every stored entry satisfies
    /// `time ≥ anchor` with wheel entries within `anchor ^ time < span`.
    anchor: u64,
    next_seq: u64,
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue sized for `capacity` pending events.
    /// Simulators that know their peak outstanding-event count (roughly
    /// jobs in flight plus a few timers per worker) use this to keep the
    /// hot loop allocation-free: the hint pre-sizes what flat mode uses,
    /// the flat list (up to the 33 entries it can hold) and the
    /// retirement bitmap. The wheel is built only if the queue spills.
    /// Its slots grow on first use, and a slot that empties keeps a
    /// buffer of up to 256 entries for reuse and frees a larger one (see
    /// the module docs).
    ///
    /// # Examples
    ///
    /// ```
    /// use microfaas_sim::{EventQueue, SimTime};
    ///
    /// let mut q = EventQueue::with_capacity(128);
    /// q.schedule(SimTime::from_millis(1), "ready");
    /// assert_eq!(q.len(), 1);
    /// ```
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = Self::with_levels(DEFAULT_LEVELS);
        q.reserve(capacity);
        q
    }

    /// Creates an empty queue with an explicit wheel depth — the
    /// granularity knob. Each level resolves six bits of the microsecond
    /// timestamp, so `levels` levels give a horizon of `2^(6·levels)` µs
    /// past the current time before events spill to the overflow heap
    /// (which stays correct but costs O(log n) per far-future event).
    /// The default, [`DEFAULT_LEVELS`] = 6, spans ≈ 19.1 simulated hours.
    /// The wheel itself is built only when more than 32 events are
    /// pending at once.
    ///
    /// Shallower wheels save a little memory for very short simulations;
    /// deeper wheels keep multi-day horizons entirely O(1).
    ///
    /// # Panics
    ///
    /// Panics if `levels` is 0 or greater than [`MAX_LEVELS`].
    ///
    /// # Examples
    ///
    /// ```
    /// use microfaas_sim::{EventQueue, SimDuration, SimTime};
    ///
    /// // A 2-level wheel spans 2^12 µs; this event lands in overflow
    /// // first, then migrates into the wheel — delivery is unchanged.
    /// let mut q = EventQueue::with_levels(2);
    /// q.schedule(SimTime::from_secs(60), "far");
    /// assert_eq!(q.pop(), Some((SimTime::from_secs(60), "far")));
    /// ```
    pub fn with_levels(levels: u32) -> Self {
        assert!(
            (1..=MAX_LEVELS).contains(&levels),
            "wheel depth must be between 1 and {MAX_LEVELS} levels, got {levels}"
        );
        EventQueue {
            flat: Vec::new(),
            wheeled: false,
            slots: Vec::new(),
            occupied: Vec::new(),
            levels,
            span: 1u64 << (SLOT_BITS * levels),
            overflow: BinaryHeap::new(),
            front: None,
            retired: Retired::default(),
            tombstones: 0,
            stored: 0,
            anchor: 0,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Number of wheel levels (see [`Self::with_levels`]).
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// How far past the current time an event can be scheduled before it
    /// spills to the overflow heap: `2^(6·levels)` µs.
    pub fn horizon(&self) -> SimDuration {
        SimDuration::from_micros(self.span)
    }

    /// The current simulated time — the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Self::now`]).
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < now {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        if seq.is_multiple_of(64) {
            self.retired.grow();
        }
        let entry = Entry {
            time: at,
            seq,
            event,
        };
        if !self.wheeled {
            self.flat.push(entry);
            self.stored += 1;
            if self.stored > FLAT_LIMIT {
                self.spill();
            }
            return EventId::new(seq);
        }
        match &self.front {
            // Strictly earlier than the buffered minimum (a time tie
            // loses: the buffered entry has the lower sequence number):
            // displace it into the wheel. Its timestamp is at or past
            // the anchor, so it always fits. The displaced entry held
            // the global minimum, so among pending events that share
            // its timestamp it has the lowest sequence number — it must
            // re-enter its slot at the *front*, ahead of any same-time
            // entry already queued there, to keep FIFO tie order.
            Some(min) if at < min.time => {
                let displaced = self.front.replace(entry).expect("front was just matched");
                self.place_displaced(displaced);
            }
            Some(_) => self.place(entry),
            // Nothing pending at all: the new event is trivially the
            // minimum. (With a non-empty wheel we cannot know the
            // minimum without cascading, so the entry goes to a slot.)
            None if self.stored == 0 => self.front = Some(entry),
            None => self.place(entry),
        }
        self.stored += 1;
        EventId::new(seq)
    }

    /// Schedules `event` after `delay` from the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.schedule(self.now + delay, event)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event had
    /// not yet fired or been cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let seq = id.seq();
        if seq >= self.next_seq || !self.retired.insert(seq) {
            return false;
        }
        self.tombstones += 1;
        true
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.wheeled {
            return self.pop_flat();
        }
        loop {
            // The front buffer, when occupied, holds the global minimum.
            if let Some(entry) = self.front.take() {
                self.stored -= 1;
                if self.tombstones != 0 && self.retired.contains(entry.seq) {
                    self.tombstones -= 1;
                    continue;
                }
                self.retire(entry.seq);
                self.now = entry.time;
                return Some((entry.time, entry.event));
            }
            if self.stored == 0 {
                // Back to flat mode; the next spill re-anchors the
                // (empty) wheel at the clock.
                self.wheeled = false;
                return None;
            }
            if self.occupied[0] != 0 {
                let slot = self.occupied[0].trailing_zeros() as usize;
                let queue = &mut self.slots[slot];
                let entry = queue.pop_front().expect("occupied level-0 slot is empty");
                if queue.is_empty() {
                    self.occupied[0] &= !(1u64 << slot);
                    trim(queue);
                }
                self.stored -= 1;
                // Fast path: most runs cancel nothing (or have already
                // drained their cancellations), so skip the bitmap probe
                // entirely when no tombstones are outstanding.
                if self.tombstones != 0 && self.retired.contains(entry.seq) {
                    self.tombstones -= 1;
                    continue;
                }
                self.retire(entry.seq);
                self.now = entry.time;
                self.anchor = entry.time.as_micros();
                return Some((entry.time, entry.event));
            }
            self.cascade();
        }
    }

    /// Flat mode's `pop`. The list is in sequence order, so the first
    /// entry with the earliest time is the `(time, seq)` minimum; it is
    /// removed in place, keeping that order. A tombstoned minimum is
    /// reclaimed and the scan repeats.
    fn pop_flat(&mut self) -> Option<(SimTime, E)> {
        loop {
            let (mut min, mut min_time) = (0, self.flat.first()?.time);
            for (i, entry) in self.flat.iter().enumerate().skip(1) {
                if entry.time < min_time {
                    (min, min_time) = (i, entry.time);
                }
            }
            let entry = self.flat.remove(min);
            self.stored -= 1;
            if self.tombstones != 0 && self.retired.contains(entry.seq) {
                self.tombstones -= 1;
                continue;
            }
            self.retire(entry.seq);
            self.now = entry.time;
            return Some((entry.time, entry.event));
        }
    }

    /// Moves flat mode's entries into the timing wheel, building the
    /// wheel on first use. Called by `schedule` once the flat list holds
    /// more than [`FLAT_LIMIT`] entries.
    #[cold]
    fn spill(&mut self) {
        if self.tombstones != 0 {
            // Every tombstone is in the flat list; reclaim them before
            // deciding whether the live events still need the wheel.
            let retired = &self.retired;
            self.flat.retain(|entry| !retired.contains(entry.seq));
            self.stored = self.flat.len();
            self.tombstones = 0;
            if self.stored <= FLAT_LIMIT {
                return;
            }
        }
        self.enter_wheel_mode();
        // Placing in sequence order keeps same-time entries in sequence
        // order within their slot, as `place` requires.
        let mut flat = std::mem::take(&mut self.flat);
        for entry in flat.drain(..) {
            self.place(entry);
        }
        // Keep the (empty) buffer for the return to flat mode.
        self.flat = flat;
    }

    /// Switches to wheel mode with the wheel anchored at the clock,
    /// building the slots and occupancy bitmaps if this queue has never
    /// spilled before.
    fn enter_wheel_mode(&mut self) {
        if self.slots.is_empty() {
            self.slots
                .resize_with(self.levels as usize * SLOTS, VecDeque::new);
            self.occupied = vec![0; self.levels as usize];
        }
        self.anchor = self.now.as_micros();
        self.wheeled = true;
    }

    /// Returns the timestamp of the next (non-cancelled) event without
    /// removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if !self.wheeled {
            return self
                .flat
                .iter()
                .filter(|entry| self.tombstones == 0 || !self.retired.contains(entry.seq))
                .map(|entry| entry.time)
                .min();
        }
        // The front buffer holds the minimum when present; reclaim it if
        // it was cancelled (mirroring the old heap's peek, which
        // discarded cancelled heads) and fall through to the wheel.
        if let Some(entry) = &self.front {
            if self.tombstones == 0 || !self.retired.contains(entry.seq) {
                return Some(entry.time);
            }
            self.front = None;
            self.stored -= 1;
            self.tombstones -= 1;
        }
        // Level 0: reclaim tombstoned slot heads (cheap, and mirrors the
        // old heap's peek, which discarded cancelled heads), then report
        // the earliest occupied slot. Level-0 slots hold a single
        // timestamp each, so the lowest occupied bit is the minimum.
        while self.occupied[0] != 0 {
            let slot = self.occupied[0].trailing_zeros() as usize;
            let Some(front) = self.slots[slot].front() else {
                self.occupied[0] &= !(1u64 << slot);
                continue;
            };
            let (seq, time) = (front.seq, front.time);
            if self.tombstones != 0 && self.retired.contains(seq) {
                self.slots[slot].pop_front();
                self.stored -= 1;
                self.tombstones -= 1;
                if self.slots[slot].is_empty() {
                    self.occupied[0] &= !(1u64 << slot);
                    trim(&mut self.slots[slot]);
                }
                continue;
            }
            return Some(time);
        }
        // Higher levels: scan the earliest occupied slot for its minimum
        // live time. No cascading here — peeking must not advance the
        // wheel anchor, or a later legal `schedule(at ≥ now)` could fall
        // behind it.
        for level in 1..self.levels as usize {
            let mut occ = self.occupied[level];
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= !(1u64 << slot);
                let mut best: Option<SimTime> = None;
                for entry in &self.slots[level * SLOTS + slot] {
                    if self.tombstones != 0 && self.retired.contains(entry.seq) {
                        continue;
                    }
                    if best.is_none_or(|b| entry.time < b) {
                        best = Some(entry.time);
                    }
                }
                if best.is_some() {
                    return best;
                }
                // Slot is entirely tombstones; `pop` reclaims it later.
            }
        }
        // Overflow: discard cancelled heads exactly like the old heap.
        while let Some(head) = self.overflow.peek() {
            let (seq, time) = (head.seq, head.time);
            if self.tombstones != 0 && self.retired.contains(seq) {
                self.overflow.pop();
                self.stored -= 1;
                self.tombstones -= 1;
                continue;
            }
            return Some(time);
        }
        None
    }

    /// Reserves room for at least `additional` more pending events:
    /// pre-sizes the retirement bitmap and the flat list (see
    /// [`Self::with_capacity`]).
    pub fn reserve(&mut self, additional: usize) {
        self.retired.reserve(self.next_seq, additional);
        let target_flat = (self.flat.len() + additional).min(FLAT_LIMIT + 1);
        self.flat
            .reserve(target_flat.saturating_sub(self.flat.len()));
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.stored - self.tombstones
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts an entry into the wheel slot for its timestamp, or into
    /// the overflow heap when it lies past the horizon. Does not touch
    /// `stored`; callers account for it.
    ///
    /// Slot queues stay sequence-ordered within each timestamp because
    /// every caller appends in ascending sequence order: `schedule`
    /// only places fresh (highest-seq) entries here, cascades re-place
    /// a drained slot in its preserved order, overflow refills pop the
    /// heap in `(time, seq)` order, and a spill places the flat list,
    /// which is in sequence order. The one entry that may re-enter
    /// *behind* same-time events already queued — a displaced front
    /// buffer — goes through [`Self::place_displaced`] instead.
    #[inline]
    fn place(&mut self, entry: Entry<E>) {
        let t = entry.time.as_micros();
        debug_assert!(t >= self.anchor, "entry behind the wheel anchor");
        let diff = t ^ self.anchor;
        if diff >= self.span {
            self.overflow.push(entry);
            return;
        }
        let (level, slot) = self.level_and_slot(t, diff);
        self.slots[level * SLOTS + slot].push_back(entry);
        self.occupied[level] |= 1u64 << slot;
    }

    /// Re-inserts a displaced front-buffer entry. It was the global
    /// minimum, so its sequence number is the lowest among pending
    /// events sharing its timestamp — it must sit *ahead* of any
    /// same-time entry already in the slot, or a later pop (or a
    /// cascade min-scan, which takes the first entry at the minimum
    /// timestamp) would break FIFO tie order.
    fn place_displaced(&mut self, entry: Entry<E>) {
        let t = entry.time.as_micros();
        debug_assert!(t >= self.anchor, "entry behind the wheel anchor");
        let diff = t ^ self.anchor;
        if diff >= self.span {
            // The overflow heap orders by `(time, seq)` on its own.
            self.overflow.push(entry);
            return;
        }
        let (level, slot) = self.level_and_slot(t, diff);
        self.slots[level * SLOTS + slot].push_front(entry);
        self.occupied[level] |= 1u64 << slot;
    }

    /// Maps a timestamp to its wheel coordinates. Highest differing bit
    /// picks the level; the timestamp's digit at that level picks the
    /// slot. `diff == 0` (scheduling exactly at the anchor) lands in
    /// level 0's current slot.
    #[inline]
    fn level_and_slot(&self, t: u64, diff: u64) -> (usize, usize) {
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
        };
        let slot = ((t >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        (level, slot)
    }

    /// Advances the wheel anchor to the next occupied window and
    /// redistributes its entries into finer levels. Called by `pop` when
    /// level 0 is empty but events remain. Each entry moves at most
    /// `levels − 1` times over its lifetime, so `pop` stays O(1)
    /// amortized.
    fn cascade(&mut self) {
        for level in 1..self.levels as usize {
            if self.occupied[level] == 0 {
                continue;
            }
            let slot = self.occupied[level].trailing_zeros() as usize;
            self.occupied[level] &= !(1u64 << slot);
            let idx = level * SLOTS + slot;
            if self.slots[idx].len() == 1 {
                // Sparse-queue fast path: a lone entry in the earliest
                // occupied window IS the global minimum, so it goes
                // straight to the front buffer without the drain/min-scan
                // machinery below. Most of a bursty run's cascades take
                // this path (82% of the flash-crowd day's). The slot needs
                // no trim: slots above level 0 only fill or drain whole, so
                // one holding a single entry never outgrew `SLOT_KEEP`.
                debug_assert!(self.slots[idx].capacity() <= SLOT_KEEP);
                let entry = self.slots[idx].pop_front().expect("occupied slot is empty");
                self.anchor = entry.time.as_micros();
                if self.tombstones != 0 && self.retired.contains(entry.seq) {
                    self.tombstones -= 1;
                    self.stored -= 1;
                } else {
                    self.front = Some(entry);
                }
                return;
            }
            let mut drained = std::mem::take(&mut self.slots[idx]);
            // Jump the anchor to the earliest timestamp in the drained
            // slot, not merely the window start: a lone far-future timer
            // then lands directly in level 0 instead of cascading once
            // per level, which keeps sparse queues (a handful of
            // in-flight timers, the common cluster-sim shape) cheap.
            // This is sound because the drained slot is the earliest
            // occupied window, so its minimum bounds every pending
            // event; and only bits below this level's range change, so
            // every other slot's (level, digit) assignment — and the
            // overflow horizon, which lives in bits ≥ 6·levels — is
            // unaffected.
            self.anchor = drained
                .iter()
                .map(|entry| entry.time.as_micros())
                .min()
                .expect("occupied slot is empty");
            // The first live entry at the minimum timestamp is the global
            // minimum (this was the earliest occupied window, and equal
            // times sit in sequence order), so it can go straight to the
            // front buffer — empty here, since only `pop` cascades and it
            // drains the buffer first — rather than round-tripping
            // through a level-0 slot.
            let mut front_filled = false;
            for entry in drained.drain(..) {
                // Reclaim tombstones here instead of re-placing them, so a
                // cancelled event is touched at most once after its
                // cancellation — this is what keeps cancel-heavy runs
                // (exec + cancelled timeout) fast.
                if self.tombstones != 0 && self.retired.contains(entry.seq) {
                    self.tombstones -= 1;
                    self.stored -= 1;
                    continue;
                }
                if !front_filled && entry.time.as_micros() == self.anchor {
                    self.front = Some(entry);
                    front_filled = true;
                    continue;
                }
                self.place(entry);
            }
            // Give the (empty) buffer back for the slot's next fill, or
            // free it if it is larger than a slot keeps.
            if drained.capacity() <= SLOT_KEEP {
                self.slots[idx] = drained;
            }
            return;
        }
        // The wheel is empty: jump the anchor to the earliest overflow
        // event and migrate everything that now fits the horizon. Heap
        // order is (time, seq), so equal-timestamp entries arrive in
        // sequence order and FIFO tie-breaking is preserved.
        let head = self
            .overflow
            .peek()
            .expect("events stored but wheel and overflow are both empty");
        self.anchor = head.time.as_micros();
        while let Some(head) = self.overflow.peek() {
            if head.time.as_micros() ^ self.anchor >= self.span {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry vanished");
            if self.tombstones != 0 && self.retired.contains(entry.seq) {
                self.tombstones -= 1;
                self.stored -= 1;
                continue;
            }
            self.place(entry);
        }
    }

    /// Marks a delivered event as retired, so a later `cancel` of its
    /// id is refused.
    #[inline]
    fn retire(&mut self, seq: u64) {
        let fresh = self.retired.insert(seq);
        debug_assert!(fresh, "delivered a retired event");
    }
}

/// Frees an emptied slot's buffer if it has room for more than
/// [`SLOT_KEEP`] entries.
#[inline]
fn trim<E>(slot: &mut VecDeque<Entry<E>>) {
    if slot.capacity() > SLOT_KEEP {
        *slot = VecDeque::new();
    }
}

/// The set of retired sequence numbers (fired or cancelled), one bit per
/// scheduled event. Words whose 64 events are all retired are dropped
/// from the front, so memory follows the span of sequence numbers still
/// pending, not every event ever scheduled.
#[derive(Debug, Default)]
struct Retired {
    /// Word `i` covers sequence numbers `64 · (base + i) ..`.
    words: Vec<u64>,
    /// Words dropped from the front: every sequence number below
    /// `64 · base` is retired.
    base: u64,
    /// Leading entries of `words` known to be all ones (a full word
    /// never clears).
    full: usize,
}

impl Retired {
    /// Adds the word for the next 64 sequence numbers; `schedule` calls
    /// this when it issues a multiple of 64. Drops the full prefix once
    /// it is at least half the bitmap, so each word is moved O(1) times.
    fn grow(&mut self) {
        while self.words.get(self.full) == Some(&u64::MAX) {
            self.full += 1;
        }
        if self.full >= 64 && 2 * self.full >= self.words.len() {
            self.words.drain(..self.full);
            self.base += self.full as u64;
            self.full = 0;
        }
        self.words.push(0);
    }

    /// Pre-sizes the bitmap for sequence numbers up to
    /// `next_seq + additional`.
    fn reserve(&mut self, next_seq: u64, additional: usize) {
        let words = (next_seq + additional as u64).div_ceil(64) - self.base;
        self.words
            .reserve((words as usize).saturating_sub(self.words.len()));
    }

    #[inline]
    fn contains(&self, seq: u64) -> bool {
        match (seq / 64).checked_sub(self.base) {
            Some(word) => self.words[word as usize] & (1u64 << (seq % 64)) != 0,
            None => true,
        }
    }

    /// Adds `seq`; returns `false` if it was already retired. `seq` must
    /// have been issued.
    #[inline]
    fn insert(&mut self, seq: u64) -> bool {
        let Some(word) = (seq / 64).checked_sub(self.base) else {
            return false;
        };
        let word = &mut self.words[word as usize];
        let mask = 1u64 << (seq % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same empty queue twice: once in flat mode, once already in
    /// wheel mode, so each behavioural test below drives both paths
    /// however few events it schedules.
    fn both_modes<E>(levels: u32) -> [EventQueue<E>; 2] {
        let flat = EventQueue::with_levels(levels);
        let mut wheeled = EventQueue::with_levels(levels);
        wheeled.enter_wheel_mode();
        [flat, wheeled]
    }

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in both_modes(DEFAULT_LEVELS) {
            q.schedule(SimTime::from_millis(30), 3);
            q.schedule(SimTime::from_millis(10), 1);
            q.schedule(SimTime::from_millis(20), 2);
            assert_eq!(drain(&mut q), vec![1, 2, 3]);
        }
    }

    #[test]
    fn ties_break_fifo() {
        for mut q in both_modes(DEFAULT_LEVELS) {
            let t = SimTime::from_millis(5);
            for i in 0..10 {
                q.schedule(t, i);
            }
            assert_eq!(drain(&mut q), (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn cancel_prevents_delivery() {
        for mut q in both_modes(DEFAULT_LEVELS) {
            q.schedule(SimTime::from_millis(1), "keep");
            let drop = q.schedule(SimTime::from_millis(2), "drop");
            assert!(q.cancel(drop));
            assert!(!q.cancel(drop), "double cancel should report false");
            assert_eq!(drain(&mut q), vec!["keep"]);
            assert!(!q.cancel(drop), "cancel after reclaim should report false");
        }
    }

    #[test]
    fn cancelling_a_fired_event_is_refused() {
        for mut q in both_modes(DEFAULT_LEVELS) {
            let a = q.schedule(SimTime::from_millis(1), "a");
            assert_eq!(q.pop(), Some((SimTime::from_millis(1), "a")));
            assert!(!q.cancel(a), "the event already fired");
            q.schedule(SimTime::from_millis(2), "b");
            assert!(!q.is_empty());
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop(), Some((SimTime::from_millis(2), "b")));
            assert_eq!(q.len(), 0);
            assert_eq!(q.tombstones, 0, "nothing left to reclaim");
        }
    }

    #[test]
    fn len_accounts_for_cancellations() {
        for mut q in both_modes(DEFAULT_LEVELS) {
            q.schedule(SimTime::from_millis(1), ());
            let id = q.schedule(SimTime::from_millis(2), ());
            q.cancel(id);
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
            q.pop();
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn peek_skips_cancelled_head() {
        for mut q in both_modes(DEFAULT_LEVELS) {
            let head = q.schedule(SimTime::from_millis(1), "a");
            q.schedule(SimTime::from_millis(2), "b");
            q.cancel(head);
            assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
            assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        }
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(64);
        q.reserve(16);
        q.schedule(SimTime::from_millis(1), "keep");
        let drop = q.schedule(SimTime::from_millis(2), "drop");
        q.cancel(drop);
        assert_eq!(drain(&mut q), vec!["keep"]);
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "first");
        q.pop();
        q.schedule_in(SimDuration::from_secs(5), "second");
        assert_eq!(q.pop().map(|(t, _)| t), Some(SimTime::from_secs(15)));
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        // Beyond the 2^36 µs default horizon: in wheel mode it lives in
        // the overflow heap until the wheel catches up.
        for mut q in both_modes(DEFAULT_LEVELS) {
            let far = SimTime::from_micros(1 << 40);
            q.schedule(far, "far");
            q.schedule(SimTime::from_millis(1), "near");
            assert_eq!(q.len(), 2);
            assert_eq!(q.pop(), Some((SimTime::from_millis(1), "near")));
            assert_eq!(q.peek_time(), Some(far));
            assert_eq!(q.pop(), Some((far, "far")));
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn overflow_ties_still_break_fifo() {
        for mut q in both_modes(2) {
            let t = SimTime::from_secs(3600);
            for i in 0..8 {
                q.schedule(t, i);
            }
            // Interleave a near event so the overflow drain happens
            // mid-run.
            q.schedule(SimTime::from_millis(1), 100);
            assert_eq!(q.pop(), Some((SimTime::from_millis(1), 100)));
            assert_eq!(drain(&mut q), (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn schedule_after_empty_pop_reanchors() {
        for mut q in both_modes(DEFAULT_LEVELS) {
            q.schedule(SimTime::from_secs(7), "first");
            q.pop();
            assert!(q.pop().is_none());
            // The queue must accept anything at or after the clock.
            q.schedule(SimTime::from_secs(7), "again");
            assert_eq!(q.pop(), Some((SimTime::from_secs(7), "again")));
        }
    }

    #[test]
    fn peek_does_not_disturb_schedulability() {
        for mut q in both_modes(DEFAULT_LEVELS) {
            q.schedule(SimTime::from_secs(2), "first");
            q.pop();
            q.schedule(SimTime::from_secs(3600), "later");
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(3600)));
            // Peeking must not advance the wheel: scheduling between now
            // and the peeked time stays legal and is delivered first.
            q.schedule(SimTime::from_secs(10), "soon");
            assert_eq!(q.pop(), Some((SimTime::from_secs(10), "soon")));
            assert_eq!(q.pop(), Some((SimTime::from_secs(3600), "later")));
        }
    }

    #[test]
    fn deep_and_shallow_wheels_agree() {
        for levels in [1, 2, 6, MAX_LEVELS] {
            for mut q in both_modes(levels) {
                assert_eq!(q.levels(), levels);
                assert_eq!(q.horizon().as_micros(), 1u64 << (6 * levels));
                let times = [0u64, 63, 64, 4095, 4096, 1 << 20, (1 << 36) + 5];
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(SimTime::from_micros(t), i);
                }
                assert_eq!(drain(&mut q), (0..times.len()).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn a_sparse_queue_never_builds_its_wheel() {
        // Up to 32 pending events, with cancels, same-time ties and
        // far-future timers: everything stays in the flat list.
        let mut q = EventQueue::with_capacity(8);
        let mut next = 0u64;
        for _ in 0..200 {
            while q.len() < FLAT_LIMIT {
                let delay = if next.is_multiple_of(9) {
                    SimDuration::from_secs(1 << 20)
                } else {
                    SimDuration::from_micros(next % 7 * 1000)
                };
                let id = q.schedule_in(delay, next);
                if next.is_multiple_of(5) {
                    q.cancel(id);
                }
                next += 1;
            }
            while q.len() > FLAT_LIMIT / 2 {
                q.pop();
            }
        }
        assert!(!q.wheeled);
        assert!(q.slots.is_empty() && q.occupied.is_empty());
        assert_eq!(q.overflow.capacity(), 0);
    }

    #[test]
    fn the_thirty_third_event_spills_and_an_empty_pop_returns_to_flat() {
        let mut q = EventQueue::new();
        let at = |i: u64| SimTime::from_micros(if i == 0 { 10 } else { 1000 - i % 4 });
        let ids: Vec<EventId> = (0..FLAT_LIMIT as u64)
            .map(|i| q.schedule(at(i), i))
            .collect();
        assert_eq!(q.pop(), Some((at(0), 0)));
        // A cancelled entry makes room: the spill reclaims it and stays
        // flat.
        assert!(q.cancel(ids[3]));
        q.schedule(SimTime::from_micros(500), 100);
        q.schedule(SimTime::from_micros(500), 101);
        assert!(!q.wheeled && q.slots.is_empty());
        assert_eq!(q.len(), FLAT_LIMIT);
        q.schedule(SimTime::from_micros(500), 102);
        assert!(q.wheeled, "33 live events spill");
        assert_eq!(q.slots.len(), DEFAULT_LEVELS as usize * SLOTS);
        // Delivery follows `(time, seq)` across the spill.
        let mut want: Vec<(SimTime, u64)> = (1..FLAT_LIMIT as u64)
            .filter(|&i| i != 3)
            .map(|i| (at(i), i))
            .chain((100..103).map(|i| (SimTime::from_micros(500), i)))
            .collect();
        want.sort_unstable();
        let got: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got, want);
        assert!(!q.wheeled, "the empty pop returns to flat mode");
        assert!(!q.slots.is_empty(), "the built wheel is kept for reuse");
        assert!(!q.cancel(ids[0]), "fired before the spill");
        assert!(!q.cancel(ids[1]), "fired after the spill");
    }

    #[test]
    fn retired_bits_follow_the_pending_span() {
        // A long stream with a handful of events pending at a time, a
        // third of them cancelled, crossing the flat/wheel boundary:
        // the bitmap keeps only the words still covering pending
        // events, and ids from long ago are still refused.
        let mut q = EventQueue::new();
        let first = q.schedule(SimTime::ZERO, u64::MAX);
        for i in 0..200_000u64 {
            q.schedule_in(SimDuration::from_micros(i % 50), i);
            if i.is_multiple_of(3) {
                let id = q.schedule_in(SimDuration::from_micros(10), i);
                assert!(q.cancel(id));
            }
            if q.len() > 40 {
                while q.len() > 4 {
                    q.pop();
                }
            }
        }
        assert!(q.retired.base > 0, "no word was ever dropped");
        assert!(
            q.retired.words.len() <= 256,
            "{} words",
            q.retired.words.len()
        );
        assert!(!q.cancel(first));
        while q.pop().is_some() {}
        assert_eq!((q.len(), q.tombstones), (0, 0));
    }

    #[test]
    fn drained_slots_keep_at_most_the_idle_allowance() {
        // Each wave parks 2,000 events in every level-3 slot the anchor
        // can reach (cascading through levels 2 to 0 on their way out)
        // and a same-instant burst of 5,000 in one level-0 slot, then
        // drains the queue. Keeping every buffer would leave about 2,048
        // entries of room per level-3 slot and 8,192 in the burst's.
        fn wave(q: &mut EventQueue<u64>) {
            let base = ((q.now().as_micros() >> 24) + 1) << 24;
            q.schedule(SimTime::from_micros(base), 0);
            q.pop();
            for i in 0..5_000 {
                q.schedule(SimTime::from_micros(base + 7), i);
            }
            for slot in 1..SLOTS as u64 {
                for i in 0..2_000 {
                    q.schedule(SimTime::from_micros(base + (slot << 18) + i * 131), i);
                }
            }
            assert!(q.wheeled);
            assert_eq!(q.len(), 5_000 + 63 * 2_000);
            while q.pop().is_some() {}
        }
        let retained =
            |q: &EventQueue<u64>| -> usize { q.slots.iter().map(VecDeque::capacity).sum() };
        let mut q = EventQueue::new();
        wave(&mut q);
        for (i, slot) in q.slots.iter().enumerate() {
            assert!(
                slot.capacity() <= SLOT_KEEP,
                "slot {i} kept {}",
                slot.capacity()
            );
        }
        let first = retained(&q);
        assert!(first <= q.slots.len() * SLOT_KEEP, "{first} entries kept");
        wave(&mut q);
        assert!(
            retained(&q) <= first,
            "{} after the second wave, {first} after the first",
            retained(&q)
        );
    }

    #[test]
    #[should_panic(expected = "wheel depth")]
    fn zero_level_wheel_is_rejected() {
        let _ = EventQueue::<()>::with_levels(0);
    }
}
