//! Differential test: [`EventQueue`] — a flat list while at most 32
//! events are pending, a six-level hierarchical timing wheel beyond
//! that — against a straightforward reference model (a list of every
//! event ever scheduled with its state). Random interleavings of
//! schedule / pop / cancel — including same-tick ties, delays spread
//! log-uniformly over every wheel level, delays past the wheel's
//! `2^36` µs horizon (which land in the overflow heap and migrate back
//! as time approaches them), and bursts and drains that carry the
//! queue across the flat/wheel boundary in both directions — must
//! produce the exact pop order, cancel outcomes and live counts the
//! reference produces.
//!
//! A 1M-event smoke test then pins the streaming property: pushing a
//! million events through the wheel in waves reuses the same slots, so
//! live occupancy (and therefore memory) stays bounded by the wave
//! size, not the event count.

use microfaas_sim::queue::EventQueue;
use microfaas_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// One step of the differential drive, with knobs chosen so failures
/// stay readable.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + delay_us`. Zero delays create same-tick ties;
    /// delays of `2^36` µs or more land in the overflow heap.
    Schedule { delay_us: u64 },
    /// Schedule one event per delay, back to back: enough to push a
    /// flat queue past 32 pending events in one op.
    Burst { delays_us: Vec<u64> },
    /// Pop the earliest live event from both sides and compare. Does
    /// nothing when no event is live, so only `Drain` pops an empty
    /// queue and a queue that spilled keeps its wheel until then.
    Pop,
    /// Pop until no event is live, without the empty pop: a queue that
    /// spilled stays on its wheel, and with no tombstone left the next
    /// schedule fills the wheel's front buffer.
    PopAll,
    /// Pop until the reference is empty, then pop once more: the empty
    /// pop returns the queue to flat mode.
    Drain,
    /// Cancel the `k`-th issued id (mod the issued count), whatever its
    /// state: live, already cancelled, or already fired.
    Cancel { k: usize },
}

/// Delays spread log-uniformly over `[2^from, 2^to)` µs: each power of
/// two is equally likely, so every wheel level (six bits of the
/// timestamp each) gets its share.
fn log_uniform(from: u32, to: u32) -> impl Strategy<Value = u64> {
    (from..to, any::<u64>()).prop_map(|(bits, r)| (1u64 << bits) | (r & ((1u64 << bits) - 1)))
}

/// Ties, delays over every level of the wheel's `2^36` µs horizon, and
/// far-future delays from `2^36` to `2^40` µs that start in the
/// overflow heap.
fn delay_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..4, log_uniform(0, 36), log_uniform(36, 40)]
}

/// Two to five schedules a few microseconds apart: same-time groups
/// with an earlier event behind them. Into an empty wheel, the first
/// lands in the front buffer and a later, earlier one displaces it
/// back into the slot it shares with its ties.
fn tie_burst_strategy() -> impl Strategy<Value = Op> {
    prop::collection::vec(0u64..4, 2..6).prop_map(|delays_us| Op::Burst { delays_us })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Dense same-tick ties.
        (0u64..4).prop_map(|delay_us| Op::Schedule { delay_us }),
        tie_burst_strategy(),
        // Within the horizon, over every level.
        log_uniform(0, 36).prop_map(|delay_us| Op::Schedule { delay_us }),
        // Past the horizon.
        log_uniform(36, 40).prop_map(|delay_us| Op::Schedule { delay_us }),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::PopAll),
        (0usize..64).prop_map(|k| Op::Cancel { k }),
    ]
}

/// Far-future heavy: three of every nine ops schedule past the
/// horizon, against two nearer schedules, so the overflow heap holds
/// many entries at once.
fn overflow_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        log_uniform(36, 40).prop_map(|delay_us| Op::Schedule { delay_us }),
        log_uniform(36, 40).prop_map(|delay_us| Op::Schedule { delay_us }),
        log_uniform(36, 40).prop_map(|delay_us| Op::Schedule { delay_us }),
        log_uniform(0, 36).prop_map(|delay_us| Op::Schedule { delay_us }),
        tie_burst_strategy(),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::PopAll),
        (0usize..64).prop_map(|k| Op::Cancel { k }),
    ]
}

/// An opening burst of 33–47 events, which spills the queue into its
/// wheel, followed by 0–95 pops. A burst holds at most 47 events, so
/// about half the drives start from an emptied wheel, where the next
/// schedule fills the front buffer, and the rest with part of the
/// burst still standing. `Pop` never pops an empty queue, so the drive runs
/// on the wheel until its final drain.
fn spill_strategy() -> impl Strategy<Value = Vec<Op>> {
    (prop::collection::vec(delay_strategy(), 33..48), 0usize..96).prop_map(|(delays_us, pops)| {
        std::iter::once(Op::Burst { delays_us })
            .chain(std::iter::repeat_n(Op::Pop, pops))
            .collect()
    })
}

/// Phases that cross the 32-event boundary both ways: bursts of 20–47
/// schedules, pop runs and full drains, with cancels between.
fn boundary_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec(delay_strategy(), 20..48)
            .prop_map(|delays_us| Op::Burst { delays_us }),
        delay_strategy().prop_map(|delay_us| Op::Schedule { delay_us }),
        tie_burst_strategy(),
        Just(Op::Pop),
        Just(Op::PopAll),
        Just(Op::Drain),
        (0usize..256).prop_map(|k| Op::Cancel { k }),
        (0usize..256).prop_map(|k| Op::Cancel { k }),
    ]
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Live,
    Popped,
    Cancelled,
}

/// The reference: every scheduled event kept in a Vec, popped by a
/// linear scan for the minimum `(time, seq)`. Obviously correct,
/// obviously slow — exactly what a reference model should be.
///
/// Cancelling succeeds exactly once, and only while the event is
/// pending: cancelling an event that already fired or was already
/// cancelled returns `false` and changes nothing.
#[derive(Default)]
struct ReferenceQueue {
    /// `(time_us, seq, state)`
    events: Vec<(u64, u64, State)>,
    now_us: u64,
}

impl ReferenceQueue {
    fn schedule(&mut self, at_us: u64) -> usize {
        assert!(at_us >= self.now_us, "reference never schedules backwards");
        let seq = self.events.len() as u64;
        self.events.push((at_us, seq, State::Live));
        self.events.len() - 1
    }

    fn cancel(&mut self, index: usize) -> bool {
        let live = self.events[index].2 == State::Live;
        if live {
            self.events[index].2 = State::Cancelled;
        }
        live
    }

    fn live(&self) -> impl Iterator<Item = &(u64, u64, State)> {
        self.events
            .iter()
            .filter(|&&(_, _, state)| state == State::Live)
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let &(time, seq, _) = self.live().min_by_key(|&&(time, seq, _)| (time, seq))?;
        self.events[seq as usize].2 = State::Popped;
        self.now_us = time;
        Some((time, seq))
    }

    fn len(&self) -> usize {
        self.live().count()
    }
}

/// Side-by-side state: the queue under test, the reference, and the
/// ids both sides handed out, index for index. The event payload is the
/// schedule ordinal, which is also the reference's index, so pop
/// equality checks both the timestamp *and* which event won a tie.
struct Drive {
    queue: EventQueue<u64>,
    reference: ReferenceQueue,
    ids: Vec<microfaas_sim::EventId>,
}

impl Drive {
    fn schedule(&mut self, delay_us: u64) {
        let at = self.queue.now() + SimDuration::from_micros(delay_us);
        let ordinal = self.ids.len() as u64;
        self.ids.push(self.queue.schedule(at, ordinal));
        self.reference.schedule(at.as_micros());
    }

    /// Pops both sides; returns whether an event came out.
    fn pop(&mut self) -> Result<bool, TestCaseError> {
        match (self.queue.pop(), self.reference.pop()) {
            (None, None) => Ok(false),
            (Some((at, ordinal)), Some((want_us, want_seq))) => {
                prop_assert_eq!(at.as_micros(), want_us, "pop time diverged");
                prop_assert_eq!(ordinal, want_seq, "same-tick tie order diverged");
                Ok(true)
            }
            (got, want) => Err(TestCaseError::fail(format!(
                "pop presence diverged: queue {got:?} vs reference {want:?}"
            ))),
        }
    }

    fn step(&mut self, op: &Op) -> Result<(), TestCaseError> {
        match op {
            Op::Schedule { delay_us } => self.schedule(*delay_us),
            Op::Burst { delays_us } => {
                for &delay_us in delays_us {
                    self.schedule(delay_us);
                }
            }
            Op::Pop => {
                if self.reference.len() != 0 {
                    self.pop()?;
                }
            }
            Op::PopAll => {
                while self.reference.len() != 0 {
                    self.pop()?;
                }
            }
            Op::Drain => {
                while self.pop()? {}
                prop_assert!(self.queue.is_empty());
            }
            Op::Cancel { k } => {
                if self.ids.is_empty() {
                    return Ok(());
                }
                let i = k % self.ids.len();
                let got = self.queue.cancel(self.ids[i]);
                let want = self.reference.cancel(i);
                prop_assert_eq!(got, want, "cancel outcome diverged for id {}", i);
            }
        }
        prop_assert_eq!(
            self.queue.len(),
            self.reference.len(),
            "live count diverged"
        );
        Ok(())
    }
}

/// Drives one op sequence through the queue and the reference side by
/// side, then drains both.
fn drive(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut drive = Drive {
        queue: EventQueue::new(),
        reference: ReferenceQueue::default(),
        ids: Vec::new(),
    };
    for op in ops {
        drive.step(op)?;
    }
    // Whatever survives must come out in identical order.
    drive.step(&Op::Drain)?;
    // Every id is now fired or cancelled: no cancel may succeed.
    for i in 0..drive.ids.len() {
        drive.step(&Op::Cancel { k: i })?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After an opening spill, every interleaving agrees with the
    /// reference: ties, every wheel level, and far-future events that
    /// wait in the overflow heap and migrate back through its refill.
    #[test]
    fn wheel_matches_reference(
        spill in spill_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..250),
    ) {
        drive(&[spill, ops].concat())?;
    }

    /// Mostly far-future traffic: the overflow heap holds many entries
    /// at once, so refills migrate several of them, some across a
    /// `2^36`-aligned boundary, while nearer events arrive in between.
    #[test]
    fn wheel_matches_reference_through_overflow(
        spill in spill_strategy(),
        ops in prop::collection::vec(overflow_op_strategy(), 1..250),
    ) {
        drive(&[spill, ops].concat())?;
    }

    /// Bursts and drains carry the queue from flat mode into the wheel
    /// and back again, with cancels landing while flat, after a spill
    /// and after the event fired, and far-future delays present at the
    /// moment of a spill.
    #[test]
    fn flat_and_wheel_agree_across_the_boundary(
        ops in prop::collection::vec(boundary_op_strategy(), 1..60),
    ) {
        drive(&ops)?;
    }
}

/// A million events in waves of 4096: the wheel recycles slots as time
/// advances, so live occupancy never exceeds the wave size and the
/// queue's stored backlog stays bounded — the property that lets the
/// streaming results path run 10M-job simulations in O(in-flight)
/// memory. Also exercises tombstone reclamation at volume: every third
/// event is cancelled instead of popped.
#[test]
fn million_events_stream_through_bounded_occupancy() {
    const TOTAL: u64 = 1_000_000;
    const WAVE: u64 = 4096;

    let mut queue: EventQueue<u64> = EventQueue::with_capacity(WAVE as usize);
    let mut scheduled = 0u64;
    let mut popped = 0u64;
    let mut cancelled = 0u64;
    let mut last = SimTime::ZERO;

    while popped + cancelled < TOTAL {
        while scheduled < TOTAL && queue.len() < WAVE as usize {
            // Pseudo-random in-wave spread from a fixed LCG so the test
            // is deterministic without an RNG dependency.
            let jitter = scheduled.wrapping_mul(6_364_136_223_846_793_005) >> 52;
            queue.schedule(queue.now() + SimDuration::from_micros(jitter), scheduled);
            scheduled += 1;
            if scheduled.is_multiple_of(3) {
                let at = queue.now() + SimDuration::from_micros(jitter + 1);
                let id = queue.schedule(at, u64::MAX);
                assert!(queue.cancel(id), "fresh event must cancel");
                cancelled += 1;
                scheduled += 1;
            }
        }
        // The wheel reports only live events, and the backlog can never
        // exceed what the wave loop admitted.
        assert!(
            queue.len() <= WAVE as usize,
            "live backlog exceeded the wave bound: {}",
            queue.len()
        );
        let (at, _) = queue.pop().expect("wave is non-empty");
        assert!(at >= last, "pops must be time-ordered");
        last = at;
        popped += 1;
    }

    while queue.pop().is_some() {
        popped += 1;
    }
    assert_eq!(popped + cancelled, scheduled);
    assert!(popped + cancelled >= TOTAL);
    assert!(queue.is_empty());
}
