//! Equivalence of the GPIO bank's running power-on counters against a
//! naive per-worker tally, over random actuation sequences.

use microfaas_hw::gpio::{PowerAction, PowerController};
use microfaas_sim::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// Any interleaving of `On`/`Off` presses at non-decreasing times
    /// leaves `power_on_count` and `power_cycles` equal to a count kept
    /// beside the controller, and every press takes effect one debounce
    /// later.
    #[test]
    fn counters_match_a_naive_tally(
        workers in 1usize..=64,
        presses in prop::collection::vec(
            (any::<usize>(), any::<bool>(), 0u64..5_000_000),
            0..400,
        ),
    ) {
        let mut gpio = PowerController::new(workers);
        let mut naive = vec![0u64; workers];
        let mut now = SimTime::ZERO;
        for &(pin, on, gap_us) in &presses {
            let worker = pin % workers;
            let action = if on { PowerAction::On } else { PowerAction::Off };
            now += SimDuration::from_micros(gap_us);
            prop_assert_eq!(gpio.actuate(now, worker, action), now + gpio.debounce());
            if on {
                naive[worker] += 1;
            }
        }
        for (worker, &count) in naive.iter().enumerate() {
            prop_assert_eq!(gpio.power_on_count(worker), count);
        }
        prop_assert_eq!(gpio.power_cycles(), naive.iter().sum::<u64>());
    }
}
