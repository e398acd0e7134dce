//! How many times one 340-job paper replicate (Figs. 3–4: 17 functions
//! × 20 invocations) allocates, counted exactly by a global allocator
//! that counts every `alloc`, `alloc_zeroed` and `realloc` before handing
//! it to the system allocator. Nearly all of a replicate's allocations
//! are per-run construction, so state that a run builds but never reads
//! shows up here as a count that grew.
//!
//! The counts are exact for a given toolchain and do not depend on the
//! optimisation level. The file holds a single test because the counter
//! is process-wide: a second test running beside it would count into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use microfaas::config::WorkloadMix;
use microfaas::conventional::{run_conventional, ConventionalConfig};
use microfaas::micro::{run_microfaas, MicroFaasConfig};
use microfaas_workloads::FunctionId;

/// Allocation calls since the process started.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter has no effect on
// the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    black_box(f());
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn a_paper_replicate_allocates_at_most_its_pinned_count() {
    let mix = Arc::new(WorkloadMix::new(FunctionId::ALL.to_vec(), 20));
    let micro = MicroFaasConfig::paper_prototype(Arc::clone(&mix), 2022);
    let conventional = ConventionalConfig::paper_baseline(mix, 2022);
    // One run of each first, so nothing the process sets up once is
    // counted against a replicate.
    run_microfaas(&micro);
    run_conventional(&conventional);
    for seed in [2022, 7, 1] {
        let micro = MicroFaasConfig {
            seed,
            ..micro.clone()
        };
        let conventional = ConventionalConfig {
            seed,
            ..conventional.clone()
        };
        let counts = [
            allocations(|| run_microfaas(&micro)),
            allocations(|| run_conventional(&conventional)),
            allocations(|| micro.clone()),
            allocations(|| conventional.clone()),
        ];
        // SBC run, VM run, and a clone of each config.
        assert!(
            counts[0] <= 32 && counts[1] <= 22 && counts[2] == 0 && counts[3] == 0,
            "seed {seed}: [SBC run, VM run, SBC config clone, VM config clone] \
             allocated {counts:?} times, over [32, 22, 0, 0]"
        );
    }
}
