//! Counting-allocator proof that the `SEQ_CUTOFF` sequential path is
//! allocation- and synchronization-free.
//!
//! `round_min_grain` returns the full loop length for loops below
//! `SEQ_CUTOFF`, which makes the rayon shim execute them as a single inline
//! grain.  This test pins the two properties that make that path a true fast
//! path: once scratch buffers have reached their high-water mark, a sub-grain
//! `collect_into_vec` round performs **zero** heap allocations, and it never
//! synchronizes with the pool (zero injector pushes, zero worker wakeups).
//!
//! Lives in its own integration-test binary (like `alloc_counting.rs`) so no
//! sibling test thread can allocate concurrently and pollute the counter.

use parallel_dp::parutils::{round_min_grain, with_threads, SEQ_CUTOFF};
use rayon::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: a pure pass-through to `System` — every pointer/layout obligation is
// forwarded unchanged, and the counter bump has no effect on allocator state.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; we forward
    // `layout` to `System` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same `layout` the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract (ptr from this
    // allocator, matching layout); all three arguments forwarded unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` via our `alloc`, layout unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract; forwarded
    // unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via our `alloc`, layout unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

#[test]
fn seq_cutoff_path_is_allocation_and_synchronization_free() {
    let len = SEQ_CUTOFF - 1;
    let grain = round_min_grain(len);
    assert!(
        grain >= len,
        "a sub-cutoff loop must resolve to a single grain (got {grain} for {len})"
    );

    with_threads(8, || {
        let mut target: Vec<i64> = Vec::new();
        // Warm-up: grow the target to its high-water mark.
        (0..len)
            .into_par_iter()
            .with_min_len(grain)
            .map(|i| i as i64)
            .collect_into_vec(&mut target);
        assert_eq!(target.len(), len);

        // Let the freshly spawned workers finish their (allocating) thread
        // startup and park; the measured region below must only see the
        // calling thread's behavior.
        std::thread::sleep(std::time::Duration::from_millis(100));

        let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
        let (pushes_before, wakeups_before) = rayon::dispatch_diagnostics();
        for round in 0..64i64 {
            (0..len)
                .into_par_iter()
                .with_min_len(round_min_grain(len))
                .map(|i| i as i64 + round)
                .collect_into_vec(&mut target);
        }
        let allocs_after = ALLOCATIONS.load(Ordering::Relaxed);
        let (pushes_after, wakeups_after) = rayon::dispatch_diagnostics();

        assert_eq!(target[0], 63);
        assert_eq!(
            allocs_after - allocs_before,
            0,
            "sub-cutoff rounds must not allocate"
        );
        assert_eq!(
            pushes_after - pushes_before,
            0,
            "sub-cutoff rounds must not push pool jobs"
        );
        assert_eq!(
            wakeups_after - wakeups_before,
            0,
            "sub-cutoff rounds must not wake workers"
        );
    });
}
