//! Counting global allocator for the traced run.
//!
//! Every heap allocation (including `realloc`) of every thread bumps one
//! process-wide counter while counting is switched on.  The untraced run
//! leaves it off, so its only cost there is one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Pass-through to [`System`] that counts allocation calls.
pub struct CountingAllocator;

#[inline]
fn bump() {
    // ordering: Relaxed — a statistic read at span boundaries; it publishes
    // no other data.
    if COUNTING.load(Ordering::Relaxed) {
        // ordering: Relaxed — same statistic as above.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// analyze: allow(unsafe-whitelist): `GlobalAlloc` is an unsafe trait; the
// benchmark's allocation counts need a global allocator.
// SAFETY: a pure pass-through to `System` — every pointer and layout
// obligation is forwarded unchanged, and the counter bump has no effect on
// allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    // analyze: allow(unsafe-whitelist): required signature of the trait method.
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract; `layout` is
    // forwarded to `System` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // analyze: allow(unsafe-whitelist): forwarding call into `System`.
        // SAFETY: same `layout` the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // analyze: allow(unsafe-whitelist): required signature of the trait method.
    // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract;
    // `layout` is forwarded to `System` untouched.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // analyze: allow(unsafe-whitelist): forwarding call into `System`.
        // SAFETY: same `layout` the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    // analyze: allow(unsafe-whitelist): required signature of the trait method.
    // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract (`ptr`
    // from this allocator, matching layout); all arguments forwarded.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // analyze: allow(unsafe-whitelist): forwarding call into `System`.
        // SAFETY: `ptr` came from `System` through this allocator, with
        // `layout` unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // analyze: allow(unsafe-whitelist): required signature of the trait method.
    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract; both
    // arguments forwarded unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // analyze: allow(unsafe-whitelist): forwarding call into `System`.
        // SAFETY: `ptr` came from `System` through this allocator, with
        // `layout` unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switch allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    // ordering: Relaxed — toggled between solves, never inside one; the
    // counter it gates is a statistic.
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocation calls counted so far (monotone while counting is on).
pub fn allocations() -> u64 {
    // ordering: Relaxed — statistic; callers take deltas across spans.
    ALLOCATIONS.load(Ordering::Relaxed)
}
