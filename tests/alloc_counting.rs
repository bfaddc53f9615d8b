//! Counting-allocator proof of the zero-allocation round loop.
//!
//! After the arena/scratch work, a cordon round on the single-threaded inline
//! path must perform no heap allocation once warm-up has grown every buffer to
//! its high-water mark: OBST writes into flat preallocated triangular tables,
//! and the driver pre-sizes the metrics frontier log via
//! `MetricsCollector::reserve_rounds`.  This test first drives an
//! `ObstCordon` by hand the way `run_phase_parallel` does, then runs one
//! through `run_phase_parallel` itself (so the grain policy and the
//! `round_with` path are covered too), and asserts the allocation counter
//! does not move during steady-state rounds.
//!
//! The test pins the pool to one thread (`with_threads(1)`): the threaded
//! fork path boxes jobs per fork by design, so the zero-allocation contract
//! is specific to inline execution (small frontiers and `threads = 1`).
//! It lives in its own integration-test binary so no sibling test thread can
//! allocate concurrently and pollute the counter.

use parallel_dp::core::{run_phase_parallel, FrontierArena, PhaseParallel};
use parallel_dp::obst::{knuth_obst, ObstCordon};
use parallel_dp::parutils::{with_threads, MetricsCollector};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Rounds run before the steady state is measured.
const WARM_UP_ROUNDS: usize = 8;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: a pure pass-through to `System` — every pointer/layout obligation is
// forwarded unchanged, and the counter bump has no effect on allocator state.
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

/// Forwards every call to the wrapped cordon, reading the allocation counter
/// after warm-up round [`WARM_UP_ROUNDS`] and again when the driver calls
/// `finish`.  Its output carries the difference and the steady-state round
/// count.
struct SteadyStateProbe<P> {
    inner: P,
    rounds: usize,
    after_warm_up: Option<u64>,
}

impl<P> SteadyStateProbe<P> {
    fn count_round(&mut self) {
        self.rounds += 1;
        if self.rounds == WARM_UP_ROUNDS {
            self.after_warm_up = Some(ALLOCATIONS.load(Ordering::Relaxed));
        }
    }
}

impl<P: PhaseParallel> PhaseParallel for SteadyStateProbe<P> {
    type Output = (P::Output, u64, usize);

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        let frontier = self.inner.round(metrics);
        self.count_round();
        frontier
    }

    fn round_with(&mut self, metrics: &MetricsCollector, arena: &mut FrontierArena) -> usize {
        let frontier = self.inner.round_with(metrics, arena);
        self.count_round();
        frontier
    }

    fn finish(self) -> Self::Output {
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        let warm = self
            .after_warm_up
            .expect("instance too small to measure steady state");
        let steady_rounds = self.rounds - WARM_UP_ROUNDS;
        (self.inner.finish(), after - warm, steady_rounds)
    }

    fn round_budget(&self) -> Option<u64> {
        self.inner.round_budget()
    }
}

#[test]
fn obst_rounds_allocate_nothing_after_warm_up() {
    let n = 256;
    let weights: Vec<u64> = (0..n as u64).map(|i| (i * 37) % 101 + 1).collect();
    let expected = knuth_obst(&weights).cost;

    with_threads(1, || {
        let metrics = MetricsCollector::new();
        let mut cordon = ObstCordon::new(&weights);
        // Mirror the driver: pre-size the frontier log for the full budget.
        let budget = cordon.round_budget().expect("obst declares a budget") as usize;
        metrics.reserve_rounds(budget);

        // Warm-up: a few rounds to fault in any lazy state.
        let mut rounds = 0;
        while !cordon.is_done() && rounds < WARM_UP_ROUNDS {
            let frontier = cordon.round(&metrics);
            metrics.record_round(frontier as u64);
            rounds += 1;
        }
        assert!(
            !cordon.is_done(),
            "instance too small to measure steady state"
        );

        // Steady state: every remaining round must leave the counter alone.
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        while !cordon.is_done() {
            let frontier = cordon.round(&metrics);
            metrics.record_round(frontier as u64);
            rounds += 1;
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "cordon rounds allocated {} times over {} steady-state rounds",
            after - before,
            rounds - WARM_UP_ROUNDS
        );

        // The run still computes the right answer.
        let tables = cordon.finish();
        assert_eq!(tables.cost(), expected);
        assert_eq!(metrics.snapshot().rounds, budget as u64);

        // Through the driver: the grain policy's per-round hint, the
        // `round_with` dispatch and the frontier log must not allocate either.
        // Same test function because the counter is process-global.
        let metrics = MetricsCollector::new();
        let probe = SteadyStateProbe {
            inner: ObstCordon::new(&weights),
            rounds: 0,
            after_warm_up: None,
        };
        let (tables, allocations, steady_rounds) = run_phase_parallel(probe, &metrics);
        assert_eq!(
            allocations, 0,
            "run_phase_parallel allocated {allocations} times over {steady_rounds} steady-state rounds"
        );
        assert_eq!(tables.cost(), expected);
        assert_eq!(metrics.snapshot().rounds, budget as u64);
    });
}
