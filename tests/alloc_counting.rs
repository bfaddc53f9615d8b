//! Counting-allocator proof of the zero-allocation round loop.
//!
//! After warm-up has grown every buffer to its high-water mark, a cordon
//! round on the single-threaded inline path must perform no heap allocation:
//!
//! * OBST writes into flat preallocated triangular tables;
//! * the staircase cordons behind LIS and sparse LCS write each round's DP
//!   values straight into their position-aligned value array, and the
//!   tournament tree's touched-block list is sized for every block up front.
//!   The tree itself is one buffer of leaf blocks and one of block heaps,
//!   filled from the caller's keys through a closure, so building
//!   `LisCordon` or `LcsCordon` makes the same number of allocations at any
//!   input size;
//! * `ValleyOatCordon::new` copies the weights into the leaf sequence and
//!   sizes the buffers its rounds reuse, and builds nothing else, so it too
//!   makes the same number of allocations at any input size (its rounds
//!   still allocate, so no round test covers it yet);
//! * packed GAP's per-row and per-column decision lists keep only their live
//!   envelope in buffers sized by the constructor, so inserts compact a
//!   buffer instead of growing it;
//! * the HLD Tree-GLWS cordon allocates its envelope arena up front and
//!   sizes its result buffer, and the buffer staging its envelope pushes,
//!   for the widest depth level;
//! * the convex and concave GLWS cordons rebuild their best-decision arrays
//!   from a reused `FindIntervals` buffer, which the recursion fills in place
//!   below the fork cutoff, and the concave merge swaps `B` with a second
//!   reused array;
//! * the driver pre-sizes the metrics frontier log via
//!   `MetricsCollector::reserve_rounds`, and its grain policy works on stack
//!   copies.
//!
//! The OBST test first drives an `ObstCordon` by hand the way
//! `run_phase_parallel` does, then runs one through `run_phase_parallel`
//! itself (so the grain policy and the `round_with` path are covered too).
//! The staircase test runs `LisCordon` on a dense-round and a sparse-round
//! input and `LcsCordon` on a Fig. 6 shape through the driver, and a
//! constructor test counts the allocations of `LisCordon::new`,
//! `LcsCordon::new` and `ValleyOatCordon::new` at sizes 10⁴ and 10⁶ after one
//! warm-up construction each; the GAP
//! test runs `PackedGapCordon` on convex gap costs, the Tree-GLWS test
//! runs `HldTreeGlwsCordon` on a caterpillar and a path, and the GLWS test
//! runs `ConvexGlwsCordon` on a post-office instance and `ConcaveGlwsCordon`
//! on a concave cost with bonus states.  Each asserts the allocation counter
//! does not move during steady-state rounds.
//!
//! The tests pin the pool to one thread (`with_threads(1)`): the threaded
//! fork path boxes jobs per fork by design, so the zero-allocation contract
//! is specific to inline execution (small frontiers and `threads = 1`).
//! Inline, every allocation of a solve happens on the calling thread, so the
//! allocator counts per thread: sibling tests and the test harness, running
//! on other threads, cannot pollute a measurement.

use parallel_dp::core::{run_phase_parallel, FrontierArena, PhaseParallel};
use parallel_dp::gap::{convex_gap_instance, sequential_gap, PackedGapCordon};
use parallel_dp::glws::{
    sequential_concave_glws, sequential_convex_glws, ClosureCost, ConcaveGlwsCordon,
    ConvexGlwsCordon, PostOfficeProblem,
};
use parallel_dp::lcs::{sequential_sparse_lcs, LcsCordon, MatchPair};
use parallel_dp::lis::{sequential_lis, LisCordon};
use parallel_dp::oat::ValleyOatCordon;
use parallel_dp::obst::{knuth_obst, ObstCordon};
use parallel_dp::parutils::{with_threads, MetricsCollector};
use parallel_dp::treedp::{naive_tree_glws, CostShape, HldTreeGlwsCordon, TreeGlwsInstance};
use parallel_dp::workloads;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Rounds run before the steady state is measured.
const WARM_UP_ROUNDS: usize = 8;

struct CountingAllocator;

thread_local! {
    /// Allocations made by the current thread.  Const-initialized and free of
    /// destructors, so the allocator can bump it without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn count_allocation() {
    // `try_with`: never panic inside the allocator, even during thread
    // teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: a pure pass-through to `System` — every pointer/layout obligation is
// forwarded unchanged, and the counter bump has no effect on allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; we forward
    // `layout` to `System` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: same `layout` the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract (ptr from this
    // allocator, matching layout); all three arguments forwarded unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
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
            self.after_warm_up = Some(allocations());
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
        let after = allocations();
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

/// Run `cordon` through `run_phase_parallel` inside a [`SteadyStateProbe`],
/// assert that its steady-state rounds allocated nothing, and return its
/// output with the number of rounds the driver recorded.
fn run_allocation_free<P: PhaseParallel>(name: &str, cordon: P) -> (P::Output, u64) {
    let metrics = MetricsCollector::new();
    let probe = SteadyStateProbe {
        inner: cordon,
        rounds: 0,
        after_warm_up: None,
    };
    let (output, allocations, steady_rounds) = run_phase_parallel(probe, &metrics);
    assert_eq!(
        allocations, 0,
        "{name}: run_phase_parallel allocated {allocations} times over {steady_rounds} steady-state rounds"
    );
    (output, metrics.snapshot().rounds)
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
        let before = allocations();
        while !cordon.is_done() {
            let frontier = cordon.round(&metrics);
            metrics.record_round(frontier as u64);
            rounds += 1;
        }
        let after = allocations();
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
        let (tables, rounds) = run_allocation_free("OBST", ObstCordon::new(&weights));
        assert_eq!(tables.cost(), expected);
        assert_eq!(rounds, budget as u64);
    });
}

#[test]
fn staircase_rounds_allocate_nothing_after_warm_up() {
    // Dense rounds: 50 decreasing runs, ~4000 records a round.
    let dense = workloads::lis_with_length(200_000, 50, 3);
    // Sparse rounds: ~2√n rounds of scattered single records.
    let sparse = workloads::random_sequence(200_000, 1 << 40, 3);
    // Fig. 6 shape: 100 rounds of ~2000 matching pairs.
    let pairs: Vec<MatchPair> = workloads::lcs_pairs_with(200_000, 100, 1)
        .into_iter()
        .map(|(i, j)| MatchPair { i, j })
        .collect();

    with_threads(1, || {
        for (name, a) in [("LIS dense", &dense), ("LIS sparse", &sparse)] {
            let want = sequential_lis(a);
            let ((d, length), rounds) = run_allocation_free(name, LisCordon::new(a));
            assert_eq!(d, want.d, "{name}: DP values differ from Fenwick LIS");
            assert_eq!(length, want.length);
            assert_eq!(rounds, length as u64);
        }

        let want = sequential_sparse_lcs(&pairs);
        let ((values, length), rounds) = run_allocation_free("LCS", LcsCordon::new(&pairs));
        assert_eq!(
            values, want.pair_values,
            "LCS: DP values differ from Hunt–Szymanski"
        );
        assert_eq!(length, 100);
        assert_eq!(rounds, 100);
    });
}

/// Allocations the calling thread makes while `build` runs (the value it
/// builds is dropped afterwards, and frees are not counted).
fn allocations_of<T>(build: impl FnOnce() -> T) -> u64 {
    let before = allocations();
    let built = build();
    let made = allocations() - before;
    drop(built);
    made
}

#[test]
fn cordon_constructors_allocate_a_constant_number_of_times() {
    // About 10 and 977 blocks of the tournament tree.
    let sizes = [10_000, 1_000_000];
    let sequences = sizes.map(|n| workloads::random_sequence(n, 1 << 40, 3));
    let pair_sets = sizes.map(|n| {
        workloads::lcs_pairs_with(n, 100, 1)
            .into_iter()
            .map(|(i, j)| MatchPair { i, j })
            .collect::<Vec<_>>()
    });
    let weight_sets = sizes.map(|n| workloads::positive_weights(n, 1 << 16, 23));

    with_threads(1, || {
        // Warm-up: let the first construction set up anything lazy.
        allocations_of(|| LisCordon::new(&sequences[0]));
        allocations_of(|| LcsCordon::new(&pair_sets[0]));
        allocations_of(|| ValleyOatCordon::new(&weight_sets[0]));

        let lis = sequences
            .each_ref()
            .map(|a| allocations_of(|| LisCordon::new(a)));
        let lcs = pair_sets
            .each_ref()
            .map(|pairs| allocations_of(|| LcsCordon::new(pairs)));
        assert_eq!(
            lis[0], lis[1],
            "LisCordon::new allocated {lis:?} times at L = {sizes:?}"
        );
        assert_eq!(
            lcs[0], lcs[1],
            "LcsCordon::new allocated {lcs:?} times at L = {sizes:?}"
        );
        let valley = weight_sets
            .each_ref()
            .map(|w| allocations_of(|| ValleyOatCordon::new(w)));
        assert_eq!(
            valley[0], valley[1],
            "ValleyOatCordon::new allocated {valley:?} times at n = {sizes:?}"
        );
    });
}

#[test]
fn packed_gap_rounds_allocate_nothing_after_warm_up() {
    let (a, b) = workloads::gap_strings(300, 300, 4, 9);
    let inst = convex_gap_instance(&a, &b, 3, 1, 1);
    let want = sequential_gap(&inst);

    with_threads(1, || {
        let (d, _) = run_allocation_free("GAP", PackedGapCordon::new(&inst));
        assert_eq!(d, want.d, "GAP: DP grid differs from sequential_gap");
    });
}

#[test]
fn hld_tree_glws_rounds_allocate_nothing_after_warm_up() {
    // Levels widen and narrow along the caterpillar's legs; a path has one
    // node per level.
    let shapes = [
        ("caterpillar", workloads::caterpillar_tree(3_000, 1_500, 29)),
        ("path", workloads::path_tree(2_000)),
    ];
    for (name, parent) in shapes {
        let n = parent.len() - 1;
        let lens = workloads::tree_edge_lengths(n, 100, 13);
        let convex = |du: u64, dv: u64| {
            let len = (dv - du) as i64;
            10 + len * len
        };
        let inst = TreeGlwsInstance::new(parent, &lens, 0, convex, |d, _| d);
        let want = naive_tree_glws(&inst);

        with_threads(1, || {
            let cordon = HldTreeGlwsCordon::new(&inst, CostShape::Convex);
            let ((d, best), _) = run_allocation_free(name, cordon);
            assert_eq!(d, want.d, "{name}: DP values differ from the naive scan");
            assert_eq!(
                best, want.best,
                "{name}: decisions differ from the naive scan"
            );
        });
    }
}

#[test]
fn glws_rounds_allocate_nothing_after_warm_up() {
    let inst = workloads::post_office_instance(100_000, 10_000, 3);
    let offices = PostOfficeProblem::new(inst.coords, inst.open_cost);
    // Concave costs with a bonus at every seventh state: the optimum chains
    // through the bonus states, so the merge with the old array runs every
    // round.
    let bonus = ClosureCost::new(
        20_000,
        0,
        |j, i| 200 + 5 * ((i - j).min(40) as i64),
        |d, j| d - if j > 0 && j % 7 == 3 { 400 } else { 0 },
    );

    with_threads(1, || {
        let want = sequential_convex_glws(&offices);
        let ((d, _), rounds) = run_allocation_free("convex GLWS", ConvexGlwsCordon::new(&offices));
        assert_eq!(d, want.d, "convex GLWS: DP values differ from Galil–Park");
        assert_eq!(rounds, 10_000);

        let want = sequential_concave_glws(&bonus);
        let ((d, _), rounds) = run_allocation_free("concave GLWS", ConcaveGlwsCordon::new(&bonus));
        assert_eq!(d, want.d, "concave GLWS: DP values differ from Galil–Park");
        assert_eq!(rounds, 2_858);
    });
}
