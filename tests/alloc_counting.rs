//! Counting-allocator proof of the zero-allocation round loop.
//!
//! After warm-up has grown every buffer to its high-water mark, a cordon
//! round on the single-threaded inline path must perform no heap allocation
//! (valley OAT's rounds, from the first one on):
//!
//! * OBST writes into flat preallocated triangular tables;
//! * the staircase cordons behind LIS and sparse LCS write each round's
//!   number straight into the tournament tree's leaves they take, and the
//!   tree's touched-block list is sized for every block up front.  The tree
//!   itself is one buffer of leaf blocks, one of alive masks and one of
//!   block minima, filled a block at a time from the caller's keys, so
//!   building `LisCordon` or `LcsCordon` makes the same number of
//!   allocations at any input size, and allocates little beyond one leaf
//!   per position;
//! * `ValleyOatCordon::new` copies the weights into the leaf sequence and
//!   sizes the buffers its rounds reuse (a node slot and a run record per
//!   leaf), and builds nothing else, so it too makes the same number of
//!   allocations at any input size.  Each run combines in place in its
//!   slice of the sequence and stages its packages in its slice of the node
//!   buffer, and the merge compacts both in place;
//! * packed GAP's per-row and per-column decision lists keep only their live
//!   envelope in buffers sized by the constructor, so inserts compact a
//!   buffer instead of growing it;
//! * the HLD Tree-GLWS cordon allocates its envelope arena up front and
//!   sizes its result buffer, and the buffer staging its envelope pushes,
//!   for the widest depth level;
//! * the depth Tree-GLWS cordon writes a level that runs inline (at one
//!   thread, or below the grain cutoff) straight into its DP arrays, and
//!   refills one reused result buffer for a level that forks;
//! * the convex and concave GLWS cordons rebuild their best-decision arrays
//!   from a reused `FindIntervals` buffer, which the recursion fills in place
//!   below the fork cutoff, and the concave merge swaps `B` with a second
//!   reused array;
//! * `KGlwsCordon` writes each layer in place into its preallocated table;
//! * the driver pre-sizes the metrics frontier log via
//!   `MetricsCollector::reserve_rounds` and runs no grain code between
//!   rounds: round code sizes its loops by a fixed rule with no state.
//!
//! The OBST test and the HLD Tree-GLWS test first drive their cordon by
//! hand, calling `round` the way `run_phase_parallel` does, so a round's
//! scratch must be the cordon's own, then run one through
//! `run_phase_parallel` itself (so the frontier log is covered too).
//! The staircase test runs `LisCordon` on a dense-round and a sparse-round
//! input and `LcsCordon` on a Fig. 6 shape through the driver, a second
//! staircase test runs `LcsCordon` at 2 threads on rounds too narrow to
//! fork, and a
//! constructor test counts the allocations of `LisCordon::new`,
//! `LcsCordon::new` and `ValleyOatCordon::new` at sizes 10⁴ and 10⁶ after one
//! warm-up construction each, and a byte test bounds the bytes the two
//! staircase constructors allocate per position at 10⁶; the GAP test runs
//! `PackedGapCordon` on convex gap costs over four grid shapes, the
//! Tree-GLWS tests run `HldTreeGlwsCordon` on a caterpillar and a path and
//! `TreeGlwsCordon` on a balanced binary tree, a random tree and a
//! caterpillar, and the GLWS test runs `ConvexGlwsCordon` on a post-office
//! instance, `ConcaveGlwsCordon` on a concave cost with bonus states and
//! `KGlwsCordon` on a clustered post-office instance.  The router test runs
//! what `tree_glws_cordon_auto` picks on a caterpillar (HLD) and a balanced
//! tree (depth levels), inside its `EitherCordon`.  Each asserts the
//! allocation counter does not move during steady-state rounds.  The valley
//! OAT test counts every round from the first instead, at 20, 63 and 2 000
//! leaves: at 20 leaves it runs fewer rounds than the warm-up.
//!
//! The tests pin the pool to one thread (`with_threads(1)`): the threaded
//! fork path boxes jobs per fork by design, so the zero-allocation contract
//! is specific to inline execution (small frontiers and `threads = 1`).
//! The 2-thread staircase test holds rounds to it whose 1–2 touched blocks
//! stay below the tournament's fork floor, so they run inline too.
//! Inline, every allocation of a solve happens on the calling thread, so the
//! allocator counts per thread: sibling tests and the test harness, running
//! on other threads, cannot pollute a measurement.

use parallel_dp::core::{run_phase_parallel, EitherCordon, PhaseParallel};
use parallel_dp::gap::{convex_gap_instance, sequential_gap, PackedGapCordon};
use parallel_dp::glws::{
    naive_kglws, sequential_concave_glws, sequential_convex_glws, ClosureCost, ConcaveGlwsCordon,
    ConvexGlwsCordon, KGlwsCordon, PostOfficeProblem,
};
use parallel_dp::lcs::{sequential_sparse_lcs, LcsCordon, MatchPair};
use parallel_dp::lis::{sequential_lis, LisCordon};
use parallel_dp::oat::{garsia_wachs, ValleyOatCordon};
use parallel_dp::obst::{knuth_obst, ObstCordon};
use parallel_dp::parutils::{with_threads, MetricsCollector};
use parallel_dp::treedp::{
    naive_tree_glws, tree_glws_cordon_auto, CostShape, HldTreeGlwsCordon, TreeGlwsCordon,
    TreeGlwsInstance,
};
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
    /// Bytes those allocations asked for (a reallocation counts its new
    /// size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes the calling thread has allocated so far.
fn bytes_allocated() -> u64 {
    BYTES.with(Cell::get)
}

fn count_allocation(bytes: usize) {
    // `try_with`: never panic inside the allocator, even during thread
    // teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: a pure pass-through to `System` — every pointer/layout obligation is
// forwarded unchanged, and the counter bump has no effect on allocator state.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; we forward
    // `layout` to `System` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        // SAFETY: same `layout` the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract (ptr from this
    // allocator, matching layout); all three arguments forwarded unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size);
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
/// before its first round, after warm-up round [`WARM_UP_ROUNDS`] and again
/// when the driver calls `finish`.  Its output carries the counts.
struct AllocationProbe<P> {
    inner: P,
    rounds: usize,
    before_first_round: u64,
    after_warm_up: Option<u64>,
}

/// The allocations a probed cordon's rounds made.
struct RoundAllocations {
    /// In every round, from the first.
    total: u64,
    /// After warm-up round [`WARM_UP_ROUNDS`], if the cordon got that far.
    steady: Option<u64>,
    /// Rounds after warm-up.
    steady_rounds: usize,
}

impl<P> AllocationProbe<P> {
    fn step(&mut self, round: impl FnOnce(&mut P) -> usize) -> usize {
        if self.rounds == 0 {
            self.before_first_round = allocations();
        }
        let frontier = round(&mut self.inner);
        self.rounds += 1;
        if self.rounds == WARM_UP_ROUNDS {
            self.after_warm_up = Some(allocations());
        }
        frontier
    }
}

impl<P: PhaseParallel> PhaseParallel for AllocationProbe<P> {
    type Output = (P::Output, RoundAllocations);

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        self.step(|inner| inner.round(metrics))
    }

    fn finish(self) -> Self::Output {
        let after = allocations();
        let counts = RoundAllocations {
            total: after - self.before_first_round,
            steady: self.after_warm_up.map(|warm| after - warm),
            steady_rounds: self.rounds.saturating_sub(WARM_UP_ROUNDS),
        };
        (self.inner.finish(), counts)
    }

    fn round_budget(&self) -> Option<u64> {
        self.inner.round_budget()
    }
}

/// Run `cordon` through `run_phase_parallel` inside an [`AllocationProbe`],
/// and return its output, the allocations its rounds made and the number of
/// rounds the driver recorded.
fn run_probed<P: PhaseParallel>(cordon: P) -> (P::Output, RoundAllocations, u64) {
    let metrics = MetricsCollector::new();
    let probe = AllocationProbe {
        inner: cordon,
        rounds: 0,
        before_first_round: 0,
        after_warm_up: None,
    };
    let (output, allocations) = run_phase_parallel(probe, &metrics);
    (output, allocations, metrics.snapshot().rounds)
}

/// [`run_probed`], asserting that the steady-state rounds allocated nothing.
fn run_allocation_free<P: PhaseParallel>(name: &str, cordon: P) -> (P::Output, u64) {
    let (output, allocations, rounds) = run_probed(cordon);
    #[expect(
        clippy::expect_used,
        reason = "a cordon that finishes within its warm-up rounds cannot show a \
                  steady state, so the test fails loudly"
    )]
    let steady = allocations
        .steady
        .expect("instance too small to measure steady state");
    assert_eq!(
        steady, 0,
        "{name}: run_phase_parallel allocated {steady} times over {} steady-state rounds",
        allocations.steady_rounds
    );
    (output, rounds)
}

/// Drive `cordon` to completion by hand, calling `round` the way
/// `run_phase_parallel` does, and return the allocations its rounds made
/// after warm-up round [`WARM_UP_ROUNDS`] and the number of rounds after it.
fn steady_allocations_by_hand<P: PhaseParallel>(
    cordon: &mut P,
    metrics: &MetricsCollector,
) -> (u64, usize) {
    // Mirror the driver: pre-size the frontier log for the full budget.
    if let Some(budget) = cordon.round_budget() {
        metrics.reserve_rounds(budget as usize);
    }

    // Warm-up: a few rounds to fault in any lazy state.
    let mut rounds = 0;
    while !cordon.is_done() && rounds < WARM_UP_ROUNDS {
        let frontier = cordon.round(metrics);
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
        let frontier = cordon.round(metrics);
        metrics.record_round(frontier as u64);
        rounds += 1;
    }
    (allocations() - before, rounds - WARM_UP_ROUNDS)
}

#[test]
fn obst_rounds_allocate_nothing_after_warm_up() {
    let n = 256;
    let weights: Vec<u64> = (0..n as u64).map(|i| (i * 37) % 101 + 1).collect();
    let expected = knuth_obst(&weights).cost;

    with_threads(1, || {
        let metrics = MetricsCollector::new();
        let mut cordon = ObstCordon::new(&weights);
        let budget = cordon.round_budget().expect("obst declares a budget");
        let (steady, steady_rounds) = steady_allocations_by_hand(&mut cordon, &metrics);
        assert_eq!(
            steady, 0,
            "cordon rounds allocated {steady} times over {steady_rounds} steady-state rounds"
        );

        // The run still computes the right answer.
        assert_eq!(cordon.finish(), expected);
        assert_eq!(metrics.snapshot().rounds, budget);

        // Through the driver: the round loop and the frontier log must not
        // allocate either.
        let (cost, rounds) = run_allocation_free("OBST", ObstCordon::new(&weights));
        assert_eq!(cost, expected);
        assert_eq!(rounds, budget);
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
            assert_eq!(d, want.d, "{name}: DP values differ from patience sorting");
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

#[test]
fn narrow_staircase_rounds_at_two_threads_allocate_nothing_after_warm_up() {
    // Sparse LCS with 2 000 rounds of ~100 pairs: each round takes the pairs
    // of one or two tournament blocks, fewer than a forked grain must get,
    // so at 2 threads the rounds run inline and box no job.  The build may
    // fork; the probe counts only the rounds.
    let pairs: Vec<MatchPair> = workloads::lcs_pairs_with(200_000, 2_000, 1)
        .into_iter()
        .map(|(i, j)| MatchPair { i, j })
        .collect();
    let want = sequential_sparse_lcs(&pairs);
    with_threads(2, || {
        let ((values, length), rounds) =
            run_allocation_free("LCS at 2 threads", LcsCordon::new(&pairs));
        assert_eq!(values, want.pair_values);
        assert_eq!((length, rounds), (2_000, 2_000));
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

/// Bytes the calling thread allocates while `build` runs (the value it
/// builds is dropped afterwards, and frees are not counted).
fn bytes_of<T>(build: impl FnOnce() -> T) -> u64 {
    let before = bytes_allocated();
    let built = build();
    let made = bytes_allocated() - before;
    drop(built);
    made
}

#[test]
fn staircase_cordon_constructors_allocate_a_few_bytes_per_position() {
    // 977 blocks of the tournament tree.  Its leaves take 4 bytes per
    // position for `u32` keys (sparse LCS) and 8 for `i64` keys (LIS); the
    // alive masks, block minima, summary heap and touched list add about
    // 0.7 and 1.3.  A second array of one value per position would add 4.
    let n = 1_000_000;
    let a = workloads::random_sequence(n, 1 << 40, 3);
    let pairs: Vec<MatchPair> = workloads::lcs_pairs_with(n, 100, 1)
        .into_iter()
        .map(|(i, j)| MatchPair { i, j })
        .collect();

    with_threads(1, || {
        // Warm-up: let the first construction set up anything lazy.
        bytes_of(|| LisCordon::new(&a));
        bytes_of(|| LcsCordon::new(&pairs));

        let lis = bytes_of(|| LisCordon::new(&a)) as f64 / a.len() as f64;
        let lcs = bytes_of(|| LcsCordon::new(&pairs)) as f64 / pairs.len() as f64;
        assert!(
            lcs <= 5.0,
            "LcsCordon::new allocated {lcs:.2} bytes per pair (at most 5)"
        );
        assert!(
            lis <= 10.0,
            "LisCordon::new allocated {lis:.2} bytes per element (at most 10)"
        );
    });
}

#[test]
fn packed_gap_rounds_allocate_nothing_after_warm_up() {
    // Wider than tall, taller than wide, and two squares.
    for (n, m) in [(300, 300), (200, 180), (180, 200), (500, 500)] {
        let (a, b) = workloads::gap_strings(n, m, 4, 9);
        let inst = convex_gap_instance(&a, &b, 3, 1, 1);
        let want = sequential_gap(&inst);

        with_threads(1, || {
            let (d, rounds) = run_allocation_free("GAP", PackedGapCordon::new(&inst));
            assert_eq!(d, want.d, "{n} x {m}: DP grid differs from sequential_gap");
            assert!(rounds <= (n + m) as u64, "{n} x {m}: {rounds} rounds");
        });
    }
}

#[test]
fn hld_tree_glws_rounds_allocate_nothing_after_warm_up() {
    // Levels widen and narrow along the caterpillar's legs; a path has one
    // node per level.  Each shape runs by hand first, where no driver lends
    // the rounds a buffer, then through the driver.
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
            let metrics = MetricsCollector::new();
            let mut cordon = HldTreeGlwsCordon::new(&inst, CostShape::Convex);
            let (steady, steady_rounds) = steady_allocations_by_hand(&mut cordon, &metrics);
            assert_eq!(
                steady, 0,
                "{name}: rounds driven by hand allocated {steady} times over {steady_rounds} \
                 steady-state rounds"
            );
            let (d, best) = cordon.finish();
            assert_eq!(
                (d, best),
                (want.d.clone(), want.best.clone()),
                "{name} by hand"
            );

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
fn depth_tree_glws_rounds_allocate_nothing_after_warm_up() {
    // The shallow-tree arm of `parallel_tree_glws`.  Binary, not 8-ary: an
    // 8-ary tree of this size has fewer levels than the warm-up rounds.
    let shapes = [
        ("balanced", workloads::balanced_tree(20_000, 2)),
        ("random", workloads::random_tree(5_000, 60, 9)),
        ("caterpillar", workloads::caterpillar_tree(3_000, 1_500, 29)),
    ];
    for (name, parent) in shapes {
        let n = parent.len() - 1;
        let lens = workloads::tree_edge_lengths(n, 100, 13);
        let inst = TreeGlwsInstance::new(parent, &lens, 0, |du, dv| (dv - du) as i64, |d, _| d);
        let want = naive_tree_glws(&inst);

        with_threads(1, || {
            let ((d, best), _) = run_allocation_free(name, TreeGlwsCordon::new(&inst));
            assert_eq!(d, want.d, "{name}: DP values differ from the naive scan");
            assert_eq!(
                best, want.best,
                "{name}: decisions differ from the naive scan"
            );
        });
    }
}

#[test]
fn routed_cordons_allocate_nothing_after_warm_up() {
    // `parallel_tree_glws`: the HLD arm on a caterpillar, the depth arm on a
    // balanced binary tree.
    let shapes = [
        (
            "caterpillar",
            workloads::caterpillar_tree(3_000, 1_500, 29),
            true,
        ),
        ("balanced", workloads::balanced_tree(20_000, 2), false),
    ];
    for (name, parent, hld) in shapes {
        let n = parent.len() - 1;
        let lens = workloads::tree_edge_lengths(n, 100, 13);
        let convex = |du: u64, dv: u64| {
            let len = (dv - du) as i64;
            10 + len * len
        };
        let inst = TreeGlwsInstance::new(parent, &lens, 0, convex, |d, _| d);
        let want = naive_tree_glws(&inst);

        with_threads(1, || {
            let cordon = tree_glws_cordon_auto(&inst, CostShape::Convex);
            assert_eq!(
                matches!(cordon, EitherCordon::Second(_)),
                hld,
                "{name}: routed to the other cordon"
            );
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
fn valley_oat_rounds_allocate_nothing() {
    // Every round counts, from the first: at 20 leaves the cordon runs
    // fewer rounds than the warm-up.  These are the sizes `parallel_oat`
    // once sent to the interval DP (20 and 63) and one that takes 16
    // rounds.
    for (n, want_rounds) in [(20, None), (63, None), (2_000, Some(16))] {
        let weights = workloads::positive_weights(n, 1 << 16, 23);
        let want = garsia_wachs(&weights).cost;

        with_threads(1, || {
            let (layout, allocations, rounds) = run_probed(ValleyOatCordon::new(&weights));
            assert_eq!(
                layout.cost, want,
                "{n} leaves: cost differs from Garsia–Wachs"
            );
            if let Some(want_rounds) = want_rounds {
                assert_eq!(rounds, want_rounds, "{n} leaves");
            }
            assert_eq!(
                allocations.total, 0,
                "{n} leaves: valley OAT's {rounds} rounds allocated {} times",
                allocations.total
            );
        });
    }
}

#[test]
fn glws_rounds_allocate_nothing_after_warm_up() {
    let inst = workloads::post_office_instance(100_000, 10_000, 3);
    let offices = PostOfficeProblem::new(inst.coords, inst.open_cost);
    let inst = workloads::post_office_instance(2_000, 40, 5);
    let clusters = PostOfficeProblem::new(inst.coords, inst.open_cost);
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

        let want = naive_kglws(&clusters, 30);
        let ((layers, _), rounds) = run_allocation_free("k-GLWS", KGlwsCordon::new(&clusters, 30));
        assert_eq!(
            layers, want.layers,
            "k-GLWS: layers differ from the naive DP"
        );
        assert_eq!(rounds, 30);
    });
}
