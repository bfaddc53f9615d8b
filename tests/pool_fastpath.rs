//! The per-round dispatch fast path: sub-grain rounds bypass the pool.
//!
//! When `round_min_grain(len) >= len` a round runs entirely on the calling
//! thread — the rayon shim executes single-grain loops inline — and so does
//! a tournament round that touches too few blocks to give each forked grain
//! 16 of them.  Such a round must push **zero** jobs to the pool's injector
//! and wake **zero** workers.  The shim exposes cumulative dispatch counters
//! (`rayon::dispatch_diagnostics`, a shim-only extension) precisely so this
//! contract can be pinned instead of eyeballed from profiles.
//!
//! The same counters pin the other side of the fast path: a fork that does
//! reach the pool hands its job to a worker that is still spinning, instead
//! of waking one that has parked.  They also pin that the cordons whose wide
//! rounds split do fork at 2 threads: packed GAP, valley OAT, convex and
//! concave GLWS, and k-GLWS.
//!
//! The whole file is one test function: the counters are process-global, so a
//! concurrently running sibling test that legitimately forks would pollute
//! the deltas.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parallel_dp::core::run_phase_parallel;
use parallel_dp::glws::{
    parallel_concave_glws, parallel_convex_glws, parallel_kglws, ClosureCost, PostOfficeProblem,
};
use parallel_dp::lcs::{sequential_sparse_lcs, LcsCordon, MatchPair};
use parallel_dp::parutils::{with_threads, MetricsCollector};
use parallel_dp::workloads;
use rayon::prelude::*;

/// Whether the 2-thread pool's worker and this thread run at once: the two
/// halves of a join pass a counter back and forth 1 000 times, each spinning
/// until it is its turn.  On two free cores that takes well under a
/// millisecond.  When the OS scheduler keeps both threads on one core, as a
/// loaded VM's can for seconds at a time, every pass waits for a time slice
/// and the deadline comes first.
fn pool_runs_two_threads_at_once() -> bool {
    let ball = AtomicU64::new(0);
    let deadline = Instant::now() + Duration::from_millis(100);
    let pass = |parity: u64| loop {
        let seen = ball.load(Ordering::Acquire);
        if seen >= 2_000 {
            return true;
        }
        if seen % 2 == parity {
            ball.store(seen + 1, Ordering::Release);
        } else if Instant::now() > deadline {
            return false;
        }
        std::hint::spin_loop();
    };
    let (a, b) = with_threads(2, || rayon::join(|| pass(0), || pass(1)));
    a && b
}

/// Worker wakeups in each of ten batches of 100 back-to-back joins under
/// `with_threads(2)`, whose halves busy-work about 20 µs and 5 µs.
fn handoff_wakeups() -> Vec<u64> {
    let busy = |us| {
        let start = Instant::now();
        while start.elapsed() < Duration::from_micros(us) {
            std::hint::spin_loop();
        }
    };
    with_threads(2, || {
        (0..10)
            .map(|_| {
                let (pushes_before, wakeups_before) = rayon::dispatch_diagnostics();
                for _ in 0..100 {
                    rayon::join(|| busy(20), || busy(5));
                }
                let (pushes_after, wakeups_after) = rayon::dispatch_diagnostics();
                assert_eq!(
                    pushes_after - pushes_before,
                    100,
                    "each join pushes its second closure"
                );
                wakeups_after - wakeups_before
            })
            .collect()
    })
}

/// Injector pushes while `solve` runs under `with_threads(2)`.
fn pushes_at_two_threads<T>(solve: impl FnOnce() -> T + Send) -> u64 {
    with_threads(2, || {
        let (before, _) = rayon::dispatch_diagnostics();
        solve();
        let (after, _) = rayon::dispatch_diagnostics();
        after - before
    })
}

#[test]
fn sub_grain_rounds_push_no_jobs_and_wake_no_workers() {
    // Back-to-back joins under a pool the hardware runs at once: the worker
    // finishes the short half first, goes idle while the caller still works
    // on the long half, and must still be spinning when the next join
    // pushes.  This runs first, while the pool has its one worker: once the
    // `with_threads(8)` below has grown the worker set past the hardware,
    // idle threads park at once and a push wakes one of them.  The check
    // needs the two threads on two cores at once, which a host with
    // `available_parallelism() >= 2` does not always grant, so it skips when
    // the ping-pong says they share one.  A host that stalls a core for a
    // few milliseconds makes the spin run out on every join in the stall,
    // which says nothing about the handoff, so a try is judged by the median
    // of ten batches of 100 joins, which a stall spoils only where it spans
    // them, and the check gets three tries.  A pool that parks at once wakes
    // the worker on nearly every join of every batch.
    if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
        let mut missed = Vec::new();
        let handed_off = loop {
            if !pool_runs_two_threads_at_once() {
                break None;
            }
            let wakeups = handoff_wakeups();
            let mut sorted = wakeups.clone();
            sorted.sort_unstable();
            if sorted[sorted.len() / 2] * 10 <= 100 {
                break Some(true);
            }
            missed.push(wakeups);
            if missed.len() == 3 {
                break Some(false);
            }
        };
        match handed_off {
            None => {
                eprintln!("skipping the handoff check: the scheduler ran both threads on one core")
            }
            Some(passed) => assert!(
                passed,
                "{missed:?} wakeups per batch of 100 pushes in three tries: a fork must hand \
                 its job to a spinning worker, not wake a parked one"
            ),
        }
    }

    // Warm the pool: spawn the workers and let any one-time lazy init (pool
    // structures, TLS) happen outside the measured region.
    let warm = workloads::lis_with_length(100_000, 6, 7);
    let warm_result = with_threads(8, || parallel_dp::lis::parallel_lis(&warm));
    assert_eq!(warm_result.length, 6);

    // Sub-grain workload: n < SEQ_CUTOFF, so every round's frontier (and the
    // tree build) is below the grain cutoff and must stay inline even with 8
    // threads installed.
    let a = workloads::lis_with_length(1_500, 10, 3);
    let expected = parallel_dp::lis::sequential_lis(&a);

    let (pushes_before, wakeups_before) = rayon::dispatch_diagnostics();
    let run = with_threads(8, || parallel_dp::lis::parallel_lis(&a));
    let (pushes_after, wakeups_after) = rayon::dispatch_diagnostics();

    assert_eq!(run.d, expected.d);
    assert_eq!(
        pushes_after - pushes_before,
        0,
        "a sub-grain run must not touch the injector"
    );
    assert_eq!(
        wakeups_after - wakeups_before,
        0,
        "a sub-grain run must not wake any worker"
    );

    // Sparse LCS whose rounds each take the pairs of one or two tournament
    // blocks: far fewer than the 16 blocks every forked grain of a round
    // must get, so at 2 threads the rounds run on the calling thread.  The
    // tree's build may fork; nothing between it and `finish` may.
    let pairs: Vec<MatchPair> = workloads::lcs_pairs_with(200_000, 2_000, 5)
        .into_iter()
        .map(|(i, j)| MatchPair { i, j })
        .collect();
    let expected = sequential_sparse_lcs(&pairs);
    let ((values, length), pushes, wakeups) = with_threads(2, || {
        let cordon = LcsCordon::new(&pairs);
        let (pushes_before, wakeups_before) = rayon::dispatch_diagnostics();
        let out = run_phase_parallel(cordon, &MetricsCollector::new());
        let (pushes_after, wakeups_after) = rayon::dispatch_diagnostics();
        (
            out,
            pushes_after - pushes_before,
            wakeups_after - wakeups_before,
        )
    });
    assert_eq!((length, &values), (2_000, &expected.pair_values));
    assert_eq!(
        pushes, 0,
        "sparse LCS rounds of 1-2 blocks must not touch the injector at 2 threads"
    );
    assert_eq!(
        wakeups, 0,
        "sparse LCS rounds of 1-2 blocks must not wake any worker at 2 threads"
    );

    // Packed GAP: a round splits into two bands under one `rayon::join`
    // only when two threads can run and the last round visited at least 64
    // rows.  Pinned to one thread, a solve pushes zero jobs and wakes zero
    // workers, on a small instance and on one with hundreds of rows per
    // round.  With 8 threads installed, so does a solve whose rounds never
    // visit 64 rows: its grid has 61 of them.
    for (n, m, threads) in [(120, 110, 1), (300, 300, 1), (60, 110, 8)] {
        let (ga, gb) = workloads::gap_strings(n, m, 4, 9);
        let ginst = parallel_dp::gap::convex_gap_instance(&ga, &gb, 3, 1, 1);
        let expected = parallel_dp::gap::sequential_gap(&ginst);

        let (pushes_before, wakeups_before) = rayon::dispatch_diagnostics();
        let run = with_threads(threads, || parallel_dp::gap::parallel_gap(&ginst));
        let (pushes_after, wakeups_after) = rayon::dispatch_diagnostics();

        assert_eq!(run.d, expected.d, "{n}x{m} at {threads} threads");
        assert_eq!(
            pushes_after - pushes_before,
            0,
            "a {n}x{m} packed-GAP solve at {threads} threads must not touch the injector"
        );
        assert_eq!(
            wakeups_after - wakeups_before,
            0,
            "a {n}x{m} packed-GAP solve at {threads} threads must not wake any worker"
        );
    }
    // The 300 x 300 rounds split at 8 threads where two threads can run, at
    // most one push each, and the bands and the seam repair still give
    // Γ_gap's grid.
    let (ga, gb) = workloads::gap_strings(300, 300, 4, 9);
    let ginst = parallel_dp::gap::convex_gap_instance(&ga, &gb, 3, 1, 1);
    let (pushes_before, _) = rayon::dispatch_diagnostics();
    let run = with_threads(8, || parallel_dp::gap::parallel_gap(&ginst));
    let (pushes_after, _) = rayon::dispatch_diagnostics();
    assert_eq!(
        run.d,
        parallel_dp::gap::sequential_gap(&ginst).d,
        "300x300 at 8 threads"
    );
    let pushes = pushes_after - pushes_before;
    assert!(
        pushes <= run.metrics.rounds,
        "{pushes} pushes in {} rounds",
        run.metrics.rounds
    );
    if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
        assert!(
            pushes > 0,
            "the 300x300 packed-GAP solve did not fork at 8 threads"
        );
    }

    // Where two threads can run, the cordons whose wide rounds split fork at
    // 2 threads: packed GAP into two row bands, valley OAT's run lists under
    // `join`, the GLWS cordon's FindCordon probes and FindIntervals under
    // both cost shapes, and each k-GLWS layer's divide and conquer while its
    // state range reaches `SEQ_CUTOFF`.  `tests/determinism.rs` checks that
    // these forked solves give the 1-thread answers.
    if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
        let (ga, gb) = workloads::gap_strings(220, 180, 4, 5);
        let ginst = parallel_dp::gap::convex_gap_instance(&ga, &gb, 3, 1, 1);
        let weights = workloads::positive_weights(6_000, 1 << 16, 7);
        // Ten wide convex rounds, and 41 concave rounds whose frontiers
        // reach 5 000 states: `tests/determinism.rs`'s instances.
        let shallow = workloads::post_office_instance(200_000, 10, 3);
        let shallow = PostOfficeProblem::new(shallow.coords, shallow.open_cost);
        let bonus = ClosureCost::new(
            200_000,
            0,
            |j, i| 200 + 5 * ((i - j).min(100_000) as i64),
            |d, j| d - if j % 5000 == 3 { 1_000_000 } else { 0 },
        );
        let offices = workloads::post_office_instance(20_000, 40, 3);
        let offices = PostOfficeProblem::new(offices.coords, offices.open_cost);
        let gap = pushes_at_two_threads(|| parallel_dp::gap::parallel_gap(&ginst));
        assert!(gap > 0, "packed GAP did not fork at 2 threads");
        let oat = pushes_at_two_threads(|| parallel_dp::oat::parallel_oat(&weights));
        assert!(oat > 0, "valley OAT did not fork at 2 threads");
        let convex = pushes_at_two_threads(|| parallel_convex_glws(&shallow));
        assert!(convex > 0, "convex GLWS did not fork at 2 threads");
        let concave = pushes_at_two_threads(|| parallel_concave_glws(&bonus));
        assert!(concave > 0, "concave GLWS did not fork at 2 threads");
        let kglws = pushes_at_two_threads(|| parallel_kglws(&offices, 30));
        assert!(kglws > 0, "k-GLWS did not fork at 2 threads");
    }

    // Sanity check that the counters are live at all: an explicit sub-length
    // `with_min_len` forces the producer to split whatever the grain rule
    // (or the host's core count) would decide, so the non-worker driver
    // thread must push injector jobs.
    let (pushes_before, _) = rayon::dispatch_diagnostics();
    let total = with_threads(8, || {
        (0..100_000i64)
            .into_par_iter()
            .with_min_len(1_000)
            .map(|i| i * 2)
            .sum::<i64>()
    });
    let (pushes_after, _) = rayon::dispatch_diagnostics();
    assert_eq!(total, 100_000 * 99_999);
    assert!(
        pushes_after > pushes_before,
        "an explicitly split loop should fork onto the pool"
    );
}
