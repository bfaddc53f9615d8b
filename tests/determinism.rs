//! Thread-count determinism of the phase-parallel engine.
//!
//! The cordon algorithms are deterministic by construction: every round's
//! frontier is a pure function of the instance, and the rayon shim's reduce
//! combiners merge grains in index order with tie rules matching `std::iter`
//! (see `crates/compat/README.md`).  These tests pin that contract end to
//! end — the engine must produce bit-identical results whether the threaded
//! pool is off (1 thread, fully inline) or on with any worker count.

use parallel_dp::parutils::with_threads;
use parallel_dp::treedp::{naive_tree_glws, CostShape, TreeGlwsCordon, TreeGlwsInstance};
use parallel_dp::workloads;
use parallel_dp::CordonSolver;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn lis_results_are_bit_identical_across_thread_counts() {
    let a = workloads::lis_with_length(20_000, 150, 3);
    let baseline = with_threads(1, || parallel_dp::lis::parallel_lis(&a));
    for t in THREAD_COUNTS {
        let run = with_threads(t, || parallel_dp::lis::parallel_lis(&a));
        assert_eq!(run.d, baseline.d, "LIS d[] differs at {t} threads");
        assert_eq!(run.length, baseline.length);
        assert_eq!(
            run.metrics.frontier_sizes, baseline.metrics.frontier_sizes,
            "LIS round schedule differs at {t} threads"
        );
    }
    assert_eq!(
        baseline.length,
        parallel_dp::lis::sequential_lis(&a).length,
        "parallel LIS disagrees with the sequential baseline"
    );
}

#[test]
fn lcs_results_are_bit_identical_across_thread_counts() {
    use parallel_dp::lcs::{parallel_sparse_lcs, sequential_sparse_lcs, MatchPair};
    // About 4·10⁴ records per round over 40 consecutive tournament blocks:
    // enough for two grains of at least 16 touched blocks, so above one
    // thread each round forks and the touched blocks are split across the
    // pool.  (The LIS instance above takes ~133 records a round and never
    // leaves the sequential path.)
    let pairs: Vec<MatchPair> = workloads::lcs_pairs_with(400_000, 10, 6)
        .into_iter()
        .map(|(i, j)| MatchPair { i, j })
        .collect();
    let baseline = with_threads(1, || parallel_sparse_lcs(&pairs));
    for t in THREAD_COUNTS {
        let run = with_threads(t, || parallel_sparse_lcs(&pairs));
        assert_eq!(
            run.pair_values, baseline.pair_values,
            "LCS pair values differ at {t} threads"
        );
        assert_eq!(run.length, baseline.length);
        assert_eq!(
            run.metrics, baseline.metrics,
            "LCS metrics differ at {t} threads"
        );
    }
    assert_eq!(baseline.length, 10);
    assert_eq!(
        baseline.pair_values,
        sequential_sparse_lcs(&pairs).pair_values,
        "parallel LCS disagrees with Hunt–Szymanski"
    );
}

#[test]
fn gap_results_are_bit_identical_across_thread_counts() {
    // Taller than wide, the transpose of the packed test's grid below, so
    // both orientations of the row-band split are covered.
    let (a, b) = workloads::gap_strings(180, 220, 4, 6);
    let inst = parallel_dp::gap::convex_gap_instance(&a, &b, 3, 1, 1);
    let baseline = with_threads(1, || parallel_dp::gap::parallel_gap(&inst));
    for t in THREAD_COUNTS {
        let run = with_threads(t, || parallel_dp::gap::parallel_gap(&inst));
        assert_eq!(run.d, baseline.d, "GAP grid differs at {t} threads");
        assert_eq!(run.cost, baseline.cost);
        assert_eq!(
            run.metrics.frontier_sizes, baseline.metrics.frontier_sizes,
            "GAP round schedule differs at {t} threads"
        );
    }
    let seq = parallel_dp::gap::sequential_gap(&inst);
    assert_eq!(baseline.cost, seq.cost);
    assert_eq!(
        baseline.d, seq.d,
        "parallel GAP disagrees with the sequential baseline"
    );
}

#[test]
fn packed_gap_results_are_bit_identical_across_thread_counts() {
    let (a, b) = workloads::gap_strings(220, 180, 4, 5);
    let inst = parallel_dp::gap::convex_gap_instance(&a, &b, 3, 1, 1);
    let baseline = with_threads(1, || parallel_dp::gap::parallel_gap(&inst));
    for t in THREAD_COUNTS {
        // Where two threads can run, the wide rounds split into two bands
        // and fork (pinned in `tests/pool_fastpath.rs`), so the comparison
        // covers the bands and the seam repair.
        let run = with_threads(t, || parallel_dp::gap::parallel_gap(&inst));
        assert_eq!(run.d, baseline.d, "packed GAP grid differs at {t} threads");
        assert_eq!(run.cost, baseline.cost);
        // The whole metrics record, not just the round schedule: probes and
        // wasted states must not depend on the thread count either.
        assert_eq!(
            run.metrics, baseline.metrics,
            "packed GAP metrics differ at {t} threads"
        );
    }
    // Every cell is probed exactly twice, as in the sequential Γ_gap.
    assert_eq!(
        baseline.metrics.probes,
        2 * baseline.metrics.states_finalized,
        "packed GAP probes"
    );
    // The packed cordon must agree with Γ_gap cell for cell, in no more
    // rounds than the grid depth (Theorem 5.2: rounds = effective depth).
    assert_eq!(
        baseline.d,
        parallel_dp::gap::sequential_gap(&inst).d,
        "parallel GAP disagrees with the sequential baseline"
    );
    assert!(
        baseline.metrics.rounds <= (a.len() + b.len()) as u64,
        "packed GAP must not use more rounds than the grid depth"
    );
}

#[test]
fn valley_oat_results_are_bit_identical_across_thread_counts() {
    use parallel_dp::oat::{garsia_wachs, parallel_oat};
    // Profiles covering all parallel-phase behaviours: random (many
    // valleys; its wide rounds split their run lists under `join` above one
    // thread, pinned in `tests/pool_fastpath.rs`), valley/mountain (two long
    // slopes), equal weights (pure sequential-sweep rounds), and random again
    // below 64 leaves, where every round runs inline.
    let profiles = [
        ("random", workloads::positive_weights(6_000, 1 << 16, 7)),
        ("valley", workloads::valley_weights(6_000, 1 << 16, 8)),
        ("mountain", workloads::mountain_weights(6_000, 1 << 16, 9)),
        ("equal", workloads::equal_weights(4_096, 5)),
        ("small", workloads::positive_weights(40, 1 << 16, 10)),
    ];
    for (name, w) in profiles {
        let baseline = with_threads(1, || parallel_oat(&w));
        for t in THREAD_COUNTS {
            let run = with_threads(t, || parallel_oat(&w));
            assert_eq!(
                run.depths, baseline.depths,
                "{name}: depths differ at {t} threads"
            );
            assert_eq!(run.cost, baseline.cost);
            assert_eq!(
                run.metrics, baseline.metrics,
                "{name}: metrics differ at {t} threads"
            );
        }
        let seq = garsia_wachs(&w);
        assert_eq!(
            baseline.cost, seq.cost,
            "{name}: valley OAT disagrees with Garsia–Wachs"
        );
    }
}

#[test]
fn auto_routed_tree_glws_is_bit_identical_across_thread_counts() {
    use parallel_dp::treedp::parallel_tree_glws;
    // One shape per arm `TreeGlwsCordon::new` picks: deep (the heavy-path
    // envelopes) and shallow (the ancestor rescan).
    let deep = workloads::caterpillar_tree(4_000, 2_000, 21);
    let shallow = workloads::balanced_tree(4_000, 8);
    for (name, parent) in [("caterpillar", deep), ("balanced", shallow)] {
        let n = parent.len() - 1;
        let lens = workloads::tree_edge_lengths(n, 50, 10);
        let inst = TreeGlwsInstance::new(parent, &lens, 0, |du, dv| (dv - du) as i64, |d, _| d);
        let baseline = with_threads(1, || parallel_tree_glws(&inst, CostShape::Convex));
        for t in THREAD_COUNTS {
            let run = with_threads(t, || parallel_tree_glws(&inst, CostShape::Convex));
            assert_eq!(run.d, baseline.d, "{name}: d[] differs at {t} threads");
            assert_eq!(
                run.best, baseline.best,
                "{name}: decisions differ at {t} threads"
            );
            assert_eq!(
                run.metrics.frontier_sizes, baseline.metrics.frontier_sizes,
                "{name}: round schedule differs at {t} threads"
            );
        }
        let seq = naive_tree_glws(&inst);
        assert_eq!(baseline.d, seq.d, "{name}: routed run disagrees with seq");
    }
}

#[test]
fn hld_tree_glws_results_are_bit_identical_across_thread_counts() {
    let n = 8_000;
    let parent = workloads::random_tree(n, 3, 9);
    let lens = workloads::tree_edge_lengths(n, 50, 10);
    let inst = TreeGlwsInstance::new(parent, &lens, 0, |du, dv| (dv - du) as i64, |d, _| d);
    // A shallow random tree, so the envelope arm runs forced, not picked
    // (`TreeGlwsCordon::new` would take the rescan here).
    let hld = || CordonSolver::new().run(TreeGlwsCordon::envelopes(&inst, CostShape::Convex));
    let baseline = with_threads(1, hld);
    for t in THREAD_COUNTS {
        let run = with_threads(t, hld);
        assert_eq!(
            run.output, baseline.output,
            "HLD Tree-GLWS d[] or decisions differ at {t} threads"
        );
        assert_eq!(
            run.metrics.frontier_sizes, baseline.metrics.frontier_sizes,
            "HLD Tree-GLWS round schedule differs at {t} threads"
        );
    }
    let seq = naive_tree_glws(&inst);
    assert_eq!(
        baseline.output.0, seq.d,
        "parallel HLD Tree-GLWS disagrees with the sequential baseline"
    );
}

#[test]
fn glws_results_are_bit_identical_across_thread_counts() {
    use parallel_dp::glws::{
        parallel_concave_glws, parallel_convex_glws, parallel_kglws, sequential_concave_glws,
        sequential_convex_glws, ClosureCost, GlwsResult, PostOfficeProblem,
    };
    fn offices(n: usize, k: usize) -> PostOfficeProblem {
        let inst = workloads::post_office_instance(n, k, 3);
        PostOfficeProblem::new(inst.coords, inst.open_cost)
    }
    fn assert_bit_identical(
        name: &str,
        solve: impl Fn() -> GlwsResult + Send + Sync,
    ) -> GlwsResult {
        let baseline = with_threads(1, &solve);
        for t in THREAD_COUNTS {
            let run = with_threads(t, &solve);
            assert_eq!(run.d, baseline.d, "{name}: d[] differs at {t} threads");
            assert_eq!(
                run.best, baseline.best,
                "{name}: decisions differ at {t} threads"
            );
            assert_eq!(
                run.metrics, baseline.metrics,
                "{name}: metrics differ at {t} threads"
            );
        }
        baseline
    }

    // Ten wide rounds: FindIntervals forks on both its state and decision
    // ranges above one thread.
    let shallow = offices(200_000, 10);
    // Ten thousand narrow rounds that never fork.
    let deep = offices(100_000, 10_000);
    for (name, p) in [("convex k = 10", &shallow), ("convex k = 10⁴", &deep)] {
        let run = assert_bit_identical(name, || parallel_convex_glws(p));
        assert_eq!(
            run.d,
            sequential_convex_glws(p).d,
            "{name}: disagrees with Galil–Park"
        );
    }

    // A bonus every 5000 states: 41 rounds whose frontiers reach 5000 states,
    // so both FindCordon and FindIntervals fork.
    let concave = ClosureCost::new(
        200_000,
        0,
        |j, i| 200 + 5 * ((i - j).min(100_000) as i64),
        |d, j| d - if j % 5000 == 3 { 1_000_000 } else { 0 },
    );
    let run = assert_bit_identical("concave", || parallel_concave_glws(&concave));
    assert_eq!(run.metrics.rounds, 41);
    assert_eq!(run.metrics.max_frontier(), 5_000);
    assert_eq!(
        run.d,
        sequential_concave_glws(&concave).d,
        "concave: disagrees with Galil–Park"
    );

    // Thirty layers of 20 000 states: each layer's divide and conquer forks
    // while its state range reaches `SEQ_CUTOFF` (pinned in
    // `tests/pool_fastpath.rs`), and sums its edge counts through the joins.
    let p = offices(20_000, 40);
    let kglws = || parallel_kglws(&p, 30);
    let baseline = with_threads(1, kglws);
    for t in THREAD_COUNTS {
        let run = with_threads(t, kglws);
        assert_eq!(
            run.layers, baseline.layers,
            "k-GLWS layers differ at {t} threads"
        );
        assert_eq!(
            run.best, baseline.best,
            "k-GLWS decisions differ at {t} threads"
        );
        assert_eq!(
            run.metrics, baseline.metrics,
            "k-GLWS metrics differ at {t} threads"
        );
    }
    assert_eq!(baseline.metrics.rounds, 30);
}
