//! Tree-shape property tests for the work-efficient Tree-GLWS cordon
//! (Theorem 5.3): on every tree shape the workloads crate can generate, and
//! under both convex and concave transition costs, `HldTreeGlwsCordon` must
//! agree with the naive ancestor-scan oracle *and* the depth-frontier
//! `TreeGlwsCordon` on DP values and reconstructed best decisions — plus the
//! work-bound regression guard that pins the heavy-light version to
//! near-linear work on the shape where the depth cordon is quadratic.  Each
//! arm runs through `CordonSolver`; `parallel_tree_glws` runs the router.

use parallel_dp::prelude::*;
use parallel_dp::treedp::{naive_tree_glws, TreeGlwsResult};
use parallel_dp::workloads;
use workloads::tree_height;

/// Run one Tree-GLWS cordon through the facade solver.
fn solve<P>(cordon: P) -> TreeGlwsResult
where
    P: PhaseParallel<Output = (Vec<i64>, Vec<usize>)>,
{
    let run = CordonSolver::new().run(cordon);
    let (d, best) = run.output;
    TreeGlwsResult {
        d,
        best,
        metrics: run.metrics,
    }
}

/// Convex transition cost: opening cost plus squared gap length.
fn convex_w(du: u64, dv: u64) -> i64 {
    let len = (dv - du) as i64;
    15 + len * len
}

/// Concave transition cost: capped-linear gap length (concave, saturating).
fn concave_w(du: u64, dv: u64) -> i64 {
    let len = dv - du;
    6 + 5 * len.min(11) as i64
}

/// Concave transition cost: integer square root of the gap length.
fn sqrt_w(du: u64, dv: u64) -> i64 {
    let len = dv - du;
    2 + len.isqrt() as i64
}

/// Every tree shape the generators produce, as `(name, parent)` pairs.
fn shapes(n: usize, seed: u64) -> Vec<(&'static str, Vec<usize>)> {
    vec![
        ("path", workloads::path_tree(n)),
        ("star", workloads::star_tree(n)),
        ("caterpillar", workloads::caterpillar_tree(n, n / 3, seed)),
        ("balanced", workloads::balanced_tree(n, 3)),
        (
            "random-attachment",
            workloads::random_attachment_tree(n, seed),
        ),
        ("random-biased", workloads::random_tree(n, 70, seed)),
    ]
}

fn check_agreement<W>(name: &str, parent: Vec<usize>, lens: &[u64], w: W, shape: CostShape)
where
    W: Fn(u64, u64) -> i64 + Sync + Copy,
{
    let height = tree_height(&parent);
    let inst = TreeGlwsInstance::new(parent, lens, 3, w, |d, u| d + (u % 4) as i64);
    let naive = naive_tree_glws(&inst);
    let baseline = solve(TreeGlwsCordon::new(&inst));
    let hld = solve(HldTreeGlwsCordon::new(&inst, shape));
    assert_eq!(hld.d, naive.d, "{name}: values vs naive");
    assert_eq!(hld.best, naive.best, "{name}: decisions vs naive");
    assert_eq!(hld.d, baseline.d, "{name}: values vs baseline cordon");
    assert_eq!(
        hld.best, baseline.best,
        "{name}: decisions vs baseline cordon"
    );
    assert_eq!(
        hld.metrics.rounds as usize, height,
        "{name}: rounds == height"
    );
    assert_eq!(
        hld.metrics.frontier_sizes, baseline.metrics.frontier_sizes,
        "{name}: identical depth frontiers"
    );
    // Shape-router property: whichever cordon the probe picks for this shape,
    // the routed run is indistinguishable from both alternatives on (d, best)
    // and on the round schedule — routing may only change wall clock/work.
    let auto = parallel_tree_glws(&inst, shape);
    assert_eq!(auto.d, naive.d, "{name}: routed values vs naive");
    assert_eq!(auto.best, naive.best, "{name}: routed decisions vs naive");
    assert_eq!(
        auto.metrics.frontier_sizes, baseline.metrics.frontier_sizes,
        "{name}: routed run keeps the depth frontiers"
    );
}

#[test]
fn hld_cordon_agrees_on_every_shape_with_convex_costs() {
    for seed in 0..3 {
        for (name, parent) in shapes(220, seed) {
            let lens = workloads::tree_edge_lengths(220, 4, seed + 50);
            check_agreement(name, parent, &lens, convex_w, CostShape::Convex);
        }
    }
}

#[test]
fn hld_cordon_agrees_on_every_shape_with_concave_costs() {
    for seed in 0..3 {
        for (name, parent) in shapes(220, seed) {
            let lens = workloads::tree_edge_lengths(220, 4, seed + 90);
            check_agreement(name, parent.clone(), &lens, concave_w, CostShape::Concave);
            check_agreement(name, parent, &lens, sqrt_w, CostShape::Concave);
        }
    }
}

/// The documented quadratic behaviour of the depth cordon: on an n-node path
/// each node rescans its whole ancestor chain, exactly n(n+1)/2 transition
/// evaluations.  A failing guard if anyone changes its work — the router
/// picks it only for shallow trees, where the rescan is short, and the
/// `edges_relaxed` count is what its cost estimate assumes.
#[test]
fn baseline_cordon_is_quadratic_on_a_path() {
    let n = 2_000usize;
    let parent = workloads::path_tree(n);
    let lens = vec![1u64; n + 1];
    let inst = TreeGlwsInstance::new(parent, &lens, 0, convex_w, |d, _| d);
    let r = solve(TreeGlwsCordon::new(&inst));
    assert_eq!(r.metrics.edges_relaxed, (n * (n + 1) / 2) as u64);
}

/// Work-bound regression guard (the acceptance bar of the Theorem 5.3 issue):
/// on a 100k-node path the HLD cordon must match the sequential 1-D GLWS
/// oracle exactly and keep its measured work under `C · n · log n`, which is
/// asymptotically (and here concretely, by ~250×) below the baseline cordon's
/// analytic n(n+1)/2 rescan count asserted above.
#[test]
fn hld_work_is_near_linear_on_a_100k_path() {
    let n = 100_000usize;
    let parent = workloads::path_tree(n);
    let lens = workloads::tree_edge_lengths(n, 3, 17);
    let inst = TreeGlwsInstance::new(parent, &lens, 7, convex_w, |d, _| d);
    let hld = solve(HldTreeGlwsCordon::new(&inst, CostShape::Convex));

    // On a path, Tree-GLWS is exactly the 1-D GLWS over the node distances:
    // the O(n log n) sequential Galil–Park algorithm is a feasible oracle at
    // this size (the naive ancestor scan would be 5·10^9 evaluations).
    let dist: Vec<u64> = inst.dist.clone();
    let oracle = sequential_convex_glws(&parallel_dp::glws::cost::ClosureCost::new(
        n,
        7,
        |j, i| convex_w(dist[j], dist[i]),
        |d, _| d,
    ));
    assert_eq!(hld.d, oracle.d, "HLD must match the sequential oracle");

    let log = (usize::BITS - n.leading_zeros()) as u64;
    let bound = 12 * n as u64 * log;
    assert!(
        hld.metrics.work_proxy() <= bound,
        "HLD work {} exceeds C·n·log n = {bound}",
        hld.metrics.work_proxy()
    );
    let baseline_analytic = (n as u64) * (n as u64 + 1) / 2;
    assert!(
        hld.metrics.work_proxy() * 100 < baseline_analytic,
        "HLD work {} is not asymptotically below the baseline's {}",
        hld.metrics.work_proxy(),
        baseline_analytic
    );
    assert_eq!(hld.metrics.rounds as usize, n, "a path has n depth levels");
}

/// Stall-guard coverage for the new instance, mirroring
/// `tests/engine_round_accounting.rs`: an impossible round budget must
/// surface the typed `StallError` with the shared message constants.
#[test]
fn hld_cordon_trips_the_typed_stall_guard() {
    use parallel_dp::core::{STALL_BUDGET_MSG, STALL_NO_PROGRESS_MSG};
    let parent = workloads::caterpillar_tree(300, 100, 5);
    let lens = workloads::tree_edge_lengths(300, 4, 5);
    let height = tree_height(&parent);
    let inst = TreeGlwsInstance::new(parent, &lens, 0, convex_w, |d, _| d);
    let err = CordonSolver::with_round_budget(height as u64 - 1)
        .try_run(HldTreeGlwsCordon::new(&inst, CostShape::Convex))
        .unwrap_err();
    match &err {
        StallError::BudgetExhausted {
            budget,
            states_finalized,
        } => {
            assert_eq!(*budget, height as u64 - 1);
            assert!(*states_finalized > 0, "earlier rounds did settle nodes");
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    assert!(err.to_string().contains(STALL_BUDGET_MSG));
    assert!(!err.to_string().contains(STALL_NO_PROGRESS_MSG));
    // The exact height succeeds and reports one round per level.
    let run = CordonSolver::with_round_budget(height as u64)
        .run(HldTreeGlwsCordon::new(&inst, CostShape::Convex));
    assert_eq!(run.metrics.rounds as usize, height);
}

/// The router's decisions on the unambiguous generator shapes, read off the
/// `EitherCordon` variant `tree_glws_cordon_auto` builds, plus the facade
/// solver driving that cordon directly — the integration path
/// `CordonSolver::run(tree_glws_cordon_auto(..))`.
#[test]
fn shape_router_decisions_and_solver_integration() {
    let n = 220usize;
    for (parent, to_hld, why) in [
        (
            workloads::path_tree(n),
            true,
            "a path must route to the work-efficient cordon",
        ),
        (
            workloads::star_tree(n),
            false,
            "a star must route to the ancestor-rescan cordon",
        ),
        (
            workloads::balanced_tree(n, 3),
            false,
            "a balanced tree must route to the ancestor-rescan cordon",
        ),
    ] {
        let lens = workloads::tree_edge_lengths(n, 4, 77);
        let height = tree_height(&parent);
        let inst = TreeGlwsInstance::new(parent, &lens, 3, convex_w, |d, _| d);
        let cordon = tree_glws_cordon_auto(&inst, CostShape::Convex);
        assert_eq!(matches!(cordon, EitherCordon::Second(_)), to_hld, "{why}");
        // Each router outcome through the facade solver, checked against
        // naive.
        let naive = naive_tree_glws(&inst);
        let run = CordonSolver::new().run(cordon);
        let (d, best) = run.output;
        assert_eq!(d, naive.d, "solver-driven routed cordon: values");
        assert_eq!(best, naive.best, "solver-driven routed cordon: decisions");
        assert_eq!(run.metrics.rounds as usize, height, "rounds == height");
    }
}

/// Heavier cross-shape stress at sizes where the baseline's O(n·h) is already
/// painful on deep shapes; `#[ignore]`-gated locally, run by the CI
/// `--include-ignored` step.
#[test]
#[ignore = "tree stress sweep; run via cargo test -- --ignored (CI's stress step does)"]
fn hld_stress_sweep_on_large_trees() {
    // Deep: caterpillar with a 10k spine (baseline does ~10^8 rescans).
    let n = 20_000usize;
    let parent = workloads::caterpillar_tree(n, n / 2, 11);
    let lens = workloads::tree_edge_lengths(n, 3, 11);
    let inst = TreeGlwsInstance::new(parent, &lens, 1, convex_w, |d, u| d + (u % 2) as i64);
    let base = solve(TreeGlwsCordon::new(&inst));
    let hld = solve(HldTreeGlwsCordon::new(&inst, CostShape::Convex));
    assert_eq!(hld.d, base.d);
    assert_eq!(hld.best, base.best);
    assert!(hld.metrics.work_proxy() * 10 < base.metrics.work_proxy());

    // Shallow: random attachment at 50k, convex and concave.
    let n = 50_000usize;
    let parent = workloads::random_attachment_tree(n, 23);
    let lens = workloads::tree_edge_lengths(n, 4, 23);
    let convex = TreeGlwsInstance::new(parent.clone(), &lens, 0, convex_w, |d, _| d);
    let base = solve(TreeGlwsCordon::new(&convex));
    let hld = solve(HldTreeGlwsCordon::new(&convex, CostShape::Convex));
    assert_eq!(hld.d, base.d);
    assert_eq!(hld.best, base.best);
    let concave = TreeGlwsInstance::new(parent, &lens, 0, concave_w, |d, _| d);
    let base = solve(TreeGlwsCordon::new(&concave));
    let hld = solve(HldTreeGlwsCordon::new(&concave, CostShape::Concave));
    assert_eq!(hld.d, base.d);
    assert_eq!(hld.best, base.best);
}
