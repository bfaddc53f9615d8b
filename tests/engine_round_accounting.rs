//! Round-accounting tests for the unified phase-parallel engine: the paper's
//! round-count theorems asserted *through the shared driver*, the per-round
//! frontier telemetry every parallel algorithm now reports, and the typed
//! stall guard.

use parallel_dp::oat::interval_dp_oat;
use parallel_dp::prelude::*;
use parallel_dp::workloads;

/// frontier_sizes must be one entry per round and sum to the states the
/// driver finalized.
fn assert_frontier_telemetry_consistent(m: &Metrics) {
    assert_eq!(m.frontier_sizes.len() as u64, m.rounds);
    assert_eq!(m.frontier_sizes.iter().sum::<u64>(), m.states_finalized);
    assert!(m.frontier_sizes.iter().all(|&f| f > 0));
}

#[test]
fn lis_rounds_equal_lis_length_through_the_driver() {
    // Theorem 3.1: the cordon LIS finishes in exactly k rounds.
    for &(n, k) in &[(2_000usize, 1usize), (2_000, 37), (2_000, 2_000)] {
        let a = workloads::lis_with_length(n, k, 5);
        let run = CordonSolver::new().run(LisCordon::new(&a));
        let (_, length) = run.output;
        assert_eq!(length as usize, k);
        assert_eq!(run.metrics.rounds as usize, k);
        assert_frontier_telemetry_consistent(&run.metrics);
        assert_eq!(run.metrics.states_finalized as usize, n);
    }
}

#[test]
fn convex_glws_rounds_equal_segment_count_through_the_driver() {
    // Lemma 4.5: the convex cordon runs in exactly as many rounds as the
    // number of segments (post offices) in the optimal solution.
    for &(n, k) in &[(3_000usize, 3usize), (3_000, 57)] {
        let inst = workloads::post_office_instance(n, k, 1);
        let p = PostOfficeProblem::new(inst.coords, inst.open_cost);
        let result = parallel_convex_glws(&p);
        assert_eq!(result.decision_depth(n), k, "optimal segment count");
        assert_eq!(result.metrics.rounds as usize, k, "rounds == #segments");
        assert_eq!(result.metrics.rounds as usize, result.perfect_depth());
        assert_frontier_telemetry_consistent(&result.metrics);
    }
}

#[test]
fn every_parallel_algorithm_reports_per_round_frontiers() {
    // LIS
    let a = workloads::random_sequence(500, 1 << 16, 3);
    assert_frontier_telemetry_consistent(&parallel_lis(&a).metrics);

    // Sparse LCS
    let pairs: Vec<MatchPair> = workloads::lcs_pairs_with(400, 23, 4)
        .into_iter()
        .map(|(i, j)| MatchPair { i, j })
        .collect();
    assert_frontier_telemetry_consistent(&parallel_sparse_lcs(&pairs).metrics);

    // Convex GLWS
    let inst = workloads::post_office_instance(600, 9, 5);
    let p = PostOfficeProblem::new(inst.coords, inst.open_cost);
    assert_frontier_telemetry_consistent(&parallel_convex_glws(&p).metrics);

    // Concave GLWS
    let c = ConcaveGapCost::new(300, 20, 3);
    assert_frontier_telemetry_consistent(&parallel_concave_glws(&c).metrics);

    // k-GLWS: one round per layer, each frontier spanning a full layer.
    let kg = parallel_kglws(&p, 4);
    assert_eq!(kg.metrics.rounds, 4);
    assert_frontier_telemetry_consistent(&kg.metrics);

    // GAP: packed safe sets, no more rounds than the grid's n + m
    // anti-diagonals.
    let (s1, s2) = workloads::gap_strings(40, 35, 4, 7);
    let gi = convex_gap_instance(&s1, &s2, 4, 1, 1);
    let gr = parallel_gap(&gi);
    assert!(gr.metrics.rounds as usize <= 40 + 35);
    assert_eq!(gr.metrics.states_finalized, 41 * 36 - 1);
    assert_frontier_telemetry_consistent(&gr.metrics);

    // Tree-GLWS: one frontier per depth level — for both the depth cordon
    // and the work-efficient heavy-light one, which share their frontiers,
    // and for the router that picks between them.
    let parent = workloads::random_tree(300, 60, 9);
    let lens = workloads::tree_edge_lengths(300, 4, 9);
    let ti = TreeGlwsInstance::new(
        parent,
        &lens,
        0,
        |du, dv| {
            let len = (dv - du) as i64;
            12 + len * len
        },
        |d, _| d,
    );
    let tree_base = CordonSolver::new().run(TreeGlwsCordon::new(&ti));
    assert_frontier_telemetry_consistent(&tree_base.metrics);
    let tree_hld = CordonSolver::new().run(HldTreeGlwsCordon::new(&ti, CostShape::Convex));
    assert_frontier_telemetry_consistent(&tree_hld.metrics);
    assert_eq!(
        tree_hld.metrics.frontier_sizes,
        tree_base.metrics.frontier_sizes
    );
    let tree_routed = parallel_tree_glws(&ti, CostShape::Convex);
    assert_eq!(
        tree_routed.metrics.frontier_sizes,
        tree_base.metrics.frontier_sizes
    );

    // OBST: one frontier per diagonal.
    let w = workloads::positive_weights(60, 1000, 2);
    let ob = parallel_obst(&w);
    assert_eq!(ob.metrics.rounds, 59);
    assert_frontier_telemetry_consistent(&ob.metrics);

    // OAT below the router's cut, through the same interval cordon.
    assert_frontier_telemetry_consistent(&parallel_oat(&w).metrics);

    // OAT above the cut, through the valley cordon (Theorem 5.1): frontiers
    // are combines per weight-doubling round, summing to n - 1 total
    // combines in O(log W) rounds.
    let vw = workloads::positive_weights(500, 1 << 12, 2);
    let valley = parallel_oat(&vw);
    assert_frontier_telemetry_consistent(&valley.metrics);
    assert_eq!(valley.metrics.states_finalized, 499);
    assert!(
        valley.metrics.rounds <= oat_height_bound(&vw) as u64,
        "valley rounds {} exceed the Lemma 5.1 budget",
        valley.metrics.rounds
    );

    // The explicit-DAG reference.
    use parallel_dp::core::{EdgeWeightedDag, Objective};
    let mut dag = EdgeWeightedDag::new(50, Objective::Maximize);
    let seq = workloads::random_sequence(50, 100, 11);
    for i in 0..50 {
        dag.set_boundary(i, 1);
        for j in 0..i {
            if seq[j] < seq[i] {
                dag.add_edge(j, i, 1);
            }
        }
    }
    assert_frontier_telemetry_consistent(&dag.solve_cordon().metrics);
}

#[test]
fn kglws_frontier_sizes_are_the_layer_widths() {
    let inst = workloads::post_office_instance(100, 5, 8);
    let p = PostOfficeProblem::new(inst.coords, inst.open_cost);
    let r = parallel_kglws(&p, 3);
    // Layer k' holds the states k'..=n: n + 1 - k' of them.
    assert_eq!(r.metrics.frontier_sizes, vec![100, 99, 98]);
}

/// Claims one state every round and is never done, so only its budget of
/// 10 rounds stops it.
struct Spinner;

impl PhaseParallel for Spinner {
    type Output = ();
    fn is_done(&self) -> bool {
        false
    }
    fn round(&mut self, _metrics: &MetricsCollector) -> usize {
        1
    }
    fn finish(self) {}
    fn round_budget(&self) -> Option<u64> {
        Some(10)
    }
}

/// Finalizes one state in each of its first 3 rounds, then none.
struct Stalls {
    rounds: u64,
}

impl PhaseParallel for Stalls {
    type Output = ();
    fn is_done(&self) -> bool {
        false
    }
    fn round(&mut self, _metrics: &MetricsCollector) -> usize {
        self.rounds += 1;
        usize::from(self.rounds <= 3)
    }
    fn finish(self) {}
}

#[test]
fn cordon_solver_budget_trips_the_typed_stall_guard() {
    let err = CordonSolver::new().try_run(Spinner).unwrap_err();
    assert_eq!(
        err,
        StallError::BudgetExhausted {
            budget: 10,
            states_finalized: 10
        }
    );
}

#[test]
fn cordon_solver_no_progress_trips_the_typed_stall_guard() {
    let err = CordonSolver::new()
        .try_run(Stalls { rounds: 0 })
        .unwrap_err();
    assert_eq!(
        err,
        StallError::NoProgress {
            rounds_completed: 3
        }
    );
}

#[test]
fn hld_tree_cordon_budget_equals_height_through_the_driver() {
    // The work-efficient Tree-GLWS keeps the baseline's round theorem:
    // exactly one round per depth level, and the driver's budget guard is
    // armed with the height.
    let parent = workloads::caterpillar_tree(400, 120, 2);
    let lens = workloads::tree_edge_lengths(400, 3, 2);
    let inst = TreeGlwsInstance::new(
        parent,
        &lens,
        0,
        |du, dv| {
            let len = (dv - du) as i64;
            9 + len * len
        },
        |d, _| d,
    );
    let cordon = HldTreeGlwsCordon::new(&inst, CostShape::Convex);
    let budget = cordon.round_budget();
    let run = CordonSolver::new().run(cordon);
    assert_frontier_telemetry_consistent(&run.metrics);
    assert_eq!(budget, Some(run.metrics.rounds));
}

#[test]
fn valley_oat_cordon_budget_and_router_through_the_driver() {
    // The valley cordon arms the driver's budget guard with its doubling
    // bound (<= log2(total weight) + O(1) rounds, far below n - 1); the
    // solver must run it — and the size-routed EitherCordon — like any
    // other instance.
    let w = workloads::valley_weights(3_000, 1 << 14, 4);
    let cordon = ValleyOatCordon::new(&w);
    let budget = cordon.round_budget();
    let run = CordonSolver::new().run(cordon);
    assert_frontier_telemetry_consistent(&run.metrics);
    assert_eq!(run.metrics.states_finalized, 2_999);
    assert!(
        run.metrics.rounds < 60,
        "rounds {} not polylog",
        run.metrics.rounds
    );
    assert_eq!(run.output.cost, interval_dp_oat(&w));

    // The doubling bound is not tight: 29 rounds here against 21 run.
    let budget = budget.expect("the valley cordon declares a budget");
    assert!(
        run.metrics.rounds <= budget && budget < 60,
        "budget {budget} must bound the {} rounds, far below n - 1",
        run.metrics.rounds
    );

    let routed = CordonSolver::new().run(oat_cordon_auto(&w));
    assert_eq!(routed.output, run.output);
    assert_eq!(routed.metrics.rounds, run.metrics.rounds);
}

#[test]
fn stall_errors_render_the_shared_message_constants() {
    use parallel_dp::core::{STALL_BUDGET_MSG, STALL_NO_PROGRESS_MSG};
    let no_progress = StallError::NoProgress {
        rounds_completed: 7,
    };
    assert!(no_progress.to_string().contains(STALL_NO_PROGRESS_MSG));
    let budget = StallError::BudgetExhausted {
        budget: 3,
        states_finalized: 12,
    };
    assert!(budget.to_string().contains(STALL_BUDGET_MSG));
}

#[test]
fn solver_metrics_match_the_wrapper_functions() {
    // CordonSolver::run and the per-problem wrappers drive the same engine,
    // so their telemetry must agree exactly.
    let a = workloads::random_sequence(800, 1 << 12, 13);
    let via_wrapper = parallel_lis(&a);
    let via_solver = CordonSolver::new().run(LisCordon::new(&a));
    assert_eq!(via_solver.metrics, via_wrapper.metrics);
    let (d, length) = via_solver.output;
    assert_eq!(d, via_wrapper.d);
    assert_eq!(length, via_wrapper.length);
}
