//! Cross-crate integration tests: exercise the public facade end-to-end on the
//! workload generators, and check the relationships between problems that the
//! paper uses (LIS <-> LCS reduction, GLWS <-> k-GLWS, OAT <-> interval DP,
//! post-office workloads <-> Lemma 4.5 round counts).

use parallel_dp::prelude::*;
use parallel_dp::workloads;

#[test]
fn lis_lcs_reduction_round_trip() {
    // LIS of a sequence == LCS of the sequence with its sorted self (Sec. 3).
    let a = workloads::random_sequence(400, 1_000_000, 9);
    let lis = parallel_lis(&a);
    let mut sorted = a.clone();
    sorted.sort_unstable();
    let a32: Vec<i64> = a.clone();
    let lcs = parallel_lcs_of(&a32, &sorted);
    assert_eq!(lis.length, lcs.length);
}

#[test]
fn generated_lis_length_matches_request_and_rounds() {
    for &(n, k) in &[(2_000usize, 1usize), (2_000, 40), (2_000, 2_000)] {
        let a = workloads::lis_with_length(n, k, 5);
        let r = parallel_lis(&a);
        assert_eq!(r.length as usize, k);
        assert_eq!(r.metrics.rounds as usize, k);
        assert_eq!(sequential_lis(&a).length as usize, k);
    }
}

#[test]
fn post_office_workload_has_planted_depth() {
    for &(n, k) in &[(3_000usize, 3usize), (3_000, 60)] {
        let inst = workloads::post_office_instance(n, k, 1);
        let p = PostOfficeProblem::new(inst.coords, inst.open_cost);
        let par = parallel_convex_glws(&p);
        let seq = sequential_convex_glws(&p);
        assert_eq!(par.d, seq.d);
        assert_eq!(par.decision_depth(n), k, "optimal office count");
        assert_eq!(par.metrics.rounds as usize, k, "Lemma 4.5: rounds == k");
    }
}

#[test]
fn kglws_at_optimal_k_matches_unconstrained_glws() {
    let inst = workloads::post_office_instance(800, 7, 3);
    let p = PostOfficeProblem::new(inst.coords, inst.open_cost);
    let free = parallel_convex_glws(&p);
    let k = free.decision_depth(800);
    let fixed = parallel_kglws(&p, k);
    assert_eq!(fixed.total_cost(), free.d[800]);
    // Fewer clusters than optimal can only cost more.
    if k > 1 {
        assert!(parallel_kglws(&p, k - 1).total_cost() >= free.d[800]);
    }
}

#[test]
fn lcs_workload_pairs_reproduce_requested_k() {
    for &(l, k) in &[(5_000usize, 17usize), (5_000, 500)] {
        let pairs: Vec<MatchPair> = workloads::lcs_pairs_with(l, k, 8)
            .into_iter()
            .map(|(i, j)| MatchPair { i, j })
            .collect();
        let par = parallel_sparse_lcs(&pairs);
        let seq = sequential_sparse_lcs(&pairs);
        assert_eq!(par.length as usize, k);
        assert_eq!(seq.length as usize, k);
        assert_eq!(par.metrics.rounds as usize, k);
    }
}

#[test]
fn oat_and_obst_interval_dps_agree() {
    // Garsia–Wachs and the OBST crate's interval DP compute the same
    // quantity on leaf weights.
    let w = workloads::positive_weights(300, 10_000, 6);
    assert_eq!(garsia_wachs(&w).cost, parallel_obst(&w).cost);
}

#[test]
fn gap_of_identical_strings_is_free_and_lcs_is_full() {
    let (a, _) = workloads::gap_strings(300, 300, 4, 2);
    let inst = convex_gap_instance(&a, &a, 5, 1, 1);
    assert_eq!(parallel_gap(&inst).cost, 0);
    assert_eq!(parallel_lcs_of(&a, &a).length as usize, a.len());
}

#[test]
fn tree_glws_on_a_path_equals_sequence_glws() {
    let n = 300usize;
    let parent: Vec<usize> = (0..=n).map(|v| v.saturating_sub(1)).collect();
    let lens = vec![1u64; n + 1];
    let tree = TreeGlwsInstance::new(
        parent,
        &lens,
        0,
        |du, dv| {
            let len = (dv - du) as i64;
            50 + len * len
        },
        |d, _| d,
    );
    let tree_res = parallel_tree_glws(&tree, CostShape::Convex);
    let line = ConvexGapCost::new(n, 50, 0, 1);
    let line_res = parallel_convex_glws(&line);
    assert_eq!(tree_res.d, line_res.d);
}

#[test]
fn explicit_dag_cordon_reproduces_lis_frontiers() {
    // Theorem 2.1 cross-check: the generic cordon driver on the explicit LIS
    // DAG finalizes states in the same rounds as the specialized algorithm.
    use parallel_dp::core::{EdgeWeightedDag, Objective};
    let a = workloads::random_sequence(80, 1000, 4);
    let mut dag = EdgeWeightedDag::new(a.len(), Objective::Maximize);
    for i in 0..a.len() {
        dag.set_boundary(i, 1);
        for j in 0..i {
            if a[j] < a[i] {
                dag.add_edge(j, i, 1);
            }
        }
    }
    let run = dag.solve_cordon();
    let lis = parallel_lis(&a);
    assert_eq!(run.rounds() as u32, lis.length);
    let values: Vec<u32> = run.values.iter().map(|&v| v as u32).collect();
    assert_eq!(values, lis.d);
}

#[test]
fn with_threads_controls_the_pool() {
    let inst = workloads::post_office_instance(20_000, 100, 4);
    let p = PostOfficeProblem::new(inst.coords, inst.open_cost);
    let multi = parallel_convex_glws(&p);
    let single = with_threads(1, || parallel_convex_glws(&p));
    assert_eq!(multi.d, single.d);
    assert_eq!(multi.metrics.rounds, single.metrics.rounds);
}
