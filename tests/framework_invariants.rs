//! Invariant tests for the Cordon framework itself (Theorem 2.1) and the
//! shared substrates, run through the public facade.

use parallel_dp::core::{prefix_doubling_cordon, EdgeWeightedDag, Objective};
use parallel_dp::prelude::*;
use parallel_dp::tournament::StaircaseCordon;

#[test]
fn cordon_equals_topological_on_random_layered_dags() {
    for seed in 0..20u64 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 60;
        let objective = if seed % 2 == 0 {
            Objective::Minimize
        } else {
            Objective::Maximize
        };
        let mut dag = EdgeWeightedDag::new(n, objective);
        dag.set_boundary(0, 0);
        for i in 1..n {
            if next() % 3 == 0 {
                dag.set_boundary(i, (next() % 50) as i64);
            }
            for j in i.saturating_sub(8)..i {
                if next() % 3 == 0 {
                    dag.add_edge(j, i, (next() % 21) as i64 - 10);
                }
            }
        }
        let run = dag.solve_cordon();
        assert_eq!(run.values, dag.solve_topological(), "seed {seed}");
        // Every state is finalized exactly once.
        let mut seen = vec![false; n];
        for frontier in &run.frontiers {
            for &s in frontier {
                assert!(!seen[s], "state {s} finalized twice");
                seen[s] = true;
            }
        }
        assert!(seen.into_iter().all(|x| x));
    }
}

#[test]
fn prefix_doubling_waste_is_bounded() {
    // Wasted probes never exceed useful probes plus one batch, for any
    // sentinel position.
    let n = 4096;
    for sentinel_at in [2usize, 3, 10, 100, 1000, 4096] {
        let (cordon, stats) = prefix_doubling_cordon(0, n, |lo, hi| {
            if (lo..=hi).contains(&(sentinel_at - 1)) {
                Some(sentinel_at)
            } else {
                None
            }
        });
        assert_eq!(cordon, sentinel_at);
        let useful = cordon - 1;
        assert!(
            stats.wasted <= useful + 1,
            "sentinel {sentinel_at}: wasted {} useful {useful}",
            stats.wasted
        );
    }
}

#[test]
fn tournament_tree_drains_in_lis_rounds() {
    // The tournament tree, run as its public staircase cordon, takes one
    // LIS level a round: as many rounds as patience sorting's length, and
    // every position taken once, in a round of its own range.
    let a = parallel_dp::workloads::random_sequence(5_000, 1 << 20, 77);
    let cordon = StaircaseCordon::new(a.len(), |first, out: &mut [i64]| {
        out.copy_from_slice(&a[first..first + out.len()]);
    });
    let run = CordonSolver::new().run(cordon);
    let (values, rounds) = run.output;
    assert_eq!(rounds, sequential_lis(&a).length);
    assert_eq!(run.metrics.rounds, u64::from(rounds));
    assert_eq!(
        run.metrics.frontier_sizes.iter().sum::<u64>(),
        a.len() as u64
    );
    assert!(values.iter().all(|&v| (1..=rounds).contains(&v)));
}

#[test]
fn metrics_work_proxy_scales_near_linearly_for_glws() {
    // Doubling n should roughly double the parallel work proxy (within 3x),
    // supporting the O(n log n) work claim.
    let run = |n: usize| {
        let inst = parallel_dp::workloads::post_office_instance(n, 64, 9);
        let p = PostOfficeProblem::new(inst.coords, inst.open_cost);
        parallel_convex_glws(&p).metrics.work_proxy()
    };
    let w1 = run(20_000);
    let w2 = run(40_000);
    assert!(w2 < w1 * 3, "work grew super-linearly: {w1} -> {w2}");
}
