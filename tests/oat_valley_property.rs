//! Cross-validation of the polylog-round valley OAT (Theorem 5.1), which
//! `parallel_oat` runs at every size, against both sequential oracles on
//! random and adversarial weight profiles and on every size up to 70
//! leaves, plus the Lemma 5.1 round-count assertion that separates it from
//! the interval DP's `n - 1` rounds.

use parallel_dp::oat::{garsia_wachs, oat_height_bound, parallel_oat, ValleyOatCordon};
use parallel_dp::obst::{knuth_obst, ObstCordon};
use parallel_dp::workloads;
use parallel_dp::CordonSolver;

/// A depth sequence is realizable as an ordered full binary tree iff the
/// classic stack merge reduces it to a single root of depth 0.
fn alphabetically_realizable(depths: &[u32]) -> bool {
    let mut stack: Vec<u32> = Vec::new();
    for &d in depths {
        let mut cur = d;
        while stack.last() == Some(&cur) {
            if cur == 0 {
                return false;
            }
            stack.pop();
            cur -= 1;
        }
        stack.push(cur);
    }
    stack == [0]
}

fn check_profile(name: &str, w: &[u64]) {
    let valley = parallel_oat(w);
    let gw = garsia_wachs(w);
    assert_eq!(
        valley.cost, gw.cost,
        "{name}: cost disagrees with Garsia–Wachs"
    );
    let recomputed: u64 = w
        .iter()
        .zip(&valley.depths)
        .map(|(&a, &d)| a * d as u64)
        .sum();
    assert_eq!(
        recomputed, valley.cost,
        "{name}: depths must attain the cost"
    );
    if !w.is_empty() {
        assert!(
            alphabetically_realizable(&valley.depths),
            "{name}: depth vector is not realizable as an ordered tree"
        );
        assert_eq!(
            Some(&valley.height),
            valley.depths.iter().max(),
            "{name}: height must be max depth"
        );
    }
    assert!(
        valley.height <= oat_height_bound(w),
        "{name}: height {} exceeds the Lemma 5.1 bound",
        valley.height
    );
    // Theorem 5.1's point: rounds are bounded by the same O(log W) quantity
    // as the tree height (the combine threshold doubles every round), not by
    // n - 1 like the interval DP.
    assert!(
        valley.metrics.rounds <= oat_height_bound(w) as u64,
        "{name}: rounds {} exceed the Lemma 5.1 budget {}",
        valley.metrics.rounds,
        oat_height_bound(w)
    );
    assert_eq!(
        valley.metrics.states_finalized,
        w.len().saturating_sub(1) as u64
    );
}

#[test]
fn valley_oat_matches_oracles_on_random_profiles() {
    for seed in 0..4 {
        for &n in &[100usize, 500, 2_000] {
            let w = workloads::positive_weights(n, 1 << 16, seed);
            check_profile("random", &w);
            // Quadratic oracle only at the smaller sizes.
            if n <= 500 {
                assert_eq!(parallel_oat(&w).cost, knuth_obst(&w).cost);
            }
        }
        let s = workloads::skewed_weights(800, 1 << 20, 64, seed);
        check_profile("skewed", &s);
    }
}

#[test]
fn valley_oat_matches_oracles_on_adversarial_profiles() {
    check_profile("equal", &workloads::equal_weights(2_048, 9));
    check_profile("equal-odd", &workloads::equal_weights(1_777, 3));
    check_profile("exponential", &workloads::exponential_weights(600, 2, 40));
    check_profile("exponential-3", &workloads::exponential_weights(600, 3, 25));
    check_profile("valley", &workloads::valley_weights(3_000, 1 << 16, 11));
    check_profile("mountain", &workloads::mountain_weights(3_000, 1 << 16, 11));
}

#[test]
fn parallel_oat_matches_oracles_at_every_small_size() {
    // The sizes where `parallel_oat` once ran the interval DP instead.
    for n in 0..=70 {
        for seed in 0..20 {
            let w = workloads::positive_weights(n, 1 << 16, seed);
            check_profile(&format!("random n {n} seed {seed}"), &w);
            assert_eq!(
                parallel_oat(&w).cost,
                knuth_obst(&w).cost,
                "n {n} seed {seed}"
            );
        }
        let profiles = [
            ("equal", workloads::equal_weights(n, 9)),
            ("exponential", workloads::exponential_weights(n, 2, 40)),
            ("exponential-3", workloads::exponential_weights(n, 3, 25)),
        ];
        for (name, w) in profiles {
            check_profile(&format!("{name} n {n}"), &w);
            assert_eq!(parallel_oat(&w).cost, knuth_obst(&w).cost, "{name} n {n}");
        }
    }
}

#[test]
fn valley_rounds_are_polylog_where_the_interval_cordon_is_linear() {
    let w = workloads::positive_weights(4_000, 1 << 16, 5);
    let valley = CordonSolver::new().run(ValleyOatCordon::new(&w));
    // The interval DP on the leaf weights: OBST's diagonal cordon.
    let interval = CordonSolver::new().run(ObstCordon::new(&w));
    assert_eq!(valley.output.cost, interval.output);
    assert_eq!(
        interval.metrics.rounds, 3_999,
        "interval cordon: one round per diagonal"
    );
    assert!(
        valley.metrics.rounds < 100,
        "valley cordon rounds {} must be polylog, not linear",
        valley.metrics.rounds
    );
}
