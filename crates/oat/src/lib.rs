//! Optimal Alphabetic Trees (Sec. 5.1, Theorem 5.1).
//!
//! Given leaf weights `a[1..n]`, the OAT is the binary tree with those leaves
//! in order minimizing `Σ a_i · depth_i`.  This crate provides
//!
//! * [`garsia_wachs`] — the classic sequential algorithm, implemented here in
//!   `O(n²)` as the valley cordon's sequential sweep with no threshold:
//!   repeatedly combine the leftmost locally minimal pair and reinsert the
//!   combined node before the first later element at least as heavy; the
//!   resulting *l-tree* has the same leaf levels as the OAT (phase 2 of
//!   Garsia–Wachs / Hu–Tucker), so cost and height are read directly off the
//!   l-tree,
//! * [`oat_height_bound`] — the `O(log W)` height bound of Lemma 5.1, which is
//!   what turns Theorem 5.1 into a polylog-span algorithm for word-sized
//!   integer weights (Corollary 5.1.1).
//!
//! The `O(n²)` Knuth interval DP for the same cost is `pardp-obst`'s
//! `knuth_obst` (the OBST connection of Sec. 5.5); this crate's tests use
//! it as the exact oracle, and its `check_weights` refuses weights for both.
//!
//! [`parallel_oat`] runs [`ValleyOatCordon`], the polylog-round
//! construction of Theorem 5.1 (the [`valley`] module), through the shared
//! `run_phase_parallel` driver at every size: each weight-doubling round
//! splits the current sequence into its maximal nondecreasing runs (the
//! ascending valley slopes around its local minima; no Cartesian tree is
//! built) and replays independent Garsia–Wachs combines in parallel across
//! the runs, finishing in `O(log W)` rounds instead of the interval DP's
//! `n - 1`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// DP recurrences read most naturally with explicit state indices.
#![allow(clippy::needless_range_loop)]

pub mod valley;

pub use pardp_obst::WeightError;
pub use valley::{oat_cordon_auto, OatLayout, ValleyOatCordon};

use pardp_core::{run_phase_parallel, PhaseParallel};
use pardp_obst::check_weights;
use pardp_parutils::{Metrics, MetricsCollector};

/// Result of an OAT construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OatResult {
    /// Optimal cost `Σ a_i · depth_i`.
    pub cost: u64,
    /// Depth of every leaf in the optimal tree (root depth 0).
    pub depths: Vec<u32>,
    /// Height of the tree (`max(depths)`).
    pub height: u32,
    /// Work counters.
    pub metrics: Metrics,
}

/// The Garsia–Wachs algorithm, following the description in Appendix A.1 of
/// the paper: [`ValleyOatCordon`]'s sequential sweep with no threshold, which
/// combines the leftmost locally minimal pair until one l-tree is left.  The
/// l-tree's leaf levels equal the OAT's leaf depths, so cost and height are
/// read off directly.
///
/// `O(n²)` work: the search for the next pair resumes two pairs before the
/// last combine, but each combine still scans for its reinsertion point and
/// shifts a `Vec` to remove and reinsert.  Garsia and Wachs' own
/// `O(n log n)` bound needs a balanced structure for the reinsertion, which
/// this version does not have.  Panics with the [`WeightError`] message
/// where [`ValleyOatCordon::new`] does.
pub fn garsia_wachs(weights: &[u64]) -> OatResult {
    let metrics = MetricsCollector::new();
    let mut cordon = ValleyOatCordon::new(weights);
    let (combines, edges) = cordon.sweep(u64::MAX);
    // One state per combine: the n - 1 internal nodes.
    metrics.add_states(combines as u64);
    metrics.add_edges(edges);
    oat_result(cordon.finish(), &metrics)
}

/// Parallel OAT through [`ValleyOatCordon`]: polylog rounds (Theorem 5.1)
/// at every size.  Produces the same cost as [`garsia_wachs`] and as
/// `pardp-obst`'s interval DP on the same leaf weights, plus the leaf depths.
/// Panics with the [`WeightError`] message where [`ValleyOatCordon::new`]
/// does.
pub fn parallel_oat(weights: &[u64]) -> OatResult {
    let metrics = MetricsCollector::new();
    let layout = run_phase_parallel(ValleyOatCordon::new(weights), &metrics);
    oat_result(layout, &metrics)
}

fn oat_result(OatLayout { cost, depths }: OatLayout, metrics: &MetricsCollector) -> OatResult {
    let height = depths.iter().copied().max().unwrap_or(0);
    OatResult {
        cost,
        depths,
        height,
        metrics: metrics.snapshot(),
    }
}

/// The height bound of Lemma 5.1: for positive integer weights, the OAT
/// height is `O(log(total weight / min weight))` —
/// concretely at most `3 · (log₂(total) - log₂(min)) + 3`, because the subtree
/// weight at least doubles every three levels up.  Panics with the
/// [`WeightError`] message where the solvers do.
pub fn oat_height_bound(weights: &[u64]) -> u32 {
    let total = match check_weights(weights) {
        Ok(total) => total,
        #[expect(
            clippy::panic,
            reason = "documented panicking bound (see the docs above)"
        )]
        Err(err) => panic!("{err}"),
    };
    let min = weights.iter().copied().min().unwrap_or(1).max(1);
    if total == 0 {
        return 0;
    }
    let ratio_log = (64 - (total / min).leading_zeros()).max(1);
    3 * ratio_log + 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardp_obst::{knuth_obst, naive_obst};

    fn pseudo_weights(n: usize, seed: u64, max_w: u64) -> Vec<u64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % max_w + 1
            })
            .collect()
    }

    #[test]
    fn matches_interval_dp_on_small_inputs() {
        for seed in 0..10 {
            for &n in &[1usize, 2, 3, 4, 5, 8, 13, 20, 40, 80] {
                let w = pseudo_weights(n, seed, 50);
                let gw = garsia_wachs(&w);
                let want = knuth_obst(&w).cost;
                assert_eq!(gw.cost, want, "n {n} seed {seed} weights {w:?}");
                // Cost recomputed from the reported depths must agree too.
                let recomputed: u64 = w.iter().zip(&gw.depths).map(|(&a, &d)| a * d as u64).sum();
                assert_eq!(recomputed, gw.cost);
            }
        }
    }

    /// Garsia–Wachs as this crate ran it before its search resumed: each
    /// combine searches for the leftmost locally minimal pair from the
    /// front.  Returns the leaf depths.
    fn rescanning_garsia_wachs(weights: &[u64]) -> Vec<u32> {
        // (weight, tree): leaves are `-(i + 1)`, packages their node index.
        let mut seq: Vec<(u64, isize)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (w, -(i as isize) - 1))
            .collect();
        let mut children: Vec<(isize, isize)> = Vec::new();
        while seq.len() > 1 {
            let two_sum = |s: &[(u64, isize)], i: usize| s[i].0 + s[i + 1].0;
            let last = seq.len() - 2;
            let mut pick = last;
            for i in 0..=last {
                let left_ok = i == 0 || two_sum(&seq, i - 1) > two_sum(&seq, i);
                let right_ok = i == last || two_sum(&seq, i) <= two_sum(&seq, i + 1);
                if left_ok && right_ok {
                    pick = i;
                    break;
                }
            }
            let x = two_sum(&seq, pick);
            children.push((seq[pick].1, seq[pick + 1].1));
            seq.drain(pick..=pick + 1);
            let q = pick + seq[pick..].iter().take_while(|it| it.0 < x).count();
            seq.insert(q, (x, children.len() as isize - 1));
        }
        let mut depths = vec![0u32; weights.len()];
        let mut stack: Vec<(isize, u32)> = seq.iter().map(|it| (it.1, 0)).collect();
        while let Some((tree, depth)) = stack.pop() {
            if tree < 0 {
                depths[(-tree - 1) as usize] = depth;
            } else {
                let (l, r) = children[tree as usize];
                stack.extend([(l, depth + 1), (r, depth + 1)]);
            }
        }
        depths
    }

    #[test]
    fn resumed_search_builds_the_rescanning_tree() {
        // Caps 1 and 3 tie many 2-sums, where the leftmost rule decides the
        // tree; 2^16 gives distinct sums.
        for cap in [1u64, 3, 1 << 16] {
            for seed in 0..20 {
                for n in 0..=70 {
                    let w = pseudo_weights(n, seed, cap);
                    assert_eq!(
                        garsia_wachs(&w).depths,
                        rescanning_garsia_wachs(&w),
                        "cap {cap} seed {seed} weights {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn weights_past_the_cost_bound_are_refused() {
        // Eight leaves of u64::MAX / 4 weigh about 2 · u64::MAX; wrapped,
        // both solvers used to return 9 223 372 036 854 775 782.
        let heavy = [u64::MAX / 4; 8];
        assert_eq!(
            ValleyOatCordon::try_new(&heavy).err(),
            Some(WeightError::TotalOverflow)
        );
        let want = WeightError::TotalOverflow.to_string();
        let refusals = [
            std::panic::catch_unwind(|| garsia_wachs(&heavy)).err(),
            std::panic::catch_unwind(|| parallel_oat(&heavy)).err(),
            std::panic::catch_unwind(|| oat_height_bound(&heavy)).err(),
        ];
        for err in refusals {
            assert_eq!(err.unwrap().downcast_ref::<String>(), Some(&want));
        }
        // Accepted inputs at the bound match the naive interval DP, whose
        // debug build checks every sum it forms: two leaves weighing
        // u64::MAX, whose 2-sum rounds past the largest power of two, a
        // balanced eight and a skewed eight with 3 · total near u64::MAX.
        let unit = u64::MAX / 24;
        let mut balanced = vec![unit; 8];
        balanced[0] += (u64::MAX - 24 * unit) / 3;
        let skewed = [1u64, 2, 3, 5, 8, 13, 21, 34].map(|f| f * (u64::MAX / (3 * 87)));
        for w in [
            vec![u64::MAX / 2 + 1, u64::MAX / 2],
            balanced,
            skewed.to_vec(),
        ] {
            let want = naive_obst(&w).cost;
            assert_eq!(garsia_wachs(&w).cost, want, "{w:?}");
            assert_eq!(parallel_oat(&w).cost, want, "{w:?}");
        }
    }

    #[test]
    fn equal_weights_give_balanced_tree() {
        let w = vec![7u64; 16];
        let r = garsia_wachs(&w);
        assert_eq!(r.height, 4);
        assert!(r.depths.iter().all(|&d| d == 4));
        assert_eq!(r.cost, 7 * 4 * 16);
    }

    #[test]
    fn skewed_weights_give_skewed_tree() {
        // Exponentially growing weights: the optimal tree is a caterpillar.
        let w: Vec<u64> = (0..12).map(|i| 1u64 << i).collect();
        let r = garsia_wachs(&w);
        assert_eq!(r.cost, knuth_obst(&w).cost);
        assert!(r.height >= 10, "height {} should be near n", r.height);
    }

    #[test]
    fn depths_satisfy_kraft_equality() {
        // Leaf depths of a full binary tree satisfy Σ 2^{-d} = 1.
        for seed in 0..5 {
            let w = pseudo_weights(33, seed, 1000);
            let r = garsia_wachs(&w);
            let kraft: f64 = r.depths.iter().map(|&d| 0.5f64.powi(d as i32)).sum();
            assert!((kraft - 1.0).abs() < 1e-9, "Kraft sum {kraft}");
        }
    }

    #[test]
    fn height_respects_lemma_5_1_bound() {
        for seed in 0..5 {
            for &max_w in &[1u64, 10, 1000, 1 << 20] {
                let w = pseudo_weights(500, seed, max_w);
                let r = garsia_wachs(&w);
                assert!(
                    r.height <= oat_height_bound(&w),
                    "height {} exceeds bound {} (max_w {max_w})",
                    r.height,
                    oat_height_bound(&w)
                );
            }
        }
    }

    #[test]
    fn trivial_sizes() {
        assert_eq!(garsia_wachs(&[]).cost, 0);
        let one = garsia_wachs(&[5]);
        assert_eq!(one.cost, 0);
        assert_eq!(one.depths, vec![0]);
        let two = garsia_wachs(&[3, 9]);
        assert_eq!(two.cost, 12);
        assert_eq!(two.depths, vec![1, 1]);
    }

    #[test]
    fn hand_checked_example() {
        // Weights 1,2,3: optimum ((1,2),3) with cost 9 (cf. the OBST crate).
        let r = garsia_wachs(&[1, 2, 3]);
        assert_eq!(r.cost, 9);
        assert_eq!(r.depths, vec![2, 2, 1]);
    }

    #[test]
    fn parallel_oat_matches_garsia_wachs_cost() {
        for seed in 0..6 {
            for &n in &[1usize, 2, 3, 7, 20, 60, 64, 200] {
                let w = pseudo_weights(n, seed, 200);
                let par = parallel_oat(&w);
                let gw = garsia_wachs(&w);
                assert_eq!(par.cost, gw.cost, "n {n} seed {seed}");
                // The reported depths must themselves attain the cost.
                let recomputed: u64 = w.iter().zip(&par.depths).map(|(&a, &d)| a * d as u64).sum();
                assert_eq!(recomputed, par.cost, "n {n} seed {seed}");
                assert!(
                    par.metrics.rounds <= oat_height_bound(&w) as u64,
                    "n {n} seed {seed}: rounds {} exceed the Lemma 5.1 bound {}",
                    par.metrics.rounds,
                    oat_height_bound(&w)
                );
            }
        }
    }

    #[test]
    fn parallel_oat_depths_form_a_full_binary_tree() {
        let w = pseudo_weights(33, 8, 500);
        let r = parallel_oat(&w);
        let kraft: f64 = r.depths.iter().map(|&d| 0.5f64.powi(d as i32)).sum();
        assert!((kraft - 1.0).abs() < 1e-9, "Kraft sum {kraft}");
        assert_eq!(r.height, r.depths.iter().copied().max().unwrap());
    }

    #[test]
    fn parallel_oat_trivial_sizes() {
        assert_eq!(parallel_oat(&[]).cost, 0);
        let one = parallel_oat(&[5]);
        assert_eq!(one.cost, 0);
        assert_eq!(one.depths, vec![0]);
        assert_eq!(one.metrics.rounds, 0);
        let two = parallel_oat(&[3, 9]);
        assert_eq!(two.cost, 12);
        assert_eq!(two.depths, vec![1, 1]);
    }
}
