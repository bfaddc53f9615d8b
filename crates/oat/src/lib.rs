//! Optimal Alphabetic Trees (Sec. 5.1, Theorem 5.1).
//!
//! Given leaf weights `a[1..n]`, the OAT is the binary tree with those leaves
//! in order minimizing `Σ a_i · depth_i`.  This crate provides
//!
//! * [`garsia_wachs`] — the classic sequential algorithm, implemented here in
//!   `O(n²)`: repeatedly combine the leftmost locally minimal pair and
//!   reinsert the combined node before the nearest larger predecessor; the
//!   resulting *l-tree* has the same leaf levels as the OAT (phase 2 of
//!   Garsia–Wachs / Hu–Tucker), so cost and height are read directly off the
//!   l-tree,
//! * [`oat_height_bound`] — the `O(log W)` height bound of Lemma 5.1, which is
//!   what turns Theorem 5.1 into a polylog-span algorithm for word-sized
//!   integer weights (Corollary 5.1.1).
//!
//! The `O(n²)` Knuth interval DP for the same cost is `pardp-obst`'s
//! `knuth_obst` (the OBST connection of Sec. 5.5); this crate's tests use
//! it as the exact oracle.
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

pub use valley::{oat_cordon_auto, OatLayout, ValleyOatCordon};

use pardp_core::run_phase_parallel;
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

#[derive(Debug, Clone, Copy)]
struct GwItem {
    weight: u64,
    /// Encoded tree reference: leaves are `-(i+1)`, internal nodes their arena
    /// index.
    enc: isize,
}

/// The Garsia–Wachs algorithm, following the description in Appendix A.1 of
/// the paper: repeatedly pick the leftmost locally minimal pair
/// `(a_i, a_{i+1})` (its 2-sum is a local minimum among the 2-sums), combine
/// it into a new l-tree node `x`, remove the pair, and insert `x` before the
/// first later element `a_j >= x` (or at the end).  The l-tree's leaf levels
/// equal the OAT's leaf depths, so cost and height are read off directly.
///
/// `O(n²)` work: each of the `n - 1` combines rescans the sequence from the
/// front for its pair and shifts a `Vec` to remove and reinsert, and random
/// weights hit that bound (about `n² / 4` edge evaluations on
/// `positive_weights`).  Garsia and Wachs' own `O(n log n)` bound needs a
/// search that resumes from the last combine and a balanced structure for
/// the reinsertion, which this version does not have.
pub fn garsia_wachs(weights: &[u64]) -> OatResult {
    let metrics = MetricsCollector::new();
    let n = weights.len();
    if n == 0 {
        return OatResult {
            cost: 0,
            depths: Vec::new(),
            height: 0,
            metrics: metrics.snapshot(),
        };
    }
    if n == 1 {
        return OatResult {
            cost: 0,
            depths: vec![0],
            height: 0,
            metrics: metrics.snapshot(),
        };
    }

    // Arena of internal nodes: children[x] = (left, right) encoded like `enc`.
    let mut children: Vec<(isize, isize)> = Vec::with_capacity(n - 1);
    let mut seq: Vec<GwItem> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| GwItem {
            weight: w,
            enc: -((i as isize) + 1),
        })
        .collect();

    let mut edges = 0u64;
    while seq.len() > 1 {
        // Leftmost locally minimal pair: the first index i whose 2-sum is
        // strictly smaller than its left neighbour's and no larger than its
        // right neighbour's (the leftmost global minimum always qualifies).
        let two_sum = |s: &Vec<GwItem>, i: usize| s[i].weight + s[i + 1].weight;
        let last = seq.len() - 2;
        let mut pick = last;
        for i in 0..=last {
            edges += 1;
            let left_ok = i == 0 || two_sum(&seq, i - 1) > two_sum(&seq, i);
            let right_ok = i == last || two_sum(&seq, i) <= two_sum(&seq, i + 1);
            if left_ok && right_ok {
                pick = i;
                break;
            }
        }
        let x = two_sum(&seq, pick);
        let node_idx = children.len() as isize;
        children.push((seq[pick].enc, seq[pick + 1].enc));
        seq.drain(pick..=pick + 1);
        // Insert before the first element at or after the removal point with
        // weight >= x; at the end if there is none.
        let mut q = pick;
        while q < seq.len() && seq[q].weight < x {
            edges += 1;
            q += 1;
        }
        seq.insert(
            q,
            GwItem {
                weight: x,
                enc: node_idx,
            },
        );
    }
    // One state per combine: the n - 1 internal nodes.
    metrics.add_states(children.len() as u64);
    metrics.add_edges(edges);

    // The single remaining element is the l-tree root; compute leaf depths.
    let root = seq[0].enc;
    let mut depths = vec![0u32; n];
    // Iterative DFS over the arena.
    let mut stack = vec![(root, 0u32)];
    while let Some((enc, depth)) = stack.pop() {
        if enc < 0 {
            depths[(-enc - 1) as usize] = depth;
        } else {
            let (l, r) = children[enc as usize];
            stack.push((l, depth + 1));
            stack.push((r, depth + 1));
        }
    }
    let cost = weights
        .iter()
        .zip(&depths)
        .map(|(&w, &d)| w * d as u64)
        .sum();
    let height = depths.iter().copied().max().unwrap_or(0);
    OatResult {
        cost,
        depths,
        height,
        metrics: metrics.snapshot(),
    }
}

/// Parallel OAT through [`ValleyOatCordon`]: polylog rounds (Theorem 5.1)
/// at every size.  Produces the same cost as [`garsia_wachs`] and as
/// `pardp-obst`'s interval DP on the same leaf weights, plus the leaf depths.
pub fn parallel_oat(weights: &[u64]) -> OatResult {
    let metrics = MetricsCollector::new();
    let layout = run_phase_parallel(ValleyOatCordon::new(weights), &metrics);
    let height = layout.depths.iter().copied().max().unwrap_or(0);
    OatResult {
        cost: layout.cost,
        depths: layout.depths,
        height,
        metrics: metrics.snapshot(),
    }
}

/// The height bound of Lemma 5.1: for positive integer weights bounded by
/// `max_weight`, the OAT height is `O(log(total weight / min weight))` —
/// concretely at most `3 · (log₂(total) - log₂(min)) + 3`, because the subtree
/// weight at least doubles every three levels up.
pub fn oat_height_bound(weights: &[u64]) -> u32 {
    let total: u64 = weights.iter().sum();
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
    use pardp_obst::knuth_obst;

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
