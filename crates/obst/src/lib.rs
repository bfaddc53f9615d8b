//! Optimal Binary Search Trees with Knuth's decision-monotonicity speedup
//! (Sec. 5.5).
//!
//! The interval recurrence `D[i][j] = min_{i <= k < j} D[i][k] + D[k+1][j] +
//! w(i, j)` is the earliest example of decision monotonicity: Knuth showed the
//! best split point of `[i, j]` lies between the best split points of
//! `[i, j-1]` and `[i+1, j]`, which cuts the work from `O(n³)` to `O(n²)`.
//! Under the Cordon framework the `δ`-th frontier is exactly the diagonal of
//! intervals of length `δ` (every interval depends on its two one-shorter
//! sub-intervals), so the parallel algorithm processes diagonals as rounds —
//! an optimal parallelization of Knuth's algorithm with `n - 1` rounds, as the
//! paper notes (achieving `o(n)` span would need a different recurrence).
//!
//! The weight function used here is the classic OBST/OAT one:
//! `w(i, j) = Σ_{t=i..j} a[t]` for leaf weights `a`, so [`parallel_obst`]
//! also computes the cost of the optimal *alphabetic* tree, which is the
//! OBST problem restricted to leaf weights, in `n - 1` rounds: the
//! interval-DP baseline that `pardp-oat`'s polylog-round valley cordon
//! (Theorem 5.1) improves on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// DP recurrences read most naturally with explicit state indices.
#![allow(clippy::needless_range_loop)]

use pardp_core::{run_phase_parallel, PhaseParallel};
use pardp_parutils::{round_min_grain, Metrics, MetricsCollector};
use rayon::prelude::*;

/// Result of an OBST computation over `n` leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObstResult {
    /// Optimal total cost (`Σ weight(leaf) · depth(leaf)` for the alphabetic
    /// reading).
    pub cost: u64,
    /// Work / round counters (`rounds == n - 1` for the parallel algorithm).
    pub metrics: Metrics,
}

fn prefix_sums(weights: &[u64]) -> Vec<u64> {
    let mut p = Vec::with_capacity(weights.len() + 1);
    let mut acc = 0u64;
    p.push(acc);
    for &w in weights {
        acc += w;
        p.push(acc);
    }
    p
}

/// Cubic reference: tries every split point of every interval.
pub fn naive_obst(weights: &[u64]) -> ObstResult {
    let n = weights.len();
    let metrics = MetricsCollector::new();
    if n <= 1 {
        return ObstResult {
            cost: 0,
            metrics: metrics.snapshot(),
        };
    }
    let pre = prefix_sums(weights);
    let wsum = |i: usize, j: usize| pre[j + 1] - pre[i];
    // d[i][j] = optimal cost of merging leaves i..=j into one tree.
    let mut d = vec![vec![0u64; n]; n];
    let mut edges = 0u64;
    for len in 2..=n {
        for i in 0..=(n - len) {
            let j = i + len - 1;
            let mut best = u64::MAX;
            for k in i..j {
                edges += 1;
                best = best.min(d[i][k] + d[k + 1][j]);
            }
            d[i][j] = best + wsum(i, j);
        }
    }
    metrics.add_edges(edges);
    ObstResult {
        cost: d[0][n - 1],
        metrics: metrics.snapshot(),
    }
}

/// Knuth's `O(n²)` sequential algorithm: the split-point search for `[i, j]`
/// is restricted to `[root[i][j-1], root[i+1][j]]`.
pub fn knuth_obst(weights: &[u64]) -> ObstResult {
    let n = weights.len();
    let metrics = MetricsCollector::new();
    if n <= 1 {
        return ObstResult {
            cost: 0,
            metrics: metrics.snapshot(),
        };
    }
    let pre = prefix_sums(weights);
    let wsum = |i: usize, j: usize| pre[j + 1] - pre[i];
    let mut d = vec![vec![0u64; n]; n];
    let mut root = vec![vec![0usize; n]; n];
    for i in 0..n {
        root[i][i] = i;
    }
    let mut edges = 0u64;
    for len in 2..=n {
        for i in 0..=(n - len) {
            let j = i + len - 1;
            let lo = root[i][j - 1];
            let hi = root[i + 1][j].min(j - 1);
            let mut best = u64::MAX;
            let mut best_k = lo;
            for k in lo..=hi {
                edges += 1;
                let c = d[i][k] + d[k + 1][j];
                if c < best {
                    best = c;
                    best_k = k;
                }
            }
            d[i][j] = best + wsum(i, j);
            root[i][j] = best_k;
        }
    }
    metrics.add_edges(edges);
    ObstResult {
        cost: d[0][n - 1],
        metrics: metrics.snapshot(),
    }
}

/// Parallel OBST: the Cordon frontier of round `δ` is the diagonal of
/// intervals of length `δ + 1`, processed in parallel with the Knuth split
/// bounds (which only reference the two previous diagonals).
///
/// Runs [`ObstCordon`] through the shared phase-parallel driver, which
/// supplies the round accounting, frontier telemetry and stall guard.
pub fn parallel_obst(weights: &[u64]) -> ObstResult {
    let metrics = MetricsCollector::new();
    let cost = run_phase_parallel(ObstCordon::new(weights), &metrics);
    ObstResult {
        cost,
        metrics: metrics.snapshot(),
    }
}

/// [`PhaseParallel`] instance for the interval DP: round `δ` fills the
/// diagonal of intervals of length `δ + 1` in parallel using the Knuth split
/// bounds.  Its output is the optimal cost; the split points serve only the
/// bounds of later rounds.
///
/// Both tables live in a single flat allocation in diagonal-major order
/// (`offsets[len - 1] + i` addresses interval `[i, i + len - 1]`), sized up
/// front in [`ObstCordon::new`].  A round therefore performs **zero heap
/// allocation**: it splits the flat table at the current diagonal's offset and
/// writes the new diagonal in place while reading the finished prefix.  The
/// diagonal-major layout also keeps each round's reads (the two one-shorter
/// diagonals) contiguous, unlike the row-major tables of [`knuth_obst`].
pub struct ObstCordon {
    pre: Vec<u64>,
    d: Vec<u64>,
    root: Vec<usize>,
    /// `offsets[k]` is the flat index where the diagonal of length `k + 1`
    /// starts; that diagonal holds `n - k` entries.
    offsets: Vec<usize>,
    len: usize,
    n: usize,
}

impl ObstCordon {
    /// Seed the length-1 diagonal (single leaves cost 0, root at themselves)
    /// and pre-size the full triangular tables.
    pub fn new(weights: &[u64]) -> Self {
        let n = weights.len();
        let total = n * (n + 1) / 2;
        let mut offsets = Vec::with_capacity(n);
        let mut acc = 0;
        for k in 0..n {
            offsets.push(acc);
            acc += n - k;
        }
        // Length-1 intervals cost 0 (already zeroed) with root at themselves.
        let d = vec![0u64; total];
        let mut root = vec![0usize; total];
        for (i, r) in root.iter_mut().enumerate().take(n) {
            *r = i;
        }
        ObstCordon {
            pre: prefix_sums(weights),
            d,
            root,
            offsets,
            len: 2,
            n,
        }
    }
}

impl PhaseParallel for ObstCordon {
    type Output = u64;

    fn is_done(&self) -> bool {
        self.len > self.n
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        let (len, n) = (self.len, self.n);
        let pre = &self.pre;
        let wsum = |i: usize, j: usize| pre[j + 1] - pre[i];
        let count = n - len + 1;
        let offsets = &self.offsets;
        let start = offsets[len - 1];
        // Everything before `start` is finished (all shorter diagonals); the
        // current diagonal is written in place.
        let (done_d, write_d) = self.d.split_at_mut(start);
        let (done_root, write_root) = self.root.split_at_mut(start);
        let prev = offsets[len - 2];
        let edge_total: u64 = write_d[..count]
            .par_iter_mut()
            .zip(write_root[..count].par_iter_mut())
            .enumerate()
            .with_min_len(round_min_grain(count))
            .map(|(i, (d_out, r_out))| {
                let j = i + len - 1;
                // Knuth bounds from the two one-shorter intervals.
                let lo = done_root[prev + i];
                let hi = done_root[prev + i + 1].min(j - 1).max(lo);
                let mut best = u64::MAX;
                let mut best_k = lo;
                let mut edges = 0u64;
                for k in lo..=hi {
                    edges += 1;
                    let left = done_d[offsets[k - i] + i];
                    let right = done_d[offsets[j - k - 1] + k + 1];
                    let c = left + right;
                    if c < best {
                        best = c;
                        best_k = k;
                    }
                }
                *d_out = best + wsum(i, j);
                *r_out = best_k;
                edges
            })
            .sum();
        metrics.add_edges(edge_total);
        self.len += 1;
        count
    }

    fn finish(self) -> u64 {
        // The whole interval is the one entry of the last diagonal, at the
        // end of the flat table (no entry, and cost 0, without leaves).
        self.d.last().copied().unwrap_or(0)
    }

    fn round_budget(&self) -> Option<u64> {
        // One round per diagonal of length >= 2: n - 1 rounds.
        Some(self.n.saturating_sub(1) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn hand_checked_three_leaves() {
        // Weights 1, 2, 3.  Best alphabetic tree: ((1,2),3):
        // cost = merge(1,2)=3, then merge(3,3)=6 -> total 9.
        // Alternative (1,(2,3)): 5 + 6 = 11.  So optimum 9.
        let w = [1u64, 2, 3];
        assert_eq!(naive_obst(&w).cost, 9);
        assert_eq!(knuth_obst(&w).cost, 9);
        assert_eq!(parallel_obst(&w).cost, 9);
    }

    #[test]
    fn all_three_agree_on_random_weights() {
        for seed in 0..6 {
            for &n in &[2usize, 3, 5, 17, 40, 80] {
                let w = pseudo_weights(n, seed, 1000);
                let a = naive_obst(&w).cost;
                let b = knuth_obst(&w).cost;
                let c = parallel_obst(&w).cost;
                assert_eq!(a, b, "n {n} seed {seed}");
                assert_eq!(a, c, "n {n} seed {seed}");
            }
        }
        // Small weights (many tied splits), and the profiles that stress
        // Knuth's split monotonicity: plateaus, ramps, valleys and mountains.
        let tied = (0..12)
            .flat_map(|seed| [2usize, 3, 5, 9, 17, 33, 64].map(|n| pseudo_weights(n, seed, 8)));
        let shaped = [2usize, 7, 30, 63].into_iter().flat_map(|n| {
            let valley: Vec<u64> = (0..n).map(|i| (2 * i).abs_diff(n) as u64 + 1).collect();
            let mountain = valley.iter().map(|&v| n as u64 + 2 - v).collect();
            let mirrored_valley = valley.iter().rev().copied().collect();
            let ramp = (1..=n as u64).collect();
            [vec![3u64; n], ramp, valley, mirrored_valley, mountain]
        });
        for w in tied.chain(shaped) {
            let a = naive_obst(&w).cost;
            assert_eq!(knuth_obst(&w).cost, a, "weights {w:?}");
            assert_eq!(parallel_obst(&w).cost, a, "weights {w:?}");
        }
    }

    #[test]
    fn rounds_equal_n_minus_one() {
        let w = pseudo_weights(50, 1, 100);
        let r = parallel_obst(&w);
        assert_eq!(r.metrics.rounds, 49);
    }

    #[test]
    fn knuth_does_quadratic_work() {
        let n = 300usize;
        let w = pseudo_weights(n, 2, 1_000_000);
        let naive = naive_obst(&w);
        let knuth = knuth_obst(&w);
        assert_eq!(naive.cost, knuth.cost);
        // Knuth's split bounds reduce the inner-loop work by a large factor.
        assert!(knuth.metrics.edges_relaxed * 4 < naive.metrics.edges_relaxed);
    }

    #[test]
    fn trivial_sizes() {
        assert_eq!(parallel_obst(&[]).cost, 0);
        assert_eq!(parallel_obst(&[7]).cost, 0);
        assert_eq!(parallel_obst(&[3, 4]).cost, 7);
        assert_eq!(naive_obst(&[3, 4]).cost, 7);
    }

    #[test]
    fn equal_weights_build_balanced_cost() {
        // 4 equal weights: balanced tree, every leaf at depth 2 -> cost 8·w.
        let w = [5u64; 4];
        assert_eq!(parallel_obst(&w).cost, 40);
    }
}
