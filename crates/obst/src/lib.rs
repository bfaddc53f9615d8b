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

/// Why [`check_weights`], and so [`ObstCordon::try_new`] and `pardp-oat`'s
/// `ValleyOatCordon::try_new`, reject leaf weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightError {
    /// The weights sum past `u64::MAX`.
    TotalOverflow,
    /// The total weight times `⌈log₂ n⌉`, the bound [`check_weights`] puts
    /// on every cost the kernels form, passes `u64::MAX`.
    CostOverflow {
        /// The total weight.
        total: u64,
        /// `⌈log₂ n⌉` for `n` leaves, the height of a balanced tree over them.
        levels: u32,
    },
}

impl std::fmt::Display for WeightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WeightError::TotalOverflow => f.write_str("weights: the total weight exceeds u64::MAX"),
            WeightError::CostOverflow { total, levels } => {
                write!(
                    f,
                    "weights: total weight {total} times {levels} levels exceeds u64::MAX"
                )
            }
        }
    }
}

impl std::error::Error for WeightError {}

/// The total of `weights`, or an error if it or a cost that the interval DP
/// or Garsia–Wachs can form on them would pass `u64::MAX`.
///
/// Every such cost is at most `total · ⌈log₂ n⌉`.  A balanced tree puts
/// each of an interval's leaves at depth at most `⌈log₂ len⌉`, so an
/// interval's optimal cost is at most its weight times that.  A split's
/// cost, optimal or not, adds the optimal costs of two shorter intervals,
/// and the chosen split plus the interval's weight is again at most the
/// interval's weight times `⌈log₂ len⌉`.  Garsia–Wachs adds the weights of
/// two disjoint subtrees, at most `total`, and its result is an optimal
/// cost.  The check refuses some inputs whose optimal cost fits, such as
/// heavy leaves beside many light ones.
pub fn check_weights(weights: &[u64]) -> Result<u64, WeightError> {
    let total = weights
        .iter()
        .try_fold(0u64, |acc, &w| acc.checked_add(w))
        .ok_or(WeightError::TotalOverflow)?;
    let levels = weights.len().next_power_of_two().trailing_zeros();
    match total.checked_mul(u64::from(levels)) {
        Some(_) => Ok(total),
        None => Err(WeightError::CostOverflow { total, levels }),
    }
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
/// is restricted to `[root[i][j-1], root[i+1][j]]`.  It fills
/// [`ObstCordon`]'s table one diagonal after another with the cordon's own
/// per-interval step, in a plain loop.  Panics with the [`WeightError`]
/// message where [`check_weights`] fails.
pub fn knuth_obst(weights: &[u64]) -> ObstResult {
    let metrics = MetricsCollector::new();
    let mut table = ObstCordon::new(weights);
    let mut edges = 0u64;
    while !table.is_done() {
        let (knuth, costs, splits) = table.next_diagonal();
        for (i, slots) in costs.iter_mut().zip(splits).enumerate() {
            edges += knuth.fill(i, slots);
        }
    }
    metrics.add_edges(edges);
    ObstResult {
        cost: table.finish(),
        metrics: metrics.snapshot(),
    }
}

/// Parallel OBST: the Cordon frontier of round `δ` is the diagonal of
/// intervals of length `δ + 1`, processed in parallel with the Knuth split
/// bounds (which only reference the two previous diagonals).
///
/// Runs [`ObstCordon`] through the shared phase-parallel driver, which
/// supplies the round accounting, frontier telemetry and stall guard.
/// Panics with the [`WeightError`] message where [`check_weights`] fails.
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
/// front in [`ObstCordon::try_new`].  A round therefore performs **zero heap
/// allocation**: it splits the flat table at the current diagonal's offset and
/// writes the new diagonal in place while reading the finished prefix, and
/// the diagonal-major layout keeps those reads (the two one-shorter
/// diagonals) contiguous.  [`knuth_obst`] fills the same table in a loop.
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

/// The finished diagonals of an [`ObstCordon`]'s table, from which Knuth's
/// step fills the intervals of length `len`.
struct Knuth<'a> {
    pre: &'a [u64],
    d: &'a [u64],
    root: &'a [usize],
    offsets: &'a [usize],
    len: usize,
}

impl Knuth<'_> {
    /// Knuth's step for the interval `[i, i + len - 1]`: search the split
    /// points between the best splits of its two one-shorter intervals,
    /// write the optimal cost and the leftmost best split to `slots`, and
    /// return the number of splits tried.
    #[inline]
    fn fill(&self, i: usize, (cost, split): (&mut u64, &mut usize)) -> u64 {
        let (len, offsets) = (self.len, self.offsets);
        let j = i + len - 1;
        let prev = offsets[len - 2];
        let lo = self.root[prev + i];
        let hi = self.root[prev + i + 1].min(j - 1).max(lo);
        let mut best = u64::MAX;
        let mut best_k = lo;
        for k in lo..=hi {
            let c = self.d[offsets[k - i] + i] + self.d[offsets[j - k - 1] + k + 1];
            if c < best {
                best = c;
                best_k = k;
            }
        }
        *cost = best + (self.pre[j + 1] - self.pre[i]);
        *split = best_k;
        (hi - lo + 1) as u64
    }
}

impl ObstCordon {
    /// Seed the length-1 diagonal (single leaves cost 0, root at themselves)
    /// and pre-size the full triangular tables, or return the
    /// [`WeightError`] of [`check_weights`].
    pub fn try_new(weights: &[u64]) -> Result<Self, WeightError> {
        check_weights(weights)?;
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
        Ok(ObstCordon {
            pre: prefix_sums(weights),
            d,
            root,
            offsets,
            len: 2,
            n,
        })
    }

    /// [`ObstCordon::try_new`], panicking where it returns an error.
    ///
    /// # Panics
    ///
    /// Panics with the [`WeightError`] message if the weights' total, or
    /// the bound on the costs the kernels form, exceeds `u64::MAX`.
    pub fn new(weights: &[u64]) -> Self {
        match Self::try_new(weights) {
            Ok(cordon) => cordon,
            #[expect(
                clippy::panic,
                reason = "documented panicking facade over the typed \
                          `try_new` (see the `# Panics` docs above)"
            )]
            Err(err) => panic!("{err}"),
        }
    }

    /// Take the next diagonal: the finished table, and the diagonal's cost
    /// and split slots, which the caller fills through [`Knuth::fill`].
    fn next_diagonal(&mut self) -> (Knuth<'_>, &mut [u64], &mut [usize]) {
        let len = self.len;
        self.len += 1;
        let count = self.n - len + 1;
        // Everything before `start` is finished (all shorter diagonals); the
        // current diagonal is written in place.
        let start = self.offsets[len - 1];
        let (d, costs) = self.d.split_at_mut(start);
        let (root, splits) = self.root.split_at_mut(start);
        let knuth = Knuth {
            pre: &self.pre,
            d,
            root,
            offsets: &self.offsets,
            len,
        };
        (knuth, &mut costs[..count], &mut splits[..count])
    }
}

impl PhaseParallel for ObstCordon {
    type Output = u64;

    fn is_done(&self) -> bool {
        self.len > self.n
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        let (knuth, costs, splits) = self.next_diagonal();
        let count = costs.len();
        let edges: u64 = costs
            .par_iter_mut()
            .zip(splits.par_iter_mut())
            .enumerate()
            .with_min_len(round_min_grain(count))
            .map(|(i, slots)| knuth.fill(i, slots))
            .sum();
        metrics.add_edges(edges);
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
    fn weights_past_the_cost_bound_are_refused() {
        // Eight leaves of u64::MAX / 4 weigh about 2 · u64::MAX; wrapped,
        // both solvers used to return 9 223 372 036 854 775 778.
        let heavy = [u64::MAX / 4; 8];
        assert_eq!(
            ObstCordon::try_new(&heavy).err(),
            Some(WeightError::TotalOverflow)
        );
        // Eight leaves fill a balanced tree of 3 levels, so the bound is
        // 3 · total: exactly u64::MAX here, and past it one unit later.
        let unit = u64::MAX / 24;
        let mut at_bound = [unit; 8];
        at_bound[0] += (u64::MAX - 24 * unit) / 3;
        let mut past = at_bound;
        past[0] += 1;
        let total = past.iter().sum();
        assert_eq!(
            check_weights(&past),
            Err(WeightError::CostOverflow { total, levels: 3 })
        );
        for weights in [&heavy, &past] {
            let want = check_weights(weights).err().map(|e| e.to_string());
            for solve in [knuth_obst, parallel_obst] {
                let err = std::panic::catch_unwind(|| solve(weights)).unwrap_err();
                assert_eq!(err.downcast_ref::<String>(), want.as_ref());
            }
        }
        // Accepted inputs at the bound, balanced and skewed, match the
        // naive DP, whose debug build checks every sum it forms.
        let skewed = [1u64, 2, 3, 5, 8, 13, 21, 34].map(|f| f * (u64::MAX / (3 * 87)));
        for weights in [at_bound, skewed] {
            assert!(ObstCordon::try_new(&weights).is_ok());
            let want = naive_obst(&weights).cost;
            assert_eq!(knuth_obst(&weights).cost, want, "{weights:?}");
            assert_eq!(parallel_obst(&weights).cost, want, "{weights:?}");
        }
        assert_eq!(naive_obst(&at_bound).cost, u64::MAX);
    }

    #[test]
    fn equal_weights_build_balanced_cost() {
        // 4 equal weights: balanced tree, every leaf at depth 2 -> cost 8·w.
        let w = [5u64; 4];
        assert_eq!(parallel_obst(&w).cost, 40);
    }
}
