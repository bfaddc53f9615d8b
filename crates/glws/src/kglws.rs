//! k-GLWS: least-weight subsequence with exactly `k` clusters (Sec. 5.4).
//!
//! The recurrence is `D[i][k'] = min_{j < i} D[j][k'-1] + w(j, i)` with
//! `D[0][0] = 0` and `D[i][0] = +inf` for `i > 0`.  When the cordon framework
//! is applied, the `k'`-th frontier is exactly the `k'`-th layer of the table:
//! every state of layer `k'` depends on some state of layer `k'-1`, so layers
//! are computed one cordon round at a time, and each round is a static
//! matrix-searching problem on a totally monotone matrix.  Each layer is
//! solved here with the practical divide-and-conquer (`O(n log n)` work,
//! `O(log² n)` span per layer — Apostolico et al. \[6\], also the structure of
//! `FindIntervals` in Alg. 1), giving `O(k·n log n)` work and `O(k log² n)`
//! span in total, a perfect parallelization of the classic sequential
//! algorithm.

use crate::cost::GlwsProblem;
use pardp_core::{run_phase_parallel, PhaseParallel};
use pardp_parutils::{maybe_join, Metrics, MetricsCollector};

/// Result of a k-GLWS computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KGlwsResult {
    /// `layers[k'][i]` is the minimum cost of covering the first `i` elements
    /// with exactly `k'` clusters (`cost::UNREACHABLE` if infeasible).
    pub layers: Vec<Vec<i64>>,
    /// `best[k'][i]` is the decision attaining `layers[k'][i]`.
    pub best: Vec<Vec<usize>>,
    /// Work counters; `rounds` equals `k`.
    pub metrics: Metrics,
}

/// Sentinel for infeasible table entries.
pub const UNREACHABLE: i64 = i64::MAX / 4;

impl KGlwsResult {
    /// Optimal cost of covering all `n` elements with exactly `k` clusters.
    pub fn total_cost(&self) -> i64 {
        // analyze: allow(no-panics): `layers` is always a (k+1) x (n+1)
        // rectangle by construction, so both `last()` calls are infallible.
        *self.layers.last().unwrap().last().unwrap()
    }

    /// Reconstruct the cluster boundaries of the optimal solution: returns the
    /// sequence of states `0 = b_0 < b_1 < ... < b_k = n` such that cluster
    /// `t` covers elements `b_{t-1}+1 ..= b_t`.
    pub fn cluster_boundaries(&self) -> Vec<usize> {
        let k = self.layers.len() - 1;
        let n = self.layers[0].len() - 1;
        let mut bounds = vec![n];
        let mut i = n;
        for kk in (1..=k).rev() {
            i = self.best[kk][i];
            bounds.push(i);
        }
        bounds.reverse();
        bounds
    }
}

/// Reference `O(k n²)` evaluation of the k-GLWS recurrence.
pub fn naive_kglws<P: GlwsProblem>(problem: &P, k: usize) -> KGlwsResult {
    let n = problem.n();
    assert!(k >= 1 && k <= n, "need 1 <= k <= n");
    let metrics = MetricsCollector::new();
    let mut layers = vec![vec![UNREACHABLE; n + 1]; k + 1];
    let mut best = vec![vec![0usize; n + 1]; k + 1];
    layers[0][0] = 0;
    for kk in 1..=k {
        for i in kk..=n {
            let mut bv = UNREACHABLE;
            let mut bj = 0usize;
            for j in (kk - 1)..i {
                if layers[kk - 1][j] >= UNREACHABLE {
                    continue;
                }
                metrics.add_edges(1);
                let cand = layers[kk - 1][j] + problem.w(j, i);
                if cand < bv {
                    bv = cand;
                    bj = j;
                }
            }
            layers[kk][i] = bv;
            best[kk][i] = bj;
        }
        metrics.add_round();
        metrics.add_states((n + 1 - kk) as u64);
    }
    KGlwsResult {
        layers,
        best,
        metrics: metrics.snapshot(),
    }
}

/// Parallel k-GLWS: `k` cordon rounds, each a parallel divide-and-conquer
/// matrix search over the previous layer.  Requires convex total monotonicity
/// of `D[j][k'-1] + w(j, i)` (implied by a convex Monge `w`).
///
/// Runs [`KGlwsCordon`] through the shared phase-parallel driver, which
/// supplies the round accounting, frontier telemetry and stall guard.
pub fn parallel_kglws<P: GlwsProblem>(problem: &P, k: usize) -> KGlwsResult {
    let metrics = MetricsCollector::new();
    let (layers, best) = run_phase_parallel(KGlwsCordon::new(problem, k), &metrics);
    KGlwsResult {
        layers,
        best,
        metrics: metrics.snapshot(),
    }
}

/// [`PhaseParallel`] instance for k-GLWS: the `k'`-th cordon frontier is the
/// `k'`-th layer of the table, computed from layer `k'-1` with a parallel
/// divide-and-conquer matrix search.
pub struct KGlwsCordon<'a, P: GlwsProblem> {
    problem: &'a P,
    layers: Vec<Vec<i64>>,
    best: Vec<Vec<usize>>,
    kk: usize,
    k: usize,
    n: usize,
}

impl<'a, P: GlwsProblem> KGlwsCordon<'a, P> {
    /// Initialize the `(k+1) × (n+1)` table with only `D[0][0]` reachable.
    pub fn new(problem: &'a P, k: usize) -> Self {
        let n = problem.n();
        assert!(k >= 1 && k <= n, "need 1 <= k <= n");
        let mut layers = vec![vec![UNREACHABLE; n + 1]; k + 1];
        layers[0][0] = 0;
        KGlwsCordon {
            problem,
            layers,
            best: vec![vec![0usize; n + 1]; k + 1],
            kk: 1,
            k,
            n,
        }
    }
}

impl<P: GlwsProblem> PhaseParallel for KGlwsCordon<'_, P> {
    /// The DP layers plus the per-layer best decisions.
    type Output = (Vec<Vec<i64>>, Vec<Vec<usize>>);

    fn is_done(&self) -> bool {
        self.kk > self.k
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        let (kk, n) = (self.kk, self.n);
        // The k'-th cordon frontier: all states of layer kk.  Decisions come
        // from layer kk-1, restricted to j in [kk-1, i-1].
        let (prev_layers, cur_layers) = self.layers.split_at_mut(kk);
        let prev = &prev_layers[kk - 1];
        let cur = &mut cur_layers[0];
        let cur_best = &mut self.best[kk];
        // States kk..=n, decisions (kk-1)..=(n-1).
        layer_divide_conquer(
            self.problem,
            prev,
            kk,
            n,
            kk - 1,
            n.saturating_sub(1),
            &mut cur[kk..=n],
            &mut cur_best[kk..=n],
            kk,
            metrics,
        );
        self.kk += 1;
        n + 1 - kk
    }

    fn finish(self) -> Self::Output {
        (self.layers, self.best)
    }

    fn round_budget(&self) -> Option<u64> {
        // Exactly one round per layer.
        Some(self.k as u64)
    }
}

/// Divide-and-conquer over the states `il..=ir` (whose values/best slots are
/// `d_out`/`b_out`, indexed relative to `base = il` of the original call) with
/// candidate decisions `jl..=jr`.
#[allow(clippy::too_many_arguments)]
fn layer_divide_conquer<P: GlwsProblem>(
    problem: &P,
    prev: &[i64],
    il: usize,
    ir: usize,
    jl: usize,
    jr: usize,
    d_out: &mut [i64],
    b_out: &mut [usize],
    base: usize,
    metrics: &MetricsCollector,
) {
    if il > ir {
        return;
    }
    let im = (il + ir) / 2;
    // Valid decisions for state im: [jl, min(jr, im-1)].
    let hi = jr.min(im - 1);
    debug_assert!(jl <= hi, "decision range must be non-empty");
    let mut bv = UNREACHABLE;
    let mut bj = jl;
    for j in jl..=hi {
        if prev[j] >= UNREACHABLE {
            continue;
        }
        metrics.add_edges(1);
        let cand = prev[j] + problem.w(j, im);
        if cand < bv {
            bv = cand;
            bj = j;
        }
    }
    d_out[im - base] = bv;
    b_out[im - base] = bj;

    // Split the output slices around im so the two halves can recurse in
    // parallel with disjoint mutable borrows.
    let (d_left, d_rest) = d_out.split_at_mut(im - base);
    let (_, d_right) = d_rest.split_at_mut(1);
    let (b_left, b_rest) = b_out.split_at_mut(im - base);
    let (_, b_right) = b_rest.split_at_mut(1);
    let width = ir - il + 1;
    maybe_join(
        width,
        || {
            if im > il {
                layer_divide_conquer(
                    problem,
                    prev,
                    il,
                    im - 1,
                    jl,
                    bj,
                    d_left,
                    b_left,
                    base,
                    metrics,
                );
            }
        },
        || {
            if im < ir {
                layer_divide_conquer(
                    problem,
                    prev,
                    im + 1,
                    ir,
                    bj,
                    jr,
                    d_right,
                    b_right,
                    im + 1,
                    metrics,
                );
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{ConvexGapCost, PostOfficeProblem};

    fn pseudo_coords(n: usize, seed: u64, max_gap: u64) -> Vec<i64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut x = 0i64;
        (0..n)
            .map(|_| {
                x += (next() % max_gap) as i64 + 1;
                x
            })
            .collect()
    }

    #[test]
    fn parallel_matches_naive_values() {
        for seed in 0..4 {
            let p = PostOfficeProblem::new(pseudo_coords(40, seed, 12), 0);
            for k in [1usize, 2, 3, 5, 10, 40] {
                let got = parallel_kglws(&p, k);
                let want = naive_kglws(&p, k);
                assert_eq!(got.layers, want.layers, "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn rounds_equal_k() {
        let p = ConvexGapCost::new(30, 2, 1, 1);
        let r = parallel_kglws(&p, 7);
        assert_eq!(r.metrics.rounds, 7);
    }

    #[test]
    fn k_equals_one_is_single_cluster() {
        let p = PostOfficeProblem::new(vec![0, 3, 7, 10], 5);
        let r = parallel_kglws(&p, 1);
        assert_eq!(r.total_cost(), 5 + 100);
        assert_eq!(r.cluster_boundaries(), vec![0, 4]);
    }

    #[test]
    fn k_equals_n_is_all_singletons() {
        let p = PostOfficeProblem::new(vec![0, 3, 7, 10], 5);
        let r = parallel_kglws(&p, 4);
        assert_eq!(r.total_cost(), 20); // four opening costs, zero spans
        assert_eq!(r.cluster_boundaries(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn boundaries_are_consistent_with_cost() {
        let p = PostOfficeProblem::new(pseudo_coords(25, 9, 10), 30);
        for k in [2usize, 3, 4] {
            let r = parallel_kglws(&p, k);
            let bounds = r.cluster_boundaries();
            assert_eq!(bounds.len(), k + 1);
            assert_eq!(bounds[0], 0);
            assert_eq!(*bounds.last().unwrap(), 25);
            let mut cost = 0;
            use crate::cost::GlwsProblem as _;
            for t in 1..bounds.len() {
                cost += p.w(bounds[t - 1], bounds[t]);
            }
            assert_eq!(cost, r.total_cost(), "k = {k}");
        }
    }

    #[test]
    fn more_clusters_never_cost_more_without_open_cost() {
        // With zero opening cost, allowing more clusters can only help.
        let p = PostOfficeProblem::new(pseudo_coords(30, 2, 9), 0);
        let mut prev = i64::MAX;
        for k in 1..=10 {
            let cost = parallel_kglws(&p, k).total_cost();
            assert!(cost <= prev, "k = {k}");
            prev = cost;
        }
    }

    #[test]
    fn decision_columns_are_monotone_within_layers() {
        let p = PostOfficeProblem::new(pseudo_coords(50, 4, 7), 10);
        let r = parallel_kglws(&p, 5);
        for kk in 1..=5usize {
            for i in (kk + 1)..=50 {
                assert!(
                    r.best[kk][i - 1] <= r.best[kk][i] || r.layers[kk][i - 1] >= UNREACHABLE,
                    "layer {kk} state {i}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "1 <= k <= n")]
    fn k_zero_rejected() {
        let p = ConvexGapCost::new(5, 1, 1, 1);
        let _ = parallel_kglws(&p, 0);
    }
}
