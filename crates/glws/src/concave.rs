//! Parallel concave GLWS (Sec. 4.3, Theorem 4.2).
//!
//! Three modifications relative to the convex algorithm:
//!
//! 1. **Sentinel placement.**  By concavity, if a tentative state `j` can
//!    improve *any* later state it can improve `j + 1`, so each probe only
//!    checks its immediate successor instead of binary-searching `B`.
//! 2. **FindIntervals.**  The recursion's decision ranges swap: if `jm` is the
//!    best new decision for the midpoint state `im`, states *before* `im` have
//!    their best new decision in `[jm, jr]` and states *after* `im` in
//!    `[jl, jm]`.
//! 3. **Merging with the old array.**  Unlike the convex case, states beyond
//!    the cordon may still prefer an *old* (already finalized) decision, so the
//!    freshly built `B_new` (decisions from the new frontier) must be merged
//!    with `B_old`.  By concave decision monotonicity the states preferring a
//!    new decision form a prefix `[cordon, p]`; the cut point `p` is found with
//!    one binary search that compares the two arrays' candidates (a
//!    simplification of Alg. 2; Alg. 2 itself is kept as
//!    [`ConcaveMergeStrategy::PaperAlgorithm2`], which `ablation_report`
//!    compares against it).

use crate::best::BestDecisionArray;
use crate::cost::GlwsProblem;
use crate::GlwsResult;
use pardp_core::{prefix_doubling_cordon, run_phase_parallel, PhaseParallel};
use pardp_parutils::{maybe_join, round_min_grain, MetricsCollector};
use rayon::prelude::*;

/// Strategy used to merge the new and old best-decision arrays after a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConcaveMergeStrategy {
    /// Single binary search over positions comparing the two arrays' candidate
    /// values (strictly-better-new wins); `O(log² n)` per round.
    #[default]
    PositionBinarySearch,
    /// The three-step search of Algorithm 2 in the paper (per-interval
    /// pre-processing, then two nested binary searches).  Same asymptotics per
    /// round up to log factors; kept for the ablation benchmark.
    PaperAlgorithm2,
}

/// Solve a concave GLWS instance with the parallel cordon algorithm using the
/// default merge strategy.
pub fn parallel_concave_glws<P: GlwsProblem>(problem: &P) -> GlwsResult {
    parallel_concave_glws_with(problem, ConcaveMergeStrategy::default())
}

/// Solve a concave GLWS instance with an explicit merge strategy (used by the
/// ablation benchmark).
///
/// Runs [`ConcaveGlwsCordon`] through the shared phase-parallel driver, which
/// supplies the round accounting, frontier telemetry and stall guard.
pub fn parallel_concave_glws_with<P: GlwsProblem>(
    problem: &P,
    merge: ConcaveMergeStrategy,
) -> GlwsResult {
    let metrics = MetricsCollector::new();
    let (d, best) = run_phase_parallel(ConcaveGlwsCordon::new(problem, merge), &metrics);
    GlwsResult {
        d,
        best,
        metrics: metrics.snapshot(),
    }
}

/// [`PhaseParallel`] instance for the concave variant of Algorithm 1: each
/// round is one FindCordon (with the successor-only sentinel rule) followed by
/// the build-and-merge of the best-decision array.
pub struct ConcaveGlwsCordon<'a, P: GlwsProblem> {
    problem: &'a P,
    merge: ConcaveMergeStrategy,
    d: Vec<i64>,
    best: Vec<usize>,
    b: BestDecisionArray,
    /// Per-round scratch for the `FindIntervals` output, reused across rounds
    /// so the round body allocates nothing at its high-water mark.
    intervals: Vec<(usize, usize, usize)>,
    now: usize,
    n: usize,
}

impl<'a, P: GlwsProblem> ConcaveGlwsCordon<'a, P> {
    /// Initialize the DP arrays and the all-zero best-decision array.
    pub fn new(problem: &'a P, merge: ConcaveMergeStrategy) -> Self {
        let n = problem.n();
        let mut d = vec![0i64; n + 1];
        d[0] = problem.d0();
        ConcaveGlwsCordon {
            problem,
            merge,
            d,
            best: vec![0usize; n + 1],
            b: BestDecisionArray::initial(n),
            intervals: Vec::new(),
            now: 0,
            n,
        }
    }
}

impl<P: GlwsProblem> PhaseParallel for ConcaveGlwsCordon<'_, P> {
    /// DP values plus the best decision of every state.
    type Output = (Vec<i64>, Vec<usize>);

    fn is_done(&self) -> bool {
        self.now >= self.n
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        let problem = self.problem;
        let (now, n) = (self.now, self.n);
        // FindCordon with the concave sentinel rule: j sentinels j+1 if it can
        // (weakly) improve it.
        let (cordon, stats) = {
            let (d_final, d_tail) = self.d.split_at_mut(now + 1);
            let (_, best_tail) = self.best.split_at_mut(now + 1);
            let b_ref = &self.b;
            let metrics_ref = metrics;
            let d_final: &[i64] = d_final;

            prefix_doubling_cordon(now, n, |lo, hi| {
                let batch_d = &mut d_tail[(lo - now - 1)..=(hi - now - 1)];
                let batch_best = &mut best_tail[(lo - now - 1)..=(hi - now - 1)];
                let batch_len = batch_d.len();
                batch_d
                    .par_iter_mut()
                    .zip(batch_best.par_iter_mut())
                    .enumerate()
                    .with_min_len(round_min_grain(batch_len))
                    .map(|(off, (dj_slot, bj_slot))| {
                        let j = lo + off;
                        let bj = b_ref.decision_at(j);
                        let dj = problem.e(d_final[bj], bj) + problem.w(bj, j);
                        *dj_slot = dj;
                        *bj_slot = bj;
                        metrics_ref.add_edges(2);
                        if j + 1 > n {
                            return None;
                        }
                        // Incumbent value of j+1 given only finalized decisions.
                        let inc = b_ref.decision_at(j + 1);
                        let incumbent = problem.e(d_final[inc], inc) + problem.w(inc, j + 1);
                        let candidate = problem.e(dj, j) + problem.w(j, j + 1);
                        if candidate <= incumbent {
                            Some(j + 1)
                        } else {
                            None
                        }
                    })
                    .flatten()
                    .min()
            })
        };
        metrics.add_wasted(stats.wasted as u64);

        let frontier = cordon - now - 1;
        debug_assert!(frontier >= 1);

        if cordon <= n {
            // Build B_new: best decisions among the new frontier, for [cordon, n].
            self.intervals.clear();
            find_intervals_concave(
                problem,
                &self.d,
                now + 1,
                cordon - 1,
                cordon,
                n,
                &mut self.intervals,
                metrics,
            );
            let mut b_new = BestDecisionArray::empty();
            b_new.rebuild_from_intervals(self.intervals.drain(..));
            let mut b_old = std::mem::take(&mut self.b);
            b_old.clip_front(cordon);
            self.b = merge_new_old(
                problem, &self.d, b_new, b_old, cordon, n, self.merge, metrics,
            );
        } else {
            self.b.rebuild_from_intervals(std::iter::empty());
        }
        self.now = cordon - 1;
        frontier
    }

    fn finish(self) -> Self::Output {
        (self.d, self.best)
    }

    fn round_budget(&self) -> Option<u64> {
        // At least one state is finalized per round.
        Some(self.n as u64)
    }
}

/// Concave `FindIntervals`: like the convex version but with the decision
/// ranges swapped between the two recursive calls.
#[allow(clippy::too_many_arguments)]
fn find_intervals_concave<P: GlwsProblem>(
    problem: &P,
    d: &[i64],
    jl: usize,
    jr: usize,
    il: usize,
    ir: usize,
    out: &mut Vec<(usize, usize, usize)>,
    metrics: &MetricsCollector,
) {
    if il > ir {
        return;
    }
    if jl == jr {
        out.push((il, ir, jl));
        return;
    }
    let im = (il + ir) / 2;
    let jm = crate::convex::argmin_decision(problem, d, jl, jr, im, metrics);
    let state_count = ir - il + 1;
    let (mut left, right) = maybe_join(
        state_count,
        || {
            let mut v = Vec::new();
            if im > il {
                // Earlier states prefer later (or equal) decisions.
                find_intervals_concave(problem, d, jm, jr, il, im - 1, &mut v, metrics);
            }
            v
        },
        || {
            let mut v = Vec::new();
            // Later states prefer earlier (or equal) decisions.
            find_intervals_concave(problem, d, jl, jm, im + 1, ir, &mut v, metrics);
            v
        },
    );
    left.push((im, im, jm));
    left.extend(right);
    out.extend(left);
}

/// Value of state `i` using decision `j` (which must be finalized in `d`).
#[inline]
fn value_via<P: GlwsProblem>(problem: &P, d: &[i64], j: usize, i: usize) -> i64 {
    problem.e(d[j], j) + problem.w(j, i)
}

/// Merge `b_new` (decisions from the latest frontier, covering `[cordon, n]`)
/// with `b_old` (earlier decisions, clipped to `[cordon, n]`).  By concave
/// decision monotonicity the positions where a new decision is *strictly*
/// better form a prefix `[cordon, p]`.
#[allow(clippy::too_many_arguments)]
fn merge_new_old<P: GlwsProblem>(
    problem: &P,
    d: &[i64],
    b_new: BestDecisionArray,
    b_old: BestDecisionArray,
    cordon: usize,
    n: usize,
    strategy: ConcaveMergeStrategy,
    metrics: &MetricsCollector,
) -> BestDecisionArray {
    debug_assert_eq!(b_new.coverage(), Some((cordon, n)));
    debug_assert_eq!(b_old.coverage(), Some((cordon, n)));

    let new_strictly_better = |i: usize, probes: &mut u64| -> bool {
        *probes += 2;
        let jn = b_new.decision_at(i);
        let jo = b_old.decision_at(i);
        value_via(problem, d, jn, i) < value_via(problem, d, jo, i)
    };

    let mut probes = 0u64;
    let p = match strategy {
        ConcaveMergeStrategy::PositionBinarySearch => {
            // Largest position in [cordon, n] where the new decision strictly
            // wins (prefix-monotone predicate), or None.
            if !new_strictly_better(cordon, &mut probes) {
                None
            } else {
                let (mut lo, mut hi) = (cordon, n);
                while lo < hi {
                    let mid = (lo + hi).div_ceil(2);
                    if new_strictly_better(mid, &mut probes) {
                        lo = mid;
                    } else {
                        hi = mid - 1;
                    }
                }
                Some(lo)
            }
        }
        ConcaveMergeStrategy::PaperAlgorithm2 => {
            algorithm2_cut_point(problem, d, &b_new, &b_old, &mut probes)
        }
    };
    metrics.add_probes(probes);

    match p {
        None => b_old,
        Some(p) if p >= n => b_new,
        Some(p) => {
            let mut new_part = b_new;
            new_part.clip_back(p);
            let mut old_part = b_old;
            old_part.clip_front(p + 1);
            new_part.concat(old_part)
        }
    }
}

/// The cut-point search of Algorithm 2 in the paper: for each interval of
/// `B_new`, look up the best old decision of its left endpoint, locate the last
/// interval of `B_new` that still beats the old candidate there, then refine
/// with binary searches inside `B_old` and over positions.
///
/// Kept primarily for the ablation study; produces the same cut point as the
/// plain position binary search (up to ties, which do not affect DP values).
fn algorithm2_cut_point<P: GlwsProblem>(
    problem: &P,
    d: &[i64],
    b_new: &BestDecisionArray,
    b_old: &BestDecisionArray,
    probes: &mut u64,
) -> Option<usize> {
    // Step 1 (Alg. 2 lines 1-2): for every interval ([l_k, r_k], j_k) of B_new,
    // find the best old decision x_k of l_k, in parallel.
    let triples = b_new.triples();
    let xs: Vec<usize> = triples
        .par_iter()
        .with_min_len(round_min_grain(triples.len()))
        .map(|t| b_old.decision_at(t.l))
        .collect();
    *probes += triples.len() as u64;

    // Step 2 (line 3): last interval whose new decision still strictly beats
    // the old candidate at its left endpoint.
    let wins_at_left = |k: usize| -> bool {
        let t = &triples[k];
        value_via(problem, d, t.j, t.l) < value_via(problem, d, xs[k], t.l)
    };
    *probes += (triples.len().max(2)).ilog2() as u64 + 1;
    if triples.is_empty() || !wins_at_left(0) {
        return None;
    }
    let (mut lo, mut hi) = (0usize, triples.len() - 1);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if wins_at_left(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let k = lo;
    let t = triples[k];

    // Step 3 (lines 4-5): the cut point lies inside interval k (or at its end).
    // Binary search the last position in [t.l, t.r] where the new decision j_k
    // strictly beats the best old decision of that position.
    let beats_old_at = |pos: usize, probes: &mut u64| -> bool {
        *probes += 2;
        let jo = b_old.decision_at(pos);
        value_via(problem, d, t.j, pos) < value_via(problem, d, jo, pos)
    };
    let (mut lo, mut hi) = (t.l, t.r);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if beats_old_at(mid, probes) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{ClosureCost, ConcaveGapCost, LinearGapCost};
    use crate::naive::naive_glws;
    use crate::seq::sequential_concave_glws;

    #[test]
    fn matches_naive_on_sqrt_costs() {
        for n in [1usize, 2, 3, 8, 33, 100, 257] {
            for &(a, b) in &[(0i64, 1i64), (5, 3), (50, 2), (1000, 7)] {
                let p = ConcaveGapCost::new(n, a, b);
                let got = parallel_concave_glws(&p);
                let want = naive_glws(&p);
                assert_eq!(got.d, want.d, "n {n} a {a} b {b}");
                assert!(got.check_consistency(&p));
            }
        }
    }

    #[test]
    fn matches_sequential_on_larger_instances() {
        for &(a, b) in &[(3i64, 2i64), (200, 1)] {
            let p = ConcaveGapCost::new(4000, a, b);
            let got = parallel_concave_glws(&p);
            let want = sequential_concave_glws(&p);
            assert_eq!(got.d, want.d);
        }
    }

    #[test]
    fn both_merge_strategies_agree() {
        for n in [10usize, 64, 300] {
            for &(a, b) in &[(0i64, 2i64), (17, 5)] {
                let p = ConcaveGapCost::new(n, a, b);
                let r1 = parallel_concave_glws_with(&p, ConcaveMergeStrategy::PositionBinarySearch);
                let r2 = parallel_concave_glws_with(&p, ConcaveMergeStrategy::PaperAlgorithm2);
                assert_eq!(r1.d, r2.d, "n {n} a {a} b {b}");
                assert_eq!(r1.d, naive_glws(&p).d);
            }
        }
    }

    #[test]
    fn linear_costs_work_under_concave_solver() {
        for n in [1usize, 7, 90] {
            let p = LinearGapCost { a: 4, b: 6, n };
            assert_eq!(parallel_concave_glws(&p).d, naive_glws(&p).d);
        }
    }

    #[test]
    fn concave_closure_cost_with_general_e() {
        // Capped-linear gap cost (concave) with a generalized E function.
        let p = ClosureCost::new(
            150,
            0,
            |j, i| 100 + 10 * (i - j).min(7) as i64,
            |dj, j| dj + (j % 3) as i64,
        );
        let got = parallel_concave_glws(&p);
        let want = naive_glws(&p);
        assert_eq!(got.d, want.d);
    }

    #[test]
    fn multi_round_concave_instance_with_bonus_states() {
        // With E[j] = D[j] alone, concavity makes a single segment optimal and
        // the algorithm trivially finishes in one round.  A generalized E that
        // grants a bonus at certain states makes the optimum chain through
        // them, forcing multiple rounds and exercising the FindIntervals +
        // merge path of the concave algorithm.
        for n in [30usize, 100, 257] {
            let p = ClosureCost::new(
                n,
                0,
                |j, i| 200 + 5 * ((i - j).min(40) as i64),
                |d, j| d - if j > 0 && j % 7 == 3 { 400 } else { 0 },
            );
            let got = parallel_concave_glws(&p);
            let want = naive_glws(&p);
            assert_eq!(got.d, want.d, "n {n}");
            let got2 = parallel_concave_glws_with(&p, ConcaveMergeStrategy::PaperAlgorithm2);
            assert_eq!(got2.d, want.d, "n {n} (Algorithm 2 merge)");
            if n >= 100 {
                assert!(
                    got.metrics.rounds > 1,
                    "instance should need multiple rounds, got {}",
                    got.metrics.rounds
                );
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        let p = ConcaveGapCost::new(0, 1, 1);
        assert_eq!(parallel_concave_glws(&p).d, vec![0]);
        let p = ConcaveGapCost::new(1, 4, 3);
        let r = parallel_concave_glws(&p);
        assert_eq!(r.d, vec![0, 4 + 3000]);
        assert_eq!(r.metrics.rounds, 1);
    }

    #[test]
    fn work_counters_are_near_linear() {
        let n = 5000usize;
        let p = ConcaveGapCost::new(n, 50, 3);
        let r = parallel_concave_glws(&p);
        let bound = (n as u64) * 64;
        assert!(
            r.metrics.work_proxy() < bound,
            "work proxy {} exceeds {}",
            r.metrics.work_proxy(),
            bound
        );
    }
}
