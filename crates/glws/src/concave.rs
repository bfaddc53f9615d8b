//! Parallel concave GLWS (Sec. 4.3, Theorem 4.2).
//!
//! Three modifications relative to the convex algorithm:
//!
//! 1. **Sentinel placement.**  By concavity, if a tentative state `j` can
//!    improve *any* later state it can improve `j + 1`, so each probe only
//!    checks its immediate successor instead of binary-searching `B`.
//! 2. **FindIntervals.**  The same recursion as the convex solver's, with the
//!    decision ranges swapped: if `jm` is the best new decision for the
//!    midpoint state `im`, states *before* `im` have their best new decision
//!    in `[jm, jr]` and states *after* `im` in `[jl, jm]`.
//! 3. **Merging with the old array.**  Unlike the convex case, states beyond
//!    the cordon may still prefer an *old* (already finalized) decision, so the
//!    freshly built `B_new` (decisions from the new frontier) must be merged
//!    with `B_old`.  By concave decision monotonicity the states preferring a
//!    new decision form a prefix `[cordon, p]`; the cut point `p` is found with
//!    one binary search over positions that compares the two arrays'
//!    candidates (a simplification of the paper's Alg. 2, which reaches the
//!    same cut point through per-interval searches).  `B_new` lives in a
//!    second array the cordon owns: each round rebuilds it, clips it to
//!    `[cordon, p]`, appends the old suffix `[p + 1, n]` and swaps it with
//!    `B`, so the merge copies triples but allocates nothing once both
//!    arrays reach their high-water mark.

use crate::best::BestDecisionArray;
use crate::convex::find_intervals;
use crate::cost::GlwsProblem;
use crate::GlwsResult;
use pardp_core::{prefix_doubling_cordon, run_phase_parallel, PhaseParallel};
use pardp_parutils::{round_min_grain, MetricsCollector};
use rayon::prelude::*;

/// Solve a concave GLWS instance with the parallel cordon algorithm.
///
/// Runs [`ConcaveGlwsCordon`] through the shared phase-parallel driver, which
/// supplies the round accounting, frontier telemetry and stall guard.
pub fn parallel_concave_glws<P: GlwsProblem>(problem: &P) -> GlwsResult {
    let metrics = MetricsCollector::new();
    let (d, best) = run_phase_parallel(ConcaveGlwsCordon::new(problem), &metrics);
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
    d: Vec<i64>,
    best: Vec<usize>,
    b: BestDecisionArray,
    /// Per-round scratch for `B_new`, swapped with `b` after each merge.
    b_new: BestDecisionArray,
    /// Per-round scratch for the `FindIntervals` output, reused across rounds
    /// so the round body allocates nothing at its high-water mark.
    intervals: Vec<(usize, usize, usize)>,
    now: usize,
    n: usize,
}

impl<'a, P: GlwsProblem> ConcaveGlwsCordon<'a, P> {
    /// Initialize the DP arrays and the all-zero best-decision array.
    pub fn new(problem: &'a P) -> Self {
        let n = problem.n();
        let mut d = vec![0i64; n + 1];
        d[0] = problem.d0();
        ConcaveGlwsCordon {
            problem,
            d,
            best: vec![0usize; n + 1],
            b: BestDecisionArray::initial(n),
            b_new: BestDecisionArray::empty(),
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
        // Each probed state relaxes its own edge plus the edge into j + 1.
        metrics.add_edges(2 * stats.probed as u64);
        metrics.add_wasted(stats.wasted as u64);

        let frontier = cordon - now - 1;
        debug_assert!(frontier >= 1);

        if cordon <= n {
            // Build B_new: best decisions among the new frontier, for [cordon, n].
            self.intervals.clear();
            metrics.add_edges(find_intervals(
                problem,
                &self.d,
                false, // concave: the decision ranges swap
                now + 1,
                cordon - 1,
                cordon,
                n,
                &mut self.intervals,
            ));
            self.b_new.rebuild_from_intervals(self.intervals.drain(..));
            // B = B_new on [cordon, p] followed by B_old on [p + 1, n].
            let p = new_decisions_win_through(
                problem,
                &self.d,
                &self.b_new,
                &self.b,
                cordon,
                n,
                metrics,
            );
            self.b_new.clip_back(p);
            self.b.clip_front(p + 1);
            self.b_new.append(&self.b);
            std::mem::swap(&mut self.b, &mut self.b_new);
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

/// Value of state `i` using decision `j` (which must be finalized in `d`).
#[inline]
fn value_via<P: GlwsProblem>(problem: &P, d: &[i64], j: usize, i: usize) -> i64 {
    problem.e(d[j], j) + problem.w(j, i)
}

/// The last position `p` in `[cordon, n]` where `b_new`'s decision is
/// *strictly* better than `b_old`'s, or `cordon - 1` if there is none.  By
/// concave decision monotonicity those positions form a prefix, so one binary
/// search over positions finds `p` in `O(log² n)`.  Both arrays must cover
/// `[cordon, n]`.
fn new_decisions_win_through<P: GlwsProblem>(
    problem: &P,
    d: &[i64],
    b_new: &BestDecisionArray,
    b_old: &BestDecisionArray,
    cordon: usize,
    n: usize,
    metrics: &MetricsCollector,
) -> usize {
    debug_assert_eq!(b_new.coverage(), Some((cordon, n)));
    debug_assert!(matches!(b_old.coverage(), Some((lo, hi)) if lo <= cordon && hi == n));
    let mut probes = 0u64;
    let mut new_strictly_better = |i: usize| -> bool {
        probes += 2;
        let jn = b_new.decision_at(i);
        let jo = b_old.decision_at(i);
        value_via(problem, d, jn, i) < value_via(problem, d, jo, i)
    };
    let p = if !new_strictly_better(cordon) {
        cordon - 1
    } else {
        let (mut lo, mut hi) = (cordon, n);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if new_strictly_better(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    };
    metrics.add_probes(probes);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{ClosureCost, ConcaveGapCost, LinearGapCost};
    use crate::naive::naive_glws;
    use crate::seq::sequential_concave_glws;

    #[test]
    fn matches_naive_on_sqrt_costs() {
        for n in [1usize, 2, 3, 8, 10, 33, 64, 100, 257, 300] {
            for &(a, b) in &[(0i64, 1i64), (0, 2), (5, 3), (17, 5), (50, 2), (1000, 7)] {
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
