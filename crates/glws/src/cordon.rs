//! Parallel convex and concave GLWS: Algorithm 1 of the paper (Theorem 4.1)
//! and its concave variant (Sec. 4.3, Theorem 4.2), as one cordon.
//!
//! The algorithm is a specialization of the Cordon framework.  It maintains
//! `now`, the last finalized state, and the best-decision interval array `B`
//! covering the tentative states.  Each round:
//!
//! 1. **FindCordon** (Sec. 4.2.1): probe batches of geometrically growing size
//!    after `now` (prefix doubling).  Each probed state `j` reads its current
//!    best decision from `B`, computes its tentative value `D[j]`, and places a
//!    sentinel at `s_j`, the *first* state that `j` could improve — found with
//!    a two-level binary search in `B`, valid because convex decision
//!    monotonicity makes "`j` beats the current best at `i`" a suffix-monotone
//!    predicate in `i`.  The leftmost sentinel is the cordon; every state in
//!    `[now+1, cordon-1]` is ready and its value computed in the probe is
//!    final.
//! 2. **UpdateBest** (Sec. 4.2.2): rebuild `B` for the states `[cordon, n]`
//!    from the newly finalized decisions `[now+1, cordon-1]` with the
//!    divide-and-conquer `find_intervals`, which is work-efficient because
//!    the candidate-decision range splits along with the state range.  A
//!    recursion node's work is bounded by the smaller of its two ranges, so
//!    it forks only when both reach `SEQ_CUTOFF`; below that it writes its
//!    triples in order into a buffer the cordon reuses, so a round whose
//!    frontier stays under the cutoff runs inline and allocates nothing.
//!
//! The number of rounds equals the *perfect depth* of the DP DAG — the length
//! of the longest best-decision chain (Lemma 4.5) — e.g. the number of post
//! offices in the optimal solution of the running example.
//!
//! [`GlwsCordon`] runs both shapes; its `CONVEX` parameter selects the shape
//! ([`ConvexGlwsCordon`] and [`ConcaveGlwsCordon`] name the two).  The
//! concave variant makes three changes to Algorithm 1:
//!
//! 1. **Sentinel placement** (the probe's concave branch).  By concavity, if
//!    a tentative state `j` can improve *any* later state it can improve
//!    `j + 1`, so each probe only checks its immediate successor instead of
//!    binary-searching `B`.
//! 2. **FindIntervals** (`find_intervals`'s `convex` flag).  The same
//!    recursion with the decision ranges swapped: if `jm` is the best new
//!    decision for the midpoint state `im`, states *before* `im` have their
//!    best new decision in `[jm, jr]` and states *after* `im` in `[jl, jm]`.
//! 3. **Merging with the old array** (UpdateBest's concave branch).  Unlike
//!    the convex case, states beyond the cordon may still prefer an *old*
//!    (already finalized) decision, so the freshly built `B_new` (decisions
//!    from the new frontier) must be merged with `B_old`.  By concave
//!    decision monotonicity the states preferring a new decision form a
//!    prefix `[cordon, p]`; the cut point `p` is found with one binary search
//!    over positions that compares the two arrays' candidates (a
//!    simplification of the paper's Alg. 2, which reaches the same cut point
//!    through per-interval searches).  `B_new` lives in a second array the
//!    cordon owns: each round rebuilds it, clips it to `[cordon, p]`, appends
//!    the old suffix `[p + 1, n]` and swaps it with `B`, so the merge copies
//!    triples but allocates nothing once both arrays reach their high-water
//!    mark.
//!
//! The paper's polylog-round OAT (Theorem 5.1) phrases each valley's combine
//! schedule as an instance of this solver; the shipped driver
//! (`pardp_oat::valley`) instead derives the same round structure from
//! weight-doubling thresholds, keeping every combine verbatim Garsia–Wachs —
//! its module docs spell out the correspondence.

use crate::best::BestDecisionArray;
use crate::cost::GlwsProblem;
use crate::GlwsResult;
use pardp_core::{prefix_doubling_cordon, run_phase_parallel, PhaseParallel};
use pardp_parutils::{round_min_grain, MetricsCollector, SEQ_CUTOFF};
use rayon::prelude::*;

/// Tie handling: a probe state places a sentinel wherever it is at least as
/// good as the current best (weak improvement).  This is conservative — it can
/// only move the cordon earlier, never finalize a wrong value — and under
/// convex costs it keeps the two-level binary search valid in the presence of
/// cost ties (see the module documentation of [`crate::best`]).
#[inline]
fn weakly_beats(candidate: i64, incumbent: i64) -> bool {
    candidate <= incumbent
}

/// Solve a convex GLWS instance with the parallel cordon algorithm.
///
/// Requires convex total monotonicity of `E[j] + w(j, i)` (implied by the
/// convex Monge condition on `w`).  Produces the same DP values as
/// [`crate::naive_glws`] and [`crate::sequential_convex_glws`].
///
/// Runs [`ConvexGlwsCordon`] through the shared phase-parallel driver, which
/// supplies the round accounting, frontier telemetry and stall guard.
pub fn parallel_convex_glws<P: GlwsProblem>(problem: &P) -> GlwsResult {
    solve(ConvexGlwsCordon::new(problem))
}

/// Solve a concave GLWS instance with the parallel cordon algorithm.
///
/// Runs [`ConcaveGlwsCordon`] through the shared phase-parallel driver, which
/// supplies the round accounting, frontier telemetry and stall guard.
pub fn parallel_concave_glws<P: GlwsProblem>(problem: &P) -> GlwsResult {
    solve(ConcaveGlwsCordon::new(problem))
}

fn solve<P: GlwsProblem, const CONVEX: bool>(cordon: GlwsCordon<'_, P, CONVEX>) -> GlwsResult {
    let metrics = MetricsCollector::new();
    let (d, best) = run_phase_parallel(cordon, &metrics);
    GlwsResult {
        d,
        best,
        metrics: metrics.snapshot(),
    }
}

/// Algorithm 1 for costs with the convex Monge property (Theorem 4.1).
pub type ConvexGlwsCordon<'a, P> = GlwsCordon<'a, P, true>;

/// Algorithm 1 with the concave changes of Sec. 4.3 (Theorem 4.2).
pub type ConcaveGlwsCordon<'a, P> = GlwsCordon<'a, P, false>;

/// [`PhaseParallel`] instance for Algorithm 1 under convex (`CONVEX`) or
/// concave costs: each round is one FindCordon + UpdateBest cycle,
/// finalizing the states `[now+1, cordon-1]`.
pub struct GlwsCordon<'a, P: GlwsProblem, const CONVEX: bool> {
    problem: &'a P,
    d: Vec<i64>,
    best: Vec<usize>,
    b: BestDecisionArray,
    /// Per-round scratch for the concave merge's `B_new`, swapped with `b`
    /// after each merge (the convex rounds never touch it).
    b_new: BestDecisionArray,
    /// Per-round scratch for the `FindIntervals` output, reused across rounds
    /// so the round body allocates nothing at its high-water mark.
    intervals: Vec<(usize, usize, usize)>,
    now: usize,
    n: usize,
}

impl<'a, P: GlwsProblem, const CONVEX: bool> GlwsCordon<'a, P, CONVEX> {
    /// Initialize the DP arrays and the all-zero best-decision array.
    pub fn new(problem: &'a P) -> Self {
        let n = problem.n();
        let mut d = vec![0i64; n + 1];
        d[0] = problem.d0();
        GlwsCordon {
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

impl<P: GlwsProblem, const CONVEX: bool> PhaseParallel for GlwsCordon<'_, P, CONVEX> {
    /// DP values plus the best decision of every state.
    type Output = (Vec<i64>, Vec<usize>);

    fn is_done(&self) -> bool {
        self.now >= self.n
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        let problem = self.problem;
        let (now, n) = (self.now, self.n);
        // ------------------------------------------------------------------
        // FindCordon: prefix-doubling probe of the states after `now`.
        //
        // The DP array is split at `now`: the prefix holds finalized values
        // (read-only during the probes), the suffix receives the tentative
        // values computed by the probes.  Values written left of the eventual
        // cordon are final.
        // ------------------------------------------------------------------
        let mut probes = 0u64;
        let (cordon, stats) = {
            let (d_final, d_tail) = self.d.split_at_mut(now + 1);
            let (_, best_tail) = self.best.split_at_mut(now + 1);
            let b_ref = &self.b;
            let d_final: &[i64] = d_final;

            prefix_doubling_cordon(now, n, |lo, hi| {
                let batch_d = &mut d_tail[(lo - now - 1)..=(hi - now - 1)];
                let batch_best = &mut best_tail[(lo - now - 1)..=(hi - now - 1)];
                let batch_len = batch_d.len();
                // Each probe returns its search's probe count beside its
                // sentinel (`usize::MAX` for none); the reduction sums the
                // one and takes the minimum of the other.
                let (batch_probes, sentinel) = batch_d
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
                        let mut local_probes = 0u64;
                        let sentinel = if CONVEX {
                            // First state after j that j can (weakly) improve.
                            let ej = problem.e(dj, j);
                            b_ref.first_position_where(j + 1, &mut |pos, inc| {
                                local_probes += 1;
                                let incumbent = problem.e(d_final[inc], inc) + problem.w(inc, pos);
                                weakly_beats(ej + problem.w(j, pos), incumbent)
                            })
                        } else if j < n {
                            // Incumbent value of j+1 given only finalized
                            // decisions: j sentinels j+1 if it can (weakly)
                            // improve it.
                            let inc = b_ref.decision_at(j + 1);
                            let incumbent = problem.e(d_final[inc], inc) + problem.w(inc, j + 1);
                            let candidate = problem.e(dj, j) + problem.w(j, j + 1);
                            weakly_beats(candidate, incumbent).then_some(j + 1)
                        } else {
                            None
                        };
                        (local_probes, sentinel.unwrap_or(usize::MAX))
                    })
                    .reduce(|| (0, usize::MAX), |a, b| (a.0 + b.0, a.1.min(b.1)));
                probes += batch_probes;
                (sentinel != usize::MAX).then_some(sentinel)
            })
        };
        // Each probed state relaxes its own edge plus the candidate edge.
        metrics.add_edges(2 * stats.probed as u64);
        metrics.add_probes(probes);
        metrics.add_wasted(stats.wasted as u64);

        let frontier = cordon - now - 1;
        debug_assert!(frontier >= 1, "cordon must make progress");

        // ------------------------------------------------------------------
        // UpdateBest: the best decisions among [now+1, cordon-1] for the
        // states [cordon, n].
        // ------------------------------------------------------------------
        if cordon <= n {
            self.intervals.clear();
            metrics.add_edges(find_intervals(
                problem,
                &self.d,
                CONVEX,
                now + 1,
                cordon - 1,
                cordon,
                n,
                &mut self.intervals,
            ));
            if CONVEX {
                // The restricted best decision of every state at or after
                // the cordon lies inside the new frontier (Sec. 4.2.2), so
                // the old array is discarded wholesale.
                self.b.rebuild_from_intervals(self.intervals.drain(..));
            } else {
                // B = B_new on [cordon, p] followed by B_old on [p + 1, n].
                self.b_new.rebuild_from_intervals(self.intervals.drain(..));
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
            }
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
        // Every round finalizes at least one state; under convex costs the
        // rounds equal the perfect depth (Lemma 4.5).
        Some(self.n as u64)
    }
}

/// `FindIntervals(jl, jr, il, ir)` (Alg. 1 lines 23–32): compute the
/// best-decision triples of the states `il..=ir` restricted to decisions
/// `jl..=jr`, append them to `out` in increasing state order, and return the
/// number of edges evaluated.
///
/// The best decision `jm` of the midpoint state `im` splits both ranges.
/// Under convex decision monotonicity (`convex`) the states before `im` take
/// their decision from `[jl, jm]` and those after it from `[jm, jr]`; under
/// concave monotonicity the two decision ranges swap (Sec. 4.3).
///
/// A node's work is bounded by the smaller of its two ranges, so it forks
/// only when both reach [`SEQ_CUTOFF`]: the left half then recurses into
/// `out` while the right half is staged in its own buffer.  Below the cutoff
/// the halves recurse straight into `out`, which allocates nothing once
/// `out` has reached its high-water mark.
#[allow(clippy::too_many_arguments)]
fn find_intervals<P: GlwsProblem>(
    problem: &P,
    d: &[i64],
    convex: bool,
    jl: usize,
    jr: usize,
    il: usize,
    ir: usize,
    out: &mut Vec<(usize, usize, usize)>,
) -> u64 {
    if il > ir {
        return 0;
    }
    if jl == jr {
        out.push((il, ir, jl));
        return 0;
    }
    let im = (il + ir) / 2;
    // Best decision for the midpoint state among [jl, jr] (leftmost argmin).
    let jm = argmin_decision(problem, d, jl, jr, im);
    let edges = (jr - jl + 1) as u64;
    let recurse = |(jl, jr): (usize, usize), il: usize, ir: usize, out: &mut Vec<_>| {
        find_intervals(problem, d, convex, jl, jr, il, ir, out)
    };
    let (left_decisions, right_decisions) = if convex {
        ((jl, jm), (jm, jr))
    } else {
        ((jm, jr), (jl, jm))
    };
    let left = |out: &mut Vec<_>| {
        if im > il {
            recurse(left_decisions, il, im - 1, out)
        } else {
            0
        }
    };
    let right = |out: &mut Vec<_>| recurse(right_decisions, im + 1, ir, out);
    if (ir - il + 1).min(jr - jl + 1) >= SEQ_CUTOFF {
        let mut right_half = Vec::new();
        let (left_edges, right_edges) = rayon::join(|| left(&mut *out), || right(&mut right_half));
        out.push((im, im, jm));
        out.append(&mut right_half);
        edges + left_edges + right_edges
    } else {
        let left_edges = left(out);
        out.push((im, im, jm));
        edges + left_edges + right(out)
    }
}

/// Leftmost argmin of `E[j] + w(j, i)` over `j in [jl, jr]` (all decisions
/// already finalized), evaluated as a parallel reduction for ranges of at
/// least [`SEQ_CUTOFF`] decisions.
fn argmin_decision<P: GlwsProblem>(
    problem: &P,
    d: &[i64],
    jl: usize,
    jr: usize,
    i: usize,
) -> usize {
    let width = jr - jl + 1;
    if width < SEQ_CUTOFF {
        let mut best_j = jl;
        let mut best_v = problem.e(d[jl], jl) + problem.w(jl, i);
        for j in (jl + 1)..=jr {
            let v = problem.e(d[j], j) + problem.w(j, i);
            if v < best_v {
                best_v = v;
                best_j = j;
            }
        }
        best_j
    } else {
        #[expect(
            clippy::unwrap_used,
            reason = "the range is non-empty (width >= SEQ_CUTOFF on this branch), so the \
                      reduction always yields a value; a silent fallback here would \
                      corrupt the argmin"
        )]
        let best_j = (jl..=jr)
            .into_par_iter()
            .with_min_len(round_min_grain(jr - jl + 1))
            .map(|j| (problem.e(d[j], j) + problem.w(j, i), j))
            .reduce_with(|a, b| if b < a { b } else { a })
            .map(|(_, j)| j)
            .unwrap();
        best_j
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
    use crate::cost::{
        ClosureCost, ConcaveGapCost, ConvexGapCost, LinearGapCost, PostOfficeProblem,
    };
    use crate::naive::naive_glws;
    use crate::seq::{sequential_concave_glws, sequential_convex_glws};

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
    fn matches_naive_on_small_post_office() {
        for seed in 0..8 {
            for &open in &[1i64, 5, 50, 1000, 100_000] {
                let p = PostOfficeProblem::new(pseudo_coords(40, seed, 15), open);
                let got = parallel_convex_glws(&p);
                let want = naive_glws(&p);
                assert_eq!(got.d, want.d, "seed {seed} open {open}");
                assert!(got.check_consistency(&p), "seed {seed} open {open}");
            }
        }
    }

    #[test]
    fn convex_matches_sequential_on_larger_instances() {
        for seed in 0..3 {
            for &open in &[10i64, 1_000, 1_000_000] {
                let p = PostOfficeProblem::new(pseudo_coords(3000, seed, 8), open);
                let got = parallel_convex_glws(&p);
                let want = sequential_convex_glws(&p);
                assert_eq!(got.d, want.d, "seed {seed} open {open}");
            }
        }
    }

    #[test]
    fn matches_naive_on_gap_cost_families() {
        for n in [1usize, 2, 3, 5, 17, 64, 200] {
            for &(a, b, c) in &[(0i64, 0i64, 1i64), (7, 3, 1), (100, 0, 5)] {
                let p = ConvexGapCost::new(n, a, b, c);
                let got = parallel_convex_glws(&p);
                let want = naive_glws(&p);
                assert_eq!(got.d, want.d, "n {n} ({a},{b},{c})");
            }
        }
    }

    #[test]
    fn linear_cost_ties_are_handled() {
        // Affine costs make every decision tie-heavy; values must still match.
        for n in [1usize, 5, 40, 150] {
            let p = LinearGapCost { a: 2, b: 3, n };
            assert_eq!(parallel_convex_glws(&p).d, naive_glws(&p).d);
        }
    }

    #[test]
    fn generalized_e_function() {
        let p = ClosureCost::new(
            120,
            5,
            |j, i| {
                let len = (i - j) as i64;
                20 + len * len
            },
            |d, j| d + (j % 7) as i64,
        );
        assert_eq!(parallel_convex_glws(&p).d, naive_glws(&p).d);
    }

    #[test]
    fn rounds_equal_perfect_depth() {
        // Lemma 4.5: the convex cordon algorithm runs in exactly as many rounds
        // as the longest best-decision chain.
        for seed in 0..5 {
            let p = PostOfficeProblem::new(pseudo_coords(500, seed, 10), 200);
            let got = parallel_convex_glws(&p);
            let depth = got.perfect_depth();
            assert_eq!(
                got.metrics.rounds as usize, depth,
                "seed {seed}: rounds {} vs perfect depth {depth}",
                got.metrics.rounds
            );
        }
    }

    #[test]
    fn one_cluster_means_one_round() {
        let p = PostOfficeProblem::new(pseudo_coords(200, 3, 5), i64::MAX / 8);
        let got = parallel_convex_glws(&p);
        assert_eq!(got.metrics.rounds, 1);
        assert_eq!(got.best[200], 0);
    }

    #[test]
    fn empty_and_singleton_instances() {
        let p = ConvexGapCost::new(0, 1, 1, 1);
        let r = parallel_convex_glws(&p);
        assert_eq!(r.d, vec![0]);
        let p = ConvexGapCost::new(1, 2, 3, 4);
        let r = parallel_convex_glws(&p);
        assert_eq!(r.d, vec![0, 9]);
        assert_eq!(r.metrics.rounds, 1);
    }

    #[test]
    fn convex_work_counters_are_near_linear() {
        let n = 5000usize;
        let p = PostOfficeProblem::new(pseudo_coords(n, 11, 10), 300);
        let r = parallel_convex_glws(&p);
        // Edges + probes should be O(n log n); allow a generous constant.
        let bound = (n as u64) * 64;
        assert!(
            r.metrics.work_proxy() < bound,
            "work proxy {} exceeds {}",
            r.metrics.work_proxy(),
            bound
        );
        // Prefix doubling wastes at most as many states as it finalizes.
        assert!(r.metrics.wasted_states <= r.metrics.states_finalized + r.metrics.rounds);
    }

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
    fn concave_matches_sequential_on_larger_instances() {
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
    fn concave_work_counters_are_near_linear() {
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
