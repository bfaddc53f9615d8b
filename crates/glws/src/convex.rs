//! Parallel convex GLWS — Algorithm 1 of the paper (Theorem 4.1).
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
//!    the candidate-decision range splits along with the state range.  The
//!    concave solver runs the same recursion with the decision ranges
//!    swapped.  A recursion node's work is bounded by the smaller of its two
//!    ranges, so it forks only when both reach `SEQ_CUTOFF`; below that it
//!    writes its triples in order into a buffer the cordon reuses, so a round
//!    whose frontier stays under the cutoff runs inline and allocates nothing.
//!
//! The number of rounds equals the *perfect depth* of the DP DAG — the length
//! of the longest best-decision chain (Lemma 4.5) — e.g. the number of post
//! offices in the optimal solution of the running example.
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
/// only move the cordon earlier, never finalize a wrong value — and it keeps
/// the two-level binary search valid in the presence of cost ties (see the
/// module documentation of [`crate::best`]).
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
    let metrics = MetricsCollector::new();
    let (d, best) = run_phase_parallel(ConvexGlwsCordon::new(problem), &metrics);
    GlwsResult {
        d,
        best,
        metrics: metrics.snapshot(),
    }
}

/// [`PhaseParallel`] instance for Algorithm 1: each round is one
/// FindCordon + UpdateBest cycle, finalizing the states `[now+1, cordon-1]`.
pub struct ConvexGlwsCordon<'a, P: GlwsProblem> {
    problem: &'a P,
    d: Vec<i64>,
    best: Vec<usize>,
    b: BestDecisionArray,
    /// Per-round scratch for the `FindIntervals` output, reused across rounds
    /// so the round body allocates nothing at its high-water mark.
    intervals: Vec<(usize, usize, usize)>,
    now: usize,
    n: usize,
}

impl<'a, P: GlwsProblem> ConvexGlwsCordon<'a, P> {
    /// Initialize the DP arrays and the all-zero best-decision array.
    pub fn new(problem: &'a P) -> Self {
        let n = problem.n();
        let mut d = vec![0i64; n + 1];
        d[0] = problem.d0();
        ConvexGlwsCordon {
            problem,
            d,
            best: vec![0usize; n + 1],
            b: BestDecisionArray::initial(n),
            intervals: Vec::new(),
            now: 0,
            n,
        }
    }
}

impl<P: GlwsProblem> PhaseParallel for ConvexGlwsCordon<'_, P> {
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
                        // First state after j that j can (weakly) improve.
                        let ej = problem.e(dj, j);
                        let mut local_probes = 0u64;
                        let sentinel = b_ref.first_position_where(j + 1, &mut |pos, inc| {
                            local_probes += 1;
                            let incumbent = problem.e(d_final[inc], inc) + problem.w(inc, pos);
                            weakly_beats(ej + problem.w(j, pos), incumbent)
                        });
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
        // UpdateBest: rebuild B for [cordon, n] from decisions [now+1, cordon-1].
        //
        // In the convex case the restricted best decision of every state at or
        // after the cordon lies inside the new frontier (see Sec. 4.2.2), so
        // the old array is discarded wholesale.
        // ------------------------------------------------------------------
        if cordon <= n {
            self.intervals.clear();
            metrics.add_edges(find_intervals(
                problem,
                &self.d,
                true, // convex decision monotonicity
                now + 1,
                cordon - 1,
                cordon,
                n,
                &mut self.intervals,
            ));
            self.b.rebuild_from_intervals(self.intervals.drain(..));
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
        // Lemma 4.5: rounds == perfect depth <= n.
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
pub(crate) fn find_intervals<P: GlwsProblem>(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{ClosureCost, ConvexGapCost, LinearGapCost, PostOfficeProblem};
    use crate::naive::naive_glws;
    use crate::seq::sequential_convex_glws;

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
    fn matches_sequential_on_larger_instances() {
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
    fn work_counters_are_near_linear() {
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
}
