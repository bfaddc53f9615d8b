//! The sequential Galil–Park GLWS algorithm `Γ_lws` (Sec. 4.1).
//!
//! The algorithm processes states `1..=n` in order while maintaining a
//! *compressed best-decision array*: a monotonic queue of triples `([l, r], j)`
//! covering the still-unprocessed suffix, meaning every state in `[l, r]`
//! currently has best decision `j` among the decisions inserted so far.  When
//! state `i` is processed its best decision is read off the front of the
//! queue in `O(1)`, and inserting `i` as a candidate decision for later states
//! costs `O(log n)` amortized: by decision monotonicity the positions where
//! `i` wins form a suffix (convex) or a prefix (concave) of the remaining
//! states, so whole triples are popped and a single binary search finds the
//! exact boundary.  Total work `O(n log n)` — this is the practical algorithm
//! the paper parallelizes, and the "Sequential" series of Fig. 7.

use crate::cost::GlwsProblem;
use crate::GlwsResult;
use pardp_parutils::MetricsCollector;
use std::collections::VecDeque;

/// One entry of the compressed best-decision structure: states `l..=r`
/// currently have best decision `j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Triple {
    l: usize,
    r: usize,
    j: usize,
}

/// Solve a convex GLWS instance with the `O(n log n)` monotonic-queue
/// algorithm.  The cost function must satisfy the convex Monge condition
/// (or at least convex total monotonicity of `E[j] + w(j, i)`).
pub fn sequential_convex_glws<P: GlwsProblem>(problem: &P) -> GlwsResult {
    sequential_glws(problem, Monotonicity::Convex)
}

/// Solve a concave GLWS instance with the `O(n log n)` monotonic-stack
/// algorithm.  The cost function must satisfy the concave Monge condition.
pub fn sequential_concave_glws<P: GlwsProblem>(problem: &P) -> GlwsResult {
    sequential_glws(problem, Monotonicity::Concave)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Monotonicity {
    Convex,
    Concave,
}

fn sequential_glws<P: GlwsProblem>(problem: &P, kind: Monotonicity) -> GlwsResult {
    let n = problem.n();
    let metrics = MetricsCollector::new();
    let mut d = vec![0i64; n + 1];
    let mut best = vec![0usize; n + 1];
    d[0] = problem.d0();

    if n == 0 {
        return GlwsResult {
            d,
            best,
            metrics: metrics.snapshot(),
        };
    }

    // f(j, i): value of state i when its decision is j (d[j] must be final).
    let f = |d_j: i64, j: usize, i: usize| problem.e(d_j, j) + problem.w(j, i);

    let mut queue: VecDeque<Triple> = VecDeque::new();
    queue.push_back(Triple { l: 1, r: n, j: 0 });

    let mut probes = 0u64;
    for i in 1..=n {
        // The front triple covers state i.
        #[expect(
            clippy::expect_used,
            reason = "the queue covers [i, n] by the loop invariant; a silent skip \
                      here would emit wrong DP values, so the invariant check stays loud"
        )]
        let front = *queue.front().expect("coverage invariant violated");
        debug_assert!(front.l == i, "front of the queue must start at state i");
        let bi = front.j;
        d[i] = f(d[bi], bi, i);
        best[i] = bi;

        // Advance the coverage past state i.
        if front.r == i {
            queue.pop_front();
        } else {
            #[expect(clippy::unwrap_used, reason = "non-empty: `front` was just read")]
            let head = queue.front_mut().unwrap();
            head.l = i + 1;
        }
        if i == n {
            break;
        }

        // Insert decision i for the remaining states [i+1, n].
        // "wins" means strictly better, so ties keep the earlier decision and
        // the result matches the leftmost-argmin oracle.
        let wins =
            |pos: usize, against: usize| -> bool { f(d[i], i, pos) < f(d[against], against, pos) };
        match kind {
            Monotonicity::Convex => {
                // Decision i wins on a suffix of the remaining states: consume
                // whole triples from the back, then split the last survivor.
                let mut start = None;
                while let Some(&back) = queue.back() {
                    probes += 1;
                    if wins(back.l, back.j) {
                        start = Some(back.l);
                        queue.pop_back();
                    } else {
                        break;
                    }
                }
                if let Some(&back) = queue.back() {
                    // i loses at back.l; check whether it wins anywhere in the
                    // triple, i.e. at back.r (suffix property).
                    probes += 1;
                    if wins(back.r, back.j) {
                        // Binary search the first position in (back.l, back.r]
                        // where i wins.
                        let (mut lo, mut hi) = (back.l + 1, back.r);
                        while lo < hi {
                            probes += 1;
                            let mid = (lo + hi) / 2;
                            if wins(mid, back.j) {
                                hi = mid;
                            } else {
                                lo = mid + 1;
                            }
                        }
                        #[expect(
                            clippy::unwrap_used,
                            reason = "non-empty on this branch: the enclosing `if` read \
                                      `queue.back()`"
                        )]
                        let tail = queue.back_mut().unwrap();
                        tail.r = lo - 1;
                        start = Some(lo);
                    }
                } else if start.is_none() {
                    // Queue is empty (i == coverage start); i covers the rest.
                    start = Some(i + 1);
                }
                if let Some(s) = start {
                    queue.push_back(Triple { l: s, r: n, j: i });
                }
            }
            Monotonicity::Concave => {
                // Decision i wins on a prefix of the remaining states: consume
                // whole triples from the front, then split the last survivor.
                let mut end = None;
                while let Some(&front) = queue.front() {
                    probes += 1;
                    if wins(front.r, front.j) {
                        end = Some(front.r);
                        queue.pop_front();
                    } else {
                        break;
                    }
                }
                if let Some(&front) = queue.front() {
                    probes += 1;
                    if wins(front.l, front.j) {
                        // Binary search the last position in [front.l, front.r)
                        // where i wins.
                        let (mut lo, mut hi) = (front.l, front.r - 1);
                        while lo < hi {
                            probes += 1;
                            let mid = (lo + hi).div_ceil(2);
                            if wins(mid, front.j) {
                                lo = mid;
                            } else {
                                hi = mid - 1;
                            }
                        }
                        #[expect(
                            clippy::unwrap_used,
                            reason = "non-empty on this branch: the enclosing `if` read \
                                      `queue.front()`"
                        )]
                        let head = queue.front_mut().unwrap();
                        head.l = lo + 1;
                        end = Some(lo);
                    }
                } else if end.is_none() {
                    end = Some(n);
                }
                if let Some(e) = end {
                    queue.push_front(Triple {
                        l: i + 1,
                        r: e,
                        j: i,
                    });
                }
            }
        }
        debug_assert!(coverage_is_contiguous(&queue, i + 1, n));
    }
    // One edge per state: the front triple's decision.
    metrics.add_edges(n as u64);
    metrics.add_probes(probes);
    metrics.add_states(n as u64);
    GlwsResult {
        d,
        best,
        metrics: metrics.snapshot(),
    }
}

fn coverage_is_contiguous(queue: &VecDeque<Triple>, from: usize, to: usize) -> bool {
    if from > to {
        return true;
    }
    let mut expect = from;
    for t in queue {
        if t.l != expect || t.r < t.l {
            return false;
        }
        expect = t.r + 1;
    }
    expect == to + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{
        ClosureCost, ConcaveGapCost, ConvexGapCost, LinearGapCost, PostOfficeProblem,
    };
    use crate::naive::naive_glws;

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
    fn convex_matches_naive_on_post_office() {
        for seed in 0..5 {
            for &open in &[1i64, 10, 100, 10_000] {
                let p = PostOfficeProblem::new(pseudo_coords(60, seed, 20), open);
                let got = sequential_convex_glws(&p);
                let want = naive_glws(&p);
                assert_eq!(got.d, want.d, "seed {seed} open {open}");
                assert!(got.check_consistency(&p));
            }
        }
    }

    #[test]
    fn convex_matches_naive_on_gap_costs() {
        for n in [1usize, 2, 3, 7, 33, 100] {
            let p = ConvexGapCost::new(n, 4, 2, 3);
            assert_eq!(sequential_convex_glws(&p).d, naive_glws(&p).d);
        }
    }

    #[test]
    fn concave_matches_naive_on_sqrt_costs() {
        for n in [1usize, 2, 3, 8, 50, 120] {
            for &(a, b) in &[(0i64, 1i64), (5, 3), (100, 1)] {
                let p = ConcaveGapCost::new(n, a, b);
                let got = sequential_concave_glws(&p);
                let want = naive_glws(&p);
                assert_eq!(got.d, want.d, "n {n} a {a} b {b}");
                assert!(got.check_consistency(&p));
            }
        }
    }

    #[test]
    fn linear_cost_agrees_under_both_monotonicities() {
        let p = LinearGapCost { a: 7, b: 2, n: 80 };
        let want = naive_glws(&p);
        assert_eq!(sequential_convex_glws(&p).d, want.d);
        assert_eq!(sequential_concave_glws(&p).d, want.d);
    }

    #[test]
    fn generalized_e_function_is_used() {
        // E[j] = D[j] + j (a "generalized" LWS); still convex in the decision.
        let p = ClosureCost::new(
            40,
            3,
            |j, i| {
                let len = (i - j) as i64;
                10 + len * len
            },
            |d, j| d + j as i64,
        );
        let got = sequential_convex_glws(&p);
        let want = naive_glws(&p);
        assert_eq!(got.d, want.d);
    }

    #[test]
    fn empty_instance() {
        let p = ConvexGapCost::new(0, 1, 1, 1);
        let r = sequential_convex_glws(&p);
        assert_eq!(r.d, vec![0]);
        assert_eq!(r.best, vec![0]);
    }

    #[test]
    fn work_is_near_linear_in_probes() {
        // The number of binary-search probes should be O(n log n); sanity-check
        // the constant on a mid-sized instance (far below the naive n^2/2).
        let p = PostOfficeProblem::new(pseudo_coords(4000, 7, 10), 500);
        let r = sequential_convex_glws(&p);
        let n = 4000u64;
        assert!(
            r.metrics.probes < n * 40,
            "probes {} look super-logarithmic",
            r.metrics.probes
        );
        assert_eq!(r.metrics.edges_relaxed, n);
    }

    #[test]
    fn boundary_value_propagates() {
        let p = ClosureCost::new(3, 100, |j, i| (i - j) as i64, |d, _| d);
        let r = sequential_convex_glws(&p);
        assert_eq!(r.d, vec![100, 101, 102, 103]);
    }
}
