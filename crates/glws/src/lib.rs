//! Convex / concave generalized Least-Weight Subsequence (GLWS).
//!
//! The GLWS recurrence (Eq. 4 of the paper) is
//!
//! ```text
//! D[i] = min_{0 <= j < i}  E[j] + w(j, i),      E[j] = f(D[j], j),
//! ```
//!
//! with `D[0]` given.  When the cost `w` satisfies the convex (resp. concave)
//! Monge condition, the best decisions are monotone, and the classic
//! Galil–Park sequential algorithm computes all values in `O(n log n)` work by
//! maintaining a *compressed best-decision array*: a sorted list of triples
//! `([l, r], j)` meaning "every state in `[l, r]` currently has best decision
//! `j`".  This crate contains
//!
//! * [`cost`]: the problem/cost-function traits plus the convex and concave
//!   cost families used in the paper's experiments (post-office style costs),
//! * [`naive`]: the `O(n²)` reference oracle,
//! * [`seq`]: the sequential Galil–Park algorithm `Γ_lws` (Sec. 4.1),
//! * [`best`]: the sorted best-decision interval array used by the parallel
//!   algorithm,
//! * [`cordon`]: the parallel convex and concave GLWS, one cordon
//!   ([`GlwsCordon`]) that runs Algorithm 1 (Theorem 4.1) and, under its
//!   concave parameter, the three changes of Sec. 4.3 (Theorem 4.2),
//! * [`kglws`]: the fixed-cluster-count variant (Sec. 5.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// DP recurrences read most naturally with explicit state indices.
#![allow(clippy::needless_range_loop)]

pub mod best;
pub mod cordon;
pub mod cost;
pub mod kglws;
pub mod naive;
pub mod seq;

pub use best::BestDecisionArray;
pub use cordon::{
    parallel_concave_glws, parallel_convex_glws, ConcaveGlwsCordon, ConvexGlwsCordon, GlwsCordon,
};
pub use cost::{
    ClosureCost, ConcaveGapCost, ConvexGapCost, GlwsProblem, LinearGapCost, PostOfficeProblem,
};
pub use kglws::{naive_kglws, parallel_kglws, KGlwsCordon, KGlwsResult};
pub use naive::naive_glws;
pub use seq::{sequential_concave_glws, sequential_convex_glws};

use pardp_parutils::Metrics;

/// Result of a GLWS computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlwsResult {
    /// `d[i]` is the DP value of state `i` (`d[0]` is the boundary value).
    pub d: Vec<i64>,
    /// `best[i]` is the decision that attains `d[i]` (`best[0] = 0`, unused).
    pub best: Vec<usize>,
    /// Work / round counters collected during the run.
    pub metrics: Metrics,
}

impl GlwsResult {
    /// Length of the chain of best decisions ending at state `i` (the number
    /// of "clusters" in the optimal solution for the post-office reading).
    pub fn decision_depth(&self, i: usize) -> usize {
        let mut cur = i;
        let mut depth = 0;
        while cur != 0 {
            cur = self.best[cur];
            depth += 1;
            assert!(depth <= self.best.len(), "best-decision chain has a cycle");
        }
        depth
    }

    /// The effective depth of the perfect DAG: the largest best-decision chain
    /// length over all states.  For convex GLWS the parallel algorithm runs in
    /// exactly this many rounds (Lemma 4.5).
    pub fn perfect_depth(&self) -> usize {
        let n = self.best.len();
        let mut depth = vec![0usize; n];
        let mut maxd = 0;
        for i in 1..n {
            depth[i] = depth[self.best[i]] + 1;
            maxd = maxd.max(depth[i]);
        }
        maxd
    }

    /// Verify that the reported `best` decisions attain the reported values
    /// under `problem`, and that `d` is self-consistent.  Used in tests.
    pub fn check_consistency<P: cost::GlwsProblem>(&self, problem: &P) -> bool {
        let n = problem.n();
        if self.d.len() != n + 1 || self.best.len() != n + 1 {
            return false;
        }
        if self.d[0] != problem.d0() {
            return false;
        }
        for i in 1..=n {
            let j = self.best[i];
            if j >= i {
                return false;
            }
            let via = problem.e(self.d[j], j) + problem.w(j, i);
            if via != self.d[i] {
                return false;
            }
        }
        true
    }
}
