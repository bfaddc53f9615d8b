//! GLWS problem definition and the cost-function families used in the paper.
//!
//! A GLWS instance is fully described by its size `n`, the boundary value
//! `D[0]`, the transition cost `w(j, i)` and the function `E[j] = f(D[j], j)`
//! (Eq. 4).  Decision monotonicity follows from the convex or concave Monge
//! condition on `w` (Eqs. 5 and 6); the concrete cost families below satisfy
//! those conditions and mirror the paper's running example (post offices with
//! a fixed opening cost plus a convex service cost) and the gap-penalty
//! families used by the GAP problem.

/// A generalized least-weight-subsequence instance.
///
/// All costs are integers; the algorithms only rely on a total order and
/// addition, and integer costs keep oracle comparisons exact.
pub trait GlwsProblem: Sync {
    /// Number of non-boundary states; states are `0..=n`.
    fn n(&self) -> usize;

    /// Boundary value `D[0]`.
    fn d0(&self) -> i64 {
        0
    }

    /// Transition cost `w(j, i)` for `0 <= j < i <= n`.
    fn w(&self, j: usize, i: usize) -> i64;

    /// `E[j] = f(D[j], j)`.  Defaults to the plain LWS case `E[j] = D[j]`.
    fn e(&self, d_j: i64, j: usize) -> i64 {
        let _ = j;
        d_j
    }
}

/// The post-office problem of Sec. 4: villages at increasing coordinates
/// `x[1..=n]`, one post office per cluster, cost of serving the villages
/// `j+1..=i` with one office is `open_cost + (x[i] - x[j+1])²` (the squared
/// width of the cluster).
///
/// The quadratic term is a convex function of `x[i] - x[j+1]`, where the
/// subtracted term is non-decreasing in `j`, so `w` satisfies the convex Monge
/// condition (quadrangle inequality) and the problem exhibits convex decision
/// monotonicity.  The relative size of `open_cost` controls how many post
/// offices (clusters) the optimal solution uses, which is the parameter `k`
/// swept in Fig. 7.
#[derive(Debug, Clone)]
pub struct PostOfficeProblem {
    /// Village coordinates, 1-indexed: `coords[t]` is the coordinate of
    /// village `t`; `coords[0]` is an unused placeholder.
    coords: Vec<i64>,
    /// Fixed cost of opening one post office.
    open_cost: i64,
}

impl PostOfficeProblem {
    /// Build an instance from non-decreasing village coordinates
    /// (`coords[t]` is the coordinate of village `t+1`).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are not non-decreasing or empty.
    pub fn new(coords: Vec<i64>, open_cost: i64) -> Self {
        assert!(!coords.is_empty(), "at least one village is required");
        assert!(
            coords.windows(2).all(|w| w[0] <= w[1]),
            "village coordinates must be sorted"
        );
        let mut full = Vec::with_capacity(coords.len() + 1);
        full.push(0); // placeholder for the 1-indexing of villages
        full.extend_from_slice(&coords);
        PostOfficeProblem {
            coords: full,
            open_cost,
        }
    }

    /// Number of villages.
    pub fn villages(&self) -> usize {
        self.coords.len() - 1
    }
}

impl GlwsProblem for PostOfficeProblem {
    fn n(&self) -> usize {
        self.coords.len() - 1
    }

    fn w(&self, j: usize, i: usize) -> i64 {
        debug_assert!(j < i && i < self.coords.len());
        // The cluster consists of villages j+1 ..= i; its width is
        // x[i] - x[j+1] (zero for a singleton cluster).
        let span = self.coords[i] - self.coords[j + 1];
        self.open_cost + span * span
    }
}

/// Convex gap-penalty family `w(j, i) = a + b·(i-j) + c·(i-j)²` with
/// `c >= 0`, used for the GAP problem's row/column sub-instances and as a
/// coordinate-free convex workload.
#[derive(Debug, Clone, Copy)]
pub struct ConvexGapCost {
    /// Constant term (gap-opening cost).
    pub a: i64,
    /// Linear coefficient (per-character gap extension).
    pub b: i64,
    /// Quadratic coefficient; must be non-negative for convexity.
    pub c: i64,
    /// Number of states.
    pub n: usize,
    /// Boundary value `D[0]`.
    pub d0: i64,
}

impl ConvexGapCost {
    /// Create the family, asserting convexity (`c >= 0`).
    pub fn new(n: usize, a: i64, b: i64, c: i64) -> Self {
        assert!(c >= 0, "quadratic coefficient must be non-negative");
        ConvexGapCost { a, b, c, n, d0: 0 }
    }
}

impl GlwsProblem for ConvexGapCost {
    fn n(&self) -> usize {
        self.n
    }
    fn d0(&self) -> i64 {
        self.d0
    }
    fn w(&self, j: usize, i: usize) -> i64 {
        let len = (i - j) as i64;
        self.a + self.b * len + self.c * len * len
    }
}

/// Concave gap-penalty family `w(j, i) = a + g(i - j)` where
/// `g(len) = Σ_{t=1..len} ⌊1000·b / t⌋`, the classic "long gaps get
/// progressively cheaper per character" shape used in sequence alignment.
///
/// Because the per-character increments `⌊1000·b/t⌋` are non-increasing, `g`
/// is discretely concave, and a concave function of `i - j` satisfies the
/// inverse quadrangle inequality exactly (unlike, say, `⌊√(i-j)⌋`, whose
/// floor breaks discrete concavity).
#[derive(Debug, Clone)]
pub struct ConcaveGapCost {
    /// Constant term.
    pub a: i64,
    /// Slope scale: the first gap character costs `1000·b`.
    pub b: i64,
    /// Number of states.
    pub n: usize,
    /// Boundary value `D[0]`.
    pub d0: i64,
    /// `prefix[len] = g(len)`.
    prefix: Vec<i64>,
}

impl ConcaveGapCost {
    /// Create the family, asserting concavity (`b >= 0`).
    pub fn new(n: usize, a: i64, b: i64) -> Self {
        assert!(b >= 0, "slope scale must be non-negative");
        let mut prefix = Vec::with_capacity(n + 1);
        prefix.push(0i64);
        for t in 1..=n as i64 {
            prefix.push(prefix[(t - 1) as usize] + (1000 * b) / t);
        }
        ConcaveGapCost {
            a,
            b,
            n,
            d0: 0,
            prefix,
        }
    }
}

impl GlwsProblem for ConcaveGapCost {
    fn n(&self) -> usize {
        self.n
    }
    fn d0(&self) -> i64 {
        self.d0
    }
    fn w(&self, j: usize, i: usize) -> i64 {
        self.a + self.prefix[i - j]
    }
}

/// Affine gap cost `w(j, i) = a + b·(i-j)`: simultaneously convex and concave
/// (the Monge inequalities hold with equality), useful for exercising
/// tie-handling paths.
#[derive(Debug, Clone, Copy)]
pub struct LinearGapCost {
    /// Constant term.
    pub a: i64,
    /// Linear coefficient.
    pub b: i64,
    /// Number of states.
    pub n: usize,
}

impl GlwsProblem for LinearGapCost {
    fn n(&self) -> usize {
        self.n
    }
    fn w(&self, j: usize, i: usize) -> i64 {
        self.a + self.b * (i - j) as i64
    }
}

/// Adapter turning closures into a [`GlwsProblem`]; handy in tests and for
/// OAT-style reductions where the cost is defined by a precomputed table.
/// (The shipped polylog-round OAT of Theorem 5.1, `pardp_oat::valley`,
/// derives its rounds directly from weight-doubling thresholds rather than
/// routing each valley through an LWS instance — see that module's docs for
/// how the two formulations relate.)
pub struct ClosureCost<W, E> {
    n: usize,
    d0: i64,
    w: W,
    e: E,
}

impl<W, E> ClosureCost<W, E>
where
    W: Fn(usize, usize) -> i64 + Sync,
    E: Fn(i64, usize) -> i64 + Sync,
{
    /// Build an instance from the closures `w(j, i)` and `e(d_j, j)`.
    pub fn new(n: usize, d0: i64, w: W, e: E) -> Self {
        ClosureCost { n, d0, w, e }
    }
}

impl<W, E> GlwsProblem for ClosureCost<W, E>
where
    W: Fn(usize, usize) -> i64 + Sync,
    E: Fn(i64, usize) -> i64 + Sync,
{
    fn n(&self) -> usize {
        self.n
    }
    fn d0(&self) -> i64 {
        self.d0
    }
    fn w(&self, j: usize, i: usize) -> i64 {
        (self.w)(j, i)
    }
    fn e(&self, d_j: i64, j: usize) -> i64 {
        (self.e)(d_j, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Shape::{Concave, Convex};

    /// The Monge condition a cost satisfies: convex (the quadrangle
    /// inequality, Eq. 5) or concave (its inverse, Eq. 6).
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        Convex,
        Concave,
    }

    /// Whether `w` satisfies `shape` on every adjacent 2×2 minor: `w(j, i) +
    /// w(j + 1, i + 1)` against `w(j + 1, i) + w(j, i + 1)` for `j + 1 < i <
    /// n`.  The inequality of any quadruple `a < b < c < d` is the sum of
    /// those of the adjacent minors `(j, i)` with `a <= j < b` and `c <= i <
    /// d`, so this decides Eq. 5 or 6 with `O(n²)` evaluations.
    fn satisfies_monge<P: GlwsProblem>(p: &P, shape: Shape) -> bool {
        (2..p.n()).all(|i| {
            (0..i - 1).all(|j| {
                let outer = p.w(j, i) + p.w(j + 1, i + 1);
                let inner = p.w(j + 1, i) + p.w(j, i + 1);
                match shape {
                    Convex => outer <= inner,
                    Concave => outer >= inner,
                }
            })
        })
    }

    #[test]
    fn post_office_is_convex_monge() {
        let p = PostOfficeProblem::new(vec![1, 4, 6, 10, 11, 20, 23], 100);
        assert!(satisfies_monge(&p, Convex));
        assert_eq!(p.n(), 7);
        assert_eq!(p.villages(), 7);
    }

    #[test]
    fn convex_gap_cost_is_convex_monge() {
        let p = ConvexGapCost::new(12, 5, 3, 2);
        assert!(satisfies_monge(&p, Convex));
    }

    #[test]
    fn concave_gap_cost_is_concave_monge() {
        let p = ConcaveGapCost::new(12, 7, 4);
        assert!(satisfies_monge(&p, Concave));
    }

    #[test]
    fn linear_cost_is_both() {
        let p = LinearGapCost { a: 3, b: 2, n: 10 };
        assert!(satisfies_monge(&p, Convex));
        assert!(satisfies_monge(&p, Concave));
    }

    #[test]
    fn one_dented_minor_fails_the_check() {
        // `±(i − j)²` is strictly convex (concave), with a slack of 2 in
        // every adjacent minor.  Raising (lowering) `w(0, i)` by 3 dents
        // minor `(0, i)` alone: in the one other minor that holds it,
        // `(0, i − 1)`, it sits on the other side.
        let n = 12;
        for (shape, sign) in [(Convex, 1), (Concave, -1)] {
            let square = |j: usize, i: usize| sign * ((i - j) * (i - j)) as i64;
            let p = ClosureCost::new(n, 0, square, |d, _| d);
            assert!(satisfies_monge(&p, shape), "{shape:?}");
            for dent in 2..n {
                let dented =
                    |j: usize, i: usize| square(j, i) + sign * 3 * i64::from((j, i) == (0, dent));
                let p = ClosureCost::new(n, 0, dented, |d, _| d);
                assert!(!satisfies_monge(&p, shape), "{shape:?} minor (0, {dent})");
            }
        }
    }

    #[test]
    fn concave_gap_increments_are_non_increasing() {
        let p = ConcaveGapCost::new(200, 3, 5);
        let g = |len: usize| p.w(0, len) - p.a;
        let mut prev_inc = g(1);
        for len in 2..=200usize {
            let inc = g(len) - g(len - 1);
            assert!(inc <= prev_inc, "increment grew at len {len}");
            prev_inc = inc;
        }
    }

    #[test]
    fn closure_cost_delegates() {
        let p = ClosureCost::new(5, 10, |j, i| ((i - j) * (i - j)) as i64, |d, _| d + 1);
        assert_eq!(p.n(), 5);
        assert_eq!(p.d0(), 10);
        assert_eq!(p.w(1, 4), 9);
        assert_eq!(p.e(7, 2), 8);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_coordinates_rejected() {
        PostOfficeProblem::new(vec![5, 3, 8], 10);
    }

    #[test]
    fn default_e_is_identity() {
        let p = ConvexGapCost::new(4, 1, 1, 1);
        assert_eq!(p.e(42, 3), 42);
    }
}
