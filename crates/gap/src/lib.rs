//! The GAP edit-distance problem (Sec. 5.2, Theorem 5.2).
//!
//! GAP aligns two strings `A[1..n]` and `B[1..m]` where a whole block of
//! characters can be deleted at once: deleting `A[l+1..r]` costs `w1(l, r)`
//! and deleting `B[l+1..r]` costs `w2(l, r)`.  The GAP recurrence is
//!
//! ```text
//! P[i][j] = min_{i' < i} D[i'][j] + w1(i', i)        (a gap in A, column GLWS)
//! Q[i][j] = min_{j' < j} D[i][j'] + w2(j', j)        (a gap in B, row GLWS)
//! D[i][j] = min( P[i][j], Q[i][j], D[i-1][j-1] if A[i] = B[j] )
//! ```
//!
//! With convex (or concave) gap costs every row and every column is a GLWS
//! instance, so the optimized sequential algorithm `Γ_gap` runs in
//! `O(nm log n)` instead of `O(n²m)`.  This crate provides
//!
//! * [`naive_gap`] — the direct `O(n²m + nm²)` recurrence (oracle),
//! * [`sequential_gap`] — `Γ_gap`: row-major evaluation with one online
//!   convex decision structure per row and per column (`O(nm log n)`),
//! * [`parallel_gap`] — the *wavefront* parallel evaluation: cells are
//!   processed in anti-diagonal frontiers of the grid DAG, each frontier in
//!   parallel, with the same per-row/per-column structures and the same
//!   `O(nm log n)` work.  Its round count is always the grid depth `n + m`;
//!   it is kept as the oracle / ablation partner for the packed variant,
//! * [`parallel_gap_packed`] — the fully packed cordon of Theorem 5.2: each
//!   round finalizes *every* cell whose tentative value can no longer change
//!   (the safe set), not just the next anti-diagonal, so the number of rounds
//!   is exactly the instance's effective depth `k` — the longest chain of
//!   strict tentative-value improvements — instead of `n + m`.  It probes
//!   every cell exactly twice, as `Γ_gap` does.
//!
//! Both parallel variants produce bit-identical grids (validated against each
//! other and against the naive oracle in the tests).
//!
//! [`try_reconstruct_gap_ops`] traces an optimal alignment back through any
//! completed grid (`O(n·(n+m))` worst case).
//!
//! # The packed round
//!
//! Each packed round is one sequential sweep over the candidate rows.  It
//! inserts each cell into its row and column decision lists as soon as it
//! decides it, so the lists answer for every finalized predecessor, this
//! round's included.  They break ties toward the oldest decision, so the
//! decision behind an answer tells whether a cell finalized before the
//! round attains it, which is the whole veto.  A vetoed cell's value is
//! already final: the next round finalizes it without probing again.  So
//! the round probes each cell exactly as often as `Γ_gap` and runs inline,
//! with no pool traffic.
//!
//! Every list is queried only beyond its last insert: a row is probed at
//! columns right of its watermark, a column at rows below the staircase.  So
//! each list keeps only its live envelope, usually one or two entries, and a
//! query is a search over that window.  The buffers are sized up front, so
//! the round body does not allocate (pinned at one thread by
//! `tests/alloc_counting.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// DP recurrences read most naturally with explicit state indices.
#![allow(clippy::needless_range_loop)]

use pardp_core::{run_phase_parallel, PhaseParallel};
use pardp_parutils::{round_min_grain, Metrics, MetricsCollector};
use rayon::prelude::*;

/// A GAP problem instance: two strings plus the two block-deletion cost
/// functions (given as GLWS-style cost families `w(l, r)` over positions).
pub struct GapInstance<'a, W1, W2> {
    /// First string (length `n`).
    pub a: &'a [u8],
    /// Second string (length `m`).
    pub b: &'a [u8],
    /// Cost of deleting `A[l+1..=r]`.
    pub w1: W1,
    /// Cost of deleting `B[l+1..=r]`.
    pub w2: W2,
}

/// Result of a GAP computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GapResult {
    /// `d[i][j]` = minimum alignment cost of `A[1..=i]` vs `B[1..=j]`.
    pub d: Vec<Vec<i64>>,
    /// Total alignment cost `d[n][m]`.
    pub cost: i64,
    /// Work / round counters.
    pub metrics: Metrics,
}

const INF: i64 = i64::MAX / 4;

impl<'a, W1, W2> GapInstance<'a, W1, W2>
where
    W1: Fn(usize, usize) -> i64 + Sync,
    W2: Fn(usize, usize) -> i64 + Sync,
{
    /// Create an instance from strings and gap-cost closures.
    pub fn new(a: &'a [u8], b: &'a [u8], w1: W1, w2: W2) -> Self {
        GapInstance { a, b, w1, w2 }
    }

    #[inline]
    fn matches(&self, i: usize, j: usize) -> bool {
        self.a[i - 1] == self.b[j - 1]
    }
}

/// Build a GAP instance with the affine-plus-quadratic convex gap penalty
/// `w(l, r) = open + ext·(r-l) + quad·(r-l)²` on both strings.
pub fn convex_gap_instance<'a>(
    a: &'a [u8],
    b: &'a [u8],
    open: i64,
    ext: i64,
    quad: i64,
) -> GapInstance<'a, impl Fn(usize, usize) -> i64 + Sync, impl Fn(usize, usize) -> i64 + Sync> {
    assert!(quad >= 0, "quadratic coefficient must be non-negative");
    let cost = move |l: usize, r: usize| {
        let len = (r - l) as i64;
        open + ext * len + quad * len * len
    };
    GapInstance::new(a, b, cost, cost)
}

/// Direct evaluation of the GAP recurrence, `O(n²m + nm²)` work.
pub fn naive_gap<W1, W2>(inst: &GapInstance<'_, W1, W2>) -> GapResult
where
    W1: Fn(usize, usize) -> i64 + Sync,
    W2: Fn(usize, usize) -> i64 + Sync,
{
    let metrics = MetricsCollector::new();
    let (n, m) = (inst.a.len(), inst.b.len());
    let mut d = vec![vec![INF; m + 1]; n + 1];
    d[0][0] = 0;
    let mut edges = 0u64;
    for i in 0..=n {
        for j in 0..=m {
            if i == 0 && j == 0 {
                continue;
            }
            let mut best = INF;
            for ip in 0..i {
                edges += 1;
                if d[ip][j] < INF {
                    best = best.min(d[ip][j] + (inst.w1)(ip, i));
                }
            }
            for jp in 0..j {
                edges += 1;
                if d[i][jp] < INF {
                    best = best.min(d[i][jp] + (inst.w2)(jp, j));
                }
            }
            if i > 0 && j > 0 && inst.matches(i, j) && d[i - 1][j - 1] < INF {
                edges += 1;
                best = best.min(d[i - 1][j - 1]);
            }
            d[i][j] = best;
        }
    }
    metrics.add_edges(edges);
    metrics.add_states(((n + 1) * (m + 1)) as u64);
    let cost = d[n][m];
    GapResult {
        d,
        cost,
        metrics: metrics.snapshot(),
    }
}

// ---------------------------------------------------------------------------
// Online convex decision structure (shared by the sequential and parallel
// optimized algorithms).
// ---------------------------------------------------------------------------

/// Entries each list's buffer is pre-sized for.  Live windows hold at most
/// two entries on the bench workloads, so their buffers only ever compact; a
/// wider window (about 25 entries at an opening cost of 600) grows its
/// buffer once.
const LIST_CAPACITY: usize = 8;

/// An online best-decision structure for a convex cost: decisions are inserted
/// in increasing position order, and every query asks at a position beyond
/// the last insert.  The list keeps only its *live envelope*: an entry whose
/// successor takes over at or before the next queryable position can never
/// answer again, so each insert trims it.  Queries do not mutate the
/// structure (binary search over the live takeover positions), so tentative
/// probes are safe.
///
/// Ties go to the *oldest* decision: a new decision pops an entry or takes
/// over only where it is strictly better.  Convexity makes the leftmost
/// minimizer monotone in the query position, so every answer is the oldest
/// decision among the tied minima — the packed round's veto relies on it.
#[derive(Debug, Clone)]
struct ConvexDecisionList {
    /// `(takeover, decision, decision_value)` — from `takeover` on (until the
    /// next entry's takeover), `decision` is the oldest best inserted one.
    /// `entries[..head]` is the trimmed dead prefix, compacted away when the
    /// buffer is full.
    entries: Vec<(usize, usize, i64)>,
    head: usize,
    /// One past the last inserted position: the first position a query may
    /// ask at.
    live_from: usize,
    horizon: usize,
}

impl ConvexDecisionList {
    fn new(horizon: usize) -> Self {
        ConvexDecisionList {
            entries: Vec::with_capacity(LIST_CAPACITY),
            head: 0,
            live_from: 0,
            horizon,
        }
    }

    /// Clear the list for reuse, keeping its allocation.
    fn reset(&mut self, horizon: usize) {
        self.entries.clear();
        self.head = 0;
        self.live_from = 0;
        self.horizon = horizon;
    }

    /// Insert a decision at `pos` with value `val`; `cost(l, r)` is the gap
    /// cost.  Decisions must be inserted in increasing `pos` order.
    fn insert(&mut self, pos: usize, val: i64, cost: &impl Fn(usize, usize) -> i64) {
        debug_assert!(pos >= self.live_from, "insert at {pos} is out of order");
        self.live_from = pos + 1;
        if val < INF {
            self.push_decision(pos, val, cost);
        }
        // Trim the dead prefix.  The head it leaves starts at or before
        // `live_from`, so the next insert's pops never reach it.
        while self.head + 1 < self.entries.len() && self.entries[self.head + 1].0 <= self.live_from
        {
            self.head += 1;
        }
    }

    /// Pop the entries the new decision dominates, then append it at its
    /// takeover position if that lies within the horizon.
    fn push_decision(&mut self, pos: usize, val: i64, cost: &impl Fn(usize, usize) -> i64) {
        let candidate = |q: usize| val + cost(pos, q);
        // Pop entries that the new decision strictly beats from their own
        // takeover on.
        while let Some(&(start, dec, dval)) = self.entries.last() {
            if start > pos && candidate(start) < dval + cost(dec, start) {
                self.entries.pop();
            } else {
                break;
            }
        }
        // Find the takeover position of the new decision vs the current last.
        let takeover = match self.entries.last() {
            None => pos + 1,
            Some(&(start, dec, dval)) => {
                let incumbent = |q: usize| dval + cost(dec, q);
                // First q in (max(start, pos)+1 ..= horizon] where the new
                // decision is strictly better (suffix property of convexity).
                // Galloping search: in the ascending insert streams produced
                // by the row-major sweeps, the takeover usually sits just
                // after the insert position, so probing base+1, base+2,
                // base+4, ... then binary-searching the bracketed interval is
                // O(log(takeover - pos)) amortized instead of a full-horizon
                // binary search per insert (same monotone predicate, so the
                // takeover found — and every stored value — is identical).
                let base = start.max(pos);
                let mut lo = base + 1;
                let mut hi;
                let mut step = 1usize;
                loop {
                    let probe = base + step;
                    if probe > self.horizon {
                        hi = self.horizon + 1; // horizon+1 = never
                        break;
                    }
                    if candidate(probe) < incumbent(probe) {
                        hi = probe;
                        break;
                    }
                    lo = probe + 1;
                    step *= 2;
                }
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if candidate(mid) < incumbent(mid) {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                lo
            }
        };
        if takeover <= self.horizon {
            if self.entries.len() == self.entries.capacity() && self.head > 0 {
                self.entries.drain(..self.head);
                self.head = 0;
            }
            self.entries.push((takeover, pos, val));
        }
    }

    /// Best value at query position `q` (must be beyond the last inserted
    /// decision position) and the oldest decision attaining it, or
    /// `(INF, 0)` if no decision applies.
    fn query(&self, q: usize, cost: &impl Fn(usize, usize) -> i64) -> (i64, usize) {
        debug_assert!(
            q >= self.live_from,
            "query at {q} is not beyond the last insert ({})",
            self.live_from - 1
        );
        let live = &self.entries[self.head..];
        let idx = live.partition_point(|&(start, _, _)| start <= q);
        if idx == 0 {
            return (INF, 0);
        }
        let (_, dec, dval) = live[idx - 1];
        (dval + cost(dec, q), dec)
    }
}

/// The optimized sequential algorithm `Γ_gap`: row-major evaluation with one
/// convex decision list per column (for `P`) and one for the current row
/// (for `Q`).  Requires convex gap costs.  `O(nm log(n+m))` work.
pub fn sequential_gap<W1, W2>(inst: &GapInstance<'_, W1, W2>) -> GapResult
where
    W1: Fn(usize, usize) -> i64 + Sync,
    W2: Fn(usize, usize) -> i64 + Sync,
{
    let metrics = MetricsCollector::new();
    let (n, m) = (inst.a.len(), inst.b.len());
    let mut d = vec![vec![INF; m + 1]; n + 1];
    // Row-major order finishes each row before the next starts, so one row
    // list, reset per row, serves them all.
    let mut row_list = ConvexDecisionList::new(m);
    let mut col_struct: Vec<ConvexDecisionList> =
        (0..=m).map(|_| ConvexDecisionList::new(n)).collect();
    let mut probes = 0u64;
    for i in 0..=n {
        row_list.reset(m);
        for j in 0..=m {
            let value = if i == 0 && j == 0 {
                0
            } else {
                let (p, _) = col_struct[j].query(i, &inst.w1);
                let (q, _) = row_list.query(j, &inst.w2);
                probes += 2;
                let mut best = p.min(q);
                if i > 0 && j > 0 && inst.matches(i, j) {
                    best = best.min(d[i - 1][j - 1]);
                }
                best
            };
            d[i][j] = value;
            row_list.insert(j, value, &inst.w2);
            col_struct[j].insert(i, value, &inst.w1);
            metrics.add_edges(3);
        }
    }
    metrics.add_probes(probes);
    metrics.add_states(((n + 1) * (m + 1)) as u64);
    let cost = d[n][m];
    GapResult {
        d,
        cost,
        metrics: metrics.snapshot(),
    }
}

/// Parallel GAP: the grid DAG is evaluated frontier by frontier
/// (anti-diagonals `i + j = const`), all cells of a frontier in parallel, with
/// the same per-row/per-column convex decision structures as
/// [`sequential_gap`] (each structure receives exactly one insertion per
/// frontier, performed in parallel across rows/columns).  Work `O(nm log n)`.
pub fn parallel_gap<W1, W2>(inst: &GapInstance<'_, W1, W2>) -> GapResult
where
    W1: Fn(usize, usize) -> i64 + Sync,
    W2: Fn(usize, usize) -> i64 + Sync,
{
    let metrics = MetricsCollector::new();
    let d = run_phase_parallel(GapCordon::new(inst), &metrics);
    let cost = d[inst.a.len()][inst.b.len()];
    GapResult {
        d,
        cost,
        metrics: metrics.snapshot(),
    }
}

/// [`PhaseParallel`] instance for the parallel GAP evaluation: each round
/// processes one anti-diagonal frontier of the grid DAG.
pub struct GapCordon<'i, 'a, W1, W2> {
    inst: &'i GapInstance<'a, W1, W2>,
    d: Vec<Vec<i64>>,
    row_struct: Vec<ConvexDecisionList>,
    col_struct: Vec<ConvexDecisionList>,
    diag: usize,
    n: usize,
    m: usize,
    /// Reused per-round frontier-value buffer (grown once to the widest
    /// anti-diagonal).
    values: Vec<i64>,
}

impl<'i, 'a, W1, W2> GapCordon<'i, 'a, W1, W2>
where
    W1: Fn(usize, usize) -> i64 + Sync,
    W2: Fn(usize, usize) -> i64 + Sync,
{
    /// Initialize the DP grid and seed the per-row/per-column structures with
    /// the boundary cell.
    pub fn new(inst: &'i GapInstance<'a, W1, W2>) -> Self {
        let (n, m) = (inst.a.len(), inst.b.len());
        let mut d = vec![vec![INF; m + 1]; n + 1];
        d[0][0] = 0;
        let mut row_struct: Vec<ConvexDecisionList> =
            (0..=n).map(|_| ConvexDecisionList::new(m)).collect();
        let mut col_struct: Vec<ConvexDecisionList> =
            (0..=m).map(|_| ConvexDecisionList::new(n)).collect();
        row_struct[0].insert(0, 0, &inst.w2);
        col_struct[0].insert(0, 0, &inst.w1);
        GapCordon {
            inst,
            d,
            row_struct,
            col_struct,
            diag: 1,
            n,
            m,
            values: Vec::new(),
        }
    }
}

impl<W1, W2> PhaseParallel for GapCordon<'_, '_, W1, W2>
where
    W1: Fn(usize, usize) -> i64 + Sync,
    W2: Fn(usize, usize) -> i64 + Sync,
{
    /// The completed DP grid.
    type Output = Vec<Vec<i64>>;

    fn is_done(&self) -> bool {
        self.diag > self.n + self.m
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        let (inst, diag, n, m) = (self.inst, self.diag, self.n, self.m);
        // Cells (i, j) with i + j = diag; non-empty for every 1 <= diag <= n+m.
        let i_lo = diag.saturating_sub(m);
        let i_hi = diag.min(n);
        let d_ref = &self.d;
        let row_ref = &self.row_struct;
        let col_ref = &self.col_struct;
        let cells = i_hi - i_lo + 1;
        let grain = round_min_grain(cells);
        // Reuse the frontier-value buffer across rounds (`collect_into_vec`
        // refills it in place).
        let mut values = std::mem::take(&mut self.values);
        (i_lo..=i_hi)
            .into_par_iter()
            .map(|i| {
                let j = diag - i;
                let (p, _) = col_ref[j].query(i, &inst.w1);
                let (q, _) = row_ref[i].query(j, &inst.w2);
                let mut best = p.min(q);
                if i > 0 && j > 0 && inst.matches(i, j) {
                    best = best.min(d_ref[i - 1][j - 1]);
                }
                best
            })
            .with_min_len(grain)
            .collect_into_vec(&mut values);
        // Write the frontier values, then insert each cell into its row and
        // column structure (one insertion per structure, all structures
        // disjoint, so the two loops parallelize over rows and columns).
        for (off, &v) in values.iter().enumerate() {
            let i = i_lo + off;
            let j = diag - i;
            self.d[i][j] = v;
        }
        let w2 = &inst.w2;
        let w1 = &inst.w1;
        self.row_struct[i_lo..=i_hi]
            .par_iter_mut()
            .enumerate()
            .with_min_len(grain)
            .for_each(|(off, rs)| {
                let i = i_lo + off;
                let j = diag - i;
                rs.insert(j, values[off], w2);
            });
        let j_lo = diag - i_hi;
        let j_hi = diag - i_lo;
        let d_now = &self.d;
        self.col_struct[j_lo..=j_hi]
            .par_iter_mut()
            .enumerate()
            .with_min_len(grain)
            .for_each(|(off, cs)| {
                let j = j_lo + off;
                let i = diag - j;
                cs.insert(i, d_now[i][j], w1);
            });
        self.values = values;
        metrics.add_edges(3 * cells as u64);
        metrics.add_probes(2 * cells as u64);
        self.diag += 1;
        cells
    }

    fn finish(self) -> Self::Output {
        self.d
    }

    fn round_budget(&self) -> Option<u64> {
        // One round per anti-diagonal: the grid depth n + m.
        Some((self.n + self.m) as u64)
    }
}

// ---------------------------------------------------------------------------
// Packed cordon (Theorem 5.2): rounds = effective depth instead of n + m.
// ---------------------------------------------------------------------------

/// Packed parallel GAP (Theorem 5.2): identical values and work as
/// [`parallel_gap`], but the round count equals the instance's *effective
/// depth* `k` — the longest chain of strict tentative-value improvements —
/// instead of the grid depth `n + m`.
///
/// Each round finalizes the entire *safe set*: every cell whose tentative
/// value (computed from already-finalized cells) provably equals its final DP
/// value.  A cell is kept back (Bad) exactly when a cell finalized in the
/// same round strictly improves its tentative, or when one of its
/// predecessors is kept back; each kept-back cell is charged to
/// `wasted_states`.
pub fn parallel_gap_packed<W1, W2>(inst: &GapInstance<'_, W1, W2>) -> GapResult
where
    W1: Fn(usize, usize) -> i64 + Sync,
    W2: Fn(usize, usize) -> i64 + Sync,
{
    let metrics = MetricsCollector::new();
    let d = run_phase_parallel(PackedGapCordon::new(inst), &metrics);
    let cost = d[inst.a.len()][inst.b.len()];
    GapResult {
        d,
        cost,
        metrics: metrics.snapshot(),
    }
}

/// [`PhaseParallel`] instance for the packed GAP evaluation.
///
/// The finalized region is always a *staircase* (a down-set of the grid): row
/// `i` is finalized exactly on columns `0..r[i]`, with `r` non-increasing in
/// `i`.  Each round extends every watermark as far as the safe-set rule
/// allows:
///
/// * a cell's value `v` is the best over all of its finalized predecessors,
///   read from the per-row and per-column decision lists plus the diagonal
///   match edge,
/// * a cell is **safe** iff every unfinalized predecessor is safe and `v` is
///   attained by a predecessor finalized *before* this round — equivalently,
///   no predecessor finalized this round strictly improves on those.
///   Cross-row blocking is the `cutoff` watermark minimum, which also keeps
///   the staircase invariant.
///
/// Every cell whose predecessors were all finalized before the round is safe
/// by construction, so each round finalizes at least the whole ready
/// wavefront — rounds never exceed `n + m` and match the effective depth
/// exactly (pinned against a brute-force oracle in the tests).
///
/// The round is one sequential sweep that decides each cell and inserts it
/// into its row and column lists at once.  It calls no pool code, so grids,
/// rounds, frontiers and work counters are identical at any thread count.
/// A kept-back cell's `v` is already final (all of its predecessors are), so
/// it is carried to the next round, which finalizes it without probing
/// again: every cell is probed exactly twice, as in `Γ_gap`.
pub struct PackedGapCordon<'i, 'a, W1, W2> {
    inst: &'i GapInstance<'a, W1, W2>,
    d: Vec<Vec<i64>>,
    /// Lists over every finalized cell, this round's included.
    row_struct: Vec<ConvexDecisionList>,
    col_struct: Vec<ConvexDecisionList>,
    /// `r[i]` = first unfinalized column of row `i` (`m + 1` = row done).
    r: Vec<usize>,
    /// Snapshot of `r` at the start of the current round (kept equal to `r`
    /// between rounds by a delta re-sync over the touched row range).
    r_start: Vec<usize>,
    /// `carry[i]` = final value of cell `(i, r[i])`, kept back last round.
    carry: Vec<Option<i64>>,
    /// First row that can still make progress (rows above are finalized).
    row_lo: usize,
    n: usize,
    m: usize,
}

impl<'i, 'a, W1, W2> PackedGapCordon<'i, 'a, W1, W2>
where
    W1: Fn(usize, usize) -> i64 + Sync,
    W2: Fn(usize, usize) -> i64 + Sync,
{
    /// Initialize the DP grid, the staircase watermarks, and the structures.
    pub fn new(inst: &'i GapInstance<'a, W1, W2>) -> Self {
        let (n, m) = (inst.a.len(), inst.b.len());
        let mut d = vec![vec![INF; m + 1]; n + 1];
        d[0][0] = 0;
        let mut row_struct: Vec<ConvexDecisionList> =
            (0..=n).map(|_| ConvexDecisionList::new(m)).collect();
        let mut col_struct: Vec<ConvexDecisionList> =
            (0..=m).map(|_| ConvexDecisionList::new(n)).collect();
        row_struct[0].insert(0, 0, &inst.w2);
        col_struct[0].insert(0, 0, &inst.w1);
        let mut r = vec![0usize; n + 1];
        r[0] = 1;
        PackedGapCordon {
            inst,
            d,
            row_struct,
            col_struct,
            r_start: r.clone(),
            r,
            carry: vec![None; n + 1],
            row_lo: 0,
            n,
            m,
        }
    }
}

impl<W1, W2> PhaseParallel for PackedGapCordon<'_, '_, W1, W2>
where
    W1: Fn(usize, usize) -> i64 + Sync,
    W2: Fn(usize, usize) -> i64 + Sync,
{
    /// The completed DP grid.
    type Output = Vec<Vec<i64>>;

    fn is_done(&self) -> bool {
        // `r` is non-increasing, so the last row's watermark bounds them all.
        self.r[self.n] > self.m
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        let (inst, n, m) = (self.inst, self.n, self.m);
        let (w1, w2) = (&inst.w1, &inst.w2);
        while self.row_lo <= n && self.r[self.row_lo] > m {
            self.row_lo += 1;
        }
        let row_lo = self.row_lo;
        let PackedGapCordon {
            d,
            row_struct,
            col_struct,
            r,
            r_start,
            carry,
            ..
        } = self;
        let (mut finalized, mut probes, mut wasted) = (0usize, 0u64, 0u64);
        let mut row_hi = row_lo;
        // `cutoff` = min over rows above of the post-round watermark: a cell
        // (i, j) with j >= cutoff has an unfinalized column predecessor that
        // this round does not resolve, so it cannot be safe.  Rows above
        // `row_lo` are fully finalized and impose no cutoff.
        let mut cutoff = m + 1;
        for i in row_lo..=n {
            if cutoff == 0 {
                break;
            }
            row_hi = i;
            let start = r[i];
            if start >= cutoff {
                // Blocked at its first unfinalized cell by the column above;
                // the new watermark equals the old one (>= cutoff already).
                continue;
            }
            let (above, below) = d.split_at_mut(i);
            let drow = &mut below[0];
            let row = &mut row_struct[i];
            let mut j = start;
            // The cutoff never shrinks between rounds, so a cell kept back
            // last round is reached again, now with every predecessor final
            // before the round: safe, with the value it was kept back with.
            let mut carried = carry[i].take();
            while j < cutoff {
                let v = if let Some(v) = carried.take() {
                    v
                } else {
                    let (p, p_from) = col_struct[j].query(i, w1);
                    let (q, q_from) = row.query(j, w2);
                    probes += 2;
                    // The diagonal predecessor, if it matches, and whether it
                    // was finalized before the round.
                    let (g, g_old) = if i > 0 && j > 0 && inst.matches(i, j) {
                        (above[i - 1][j - 1], j - 1 < r_start[i - 1])
                    } else {
                        (INF, false)
                    };
                    let v = p.min(q).min(g);
                    // Cells finalized before the round are older than the
                    // round's own, so a list answers with one of them whenever
                    // one attains its minimum.
                    let safe = (p == v && j < r_start[p_from])
                        || (q == v && q_from < r_start[i])
                        || (g == v && g_old);
                    if !safe {
                        // Only a cell of this round attains `v`: keep back.
                        carry[i] = Some(v);
                        wasted += 1;
                        break;
                    }
                    v
                };
                drow[j] = v;
                row.insert(j, v, w2);
                col_struct[j].insert(i, v, w1);
                finalized += 1;
                j += 1;
            }
            r[i] = j;
            cutoff = cutoff.min(j);
        }
        // Re-sync the snapshot over the touched rows only (every other row's
        // watermark is unchanged, so `r_start == r` holds for the next round
        // without an O(n) copy).
        r_start[row_lo..=row_hi].copy_from_slice(&r[row_lo..=row_hi]);
        metrics.add_edges(3 * finalized as u64);
        metrics.add_probes(probes);
        metrics.add_wasted(wasted);
        finalized
    }

    fn finish(self) -> Self::Output {
        self.d
    }

    fn round_budget(&self) -> Option<u64> {
        // The effective depth never exceeds the grid depth n + m.
        Some((self.n + self.m) as u64)
    }
}

// ---------------------------------------------------------------------------
// Alignment reconstruction.
// ---------------------------------------------------------------------------

/// One move of an optimal GAP alignment, as recovered by
/// [`try_reconstruct_gap_ops`].  Positions are 1-based, matching the DP indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapOp {
    /// Align `A[i]` with `B[j]` (the characters are equal).
    Match {
        /// Position in `A`.
        i: usize,
        /// Position in `B`.
        j: usize,
    },
    /// Delete the block `A[l+1..=r]` at cost `w1(l, r)`.
    GapA {
        /// Left endpoint (exclusive).
        l: usize,
        /// Right endpoint (inclusive).
        r: usize,
    },
    /// Delete the block `B[l+1..=r]` at cost `w2(l, r)`.
    GapB {
        /// Left endpoint (exclusive).
        l: usize,
        /// Right endpoint (inclusive).
        r: usize,
    },
}

/// Traceback failure: the grid is not a valid GAP DP grid for the instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapTracebackError {
    /// The grid is not `rows × cols` = `(n + 1) × (m + 1)`.
    Shape {
        /// `n + 1`.
        rows: usize,
        /// `m + 1`.
        cols: usize,
    },
    /// No predecessor explains the value at cell `(i, j)`.
    Unexplained {
        /// Row of the unexplained cell.
        i: usize,
        /// Column of the unexplained cell.
        j: usize,
        /// The unexplained value `d[i][j]`.
        value: i64,
    },
}

impl core::fmt::Display for GapTracebackError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            GapTracebackError::Shape { rows, cols } => write!(
                f,
                "not a valid GAP DP grid: expected {rows} rows of {cols} cells"
            ),
            GapTracebackError::Unexplained { i, j, value } => write!(
                f,
                "not a valid GAP DP grid at cell ({i}, {j}): value {value} has no predecessor"
            ),
        }
    }
}

impl std::error::Error for GapTracebackError {}

/// Check that `d` has the instance's `(n + 1) × (m + 1)` shape, so that a
/// traceback indexes only inside it.
fn check_grid_shape(d: &[Vec<i64>], n: usize, m: usize) -> Result<(), GapTracebackError> {
    if d.len() != n + 1 || d.iter().any(|row| row.len() != m + 1) {
        return Err(GapTracebackError::Shape {
            rows: n + 1,
            cols: m + 1,
        });
    }
    Ok(())
}

/// Trace one optimal alignment back through a completed DP grid `d` (as
/// returned by any of the GAP evaluations).  Deterministic tie-breaking:
/// prefer a match, then the shortest gap in `A`, then the shortest gap in
/// `B` — so identical grids always reconstruct identical alignments.
///
/// Errors if `d` is not a valid DP grid for `inst` (no predecessor explains
/// some cell's value).
///
/// Works on any grid with no extra bookkeeping, but each gap op re-derives
/// its predecessor by scanning candidates nearest-first: *successful* scans
/// telescope (their total length is the summed gap length, at most `n + m`),
/// yet a cell whose value is explained only by the other string's gap — or
/// by nothing, on a corrupted grid — pays a full `O(i)` or `O(j)` scan, so
/// the worst case is `O(n·(n+m))`.
pub fn try_reconstruct_gap_ops<W1, W2>(
    inst: &GapInstance<'_, W1, W2>,
    d: &[Vec<i64>],
) -> Result<Vec<GapOp>, GapTracebackError>
where
    W1: Fn(usize, usize) -> i64 + Sync,
    W2: Fn(usize, usize) -> i64 + Sync,
{
    let (n, m) = (inst.a.len(), inst.b.len());
    check_grid_shape(d, n, m)?;
    let (mut i, mut j) = (n, m);
    let mut ops = Vec::new();
    while i > 0 || j > 0 {
        let cur = d[i][j];
        if i > 0 && j > 0 && inst.matches(i, j) && d[i - 1][j - 1] == cur {
            ops.push(GapOp::Match { i, j });
            i -= 1;
            j -= 1;
        } else if let Some(ip) = (0..i).rev().find(|&ip| d[ip][j] + (inst.w1)(ip, i) == cur) {
            ops.push(GapOp::GapA { l: ip, r: i });
            i = ip;
        } else if let Some(jp) = (0..j).rev().find(|&jp| d[i][jp] + (inst.w2)(jp, j) == cur) {
            ops.push(GapOp::GapB { l: jp, r: j });
            j = jp;
        } else {
            return Err(GapTracebackError::Unexplained { i, j, value: cur });
        }
    }
    ops.reverse();
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_string(n: usize, seed: u64, alphabet: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % alphabet) as u8
            })
            .collect()
    }

    #[test]
    fn identical_strings_align_for_free() {
        let a = pseudo_string(30, 1, 4);
        let inst = convex_gap_instance(&a, &a, 5, 1, 1);
        assert_eq!(naive_gap(&inst).cost, 0);
        assert_eq!(sequential_gap(&inst).cost, 0);
        assert_eq!(parallel_gap(&inst).cost, 0);
    }

    #[test]
    fn deleting_everything_when_no_matches() {
        // Disjoint alphabets: the only option is to delete both strings whole.
        let a = vec![0u8; 12];
        let b = vec![1u8; 7];
        let inst = convex_gap_instance(&a, &b, 3, 2, 0);
        let expect = (3 + 2 * 12) + (3 + 2 * 7);
        assert_eq!(naive_gap(&inst).cost, expect);
        assert_eq!(sequential_gap(&inst).cost, expect);
        assert_eq!(parallel_gap(&inst).cost, expect);
    }

    #[test]
    fn optimized_algorithms_match_naive_on_random_inputs() {
        for seed in 0..6 {
            for &(open, ext, quad) in &[(2i64, 1i64, 0i64), (10, 0, 1), (50, 3, 2)] {
                let a = pseudo_string(28, seed, 3);
                let b = pseudo_string(23, seed + 77, 3);
                let inst = convex_gap_instance(&a, &b, open, ext, quad);
                let want = naive_gap(&inst);
                let wave = parallel_gap(&inst);
                let packed = parallel_gap_packed(&inst);
                for got in [&sequential_gap(&inst), &wave, &packed] {
                    assert_eq!(got.d, want.d, "seed {seed} cost ({open},{ext},{quad})");
                }
                assert!(
                    packed.metrics.rounds <= wave.metrics.rounds,
                    "packing must never use more rounds than the wavefront"
                );
                assert!(try_reconstruct_gap_ops(&inst, &packed.d).is_ok());
            }
        }
    }

    #[test]
    fn asymmetric_gap_costs() {
        // Deleting from A is much more expensive than deleting from B.
        let a = pseudo_string(20, 3, 2);
        let b = pseudo_string(25, 9, 2);
        let inst = GapInstance::new(
            &a,
            &b,
            |l: usize, r: usize| 100 + 10 * (r - l) as i64,
            |l: usize, r: usize| 1 + (r - l) as i64,
        );
        let want = naive_gap(&inst);
        assert_eq!(sequential_gap(&inst).d, want.d);
        assert_eq!(parallel_gap(&inst).d, want.d);
    }

    #[test]
    fn empty_strings() {
        let empty: Vec<u8> = vec![];
        let b = pseudo_string(5, 2, 3);
        let inst = convex_gap_instance(&empty, &b, 4, 1, 1);
        let want = naive_gap(&inst);
        // Splitting the deletion of B into gaps of 2 and 3 beats one gap of 5:
        // (4+2+4) + (4+3+9) = 26 < 4+5+25 = 34.
        assert_eq!(want.cost, 26);
        assert_eq!(sequential_gap(&inst).cost, want.cost);
        assert_eq!(parallel_gap(&inst).cost, want.cost);
        let inst = convex_gap_instance(&empty, &empty, 4, 1, 1);
        assert_eq!(parallel_gap(&inst).cost, 0);
    }

    #[test]
    fn parallel_rounds_equal_grid_depth() {
        let a = pseudo_string(15, 5, 4);
        let b = pseudo_string(10, 6, 4);
        let inst = convex_gap_instance(&a, &b, 2, 1, 1);
        let r = parallel_gap(&inst);
        assert_eq!(r.metrics.rounds, 25);
    }

    #[test]
    fn block_deletion_beats_char_by_char_with_convex_open_cost() {
        // A = B plus an inserted block; with a large opening cost the optimum
        // removes the block with a single gap.
        let mut a = pseudo_string(40, 8, 5);
        let b = a.clone();
        // Insert a block of 6 junk symbols (value 9, absent from b) into a.
        for _ in 0..6 {
            a.insert(20, 9);
        }
        let inst = convex_gap_instance(&a, &b, 30, 1, 0);
        let want = naive_gap(&inst);
        // One gap of length 6 in A: 30 + 6.
        assert_eq!(want.cost, 36);
        assert_eq!(parallel_gap(&inst).cost, 36);
        assert_eq!(sequential_gap(&inst).cost, 36);
    }

    /// Brute-force oracle for the packed schedule: simulate round assignment
    /// cell by cell.  A cell finalizes in round `M` (the latest round among
    /// its predecessors) when the best value through *earlier*-finalized
    /// predecessors already equals its DP value, and in round `M + 1`
    /// otherwise (its tentative still strictly improves in round `M`).
    /// Returns the number of cells finalized in each round; its length, the
    /// maximum round over all cells, is the instance's effective depth.
    fn effective_depth_oracle<W1, W2>(inst: &GapInstance<'_, W1, W2>) -> Vec<u64>
    where
        W1: Fn(usize, usize) -> i64 + Sync,
        W2: Fn(usize, usize) -> i64 + Sync,
    {
        let d = naive_gap(inst).d;
        let (n, m) = (inst.a.len(), inst.b.len());
        let mut rd = vec![vec![0u64; m + 1]; n + 1];
        let mut frontiers = Vec::new();
        for i in 0..=n {
            for j in 0..=m {
                if i == 0 && j == 0 {
                    continue;
                }
                let mut preds: Vec<(u64, i64)> = Vec::new();
                for ip in 0..i {
                    preds.push((rd[ip][j], d[ip][j] + (inst.w1)(ip, i)));
                }
                for jp in 0..j {
                    preds.push((rd[i][jp], d[i][jp] + (inst.w2)(jp, j)));
                }
                if i > 0 && j > 0 && inst.matches(i, j) {
                    preds.push((rd[i - 1][j - 1], d[i - 1][j - 1]));
                }
                let max_r = preds.iter().map(|&(r, _)| r).max().unwrap();
                let older = preds
                    .iter()
                    .filter(|&&(r, _)| r < max_r)
                    .map(|&(_, v)| v)
                    .min()
                    .unwrap_or(INF);
                rd[i][j] = if older == d[i][j] { max_r } else { max_r + 1 };
                let round = rd[i][j] as usize;
                frontiers.resize(frontiers.len().max(round), 0);
                frontiers[round - 1] += 1;
            }
        }
        frontiers
    }

    /// The packed cordon runs the oracle's schedule — every round finalizes
    /// exactly the oracle's cells for that round, so the round count is the
    /// effective depth — and probes every cell exactly twice, as `Γ_gap`
    /// does.
    fn assert_packed_depth<W1, W2>(inst: &GapInstance<'_, W1, W2>)
    where
        W1: Fn(usize, usize) -> i64 + Sync,
        W2: Fn(usize, usize) -> i64 + Sync,
    {
        let packed = parallel_gap_packed(inst);
        let frontiers = effective_depth_oracle(inst);
        assert_eq!(
            packed.metrics.rounds,
            frontiers.len() as u64,
            "packed rounds should match the effective depth exactly"
        );
        assert_eq!(
            packed.metrics.frontier_sizes, frontiers,
            "packed rounds should finalize the oracle's cells, round by round"
        );
        assert!(packed.metrics.rounds <= (inst.a.len() + inst.b.len()) as u64);
        assert_eq!(
            packed.metrics.probes,
            2 * packed.metrics.states_finalized,
            "every cell is probed exactly twice"
        );
    }

    #[test]
    fn packed_matches_wavefront_on_adversarial_instances() {
        // Identical strings: the all-match diagonal aligns for free.
        let a = pseudo_string(30, 1, 4);
        let inst = convex_gap_instance(&a, &a, 5, 1, 1);
        let packed = parallel_gap_packed(&inst);
        assert_eq!(packed.cost, 0);
        assert_eq!(packed.d, parallel_gap(&inst).d);

        // Disjoint alphabets: both strings must be deleted whole.
        let z = vec![0u8; 12];
        let o = vec![1u8; 7];
        let inst = convex_gap_instance(&z, &o, 3, 2, 0);
        assert_eq!(parallel_gap_packed(&inst).d, parallel_gap(&inst).d);

        // Empty strings on either side, and both empty (zero rounds).
        let empty: Vec<u8> = vec![];
        let b = pseudo_string(5, 2, 3);
        let inst = convex_gap_instance(&empty, &b, 4, 1, 1);
        assert_eq!(parallel_gap_packed(&inst).d, parallel_gap(&inst).d);
        let inst = convex_gap_instance(&b, &empty, 4, 1, 1);
        assert_eq!(parallel_gap_packed(&inst).d, parallel_gap(&inst).d);
        let inst = convex_gap_instance(&empty, &empty, 4, 1, 1);
        let trivial = parallel_gap_packed(&inst);
        assert_eq!(trivial.cost, 0);
        assert_eq!(trivial.metrics.rounds, 0);

        // Asymmetric costs (deleting from A is much more expensive).
        let a = pseudo_string(20, 3, 2);
        let b = pseudo_string(25, 9, 2);
        let inst = GapInstance::new(
            &a,
            &b,
            |l: usize, r: usize| 100 + 10 * (r - l) as i64,
            |l: usize, r: usize| 1 + (r - l) as i64,
        );
        assert_eq!(parallel_gap_packed(&inst).d, parallel_gap(&inst).d);

        // Long runs finalized in one round: row runs of length m on disjoint
        // alphabets, column runs of length n on identical strings.
        let a = pseudo_string(44, 1, 4);
        let inst = convex_gap_instance(&a, &a, 5, 1, 1);
        assert_eq!(parallel_gap_packed(&inst).d, parallel_gap(&inst).d);
        let inst = convex_gap_instance(&[0u8; 48], &[1u8; 41], 3, 2, 0);
        assert_eq!(parallel_gap_packed(&inst).d, parallel_gap(&inst).d);
        // A lone row or column with a large opening cost: one gap stays
        // optimal up to cell 34, so round one finalizes a run of 34 cells
        // and keeps cell 35 back (a split gap through that run wins there).
        let s = pseudo_string(40, 4, 3);
        for inst in [
            convex_gap_instance(&[], &s, 600, 1, 1),
            convex_gap_instance(&s, &[], 600, 1, 1),
        ] {
            assert_eq!(parallel_gap_packed(&inst).d, parallel_gap(&inst).d);
        }
    }

    #[test]
    fn packed_rounds_equal_effective_depth() {
        for seed in 0..4 {
            for &(open, ext, quad) in &[(2i64, 1i64, 0i64), (10, 0, 1)] {
                let a = pseudo_string(18, seed, 3);
                let b = pseudo_string(15, seed + 41, 3);
                let inst = convex_gap_instance(&a, &b, open, ext, quad);
                assert_packed_depth(&inst);
            }
        }
        // Adversarial shapes.
        let a = pseudo_string(16, 1, 4);
        assert_packed_depth(&convex_gap_instance(&a, &a, 5, 1, 1));
        let z = vec![0u8; 10];
        let o = vec![1u8; 8];
        assert_packed_depth(&convex_gap_instance(&z, &o, 3, 2, 0));
        let empty: Vec<u8> = vec![];
        assert_packed_depth(&convex_gap_instance(&empty, &o, 4, 1, 1));
        // A large opening cost: long runs, then vetoes from inside them.
        let s = pseudo_string(40, 4, 3);
        assert_packed_depth(&convex_gap_instance(&empty, &s, 600, 1, 1));
        assert_packed_depth(&convex_gap_instance(&s, &s[..25], 600, 1, 1));
    }

    #[test]
    fn packed_compresses_rounds_on_shallow_instances() {
        // Disjoint alphabets with an affine cost have effective depth 2: one
        // gap along each axis reaches every cell through round-1 boundary
        // cells.  The wavefront still runs all n + m anti-diagonals; the
        // packed cordon collapses them.
        let z = vec![0u8; 60];
        let o = vec![1u8; 60];
        let inst = convex_gap_instance(&z, &o, 3, 2, 0);
        let wave = parallel_gap(&inst);
        let packed = parallel_gap_packed(&inst);
        assert_eq!(wave.metrics.rounds, 120);
        assert_eq!(packed.d, wave.d);
        assert_eq!(packed.metrics.rounds, 2);

        // An all-match instance is the opposite extreme: the diagonal is a
        // chain of strict improvements, so the effective depth is n — still
        // half the wavefront's 2n rounds.
        let a = pseudo_string(60, 7, 4);
        let inst = convex_gap_instance(&a, &a, 5, 1, 1);
        let wave = parallel_gap(&inst);
        let packed = parallel_gap_packed(&inst);
        assert_eq!(packed.d, wave.d);
        assert_eq!(packed.metrics.rounds, 60);
        assert_eq!(wave.metrics.rounds, 120);
    }

    #[test]
    fn reconstruction_covers_both_strings_and_recomputes_cost() {
        let a = pseudo_string(24, 11, 3);
        let b = pseudo_string(19, 12, 3);
        let inst = convex_gap_instance(&a, &b, 4, 1, 1);
        let res = parallel_gap_packed(&inst);
        let ops = try_reconstruct_gap_ops(&inst, &res.d).unwrap();
        let (mut i, mut j, mut cost) = (0usize, 0usize, 0i64);
        for op in &ops {
            match *op {
                GapOp::Match { i: oi, j: oj } => {
                    assert_eq!((oi, oj), (i + 1, j + 1), "match must advance both");
                    assert_eq!(a[oi - 1], b[oj - 1], "matched characters must agree");
                    i = oi;
                    j = oj;
                }
                GapOp::GapA { l, r } => {
                    assert_eq!(l, i, "A-gap must start at the current position");
                    cost += (inst.w1)(l, r);
                    i = r;
                }
                GapOp::GapB { l, r } => {
                    assert_eq!(l, j, "B-gap must start at the current position");
                    cost += (inst.w2)(l, r);
                    j = r;
                }
            }
        }
        assert_eq!((i, j), (a.len(), b.len()), "ops must cover both strings");
        assert_eq!(cost, res.cost, "op costs must recompute the DP optimum");
    }

    #[test]
    fn corrupted_grid_reports_the_bad_cell_instead_of_panicking() {
        let a = pseudo_string(12, 5, 3);
        let b = pseudo_string(10, 6, 3);
        let inst = convex_gap_instance(&a, &b, 4, 1, 1);
        let res = sequential_gap(&inst);
        let mut bad = res.d.clone();
        bad[a.len()][b.len()] -= 1; // no predecessor can explain this value
        let err = try_reconstruct_gap_ops(&inst, &bad).unwrap_err();
        assert_eq!(
            err,
            GapTracebackError::Unexplained {
                i: a.len(),
                j: b.len(),
                value: res.d[a.len()][b.len()] - 1
            }
        );
        assert!(err.to_string().contains("not a valid GAP DP grid"));
        // The intact grid still reconstructs.
        assert!(try_reconstruct_gap_ops(&inst, &res.d).is_ok());
    }

    /// Insert values drawn from `0..values` at ascending positions into a
    /// list for the cost `open + ext·len + quad·len²`, checking after every
    /// insert each query a caller may still make against brute force: the
    /// best value and the *oldest* decision attaining it.  Returns the widest
    /// live window seen and how many answers were tied between decisions.
    fn check_list_against_bruteforce(
        open: i64,
        ext: i64,
        quad: i64,
        values: u64,
    ) -> (usize, usize) {
        let horizon = 60;
        let cost = move |l: usize, r: usize| {
            let len = (r - l) as i64;
            open + ext * len + quad * len * len
        };
        let mut list = ConvexDecisionList::new(horizon);
        let mut inserted: Vec<(usize, i64)> = Vec::new();
        let (mut widest, mut ties) = (0, 0);
        let mut state = 12345u64 + open as u64;
        let mut pos = 0;
        while pos < 50 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let val = (state % values) as i64;
            list.insert(pos, val, &cost);
            inserted.push((pos, val));
            // Every position a caller may still ask at.
            for q in pos + 1..=horizon {
                let candidates = inserted.iter().map(|&(p, v)| (v + cost(p, q), p));
                let (want, oldest) = candidates.clone().min().unwrap();
                ties += (candidates.filter(|&(c, _)| c == want).count() > 1) as usize;
                assert_eq!(
                    list.query(q, &cost),
                    (want, oldest),
                    "{open}/{ext}/{quad}, values 0..{values}: pos {pos} q {q}"
                );
            }
            // Only the live envelope is kept: no entry past the head
            // takes over at or before the next queryable position.
            let live = &list.entries[list.head..];
            assert!(
                live.iter().skip(1).all(|&(start, _, _)| start > pos + 1),
                "{open}/{ext}/{quad}: dead entry kept after insert at {pos}: {live:?}"
            );
            widest = widest.max(live.len());
            pos += 1 + state.is_multiple_of(3) as usize;
        }
        (widest, ties)
    }

    #[test]
    fn wrong_shaped_grids_are_typed_errors_instead_of_panics() {
        let a = pseudo_string(12, 5, 3);
        let b = pseudo_string(10, 6, 3);
        let inst = convex_gap_instance(&a, &b, 4, 1, 1);
        let res = sequential_gap(&inst);
        let (n, m) = (a.len(), b.len());
        let (mut short, mut tall, mut ragged_first, mut ragged_last) =
            (res.d.clone(), res.d.clone(), res.d.clone(), res.d.clone());
        short.pop();
        tall.push(vec![0; m + 1]);
        ragged_first[0].pop();
        ragged_last[n].pop();
        let want = GapTracebackError::Shape {
            rows: n + 1,
            cols: m + 1,
        };
        for d in [short, tall, Vec::new(), ragged_first, ragged_last] {
            assert_eq!(try_reconstruct_gap_ops(&inst, &d), Err(want));
        }
        assert!(want.to_string().starts_with("not a valid GAP DP grid"));
    }

    #[test]
    fn convex_decision_list_matches_bruteforce() {
        // Standalone check of the online structure against brute force, on
        // quadratic, affine and large-opening-cost gap families.
        let widest = [(7i64, 2i64, 1i64), (7, 2, 0), (600, 1, 1)]
            .into_iter()
            .map(|(open, ext, quad)| check_list_against_bruteforce(open, ext, quad, 90).0)
            .max();
        assert!(widest > Some(1), "no live window held more than its head");
    }

    #[test]
    fn convex_decision_list_answers_with_the_oldest_tied_decision() {
        // Tie-heavy families: affine costs (two decisions then differ by a
        // constant at every position) and values from a small range.  The
        // packed round's veto reads "finalized before this round" off the
        // decision a list answers with, so among tied minima it must be the
        // oldest.
        let ties: usize = [
            (3i64, 1i64, 0i64, 3u64),
            (7, 0, 0, 2),
            (5, 2, 0, 4),
            (3, 1, 1, 3),
        ]
        .into_iter()
        .map(|(open, ext, quad, values)| check_list_against_bruteforce(open, ext, quad, values).1)
        .sum();
        assert!(ties > 0, "the families produced no tied answers");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not beyond the last insert")]
    fn convex_decision_list_rejects_queries_at_the_last_insert() {
        let cost = |l: usize, r: usize| 3 + (r - l) as i64;
        let mut list = ConvexDecisionList::new(10);
        list.insert(2, 0, &cost);
        list.insert(4, 1, &cost);
        list.query(4, &cost);
    }
}
