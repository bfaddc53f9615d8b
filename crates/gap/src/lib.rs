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
//! * [`parallel_gap`] — the fully packed cordon of Theorem 5.2
//!   ([`PackedGapCordon`]): each round finalizes *every* cell whose tentative
//!   value can no longer change (the safe set), so the number of rounds is
//!   exactly the instance's effective depth `k` — the longest chain of
//!   strict tentative-value improvements — and never more than the grid
//!   depth `n + m`.  It probes every cell exactly twice, as `Γ_gap` does, and
//!   its grid is bit-identical to `Γ_gap`'s (validated against the naive
//!   oracle and a brute-force schedule in the tests).
//!
//! [`try_reconstruct_gap_ops`] traces an optimal alignment back through any
//! completed grid (`O(n·(n+m))` worst case).
//!
//! # The packed round
//!
//! Each packed round is a top-down sweep over the candidate rows.  It
//! inserts each cell into its row and column decision lists as soon as it
//! decides it, so the lists answer for every finalized predecessor, this
//! round's included.  They break ties toward the oldest decision, so the
//! decision behind an answer tells whether a cell finalized before the
//! round attains it, which is the whole veto.  A vetoed cell's value is
//! already final: the next round finalizes it without probing again.  So
//! the round probes each cell exactly as often as `Γ_gap`.
//!
//! The staircase that makes a round safe also makes it separable.  When two
//! threads can run and the last round visited at least 64 rows, the round
//! cuts its rows at `s`, the middle row of the last round's span, where row
//! `s − 1` is finalized on columns `0..A` with `A > 0`, and sweeps two bands
//! under one `rayon::join`:
//!
//! * the upper band, rows above `s`, owns the column lists from `A` on.  The
//!   watermarks are non-increasing, so none of its rows reaches left of `A`;
//! * the lower band, rows from `s` on, owns the column lists below `A` and
//!   starts from cutoff `A`, so it never reaches `A` or beyond.  The diagonal
//!   predecessors of its first row were all finalized before the round; it
//!   reads them from a copy of row `s − 1`.
//!
//! So the bands borrow disjoint rows, lists and cells.  The single sweep
//! would give row `s` the upper band's final cutoff, which is at least `A`,
//! so each lower row the band swept is a prefix of the row the single sweep
//! makes: the same cells with the same lists, cutoff and veto.  The calling
//! thread then repairs the seam.  It walks the lower rows with the true
//! running cutoff, resumes each row that stopped at its band's cutoff (a
//! row that stopped below it was vetoed, and is final), and stops at the
//! first row where the two cutoffs agree: from there on the band did what
//! the single sweep does.  Grids, rounds, frontiers and every work counter
//! are therefore the same at any thread count; only the pool traffic
//! differs, at most one push per round.  At one thread, and for narrower
//! rounds, the round is the single sweep and calls no pool code.
//!
//! Every list is queried only at its live edge, one past its last insert: a
//! row is probed at its watermark, a column at its first unfinalized row,
//! and `Γ_gap` asks each list at the position after the one it last
//! inserted.  So each list keeps only its live envelope,
//! one or two entries on the bench workloads, and a query reads its head
//! entry.  The buffers are sized up front, so the round body does not
//! allocate (pinned at one thread by `tests/alloc_counting.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// DP recurrences read most naturally with explicit state indices.
#![allow(clippy::needless_range_loop)]

use pardp_core::{run_phase_parallel, PhaseParallel};
use pardp_parutils::{effective_parallelism, Metrics, MetricsCollector};

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
    ///
    /// The evaluations hold every DP value in `i64` below the sentinel
    /// `INF = i64::MAX / 4`, and a value is a sum of at most `n + m` gap
    /// costs.  So every cost `w1(l, r)` and `w2(l, r)`, and every sum of
    /// `n + m` of them, must lie in `(−i64::MAX / 4, i64::MAX / 4)`.  This
    /// constructor does not check it: a cost family outside that range gives
    /// a wrong grid in release builds.  [`try_convex_gap_instance`] checks
    /// it for the affine-plus-quadratic family.
    pub fn new(a: &'a [u8], b: &'a [u8], w1: W1, w2: W2) -> Self {
        GapInstance { a, b, w1, w2 }
    }

    #[inline]
    fn matches(&self, i: usize, j: usize) -> bool {
        self.a[i - 1] == self.b[j - 1]
    }
}

/// Why [`try_convex_gap_instance`] rejects a gap penalty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapCostError {
    /// The quadratic coefficient is negative, so the penalty is not convex.
    NotConvex {
        /// The quadratic coefficient.
        quad: i64,
    },
    /// A gap of `len` characters costs a value outside the DP's range
    /// `(−INF, INF)`, `INF = i64::MAX / 4`.
    GapOutOfRange {
        /// The gap length.
        len: usize,
    },
    /// `gaps` gaps of `len` characters each, as many as an alignment can
    /// hold, sum to a value outside `(−INF, INF)`.
    AlignmentOutOfRange {
        /// The length of the gap with the costliest magnitude.
        len: usize,
        /// `n + m`, the most gaps an alignment has.
        gaps: usize,
    },
}

impl core::fmt::Display for GapCostError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            GapCostError::NotConvex { quad } => write!(
                f,
                "convex gap cost: quadratic coefficient {quad} must be non-negative"
            ),
            GapCostError::GapOutOfRange { len } => write!(
                f,
                "convex gap cost: a gap of length {len} leaves the DP's range ±i64::MAX / 4"
            ),
            GapCostError::AlignmentOutOfRange { len, gaps } => write!(
                f,
                "convex gap cost: {gaps} gaps of length {len} leave the DP's range ±i64::MAX / 4"
            ),
        }
    }
}

impl std::error::Error for GapCostError {}

/// Build a GAP instance with the affine-plus-quadratic convex gap penalty
/// `w(l, r) = open + ext·(r-l) + quad·(r-l)²` on both strings.
///
/// Every DP value is a sum of at most `n + m` gap costs over lengths of at
/// most `max(n, m)`, and the evaluations hold them in `i64` below the
/// sentinel `INF = i64::MAX / 4`.  So this checks, in checked arithmetic,
/// that every such gap cost and `n + m` times the largest of them in
/// magnitude lie in `(−INF, INF)`; the DP's sums of one value and one gap
/// cost then cannot overflow either.
// The cost closures have no nameable type to alias.
#[allow(clippy::type_complexity)]
pub fn try_convex_gap_instance<'a>(
    a: &'a [u8],
    b: &'a [u8],
    open: i64,
    ext: i64,
    quad: i64,
) -> Result<
    GapInstance<'a, impl Fn(usize, usize) -> i64 + Sync, impl Fn(usize, usize) -> i64 + Sync>,
    GapCostError,
> {
    if quad < 0 {
        return Err(GapCostError::NotConvex { quad });
    }
    let in_range = |v: i64| -INF < v && v < INF;
    let checked_cost = |len: usize| {
        let len = i64::try_from(len).ok()?;
        open.checked_add(ext.checked_mul(len)?)?
            .checked_add(quad.checked_mul(len)?.checked_mul(len)?)
    };
    let gaps = a.len() + b.len();
    let mut costliest = (0, 0i64);
    for len in 1..=a.len().max(b.len()) {
        let c = checked_cost(len)
            .filter(|&c| in_range(c))
            .ok_or(GapCostError::GapOutOfRange { len })?;
        if c.unsigned_abs() > costliest.1.unsigned_abs() {
            costliest = (len, c);
        }
    }
    let (len, c) = costliest;
    let total = i64::try_from(gaps).ok().and_then(|g| g.checked_mul(c));
    if !total.is_some_and(in_range) {
        return Err(GapCostError::AlignmentOutOfRange { len, gaps });
    }
    let cost = move |l: usize, r: usize| {
        let len = (r - l) as i64;
        open + ext * len + quad * len * len
    };
    Ok(GapInstance::new(a, b, cost, cost))
}

/// [`try_convex_gap_instance`], panicking where it returns an error.
///
/// # Panics
///
/// Panics with the [`GapCostError`] message if `quad < 0`, or if a gap cost,
/// or an alignment's sum of them, can leave `(−i64::MAX / 4, i64::MAX / 4)`.
pub fn convex_gap_instance<'a>(
    a: &'a [u8],
    b: &'a [u8],
    open: i64,
    ext: i64,
    quad: i64,
) -> GapInstance<'a, impl Fn(usize, usize) -> i64 + Sync, impl Fn(usize, usize) -> i64 + Sync> {
    match try_convex_gap_instance(a, b, open, ext, quad) {
        Ok(inst) => inst,
        #[expect(
            clippy::panic,
            reason = "documented panicking facade over the typed \
                      `try_convex_gap_instance` (see the `# Panics` docs above)"
        )]
        Err(err) => panic!("{err}"),
    }
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

/// Entries each list's buffer is pre-sized for.  Before an insert the live
/// window holds one or two entries on the bench workloads, never more, so
/// their buffers never grow: an insert that replaces the envelope clears
/// its buffer, and any other compacts a full one.  A wider window (about 25
/// entries at an opening cost of 600) grows its buffer once.
const LIST_CAPACITY: usize = 8;

/// An online best-decision structure for a convex cost: decisions are inserted
/// in increasing position order, and every query asks at the *live edge*
/// `live_from`, one past the last insert.  The list keeps only its *live
/// envelope*: an entry whose successor takes over at or before the live edge
/// can never answer again, so each insert trims it, and the head entry is
/// the answer at the live edge.  A query reads it in O(1) and does not
/// mutate the list, so tentative probes are safe.
///
/// An insert whose decision is strictly better at the next position than a
/// last entry that already answers at the insert position is, by convexity's
/// suffix property, strictly better up to the horizon: it replaces the whole
/// envelope in one step.  Any other insert pops the entries it beats,
/// gallops to its takeover position and trims the dead prefix.
///
/// Ties go to the *oldest* decision: a new decision pops an entry or takes
/// over only where it is strictly better.  Convexity makes the leftmost
/// minimizer monotone in the query position, so every answer is the oldest
/// decision among the tied minima — the packed round's veto relies on it.
///
/// The gap cost is evaluated only at positions up to the horizon, the
/// instance's domain.
#[derive(Debug, Clone)]
struct ConvexDecisionList {
    /// `(takeover, decision, decision_value)` — from `takeover` on (until the
    /// next entry's takeover), `decision` is the oldest best inserted one.
    /// `entries[..head]` is the trimmed dead prefix, compacted away when the
    /// buffer is full.
    entries: Vec<(usize, usize, i64)>,
    head: usize,
    /// One past the last inserted position: the position every query asks
    /// at.
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
    #[inline(always)]
    fn insert(&mut self, pos: usize, val: i64, cost: &impl Fn(usize, usize) -> i64) {
        debug_assert!(pos >= self.live_from, "insert at {pos} is out of order");
        let next = pos + 1;
        self.live_from = next;
        if val < INF {
            if let Some(&(start, dec, dval)) = self.entries.last() {
                // A last entry that answers at `pos` answers at every later
                // position, and a decision strictly better at `next` stays
                // so up to the horizon: it is the whole live envelope.
                if start <= pos
                    && next <= self.horizon
                    && val + cost(pos, next) < dval + cost(dec, next)
                {
                    self.entries.clear();
                    self.entries.push((next, pos, val));
                    self.head = 0;
                    return;
                }
            }
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
            let len = self.entries.len();
            if len == self.entries.capacity() && self.head > 0 {
                self.entries.copy_within(self.head.., 0);
                self.entries.truncate(len - self.head);
                self.head = 0;
            }
            self.entries.push((takeover, pos, val));
        }
    }

    /// Best value at the live edge `q == live_from` and the oldest decision
    /// attaining it, or `(INF, 0)` if no decision applies.
    #[inline(always)]
    fn query(&self, q: usize, cost: &impl Fn(usize, usize) -> i64) -> (i64, usize) {
        debug_assert!(
            q == self.live_from,
            "query at {q} is not at the live edge {}",
            self.live_from
        );
        match self.entries.get(self.head) {
            Some(&(_, dec, dval)) => (dval + cost(dec, q), dec),
            None => (INF, 0),
        }
    }

    /// [`Self::query`] at any position `q` from the live edge on, by a
    /// search over the live takeover positions: the brute-force check's
    /// reader.
    #[cfg(test)]
    fn query_at(&self, q: usize, cost: &impl Fn(usize, usize) -> i64) -> (i64, usize) {
        assert!(
            q >= self.live_from,
            "query at {q} is before the live edge {}",
            self.live_from
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
        }
    }
    // Three edges per cell: the two gap lists and the diagonal match.
    let cells = ((n + 1) * (m + 1)) as u64;
    metrics.add_edges(3 * cells);
    metrics.add_probes(probes);
    metrics.add_states(cells);
    let cost = d[n][m];
    GapResult {
        d,
        cost,
        metrics: metrics.snapshot(),
    }
}

// ---------------------------------------------------------------------------
// Packed cordon (Theorem 5.2): rounds = effective depth instead of n + m.
// ---------------------------------------------------------------------------

/// Parallel GAP (Theorem 5.2) through the packed cordon
/// ([`PackedGapCordon`]): the same grid and the same probes as
/// [`sequential_gap`], in as many rounds as the instance's *effective depth*
/// `k` — the longest chain of strict tentative-value improvements — which
/// never exceeds the grid depth `n + m`.
///
/// Each round finalizes the entire *safe set*: every cell whose tentative
/// value (computed from already-finalized cells) provably equals its final DP
/// value.  A cell is kept back (Bad) exactly when a cell finalized in the
/// same round strictly improves its tentative, or when one of its
/// predecessors is kept back; each kept-back cell is charged to
/// `wasted_states`.
pub fn parallel_gap<W1, W2>(inst: &GapInstance<'_, W1, W2>) -> GapResult
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
/// by construction, so each round finalizes at least the next anti-diagonal
/// of ready cells — rounds never exceed `n + m` and match the effective depth
/// exactly (pinned against a brute-force oracle in the tests).
///
/// The round is a top-down sweep that decides each cell and inserts it into
/// its row and column lists at once.  A kept-back cell's `v` is already
/// final (all of its predecessors are), so it is carried to the next round,
/// which finalizes it without probing again: every cell is probed exactly
/// twice, as in `Γ_gap`.
///
/// When two threads can run and the last round visited at least 64 rows
/// (`2 · BAND_ROWS`), the sweep runs as two row bands under one
/// `rayon::join`, cut at the middle row `s` of the last round's span where
/// `A = r[s − 1] > 0`: the rows above `s` with the column lists from `A` on,
/// and the rows from `s` on with the lists below `A` and cutoff `A`.  The
/// calling thread then repairs the seam, resuming every lower row that
/// stopped at its band's cutoff until that cutoff agrees with the true one.
/// Every cell sees the lists, cutoff and veto of the single sweep, so
/// grids, rounds, frontiers and work counters do not depend on the thread
/// count (see the crate docs, "The packed round").
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
    /// The lower band's copy of the row above it.
    stage: Vec<i64>,
    /// First and last row the last round visited.
    span: (usize, usize),
    /// First row that can still make progress (rows above are finalized).
    row_lo: usize,
    n: usize,
    m: usize,
}

/// Rows per band: a round splits into two bands when the last round
/// visited at least twice as many rows.
const BAND_ROWS: usize = 32;

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
            stage: vec![INF; m + 1],
            span: (0, 0),
            row_lo: 0,
            n,
            m,
        }
    }

    /// Move `row_lo` past the rows that are finalized to the end.
    fn skip_finished_rows(&mut self) {
        while self.row_lo <= self.n && self.r[self.row_lo] > self.m {
            self.row_lo += 1;
        }
    }

    /// Where this round splits into bands of at least `band_rows` rows: the
    /// middle row `s` of the last round's span and `A = r[s − 1]`, if that
    /// span is wide enough, row `s − 1` is still live (so the upper band has
    /// a row) and `A > 0`.
    fn seam(&self, band_rows: usize) -> Option<(usize, usize)> {
        let (lo, hi) = self.span;
        let rows = hi + 1 - lo;
        if rows < 2 * band_rows {
            return None;
        }
        let s = lo + rows / 2;
        let a = self.r_start[s - 1];
        (s > self.row_lo && a > 0).then_some((s, a))
    }

    /// One round, split into bands of at least `band_rows` rows where
    /// [`Self::seam`] finds a split (never with `None`).
    fn round_in_bands(&mut self, metrics: &MetricsCollector, band_rows: Option<usize>) -> usize {
        self.skip_finished_rows();
        let (row_lo, m) = (self.row_lo, self.m);
        let seam = band_rows.and_then(|rows| self.seam(rows));
        let PackedGapCordon {
            inst,
            d,
            row_struct,
            col_struct,
            r,
            r_start,
            carry,
            stage,
            ..
        } = self;
        let inst = &**inst;
        // Read-only until the re-sync below.
        let snapshot = &r_start[..];
        let mut whole = Band::rows_from(row_lo, d, row_struct, r, carry, col_struct);
        // `cutoff` = min over rows above of the post-round watermark: a cell
        // (i, j) with j >= cutoff has an unfinalized column predecessor that
        // this round does not resolve, so it cannot be safe.  Rows above
        // `row_lo` are fully finalized and impose no cutoff.
        let (row_hi, tally) = match seam {
            None => {
                let (row_hi, _, tally) = whole.sweep(inst, snapshot, m + 1);
                (row_hi, tally)
            }
            Some((s, a)) => {
                let (mut upper, mut lower) = whole.split(s, a, stage);
                let ((_, cutoff, upper_tally), (row_hi, _, lower_tally)) = rayon::join(
                    || upper.sweep(inst, snapshot, m + 1),
                    || lower.sweep(inst, snapshot, a),
                );
                // The band's cutoff reaches 0 only after a row kept back at
                // column 0, which is final, so the true cutoff reaches 0 there
                // too: the single sweep's last row is the band's, and the
                // repair stops at or above it.
                let mut below = Band::rows_from(s, d, row_struct, r, carry, col_struct);
                let repair_tally = below.repair(inst, snapshot, cutoff, a);
                (row_hi, upper_tally.add(lower_tally).add(repair_tally))
            }
        };
        // Re-sync the snapshot over the touched rows only (every other row's
        // watermark is unchanged, so `r_start == r` holds for the next round
        // without an O(n) copy).
        r_start[row_lo..=row_hi].copy_from_slice(&r[row_lo..=row_hi]);
        self.span = (row_lo, row_hi);
        metrics.add_edges(3 * tally.finalized as u64);
        metrics.add_probes(tally.probes);
        metrics.add_wasted(tally.wasted);
        tally.finalized
    }
}

/// Cells a sweep finalized, probes it made and cells it kept back.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    finalized: usize,
    probes: u64,
    wasted: u64,
}

impl Tally {
    fn add(self, other: Tally) -> Tally {
        Tally {
            finalized: self.finalized + other.finalized,
            probes: self.probes + other.probes,
            wasted: self.wasted + other.wasted,
        }
    }
}

/// The rows from `first` on that one sweep of a packed round may write,
/// with the column lists from `col_lo` on.
struct Band<'b> {
    first: usize,
    d: &'b mut [Vec<i64>],
    rows: &'b mut [ConvexDecisionList],
    r: &'b mut [usize],
    carry: &'b mut [Option<i64>],
    col_lo: usize,
    cols: &'b mut [ConvexDecisionList],
    /// Row `first − 1` of the grid (empty for row 0), read for the first
    /// row's diagonal predecessors.
    above: &'b [i64],
}

impl<'b> Band<'b> {
    /// Rows `first..` of the grid with every column list.
    fn rows_from(
        first: usize,
        d: &'b mut [Vec<i64>],
        rows: &'b mut [ConvexDecisionList],
        r: &'b mut [usize],
        carry: &'b mut [Option<i64>],
        cols: &'b mut [ConvexDecisionList],
    ) -> Self {
        let (done, d) = d.split_at_mut(first);
        Band {
            first,
            d,
            rows: &mut rows[first..],
            r: &mut r[first..],
            carry: &mut carry[first..],
            col_lo: 0,
            cols,
            above: done.last().map_or(&[], Vec::as_slice),
        }
    }

    /// Split a band over every column list at row `s` and column `a`, with
    /// `r[s − 1] == a`: the upper band keeps the rows above `s` and takes
    /// the lists from `a` on, the lower band the rest, reading row `s − 1`
    /// from its copy in `stage`.
    fn split(self, s: usize, a: usize, stage: &'b mut [i64]) -> (Self, Self) {
        let k = s - self.first;
        let (upper_d, lower_d) = self.d.split_at_mut(k);
        stage[..a].copy_from_slice(&upper_d[k - 1][..a]);
        let (upper_rows, lower_rows) = self.rows.split_at_mut(k);
        let (upper_r, lower_r) = self.r.split_at_mut(k);
        let (upper_carry, lower_carry) = self.carry.split_at_mut(k);
        let (lower_cols, upper_cols) = self.cols.split_at_mut(a);
        let upper = Band {
            first: self.first,
            d: upper_d,
            rows: upper_rows,
            r: upper_r,
            carry: upper_carry,
            col_lo: a,
            cols: upper_cols,
            above: self.above,
        };
        let lower = Band {
            first: s,
            d: lower_d,
            rows: lower_rows,
            r: lower_r,
            carry: lower_carry,
            col_lo: 0,
            cols: lower_cols,
            above: &stage[..a],
        };
        (upper, lower)
    }

    /// Sweep the band's rows top-down, starting from `cutoff`, until the
    /// cutoff reaches 0.  Returns the last row visited, the final cutoff
    /// and the sweep's tally.
    fn sweep<W1, W2>(
        &mut self,
        inst: &GapInstance<'_, W1, W2>,
        r_start: &[usize],
        mut cutoff: usize,
    ) -> (usize, usize, Tally)
    where
        W1: Fn(usize, usize) -> i64 + Sync,
        W2: Fn(usize, usize) -> i64 + Sync,
    {
        let mut tally = Tally::default();
        let mut row_hi = self.first;
        for i in self.first..self.first + self.r.len() {
            if cutoff == 0 {
                break;
            }
            row_hi = i;
            cutoff = cutoff.min(self.visit(inst, r_start, i, cutoff, &mut tally));
        }
        (row_hi, cutoff, tally)
    }

    /// Finish a lower band swept from `band_cutoff` now that the rows above
    /// it left `cutoff >= band_cutoff`: walk its rows with both running
    /// cutoffs, resume each row that stopped at its band cutoff (one that
    /// stopped below was vetoed and is final), and stop where the two
    /// agree.
    fn repair<W1, W2>(
        &mut self,
        inst: &GapInstance<'_, W1, W2>,
        r_start: &[usize],
        mut cutoff: usize,
        mut band_cutoff: usize,
    ) -> Tally
    where
        W1: Fn(usize, usize) -> i64 + Sync,
        W2: Fn(usize, usize) -> i64 + Sync,
    {
        let mut tally = Tally::default();
        for i in self.first..self.first + self.r.len() {
            if cutoff == band_cutoff {
                break;
            }
            let banded = self.r[i - self.first];
            let watermark = if banded >= band_cutoff {
                self.visit(inst, r_start, i, cutoff, &mut tally)
            } else {
                banded
            };
            band_cutoff = band_cutoff.min(banded);
            cutoff = cutoff.min(watermark);
        }
        tally
    }

    /// Extend row `i` from its watermark up to `cutoff` or its first kept-back
    /// cell, and return the new watermark.  A round visits hundreds of rows
    /// of one or two cells each, so this is inlined into the loops.
    #[inline(always)]
    fn visit<W1, W2>(
        &mut self,
        inst: &GapInstance<'_, W1, W2>,
        r_start: &[usize],
        i: usize,
        cutoff: usize,
        tally: &mut Tally,
    ) -> usize
    where
        W1: Fn(usize, usize) -> i64 + Sync,
        W2: Fn(usize, usize) -> i64 + Sync,
    {
        let (w1, w2) = (&inst.w1, &inst.w2);
        let k = i - self.first;
        let start = self.r[k];
        if start >= cutoff {
            // Blocked at its first unfinalized cell by the column above;
            // the new watermark equals the old one (>= cutoff already).
            return start;
        }
        let (prev, cur) = self.d.split_at_mut(k);
        let above = if k == 0 { self.above } else { &prev[k - 1] };
        let drow = &mut cur[0];
        let row = &mut self.rows[k];
        let cols = &mut *self.cols;
        let col_lo = self.col_lo;
        let mut j = start;
        // The cutoff never shrinks between rounds, so a cell kept back
        // last round is reached again, now with every predecessor final
        // before the round: safe, with the value it was kept back with.
        let mut carried = self.carry[k].take();
        while j < cutoff {
            let col = &mut cols[j - col_lo];
            let v = if let Some(v) = carried.take() {
                v
            } else {
                let (p, p_from) = col.query(i, w1);
                let (q, q_from) = row.query(j, w2);
                tally.probes += 2;
                // The diagonal predecessor, if it matches, and whether it
                // was finalized before the round.
                let (g, g_old) = if i > 0 && j > 0 && inst.matches(i, j) {
                    (above[j - 1], j - 1 < r_start[i - 1])
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
                    self.carry[k] = Some(v);
                    tally.wasted += 1;
                    break;
                }
                v
            };
            drow[j] = v;
            row.insert(j, v, w2);
            col.insert(i, v, w1);
            tally.finalized += 1;
            j += 1;
        }
        self.r[k] = j;
        j
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
        let bands = (effective_parallelism() >= 2).then_some(BAND_ROWS);
        self.round_in_bands(metrics, bands)
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
                let packed = parallel_gap(&inst);
                for got in [&sequential_gap(&inst), &packed] {
                    assert_eq!(got.d, want.d, "seed {seed} cost ({open},{ext},{quad})");
                }
                assert!(
                    packed.metrics.rounds <= (a.len() + b.len()) as u64,
                    "packing must never use more rounds than the grid depth"
                );
                assert!(try_reconstruct_gap_ops(&inst, &packed.d).is_ok());
            }
        }
    }

    /// Deleting `s[l+1..=r]` costs `open + len²` plus the weights of the
    /// deleted characters, read from prefix sums, so evaluating the cost
    /// past the end of `s` panics.
    fn weighted_gap_cost(s: &[u8], open: i64) -> impl Fn(usize, usize) -> i64 + Sync {
        let mut prefix = vec![0i64];
        for &c in s {
            prefix.push(prefix[prefix.len() - 1] + 1 + i64::from(c));
        }
        move |l, r| {
            let len = (r - l) as i64;
            open + len * len + prefix[r] - prefix[l]
        }
    }

    #[test]
    fn gap_costs_are_evaluated_only_inside_the_strings() {
        for seed in 0..6 {
            let a = pseudo_string(31, seed, 3);
            let b = pseudo_string(26, seed + 5, 3);
            let inst = GapInstance::new(&a, &b, weighted_gap_cost(&a, 4), weighted_gap_cost(&b, 9));
            let want = naive_gap(&inst);
            for got in [sequential_gap(&inst), parallel_gap(&inst)] {
                assert_eq!(got.d, want.d, "seed {seed}");
            }
            assert_bands_match(&inst);
        }
    }

    #[test]
    fn convex_gap_costs_outside_the_dp_range_are_typed_errors() {
        // 70 unit gaps cost 70·(2⁵⁶ + 4), above INF: Γ_gap and the packed
        // cordon used to return a negative cost in release.
        let (a, b) = ([0u8; 40], [1u8; 30]);
        let err = try_convex_gap_instance(&a, &b, 3, 1, 1 << 56).err();
        assert_eq!(err, Some(GapCostError::GapOutOfRange { len: 6 }));
        assert_eq!(
            try_convex_gap_instance(&a, &b, 3, 1, -1).err(),
            Some(GapCostError::NotConvex { quad: -1 })
        );
        assert_eq!(
            try_convex_gap_instance(&a, &b, -INF, 0, 0).err(),
            Some(GapCostError::GapOutOfRange { len: 1 })
        );

        // The largest `quad` whose 70 gaps of length 40 stay below INF.
        let quad = ((INF - 1) / 70 - 43) / 1600;
        let err = try_convex_gap_instance(&a, &b, 3, 1, quad + 1).err();
        assert_eq!(
            err,
            Some(GapCostError::AlignmentOutOfRange { len: 40, gaps: 70 })
        );
        assert!(err.unwrap().to_string().contains("70 gaps of length 40"));
        let inst = try_convex_gap_instance(&a, &b, 3, 1, quad).unwrap();
        let want = 70 * (4 + quad);
        assert_eq!(naive_gap(&inst).cost, want);
        for got in [sequential_gap(&inst), parallel_gap(&inst)] {
            assert_eq!(got.cost, want);
        }

        // Every family the tests, examples and benches build, at its
        // largest size.
        for (n, open, ext, quad) in [
            (1000, 3, 1, 1),
            (600, 12, 1, 1),
            (500, 600, 1, 1),
            (60, 2, 1, 0),
            (60, 10, 0, 1),
            (60, 50, 3, 2),
            (60, 5, 1, 1),
            (60, 3, 2, 0),
            (60, 4, 1, 1),
            (60, 30, 1, 0),
            (60, 39, 4, 1),
        ] {
            let s = vec![0u8; n];
            assert!(try_convex_gap_instance(&s, &s, open, ext, quad).is_ok());
        }
        let empty: [u8; 0] = [];
        assert!(try_convex_gap_instance(&empty, &empty, i64::MIN, i64::MIN, 0).is_ok());
    }

    #[test]
    #[should_panic(expected = "quadratic coefficient -3 must be non-negative")]
    fn convex_gap_instance_panics_with_the_typed_error() {
        convex_gap_instance(b"ab", b"ba", 1, 1, -3);
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

    /// One-row bands change nothing.  A cordon that splits every round it
    /// can, at any thread count, runs in lockstep with one that never
    /// splits: after each round both hold the same watermarks, kept-back
    /// values and span, and at the end the same grid, equal to the naive
    /// oracle's, and the same `Metrics`.  Returns how many rounds split.
    fn assert_bands_match<W1, W2>(inst: &GapInstance<'_, W1, W2>) -> u64
    where
        W1: Fn(usize, usize) -> i64 + Sync,
        W2: Fn(usize, usize) -> i64 + Sync,
    {
        let (mut whole, mut banded) = (PackedGapCordon::new(inst), PackedGapCordon::new(inst));
        let (whole_metrics, banded_metrics) = (MetricsCollector::new(), MetricsCollector::new());
        let mut splits = 0;
        while !whole.is_done() {
            banded.skip_finished_rows();
            splits += u64::from(banded.seam(1).is_some());
            let frontier = whole.round_in_bands(&whole_metrics, None);
            assert_eq!(
                banded.round_in_bands(&banded_metrics, Some(1)),
                frontier,
                "one-row bands: frontier"
            );
            assert_eq!(
                (&banded.r, &banded.carry, banded.span),
                (&whole.r, &whole.carry, whole.span),
                "one-row bands: staircase after a round"
            );
            whole_metrics.record_round(frontier as u64);
            banded_metrics.record_round(frontier as u64);
        }
        assert!(banded.is_done());
        assert_eq!(banded_metrics.snapshot(), whole_metrics.snapshot());
        assert_eq!(banded.d, whole.d, "one-row bands: grid");
        assert_eq!(banded.d, naive_gap(inst).d, "one-row bands: grid");
        splits
    }

    /// The packed cordon runs the oracle's schedule — every round finalizes
    /// exactly the oracle's cells for that round, so the round count is the
    /// effective depth — and probes every cell exactly twice, as `Γ_gap`
    /// does.  So it does with one-row bands, which split every round they
    /// can.  Returns how many rounds split.
    fn assert_packed_depth<W1, W2>(inst: &GapInstance<'_, W1, W2>) -> u64
    where
        W1: Fn(usize, usize) -> i64 + Sync,
        W2: Fn(usize, usize) -> i64 + Sync,
    {
        let packed = parallel_gap(inst);
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
        assert_bands_match(inst)
    }

    /// The packed cordon's grid equals `Γ_gap`'s, in at most `n + m`
    /// rounds.  Returns the packed run.
    fn assert_packed_matches_sequential<W1, W2>(inst: &GapInstance<'_, W1, W2>) -> GapResult
    where
        W1: Fn(usize, usize) -> i64 + Sync,
        W2: Fn(usize, usize) -> i64 + Sync,
    {
        let packed = parallel_gap(inst);
        assert_eq!(packed.d, sequential_gap(inst).d, "packed grid vs Γ_gap");
        assert!(packed.metrics.rounds <= (inst.a.len() + inst.b.len()) as u64);
        packed
    }

    #[test]
    fn packed_matches_sequential_on_adversarial_instances() {
        // Identical strings: the all-match diagonal aligns for free.
        let a = pseudo_string(30, 1, 4);
        let packed = assert_packed_matches_sequential(&convex_gap_instance(&a, &a, 5, 1, 1));
        assert_eq!(packed.cost, 0);

        // Disjoint alphabets: both strings must be deleted whole.
        let z = vec![0u8; 12];
        let o = vec![1u8; 7];
        assert_packed_matches_sequential(&convex_gap_instance(&z, &o, 3, 2, 0));

        // Empty strings on either side, and both empty (zero rounds).
        let empty: Vec<u8> = vec![];
        let b = pseudo_string(5, 2, 3);
        assert_packed_matches_sequential(&convex_gap_instance(&empty, &b, 4, 1, 1));
        assert_packed_matches_sequential(&convex_gap_instance(&b, &empty, 4, 1, 1));
        let inst = convex_gap_instance(&empty, &empty, 4, 1, 1);
        let trivial = assert_packed_matches_sequential(&inst);
        assert_eq!(trivial.cost, 0);
        assert_eq!(trivial.metrics.rounds, 0);

        // Asymmetric costs (deleting from A is much more expensive).
        let a = pseudo_string(20, 3, 2);
        let b = pseudo_string(25, 9, 2);
        assert_packed_matches_sequential(&GapInstance::new(
            &a,
            &b,
            |l: usize, r: usize| 100 + 10 * (r - l) as i64,
            |l: usize, r: usize| 1 + (r - l) as i64,
        ));

        // Long runs finalized in one round: row runs of length m on disjoint
        // alphabets, column runs of length n on identical strings.
        let a = pseudo_string(44, 1, 4);
        assert_packed_matches_sequential(&convex_gap_instance(&a, &a, 5, 1, 1));
        assert_packed_matches_sequential(&convex_gap_instance(&[0u8; 48], &[1u8; 41], 3, 2, 0));
        // A lone row or column with a large opening cost: one gap stays
        // optimal up to cell 34, so round one finalizes a run of 34 cells
        // and keeps cell 35 back (a split gap through that run wins there).
        let s = pseudo_string(40, 4, 3);
        assert_packed_matches_sequential(&convex_gap_instance(&[], &s, 600, 1, 1));
        assert_packed_matches_sequential(&convex_gap_instance(&s, &[], 600, 1, 1));
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
    fn one_row_bands_match_the_oracles() {
        // The adversarial families, every round split wherever it can be.
        let mut splits = 0;
        let a = pseudo_string(30, 1, 4);
        splits += assert_packed_depth(&convex_gap_instance(&a, &a, 5, 1, 1));
        let (z, o) = (vec![0u8; 48], vec![1u8; 41]);
        splits += assert_packed_depth(&convex_gap_instance(&z, &o, 3, 2, 0));
        let s = pseudo_string(40, 4, 3);
        splits += assert_packed_depth(&convex_gap_instance(&[], &s, 600, 1, 1));
        splits += assert_packed_depth(&convex_gap_instance(&s, &[], 600, 1, 1));
        splits += assert_packed_depth(&convex_gap_instance(&s, &s[..25], 600, 1, 1));
        let (a, b) = (pseudo_string(20, 3, 2), pseudo_string(25, 9, 2));
        splits += assert_packed_depth(&GapInstance::new(
            &a,
            &b,
            |l: usize, r: usize| 100 + 10 * (r - l) as i64,
            |l: usize, r: usize| 1 + (r - l) as i64,
        ));
        assert!(splits > 0, "no adversarial round split");

        // Random grids of 1-60 x 1-55 under five convex families and
        // asymmetric costs.
        let mut splits = 0;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for seed in 0..30u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let (n, m) = (1 + state % 60, 1 + (state >> 8) % 55);
            let alphabet = 2 + (state >> 16) % 4;
            let a = pseudo_string(n as usize, seed, alphabet);
            let b = pseudo_string(m as usize, seed + 1000, alphabet);
            for (open, ext, quad) in [(2, 1, 0), (10, 0, 1), (50, 3, 2), (3, 1, 1), (600, 1, 1)] {
                splits += assert_bands_match(&convex_gap_instance(&a, &b, open, ext, quad));
            }
            splits += assert_bands_match(&GapInstance::new(
                &a,
                &b,
                |l: usize, r: usize| 40 + 7 * (r - l) as i64,
                |l: usize, r: usize| 2 + ((r - l) * (r - l)) as i64,
            ));
        }
        assert!(splits > 100, "only {splits} random rounds split");
    }

    #[test]
    fn packed_compresses_rounds_on_shallow_instances() {
        // Disjoint alphabets with an affine cost have effective depth 2: one
        // gap along each axis reaches every cell through round-1 boundary
        // cells.  The grid depth is n + m = 120 anti-diagonals; the packed
        // cordon collapses them.
        let z = vec![0u8; 60];
        let o = vec![1u8; 60];
        let packed = assert_packed_matches_sequential(&convex_gap_instance(&z, &o, 3, 2, 0));
        assert_eq!(packed.metrics.rounds, 2);

        // An all-match instance is the opposite extreme: the diagonal is a
        // chain of strict improvements, so the effective depth is n — still
        // half the grid depth 2n.
        let a = pseudo_string(60, 7, 4);
        let packed = assert_packed_matches_sequential(&convex_gap_instance(&a, &a, 5, 1, 1));
        assert_eq!(packed.metrics.rounds, 60);
    }

    #[test]
    fn reconstruction_covers_both_strings_and_recomputes_cost() {
        let a = pseudo_string(24, 11, 3);
        let b = pseudo_string(19, 12, 3);
        let inst = convex_gap_instance(&a, &b, 4, 1, 1);
        let res = parallel_gap(&inst);
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

    /// Insert values drawn from `0..values` at ascending positions up to the
    /// horizon into a list for the cost `open + ext·len + quad·len²`,
    /// checking after every insert the answer at every later position
    /// against brute force: the best value and the *oldest* decision
    /// attaining it.  Returns the widest live window seen and how many
    /// answers were tied between decisions.
    fn check_list_against_bruteforce(
        open: i64,
        ext: i64,
        quad: i64,
        values: u64,
    ) -> (usize, usize) {
        let horizon = 60;
        // Positions past the horizon lie outside the instance.
        let cost = move |l: usize, r: usize| {
            assert!(r <= horizon, "cost evaluated at {r}, past the horizon");
            let len = (r - l) as i64;
            open + ext * len + quad * len * len
        };
        let mut list = ConvexDecisionList::new(horizon);
        let mut inserted: Vec<(usize, i64)> = Vec::new();
        let (mut widest, mut ties) = (0, 0);
        let mut state = 12345u64 + open as u64;
        let mut pos = 0;
        loop {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let val = (state % values) as i64;
            list.insert(pos, val, &cost);
            inserted.push((pos, val));
            // Every position a query may ask at once the positions before
            // it are inserted; callers ask only at the live edge `pos + 1`.
            for q in pos + 1..=horizon {
                let candidates = inserted.iter().map(|&(p, v)| (v + cost(p, q), p));
                let (want, oldest) = candidates.clone().min().unwrap();
                ties += (candidates.filter(|&(c, _)| c == want).count() > 1) as usize;
                let got = list.query_at(q, &cost);
                assert_eq!(
                    got,
                    (want, oldest),
                    "{open}/{ext}/{quad}, values 0..{values}: pos {pos} q {q}"
                );
                if q == pos + 1 {
                    assert_eq!(list.query(q, &cost), got, "live edge after pos {pos}");
                }
            }
            // Only the live envelope is kept: no entry past the head
            // takes over at or before the next queryable position.
            let live = &list.entries[list.head..];
            assert!(
                live.iter().skip(1).all(|&(start, _, _)| start > pos + 1),
                "{open}/{ext}/{quad}: dead entry kept after insert at {pos}: {live:?}"
            );
            widest = widest.max(live.len());
            if pos == horizon {
                break;
            }
            pos = (pos + 1 + state.is_multiple_of(3) as usize).min(horizon);
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
    fn convex_decision_list_rejects_queries_off_the_live_edge() {
        let cost = |l: usize, r: usize| 3 + (r - l) as i64;
        let mut list = ConvexDecisionList::new(10);
        list.insert(2, 0, &cost);
        list.insert(4, 1, &cost);
        assert_eq!(list.query(5, &cost), (5, 4));
        // At the last insert, and past the live edge.
        for q in [4, 6] {
            let err = std::panic::catch_unwind(|| list.query(q, &cost)).unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            assert_eq!(msg, &format!("query at {q} is not at the live edge 5"));
        }
    }
}
