//! The sorted best-decision interval array `B` of Algorithm 1.
//!
//! The parallel GLWS algorithm cannot use the sequential algorithm's monotonic
//! queue (pushing and popping is inherently sequential).  Instead it keeps the
//! compressed best-decision information as a plain sorted array of triples
//! `([l, r], j)` covering the still-tentative states: "every state in `[l, r]`
//! currently has best decision `j` among the finalized states".  The array is
//! rebuilt once per cordon round by `FindIntervals` (divide and conquer) and
//! queried by `FindCordon` with two-level binary searches.

/// One triple `([l, r], j)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionInterval {
    /// First state covered (inclusive).
    pub l: usize,
    /// Last state covered (inclusive).
    pub r: usize,
    /// Best decision shared by all states in `[l, r]`.
    pub j: usize,
}

/// Sorted, contiguous array of best-decision intervals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BestDecisionArray {
    triples: Vec<DecisionInterval>,
}

impl BestDecisionArray {
    /// An array covering no states (used once every state is finalized).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The initial array for a GLWS instance with states `1..=n`: every state
    /// starts with decision `0` (the boundary state).
    pub fn initial(n: usize) -> Self {
        if n == 0 {
            return BestDecisionArray {
                triples: Vec::new(),
            };
        }
        BestDecisionArray {
            triples: vec![DecisionInterval { l: 1, r: n, j: 0 }],
        }
    }

    /// Build from raw `(l, r, j)` intervals (already sorted by `l`, contiguous
    /// coverage).  Adjacent intervals with the same decision are merged, which
    /// is the "merge adjacent intervals" step of `UpdateBest` (Alg. 1 line 22).
    pub fn from_intervals(intervals: impl IntoIterator<Item = (usize, usize, usize)>) -> Self {
        let mut b = BestDecisionArray::empty();
        b.rebuild_from_intervals(intervals);
        b
    }

    /// In-place [`BestDecisionArray::from_intervals`]: clears the array and
    /// refills it, reusing the existing triple storage.  This is the per-round
    /// rebuild path of the convex/concave engines, which keeps the round loop
    /// free of heap allocation once the array has reached its high-water mark.
    pub fn rebuild_from_intervals(
        &mut self,
        intervals: impl IntoIterator<Item = (usize, usize, usize)>,
    ) {
        self.triples.clear();
        for (l, r, j) in intervals {
            if l > r {
                continue;
            }
            if let Some(last) = self.triples.last_mut() {
                debug_assert!(
                    last.r + 1 == l,
                    "intervals must be contiguous: previous ends at {}, next starts at {}",
                    last.r,
                    l
                );
                if last.j == j {
                    last.r = r;
                    continue;
                }
            }
            self.triples.push(DecisionInterval { l, r, j });
        }
    }

    /// The triples in increasing position order.
    pub fn triples(&self) -> &[DecisionInterval] {
        &self.triples
    }

    /// Whether the array covers no states.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// The covered state range `(first, last)`, if non-empty.
    pub fn coverage(&self) -> Option<(usize, usize)> {
        match (self.triples.first(), self.triples.last()) {
            (Some(f), Some(l)) => Some((f.l, l.r)),
            _ => None,
        }
    }

    /// Current best decision of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the covered range.
    pub fn decision_at(&self, i: usize) -> usize {
        let idx = self.interval_index_of(i);
        self.triples[idx].j
    }

    fn interval_index_of(&self, i: usize) -> usize {
        let idx = self.triples.partition_point(|t| t.r < i);
        assert!(
            idx < self.triples.len() && self.triples[idx].l <= i,
            "state {i} is not covered by the best-decision array"
        );
        idx
    }

    /// Find the first covered position `p >= lo_bound` such that
    /// `pred(p, decision_at(p))` holds, assuming the predicate is
    /// *suffix-monotone* over positions (false…false, true…true), which is what
    /// convex decision monotonicity guarantees for "candidate `j` beats the
    /// current best at `p`".  Returns `None` if the predicate never holds.
    ///
    /// Runs in `O(log² n)` predicate evaluations (two nested binary searches).
    pub fn first_position_where(
        &self,
        lo_bound: usize,
        pred: &mut impl FnMut(usize, usize) -> bool,
    ) -> Option<usize> {
        let (_, hi) = self.coverage()?;
        if lo_bound > hi {
            return None;
        }
        // Level 1: find the first triple whose *last* relevant position
        // satisfies the predicate.  Because the predicate is suffix-monotone
        // over positions and triples are ordered, "triple contains a true
        // position" is monotone over triples.
        let start_idx = self.triples.partition_point(|t| t.r < lo_bound);
        let tail = &self.triples[start_idx..];
        if tail.is_empty() {
            return None;
        }
        // Binary search over the triples in `tail`, each probed at its last
        // position (every `t.r` in `tail` is at least `lo_bound`).
        let mut lo = 0usize;
        let mut hi_idx = tail.len(); // first index whose triple contains a true position
        while lo < hi_idx {
            let mid = (lo + hi_idx) / 2;
            let t = &tail[mid];
            if pred(t.r, t.j) {
                hi_idx = mid;
            } else {
                lo = mid + 1;
            }
        }
        if lo == tail.len() {
            return None;
        }
        let t = &tail[lo];
        // Level 2: first true position inside this triple, at or after lo_bound.
        let mut plo = t.l.max(lo_bound);
        let mut phi = t.r;
        while plo < phi {
            let mid = (plo + phi) / 2;
            if pred(mid, t.j) {
                phi = mid;
            } else {
                plo = mid + 1;
            }
        }
        Some(plo)
    }

    /// Restrict the array to positions `>= from`, dropping or clipping triples.
    pub fn clip_front(&mut self, from: usize) {
        self.triples.retain(|t| t.r >= from);
        if let Some(first) = self.triples.first_mut() {
            if first.l < from {
                first.l = from;
            }
        }
    }

    /// Restrict the array to positions `<= to`, dropping or clipping triples.
    pub fn clip_back(&mut self, to: usize) {
        self.triples.retain(|t| t.l <= to);
        if let Some(last) = self.triples.last_mut() {
            if last.r > to {
                last.r = to;
            }
        }
    }

    /// Append `other`, whose coverage must start right after `self`'s ends,
    /// merging the boundary triples if they agree.  Copies into the existing
    /// storage, so it allocates nothing below the high-water mark.
    pub fn append(&mut self, other: &BestDecisionArray) {
        let mut rest = other.triples.as_slice();
        if let (Some(last), Some(first)) = (self.triples.last_mut(), rest.first()) {
            debug_assert_eq!(last.r + 1, first.l, "appended coverage must be contiguous");
            if last.j == first.j {
                last.r = first.r;
                rest = &rest[1..];
            }
        }
        self.triples.extend_from_slice(rest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_covers_everything_with_zero() {
        let b = BestDecisionArray::initial(10);
        assert_eq!(b.coverage(), Some((1, 10)));
        for i in 1..=10 {
            assert_eq!(b.decision_at(i), 0);
        }
        assert!(BestDecisionArray::initial(0).is_empty());
    }

    #[test]
    fn from_intervals_merges_equal_neighbours() {
        let b = BestDecisionArray::from_intervals(vec![(3, 4, 1), (5, 6, 1), (7, 9, 2)]);
        assert_eq!(b.triples().len(), 2);
        assert_eq!(b.decision_at(5), 1);
        assert_eq!(b.decision_at(7), 2);
        assert_eq!(b.coverage(), Some((3, 9)));
    }

    #[test]
    fn decision_at_picks_correct_interval() {
        let b = BestDecisionArray::from_intervals(vec![(1, 2, 0), (3, 5, 2), (6, 8, 4)]);
        assert_eq!(b.decision_at(1), 0);
        assert_eq!(b.decision_at(2), 0);
        assert_eq!(b.decision_at(3), 2);
        assert_eq!(b.decision_at(5), 2);
        assert_eq!(b.decision_at(6), 4);
        assert_eq!(b.decision_at(8), 4);
    }

    #[test]
    #[should_panic(expected = "not covered")]
    fn decision_at_outside_coverage_panics() {
        let b = BestDecisionArray::from_intervals(vec![(3, 5, 1)]);
        b.decision_at(6);
    }

    #[test]
    fn first_position_where_suffix_predicate() {
        let b = BestDecisionArray::from_intervals(vec![(1, 4, 0), (5, 8, 2), (9, 12, 3)]);
        // Suffix predicate: true from position 7 on, independent of decision.
        let mut count = 0;
        let got = b.first_position_where(1, &mut |p, _| {
            count += 1;
            p >= 7
        });
        assert_eq!(got, Some(7));
        assert!(count <= 10, "binary searches should not scan linearly");
        // Respecting the lower bound.
        assert_eq!(b.first_position_where(9, &mut |p, _| p >= 7), Some(9));
        assert_eq!(b.first_position_where(13, &mut |p, _| p >= 7), None);
        // Never true.
        assert_eq!(b.first_position_where(1, &mut |_, _| false), None);
        // Always true.
        assert_eq!(b.first_position_where(1, &mut |_, _| true), Some(1));
    }

    #[test]
    fn searches_see_the_interval_decision() {
        let b = BestDecisionArray::from_intervals(vec![(1, 3, 0), (4, 6, 5)]);
        // Predicate depends on the decision: true only where decision == 5.
        assert_eq!(b.first_position_where(1, &mut |_, j| j == 5), Some(4));
    }

    #[test]
    fn clip_and_append() {
        let mut b = BestDecisionArray::from_intervals(vec![(1, 4, 0), (5, 8, 2)]);
        b.clip_front(3);
        assert_eq!(b.coverage(), Some((3, 8)));
        b.clip_back(6);
        assert_eq!(b.coverage(), Some((3, 6)));
        b.append(&BestDecisionArray::from_intervals(vec![(7, 9, 6)]));
        assert_eq!(b.coverage(), Some((3, 9)));
        assert_eq!(b.decision_at(7), 6);
        // Appending merges equal boundary decisions.
        let mut left = BestDecisionArray::from_intervals(vec![(1, 2, 9)]);
        left.append(&BestDecisionArray::from_intervals(vec![
            (3, 4, 9),
            (5, 6, 1),
        ]));
        assert_eq!(left.triples().len(), 2);
        assert_eq!(left.coverage(), Some((1, 6)));
        // Clipping everything away leaves an array that appends verbatim.
        let mut empty = BestDecisionArray::from_intervals(vec![(5, 6, 2)]);
        empty.clip_back(4);
        empty.append(&left);
        assert_eq!(empty, left);
    }

    #[test]
    fn rebuild_matches_from_intervals() {
        let mut b = BestDecisionArray::from_intervals(vec![(1, 4, 0), (5, 8, 2)]);
        b.rebuild_from_intervals(vec![(2, 3, 7), (4, 6, 7)]);
        assert_eq!(b, BestDecisionArray::from_intervals(vec![(2, 6, 7)]));
        b.rebuild_from_intervals(std::iter::empty());
        assert!(b.is_empty());
    }

    #[test]
    fn empty_interval_inputs_are_skipped() {
        let b = BestDecisionArray::from_intervals(vec![(5, 4, 1), (5, 6, 2)]);
        assert_eq!(b.coverage(), Some((5, 6)));
        assert_eq!(b.triples().len(), 1);
    }
}
