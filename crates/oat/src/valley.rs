//! Polylog-round OAT construction (Theorem 5.1): weight-doubling combine
//! rounds over the ascending runs of the current sequence.
//!
//! The interval cordon ([`IntervalOatCordon`]) needs `n - 1` rounds — one
//! per diagonal of the Knuth table.  Theorem 5.1 instead parallelizes the
//! Garsia–Wachs *combine* process itself (Appendix A): the weight sequence
//! falls into **valleys** around its local minima, bounded by larger
//! elements (walls), and combines in different valleys are independent
//! because a combined package is reinserted before the nearest larger
//! element, which never crosses a wall that exceeds the package weight.
//!
//! [`ValleyOatCordon`] batches those independent combines into
//! weight-doubling rounds.  It builds no Cartesian tree and no valley list
//! up front: each round reads the valleys off the current sequence.  Each
//! round:
//!
//! 1. picks a threshold `T = max(2·T_prev, 2^⌈log₂ min-2-sum⌉)`, so at least
//!    one pair is always eligible and `T` at least doubles per round;
//! 2. splits the current sequence into maximal nondecreasing runs (the
//!    ascending slopes of the current valleys) and, **in parallel per run**,
//!    replays verbatim Garsia–Wachs steps on the run's front pair: a combine
//!    fires only while the pair's 2-sum is at most `T`, the left wall still
//!    exceeds the second element (the locally-minimal-pair condition), and
//!    the package reinserts inside the run — every such step reads only
//!    run-local state plus the immutable wall, so runs never race;
//! 3. finishes with a short sequential sweep that performs the remaining
//!    eligible locally-minimal combines (wall-adjacent pairs and packages
//!    that escape their run), counted as `wasted` work in the metrics.
//!
//! After a round no 2-sum is below `T`, so the number of rounds is at most
//! `log₂(total weight) + O(1)` — within the Lemma 5.1 budget
//! [`crate::oat_height_bound`], and *polylogarithmic* in `n` for word-sized
//! weights, versus the interval cordon's `n - 1`.  Every combine is a bona
//! fide locally-minimal-pair step, which Karpinski–Larmore–Rytter show may be
//! scheduled in any order, so the result is a valid Garsia–Wachs l-tree and
//! its leaf levels are optimal alphabetic-tree depths; the tests pin cost
//! equality against [`crate::garsia_wachs`] and [`crate::interval_dp_oat`],
//! plus Kraft equality and ordered realizability of the depth vector.
//!
//! The paper reaches the same round bound by phrasing each valley's schedule
//! as a least-weight-subsequence instance for the parallel LWS engine of
//! `pardp-glws` (Larmore et al. \[72\]); this driver keeps the engine contract
//! (`run_phase_parallel`, metrics, stall guards, `round_budget`) but derives
//! the rounds directly from the doubling thresholds, trading the LWS oracle
//! for combine steps that are individually checkable against the sequential
//! algorithm.
//!
//! [`oat_cordon_auto`] routes tiny inputs (below [`OAT_VALLEY_MIN_N`]) to the
//! interval cordon via [`IntervalOatCordon`], returning the zero-dispatch
//! `EitherCordon` combinator exactly like the Tree-GLWS shape router;
//! [`crate::parallel_oat`] runs its choice.

use pardp_core::{EitherCordon, FrontierArena, PhaseParallel};
use pardp_obst::ObstCordon;
use pardp_parutils::{par_map, MetricsCollector};

/// Cost and per-leaf depths of an optimal alphabetic tree — the common
/// output of the valley and interval OAT cordons (the driver owns the
/// metrics, so they are not part of the instance output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OatLayout {
    /// Optimal cost `Σ a_i · depth_i`.
    pub cost: u64,
    /// Depth of every leaf in the optimal tree.
    pub depths: Vec<u32>,
}

/// Below this size the router picks the interval cordon: the O(n²) diagonal
/// sweep is cheaper than the valley machinery's per-round fixed cost on tiny
/// inputs, and its `n - 1` rounds are few in absolute terms anyway.
pub const OAT_VALLEY_MIN_N: usize = 64;

/// An l-tree sequence element: a leaf (`enc = -(i+1)`) or a combined package
/// rooted at arena node `enc`.
#[derive(Debug, Clone, Copy)]
struct Item {
    weight: u64,
    enc: isize,
}

/// Output of one run's parallel combine phase.
struct RunOut {
    /// Remaining items of the run, ascending by weight.
    items: Vec<Item>,
    /// Locally allocated l-tree nodes; references at or above the round base
    /// are local to this run and remapped on append.
    nodes: Vec<(isize, isize)>,
    /// Scan/insert work performed.
    edges: u64,
}

/// Replay Garsia–Wachs combines on one maximal nondecreasing run.
///
/// The front pair of a sorted run is the only candidate locally minimal
/// pair; it is combined while its 2-sum is within `threshold`, the left
/// `wall` strictly exceeds the second element (the `left_ok` condition of
/// the sequential algorithm, since `wall + s1 > s1 + s2 ⇔ wall > s2`), and
/// the package reinserts before an in-run element (`x` at most the run's
/// immutable last weight).  `right_ok` holds automatically while the run has
/// at least three items (`s1 ≤ s3 ⇔ s1 + s2 ≤ s2 + s3`).  All reads are
/// run-local or the round-start wall, so runs are processed in parallel.
fn run_combines(run: &[Item], wall: u64, threshold: u64, round_base: usize) -> RunOut {
    let mut cur: Vec<Item> = run.to_vec();
    let mut head = 0usize;
    let mut nodes: Vec<(isize, isize)> = Vec::new();
    let mut edges = 0u64;
    while cur.len() - head >= 3 {
        let s1 = cur[head];
        let s2 = cur[head + 1];
        let x = s1.weight + s2.weight;
        if x > threshold || wall <= s2.weight || x > cur[cur.len() - 1].weight {
            break;
        }
        let enc = (round_base + nodes.len()) as isize;
        nodes.push((s1.enc, s2.enc));
        head += 2;
        // Reinsert before the first element >= x (the Garsia–Wachs rule);
        // the run is sorted, so the scan is a binary search.
        let pos = head + cur[head..].partition_point(|it| it.weight < x);
        edges += 1 + (cur.len() - pos) as u64;
        cur.insert(pos, Item { weight: x, enc });
    }
    let items = cur.split_off(head);
    RunOut {
        items,
        nodes,
        edges,
    }
}

/// Phase-parallel OAT cordon with polylog rounds (Theorem 5.1).
///
/// See the [module docs](self) for the round structure.  Frontier size per
/// round is the number of combines performed; the sequential sweep's
/// combines are additionally counted as `wasted` in the metrics, and the
/// number of parallel run tasks per round as `probes`.
#[derive(Debug)]
pub struct ValleyOatCordon {
    weights: Vec<u64>,
    seq: Vec<Item>,
    children: Vec<(isize, isize)>,
    threshold: u64,
    stitched: Vec<Item>,
}

impl ValleyOatCordon {
    /// Build the cordon: the leaf sequence and the buffers the rounds reuse.
    pub fn new(weights: &[u64]) -> Self {
        let n = weights.len();
        assert!(n < u32::MAX as usize, "sequence too long for packed runs");
        let seq = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| Item {
                weight: w,
                enc: -((i as isize) + 1),
            })
            .collect();
        ValleyOatCordon {
            weights: weights.to_vec(),
            seq,
            children: Vec::with_capacity(n.saturating_sub(1)),
            threshold: 0,
            stitched: Vec::with_capacity(n),
        }
    }
}

impl PhaseParallel for ValleyOatCordon {
    type Output = OatLayout;

    fn is_done(&self) -> bool {
        self.seq.len() <= 1
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        self.round_with(metrics, &mut FrontierArena::new())
    }

    fn round_with(&mut self, metrics: &MetricsCollector, arena: &mut FrontierArena) -> usize {
        let n_now = self.seq.len();
        debug_assert!(n_now >= 2);

        // Threshold: at least double, and at least the (power-of-two rounded)
        // smallest current 2-sum, so >= 1 pair is always eligible.
        #[expect(
            clippy::expect_used,
            reason = "`round` only runs while `seq.len() >= 2` (`is_done` gates on \
                      it), so a pair exists; a silent fallback would mis-set the \
                      combine threshold"
        )]
        let min_sum = self
            .seq
            .windows(2)
            .map(|w| w[0].weight + w[1].weight)
            .min()
            .expect("at least one pair");
        self.threshold = (self.threshold.saturating_mul(2)).max(min_sum.next_power_of_two());
        let t = self.threshold;

        // Maximal nondecreasing runs (the ascending valley slopes), staged in
        // the driver's arena as ((lo << 32) | hi, wall-weight) pairs.
        let runs = arena.pairs_mut();
        let mut lo = 0usize;
        for p in 1..n_now {
            if self.seq[p].weight < self.seq[p - 1].weight {
                let wall = if lo == 0 {
                    u64::MAX
                } else {
                    self.seq[lo - 1].weight
                };
                runs.push((((lo as u64) << 32) | p as u64, wall));
                lo = p;
            }
        }
        let wall = if lo == 0 {
            u64::MAX
        } else {
            self.seq[lo - 1].weight
        };
        runs.push((((lo as u64) << 32) | n_now as u64, wall));
        metrics.add_edges(2 * n_now as u64); // min-sum scan + run partition
        metrics.add_probes(runs.len() as u64);

        // Parallel phase: independent Garsia–Wachs combines per run.
        let round_base = self.children.len();
        let seq_ref = &self.seq;
        let runs_ref: &[(u64, u64)] = runs;
        let outs: Vec<RunOut> = par_map(runs_ref.len(), |r| {
            let (packed, wall) = runs_ref[r];
            let (lo, hi) = ((packed >> 32) as usize, (packed & 0xffff_ffff) as usize);
            run_combines(&seq_ref[lo..hi], wall, t, round_base)
        });

        // Merge: append local l-tree nodes (remapping run-local references)
        // and stitch the leftover items back into one sequence.
        self.stitched.clear();
        let mut combines = 0usize;
        for out in outs {
            let shift = self.children.len() as isize - round_base as isize;
            let remap = |enc: isize| {
                if enc >= round_base as isize {
                    enc + shift
                } else {
                    enc
                }
            };
            for &(l, r) in &out.nodes {
                self.children.push((remap(l), remap(r)));
            }
            combines += out.nodes.len();
            self.stitched.extend(out.items.iter().map(|it| Item {
                weight: it.weight,
                enc: remap(it.enc),
            }));
            metrics.add_edges(out.edges);
        }
        std::mem::swap(&mut self.seq, &mut self.stitched);

        // Sequential sweep: remaining eligible locally minimal pairs —
        // wall-adjacent fronts and packages escaping their run.  Counted as
        // wasted (work the parallel phase could not take).
        let mut swept = 0u64;
        let mut edges = 0u64;
        let mut cursor = 0usize;
        while self.seq.len() >= 2 {
            let two = |s: &[Item], k: usize| s[k].weight + s[k + 1].weight;
            let last = self.seq.len() - 2;
            let mut found = None;
            let mut k = cursor;
            while k <= last {
                edges += 1;
                let s = two(&self.seq, k);
                if s <= t {
                    let left_ok = k == 0 || two(&self.seq, k - 1) > s;
                    let right_ok = k == last || s <= two(&self.seq, k + 1);
                    if left_ok && right_ok {
                        found = Some(k);
                        break;
                    }
                }
                k += 1;
            }
            let Some(p) = found else { break };
            let x = two(&self.seq, p);
            let enc = self.children.len() as isize;
            self.children.push((self.seq[p].enc, self.seq[p + 1].enc));
            self.seq.drain(p..=p + 1);
            let mut q = p;
            while q < self.seq.len() && self.seq[q].weight < x {
                edges += 1;
                q += 1;
            }
            self.seq.insert(q, Item { weight: x, enc });
            swept += 1;
            // Modifications touch indices >= p - 1 only; resume two pairs
            // earlier (pair p-2's right neighbour changed).
            cursor = p.saturating_sub(2);
        }
        metrics.add_edges(edges);
        metrics.add_wasted(swept);

        combines + swept as usize
    }

    fn finish(self) -> OatLayout {
        let n = self.weights.len();
        let mut depths = vec![0u32; n];
        if n >= 2 {
            let root = self.seq[0].enc;
            let mut stack = vec![(root, 0u32)];
            while let Some((enc, depth)) = stack.pop() {
                if enc < 0 {
                    depths[(-enc - 1) as usize] = depth;
                } else {
                    let (l, r) = self.children[enc as usize];
                    stack.push((l, depth + 1));
                    stack.push((r, depth + 1));
                }
            }
        }
        let cost = self
            .weights
            .iter()
            .zip(&depths)
            .map(|(&w, &d)| w * d as u64)
            .sum();
        OatLayout { cost, depths }
    }

    fn round_budget(&self) -> Option<u64> {
        let n = self.weights.len() as u64;
        if n < 2 {
            return Some(0);
        }
        // The threshold at least doubles per round and starts at the first
        // min-2-sum's power of two, so rounds <= log2(total weight) + O(1);
        // n - 1 combines also bound the rounds outright.
        let total: u64 = self.weights.iter().sum();
        let bits = 64 - total.leading_zeros() as u64;
        Some((n - 1).min(bits + 4))
    }
}

/// The interval-DP cordon (the OBST diagonal sweep restricted to leaf
/// weights) adapted to the [`OatLayout`] output, so the router's two arms
/// share an output type.  Runs in `n - 1` rounds — the pre-Theorem-5.1
/// baseline kept for tiny inputs and as the ablation partner.
pub struct IntervalOatCordon {
    inner: ObstCordon,
}

impl IntervalOatCordon {
    /// Wrap the OBST diagonal cordon for the given leaf weights.
    pub fn new(weights: &[u64]) -> Self {
        IntervalOatCordon {
            inner: ObstCordon::new(weights),
        }
    }
}

impl PhaseParallel for IntervalOatCordon {
    type Output = OatLayout;

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        self.inner.round(metrics)
    }

    fn round_with(&mut self, metrics: &MetricsCollector, arena: &mut FrontierArena) -> usize {
        self.inner.round_with(metrics, arena)
    }

    fn finish(self) -> OatLayout {
        let tables = self.inner.finish();
        OatLayout {
            cost: tables.cost(),
            depths: tables.leaf_depths(),
        }
    }

    fn round_budget(&self) -> Option<u64> {
        self.inner.round_budget()
    }
}

/// Route an OAT instance to the cheaper cordon: the interval cordon below
/// [`OAT_VALLEY_MIN_N`] leaves, the polylog-round valley cordon otherwise —
/// returned as the zero-dispatch `EitherCordon` so the choice stays a value
/// any driver (including the facade's `CordonSolver`) can run.
pub fn oat_cordon_auto(weights: &[u64]) -> EitherCordon<IntervalOatCordon, ValleyOatCordon> {
    if weights.len() < OAT_VALLEY_MIN_N {
        EitherCordon::First(IntervalOatCordon::new(weights))
    } else {
        EitherCordon::Second(ValleyOatCordon::new(weights))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{garsia_wachs, interval_dp_oat, oat_height_bound, parallel_oat, OatResult};
    use pardp_core::run_phase_parallel;

    /// Run the valley cordon at any size, below the router's cut too.
    fn run_valley(weights: &[u64]) -> OatResult {
        let metrics = MetricsCollector::new();
        let layout = run_phase_parallel(ValleyOatCordon::new(weights), &metrics);
        let height = layout.depths.iter().copied().max().unwrap_or(0);
        OatResult {
            cost: layout.cost,
            depths: layout.depths,
            height,
            metrics: metrics.snapshot(),
        }
    }

    fn pseudo_weights(n: usize, seed: u64, max_w: u64) -> Vec<u64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % max_w + 1
            })
            .collect()
    }

    /// A depth sequence is realizable as an ordered full binary tree iff the
    /// classic stack merge reduces it to a single root of depth 0.
    fn alphabetically_realizable(depths: &[u32]) -> bool {
        let mut stack: Vec<u32> = Vec::new();
        for &d in depths {
            let mut cur = d;
            while stack.last() == Some(&cur) {
                if cur == 0 {
                    return false;
                }
                stack.pop();
                cur -= 1;
            }
            stack.push(cur);
        }
        stack == [0]
    }

    #[test]
    fn valley_matches_oracles_on_small_inputs() {
        for seed in 0..8 {
            for &n in &[0usize, 1, 2, 3, 4, 5, 8, 13, 20, 40, 90, 150] {
                let w = pseudo_weights(n, seed, 50);
                let got = run_valley(&w);
                let gw = garsia_wachs(&w);
                assert_eq!(got.cost, gw.cost, "n {n} seed {seed} weights {w:?}");
                assert_eq!(got.cost, interval_dp_oat(&w), "n {n} seed {seed}");
                let recomputed: u64 = w.iter().zip(&got.depths).map(|(&a, &d)| a * d as u64).sum();
                assert_eq!(recomputed, got.cost, "depths must attain the cost");
                if n >= 1 {
                    assert!(
                        alphabetically_realizable(&got.depths),
                        "n {n} seed {seed}: depths {:?} not realizable in order",
                        got.depths
                    );
                }
            }
        }
    }

    #[test]
    fn valley_rounds_are_polylog_not_linear() {
        for seed in 0..4 {
            let w = pseudo_weights(2000, seed, 1000);
            let r = run_valley(&w);
            assert_eq!(r.cost, garsia_wachs(&w).cost);
            let bound = oat_height_bound(&w) as u64;
            assert!(
                r.metrics.rounds <= bound,
                "rounds {} exceed the Lemma 5.1 budget {bound}",
                r.metrics.rounds
            );
            // The interval cordon would need n - 1 = 1999 rounds.
            assert!(
                r.metrics.rounds < 100,
                "rounds {} not polylog",
                r.metrics.rounds
            );
            assert_eq!(r.metrics.states_finalized, 1999);
        }
    }

    #[test]
    fn valley_handles_adversarial_profiles() {
        // Equal weights: a single plateau, all combines wall-adjacent.
        let equal = vec![7u64; 256];
        let r = run_valley(&equal);
        assert_eq!(r.cost, 7 * 8 * 256);
        assert!(r.depths.iter().all(|&d| d == 8));
        // Exponentially growing: the optimal tree is a caterpillar.
        let expo: Vec<u64> = (0..40).map(|i| 1u64 << i).collect();
        let r = run_valley(&expo);
        assert_eq!(r.cost, garsia_wachs(&expo).cost);
        assert!(alphabetically_realizable(&r.depths));
        // Perfect valley and mountain shapes.
        let valley: Vec<u64> = (0..50).map(|i| (50i64 - i).unsigned_abs() + 1).collect();
        let mountain: Vec<u64> = valley.iter().rev().copied().collect();
        for w in [valley, mountain] {
            let r = run_valley(&w);
            assert_eq!(r.cost, interval_dp_oat(&w), "weights {w:?}");
            assert!(alphabetically_realizable(&r.depths));
        }
    }

    #[test]
    fn router_picks_interval_for_tiny_and_valley_for_large() {
        let tiny = pseudo_weights(OAT_VALLEY_MIN_N - 1, 1, 100);
        match oat_cordon_auto(&tiny) {
            EitherCordon::First(_) => {}
            EitherCordon::Second(_) => panic!("tiny input must use the interval cordon"),
        }
        let big = pseudo_weights(OAT_VALLEY_MIN_N, 1, 100);
        match oat_cordon_auto(&big) {
            EitherCordon::Second(_) => {}
            EitherCordon::First(_) => panic!("large input must use the valley cordon"),
        }
        // Both arms agree with the oracle through the router entry point.
        for n in [OAT_VALLEY_MIN_N - 5, OAT_VALLEY_MIN_N + 5] {
            let w = pseudo_weights(n, 9, 64);
            assert_eq!(parallel_oat(&w).cost, interval_dp_oat(&w));
        }
    }
}
