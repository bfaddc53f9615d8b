//! Polylog-round OAT construction (Theorem 5.1): weight-doubling combine
//! rounds over the ascending runs of the current sequence.
//!
//! The interval DP needs `n - 1` rounds, one per diagonal of the Knuth
//! table (`pardp-obst`'s diagonal cordon).  Theorem 5.1 instead
//! parallelizes the Garsia–Wachs *combine* process itself (Appendix A): the
//! weight sequence falls into **valleys** around its local minima, bounded
//! by larger elements (walls), and combines in different valleys are
//! independent because a combined package is reinserted before the nearest
//! larger element, which never crosses a wall that exceeds the package
//! weight.
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
//!    The same sweep with no threshold is [`crate::garsia_wachs`].
//!
//! After a round no 2-sum is below `T`, so the number of rounds is at most
//! `log₂(total weight) + O(1)` — within the Lemma 5.1 budget
//! [`crate::oat_height_bound`], and *polylogarithmic* in `n` for word-sized
//! weights, versus the interval DP's `n - 1`.  Every combine is a bona
//! fide locally-minimal-pair step, which Karpinski–Larmore–Rytter show may be
//! scheduled in any order, so the result is a valid Garsia–Wachs l-tree and
//! its leaf levels are optimal alphabetic-tree depths; the tests pin cost
//! equality against [`crate::garsia_wachs`] and `pardp-obst`'s Knuth interval
//! DP, plus Kraft equality and ordered realizability of the depth vector.
//!
//! A round allocates nothing.  Each run combines in place in its own slice
//! of the sequence, where a combine frees the run's two front slots and the
//! items before the reinsertion point move one slot left into them, and it
//! stages its packages in its own slice of the cordon's node buffer.  A
//! round that forks splits its run list in half at a run boundary under
//! `rayon::join`, while both halves keep [`round_min_grain`] runs.  The
//! merge then moves each run's packages and leftover items down into place.
//!
//! The paper reaches the same round bound by phrasing each valley's schedule
//! as a least-weight-subsequence instance for the parallel LWS engine of
//! `pardp-glws` (Larmore et al. \[72\]); this driver keeps the engine contract
//! (`run_phase_parallel`, metrics, stall guards, `round_budget`) but derives
//! the rounds directly from the doubling thresholds, trading the LWS oracle
//! for combine steps that are individually checkable against the sequential
//! algorithm.

use pardp_core::PhaseParallel;
use pardp_obst::{check_weights, WeightError};
use pardp_parutils::{round_min_grain, MetricsCollector};

/// Cost and per-leaf depths of an optimal alphabetic tree, the output of
/// [`ValleyOatCordon`] (the driver owns the metrics, so they are not part
/// of the instance output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OatLayout {
    /// Optimal cost `Σ a_i · depth_i`.
    pub cost: u64,
    /// Depth of every leaf in the optimal tree.
    pub depths: Vec<u32>,
}

/// An l-tree sequence element: a leaf (`enc = -(i+1)`) or a combined package
/// rooted at node `enc`.
#[derive(Debug, Clone, Copy)]
struct Item {
    weight: u64,
    enc: isize,
}

/// One maximal nondecreasing run of a round's sequence: it starts at
/// `seq[lo]` and ends where the next run starts, and its parallel phase
/// built `combines` packages.
#[derive(Debug, Clone, Copy)]
struct Run {
    lo: usize,
    combines: usize,
}

/// Replay Garsia–Wachs combines on one maximal nondecreasing run, in place.
///
/// The front pair of a sorted run is the only candidate locally minimal
/// pair; it is combined while its 2-sum is within `threshold`, the left
/// `wall` strictly exceeds the second element (the `left_ok` condition of
/// the sequential algorithm, since `wall + s1 > s1 + s2 ⇔ wall > s2`), and
/// the package reinserts before an in-run element (`x` at most the run's
/// last weight, which therefore never moves).  `right_ok` holds
/// automatically while the run has at least three items (`s1 ≤ s3 ⇔ s1 +
/// s2 ≤ s2 + s3`).  All reads are run-local or the round-start wall, so runs
/// are processed in parallel.
///
/// The `k`-th combine writes its node to `nodes[k]` and names it `first +
/// k`; the run's leftover items end up in `run[combines..]`.  Returns the
/// number of combines and the scan/insert work.
fn run_combines(
    run: &mut [Item],
    nodes: &mut [(isize, isize)],
    first: isize,
    wall: u64,
    threshold: u64,
) -> (usize, u64) {
    let mut head = 0usize;
    let mut edges = 0u64;
    while run.len() - head >= 3 {
        let s1 = run[head];
        let s2 = run[head + 1];
        let x = s1.weight + s2.weight;
        if x > threshold || wall <= s2.weight || x > run[run.len() - 1].weight {
            break;
        }
        nodes[head] = (s1.enc, s2.enc);
        // Reinsert before the first element >= x (the Garsia–Wachs rule);
        // the run is sorted, so the scan is a binary search.
        let pos = head + 2 + run[head + 2..].partition_point(|it| it.weight < x);
        edges += 1 + (run.len() - pos) as u64;
        run.copy_within(head + 2..pos, head + 1);
        run[pos - 1] = Item {
            weight: x,
            enc: first + head as isize,
        };
        head += 1;
    }
    (head, edges)
}

/// The parallel phase over `runs`, which tile `seq`: the first run starts
/// at `seq[0]`, and `nodes` is the node buffer's slice from the same offset.
/// `wall` is the weight just before the first run, and a run at `lo` names
/// its packages from `base + lo` on.  The list forks in half at a run
/// boundary only while both halves keep at least `grain` runs.  Returns the
/// scan/insert work.
fn combine_runs(
    runs: &mut [Run],
    seq: &mut [Item],
    nodes: &mut [(isize, isize)],
    wall: u64,
    base: usize,
    threshold: u64,
    grain: usize,
) -> u64 {
    let start = runs[0].lo;
    if runs.len() < 2 * grain {
        let mut wall = wall;
        let mut edges = 0;
        for i in 0..runs.len() {
            let lo = runs[i].lo - start;
            let hi = runs.get(i + 1).map_or(seq.len(), |next| next.lo - start);
            let next_wall = seq[hi - 1].weight;
            let first = (base + runs[i].lo) as isize;
            let (combines, work) =
                run_combines(&mut seq[lo..hi], &mut nodes[lo..hi], first, wall, threshold);
            runs[i].combines = combines;
            edges += work;
            wall = next_wall;
        }
        return edges;
    }
    let mid = runs.len() / 2;
    let split = runs[mid].lo - start;
    let right_wall = seq[split - 1].weight;
    let (left_runs, right_runs) = runs.split_at_mut(mid);
    let (left_seq, right_seq) = seq.split_at_mut(split);
    let (left_nodes, right_nodes) = nodes.split_at_mut(split);
    let recurse = |runs: &mut [Run], seq: &mut [Item], nodes: &mut [(isize, isize)], wall| {
        combine_runs(runs, seq, nodes, wall, base, threshold, grain)
    };
    let (left, right) = rayon::join(
        || recurse(left_runs, left_seq, left_nodes, wall),
        || recurse(right_runs, right_seq, right_nodes, right_wall),
    );
    left + right
}

/// Phase-parallel OAT cordon with polylog rounds (Theorem 5.1).
///
/// See the [module docs](self) for the round structure.  Frontier size per
/// round is the number of combines performed; the sequential sweep's
/// combines are additionally counted as `wasted` in the metrics, and the
/// number of runs per round as `probes`.
#[derive(Debug)]
pub struct ValleyOatCordon {
    weights: Vec<u64>,
    /// The total weight, checked to fit by [`ValleyOatCordon::try_new`].
    total: u64,
    seq: Vec<Item>,
    /// The l-tree's internal nodes, `(left, right)`, one slot per leaf.
    /// Every combine turns two items into one, so the first `n - seq.len()`
    /// are built; a round stages the packages of the run at `seq[lo]` from
    /// slot `n - seq.len() + lo` on.
    nodes: Vec<(isize, isize)>,
    threshold: u64,
    /// Reused per-round run list, sized for one run per leaf.
    runs: Vec<Run>,
}

impl ValleyOatCordon {
    /// Build the cordon: the leaf sequence and the buffers the rounds
    /// reuse, or the [`WeightError`] of `pardp-obst`'s [`check_weights`],
    /// whose bound covers every 2-sum, threshold and cost a round forms.
    pub fn try_new(weights: &[u64]) -> Result<Self, WeightError> {
        let total = check_weights(weights)?;
        let n = weights.len();
        let seq = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| Item {
                weight: w,
                enc: -((i as isize) + 1),
            })
            .collect();
        Ok(ValleyOatCordon {
            weights: weights.to_vec(),
            total,
            seq,
            nodes: vec![(0, 0); n],
            threshold: 0,
            runs: Vec::with_capacity(n),
        })
    }

    /// [`ValleyOatCordon::try_new`], panicking where it returns an error.
    ///
    /// # Panics
    ///
    /// Panics with the [`WeightError`] message if the weights' total, or
    /// the bound on the costs the kernels form, exceeds `u64::MAX`.
    pub fn new(weights: &[u64]) -> Self {
        match Self::try_new(weights) {
            Ok(cordon) => cordon,
            #[expect(
                clippy::panic,
                reason = "documented panicking facade over the typed \
                          `try_new` (see the `# Panics` docs above)"
            )]
            Err(err) => panic!("{err}"),
        }
    }

    /// Garsia–Wachs combines (Appendix A.1 of the paper): while one exists,
    /// combine the leftmost locally minimal pair whose 2-sum is at most
    /// `threshold` into a package `x`, and reinsert `x` before the first
    /// later element `>= x`.  With `u64::MAX` the leftmost minimal 2-sum
    /// always qualifies, so one item is left.  A combine at `p` moves no
    /// item before `p`, so the pairs before `p - 2` stay ineligible, and
    /// the search resumes there.  Returns the combines and the scan/insert
    /// work.
    pub(crate) fn sweep(&mut self, threshold: u64) -> (usize, u64) {
        let seq = &mut self.seq;
        let two = |s: &[Item], k: usize| s[k].weight + s[k + 1].weight;
        let first = self.weights.len() - seq.len();
        let mut built = first;
        let mut edges = 0u64;
        let mut cursor = 0usize;
        while seq.len() >= 2 {
            let last = seq.len() - 2;
            let mut found = None;
            let mut k = cursor;
            while k <= last {
                edges += 1;
                let s = two(seq, k);
                if s <= threshold {
                    let left_ok = k == 0 || two(seq, k - 1) > s;
                    let right_ok = k == last || s <= two(seq, k + 1);
                    if left_ok && right_ok {
                        found = Some(k);
                        break;
                    }
                }
                k += 1;
            }
            let Some(p) = found else { break };
            let x = two(seq, p);
            self.nodes[built] = (seq[p].enc, seq[p + 1].enc);
            let enc = built as isize;
            built += 1;
            seq.drain(p..=p + 1);
            let mut q = p;
            while q < seq.len() && seq[q].weight < x {
                edges += 1;
                q += 1;
            }
            seq.insert(q, Item { weight: x, enc });
            cursor = p.saturating_sub(2);
        }
        (built - first, edges)
    }
}

/// Frozen alias for [`ValleyOatCordon::new`], kept only because perfbench
/// calls it; ROADMAP direction 8 moves perfbench off it.
pub fn oat_cordon_auto(weights: &[u64]) -> ValleyOatCordon {
    ValleyOatCordon::new(weights)
}

impl PhaseParallel for ValleyOatCordon {
    type Output = OatLayout;

    fn is_done(&self) -> bool {
        self.seq.len() <= 1
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        let n_now = self.seq.len();
        debug_assert!(n_now >= 2);

        // Threshold: at least double, and at least the smallest current
        // 2-sum rounded up to a power of two (or to `u64::MAX` past 2^63), so
        // >= 1 pair is always eligible.
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
        let floor = min_sum.checked_next_power_of_two().unwrap_or(u64::MAX);
        self.threshold = (self.threshold.saturating_mul(2)).max(floor);
        let t = self.threshold;

        // Maximal nondecreasing runs (the ascending valley slopes), listed in
        // the reused run buffer.
        self.runs.clear();
        self.runs.push(Run { lo: 0, combines: 0 });
        for p in 1..n_now {
            if self.seq[p].weight < self.seq[p - 1].weight {
                self.runs.push(Run { lo: p, combines: 0 });
            }
        }
        metrics.add_edges(2 * n_now as u64); // min-sum scan + run partition
        metrics.add_probes(self.runs.len() as u64);

        // Parallel phase: independent Garsia–Wachs combines per run.
        let base = self.weights.len() - n_now;
        let grain = round_min_grain(self.runs.len());
        let edges = combine_runs(
            &mut self.runs,
            &mut self.seq,
            &mut self.nodes[base..],
            u64::MAX,
            base,
            t,
            grain,
        );
        metrics.add_edges(edges);

        // Merge: move each run's packages down behind the built nodes and
        // its leftover items down behind the merged sequence, renaming the
        // packages it staged from `base + lo` to their final slots.
        let mut built = base;
        let mut len = 0;
        for (i, run) in self.runs.iter().enumerate() {
            let hi = self.runs.get(i + 1).map_or(n_now, |next| next.lo);
            let shift = (base + run.lo - built) as isize;
            let rename = |enc: isize| {
                if enc >= base as isize {
                    enc - shift
                } else {
                    enc
                }
            };
            for k in 0..run.combines {
                let (l, r) = self.nodes[base + run.lo + k];
                self.nodes[built + k] = (rename(l), rename(r));
            }
            built += run.combines;
            for p in run.lo + run.combines..hi {
                let it = self.seq[p];
                self.seq[len] = Item {
                    weight: it.weight,
                    enc: rename(it.enc),
                };
                len += 1;
            }
        }
        self.seq.truncate(len);
        let combines = built - base;

        // Sequential sweep: remaining eligible locally minimal pairs —
        // wall-adjacent fronts and packages escaping their run.  Counted as
        // wasted (work the parallel phase could not take).
        let (swept, edges) = self.sweep(t);
        metrics.add_edges(edges);
        metrics.add_wasted(swept as u64);

        combines + swept
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
                    let (l, r) = self.nodes[enc as usize];
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
        let bits = 64 - self.total.leading_zeros() as u64;
        Some((n - 1).min(bits + 4))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{garsia_wachs, oat_height_bound, parallel_oat};
    use pardp_obst::knuth_obst;

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
                let got = parallel_oat(&w);
                let gw = garsia_wachs(&w);
                assert_eq!(got.cost, gw.cost, "n {n} seed {seed} weights {w:?}");
                assert_eq!(got.cost, knuth_obst(&w).cost, "n {n} seed {seed}");
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
            let r = parallel_oat(&w);
            assert_eq!(r.cost, garsia_wachs(&w).cost);
            let bound = oat_height_bound(&w) as u64;
            assert!(
                r.metrics.rounds <= bound,
                "rounds {} exceed the Lemma 5.1 budget {bound}",
                r.metrics.rounds
            );
            // The interval DP would need n - 1 = 1999 rounds.
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
        let r = parallel_oat(&equal);
        assert_eq!(r.cost, 7 * 8 * 256);
        assert!(r.depths.iter().all(|&d| d == 8));
        // Exponentially growing: the optimal tree is a caterpillar.
        let expo: Vec<u64> = (0..40).map(|i| 1u64 << i).collect();
        let r = parallel_oat(&expo);
        assert_eq!(r.cost, garsia_wachs(&expo).cost);
        assert!(alphabetically_realizable(&r.depths));
        // Perfect valley and mountain shapes.
        let valley: Vec<u64> = (0..50).map(|i| (50i64 - i).unsigned_abs() + 1).collect();
        let mountain: Vec<u64> = valley.iter().rev().copied().collect();
        for w in [valley, mountain] {
            let r = parallel_oat(&w);
            assert_eq!(r.cost, knuth_obst(&w).cost, "weights {w:?}");
            assert!(alphabetically_realizable(&r.depths));
        }
    }

    #[test]
    fn split_run_lists_combine_like_one_grain() {
        // The first round's parallel phase, once as one grain and once split
        // down to single runs (`rayon::join` runs inline at one thread, so
        // this takes the split path on any host).
        for seed in 0..6 {
            let w = pseudo_weights(500, seed, 1 << 12);
            let cordon = ValleyOatCordon::new(&w);
            let mut runs = vec![Run { lo: 0, combines: 0 }];
            runs.extend(
                (1..w.len())
                    .filter(|&p| w[p] < w[p - 1])
                    .map(|lo| Run { lo, combines: 0 }),
            );
            let phase = |grain: usize| {
                let (mut runs, mut seq, mut nodes) =
                    (runs.clone(), cordon.seq.clone(), cordon.nodes.clone());
                let edges =
                    combine_runs(&mut runs, &mut seq, &mut nodes, u64::MAX, 0, 1 << 13, grain);
                let items: Vec<(u64, isize)> = seq.iter().map(|it| (it.weight, it.enc)).collect();
                let combines: Vec<usize> = runs.iter().map(|run| run.combines).collect();
                (edges, items, nodes, combines)
            };
            let one_grain = phase(runs.len());
            assert!(
                one_grain.3.iter().sum::<usize>() > 0,
                "seed {seed}: no combine"
            );
            assert_eq!(phase(1), one_grain, "seed {seed}");
        }
    }
}
