//! Longest Increasing Subsequence (Sec. 3, Theorem 3.1).
//!
//! Three implementations of the LIS recurrence
//! `D[i] = max(1, max_{j < i, A[j] < A[i]} D[j] + 1)`:
//!
//! * [`naive_lis`] — the quadratic textbook DP (test oracle / baseline),
//! * [`sequential_lis`] — the `O(n log k)` optimized algorithm, patience
//!   sorting: a binary search over the tails array (the smallest value that
//!   ends an increasing subsequence of each length) gives each element its
//!   DP value, so only `n` transitions are processed,
//! * [`parallel_lis`] — the Cordon Algorithm instantiation: in round `r` the
//!   ready states are exactly the prefix-minimum elements of the remaining
//!   sequence (their DP value is `r`), and a tournament tree extracts and
//!   removes them in `O(l log(n/l))` work per round.  This is the
//!   parallelization of \[47\] the paper derives in Sec. 3; the number of rounds
//!   equals the LIS length `k`, matching the `O(k log n)` span bound.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pardp_core::{run_phase_parallel, PhaseParallel};
use pardp_parutils::{Metrics, MetricsCollector};
use pardp_tournament::{reconstruct_chain, StaircaseCordon};

/// Result of an LIS computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LisResult {
    /// `d[i]` = length of the longest increasing subsequence ending at `i`.
    pub d: Vec<u32>,
    /// The LIS length (`max(d)`, `0` for an empty input).
    pub length: u32,
    /// Work / round counters.
    pub metrics: Metrics,
}

impl LisResult {
    /// Reconstruct one longest increasing subsequence (as indices) from the
    /// per-element DP values: the chain [`reconstruct_chain`] walks back from
    /// the last element of value `length`.
    pub fn reconstruct_indices(&self, a: &[i64]) -> Vec<usize> {
        assert_eq!(a.len(), self.d.len());
        reconstruct_chain(&self.d, self.length, |p, q| a[p] < a[q])
    }
}

/// Quadratic reference LIS.
pub fn naive_lis(a: &[i64]) -> LisResult {
    let metrics = MetricsCollector::new();
    let n = a.len();
    let mut d = vec![1u32; n];
    let mut edges = 0u64;
    for i in 0..n {
        for j in 0..i {
            edges += 1;
            if a[j] < a[i] && d[j] + 1 > d[i] {
                d[i] = d[j] + 1;
            }
        }
    }
    metrics.add_edges(edges);
    metrics.add_states(n as u64);
    let length = d.iter().copied().max().unwrap_or(0);
    LisResult {
        d,
        length,
        metrics: metrics.snapshot(),
    }
}

/// Sequential `O(n log k)` LIS by patience sorting: a binary search over the
/// tails array, the loop Hunt–Szymanski (`sequential_sparse_lcs` in
/// `pardp-lcs`) runs over the `j` keys of the matching pairs.
pub fn sequential_lis(a: &[i64]) -> LisResult {
    let metrics = MetricsCollector::new();
    // tails[t] = smallest value that ends an increasing subsequence of
    // length t + 1 seen so far.
    let mut tails: Vec<i64> = Vec::new();
    let mut d = Vec::with_capacity(a.len());
    let mut probes = 0u64;
    for &x in a {
        // Length of the longest increasing subsequence ending strictly
        // below x, plus one.
        let pos = tails.partition_point(|&t| {
            probes += 1;
            t < x
        });
        if pos == tails.len() {
            tails.push(x);
        } else {
            // tails[pos] >= x, so x ends the smallest tail of its length.
            tails[pos] = x;
        }
        d.push(pos as u32 + 1);
    }
    // One edge per element, its tails search, and one probe per tail the
    // search compared.
    metrics.add_edges(a.len() as u64);
    metrics.add_probes(probes);
    metrics.add_states(a.len() as u64);
    LisResult {
        d,
        length: tails.len() as u32,
        metrics: metrics.snapshot(),
    }
}

/// Parallel LIS via the Cordon Algorithm and a tournament tree (Theorem 3.1).
///
/// Round `r` extracts every remaining prefix-minimum element; those elements
/// all have DP value `r`.  The number of rounds equals the LIS length.
///
/// Runs [`LisCordon`] through the shared phase-parallel driver, which supplies
/// the round accounting, frontier telemetry and stall guard.
pub fn parallel_lis(a: &[i64]) -> LisResult {
    let metrics = MetricsCollector::new();
    let (d, length) = run_phase_parallel(LisCordon::new(a), &metrics);
    LisResult {
        d,
        length,
        metrics: metrics.snapshot(),
    }
}

/// [`PhaseParallel`] instance for parallel LIS: one round extracts every
/// prefix-minimum record from the tournament tree and assigns the current
/// round number as its DP value.
pub struct LisCordon(StaircaseCordon<i64>);

impl LisCordon {
    /// Build the tournament tree over the input sequence.
    pub fn new(a: &[i64]) -> Self {
        // Ties do not block: A[j] < A[i] is required for a transition, so an
        // equal element to the left does not prevent readiness.
        LisCordon(StaircaseCordon::new(a.len(), |first, out| {
            out.copy_from_slice(&a[first..first + out.len()])
        }))
    }
}

impl PhaseParallel for LisCordon {
    /// Per-element DP values plus the LIS length (rounds == length,
    /// Theorem 3.1).
    type Output = (Vec<u32>, u32);

    fn is_done(&self) -> bool {
        self.0.is_done()
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        self.0.round(metrics)
    }

    fn finish(self) -> Self::Output {
        self.0.finish()
    }

    fn round_budget(&self) -> Option<u64> {
        self.0.round_budget()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(n: usize, seed: u64, modulo: u64) -> Vec<i64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % modulo) as i64
            })
            .collect()
    }

    #[test]
    fn paper_example_figure2() {
        let a = [7i64, 3, 6, 8, 1, 4, 2, 5];
        for r in [naive_lis(&a), sequential_lis(&a), parallel_lis(&a)] {
            assert_eq!(r.d, vec![1, 1, 2, 3, 1, 2, 2, 3]);
            assert_eq!(r.length, 3);
        }
    }

    #[test]
    fn all_three_agree_on_random_inputs() {
        for seed in 0..10 {
            for &m in &[5u64, 100, 1_000_000] {
                let a = pseudo_random(300, seed, m);
                let want = naive_lis(&a);
                let seq = sequential_lis(&a);
                let par = parallel_lis(&a);
                assert_eq!(seq.d, want.d, "seed {seed} m {m}");
                assert_eq!(par.d, want.d, "seed {seed} m {m}");
                assert_eq!(par.length, want.length);
            }
        }
    }

    #[test]
    fn sorted_and_reverse_sorted() {
        let inc: Vec<i64> = (0..500).collect();
        assert_eq!(parallel_lis(&inc).length, 500);
        assert_eq!(sequential_lis(&inc).length, 500);
        let dec: Vec<i64> = (0..500).rev().collect();
        let r = parallel_lis(&dec);
        assert_eq!(r.length, 1);
        assert_eq!(r.metrics.rounds, 1, "a decreasing input needs one round");
    }

    #[test]
    fn duplicates_are_not_increasing() {
        let a = vec![5i64; 100];
        for r in [naive_lis(&a), sequential_lis(&a), parallel_lis(&a)] {
            assert_eq!(r.length, 1);
        }
    }

    #[test]
    fn rounds_equal_lis_length() {
        for seed in 0..5 {
            let a = pseudo_random(1000, seed, 10_000);
            let r = parallel_lis(&a);
            assert_eq!(r.metrics.rounds, r.length as u64);
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(parallel_lis(&[]).length, 0);
        assert_eq!(sequential_lis(&[]).length, 0);
        assert_eq!(naive_lis(&[]).length, 0);
        let one = [42i64];
        assert_eq!(parallel_lis(&one).length, 1);
        assert_eq!(parallel_lis(&one).d, vec![1]);
    }

    #[test]
    fn reconstruction_is_a_valid_lis() {
        for seed in 0..5 {
            let a = pseudo_random(200, seed, 500);
            let r = parallel_lis(&a);
            let idx = r.reconstruct_indices(&a);
            assert_eq!(idx.len(), r.length as usize);
            for w in idx.windows(2) {
                assert!(w[0] < w[1]);
                assert!(a[w[0]] < a[w[1]]);
            }
        }
    }

    #[test]
    fn reconstruction_keeps_chains_ending_at_the_key_maximum() {
        for (a, want) in [
            (vec![3, i64::MAX], vec![0, 1]),
            (vec![i64::MAX - 1, i64::MAX, i64::MAX], vec![0, 2]),
            (vec![i64::MIN, i64::MAX], vec![0, 1]),
        ] {
            let r = parallel_lis(&a);
            assert_eq!(r.d, naive_lis(&a).d, "{a:?}");
            assert_eq!(r.reconstruct_indices(&a), want, "{a:?}");
        }
    }

    #[test]
    fn sequential_work_is_near_linear() {
        let a = pseudo_random(20_000, 3, 1_000_000);
        let r = sequential_lis(&a);
        assert!(r.metrics.probes < 20_000 * 40);
        assert_eq!(r.metrics.edges_relaxed, 20_000);
    }

    #[test]
    fn negative_values_are_fine() {
        let a = vec![-5i64, -10, -3, 0, -1, 2];
        let want = naive_lis(&a);
        assert_eq!(parallel_lis(&a).d, want.d);
        assert_eq!(sequential_lis(&a).d, want.d);
        assert_eq!(want.length, 4); // -10, -3, 0 (or -1), 2
    }
}
