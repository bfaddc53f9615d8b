//! Sparse Longest Common Subsequence (Sec. 3, Theorem 3.2).
//!
//! Given `A[1..n]` and `B[1..m]`, only the `L` *matching pairs* `(i, j)` with
//! `A[i] = B[j]` can contribute to the LCS (the sparsification of
//! Apostolico–Guerra / Hunt–Szymanski).  Sorting the pairs by column `i`
//! ascending and row `j` descending turns the LCS into an LIS over the `j`
//! keys of the sorted list — the "interesting finding" at the end of Sec. 3 —
//! so the same cordon/tournament-tree machinery applies:
//!
//! * [`dense_lcs`] — the classic `O(nm)` dynamic program (test oracle),
//! * [`sequential_sparse_lcs`] — Hunt–Szymanski in `O(L log n)` (the paper's
//!   sequential baseline in Fig. 6),
//! * [`parallel_sparse_lcs`] — the Cordon Algorithm: round `r` extracts every
//!   matching pair on the current cordon staircase (exactly the pairs whose
//!   LCS value is `r`) with a tournament tree; `k` rounds total, `O(L log n)`
//!   work and `O(k log n)` span.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pardp_core::{run_phase_parallel, PhaseParallel};
use pardp_parutils::{round_min_grain, Metrics, MetricsCollector};
use pardp_tournament::{reconstruct_chain, StaircaseCordon};
use rayon::prelude::*;
use std::collections::HashMap;

/// A matching pair: position `i` in the first string matches position `j` in
/// the second string (`A[i] == B[j]`, both 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatchPair {
    /// Position in the first sequence.
    pub i: u32,
    /// Position in the second sequence.
    pub j: u32,
}

/// Result of an LCS computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LcsResult {
    /// LCS length.
    pub length: u32,
    /// For the sparse algorithms: the DP value (LCS length of the prefix
    /// ending at that pair) of every matching pair, in the canonical sorted
    /// order (`i` ascending, `j` descending).  Empty for [`dense_lcs`].
    pub pair_values: Vec<u32>,
    /// Work / round counters.
    pub metrics: Metrics,
}

/// Enumerate all matching pairs of `a` and `b`, sorted by `i` ascending and
/// `j` descending (the canonical order used by the sparse algorithms).
///
/// Runs in `O(n + m + L)` expected work (hash bucketing by symbol); no sort
/// is needed.
pub fn matching_pairs<T: Eq + std::hash::Hash + Copy + Sync>(a: &[T], b: &[T]) -> Vec<MatchPair> {
    let mut positions: HashMap<T, Vec<u32>> = HashMap::new();
    for (j, &x) in b.iter().enumerate() {
        positions.entry(x).or_default().push(j as u32);
    }
    // Each bucket holds its `j`s in ascending order, so reading it in reverse
    // yields `j` descending within one `i`; `collect` keeps index order, so
    // `i` ascends across the output.
    let pairs: Vec<MatchPair> = a
        .par_iter()
        .enumerate()
        .with_min_len(round_min_grain(a.len()))
        .flat_map_iter(|(i, x)| {
            positions
                .get(x)
                .into_iter()
                .flat_map(move |js| js.iter().rev().map(move |&j| MatchPair { i: i as u32, j }))
        })
        .collect();
    debug_assert!(pairs_are_canonically_sorted(&pairs));
    pairs
}

/// Classic `O(nm)` dense LCS (the unsparsified textbook DP).  Oracle for the
/// sparse implementations and the "no-optimization" baseline.
pub fn dense_lcs<T: Eq>(a: &[T], b: &[T]) -> LcsResult {
    let metrics = MetricsCollector::new();
    let (n, m) = (a.len(), b.len());
    let mut prev = vec![0u32; m + 1];
    let mut cur = vec![0u32; m + 1];
    for i in 1..=n {
        for j in 1..=m {
            cur[j] = if a[i - 1] == b[j - 1] {
                prev[j - 1] + 1
            } else {
                prev[j].max(cur[j - 1])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    metrics.add_edges((n * m) as u64);
    metrics.add_states((n * m) as u64);
    LcsResult {
        length: prev[m],
        pair_values: Vec::new(),
        metrics: metrics.snapshot(),
    }
}

/// Hunt–Szymanski sparse LCS: processes the matching pairs in the canonical
/// order and maintains the "threshold" array with binary searches,
/// `O(L log n)` work.  Also reports the DP value of every pair.
pub fn sequential_sparse_lcs(pairs: &[MatchPair]) -> LcsResult {
    let metrics = MetricsCollector::new();
    debug_assert!(pairs_are_canonically_sorted(pairs));
    // thresholds[t] = smallest j that ends an increasing (in j) chain of
    // length t+1 seen so far.
    let mut thresholds: Vec<u32> = Vec::new();
    let mut pair_values = Vec::with_capacity(pairs.len());
    let mut probes = 0u64;
    for p in pairs {
        // Length of the longest chain ending strictly below j, plus one.
        let pos = thresholds.partition_point(|&t| {
            probes += 1;
            t < p.j
        });
        let value = pos as u32 + 1;
        if pos == thresholds.len() {
            thresholds.push(p.j);
        } else if p.j < thresholds[pos] {
            thresholds[pos] = p.j;
        }
        pair_values.push(value);
    }
    // One edge per pair, its threshold search, and one probe per threshold
    // the search compared.
    metrics.add_edges(pairs.len() as u64);
    metrics.add_probes(probes);
    metrics.add_states(pairs.len() as u64);
    LcsResult {
        length: thresholds.len() as u32,
        pair_values,
        metrics: metrics.snapshot(),
    }
}

/// Parallel sparse LCS via the Cordon Algorithm (Theorem 3.2).
///
/// The pairs must be in the canonical order (as produced by
/// [`matching_pairs`]).  Round `r` extracts every pair on the current cordon —
/// exactly the pairs with DP value `r` — using a tournament tree keyed by `j`.
pub fn parallel_sparse_lcs(pairs: &[MatchPair]) -> LcsResult {
    let metrics = MetricsCollector::new();
    let (pair_values, length) = run_phase_parallel(LcsCordon::new(pairs), &metrics);
    LcsResult {
        length,
        pair_values,
        metrics: metrics.snapshot(),
    }
}

/// [`PhaseParallel`] instance for parallel sparse LCS: one round extracts
/// every pair on the current cordon staircase (the pairs with DP value equal
/// to the round number) from a tournament tree keyed by `j`.
pub struct LcsCordon(StaircaseCordon<u32>);

impl LcsCordon {
    /// Build the tournament tree over the `j` keys of canonically sorted
    /// pairs.
    pub fn new(pairs: &[MatchPair]) -> Self {
        debug_assert!(pairs_are_canonically_sorted(pairs));
        // A pair relaxes a later pair only with a strictly smaller j (and
        // strictly smaller i, which the canonical order guarantees for smaller
        // j values on the prefix-minimum staircase), so ties do not block.
        LcsCordon(StaircaseCordon::new(pairs.len(), |first, out| {
            for (key, pair) in out.iter_mut().zip(&pairs[first..]) {
                *key = pair.j;
            }
        }))
    }
}

impl PhaseParallel for LcsCordon {
    /// Per-pair DP values plus the LCS length (rounds == length,
    /// Theorem 3.2).
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

/// Convenience wrapper: enumerate the pairs of `a` and `b` and run the
/// parallel sparse LCS.
pub fn parallel_lcs_of<T: Eq + std::hash::Hash + Copy + Sync>(a: &[T], b: &[T]) -> LcsResult {
    let pairs = matching_pairs(a, b);
    parallel_sparse_lcs(&pairs)
}

fn pairs_are_canonically_sorted(pairs: &[MatchPair]) -> bool {
    pairs
        .windows(2)
        .all(|w| (w[0].i, std::cmp::Reverse(w[0].j)) <= (w[1].i, std::cmp::Reverse(w[1].j)))
}

/// Reconstruct one LCS (as a vector of `(i, j)` index pairs) from the pair DP
/// values produced by the sparse algorithms: the chain [`reconstruct_chain`]
/// walks back from the last pair of value `length`.
pub fn reconstruct_lcs(pairs: &[MatchPair], values: &[u32], length: u32) -> Vec<MatchPair> {
    assert_eq!(pairs.len(), values.len());
    reconstruct_chain(values, length, |p, q| {
        pairs[p].i < pairs[q].i && pairs[p].j < pairs[q].j
    })
    .into_iter()
    .map(|p| pairs[p])
    .collect()
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
    fn hand_checked_small_case() {
        let a = b"ABCBDAB".to_vec();
        let b = b"BDCABA".to_vec();
        // LCS is "BCBA" or "BDAB": length 4.
        assert_eq!(dense_lcs(&a, &b).length, 4);
        let pairs = matching_pairs(&a, &b);
        assert_eq!(sequential_sparse_lcs(&pairs).length, 4);
        assert_eq!(parallel_sparse_lcs(&pairs).length, 4);
    }

    #[test]
    fn lis_reduction_from_paper_figure2() {
        // The LIS instance of Fig. 2 as an LCS: A = permutation, B = identity.
        let a: Vec<u8> = vec![7, 3, 6, 8, 1, 4, 2, 5];
        let b: Vec<u8> = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let pairs = matching_pairs(&a, &b);
        assert_eq!(pairs.len(), 8); // L = n for a permutation
        let r = parallel_sparse_lcs(&pairs);
        assert_eq!(r.length, 3);
        assert_eq!(r.metrics.rounds, 3);
    }

    #[test]
    fn all_algorithms_agree_on_random_strings() {
        for seed in 0..8 {
            for &alpha in &[2u64, 4, 16, 64] {
                let a = pseudo_string(120, seed, alpha);
                let b = pseudo_string(140, seed + 100, alpha);
                let want = dense_lcs(&a, &b).length;
                let pairs = matching_pairs(&a, &b);
                let seq = sequential_sparse_lcs(&pairs);
                let par = parallel_sparse_lcs(&pairs);
                assert_eq!(seq.length, want, "seed {seed} alpha {alpha}");
                assert_eq!(par.length, want, "seed {seed} alpha {alpha}");
                assert_eq!(
                    par.pair_values, seq.pair_values,
                    "seed {seed} alpha {alpha}"
                );
            }
        }
    }

    #[test]
    fn matching_pairs_are_canonical_and_complete() {
        let a = b"ABAB".to_vec();
        let b = b"BABA".to_vec();
        let pairs = matching_pairs(&a, &b);
        assert!(pairs_are_canonically_sorted(&pairs));
        assert_eq!(pairs.len(), 8); // every A matches 2 As, every B matches 2 Bs
        for p in &pairs {
            assert_eq!(a[p.i as usize], b[p.j as usize]);
        }
    }

    #[test]
    fn identical_strings_have_full_lcs() {
        let a = pseudo_string(200, 1, 8);
        let pairs = matching_pairs(&a, &a);
        let r = parallel_sparse_lcs(&pairs);
        assert_eq!(r.length, 200);
        assert_eq!(r.metrics.rounds, 200);
    }

    #[test]
    fn disjoint_alphabets_have_empty_lcs() {
        let a = vec![1u8; 50];
        let b = vec![2u8; 60];
        let pairs = matching_pairs(&a, &b);
        assert!(pairs.is_empty());
        assert_eq!(parallel_sparse_lcs(&pairs).length, 0);
        assert_eq!(dense_lcs(&a, &b).length, 0);
    }

    #[test]
    fn pair_values_match_between_seq_and_par() {
        let a = pseudo_string(300, 9, 6);
        let b = pseudo_string(300, 10, 6);
        let pairs = matching_pairs(&a, &b);
        let seq = sequential_sparse_lcs(&pairs);
        let par = parallel_sparse_lcs(&pairs);
        assert_eq!(seq.pair_values, par.pair_values);
        // The rounds of the cordon algorithm equal the LCS length.
        assert_eq!(par.metrics.rounds, par.length as u64);
    }

    #[test]
    fn reconstruction_is_a_common_subsequence() {
        let a = pseudo_string(150, 4, 5);
        let b = pseudo_string(170, 5, 5);
        let pairs = matching_pairs(&a, &b);
        let r = parallel_sparse_lcs(&pairs);
        let chain = reconstruct_lcs(&pairs, &r.pair_values, r.length);
        assert_eq!(chain.len(), r.length as usize);
        for w in chain.windows(2) {
            assert!(w[0].i < w[1].i && w[0].j < w[1].j);
        }
        for p in &chain {
            assert_eq!(a[p.i as usize], b[p.j as usize]);
        }
    }

    #[test]
    fn reconstruction_keeps_chains_ending_at_the_key_maximum() {
        let pairs = [
            MatchPair { i: 0, j: 5 },
            MatchPair {
                i: u32::MAX,
                j: u32::MAX,
            },
        ];
        let r = parallel_sparse_lcs(&pairs);
        assert_eq!(r.length, 2);
        assert_eq!(r.pair_values, sequential_sparse_lcs(&pairs).pair_values);
        assert_eq!(reconstruct_lcs(&pairs, &r.pair_values, r.length), pairs);
    }

    #[test]
    fn empty_inputs() {
        let empty: Vec<u8> = vec![];
        let b = b"XYZ".to_vec();
        assert_eq!(dense_lcs(&empty, &b).length, 0);
        assert!(matching_pairs(&empty, &b).is_empty());
        assert_eq!(parallel_sparse_lcs(&[]).length, 0);
        assert_eq!(sequential_sparse_lcs(&[]).length, 0);
    }

    #[test]
    fn works_with_u32_alphabet() {
        let a: Vec<u32> = (0..100).map(|i| i % 10).collect();
        let b: Vec<u32> = (0..100).map(|i| (i * 3) % 10).collect();
        let want = dense_lcs(&a, &b).length;
        assert_eq!(parallel_lcs_of(&a, &b).length, want);
    }
}
