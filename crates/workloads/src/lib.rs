//! Deterministic, seeded workload generators for every experiment.
//!
//! The paper's evaluation controls two knobs per experiment: the input size
//! `n` (and `L` for sparse LCS) and the *depth* of the DP DAG — the LIS/LCS
//! length `k`, or the number of post offices in the optimal GLWS solution.
//! The generators below construct inputs whose depth is (exactly or very
//! nearly) a requested value, so the benchmark harness can sweep `k` the same
//! way Figures 6 and 7 do.  All generators are seeded with ChaCha so every
//! run, test and benchmark sees identical inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// DP recurrences read most naturally with explicit state indices.
#![allow(clippy::needless_range_loop)]

use pardp_parutils::par_sort_by_key_with;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Construct the seeded RNG used by all generators.
fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

// ---------------------------------------------------------------------------
// LIS
// ---------------------------------------------------------------------------

/// A sequence of length `n` whose LIS length is exactly `k` (requires
/// `1 <= k <= n`).
///
/// The sequence is a concatenation of `k` strictly decreasing blocks whose
/// value ranges strictly increase from block to block: any increasing
/// subsequence can use at most one element per block (so LIS ≤ k), and taking
/// one element from each block gives an increasing subsequence of length `k`.
/// Block lengths are randomized around `n / k`.
pub fn lis_with_length(n: usize, k: usize, seed: u64) -> Vec<i64> {
    assert!(k >= 1 && k <= n, "need 1 <= k <= n");
    let mut r = rng(seed);
    let boundaries = random_partition(n, k, &mut r);
    let mut out = Vec::with_capacity(n);
    let mut value_base = 0i64;
    for b in 0..k {
        let len = boundaries[b];
        // Strictly decreasing block occupying [value_base, value_base + len).
        for t in 0..len {
            out.push(value_base + (len - 1 - t) as i64);
        }
        value_base += len as i64;
    }
    debug_assert_eq!(out.len(), n);
    out
}

/// A uniformly random sequence over `0..modulus` (expected LIS length
/// `Θ(√n)` for a large modulus).
pub fn random_sequence(n: usize, modulus: i64, seed: u64) -> Vec<i64> {
    let mut r = rng(seed);
    (0..n).map(|_| r.gen_range(0..modulus)).collect()
}

// ---------------------------------------------------------------------------
// Sparse LCS (Fig. 6)
// ---------------------------------------------------------------------------

/// A sparse-LCS workload given directly as matching pairs `(i, j)` in the
/// canonical order (`i` ascending, `j` descending within equal `i`), with
/// exactly `l` pairs and LCS length exactly `k`.
///
/// This mirrors the paper's Fig. 6 setup, which controls `L` and `k` directly
/// and excludes pair-finding preprocessing from the measured time.  The `j`
/// keys follow the same k-block construction as [`lis_with_length`]; the `i`
/// keys are strictly increasing so each pair sits in its own column.
pub fn lcs_pairs_with(l: usize, k: usize, seed: u64) -> Vec<(u32, u32)> {
    assert!(k >= 1 && k <= l, "need 1 <= k <= l");
    let js = lis_with_length(l, k, seed);
    js.into_iter()
        .enumerate()
        .map(|(i, j)| (i as u32, j as u32))
        .collect()
}

// ---------------------------------------------------------------------------
// GLWS / post office (Fig. 7)
// ---------------------------------------------------------------------------

/// A post-office instance (village coordinates plus opening cost) whose
/// optimal solution uses exactly `k` post offices.
///
/// Villages form `k` tight clusters (intra-cluster gaps of 1 or 2) separated
/// by wide gaps.  The opening cost is chosen above the largest possible
/// saving from splitting a cluster and far below the cost of spanning an
/// inter-cluster gap, so the optimum places exactly one office per cluster.
pub fn post_office_instance(n: usize, k: usize, seed: u64) -> PostOfficeInstance {
    assert!(k >= 1 && k <= n, "need 1 <= k <= n");
    let mut r = rng(seed);
    let sizes = random_partition(n, k, &mut r);
    // analyze: allow(no-panics): `random_partition(n, k)` returns exactly
    // `k >= 1` sizes (asserted above), so the max exists.
    let max_cluster = *sizes.iter().max().unwrap();
    // Largest possible intra-cluster span (gap at most 2 per step).
    let max_span = 2 * max_cluster as i64;
    let open_cost = max_span * max_span + 1;
    let cluster_gap = 4 * max_span + 4; // gap² dwarfs open_cost + spans
    let mut coords = Vec::with_capacity(n);
    let mut x = 0i64;
    for (c, &len) in sizes.iter().enumerate() {
        if c > 0 {
            x += cluster_gap;
        }
        for _ in 0..len {
            x += r.gen_range(1..=2);
            coords.push(x);
        }
    }
    PostOfficeInstance {
        coords,
        open_cost,
        clusters: k,
    }
}

/// Output of [`post_office_instance`].
#[derive(Debug, Clone)]
pub struct PostOfficeInstance {
    /// Sorted village coordinates.
    pub coords: Vec<i64>,
    /// Opening cost per post office.
    pub open_cost: i64,
    /// Number of clusters (the intended optimal number of offices).
    pub clusters: usize,
}

// ---------------------------------------------------------------------------
// OAT / OBST
// ---------------------------------------------------------------------------

/// Random positive integer leaf weights in `1..=max_weight` (OAT and OBST
/// workloads; bounded weights keep the OAT height logarithmic per Lemma 5.1).
pub fn positive_weights(n: usize, max_weight: u64, seed: u64) -> Vec<u64> {
    let mut r = rng(seed);
    (0..n).map(|_| r.gen_range(1..=max_weight.max(1))).collect()
}

/// Heavily skewed weights (Zipf-like): weight of the `i`-th leaf is
/// `max_weight / (1 + (i % period))`, shuffled.  Produces deeper optimal trees
/// than uniform weights.
pub fn skewed_weights(n: usize, max_weight: u64, period: usize, seed: u64) -> Vec<u64> {
    use rand::seq::SliceRandom;
    let mut r = rng(seed);
    let mut w: Vec<u64> = (0..n)
        .map(|i| (max_weight / (1 + (i % period.max(1)) as u64)).max(1))
        .collect();
    w.shuffle(&mut r);
    w
}

/// Equal weights: the OAT degenerates to a balanced tree and every
/// Garsia–Wachs combine is wall-adjacent — the adversarial profile for the
/// valley cordon's parallel phase (everything falls to the sequential sweep).
pub fn equal_weights(n: usize, weight: u64) -> Vec<u64> {
    vec![weight.max(1); n]
}

/// Exponentially growing weights `base^(i mod cap)` (capped to avoid
/// overflow): the optimal alphabetic tree is a caterpillar, the deepest shape
/// Lemma 5.1 admits for the weight range.
pub fn exponential_weights(n: usize, base: u64, cap: u32) -> Vec<u64> {
    let base = base.max(2);
    // Cap the exponent so the total weight stays far below u64::MAX.
    let log2_base = (63 - base.leading_zeros()).max(1);
    let cap = cap.clamp(1, (50 / log2_base).max(1));
    (0..n).map(|i| base.pow(i as u32 % cap)).collect()
}

/// A single-valley weight profile: random weights sorted descending on the
/// left half and ascending on the right — one local minimum, two long
/// monotone slopes.  Sorting goes through the reusable-scratch parallel sort
/// ([`pardp_parutils::par_sort_by_key_with`]); both halves share one scratch.
pub fn valley_weights(n: usize, max_weight: u64, seed: u64) -> Vec<u64> {
    let mut w = positive_weights(n, max_weight, seed);
    let mid = n / 2;
    let mut scratch = Vec::new();
    let (left, right) = w.split_at_mut(mid);
    par_sort_by_key_with(left, &mut scratch, |&x| core::cmp::Reverse(x));
    par_sort_by_key_with(right, &mut scratch, |&x| x);
    w
}

/// A single-mountain weight profile (the reverse of [`valley_weights`]):
/// ascending then descending, so every proper valley sits at the ends.
pub fn mountain_weights(n: usize, max_weight: u64, seed: u64) -> Vec<u64> {
    let mut w = valley_weights(n, max_weight, seed);
    w.reverse();
    w
}

// ---------------------------------------------------------------------------
// GAP edit distance
// ---------------------------------------------------------------------------

/// Two strings for the GAP problem: a base string of length `n` and a mutated
/// copy of length about `m`, produced by deleting blocks and substituting
/// symbols, so realistic block indels dominate (the workload GAP costs model).
pub fn gap_strings(n: usize, m: usize, alphabet: u8, seed: u64) -> (Vec<u8>, Vec<u8>) {
    assert!(alphabet >= 2);
    let mut r = rng(seed);
    let a: Vec<u8> = (0..n).map(|_| r.gen_range(0..alphabet)).collect();
    // Derive b from a: copy with block deletions and occasional substitutions,
    // then pad/truncate to m.
    let mut b = Vec::with_capacity(m);
    let mut idx = 0usize;
    while idx < n && b.len() < m {
        if r.gen_ratio(1, 20) {
            // Delete a block of up to 8 symbols.
            idx += r.gen_range(1..=8);
            continue;
        }
        let mut c = a[idx];
        if r.gen_ratio(1, 15) {
            c = r.gen_range(0..alphabet);
        }
        b.push(c);
        idx += 1;
    }
    while b.len() < m {
        b.push(r.gen_range(0..alphabet));
    }
    b.truncate(m);
    (a, b)
}

// ---------------------------------------------------------------------------
// Trees (Tree-GLWS)
// ---------------------------------------------------------------------------

/// A random rooted tree on `n + 1` nodes (node 0 is the root) given as a
/// parent array: `parent[v]` for `v in 1..=n`, with `parent[v] < v`.
///
/// `chain_bias` in `0..=100` controls the shape: 100 yields a path (maximum
/// depth), 0 yields an almost-star (minimum depth).
pub fn random_tree(n: usize, chain_bias: u32, seed: u64) -> Vec<usize> {
    assert!(chain_bias <= 100);
    let mut r = rng(seed);
    let mut parent = vec![0usize; n + 1];
    for v in 1..=n {
        parent[v] = if v == 1 || r.gen_range(0..100) < chain_bias {
            v - 1
        } else {
            r.gen_range(0..v)
        };
    }
    parent
}

/// Edge lengths for a tree given as a parent array (positive integers).
pub fn tree_edge_lengths(n: usize, max_len: u64, seed: u64) -> Vec<u64> {
    let mut r = rng(seed);
    (0..=n).map(|_| r.gen_range(1..=max_len.max(1))).collect()
}

/// A path on `n + 1` nodes: the deepest tree shape (`h = n`), where the
/// baseline Tree-GLWS cordon degenerates to quadratic work.
pub fn path_tree(n: usize) -> Vec<usize> {
    (0..=n).map(|v| v.saturating_sub(1)).collect()
}

/// A star on `n + 1` nodes: the shallowest tree shape (`h = 1`), a single
/// one-frontier cordon round.
pub fn star_tree(n: usize) -> Vec<usize> {
    vec![0; n + 1]
}

/// A caterpillar: a spine path of `spine` nodes with the remaining `n - spine`
/// leg leaves attached to random spine nodes.  Depth ≈ `spine` with wide
/// frontiers along the way — the adversarial shape for ancestor rescans
/// (`h ≈ n` with many nodes per level).
pub fn caterpillar_tree(n: usize, spine: usize, seed: u64) -> Vec<usize> {
    assert!(spine >= 1 && spine <= n, "need 1 <= spine <= n");
    let mut r = rng(seed);
    let mut parent = vec![0usize; n + 1];
    for v in 1..=spine {
        parent[v] = v - 1;
    }
    for v in spine + 1..=n {
        parent[v] = r.gen_range(1..=spine);
    }
    parent
}

/// A complete `arity`-ary tree on `n + 1` nodes in level order
/// (`h = Θ(log n)`, geometrically growing frontiers).
pub fn balanced_tree(n: usize, arity: usize) -> Vec<usize> {
    assert!(arity >= 2, "need arity >= 2");
    (0..=n).map(|v| v.saturating_sub(1) / arity).collect()
}

/// A random-attachment (recursive) tree: every node picks a uniformly random
/// earlier node as its parent, giving expected height `Θ(log n)`.
pub fn random_attachment_tree(n: usize, seed: u64) -> Vec<usize> {
    let mut r = rng(seed);
    let mut parent = vec![0usize; n + 1];
    for v in 2..=n {
        parent[v] = r.gen_range(0..v);
    }
    parent
}

/// Edge height of a tree given as a parent array (0 for a lone root), the
/// round count of the depth-frontier Tree-GLWS cordons.  Asserts the
/// `parent[v] < v` invariant every generator above guarantees.
pub fn tree_height(parent: &[usize]) -> usize {
    let mut depth = vec![0usize; parent.len()];
    let mut h = 0;
    for v in 1..parent.len() {
        assert!(parent[v] < v, "parents must precede children");
        depth[v] = depth[parent[v]] + 1;
        h = h.max(depth[v]);
    }
    h
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Split `n` items into `k` non-empty parts of random sizes.
fn random_partition(n: usize, k: usize, r: &mut ChaCha8Rng) -> Vec<usize> {
    debug_assert!(k >= 1 && k <= n);
    let base = n / k;
    let mut sizes = vec![base; k];
    let mut extra = n - base * k;
    while extra > 0 {
        let idx = r.gen_range(0..k);
        sizes[idx] += 1;
        extra -= 1;
    }
    // Jitter sizes while keeping all parts non-empty and the total fixed.
    for _ in 0..k {
        let a = r.gen_range(0..k);
        let b = r.gen_range(0..k);
        if a != b && sizes[a] > 1 {
            sizes[a] -= 1;
            sizes[b] += 1;
        }
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lis_workload_has_exact_length() {
        for &(n, k) in &[(10usize, 1usize), (10, 10), (100, 7), (1000, 33)] {
            let a = lis_with_length(n, k, 42);
            assert_eq!(a.len(), n);
            assert_eq!(lis_length_oracle(&a), k, "n {n} k {k}");
        }
    }

    #[test]
    fn lis_workload_is_deterministic() {
        assert_eq!(lis_with_length(500, 20, 7), lis_with_length(500, 20, 7));
        assert_ne!(lis_with_length(500, 20, 7), lis_with_length(500, 20, 8));
    }

    #[test]
    fn lcs_pairs_are_canonical_with_exact_k() {
        let pairs = lcs_pairs_with(300, 12, 3);
        assert_eq!(pairs.len(), 300);
        for w in pairs.windows(2) {
            assert!(w[0].0 < w[1].0, "i must be strictly increasing here");
        }
        let js: Vec<i64> = pairs.iter().map(|p| p.1 as i64).collect();
        assert_eq!(lis_length_oracle(&js), 12);
    }

    #[test]
    fn post_office_instance_is_sorted_with_k_clusters() {
        let inst = post_office_instance(200, 9, 11);
        assert_eq!(inst.coords.len(), 200);
        assert!(inst.coords.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(inst.clusters, 9);
        // The gap structure: exactly k-1 gaps larger than the open-cost scale.
        let big_gaps = inst.coords.windows(2).filter(|w| w[1] - w[0] > 2).count();
        assert_eq!(big_gaps, 8);
    }

    #[test]
    fn gap_strings_have_requested_lengths() {
        let (a, b) = gap_strings(400, 350, 4, 9);
        assert_eq!(a.len(), 400);
        assert_eq!(b.len(), 350);
        assert!(a.iter().all(|&c| c < 4));
        assert!(b.iter().all(|&c| c < 4));
    }

    #[test]
    fn random_tree_parents_are_valid() {
        for bias in [0u32, 50, 100] {
            let parent = random_tree(300, bias, 3);
            assert_eq!(parent.len(), 301);
            for v in 1..=300usize {
                assert!(parent[v] < v);
            }
        }
        // Full chain bias gives a path.
        let chain = random_tree(50, 100, 1);
        for v in 1..=50usize {
            assert_eq!(chain[v], v - 1);
        }
    }

    #[test]
    fn tree_shapes_have_expected_heights() {
        assert_eq!(tree_height(&path_tree(100)), 100);
        assert_eq!(tree_height(&star_tree(100)), 1);
        let cat = caterpillar_tree(200, 80, 7);
        assert_eq!(cat.len(), 201);
        let ch = tree_height(&cat);
        assert!(
            (80..=81).contains(&ch),
            "caterpillar height {ch} should track its spine"
        );
        let bal = balanced_tree(1000, 4);
        assert!(
            tree_height(&bal) <= 6,
            "4-ary tree on 1001 nodes is shallow"
        );
        let ra = random_attachment_tree(10_000, 3);
        let rh = tree_height(&ra);
        assert!(rh <= 64, "random attachment height {rh} should be Θ(log n)");
        // Determinism.
        assert_eq!(caterpillar_tree(200, 80, 7), caterpillar_tree(200, 80, 7));
        assert_eq!(
            random_attachment_tree(500, 9),
            random_attachment_tree(500, 9)
        );
        assert_ne!(
            random_attachment_tree(500, 9),
            random_attachment_tree(500, 10)
        );
    }

    #[test]
    fn weights_are_positive_and_bounded() {
        let w = positive_weights(1000, 1 << 20, 4);
        assert!(w.iter().all(|&x| (1..=1 << 20).contains(&x)));
        let s = skewed_weights(1000, 1 << 20, 64, 4);
        assert_eq!(s.len(), 1000);
        assert!(s.iter().all(|&x| x >= 1));
    }

    #[test]
    fn oat_weight_profiles_have_their_shapes() {
        let eq = equal_weights(100, 7);
        assert!(eq.iter().all(|&x| x == 7));
        let ex = exponential_weights(100, 2, 40);
        assert_eq!(ex[0], 1);
        assert_eq!(ex[39], 1 << 39);
        assert_eq!(ex[40], 1, "exponent wraps at the cap");
        // Large-base exponents are clamped to keep totals far from overflow.
        let big = exponential_weights(64, 1 << 25, 60);
        assert!(big.iter().all(|&x| x < 1 << 51));
        let v = valley_weights(5000, 1 << 20, 3);
        assert_eq!(v.len(), 5000);
        assert!(
            v[..2500].windows(2).all(|w| w[0] >= w[1]),
            "left slope descends"
        );
        assert!(
            v[2500..].windows(2).all(|w| w[0] <= w[1]),
            "right slope ascends"
        );
        let m = mountain_weights(5000, 1 << 20, 3);
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(m, rev);
        // Determinism across calls (the shared-scratch sort is stable).
        assert_eq!(v, valley_weights(5000, 1 << 20, 3));
    }

    #[test]
    fn partition_is_exact_and_nonempty() {
        let mut r = rng(123);
        for &(n, k) in &[(10usize, 3usize), (1000, 1), (1000, 999), (57, 57)] {
            let parts = random_partition(n, k, &mut r);
            assert_eq!(parts.len(), k);
            assert_eq!(parts.iter().sum::<usize>(), n);
            assert!(parts.iter().all(|&p| p >= 1));
        }
    }

    // -- small oracles used only by these tests ---------------------------

    fn lis_length_oracle(a: &[i64]) -> usize {
        let mut tails: Vec<i64> = Vec::new();
        for &x in a {
            let pos = tails.partition_point(|&t| t < x);
            if pos == tails.len() {
                tails.push(x);
            } else {
                tails[pos] = x;
            }
        }
        tails.len()
    }
}
