//! Sequence-comparison workloads from the paper's motivation: sparse LCS for
//! similarity and the GAP recurrence for block-indel alignment of two DNA-like
//! strings (Sec. 3 and Sec. 5.2).
//!
//! Run with `cargo run --release --example dna_alignment -- [n]`.

use parallel_dp::lcs::dense_lcs;
use parallel_dp::prelude::*;
use parallel_dp::workloads;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);

    // Two related DNA-like strings (alphabet {A,C,G,T} = 4 symbols).
    let (a, b) = workloads::gap_strings(n, n - n / 20, 4, 7);

    // Sparse LCS similarity.  Over four letters each column holds about
    // |B| / 4 matches, so from n of a few hundred on most of the
    // tournament's 64-leaf groups are runs.
    let pairs = matching_pairs(&a, &b);
    let lcs = parallel_sparse_lcs(&pairs);
    let hunt_szymanski = sequential_sparse_lcs(&pairs);
    assert_eq!(lcs.length, hunt_szymanski.length);
    assert_eq!(lcs.pair_values, hunt_szymanski.pair_values);
    println!(
        "strings: |A| = {}, |B| = {}, matching pairs L = {}",
        a.len(),
        b.len(),
        pairs.len()
    );
    println!(
        "LCS length = {} ({:.1}% of |B|), cordon rounds = {}",
        lcs.length,
        100.0 * lcs.length as f64 / b.len() as f64,
        lcs.metrics.rounds
    );
    println!(
        "cordon pair values == Hunt–Szymanski's on all {} pairs",
        pairs.len()
    );

    // GAP alignment with a convex (affine + quadratic) block-deletion penalty:
    // Theorem 5.2's packed cordon against Γ_gap.
    let small = 600.min(n);
    let (sa, sb) = (&a[..small], &b[..small.min(b.len())]);
    let inst = convex_gap_instance(sa, sb, 12, 1, 1);
    let packed = parallel_gap(&inst);
    let seq = sequential_gap(&inst);
    assert_eq!(packed.d, seq.d);
    assert!(packed.metrics.rounds <= (sa.len() + sb.len()) as u64);
    println!(
        "GAP alignment cost of the first {small} characters = {} (packed == Γ_gap)",
        packed.cost
    );
    println!(
        "GAP packed rounds = {} (effective depth) vs grid depth n + m = {}",
        packed.metrics.rounds,
        sa.len() + sb.len()
    );

    // Cross-check the sparse LCS against the dense quadratic DP on a prefix.
    let check = 800.min(a.len()).min(b.len());
    let dense = dense_lcs(&a[..check], &b[..check]);
    let sparse = parallel_lcs_of(&a[..check], &b[..check]);
    assert_eq!(dense.length, sparse.length);
    println!("dense-DP cross-check on a {check}-character prefix: OK");
}
