//! Optimal alphabetic codes: build an order-preserving prefix code for a
//! symbol alphabet from observed frequencies (the OAT application of
//! Sec. 5.1), and compare its cost with the entropy lower bound and with a
//! balanced (depth-⌈log n⌉) code.  The code is built twice: by the
//! sequential Garsia–Wachs algorithm and by the paper's parallel OAT
//! (Theorem 5.1), whose weight-doubling rounds stay within the Lemma 5.1
//! bound.
//!
//! Run with `cargo run --release --example alphabetic_coding -- [n]`, for an
//! alphabet of `n >= 1` symbols (64 by default).

use parallel_dp::prelude::*;
use parallel_dp::workloads;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    assert!(n >= 1, "need n >= 1: an alphabet has at least one symbol");
    let freqs = workloads::skewed_weights(n, 1 << 16, 8, 3);
    let total: u64 = freqs.iter().sum();

    let oat = garsia_wachs(&freqs);
    assert_eq!(
        oat.cost,
        knuth_obst(&freqs).cost,
        "Garsia–Wachs must be optimal"
    );
    let par = parallel_oat(&freqs);
    assert_eq!(
        par.cost, oat.cost,
        "the parallel OAT must match Garsia–Wachs"
    );
    let bound = oat_height_bound(&freqs);
    assert!(
        par.metrics.rounds <= bound as u64,
        "{} rounds exceed the Lemma 5.1 bound {bound}",
        par.metrics.rounds
    );

    let balanced_depth = (n as f64).log2().ceil() as u64;
    let balanced_cost = total * balanced_depth;
    let entropy: f64 = freqs
        .iter()
        .map(|&f| {
            // p · log₂(1/p), which reads +0 for a one-symbol alphabet.
            let p = f as f64 / total as f64;
            p * (total as f64 / f as f64).log2()
        })
        .sum();

    println!("alphabet size {n}, total frequency {total}");
    println!(
        "optimal alphabetic code: {:.4} bits/symbol (tree height {}, bound {bound})",
        oat.cost as f64 / total as f64,
        oat.height,
    );
    println!(
        "parallel OAT:            same cost in {} rounds (Lemma 5.1 bound {bound}; \
         Garsia–Wachs takes {} combine steps)",
        par.metrics.rounds,
        n.saturating_sub(1)
    );
    println!(
        "balanced code:           {:.4} bits/symbol",
        balanced_cost as f64 / total as f64
    );
    println!("entropy lower bound:     {entropy:.4} bits/symbol");
    println!(
        "first five code lengths: {:?}",
        &oat.depths[..5.min(oat.depths.len())]
    );
}
