//! Property-based tests (proptest): the parallel cordon algorithms agree with
//! their naive oracles on arbitrary inputs, and structural invariants hold.

use parallel_dp::gap::naive_gap;
use parallel_dp::glws::{naive_glws, naive_kglws};
use parallel_dp::lcs::{dense_lcs, reconstruct_lcs};
use parallel_dp::lis::naive_lis;
use parallel_dp::obst::naive_obst;
use parallel_dp::prelude::*;
use parallel_dp::treedp::naive_tree_glws;
use proptest::prelude::*;

/// LIS values at both ends of `i64`: the tournament tree reserves `i64::MAX`
/// as its empty-slot sentinel, so these exercise its key remap.
const KEY_LIMITS: [i64; 8] = [
    i64::MIN,
    i64::MIN + 1,
    -1,
    0,
    1,
    i64::MAX - 2,
    i64::MAX - 1,
    i64::MAX,
];

/// Pair coordinates for the reconstruction property: small values and both
/// ends of `u32`, so some chains end at `(u32::MAX, u32::MAX)`.
const PAIR_COORDS: [u32; 8] = [0, 1, 2, 3, 5, 8, u32::MAX - 1, u32::MAX];

/// The backward scan `LisResult::reconstruct_indices` ran before its
/// values-first walk, kept as the walk's oracle: the last position of each
/// level, from the top down, that lies below the element taken after it.
fn lis_chain_by_scan(a: &[i64], d: &[u32], length: u32) -> Vec<usize> {
    let mut out = Vec::new();
    let mut need = length;
    let mut upper: Option<i64> = None;
    for i in (0..a.len()).rev() {
        if need == 0 {
            break;
        }
        if d[i] == need && upper.is_none_or(|u| a[i] < u) {
            out.push(i);
            upper = Some(a[i]);
            need -= 1;
        }
    }
    out.reverse();
    out
}

/// The backward scan `reconstruct_lcs` ran before its values-first walk,
/// kept as the walk's oracle.
fn lcs_chain_by_scan(pairs: &[MatchPair], values: &[u32], length: u32) -> Vec<MatchPair> {
    let mut out = Vec::new();
    let mut need = length;
    let mut last: Option<MatchPair> = None;
    for idx in (0..pairs.len()).rev() {
        if need == 0 {
            break;
        }
        let p = pairs[idx];
        if values[idx] == need && last.is_none_or(|q| p.i < q.i && p.j < q.j) {
            out.push(p);
            last = Some(p);
            need -= 1;
        }
    }
    out.reverse();
    out
}

/// `values` with level `at % 8` written at position `at / 8 % len` for each
/// `at` in `splices`: wrong levels, which the walk meets before the true
/// chain element and whose dominance check it must fail.
fn spliced(values: &[u32], splices: &[usize]) -> Vec<u32> {
    let mut out = values.to_vec();
    if !out.is_empty() {
        for &at in splices {
            let len = out.len();
            out[at / 8 % len] = (at % 8) as u32;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_chain_walks_match_the_backward_scan(
        picks in prop::collection::vec(0usize..KEY_LIMITS.len() + 40, 0..200),
        pair_picks in prop::collection::vec(0usize..PAIR_COORDS.len().pow(2), 0..60),
        splices in prop::collection::vec(0usize..8_000, 0..8),
    ) {
        // LIS keys: the key limits and small values, so chains may end at
        // `i64::MAX`.
        let a: Vec<i64> = picks
            .iter()
            .map(|&p| KEY_LIMITS.get(p).copied().unwrap_or(p as i64 - 28))
            .collect();
        let mut lis = parallel_lis(&a);
        let chain = lis.reconstruct_indices(&a);
        prop_assert_eq!(chain.len(), lis.length as usize);
        prop_assert_eq!(&chain, &lis_chain_by_scan(&a, &lis.d, lis.length));
        lis.d = spliced(&lis.d, &splices);
        prop_assert_eq!(
            lis.reconstruct_indices(&a),
            lis_chain_by_scan(&a, &lis.d, lis.length)
        );

        // LCS pairs in canonical order (`i` ascending, `j` descending).
        let side = PAIR_COORDS.len();
        let mut pairs: Vec<MatchPair> = pair_picks
            .iter()
            .map(|&p| MatchPair { i: PAIR_COORDS[p / side], j: PAIR_COORDS[p % side] })
            .collect();
        pairs.sort_unstable_by_key(|p| (p.i, std::cmp::Reverse(p.j)));
        pairs.dedup();
        let lcs = parallel_sparse_lcs(&pairs);
        let chain = reconstruct_lcs(&pairs, &lcs.pair_values, lcs.length);
        prop_assert_eq!(chain.len(), lcs.length as usize);
        prop_assert_eq!(&chain, &lcs_chain_by_scan(&pairs, &lcs.pair_values, lcs.length));
        let values = spliced(&lcs.pair_values, &splices);
        prop_assert_eq!(
            reconstruct_lcs(&pairs, &values, lcs.length),
            lcs_chain_by_scan(&pairs, &values, lcs.length)
        );
    }

    #[test]
    fn prop_lis_matches_naive(values in prop::collection::vec(-1000i64..1000, 0..300)) {
        let want = naive_lis(&values);
        let par = parallel_lis(&values);
        let seq = sequential_lis(&values);
        prop_assert_eq!(&par.d, &want.d);
        prop_assert_eq!(&seq.d, &want.d);
        prop_assert_eq!(par.metrics.rounds, want.length as u64);
    }

    #[test]
    fn prop_lis_matches_naive_at_the_key_limits(
        picks in prop::collection::vec(0usize..KEY_LIMITS.len(), 0..200),
    ) {
        let values: Vec<i64> = picks.iter().map(|&p| KEY_LIMITS[p]).collect();
        let want = naive_lis(&values);
        let par = parallel_lis(&values);
        let seq = sequential_lis(&values);
        prop_assert_eq!(&par.d, &want.d);
        prop_assert_eq!(&seq.d, &want.d);
        prop_assert_eq!(par.length, want.length);
        prop_assert_eq!(seq.length, want.length);
        prop_assert_eq!(par.metrics.rounds, want.length as u64);
        let chain = par.reconstruct_indices(&values);
        prop_assert_eq!(chain.len(), want.length as usize);
        for w in chain.windows(2) {
            prop_assert!(w[0] < w[1] && values[w[0]] < values[w[1]]);
        }
    }

    #[test]
    fn prop_lcs_matches_dense(
        a in prop::collection::vec(0u8..6, 0..80),
        b in prop::collection::vec(0u8..6, 0..80),
    ) {
        let dense = dense_lcs(&a, &b);
        let pairs = matching_pairs(&a, &b);
        let sparse_par = parallel_sparse_lcs(&pairs);
        let sparse_seq = sequential_sparse_lcs(&pairs);
        prop_assert_eq!(sparse_par.length, dense.length);
        prop_assert_eq!(sparse_seq.length, dense.length);
        prop_assert_eq!(sparse_par.pair_values, sparse_seq.pair_values);
    }

    #[test]
    fn prop_convex_glws_matches_naive(
        gaps in prop::collection::vec(1i64..50, 1..200),
        open in 0i64..5000,
    ) {
        let mut coords = Vec::with_capacity(gaps.len());
        let mut x = 0i64;
        for g in &gaps {
            x += g;
            coords.push(x);
        }
        let p = PostOfficeProblem::new(coords, open);
        let par = parallel_convex_glws(&p);
        let seq = sequential_convex_glws(&p);
        let naive = naive_glws(&p);
        prop_assert_eq!(&par.d, &naive.d);
        prop_assert_eq!(&seq.d, &naive.d);
        prop_assert!(par.check_consistency(&p));
        // Lemma 4.5: rounds never exceed the number of states and equal the
        // depth of the best-decision chain.
        prop_assert_eq!(par.metrics.rounds as usize, par.perfect_depth());
    }

    #[test]
    fn prop_concave_glws_matches_naive(
        n in 1usize..150,
        a in 0i64..200,
        b in 0i64..20,
    ) {
        let p = ConcaveGapCost::new(n, a, b);
        let par = parallel_concave_glws(&p);
        let seq = sequential_concave_glws(&p);
        let naive = naive_glws(&p);
        prop_assert_eq!(&par.d, &naive.d);
        prop_assert_eq!(&seq.d, &naive.d);
    }

    #[test]
    fn prop_kglws_matches_naive(
        gaps in prop::collection::vec(1i64..30, 2..60),
        k in 1usize..8,
    ) {
        let mut coords = Vec::with_capacity(gaps.len());
        let mut x = 0i64;
        for g in &gaps {
            x += g;
            coords.push(x);
        }
        let n = coords.len();
        let k = k.min(n);
        let p = PostOfficeProblem::new(coords, 17);
        let par = parallel_kglws(&p, k);
        let naive = naive_kglws(&p, k);
        prop_assert_eq!(par.layers, naive.layers);
        prop_assert_eq!(par.metrics.rounds as usize, k);
    }

    #[test]
    fn prop_obst_knuth_matches_naive(weights in prop::collection::vec(1u64..500, 0..60)) {
        let naive = naive_obst(&weights);
        prop_assert_eq!(knuth_obst(&weights).cost, naive.cost);
        prop_assert_eq!(parallel_obst(&weights).cost, naive.cost);
    }

    #[test]
    fn prop_garsia_wachs_is_optimal(weights in prop::collection::vec(1u64..200, 1..60)) {
        let gw = garsia_wachs(&weights);
        prop_assert_eq!(gw.cost, knuth_obst(&weights).cost);
        // Kraft equality: the depths describe a full binary tree.
        if weights.len() > 1 {
            let kraft: f64 = gw.depths.iter().map(|&d| 0.5f64.powi(d as i32)).sum();
            prop_assert!((kraft - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn prop_gap_optimized_matches_naive(
        a in prop::collection::vec(0u8..3, 0..25),
        b in prop::collection::vec(0u8..3, 0..25),
        open in 0i64..40,
        ext in 0i64..5,
    ) {
        let inst = convex_gap_instance(&a, &b, open, ext, 1);
        let naive = naive_gap(&inst);
        prop_assert_eq!(sequential_gap(&inst).d, naive.d.clone());
        prop_assert_eq!(parallel_gap(&inst).d, naive.d);
    }

    #[test]
    fn prop_engine_driven_lis_matches_naive_oracle(
        values in prop::collection::vec(-500i64..500, 0..250),
    ) {
        // The CordonSolver path (explicit engine entry point) must agree with
        // the naive oracle and report consistent frontier telemetry.
        let run = CordonSolver::new().run(LisCordon::new(&values));
        let (d, length) = run.output;
        let want = naive_lis(&values);
        prop_assert_eq!(&d, &want.d);
        prop_assert_eq!(length, want.length);
        prop_assert_eq!(run.metrics.rounds, want.length as u64);
        prop_assert_eq!(run.metrics.frontier_sizes.len() as u64, run.metrics.rounds);
        prop_assert_eq!(
            run.metrics.frontier_sizes.iter().sum::<u64>(),
            values.len() as u64
        );
    }

    #[test]
    fn prop_engine_driven_glws_matches_naive_oracle(
        gaps in prop::collection::vec(1i64..40, 1..150),
        open in 0i64..3000,
    ) {
        let mut coords = Vec::with_capacity(gaps.len());
        let mut x = 0i64;
        for g in &gaps {
            x += g;
            coords.push(x);
        }
        let p = PostOfficeProblem::new(coords, open);
        let run = CordonSolver::new().run(ConvexGlwsCordon::new(&p));
        let (d, _) = run.output;
        prop_assert_eq!(&d, &naive_glws(&p).d);
        prop_assert_eq!(run.metrics.frontier_sizes.len() as u64, run.metrics.rounds);
    }

    #[test]
    fn prop_tree_glws_parallel_matches_naive(
        parents_seed in 0u64..1000,
        n in 1usize..120,
    ) {
        let parent = parallel_dp::workloads::random_tree(n, (parents_seed % 100) as u32, parents_seed);
        let lens = parallel_dp::workloads::tree_edge_lengths(n, 5, parents_seed);
        let inst = TreeGlwsInstance::new(parent, &lens, 0, |du, dv| {
            let len = (dv - du) as i64;
            9 + len * len
        }, |d, _| d);
        let naive = naive_tree_glws(&inst);
        let par = parallel_tree_glws(&inst, CostShape::Convex);
        prop_assert_eq!(par.d, naive.d);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Strings of 500–3 000 characters over 2–4 letters, so each column of
    /// the canonical pair list holds 125 or more matches, a strictly falling
    /// run of `j` keys that fills whole groups of the tournament.
    /// `prop_lcs_matches_dense`'s short strings never do.
    #[test]
    fn prop_sparse_lcs_of_long_strings_matches_hunt_szymanski(
        a in prop::collection::vec(0u8..12, 500..3_000),
        b in prop::collection::vec(0u8..12, 500..3_000),
        letters in 2u8..5,
    ) {
        let a: Vec<u8> = a.iter().map(|&x| x % letters).collect();
        let b: Vec<u8> = b.iter().map(|&x| x % letters).collect();
        let pairs = matching_pairs(&a, &b);
        let par = parallel_sparse_lcs(&pairs);
        let seq = sequential_sparse_lcs(&pairs);
        prop_assert_eq!(par.length, seq.length);
        prop_assert_eq!(&par.pair_values, &seq.pair_values);
        let chain = reconstruct_lcs(&pairs, &par.pair_values, par.length);
        prop_assert_eq!(chain.len(), par.length as usize);
        for p in &chain {
            prop_assert_eq!(a[p.i as usize], b[p.j as usize]);
        }
        for w in chain.windows(2) {
            prop_assert!(w[0].i < w[1].i && w[0].j < w[1].j);
        }
    }
}
