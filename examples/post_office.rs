//! The paper's running example (Sec. 4): choose post-office locations along a
//! road to minimize opening plus service costs.  Demonstrates the parallel
//! convex GLWS (Algorithm 1), the unconstrained vs fixed-k variants, and the
//! agreement between the parallel, sequential and naive solvers.
//!
//! Run with `cargo run --release --example post_office -- [n] [k]`.

use parallel_dp::glws::naive_glws;
use parallel_dp::prelude::*;
use parallel_dp::workloads;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(100_000);
    let k: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(200);

    let inst = workloads::post_office_instance(n, k, 2024);
    let problem = PostOfficeProblem::new(inst.coords.clone(), inst.open_cost);

    let par = parallel_convex_glws(&problem);
    let seq = sequential_convex_glws(&problem);
    assert_eq!(par.d, seq.d, "parallel and sequential must agree");

    println!("villages: {n}, planted clusters: {k}");
    println!("optimal total cost: {}", par.d[n]);
    println!("offices used:       {}", par.decision_depth(n));
    println!(
        "cordon rounds:      {} (equals #offices — Lemma 4.5)",
        par.metrics.rounds
    );
    println!(
        "work proxy:         parallel {} vs sequential {} (near work-efficiency)",
        par.metrics.work_proxy(),
        seq.metrics.work_proxy()
    );

    // Fixed-budget variant (Sec. 5.4): what if we may open only 3 offices?
    let budget = 3usize.min(n);
    let fixed = parallel_kglws(&problem, budget);
    println!(
        "with a budget of {budget} offices the best cost is {} (cluster boundaries {:?}...)",
        fixed.total_cost(),
        &fixed.cluster_boundaries()[..budget.min(4)]
    );

    // Sanity check against the quadratic oracle on a small prefix.
    let small = PostOfficeProblem::new(inst.coords[..500.min(n)].to_vec(), inst.open_cost);
    assert_eq!(parallel_convex_glws(&small).d, naive_glws(&small).d);
    println!("naive-oracle check on a 500-village prefix: OK");
}
