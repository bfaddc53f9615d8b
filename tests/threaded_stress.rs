//! Stress test for the threaded pool: a 100k-node path tree driven through
//! the work-efficient heavy-path envelope arm of the Tree-GLWS cordon at 8
//! threads.
//!
//! A path is the adversarial shape for the driver: 100 000 rounds with a
//! one-node frontier each, so the run exercises the round loop, the grain
//! rule's stay-sequential decision, the envelope pushes and the reused
//! round scratch 100 000 times under an oversubscribed pool.
//!
//! Gated behind `#[ignore]` because it is a stress test, not a correctness
//! gate.  Run it explicitly with:
//!
//! ```text
//! RAYON_NUM_THREADS=8 cargo test --release --test threaded_stress -- --ignored
//! ```
//!
//! (the test also pins the pool itself via `with_threads(8)`, so plain
//! `cargo test -- --ignored` works too).

use parallel_dp::parutils::with_threads;
use parallel_dp::treedp::{CostShape, TreeGlwsCordon, TreeGlwsInstance};
use parallel_dp::workloads;
use parallel_dp::CordonSolver;

#[test]
#[ignore = "stress test; run with --ignored (see module docs)"]
fn hld_tree_glws_on_a_100k_path_under_8_threads() {
    let n = 100_000;
    let parent = workloads::path_tree(n);
    let lens = workloads::tree_edge_lengths(n, 10, 21);
    let inst = TreeGlwsInstance::new(parent, &lens, 0, |du, dv| (dv - du) as i64, |d, _| d);

    let hld = || CordonSolver::new().run(TreeGlwsCordon::envelopes(&inst, CostShape::Convex));
    let stressed = with_threads(8, hld);
    assert_eq!(stressed.metrics.rounds, n as u64, "one round per path node");
    assert_eq!(stressed.metrics.max_frontier(), 1);

    // Bit-identical to the inline single-threaded run.
    let inline = with_threads(1, hld);
    assert_eq!(stressed.output, inline.output);
}
