//! # parallel-dp
//!
//! A Rust reproduction of *"Parallel and (Nearly) Work-Efficient Dynamic
//! Programming"* (Ding, Gu, Sun — SPAA 2024): the **Cordon Algorithm**
//! framework for phase-parallel dynamic programming, and its instantiations
//! for LIS, sparse LCS, convex/concave generalized least-weight subsequence
//! (GLWS), k-GLWS, GAP edit distance, optimal alphabetic trees, Tree-GLWS and
//! OBST — each with a naive oracle, the optimized sequential algorithm the
//! paper parallelizes, and the parallel cordon algorithm, all instrumented
//! with work/round counters.
//!
//! ## Quick start
//!
//! ```
//! use parallel_dp::prelude::*;
//!
//! // Parallel LIS (Theorem 3.1): rounds == LIS length.
//! let a = vec![7i64, 3, 6, 8, 1, 4, 2, 5];
//! let lis = parallel_lis(&a);
//! assert_eq!(lis.length, 3);
//!
//! // Parallel convex GLWS (Algorithm 1) on a post-office instance.
//! let post = PostOfficeProblem::new(vec![0, 1, 10, 11, 20, 21], 4);
//! let glws = parallel_convex_glws(&post);
//! assert_eq!(glws.d[6], 15);                  // three offices, cost 5 each
//! assert_eq!(glws.metrics.rounds, 3);          // rounds == #offices (Lemma 4.5)
//! ```
//!
//! The individual crates are re-exported as modules below; `prelude` pulls in
//! the most common entry points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pardp_core::{try_run_phase_parallel, PhaseParallel, StallError};
use pardp_parutils::{Metrics, MetricsCollector};

pub use pardp_core as core;
pub use pardp_gap as gap;
pub use pardp_glws as glws;
pub use pardp_lcs as lcs;
pub use pardp_lis as lis;
pub use pardp_oat as oat;
pub use pardp_obst as obst;
pub use pardp_parutils as parutils;
pub use pardp_tournament as tournament;
pub use pardp_treedp as treedp;
pub use pardp_workloads as workloads;

/// Unified entry point for running any [`PhaseParallel`] instance through the
/// shared cordon engine, returning its output with the run's metrics.
///
/// Every parallel algorithm in the workspace is an instance of the same
/// engine; this solver makes that explicit at the facade level:
///
/// ```
/// use parallel_dp::prelude::*;
///
/// let solver = CordonSolver::new();
/// let a = vec![7i64, 3, 6, 8, 1, 4, 2, 5];
/// let run = solver.run(LisCordon::new(&a));
/// let (d, length) = run.output;
/// assert_eq!(length, 3);
/// assert_eq!(run.metrics.rounds, 3);                     // Theorem 3.1
/// assert_eq!(run.metrics.frontier_sizes, vec![3, 3, 2]); // per-round telemetry
/// assert_eq!(d, vec![1, 1, 2, 3, 1, 2, 2, 3]);
/// ```
///
/// The same call shape works for `LcsCordon`, `ConvexGlwsCordon` and
/// `ConcaveGlwsCordon` (the two shapes of one `GlwsCordon`), `KGlwsCordon`,
/// `PackedGapCordon`, `ObstCordon`, `ValleyOatCordon` (the polylog-round
/// OAT cordon `parallel_oat` runs) —
/// and for the router-produced `EitherCordon` value that
/// `parallel_tree_glws` runs, `tree_glws_cordon_auto`'s (cheaper Tree-GLWS
/// cordon from an O(n) shape probe).  To run one arm of the router, hand
/// the solver that arm's cordon: `HldTreeGlwsCordon` or `TreeGlwsCordon`.
///
/// Each run is guarded by the instance's own
/// [`PhaseParallel::round_budget`] and by the driver's progress check.
#[derive(Debug, Clone, Copy, Default)]
pub struct CordonSolver;

/// Output of a [`CordonSolver`] run: the instance's result plus the engine's
/// round/work telemetry.
#[derive(Debug, Clone)]
pub struct CordonOutcome<T> {
    /// Whatever the instance's `finish()` produced.
    pub output: T,
    /// Rounds, per-round frontier sizes, and work counters.
    pub metrics: Metrics,
}

impl CordonSolver {
    /// The solver; it has no settings.
    pub fn new() -> Self {
        CordonSolver
    }

    /// Run `instance` to completion.
    ///
    /// # Panics
    ///
    /// Panics with the typed stall message if the instance stalls or exceeds
    /// its round budget (see `pardp_core::StallError`).
    pub fn run<P: PhaseParallel>(&self, instance: P) -> CordonOutcome<P::Output> {
        match self.try_run(instance) {
            Ok(outcome) => outcome,
            #[expect(
                clippy::panic,
                reason = "documented panicking facade over the typed `try_run` \
                          (see the `# Panics` docs above)"
            )]
            Err(err) => panic!("{err}"),
        }
    }

    /// Run `instance` to completion, returning the typed [`StallError`] on
    /// failure instead of panicking.
    pub fn try_run<P: PhaseParallel>(
        &self,
        instance: P,
    ) -> Result<CordonOutcome<P::Output>, StallError> {
        let metrics = MetricsCollector::new();
        let output = try_run_phase_parallel(instance, &metrics)?;
        Ok(CordonOutcome {
            output,
            metrics: metrics.snapshot(),
        })
    }
}

/// The most commonly used types and functions, re-exported flat: one
/// parallel function per problem, the cordons behind it and the sequential
/// baselines.  The naive oracles stay reachable by module path (for example
/// `parallel_dp::gap::naive_gap`).
pub mod prelude {
    pub use crate::{CordonOutcome, CordonSolver};
    pub use pardp_core::{
        prefix_doubling_cordon, run_phase_parallel, try_run_phase_parallel, EitherCordon,
        PhaseParallel, StallError,
    };
    pub use pardp_gap::{
        convex_gap_instance, parallel_gap, sequential_gap, GapInstance, PackedGapCordon,
    };
    pub use pardp_glws::{
        parallel_concave_glws, parallel_convex_glws, parallel_kglws, sequential_concave_glws,
        sequential_convex_glws, ConcaveGapCost, ConcaveGlwsCordon, ConvexGapCost, ConvexGlwsCordon,
        GlwsProblem, GlwsResult, KGlwsCordon, LinearGapCost, PostOfficeProblem,
    };
    pub use pardp_lcs::{
        matching_pairs, parallel_lcs_of, parallel_sparse_lcs, sequential_sparse_lcs, LcsCordon,
        LcsResult, MatchPair,
    };
    pub use pardp_lis::{parallel_lis, sequential_lis, LisCordon, LisResult};
    pub use pardp_oat::{
        garsia_wachs, oat_height_bound, parallel_oat, OatLayout, OatResult, ValleyOatCordon,
    };
    pub use pardp_obst::{knuth_obst, parallel_obst, ObstCordon, ObstResult};
    pub use pardp_parutils::{with_threads, Metrics, MetricsCollector};
    pub use pardp_tournament::Key;
    pub use pardp_treedp::{
        hld::HeavyLightDecomposition, parallel_tree_glws, tree_glws_cordon_auto, CostShape,
        HldTreeGlwsCordon, TreeGlwsCordon, TreeGlwsInstance,
    };
    pub use pardp_workloads as workloads;
}
