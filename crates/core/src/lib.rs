//! The Cordon Algorithm framework (the paper's primary contribution, Sec. 2.3).
//!
//! A dynamic-programming recurrence `D[i] = min/max_j f_{i,j}(D[j])` induces a
//! DP DAG whose vertices are states and whose edges are transitions.  The
//! *Cordon Algorithm* is a phase-parallel schedule for such a DAG:
//!
//! 1. all states start *tentative* with their boundary values;
//! 2. every tentative state tries to relax every other tentative state; each
//!    state that would be improved receives a *sentinel*;
//! 3. a tentative state is *ready* if no sentinel sits on any of its
//!    ancestors (inclusive); the ready states form the round's *frontier*;
//! 4. frontier states are finalized, they relax their descendants, all
//!    sentinels are cleared, and the next round begins.
//!
//! [`explicit`] contains a direct, executable transcription of this schedule
//! for explicitly-given DAGs.  It is not work-efficient (it exists to validate
//! Theorem 2.1 and to serve as a testing oracle); the per-problem crates
//! (`pardp-lis`, `pardp-lcs`, `pardp-glws`, `pardp-gap`, `pardp-oat`,
//! `pardp-treedp`, `pardp-obst`) instantiate the same schedule with
//! problem-specific data structures that make each round cheap, exactly as the
//! paper does.
//!
//! [`doubling`] provides the prefix-doubling cordon search shared by the
//! decision-monotone algorithms (Alg. 1's `FindCordon` skeleton), and
//! [`phase`] the thin phase-parallel driver plus round accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod doubling;
pub mod explicit;
pub mod phase;

pub use doubling::{prefix_doubling_cordon, DoublingStats};
pub use explicit::{EdgeWeightedDag, Objective};
pub use phase::{
    run_phase_parallel, try_run_phase_parallel, EitherCordon, FrontierArena, PhaseParallel,
    StallError, STALL_BUDGET_MSG, STALL_NO_PROGRESS_MSG,
};
