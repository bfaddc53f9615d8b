//! Parallel primitives and instrumentation shared by every algorithm crate.
//!
//! The paper's cost model (Sec. 2) is the classic binary fork–join model with
//! a randomized work-stealing scheduler.  [`rayon`] is the canonical Rust
//! implementation of that model: `rayon::join` is the binary fork, and a
//! parallel-for is simulated by a logarithmic-depth tree of joins.  This crate
//! wraps rayon with
//!
//! * granularity-controlled helpers ([`par`]) so that the parallel algorithms
//!   degrade gracefully to their sequential counterparts on tiny inputs,
//! * the fixed grain rule ([`grain`]) that sizes a round's parallel loops:
//!   inline below a cutoff or at one thread, 2 grains per thread above it,
//! * work/round instrumentation ([`metrics`]) used by the benchmark harness to
//!   report *operation counts* in addition to wall-clock time, which is how we
//!   validate the paper's work bounds on machines with few cores.  A run's
//!   [`MetricsCollector`] belongs to the thread that drives it: parallel
//!   loops return their counts through the joins and reductions they already
//!   run, and that thread adds the sums, so the counters are plain cells with
//!   no atomics or locks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grain;
pub mod metrics;
pub mod par;

pub use grain::{effective_parallelism, round_min_grain, with_grain_policy, GrainPolicy};
pub use metrics::{Metrics, MetricsCollector};
pub use par::{maybe_join, with_threads, SEQ_CUTOFF};
