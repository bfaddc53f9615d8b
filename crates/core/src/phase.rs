//! Phase-parallel driver.
//!
//! The phase-parallel framework (Shen et al. \[81\], adapted to DP in Sec. 2.3)
//! repeatedly identifies a frontier of mutually independent operations and
//! processes it in parallel.  The driver below is deliberately thin: the whole
//! difficulty of the paper lies in making `round()` cheap for each concrete
//! problem, and that logic lives in the problem crates.  Centralizing the loop
//! here gives every algorithm identical round accounting — one
//! [`MetricsCollector::record_round`] per round, which also logs the frontier
//! size — and a single place to guard against non-termination:
//!
//! * a **progress guard**: a round that finalizes zero states while the
//!   instance is not done is a [`StallError::NoProgress`];
//! * a **round-budget guard**: every instance knows an upper bound on its
//!   round count (at most one round per state, and usually much tighter, e.g.
//!   `k` for k-GLWS); exceeding it is a [`StallError::BudgetExhausted`] even
//!   if each round technically made progress.
//!
//! [`run_phase_parallel`] panics on a stall (the historical behaviour, now
//! with a typed message constant); [`try_run_phase_parallel`] returns the
//! error for callers that want to handle it.  The loop holds no scratch and
//! runs no grain code: instances own the buffers their rounds reuse, and
//! rounds size their loops by the fixed [`pardp_parutils::round_min_grain`].

use pardp_parutils::MetricsCollector;

/// Empty, and named only by [`PhaseParallel::round_with`]: instances own
/// their round scratch.  Kept only because perfbench's `Timed` adapter names
/// it; ROADMAP direction 8 deletes it with `round_with` and `GrainPolicy`.
#[derive(Debug)]
pub struct FrontierArena;

/// Panic/format prefix used when a cordon round makes no progress.  Exposed as
/// a constant so tests and callers match on the type's message rather than a
/// hand-copied string.
pub const STALL_NO_PROGRESS_MSG: &str =
    "cordon round made no progress; the instance violates the framework's preconditions";

/// Panic/format prefix used when the round budget is exhausted.
pub const STALL_BUDGET_MSG: &str =
    "cordon exceeded its round budget; the instance violates its own span bound";

/// Why a phase-parallel run failed to complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StallError {
    /// A round finalized zero states while the instance reported it was not
    /// done.  Theorem 2.1 rules this out for well-formed instances.
    NoProgress {
        /// Rounds successfully executed before the stall.
        rounds_completed: u64,
    },
    /// The instance executed more rounds than its declared
    /// [`PhaseParallel::round_budget`].
    BudgetExhausted {
        /// The budget that was exceeded.
        budget: u64,
        /// States finalized before the run was aborted.
        states_finalized: u64,
    },
}

impl std::fmt::Display for StallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StallError::NoProgress { rounds_completed } => write!(
                f,
                "{STALL_NO_PROGRESS_MSG} (after {rounds_completed} completed rounds)"
            ),
            StallError::BudgetExhausted {
                budget,
                states_finalized,
            } => write!(
                f,
                "{STALL_BUDGET_MSG} (budget {budget}, {states_finalized} states finalized)"
            ),
        }
    }
}

impl std::error::Error for StallError {}

/// A problem instance that can be advanced one cordon round at a time.
///
/// Implementations exist in every problem crate (`LisCordon`, `LcsCordon`,
/// `GlwsCordon`, run as `ConvexGlwsCordon` or `ConcaveGlwsCordon`,
/// `KGlwsCordon`, `PackedGapCordon`, `TreeGlwsCordon` with either of its
/// two arms, `ValleyOatCordon`, `ObstCordon`, and `core::explicit`'s
/// reference instance); the facade's `CordonSolver` runs any of them
/// through this one driver.
pub trait PhaseParallel {
    /// Final result produced once all states are finalized.
    type Output;

    /// Whether every state has been finalized.
    fn is_done(&self) -> bool;

    /// Execute one cordon round: identify the frontier, finalize it, update
    /// the auxiliary structures.  Returns the number of states finalized in
    /// this round (the frontier size), which must be positive while
    /// [`PhaseParallel::is_done`] is false.  The driver calls only this
    /// method; an instance keeps the scratch its rounds reuse in its fields.
    ///
    /// Fine-grained work counters (edges, probes, wasted states) are added
    /// to `metrics` on the calling thread, after the round's parallel loops
    /// have returned their counts through their joins and reductions (the
    /// collector is not `Sync`, so no parallel closure can capture it).
    /// Round/state/frontier accounting is the driver's job and must *not* be
    /// duplicated here.
    fn round(&mut self, metrics: &MetricsCollector) -> usize;

    /// Calls [`PhaseParallel::round`]; the driver never calls this.  Kept
    /// only because perfbench's `Timed` adapter overrides it; ROADMAP
    /// direction 8 deletes it with [`FrontierArena`].
    fn round_with(&mut self, metrics: &MetricsCollector, arena: &mut FrontierArena) -> usize {
        let _ = arena;
        self.round(metrics)
    }

    /// Consume the instance and return the output.
    fn finish(self) -> Self::Output;

    /// Upper bound on the number of rounds this instance may execute, used by
    /// the driver's stall guard.  Every cordon instance finalizes at least one
    /// state per round, so the number of remaining states is always a valid
    /// bound; problem crates override this with their theorem-level bounds
    /// (LIS length ≤ n, k layers for k-GLWS, n − 1 diagonals for OBST, ...).
    /// `None` disables the budget guard.
    fn round_budget(&self) -> Option<u64> {
        None
    }
}

/// Run `instance` to completion, recording rounds and frontier sizes in
/// `metrics`.
///
/// # Panics
///
/// Panics with [`STALL_NO_PROGRESS_MSG`] if a round finalizes zero states
/// while the instance reports it is not done, and with [`STALL_BUDGET_MSG`] if
/// the instance exceeds its [`PhaseParallel::round_budget`] — both would mean
/// the cordon failed to make progress, which the correctness proof of
/// Theorem 2.1 rules out for well-formed instances, so we surface it loudly
/// instead of looping forever.
pub fn run_phase_parallel<P: PhaseParallel>(instance: P, metrics: &MetricsCollector) -> P::Output {
    match try_run_phase_parallel(instance, metrics) {
        Ok(output) => output,
        #[expect(
            clippy::panic,
            reason = "documented panicking facade over the typed \
                      `try_run_phase_parallel`: a stall is a broken instance \
                      contract, not a recoverable condition (see the `# Panics` docs)"
        )]
        Err(err) => panic!("{err}"),
    }
}

/// Like [`run_phase_parallel`] but returns a typed [`StallError`] instead of
/// panicking, using the instance's own [`PhaseParallel::round_budget`].
pub fn try_run_phase_parallel<P: PhaseParallel>(
    mut instance: P,
    metrics: &MetricsCollector,
) -> Result<P::Output, StallError> {
    let budget = instance.round_budget();
    if let Some(budget) = budget {
        // Pre-size the frontier log so `record_round` never allocates inside
        // the round loop.
        metrics.reserve_rounds(budget as usize);
    }
    let mut rounds: u64 = 0;
    let mut states: u64 = 0;
    while !instance.is_done() {
        if let Some(budget) = budget {
            if rounds >= budget {
                return Err(StallError::BudgetExhausted {
                    budget,
                    states_finalized: states,
                });
            }
        }
        let frontier = instance.round(metrics);
        if frontier == 0 {
            return Err(StallError::NoProgress {
                rounds_completed: rounds,
            });
        }
        rounds += 1;
        states += frontier as u64;
        metrics.record_round(frontier as u64);
    }
    Ok(instance.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardp_parutils::MetricsCollector;

    /// Toy instance: counts down `remaining` in frontier chunks of `step`,
    /// with a budget of exactly the rounds that takes.
    struct Countdown {
        remaining: usize,
        step: usize,
        finalized: usize,
    }

    impl PhaseParallel for Countdown {
        type Output = usize;
        fn is_done(&self) -> bool {
            self.remaining == 0
        }
        fn round(&mut self, _metrics: &MetricsCollector) -> usize {
            let f = self.step.min(self.remaining);
            self.remaining -= f;
            self.finalized += f;
            f
        }
        fn finish(self) -> usize {
            self.finalized
        }
        fn round_budget(&self) -> Option<u64> {
            Some(self.remaining.div_ceil(self.step) as u64)
        }
    }

    #[test]
    fn runs_until_done_and_counts_rounds() {
        let metrics = MetricsCollector::new();
        let out = run_phase_parallel(
            Countdown {
                remaining: 10,
                step: 3,
                finalized: 0,
            },
            &metrics,
        );
        assert_eq!(out, 10);
        let m = metrics.snapshot();
        assert_eq!(m.rounds, 4); // 3 + 3 + 3 + 1
        assert_eq!(m.states_finalized, 10);
        assert_eq!(m.frontier_sizes, vec![3, 3, 3, 1]);
    }

    #[test]
    fn empty_instance_runs_zero_rounds() {
        let metrics = MetricsCollector::new();
        let out = run_phase_parallel(
            Countdown {
                remaining: 0,
                step: 5,
                finalized: 0,
            },
            &metrics,
        );
        assert_eq!(out, 0);
        assert_eq!(metrics.snapshot().rounds, 0);
        assert!(metrics.snapshot().frontier_sizes.is_empty());
    }

    struct Stuck;
    impl PhaseParallel for Stuck {
        type Output = ();
        fn is_done(&self) -> bool {
            false
        }
        fn round(&mut self, _metrics: &MetricsCollector) -> usize {
            0
        }
        fn finish(self) {}
    }

    #[test]
    fn stalled_instance_returns_typed_error() {
        let metrics = MetricsCollector::new();
        let err = try_run_phase_parallel(Stuck, &metrics).unwrap_err();
        assert_eq!(
            err,
            StallError::NoProgress {
                rounds_completed: 0
            }
        );
        assert!(err.to_string().contains(STALL_NO_PROGRESS_MSG));
    }

    #[test]
    fn stalled_instance_panics_with_the_message_constant() {
        let metrics = MetricsCollector::new();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_phase_parallel(Stuck, &metrics)
        }))
        .unwrap_err();
        let message = panic
            .downcast_ref::<String>()
            .expect("panic payload should be the formatted StallError");
        assert!(
            message.contains(STALL_NO_PROGRESS_MSG),
            "panic message {message:?} must embed the typed constant"
        );
    }

    /// Claims progress every round but never finishes: caught by the budget.
    struct Spinner;
    impl PhaseParallel for Spinner {
        type Output = ();
        fn is_done(&self) -> bool {
            false
        }
        fn round(&mut self, _metrics: &MetricsCollector) -> usize {
            1
        }
        fn finish(self) {}
        fn round_budget(&self) -> Option<u64> {
            Some(16)
        }
    }

    #[test]
    fn round_budget_stops_a_spinner() {
        let metrics = MetricsCollector::new();
        let err = try_run_phase_parallel(Spinner, &metrics).unwrap_err();
        assert_eq!(
            err,
            StallError::BudgetExhausted {
                budget: 16,
                states_finalized: 16
            }
        );
        assert!(err.to_string().contains(STALL_BUDGET_MSG));
    }

    #[test]
    fn budget_equal_to_needed_rounds_succeeds() {
        // `Countdown`'s budget is exactly the rounds it needs: 9 / 3.
        let countdown = Countdown {
            remaining: 9,
            step: 3,
            finalized: 0,
        };
        assert_eq!(countdown.round_budget(), Some(3));
        let metrics = MetricsCollector::new();
        assert_eq!(try_run_phase_parallel(countdown, &metrics), Ok(9));
        assert_eq!(metrics.snapshot().rounds, 3);
    }
}
