//! The grain rule for a round's parallel loops.
//!
//! The cordon algorithms process one frontier per round, and frontier sizes
//! swing over orders of magnitude within a single run (the staircase problems
//! start wide and collapse; the interval DPs ramp up and down).  Round code
//! asks [`round_min_grain`] for the `with_min_len` value of its hot parallel
//! loops, and one fixed rule answers for every round:
//!
//! * a loop of fewer than [`SEQ_CUTOFF`] items, or any loop when only one
//!   thread can run, is one grain on the calling thread (the ParlayLib
//!   granularity-control idiom; the rayon shim executes a single grain inline
//!   with no pool traffic);
//! * any other loop splits into 2 grains per effective thread, none smaller
//!   than a quarter cutoff.
//!
//! The rule keeps no history, so the driver calls no grain code between
//! rounds: on a 2-core Xeon host a no-op round costs 8–9 ns through the
//! driver, the same as a bare loop over its round bookkeeping, where a
//! policy tuned from recent frontier sizes cost 101–107 ns.

use crate::par::SEQ_CUTOFF;

/// Grains per effective thread for a loop that forks.
const GRAINS_PER_THREAD: usize = 2;

/// Worker threads that can actually run simultaneously: the configured pool
/// size capped by the machine's available parallelism.  Splitting a loop into
/// more grains than the hardware can run concurrently buys no steal balance
/// and pays real scheduling cost — oversubscribed workers only add context
/// switches on the critical path.
pub fn effective_parallelism() -> usize {
    let threads = rayon::current_num_threads().max(1);
    if threads == 1 {
        // No hardware probe: one thread is one thread on any host.
        return 1;
    }
    // Cached: `available_parallelism()` probes cgroup files on Linux, which
    // allocates.  Only the first multi-thread call in a process probes, so
    // no grain decision at one thread allocates, not even a process's first.
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let hw = *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    threads.min(hw)
}

/// The `with_min_len` value for a parallel loop over `len` items in a round
/// (the module's rule at [`effective_parallelism`] threads).
pub fn round_min_grain(len: usize) -> usize {
    min_grain_for(len, effective_parallelism())
}

/// [`round_min_grain`] for `threads` simultaneously runnable threads.
fn min_grain_for(len: usize, threads: usize) -> usize {
    if len < SEQ_CUTOFF || threads <= 1 {
        // One grain: the shim runs the loop inline on the calling thread.
        return len.max(1);
    }
    len.div_ceil(GRAINS_PER_THREAD * threads)
        .max(SEQ_CUTOFF / 4)
}

/// A grain policy with nothing to tune, since [`round_min_grain`] keeps no
/// history: [`GrainPolicy::observe`] ignores its frontier.  Kept only because
/// perfbench calls it and [`with_grain_policy`]; ROADMAP direction 8 deletes
/// both.
#[derive(Debug, Default)]
pub struct GrainPolicy;

impl GrainPolicy {
    /// The policy.
    pub fn new() -> Self {
        GrainPolicy
    }

    /// Ignore a completed round's frontier size: the grain rule is fixed.
    pub fn observe(&mut self, frontier: u64) {
        let _ = frontier;
    }
}

/// Run `f`.  Every round sees the same [`round_min_grain`] rule, so there is
/// no policy to install.
pub fn with_grain_policy<R>(policy: &GrainPolicy, f: impl FnOnce() -> R) -> R {
    let _ = policy;
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_frontiers_stay_sequential() {
        for threads in [1, 2, 8] {
            for len in [0, 1, 10, SEQ_CUTOFF - 1] {
                assert_eq!(min_grain_for(len, threads), len.max(1), "len {len}");
            }
        }
        assert_eq!(round_min_grain(SEQ_CUTOFF - 1), SEQ_CUTOFF - 1);
    }

    #[test]
    fn large_frontiers_split_proportionally_to_threads() {
        let len = 1 << 20;
        for threads in [2usize, 4, 8] {
            let grain = min_grain_for(len, threads);
            assert!(grain < len, "a large loop must fork at {threads} threads");
            assert_eq!(grain, len.div_ceil(2 * threads), "2 grains per thread");
        }
        // Never below a quarter cutoff per grain.
        assert_eq!(min_grain_for(SEQ_CUTOFF, 8), SEQ_CUTOFF / 4);
    }

    #[test]
    fn single_effective_thread_never_forks() {
        // On one simultaneously-runnable thread (a single-core host, or a
        // pool of one worker), every loop must stay inline no matter how
        // large: grains beyond the hardware only add context switches.
        let len = 1 << 20;
        assert_eq!(min_grain_for(len, 1), len);
        assert_eq!(min_grain_for(len, 0), len);
    }
}
