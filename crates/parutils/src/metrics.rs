//! Work / round instrumentation.
//!
//! The paper's central claims are about *work* (number of states and
//! transitions processed, Sec. 2.2) and *span* (number of cordon rounds times
//! a polylogarithmic factor).  On machines with few cores, wall-clock speedup
//! says little, so every algorithm in this workspace reports a [`Metrics`]
//! snapshot: how many states were relaxed, how many transitions (edges) were
//! evaluated, how many cordon rounds were executed, the size of every round's
//! frontier, and how many states were touched "wastefully" by prefix doubling.
//! The benchmark harness prints these next to the running times so the
//! work-efficiency claims can be checked directly against the sequential
//! baselines.
//!
//! Round accounting has a single source of truth: the phase-parallel driver
//! (`pardp_core::run_phase_parallel`) calls [`MetricsCollector::record_round`]
//! once per cordon round, which keeps `rounds`, `states_finalized` and
//! `frontier_sizes` consistent by construction for every parallel algorithm.
//! Sequential and naive baselines use the fine-grained `add_*` methods.

use std::sync::atomic::{AtomicU64, Ordering};
#[expect(
    clippy::disallowed_types,
    reason = "the frontier log needs interior mutability behind `&self`; it is \
              touched once per round by the driver, never inside parallel loops, \
              so a Mutex here cannot serialize worker threads (until plain \
              per-round counters replace it)"
)]
use std::sync::{Mutex, PoisonError};

/// Immutable snapshot of the counters collected during one algorithm run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Metrics {
    /// Number of cordon rounds (phase-parallel iterations).  For sequential
    /// algorithms this is 0.
    pub rounds: u64,
    /// Number of states whose DP value was finalized.
    pub states_finalized: u64,
    /// Number of transition evaluations (calls to the cost/relax function).
    pub edges_relaxed: u64,
    /// Number of states inspected by prefix doubling that turned out not to be
    /// ready in that round (the "wasted" work the paper amortizes).
    pub wasted_states: u64,
    /// Number of binary-search probes performed in best-decision structures.
    pub probes: u64,
    /// Size of each cordon round's frontier, in execution order.  Populated by
    /// the phase-parallel driver; empty for sequential algorithms.
    pub frontier_sizes: Vec<u64>,
}

impl Metrics {
    /// Total "work proxy": edges relaxed plus probes.  Useful for comparing a
    /// parallel algorithm against its sequential counterpart irrespective of
    /// clock noise.
    pub fn work_proxy(&self) -> u64 {
        self.edges_relaxed + self.probes
    }

    /// Largest frontier over all rounds (0 when no rounds ran).
    pub fn max_frontier(&self) -> u64 {
        self.frontier_sizes.iter().copied().max().unwrap_or(0)
    }

    /// Nearest-rank percentile of the per-round frontier sizes (`p` in
    /// `0.0..=100.0`; 0 when no rounds ran).  `frontier_percentile(50.0)` is
    /// the median round width, `frontier_percentile(100.0) == max_frontier()`
    /// — the frontier-shape summary the benchmark harness prints.
    pub fn frontier_percentile(&self, p: f64) -> u64 {
        if self.frontier_sizes.is_empty() {
            return 0;
        }
        let mut sorted = self.frontier_sizes.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }
}

/// Thread-safe collector used while an algorithm runs.
///
/// The scalar counters are relaxed atomics: they are statistics, not
/// synchronization.  The per-round frontier log is mutex-guarded, but it is
/// only touched once per round (by the driver), never inside parallel loops.
///
/// # Snapshot consistency
///
/// * **Round-grained updates** ([`MetricsCollector::record_round`], the
///   phase-parallel driver's path): `record_round` advances `rounds` and
///   `states_finalized` while it holds the frontier-log lock, and
///   [`MetricsCollector::snapshot`] reads every counter under that lock.  A
///   snapshot therefore always sits on a round boundary:
///   `rounds == frontier_sizes.len()` and `states_finalized` equals the sum
///   of the frontier log (when only `record_round` is used).
/// * **Fine-grained updates** (the `add_*` methods used by the round bodies
///   and the sequential baselines): individually atomic but not mutually
///   consistent; a concurrent snapshot may see some of a batch of related
///   `add_*` calls and not others.  Callers that need exact totals must
///   snapshot after the run quiesces — which is what every harness in this
///   workspace does.
///
/// Every method is safe from any number of threads.
#[derive(Debug, Default)]
pub struct MetricsCollector {
    rounds: AtomicU64,
    states_finalized: AtomicU64,
    edges_relaxed: AtomicU64,
    wasted_states: AtomicU64,
    probes: AtomicU64,
    #[expect(
        clippy::disallowed_types,
        reason = "see the import: the per-round log is driver-only, outside the \
                  parallel hot path"
    )]
    frontier_sizes: Mutex<Vec<u64>>,
}

impl MetricsCollector {
    /// Create a collector with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one cordon round that finalized `frontier` states.  This is the
    /// driver's entry point: it advances `rounds`, `states_finalized` and the
    /// frontier log together, under the log's lock, so they cannot drift
    /// apart (see the type-level snapshot-consistency notes).
    #[inline]
    pub fn record_round(&self, frontier: u64) {
        let mut log = self
            .frontier_sizes
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // ordering: Relaxed — statistics; the lock (not these RMWs) provides
        // the cross-counter consistency.
        self.rounds.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — same as above.
        self.states_finalized.fetch_add(frontier, Ordering::Relaxed);
        log.push(frontier);
    }

    /// Pre-size the frontier log for `rounds` upcoming rounds so that
    /// [`MetricsCollector::record_round`] performs no allocation on the hot
    /// path.  The phase-parallel driver calls this with the instance's round
    /// budget before the first round; the reservation is capped at one
    /// million entries (8 MB) to keep pathological budgets harmless.
    pub fn reserve_rounds(&self, rounds: usize) {
        const RESERVE_CAP: usize = 1 << 20;
        let mut log = self
            .frontier_sizes
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let want = rounds.min(RESERVE_CAP);
        let have = log.capacity() - log.len();
        if want > have {
            log.reserve(want - have);
        }
    }

    /// Record one cordon round without frontier bookkeeping (sequential and
    /// naive baselines that only track a round count).
    #[inline]
    pub fn add_round(&self) {
        // ordering: Relaxed — lone statistic with no cross-counter invariant;
        // totals are read after the run quiesces (see the snapshot notes).
        self.rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` finalized states.
    #[inline]
    pub fn add_states(&self, n: u64) {
        // ordering: Relaxed — same as `add_round`.
        self.states_finalized.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` evaluated transitions.
    #[inline]
    pub fn add_edges(&self, n: u64) {
        // ordering: Relaxed — same as `add_round`.
        self.edges_relaxed.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` states visited by prefix doubling that were not finalized in
    /// that round.
    #[inline]
    pub fn add_wasted(&self, n: u64) {
        // ordering: Relaxed — same as `add_round`.
        self.wasted_states.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` binary-search probes.
    #[inline]
    pub fn add_probes(&self, n: u64) {
        // ordering: Relaxed — same as `add_round`.
        self.probes.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot the current counter values.
    ///
    /// Reads every counter under the frontier-log lock, so the returned
    /// [`Metrics`] always sits on a round boundary with respect to the
    /// driver's round-grained accounting.  Concurrent `add_*` updates are
    /// individually atomic but not mutually consistent — see the type-level
    /// snapshot-consistency notes.
    pub fn snapshot(&self) -> Metrics {
        let log = self
            .frontier_sizes
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Metrics {
            // ordering: Relaxed (all five loads) — the lock, not the
            // individual loads, carries the consistency.
            rounds: self.rounds.load(Ordering::Relaxed),
            states_finalized: self.states_finalized.load(Ordering::Relaxed), // ordering: as above
            edges_relaxed: self.edges_relaxed.load(Ordering::Relaxed),       // ordering: as above
            wasted_states: self.wasted_states.load(Ordering::Relaxed),       // ordering: as above
            probes: self.probes.load(Ordering::Relaxed),                     // ordering: as above
            frontier_sizes: log.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = MetricsCollector::new();
        c.add_round();
        c.add_round();
        c.add_states(10);
        c.add_edges(5);
        c.add_edges(7);
        c.add_wasted(3);
        c.add_probes(11);
        let m = c.snapshot();
        assert_eq!(m.rounds, 2);
        assert_eq!(m.states_finalized, 10);
        assert_eq!(m.edges_relaxed, 12);
        assert_eq!(m.wasted_states, 3);
        assert_eq!(m.probes, 11);
        assert_eq!(m.work_proxy(), 23);
        assert!(m.frontier_sizes.is_empty(), "add_round logs no frontier");
    }

    #[test]
    fn record_round_keeps_round_accounting_consistent() {
        let c = MetricsCollector::new();
        c.record_round(3);
        c.record_round(5);
        c.record_round(1);
        let m = c.snapshot();
        assert_eq!(m.rounds, 3);
        assert_eq!(m.states_finalized, 9);
        assert_eq!(m.frontier_sizes, vec![3, 5, 1]);
        assert_eq!(m.max_frontier(), 5);
    }

    #[test]
    fn default_snapshot_is_zero() {
        let c = MetricsCollector::new();
        assert_eq!(c.snapshot(), Metrics::default());
        assert_eq!(c.snapshot().max_frontier(), 0);
        assert_eq!(c.snapshot().frontier_percentile(50.0), 0);
    }

    #[test]
    fn frontier_percentile_uses_nearest_rank() {
        let m = Metrics {
            frontier_sizes: vec![5, 1, 9, 3, 7],
            ..Metrics::default()
        };
        assert_eq!(m.frontier_percentile(0.0), 1);
        assert_eq!(m.frontier_percentile(20.0), 1);
        assert_eq!(m.frontier_percentile(50.0), 5);
        assert_eq!(m.frontier_percentile(90.0), 9);
        assert_eq!(m.frontier_percentile(100.0), m.max_frontier());
        assert_eq!(Metrics::default().frontier_percentile(99.0), 0);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "plain OS threads race the collector at any pool size"
    )]
    fn snapshot_lands_on_round_boundaries() {
        // One driver thread records rounds while snapshotters race it: every
        // snapshot must sit on a round boundary — never a torn state where a
        // round was counted but its frontier not yet logged (or vice versa).
        let c = MetricsCollector::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..2000u64 {
                    c.record_round(i % 7);
                }
            });
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..500 {
                        let m = c.snapshot();
                        assert_eq!(m.rounds as usize, m.frontier_sizes.len());
                        assert_eq!(m.states_finalized, m.frontier_sizes.iter().sum::<u64>());
                    }
                });
            }
        });
        let m = c.snapshot();
        assert_eq!(m.rounds, 2000);
        assert_eq!(m.frontier_sizes.len(), 2000);
        assert_eq!(m.states_finalized, (0..2000u64).map(|i| i % 7).sum());
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "plain OS threads race the collector at any pool size"
    )]
    fn concurrent_updates_are_not_lost() {
        let c = MetricsCollector::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add_edges(1);
                    }
                });
            }
        });
        assert_eq!(c.snapshot().edges_relaxed, 8000);
    }
}
