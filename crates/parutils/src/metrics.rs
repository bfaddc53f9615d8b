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
//! Round bodies and the sequential and naive baselines use the fine-grained
//! `add_*` methods, always on the thread that owns the collector (see
//! [`MetricsCollector`]'s ownership rule).

use std::cell::{Cell, RefCell};

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

/// Collector of one algorithm run's counters, owned by the thread that
/// drives the run.
///
/// # Ownership
///
/// The counters are plain [`Cell`]s and the frontier log a [`RefCell`], so a
/// collector is `Send` but not `Sync`: it may move to another thread with its
/// run, but two threads never hold it at once.  A closure handed to
/// `rayon::join` or to a parallel iterator must be `Send`, and `&T` is `Send`
/// only for a `Sync` `T`, so the compiler rejects any parallel closure that
/// captures a collector:
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<pardp_parutils::MetricsCollector>();
/// ```
///
/// while the collector itself may move:
///
/// ```
/// fn owned<T: Send>() {}
/// owned::<pardp_parutils::MetricsCollector>();
/// ```
///
/// Parallel loops return their counts through the joins and reductions they
/// already run instead, and the owning thread adds the sums once the loop has
/// returned.  A snapshot taken between two rounds therefore sits on a round
/// boundary: `rounds == frontier_sizes.len()` and, when only
/// [`MetricsCollector::record_round`] counts states, `states_finalized` is
/// the sum of the frontier log.
#[derive(Debug, Default)]
pub struct MetricsCollector {
    rounds: Cell<u64>,
    states_finalized: Cell<u64>,
    edges_relaxed: Cell<u64>,
    wasted_states: Cell<u64>,
    probes: Cell<u64>,
    frontier_sizes: RefCell<Vec<u64>>,
}

impl MetricsCollector {
    /// Create a collector with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one cordon round that finalized `frontier` states.  This is the
    /// driver's entry point: it advances `rounds`, `states_finalized` and the
    /// frontier log together, so they cannot drift apart.
    #[inline]
    pub fn record_round(&self, frontier: u64) {
        self.rounds.update(|r| r + 1);
        self.states_finalized.update(|s| s + frontier);
        self.frontier_sizes.borrow_mut().push(frontier);
    }

    /// Pre-size the frontier log for `rounds` upcoming rounds so that
    /// [`MetricsCollector::record_round`] performs no allocation on the hot
    /// path.  The phase-parallel driver calls this with the instance's round
    /// budget before the first round; the reservation is capped at one
    /// million entries (8 MB) to keep pathological budgets harmless.
    pub fn reserve_rounds(&self, rounds: usize) {
        const RESERVE_CAP: usize = 1 << 20;
        let mut log = self.frontier_sizes.borrow_mut();
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
        self.rounds.update(|r| r + 1);
    }

    /// Record `n` finalized states.
    #[inline]
    pub fn add_states(&self, n: u64) {
        self.states_finalized.update(|s| s + n);
    }

    /// Record `n` evaluated transitions.
    #[inline]
    pub fn add_edges(&self, n: u64) {
        self.edges_relaxed.update(|e| e + n);
    }

    /// Record `n` states visited by prefix doubling that were not finalized in
    /// that round.
    #[inline]
    pub fn add_wasted(&self, n: u64) {
        self.wasted_states.update(|w| w + n);
    }

    /// Record `n` binary-search probes.
    #[inline]
    pub fn add_probes(&self, n: u64) {
        self.probes.update(|p| p + n);
    }

    /// Snapshot the current counter values.
    pub fn snapshot(&self) -> Metrics {
        Metrics {
            rounds: self.rounds.get(),
            states_finalized: self.states_finalized.get(),
            edges_relaxed: self.edges_relaxed.get(),
            wasted_states: self.wasted_states.get(),
            probes: self.probes.get(),
            frontier_sizes: self.frontier_sizes.borrow().clone(),
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
}
