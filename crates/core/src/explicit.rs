//! Reference Cordon Algorithm over explicitly-given DP DAGs.
//!
//! This module is a direct, executable transcription of Sec. 2.3: states,
//! weighted transitions `f_{i,j}(D[j]) = D[j] + w_{j,i}`, sentinels placed on
//! every tentative state that a tentative state can improve, frontier = the
//! tentative states with no sentinel on any ancestor.  It is *not*
//! work-efficient — each round scans every remaining edge and recomputes the
//! blocked set — but it is the most faithful rendering of the framework and it
//! serves three purposes:
//!
//! * it validates Theorem 2.1 (the cordon schedule computes the same DP values
//!   as a topological-order evaluation) on arbitrary DAGs in tests;
//! * it measures the *effective depth* of a DAG (number of cordon rounds),
//!   which the per-problem span bounds are stated in terms of;
//! * it is the oracle the work-efficient algorithms are property-tested
//!   against.

use crate::phase::{run_phase_parallel, PhaseParallel};
use pardp_parutils::{round_min_grain, Metrics, MetricsCollector};
use rayon::prelude::*;

/// Whether the recurrence takes a minimum or a maximum over its decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// `D[i] = min_j D[j] + w(j, i)` (values start at `+inf` unless boundary).
    Minimize,
    /// `D[i] = max_j D[j] + w(j, i)` (values start at `-inf` unless boundary).
    Maximize,
}

impl Objective {
    #[inline]
    fn better(self, candidate: i64, current: i64) -> bool {
        match self {
            Objective::Minimize => candidate < current,
            Objective::Maximize => candidate > current,
        }
    }

    #[inline]
    fn worst(self) -> i64 {
        match self {
            Objective::Minimize => i64::MAX / 4,
            Objective::Maximize => i64::MIN / 4,
        }
    }
}

/// An explicitly-represented DP DAG with additive edge transitions.
#[derive(Debug, Clone)]
pub struct EdgeWeightedDag {
    n: usize,
    objective: Objective,
    /// Boundary value of each state, or `None` for states whose value must be
    /// derived from transitions.
    boundary: Vec<Option<i64>>,
    /// `out_edges[j]` lists `(i, w)` meaning `D[i]` may be updated from
    /// `D[j] + w`.
    out_edges: Vec<Vec<(usize, i64)>>,
    /// `in_deg[i]` = number of incoming transitions.
    in_deg: Vec<usize>,
}

impl EdgeWeightedDag {
    /// Create a DAG with `n` states and no edges.
    pub fn new(n: usize, objective: Objective) -> Self {
        EdgeWeightedDag {
            n,
            objective,
            boundary: vec![None; n],
            out_edges: vec![Vec::new(); n],
            in_deg: vec![0; n],
        }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the DAG has no states.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Set the boundary (initial) value of state `i`.
    pub fn set_boundary(&mut self, i: usize, value: i64) {
        self.boundary[i] = Some(value);
    }

    /// Add a transition `j -> i` with additive weight `w`.  `j` must precede
    /// `i` in the (integer) topological order, i.e. `j < i`.
    pub fn add_edge(&mut self, j: usize, i: usize, w: i64) {
        assert!(
            j < i,
            "states must be numbered in topological order (j < i)"
        );
        assert!(i < self.n);
        self.out_edges[j].push((i, w));
        self.in_deg[i] += 1;
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.out_edges.iter().map(Vec::len).sum()
    }

    /// Evaluate the recurrence sequentially in topological (index) order.
    ///
    /// States with neither a boundary value nor an incoming edge keep the
    /// objective's worst value.
    pub fn solve_topological(&self) -> Vec<i64> {
        let worst = self.objective.worst();
        let mut d: Vec<i64> = (0..self.n)
            .map(|i| self.boundary[i].unwrap_or(worst))
            .collect();
        for j in 0..self.n {
            if d[j] == worst {
                // Unreachable states do not propagate values.
                continue;
            }
            for &(i, w) in &self.out_edges[j] {
                let cand = d[j] + w;
                if self.objective.better(cand, d[i]) {
                    d[i] = cand;
                }
            }
        }
        d
    }

    /// Evaluate the recurrence with the Cordon Algorithm (Sec. 2.3 steps 1–5),
    /// driven by the shared phase-parallel engine ([`run_phase_parallel`]).
    ///
    /// Returns the DP values together with the per-round frontiers (the round
    /// count is the DAG's effective depth) and the collected metrics.
    pub fn solve_cordon(&self) -> CordonRun {
        let metrics = MetricsCollector::new();
        let (values, frontiers) = run_phase_parallel(ExplicitCordon::new(self), &metrics);
        CordonRun {
            values,
            frontiers,
            metrics: metrics.snapshot(),
        }
    }
}

/// [`PhaseParallel`] instance for the reference Cordon Algorithm on an
/// explicit DAG: one `round()` is one full sentinel/blocked/relax/finalize
/// cycle of Sec. 2.3.
pub struct ExplicitCordon<'a> {
    dag: &'a EdgeWeightedDag,
    d: Vec<i64>,
    finalized: Vec<bool>,
    frontiers: Vec<Vec<usize>>,
    remaining: usize,
    /// Reused sentinel/blocked scratch (one flag per state, cleared per round).
    marks: Vec<bool>,
    /// Reused buffer the round builds its frontier in.
    next: Vec<usize>,
}

impl<'a> ExplicitCordon<'a> {
    /// Step 1: every state starts tentative with its boundary value.
    pub fn new(dag: &'a EdgeWeightedDag) -> Self {
        let worst = dag.objective.worst();
        let d: Vec<i64> = (0..dag.n)
            .map(|i| dag.boundary[i].unwrap_or(worst))
            .collect();
        ExplicitCordon {
            dag,
            d,
            finalized: vec![false; dag.n],
            frontiers: Vec::new(),
            remaining: dag.n,
            marks: vec![false; dag.n],
            next: Vec::new(),
        }
    }
}

impl PhaseParallel for ExplicitCordon<'_> {
    /// Final DP values plus the per-round frontiers.
    type Output = (Vec<i64>, Vec<Vec<usize>>);

    fn is_done(&self) -> bool {
        self.remaining == 0
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        let dag = self.dag;
        let worst = dag.objective.worst();

        // Step 2: place sentinels.  A tentative state j places a sentinel on a
        // tentative state i if relaxing i through j would improve i's
        // tentative value.  (States that still hold the `worst` value cannot
        // relax anyone — they have not received any value yet.)  The flag
        // buffer is round-to-round scratch, reused without reallocation.
        let mut sentinel = std::mem::take(&mut self.marks);
        sentinel.clear();
        sentinel.resize(dag.n, false);
        let mut edge_count = 0u64;
        for j in 0..dag.n {
            if self.finalized[j] || self.d[j] == worst {
                continue;
            }
            for &(i, w) in &dag.out_edges[j] {
                if self.finalized[i] {
                    continue;
                }
                edge_count += 1;
                if dag.objective.better(self.d[j] + w, self.d[i]) {
                    sentinel[i] = true;
                }
            }
        }
        metrics.add_edges(edge_count);

        // A sentinel blocks the state it sits on and all its descendants.
        let mut blocked = sentinel;
        for j in 0..dag.n {
            if self.finalized[j] {
                continue;
            }
            if blocked[j] {
                for &(i, _) in &dag.out_edges[j] {
                    if !self.finalized[i] {
                        blocked[i] = true;
                    }
                }
            }
        }

        // Ready states: tentative and not blocked, built in the reused
        // frontier buffer.  An empty frontier is reported to the driver,
        // whose stall guard rejects it.
        self.next.clear();
        self.next
            .extend((0..dag.n).filter(|&i| !self.finalized[i] && !blocked[i]));
        self.marks = blocked;
        if self.next.is_empty() {
            return 0;
        }
        let frontier: &[usize] = &self.next;

        // Step 3: ready states relax their descendants.
        let d_ref = &self.d;
        let finalized_ref = &self.finalized;
        let updates: Vec<(usize, i64)> = frontier
            .par_iter()
            .filter(|&&j| d_ref[j] != worst)
            .flat_map_iter(|&j| {
                dag.out_edges[j]
                    .iter()
                    .filter(|&&(i, _)| !finalized_ref[i])
                    .map(move |&(i, w)| (i, d_ref[j] + w))
            })
            .with_min_len(round_min_grain(frontier.len()))
            .collect();
        metrics.add_edges(updates.len() as u64);
        for (i, cand) in updates {
            if dag.objective.better(cand, self.d[i]) {
                self.d[i] = cand;
            }
        }

        // Step 4: finalize the frontier (sentinels are recomputed from scratch
        // next round).
        for &i in frontier {
            self.finalized[i] = true;
        }
        self.remaining -= frontier.len();
        let size = frontier.len();
        // The per-round frontier log is part of this instance's output, so
        // the copy out of the reused buffer is inherent.
        self.frontiers.push(frontier.to_vec());
        size
    }

    fn finish(self) -> Self::Output {
        (self.d, self.frontiers)
    }

    fn round_budget(&self) -> Option<u64> {
        // At least one state is finalized per round.
        Some(self.dag.n as u64)
    }
}

/// Result of running the reference Cordon Algorithm on an explicit DAG.
#[derive(Debug, Clone)]
pub struct CordonRun {
    /// Final DP values.
    pub values: Vec<i64>,
    /// The frontier (set of states finalized) of each round, in order.
    pub frontiers: Vec<Vec<usize>>,
    /// Work/round counters.
    pub metrics: Metrics,
}

impl CordonRun {
    /// Number of cordon rounds, i.e. the effective depth of the schedule.
    pub fn rounds(&self) -> usize {
        self.frontiers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the LIS DAG of an input sequence: state i has boundary 1 and an
    /// edge from every j < i with a[j] < a[i] of weight 1 (Recurrence 2).
    fn lis_dag(a: &[i64]) -> EdgeWeightedDag {
        let mut dag = EdgeWeightedDag::new(a.len(), Objective::Maximize);
        for i in 0..a.len() {
            dag.set_boundary(i, 1);
            for j in 0..i {
                if a[j] < a[i] {
                    dag.add_edge(j, i, 1);
                }
            }
        }
        dag
    }

    #[test]
    fn cordon_matches_topological_on_paper_example() {
        let a = [7i64, 3, 6, 8, 1, 4, 2, 5];
        let dag = lis_dag(&a);
        let topo = dag.solve_topological();
        let run = dag.solve_cordon();
        assert_eq!(run.values, topo);
        // DP values from Fig. 2(a): 1 1 2 3 1 2 2 3.
        assert_eq!(run.values, vec![1, 1, 2, 3, 1, 2, 2, 3]);
        // The cordon finishes in LIS-length rounds (= 3 here).
        assert_eq!(run.rounds(), 3);
    }

    #[test]
    fn chain_dag_has_linear_depth() {
        // A path 0 -> 1 -> ... -> n-1: every round finalizes exactly one state.
        let n = 16;
        let mut dag = EdgeWeightedDag::new(n, Objective::Minimize);
        dag.set_boundary(0, 0);
        for i in 1..n {
            dag.add_edge(i - 1, i, 1);
        }
        let run = dag.solve_cordon();
        assert_eq!(run.values, (0..n as i64).collect::<Vec<_>>());
        assert_eq!(run.rounds(), n);
        for (r, f) in run.frontiers.iter().enumerate() {
            assert_eq!(f, &vec![r]);
        }
    }

    #[test]
    fn independent_states_finish_in_one_round() {
        let n = 10;
        let mut dag = EdgeWeightedDag::new(n, Objective::Minimize);
        for i in 0..n {
            dag.set_boundary(i, i as i64);
        }
        let run = dag.solve_cordon();
        assert_eq!(run.rounds(), 1);
        assert_eq!(run.values, (0..n as i64).collect::<Vec<_>>());
    }

    #[test]
    fn diamond_min_paths() {
        // 0 -> {1,2} -> 3 with asymmetric weights; shortest path DP.
        let mut dag = EdgeWeightedDag::new(4, Objective::Minimize);
        dag.set_boundary(0, 0);
        dag.add_edge(0, 1, 5);
        dag.add_edge(0, 2, 1);
        dag.add_edge(1, 3, 1);
        dag.add_edge(2, 3, 10);
        let topo = dag.solve_topological();
        let run = dag.solve_cordon();
        assert_eq!(run.values, topo);
        assert_eq!(run.values[3], 6);
        // 1 and 2 are both ready after round 1, 3 after round 2... but note 3
        // depends on both so it needs max over the frontier rounds of its
        // decisions + 1 = 3 rounds total? Actually 0 finalizes in round 1,
        // {1,2} in round 2, {3} in round 3.
        assert_eq!(run.rounds(), 3);
    }

    #[test]
    fn random_dags_cordon_equals_topological() {
        // Pseudo-random layered DAGs, both objectives.
        for seed in 0..6u64 {
            for &obj in &[Objective::Minimize, Objective::Maximize] {
                let n = 40;
                let mut dag = EdgeWeightedDag::new(n, obj);
                let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
                let mut next = || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                dag.set_boundary(0, 0);
                for i in 1..n {
                    if next() % 4 == 0 {
                        dag.set_boundary(i, (next() % 20) as i64);
                    }
                    // Random back edges.
                    for j in 0..i {
                        if next() % 5 == 0 {
                            dag.add_edge(j, i, (next() % 15) as i64 - 5);
                        }
                    }
                }
                let topo = dag.solve_topological();
                let run = dag.solve_cordon();
                assert_eq!(run.values, topo, "seed {seed}, objective {obj:?}");
                assert!(run.rounds() <= n);
            }
        }
    }

    #[test]
    fn metrics_are_populated() {
        let a = [3i64, 1, 4, 1, 5, 9, 2, 6];
        let run = lis_dag(&a).solve_cordon();
        assert_eq!(run.metrics.rounds as usize, run.rounds());
        assert_eq!(run.metrics.states_finalized as usize, a.len());
        assert!(run.metrics.edges_relaxed > 0);
    }

    #[test]
    #[should_panic(expected = "topological order")]
    fn rejects_non_topological_edges() {
        let mut dag = EdgeWeightedDag::new(3, Objective::Minimize);
        dag.add_edge(2, 1, 0);
    }
}
