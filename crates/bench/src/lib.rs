//! The speedup trajectory behind the `speedup_report` binary.
//!
//! For every problem the paper evaluates, [`run_speedup`] times the strongest
//! sequential algorithm in the workspace against the cordon algorithm pinned
//! to each requested thread count, checks that both return the same answer,
//! and records the work/round counters that validate the asymptotic claims on
//! hosts where wall-clock speedup is not observable.  The paper's Figs. 6
//! and 7 are the `lcs_*` and `glws_*` rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pardp_gap::{convex_gap_instance, parallel_gap, sequential_gap};
use pardp_glws::{parallel_convex_glws, sequential_convex_glws, PostOfficeProblem};
use pardp_lcs::{parallel_sparse_lcs, sequential_sparse_lcs, MatchPair};
use pardp_lis::{parallel_lis, sequential_lis};
use pardp_oat::{garsia_wachs, parallel_oat};
use pardp_obst::{knuth_obst, parallel_obst};
use pardp_parutils::{with_threads, Metrics};
use pardp_treedp::{naive_tree_glws, parallel_tree_glws, CostShape, TreeGlwsInstance};
use pardp_workloads as workloads;
use std::time::Instant;

/// Measure the wall-clock seconds of one invocation of `f`.
pub fn time_secs<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// One (problem, thread count) measurement of the speedup trajectory.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Problem / instance label.
    pub problem: String,
    /// Instance size.
    pub n: usize,
    /// Thread count the parallel run was pinned to.
    pub threads: usize,
    /// Best-of-reps sequential baseline wall clock.
    pub seq_secs: f64,
    /// Best-of-reps parallel wall clock at `threads` threads.
    pub par_secs: f64,
    /// Parallel work proxy / sequential work proxy.
    pub work_ratio: f64,
    /// Cordon rounds of the parallel run.
    pub rounds: u64,
    /// Largest frontier over all rounds.
    pub max_frontier: u64,
    /// Pool injector pushes during the parallel measurement (delta of the
    /// rayon shim's process-global dispatch counters around the timed
    /// region; 0 when every fork ran inline).  Optional for consumers —
    /// added after the first `pardp-speedup-v1` documents were committed.
    pub injector_pushes: u64,
    /// Worker wakeups during the parallel measurement (same source and
    /// caveats as `injector_pushes`).
    pub wakeups: u64,
}

impl SpeedupRow {
    /// Wall-clock ratio parallel / sequential (< 1.0 means the parallel
    /// algorithm beat the sequential baseline outright).
    pub fn par_over_seq(&self) -> f64 {
        if self.seq_secs > 0.0 {
            self.par_secs / self.seq_secs
        } else {
            f64::INFINITY
        }
    }
}

/// Minimum wall clock over `reps` invocations, preceded by one *untimed*
/// warmup invocation, with the last timed result.  The warmup absorbs
/// one-time costs that are not the algorithm's steady state — lazy pool
/// initialization, page faults on freshly grown buffers, cold instruction
/// and data caches — so callers should invoke `best_of` *inside* a
/// `with_threads` scope (pool spin-up then lands in the warmup, not in rep
/// one).
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let _ = f();
    let (mut best, mut out) = time_secs(&mut f);
    for _ in 1..reps {
        let (t, r) = time_secs(&mut f);
        if t < best {
            best = t;
        }
        out = r;
    }
    (best, out)
}

/// Run the parallel measurement pinned to `threads` threads, recording the
/// rayon shim's process-global dispatch-counter deltas across the whole
/// region (warmup and pool spin-up included: dispatch regressions there are
/// regressions too).  Returns `(secs, result, injector pushes, wakeups)`.
fn timed_parallel<R: Send>(
    threads: usize,
    reps: usize,
    f: impl FnMut() -> R + Send,
) -> (f64, R, u64, u64) {
    let (pushes_before, wakeups_before) = rayon::dispatch_diagnostics();
    let (secs, out) = with_threads(threads, || best_of(reps, f));
    let (pushes_after, wakeups_after) = rayon::dispatch_diagnostics();
    (
        secs,
        out,
        pushes_after - pushes_before,
        wakeups_after - wakeups_before,
    )
}

/// The rows collected so far, and how to time the next ones.
struct Sweep<'a> {
    threads: &'a [usize],
    reps: usize,
    rows: Vec<SpeedupRow>,
}

impl Sweep<'_> {
    /// Time `par` pinned to each thread count against a sequential run that
    /// took `seq_secs` and did `seq`'s work, appending one row per thread
    /// count.  `check` asserts that a parallel answer equals the sequential
    /// one and returns the parallel run's metrics.
    fn rows<R: Send>(
        &mut self,
        problem: &str,
        n: usize,
        (seq_secs, seq): (f64, &Metrics),
        mut par: impl FnMut() -> R + Send,
        check: impl Fn(&R) -> &Metrics,
    ) {
        for &threads in self.threads {
            let (par_secs, out, injector_pushes, wakeups) =
                timed_parallel(threads, self.reps, &mut par);
            let par = check(&out);
            self.rows.push(SpeedupRow {
                problem: problem.to_string(),
                n,
                threads,
                seq_secs,
                par_secs,
                work_ratio: if seq.work_proxy() > 0 {
                    par.work_proxy() as f64 / seq.work_proxy() as f64
                } else {
                    0.0
                },
                rounds: par.rounds,
                max_frontier: par.max_frontier(),
                injector_pushes,
                wakeups,
            });
        }
    }

    /// The paper's Fig. 6: sparse LCS over `l` matching pairs with LCS
    /// length k = 100, 10⁴ and `l`, against Hunt–Szymanski.  Round `r`
    /// extracts the pairs of DP value `r`, so rounds equal the LCS length;
    /// the deep row has one pair per round.
    fn fig6_lcs(&mut self, l: usize) {
        for (problem, k) in [("lcs_shallow", 100), ("lcs_mid", 10_000), ("lcs_deep", l)] {
            let pairs: Vec<MatchPair> = workloads::lcs_pairs_with(l, k, 3)
                .into_iter()
                .map(|(i, j)| MatchPair { i, j })
                .collect();
            let (seq_secs, seq) = best_of(self.reps, || sequential_sparse_lcs(&pairs));
            self.rows(
                problem,
                l,
                (seq_secs, &seq.metrics),
                || parallel_sparse_lcs(&pairs),
                |par| {
                    assert_eq!(
                        (par.length, &par.pair_values),
                        (seq.length, &seq.pair_values),
                        "{problem} parallel/sequential disagree"
                    );
                    assert_eq!(
                        par.metrics.rounds,
                        u64::from(par.length),
                        "{problem} rounds"
                    );
                    &par.metrics
                },
            );
        }
    }

    /// The paper's Fig. 7: convex GLWS (post office) over `n` villages in
    /// k = 10, 10³ and `n / 10` planted clusters, against the `O(n log n)`
    /// monotonic-queue algorithm.  Rounds equal the perfect depth
    /// (Lemma 4.5), which here is the number of offices.
    fn fig7_glws(&mut self, n: usize) {
        for (problem, k) in [
            ("glws_shallow", 10),
            ("glws_mid", 1_000),
            ("glws_deep", n / 10),
        ] {
            let inst = workloads::post_office_instance(n, k, 3);
            let offices = PostOfficeProblem::new(inst.coords, inst.open_cost);
            let (seq_secs, seq) = best_of(self.reps, || sequential_convex_glws(&offices));
            self.rows(
                problem,
                n,
                (seq_secs, &seq.metrics),
                || parallel_convex_glws(&offices),
                |par| {
                    assert_eq!(par.d, seq.d, "{problem} parallel/sequential disagree");
                    let depth = par.decision_depth(n) as u64;
                    assert_eq!(par.metrics.rounds, depth, "{problem} rounds");
                    &par.metrics
                },
            );
        }
    }
}

/// Run the speedup sweep: for each problem, time the sequential baseline and
/// the parallel algorithm pinned to each thread count in `threads`.
///
/// Most instances are deliberately *shallow* (small round count, wide
/// frontiers) — the regime where the paper's span bounds leave actual
/// parallelism for the pool to exploit; the Fig. 6 and Fig. 7 rows sweep the
/// depth from that regime down to one state per round.  `quick` shrinks every
/// instance for smoke-test use (CI runs `speedup_report --quick`).
pub fn run_speedup(quick: bool, threads: &[usize]) -> Vec<SpeedupRow> {
    let mut sweep = Sweep {
        threads,
        reps: if quick { 1 } else { 3 },
        rows: Vec::new(),
    };

    // Shallow LIS: k = 4 rounds over a wide staircase.  The sequential
    // baseline, patience sorting, pays a binary search over its k tails per
    // element; the cordon does k linear tournament rounds.
    {
        let n = if quick { 50_000 } else { 400_000 };
        let a = workloads::lis_with_length(n, 4, 7);
        let (seq_secs, seq) = best_of(sweep.reps, || sequential_lis(&a));
        sweep.rows(
            "lis_shallow",
            n,
            (seq_secs, &seq.metrics),
            || parallel_lis(&a),
            |par| {
                assert_eq!(par.length, seq.length, "lis parallel/sequential disagree");
                &par.metrics
            },
        );
    }

    // Random LIS: about 2√n rounds, each taking scattered single records —
    // the sparse side of the tournament's chunk-scan trade-off (a lone
    // record still costs a whole chunk scan), beside the dense staircase
    // above.
    {
        let n = if quick { 100_000 } else { 1_000_000 };
        let a = workloads::random_sequence(n, 1 << 40, 3);
        let (seq_secs, seq) = best_of(sweep.reps, || sequential_lis(&a));
        sweep.rows(
            "lis_random",
            n,
            (seq_secs, &seq.metrics),
            || parallel_lis(&a),
            |par| {
                assert_eq!(par.length, seq.length, "lis parallel/sequential disagree");
                &par.metrics
            },
        );
    }

    // OBST: n - 1 diagonal rounds with identical Knuth-bound work on both
    // sides; the cordon's flat diagonal-major tables vs the baseline's
    // row-major `Vec<Vec>` grid.
    {
        let n = if quick { 400 } else { 2_000 };
        let weights = workloads::positive_weights(n, 1_000, 11);
        let (seq_secs, seq) = best_of(sweep.reps, || knuth_obst(&weights));
        sweep.rows(
            "obst",
            n,
            (seq_secs, &seq.metrics),
            || parallel_obst(&weights),
            |par| {
                assert_eq!(par.cost, seq.cost, "obst parallel/sequential disagree");
                &par.metrics
            },
        );
    }

    // Tree-GLWS through the shape-adaptive router (parallel_tree_glws)
    // on the three shapes that span its decision space: a shallow balanced
    // tree (router picks the O(n·h) baseline cordon — the heavy-light
    // envelope machinery can't pay for itself at avg depth ~log n), a path,
    // and a caterpillar (router picks the Theorem 5.3 envelopes — the
    // baseline is quadratic there).  The sequential baseline is the naive
    // ancestor scan in all three rows, so par/seq on the deep shapes also
    // captures the work-efficiency win, not just parallelism.
    let tree_shapes: [(&str, Vec<usize>); 3] = if quick {
        [
            ("tree_glws_balanced", workloads::balanced_tree(20_000, 8)),
            ("tree_glws_path", workloads::path_tree(2_000)),
            (
                "tree_glws_caterpillar",
                workloads::caterpillar_tree(3_000, 1_500, 29),
            ),
        ]
    } else {
        [
            ("tree_glws_balanced", workloads::balanced_tree(200_000, 8)),
            ("tree_glws_path", workloads::path_tree(20_000)),
            (
                "tree_glws_caterpillar",
                workloads::caterpillar_tree(30_000, 15_000, 29),
            ),
        ]
    };
    for (problem, parent) in tree_shapes {
        let n = parent.len() - 1;
        let lens = workloads::tree_edge_lengths(n, 100, 13);
        let inst = TreeGlwsInstance::new(parent, &lens, 0, |du, dv| (dv - du) as i64, |d, _| d);
        let (seq_secs, seq) = best_of(sweep.reps, || naive_tree_glws(&inst));
        sweep.rows(
            problem,
            n,
            (seq_secs, &seq.metrics),
            || parallel_tree_glws(&inst, CostShape::Convex),
            |par| {
                assert_eq!(par.d, seq.d, "{problem} parallel/sequential disagree");
                &par.metrics
            },
        );
    }

    // OAT through `parallel_oat`, the valley cordon (Theorem 5.1), against
    // the sequential Garsia–Wachs baseline: O(log W) weight-doubling rounds
    // with parallel per-slope combines, vs the leftmost-pair rescans of the
    // baseline (quadratic on these sizes).
    {
        let n = if quick { 6_000 } else { 40_000 };
        let weights = workloads::positive_weights(n, 1 << 16, 23);
        let (seq_secs, seq) = best_of(sweep.reps, || garsia_wachs(&weights));
        sweep.rows(
            "oat_valley",
            n,
            (seq_secs, &seq.metrics),
            || parallel_oat(&weights),
            |par| {
                assert_eq!(
                    par.cost, seq.cost,
                    "oat_valley parallel/sequential disagree"
                );
                &par.metrics
            },
        );
    }

    // The pre-Theorem-5.1 interval DP on the same profile (its own smaller
    // n — the diagonal DP is Θ(n²) in time and space): the ablation partner
    // showing what the valley cordon's polylog rounds buy.  It is the OBST
    // diagonal cordon on the leaf weights, so `parallel_obst` runs it.
    {
        let n = if quick { 400 } else { 2_000 };
        let weights = workloads::positive_weights(n, 1 << 16, 23);
        let (seq_secs, seq) = best_of(sweep.reps, || garsia_wachs(&weights));
        sweep.rows(
            "oat_interval",
            n,
            (seq_secs, &seq.metrics),
            || parallel_obst(&weights),
            |par| {
                assert_eq!(
                    par.cost, seq.cost,
                    "oat_interval parallel/sequential disagree"
                );
                &par.metrics
            },
        );
    }

    // GAP alignment with the packed cordon (Theorem 5.2): rounds equal the
    // instance's effective depth instead of the grid's n + m anti-diagonals
    // — the grid itself is deep but the improvement chains are not.
    {
        let n = if quick { 300 } else { 1_000 };
        let (a, b) = workloads::gap_strings(n, n, 4, 17);
        let inst = convex_gap_instance(&a, &b, 3, 1, 1);
        let (seq_secs, seq) = best_of(sweep.reps, || sequential_gap(&inst));
        sweep.rows(
            "gap",
            n,
            (seq_secs, &seq.metrics),
            || parallel_gap(&inst),
            |par| {
                assert_eq!(par.cost, seq.cost, "gap parallel/sequential disagree");
                &par.metrics
            },
        );
    }

    let size = if quick { 100_000 } else { 1_000_000 };
    sweep.fig6_lcs(size);
    sweep.fig7_glws(size);
    sweep.rows
}

/// Merge two sweeps over the same problems: each row of `more` goes after
/// the last row of its problem, so a problem's rows stay together in the
/// order of `rows`.
pub fn merge_by_problem(mut rows: Vec<SpeedupRow>, more: Vec<SpeedupRow>) -> Vec<SpeedupRow> {
    for row in more {
        let at = rows
            .iter()
            .rposition(|r| r.problem == row.problem)
            .map_or(rows.len(), |i| i + 1);
        rows.insert(at, row);
    }
    rows
}

/// Serialize speedup rows as the `BENCH_speedup.json` document (hand-rolled,
/// so the workspace needs no serialization crate).
pub fn speedup_rows_to_json(rows: &[SpeedupRow], quick: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"pardp-speedup-v1\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str("  \"rows\": [\n");
    for (idx, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"problem\": \"{}\", \"n\": {}, \"threads\": {}, \"seq_secs\": {:.6}, \
             \"par_secs\": {:.6}, \"par_over_seq\": {:.4}, \"work_ratio\": {:.4}, \
             \"rounds\": {}, \"max_frontier\": {}, \"injector_pushes\": {}, \
             \"wakeups\": {}}}{}\n",
            r.problem,
            r.n,
            r.threads,
            r.seq_secs,
            r.par_secs,
            r.par_over_seq(),
            r.work_ratio,
            r.rounds,
            r.max_frontier,
            r.injector_pushes,
            r.wakeups,
            if idx + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Pretty-print speedup rows as a table.
pub fn print_speedup(rows: &[SpeedupRow]) {
    println!("# Speedup trajectory — parallel vs sequential wall clock by thread count");
    println!(
        "{:>22} {:>10} {:>8} {:>12} {:>12} {:>12} {:>12} {:>8} {:>12} {:>10} {:>8}",
        "problem",
        "n",
        "threads",
        "seq (s)",
        "par (s)",
        "par/seq",
        "work ratio",
        "rounds",
        "max frontier",
        "inj push",
        "wakeups"
    );
    for r in rows {
        println!(
            "{:>22} {:>10} {:>8} {:>12.4} {:>12.4} {:>12.3} {:>12.3} {:>8} {:>12} {:>10} {:>8}",
            r.problem,
            r.n,
            r.threads,
            r.seq_secs,
            r.par_secs,
            r.par_over_seq(),
            r.work_ratio,
            r.rounds,
            r.max_frontier,
            r.injector_pushes,
            r.wakeups
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_and_fig7_rows_sweep_the_depth() {
        let mut sweep = Sweep {
            threads: &[1, 2],
            reps: 1,
            rows: Vec::new(),
        };
        sweep.fig6_lcs(20_000);
        sweep.fig7_glws(20_000);
        let got: Vec<(&str, usize, usize, u64)> = sweep
            .rows
            .iter()
            .map(|r| (r.problem.as_str(), r.n, r.threads, r.rounds))
            .collect();
        let mut want = Vec::new();
        for (problem, rounds) in [
            ("lcs_shallow", 100),
            ("lcs_mid", 10_000),
            ("lcs_deep", 20_000),
            ("glws_shallow", 10),
            ("glws_mid", 1_000),
            ("glws_deep", 2_000),
        ] {
            for threads in [1, 2] {
                want.push((problem, 20_000, threads, rounds));
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn merged_sweeps_keep_each_problem_together() {
        let row = |problem: &str, threads| SpeedupRow {
            problem: problem.to_string(),
            n: 1,
            threads,
            seq_secs: 1.0,
            par_secs: 1.0,
            work_ratio: 1.0,
            rounds: 1,
            max_frontier: 1,
            injector_pushes: 0,
            wakeups: 0,
        };
        let sweep = |threads: [usize; 2]| -> Vec<SpeedupRow> {
            ["a", "b"]
                .iter()
                .flat_map(|p| threads.map(|t| row(p, t)))
                .collect()
        };
        let rows = merge_by_problem(sweep([1, 2]), sweep([4, 8]));
        let got: Vec<(&str, usize)> = rows
            .iter()
            .map(|r| (r.problem.as_str(), r.threads))
            .collect();
        let want = [1, 2, 4, 8]
            .map(|t| ("a", t))
            .into_iter()
            .chain([1, 2, 4, 8].map(|t| ("b", t)));
        assert_eq!(got, want.collect::<Vec<_>>());
    }
}
