//! Benchmark harness shared by the criterion benches and the report binaries.
//!
//! Every evaluation figure of the paper has a `run_*` function here that
//! produces one row per swept parameter value, reporting wall-clock times for
//! the series the paper plots ("Ours", "Ours (1 thread)", "Sequential") plus
//! the work/round counters that validate the asymptotic claims on machines
//! where wall-clock speedup is not observable (see EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pardp_gap::{convex_gap_instance, parallel_gap_packed, sequential_gap};
use pardp_glws::{parallel_convex_glws, sequential_convex_glws, GlwsProblem, PostOfficeProblem};
use pardp_lcs::{parallel_sparse_lcs, sequential_sparse_lcs, MatchPair};
use pardp_lis::{parallel_lis, sequential_lis};
use pardp_oat::{garsia_wachs, parallel_oat, parallel_oat_valley};
use pardp_obst::{knuth_obst, parallel_obst};
use pardp_parutils::{with_threads, Metrics};
use pardp_treedp::{parallel_tree_glws_auto, sequential_tree_glws, CostShape, TreeGlwsInstance};
use pardp_workloads as workloads;
use serde::Serialize;
use std::time::Instant;

/// Measure the wall-clock seconds of one invocation of `f`.
pub fn time_secs<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

// ---------------------------------------------------------------------------
// Figure 6: parallel sparse LCS, running time vs LCS length k.
// ---------------------------------------------------------------------------

/// One row of the Fig. 6 table.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Row {
    /// Number of matching pairs `L`.
    pub l: usize,
    /// LCS length `k` of the instance.
    pub k: usize,
    /// Parallel running time on the default thread pool ("Ours").
    pub parallel_secs: f64,
    /// Parallel algorithm restricted to one thread ("Ours (1 thread)").
    pub parallel_1t_secs: f64,
    /// Sequential sparse LCS (Hunt–Szymanski) baseline.
    pub sequential_secs: f64,
    /// Rounds executed by the cordon algorithm (equals `k`).
    pub rounds: u64,
    /// Work proxy of the parallel run (edges + probes).
    pub parallel_work: u64,
    /// Work proxy of the sequential run.
    pub sequential_work: u64,
}

/// Run the Fig. 6 sweep: sparse LCS with `l` matching pairs and LCS lengths
/// `ks`, timing the parallel algorithm on the ambient pool, on one thread,
/// and the sequential baseline.
pub fn run_fig6(l: usize, ks: &[usize], seed: u64) -> Vec<Fig6Row> {
    ks.iter()
        .map(|&k| {
            let raw = workloads::lcs_pairs_with(l, k.min(l), seed);
            let pairs: Vec<MatchPair> = raw.into_iter().map(|(i, j)| MatchPair { i, j }).collect();
            let (parallel_secs, par) = time_secs(|| parallel_sparse_lcs(&pairs));
            let (parallel_1t_secs, _) =
                time_secs(|| with_threads(1, || parallel_sparse_lcs(&pairs)));
            let (sequential_secs, seq) = time_secs(|| sequential_sparse_lcs(&pairs));
            assert_eq!(par.length, seq.length, "parallel and sequential disagree");
            Fig6Row {
                l,
                k: par.length as usize,
                parallel_secs,
                parallel_1t_secs,
                sequential_secs,
                rounds: par.metrics.rounds,
                parallel_work: par.metrics.work_proxy() + par.metrics.edges_relaxed,
                sequential_work: seq.metrics.work_proxy(),
            }
        })
        .collect()
}

/// Pretty-print Fig. 6 rows in the layout of the paper's figure.
pub fn print_fig6(rows: &[Fig6Row]) {
    println!("# Figure 6 — parallel sparse LCS, running time (s) vs LCS length k");
    println!(
        "{:>12} {:>12} {:>12} {:>14} {:>12} {:>10}",
        "L", "k", "Ours", "Ours(1thr)", "Sequential", "rounds"
    );
    for r in rows {
        println!(
            "{:>12} {:>12} {:>12.4} {:>14.4} {:>12.4} {:>10}",
            r.l, r.k, r.parallel_secs, r.parallel_1t_secs, r.sequential_secs, r.rounds
        );
    }
}

// ---------------------------------------------------------------------------
// Figure 7: parallel convex GLWS (post office), running time vs k.
// ---------------------------------------------------------------------------

/// One row of the Fig. 7 table.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Row {
    /// Number of villages `n`.
    pub n: usize,
    /// Number of post offices in the optimal solution.
    pub k: usize,
    /// Parallel running time ("Ours").
    pub parallel_secs: f64,
    /// Parallel algorithm on one thread ("Ours (1 thread)").
    pub parallel_1t_secs: f64,
    /// Sequential Galil–Park baseline ("Sequential").
    pub sequential_secs: f64,
    /// Cordon rounds (equals `k`, the perfect depth — Lemma 4.5).
    pub rounds: u64,
    /// Work proxy of the parallel run.
    pub parallel_work: u64,
    /// Work proxy of the sequential run.
    pub sequential_work: u64,
}

/// Run the Fig. 7 sweep: post-office GLWS with `n` villages and the requested
/// numbers of clusters.
pub fn run_fig7(n: usize, ks: &[usize], seed: u64) -> Vec<Fig7Row> {
    ks.iter()
        .map(|&k| {
            let inst = workloads::post_office_instance(n, k.min(n), seed);
            let problem = PostOfficeProblem::new(inst.coords.clone(), inst.open_cost);
            let (parallel_secs, par) = time_secs(|| parallel_convex_glws(&problem));
            let (parallel_1t_secs, _) =
                time_secs(|| with_threads(1, || parallel_convex_glws(&problem)));
            let (sequential_secs, seq) = time_secs(|| sequential_convex_glws(&problem));
            assert_eq!(par.d, seq.d, "parallel and sequential disagree");
            Fig7Row {
                n,
                k: par.decision_depth(problem.n()),
                parallel_secs,
                parallel_1t_secs,
                sequential_secs,
                rounds: par.metrics.rounds,
                parallel_work: par.metrics.work_proxy(),
                sequential_work: seq.metrics.work_proxy(),
            }
        })
        .collect()
}

/// Pretty-print Fig. 7 rows in the layout of the paper's figure.
pub fn print_fig7(rows: &[Fig7Row]) {
    println!("# Figure 7 — parallel convex GLWS (post office), running time (s) vs k");
    println!(
        "{:>12} {:>12} {:>12} {:>14} {:>12} {:>10} {:>14} {:>14}",
        "n", "k", "Ours", "Ours(1thr)", "Sequential", "rounds", "par work", "seq work"
    );
    for r in rows {
        println!(
            "{:>12} {:>12} {:>12.4} {:>14.4} {:>12.4} {:>10} {:>14} {:>14}",
            r.n,
            r.k,
            r.parallel_secs,
            r.parallel_1t_secs,
            r.sequential_secs,
            r.rounds,
            r.parallel_work,
            r.sequential_work
        );
    }
}

// ---------------------------------------------------------------------------
// Speedup trajectory: per-problem parallel-vs-sequential wall clock across
// thread counts, emitted as machine-readable BENCH_speedup.json.
// ---------------------------------------------------------------------------

/// One (problem, thread count) measurement of the speedup trajectory.
#[derive(Debug, Clone, Serialize)]
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
    /// region; 0 without the `threads` feature).  Optional for consumers —
    /// added after the first `pardp-speedup-v1` documents were committed.
    pub injector_pushes: u64,
    /// Worker wakeups during the parallel measurement (same provenance and
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

#[allow(clippy::too_many_arguments)]
fn speedup_row(
    problem: &str,
    n: usize,
    threads: usize,
    seq_secs: f64,
    par_secs: f64,
    par: &Metrics,
    seq: &Metrics,
    dispatch: (u64, u64),
) -> SpeedupRow {
    SpeedupRow {
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
        injector_pushes: dispatch.0,
        wakeups: dispatch.1,
    }
}

/// Run the speedup sweep: for each problem, time the sequential baseline and
/// the parallel algorithm pinned to each thread count in `threads`.
///
/// The instances are deliberately *shallow* (small round count, wide
/// frontiers) — the regime where the paper's span bounds leave actual
/// parallelism for the pool to exploit.  `quick` shrinks every instance for
/// smoke-test use (CI runs `speedup_report --quick`).
pub fn run_speedup(quick: bool, threads: &[usize]) -> Vec<SpeedupRow> {
    let reps = if quick { 1 } else { 3 };
    let mut rows = Vec::new();

    // Shallow LIS: k = 4 rounds over a wide staircase.  The sequential
    // baseline pays a coordinate-compression sort plus a Fenwick log factor;
    // the cordon does k linear tournament rounds.
    {
        let n = if quick { 50_000 } else { 400_000 };
        let a = workloads::lis_with_length(n, 4, 7);
        let (seq_secs, seq) = best_of(reps, || sequential_lis(&a));
        for &t in threads {
            let (par_secs, par, pushes, wakeups) = timed_parallel(t, reps, || parallel_lis(&a));
            assert_eq!(par.length, seq.length, "lis parallel/sequential disagree");
            rows.push(speedup_row(
                "lis_shallow",
                n,
                t,
                seq_secs,
                par_secs,
                &par.metrics,
                &seq.metrics,
                (pushes, wakeups),
            ));
        }
    }

    // Random LIS: about 2√n rounds, each taking scattered single records —
    // the sparse side of the tournament's chunk-scan trade-off (a lone
    // record still costs a whole chunk scan), beside the dense staircase
    // above.
    {
        let n = if quick { 100_000 } else { 1_000_000 };
        let a = workloads::random_sequence(n, 1 << 40, 3);
        let (seq_secs, seq) = best_of(reps, || sequential_lis(&a));
        for &t in threads {
            let (par_secs, par, pushes, wakeups) = timed_parallel(t, reps, || parallel_lis(&a));
            assert_eq!(par.length, seq.length, "lis parallel/sequential disagree");
            rows.push(speedup_row(
                "lis_random",
                n,
                t,
                seq_secs,
                par_secs,
                &par.metrics,
                &seq.metrics,
                (pushes, wakeups),
            ));
        }
    }

    // OBST: n - 1 diagonal rounds with identical Knuth-bound work on both
    // sides; the cordon's flat diagonal-major tables vs the baseline's
    // row-major `Vec<Vec>` grid.
    {
        let n = if quick { 400 } else { 2_000 };
        let weights = workloads::positive_weights(n, 1_000, 11);
        let (seq_secs, seq) = best_of(reps, || knuth_obst(&weights));
        for &t in threads {
            let (par_secs, par, pushes, wakeups) =
                timed_parallel(t, reps, || parallel_obst(&weights));
            assert_eq!(par.cost, seq.cost, "obst parallel/sequential disagree");
            rows.push(speedup_row(
                "obst",
                n,
                t,
                seq_secs,
                par_secs,
                &par.metrics,
                &seq.metrics,
                (pushes, wakeups),
            ));
        }
    }

    // Tree-GLWS through the shape-adaptive router (parallel_tree_glws_auto)
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
        let (seq_secs, seq) = best_of(reps, || sequential_tree_glws(&inst));
        for &t in threads {
            let (par_secs, par, pushes, wakeups) = timed_parallel(t, reps, || {
                parallel_tree_glws_auto(&inst, CostShape::Convex)
            });
            assert_eq!(par.d, seq.d, "{problem} parallel/sequential disagree");
            rows.push(speedup_row(
                problem,
                n,
                t,
                seq_secs,
                par_secs,
                &par.metrics,
                &seq.metrics,
                (pushes, wakeups),
            ));
        }
    }

    // OAT with the valley cordon (Theorem 5.1) against the sequential
    // Garsia–Wachs baseline: O(log W) weight-doubling rounds with parallel
    // per-slope combines, vs the leftmost-pair rescans of the baseline
    // (quadratic on these sizes).
    {
        let n = if quick { 6_000 } else { 40_000 };
        let weights = workloads::positive_weights(n, 1 << 16, 23);
        let (seq_secs, seq) = best_of(reps, || garsia_wachs(&weights));
        for &t in threads {
            let (par_secs, par, pushes, wakeups) =
                timed_parallel(t, reps, || parallel_oat_valley(&weights));
            assert_eq!(
                par.cost, seq.cost,
                "oat_valley parallel/sequential disagree"
            );
            rows.push(speedup_row(
                "oat_valley",
                n,
                t,
                seq_secs,
                par_secs,
                &par.metrics,
                &seq.metrics,
                (pushes, wakeups),
            ));
        }
    }

    // The pre-Theorem-5.1 interval OAT cordon on the same profile (its own
    // smaller n — the diagonal DP is Θ(n²) in time and space): the ablation
    // partner showing what the valley decomposition buys.
    {
        let n = if quick { 400 } else { 2_000 };
        let weights = workloads::positive_weights(n, 1 << 16, 23);
        let (seq_secs, seq) = best_of(reps, || garsia_wachs(&weights));
        for &t in threads {
            let (par_secs, par, pushes, wakeups) =
                timed_parallel(t, reps, || parallel_oat(&weights));
            assert_eq!(
                par.cost, seq.cost,
                "oat_interval parallel/sequential disagree"
            );
            rows.push(speedup_row(
                "oat_interval",
                n,
                t,
                seq_secs,
                par_secs,
                &par.metrics,
                &seq.metrics,
                (pushes, wakeups),
            ));
        }
    }

    // GAP alignment with the packed cordon (Theorem 5.2): rounds equal the
    // instance's effective depth instead of the n + m anti-diagonals the
    // wavefront used to report here — the grid itself is deep but the
    // improvement chains are not.
    {
        let n = if quick { 300 } else { 1_000 };
        let (a, b) = workloads::gap_strings(n, n, 4, 17);
        let inst = convex_gap_instance(&a, &b, 3, 1, 1);
        let (seq_secs, seq) = best_of(reps, || sequential_gap(&inst));
        for &t in threads {
            let (par_secs, par, pushes, wakeups) =
                timed_parallel(t, reps, || parallel_gap_packed(&inst));
            assert_eq!(par.cost, seq.cost, "gap parallel/sequential disagree");
            rows.push(speedup_row(
                "gap",
                n,
                t,
                seq_secs,
                par_secs,
                &par.metrics,
                &seq.metrics,
                (pushes, wakeups),
            ));
        }
    }

    rows
}

/// Serialize speedup rows as the `BENCH_speedup.json` document (hand-rolled:
/// the offline `serde` shim does not provide serialization).
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

/// Geometric sweep of `k` values up to `max_k` (mirroring the log-scaled x
/// axes of the paper's figures).
pub fn k_sweep(max_k: usize, points: usize) -> Vec<usize> {
    let mut ks = Vec::new();
    let mut k = 10usize.min(max_k).max(1);
    for _ in 0..points {
        if ks.last() != Some(&k) {
            ks.push(k);
        }
        if k >= max_k {
            break;
        }
        k = (k * 10).min(max_k);
    }
    ks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_smoke() {
        let rows = run_fig6(5_000, &[10, 100], 1);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].k, 10);
        assert_eq!(rows[1].k, 100);
        assert_eq!(rows[0].rounds, 10);
        print_fig6(&rows);
    }

    #[test]
    fn fig7_smoke() {
        let rows = run_fig7(5_000, &[5, 50], 2);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].k, 5);
        assert_eq!(rows[1].k, 50);
        assert_eq!(rows[0].rounds, 5);
        print_fig7(&rows);
    }

    #[test]
    fn k_sweep_is_geometric_and_capped() {
        assert_eq!(k_sweep(100_000, 10), vec![10, 100, 1000, 10_000, 100_000]);
        assert_eq!(k_sweep(500, 10), vec![10, 100, 500]);
        assert_eq!(k_sweep(5, 10), vec![5]);
    }
}
