//! Generalized LWS on trees (Sec. 5.3, Theorem 5.3).
//!
//! Tree-GLWS generalizes the 1-D recurrence to a rooted tree: for every node
//! `v`, `D[v] = min over ancestors u of E[u] + w(d_u, d_v)` where `d_x` is the
//! distance of `x` from the root and `E[u] = f(D[u], u)`.  Along any
//! root-to-leaf path this is exactly the 1-D GLWS of Sec. 4; the difficulty is
//! sharing the best-decision structures across branching paths.
//!
//! This crate provides the tree substrate, the oracle and the parallel
//! evaluation:
//!
//! * [`naive_tree_glws`] — each node scans all of its ancestors
//!   (`O(n·h)` work); the exact reference used by every test and the
//!   sequential baseline of the benchmark rows,
//! * [`parallel_tree_glws`] — the shape-adaptive parallel evaluation: one
//!   `O(n)` pass over the parent array measures the tree's depths, compares
//!   the average ancestor-chain length against the envelope machinery's
//!   polylog per-node estimate, and runs whichever of two cordons is
//!   predicted cheaper ([`tree_glws_cordon_auto`]).  Both process the nodes
//!   in rounds by tree depth (every node's decisions live strictly above it,
//!   so depth levels are valid frontiers), all nodes of a round in parallel:
//!   * [`HldTreeGlwsCordon`], the **work-efficient version of
//!     Theorem 5.3**, for deep shapes (paths, caterpillars): a [heavy-light
//!     decomposition](hld::HeavyLightDecomposition) partitions every
//!     ancestor chain into `O(log n)` heavy-path prefixes, and each heavy
//!     path keeps a *persistent* monotone best-decision envelope that grows
//!     as frontiers settle, so one node costs `O(log² n)` instead of
//!     `O(depth)` and each round's work is proportional to its frontier size
//!     (times polylog).  The transition cost must be convex or concave along
//!     root paths (declared via [`CostShape`]);
//!   * [`TreeGlwsCordon`], for shallow bushy shapes: each node rescans its
//!     full ancestor chain, `O(n·h)` work, which skips the envelopes'
//!     `O(log² n)` constant where `h` is small.
//!
//!   Both cordons produce identical results, so the choice is invisible
//!   except in wall clock and work counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hld;

mod envelope;

use envelope::{EnvelopeArena, NO_ENTRY};
use hld::HeavyLightDecomposition;
use pardp_core::{run_phase_parallel, EitherCordon, FrontierArena, PhaseParallel};
use pardp_parutils::{round_min_grain, Metrics, MetricsCollector};
use rayon::prelude::*;

/// Shape contract of the transition cost `w` along root paths, required by
/// the work-efficient cordon ([`HldTreeGlwsCordon`]).
///
/// For ancestors `a`, `b` with `d_a <= d_b` on one root path and query
/// distances `x <= y` (both `>= d_b`):
///
/// * **`Convex`** — `w(d_b, x) - w(d_a, x) >= w(d_b, y) - w(d_a, y)`: once
///   the deeper candidate is at least as good, it stays at least as good
///   (costs of the form `g(d_v - d_u)` with convex `g`),
/// * **`Concave`** — the mirrored inequality: the deeper candidate wins on a
///   prefix of query distances (`g` concave, e.g. capped-linear or `√`).
///
/// The naive and baseline evaluators need no such assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostShape {
    /// Deeper decisions win on a suffix of query distances.
    Convex,
    /// Deeper decisions win on a prefix of query distances.
    Concave,
}

/// A rooted tree instance for Tree-GLWS.
pub struct TreeGlwsInstance<W, E> {
    /// `parent[v]` for `v in 1..=n`; `parent[0]` is ignored (node 0 is the
    /// root).  Parents must have smaller indices.
    pub parent: Vec<usize>,
    /// Distance of every node from the root (monotone along root paths).
    pub dist: Vec<u64>,
    /// Boundary value `D[0]`.
    pub d0: i64,
    /// Transition cost `w(d_u, d_v)` on root distances (`d_u < d_v`).
    pub w: W,
    /// `E[u] = f(D[u], u)`.
    pub e: E,
}

/// Result of a Tree-GLWS computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeGlwsResult {
    /// DP value of every node (`d[0]` is the boundary).
    pub d: Vec<i64>,
    /// Best ancestor decision of every node (`best[0] = 0`).
    pub best: Vec<usize>,
    /// Work / round counters.
    pub metrics: Metrics,
}

impl<W, E> TreeGlwsInstance<W, E>
where
    W: Fn(u64, u64) -> i64 + Sync,
    E: Fn(i64, usize) -> i64 + Sync,
{
    /// Build an instance from a parent array and per-node edge lengths
    /// (`edge_len[v]` is the length of the edge from `parent[v]` to `v`).
    pub fn new(parent: Vec<usize>, edge_len: &[u64], d0: i64, w: W, e: E) -> Self {
        let n = parent.len() - 1;
        assert_eq!(edge_len.len(), n + 1, "need one edge length per node");
        let mut dist = vec![0u64; n + 1];
        for v in 1..=n {
            assert!(parent[v] < v, "parents must precede children");
            dist[v] = dist[parent[v]] + edge_len[v];
        }
        TreeGlwsInstance {
            parent,
            dist,
            d0,
            w,
            e,
        }
    }

    /// Number of non-root nodes.
    pub fn n(&self) -> usize {
        self.parent.len() - 1
    }

    fn value_via(&self, d_u: i64, u: usize, v: usize) -> i64 {
        (self.e)(d_u, u) + (self.w)(self.dist[u], self.dist[v])
    }
}

/// Reference evaluation: every node scans all of its ancestors.
pub fn naive_tree_glws<W, E>(inst: &TreeGlwsInstance<W, E>) -> TreeGlwsResult
where
    W: Fn(u64, u64) -> i64 + Sync,
    E: Fn(i64, usize) -> i64 + Sync,
{
    let metrics = MetricsCollector::new();
    let n = inst.n();
    let mut d = vec![0i64; n + 1];
    let mut best = vec![0usize; n + 1];
    d[0] = inst.d0;
    let mut edges = 0u64;
    for v in 1..=n {
        let mut u = inst.parent[v];
        let mut bv = i64::MAX;
        let mut bu = 0usize;
        loop {
            edges += 1;
            let cand = inst.value_via(d[u], u, v);
            if cand < bv {
                bv = cand;
                bu = u;
            }
            if u == 0 {
                break;
            }
            u = inst.parent[u];
        }
        d[v] = bv;
        best[v] = bu;
    }
    metrics.add_edges(edges);
    metrics.add_states(n as u64);
    TreeGlwsResult {
        d,
        best,
        metrics: metrics.snapshot(),
    }
}

/// Parallel Tree-GLWS (Theorem 5.3) through the shape router
/// [`tree_glws_cordon_auto`]: the heavy-light envelope cordon on deep trees,
/// the ancestor-rescan cordon on shallow ones.  Rounds are the tree's depth
/// levels either way.  `shape` declares which [`CostShape`] contract
/// `inst.w` satisfies; only the envelope cordon relies on it.
pub fn parallel_tree_glws<W, E>(inst: &TreeGlwsInstance<W, E>, shape: CostShape) -> TreeGlwsResult
where
    W: Fn(u64, u64) -> i64 + Sync,
    E: Fn(i64, usize) -> i64 + Sync,
{
    let metrics = MetricsCollector::new();
    let (d, best) = run_phase_parallel(tree_glws_cordon_auto(inst, shape), &metrics);
    TreeGlwsResult {
        d,
        best,
        metrics: metrics.snapshot(),
    }
}

/// Single-pass depth profile of a `parent` array: everything the router
/// needs (node count, height, average depth) plus the per-node depths
/// themselves, so the routed constructor can hand the buffer straight to
/// [`TreeGlwsCordon`] instead of recomputing it (the probe + level build would
/// otherwise be the dominant cost of a shallow-tree solve).
struct DepthProfile {
    /// `depth[v]` = edge depth of node `v` (`depth[0] == 0`).
    depth: Vec<u32>,
    /// `counts[t]` = number of nodes at depth `t` (`counts[0] == 0`:
    /// the root is not a DP state).
    counts: Vec<usize>,
    /// Maximum entry of `depth`.
    height: usize,
    /// Sum over non-root nodes — the baseline cordon's exact probe count.
    total_depth: u64,
    /// True when `depth` is nondecreasing in node index — BFS-style
    /// numberings (paths, stars, balanced trees) — so the depth-sorted node
    /// order is simply `1..=n` and no permutation needs materializing.
    sorted: bool,
}

impl DepthProfile {
    fn new(parent: &[usize]) -> Self {
        let n = parent.len() - 1;
        let mut depth = vec![0u32; n + 1];
        let mut counts = vec![0usize; 1];
        let mut height = 0u32;
        let mut total_depth = 0u64;
        let mut sorted = true;
        let mut prev = 0u32;
        for v in 1..=n {
            let dv = depth[parent[v]] + 1;
            depth[v] = dv;
            if dv > height {
                height = dv;
                counts.resize(height as usize + 1, 0);
            }
            counts[dv as usize] += 1;
            total_depth += dv as u64;
            sorted &= dv >= prev;
            prev = dv;
        }
        DepthProfile {
            depth,
            counts,
            height: height as usize,
            total_depth,
            sorted,
        }
    }

    fn avg_depth(&self) -> f64 {
        let n = self.depth.len() - 1;
        if n == 0 {
            0.0
        } else {
            self.total_depth as f64 / n as f64
        }
    }

    /// Whether the heavy-light envelope cordon is predicted cheaper than the
    /// ancestor rescan on this tree (see [`tree_glws_cordon_auto`]).
    fn prefers_hld(&self) -> bool {
        let n = self.depth.len() - 1;
        let estimate = ((n as f64 + 2.0).log2()) * ((self.height as f64 + 2.0).log2());
        self.avg_depth() > estimate
    }
}

/// Pick the cheaper Tree-GLWS cordon for `inst` from one `O(n)` pass over its
/// parent array, as an [`EitherCordon`] value any phase-parallel driver
/// (including the facade's `CordonSolver`) can run directly: `First` is the
/// `O(n·h)` ancestor-rescan cordon ([`TreeGlwsCordon`]), `Second` the
/// heavy-light envelope cordon ([`HldTreeGlwsCordon`], Theorem 5.3).
///
/// The baseline rescans exactly `avg_depth` ancestors per node; the HLD
/// cordon spends `O(log n)` segment queries, each an `O(log h)` binary-lifted
/// descent, plus takeover binary searches per settled node.  The router
/// estimates the envelope cost as `log2(n) · log2(h)` per node and picks HLD
/// only when the measured average chain length exceeds it — so shallow
/// balanced or random-attachment trees (avg depth `O(log n)`) keep the
/// baseline, while paths and caterpillars (avg depth `Θ(n)`) get the
/// work-efficient cordon.  The constants cancel well in practice: on the
/// benchmark's balanced 8-ary tree the estimate is ≈ 9× the average depth, on
/// a path it is ≈ 1% of it.
///
/// `shape` is only consulted when the HLD cordon is chosen; both alternatives
/// produce identical `(d, best)` outputs and identical depth-level frontiers.
pub fn tree_glws_cordon_auto<'a, W, E>(
    inst: &'a TreeGlwsInstance<W, E>,
    shape: CostShape,
) -> EitherCordon<TreeGlwsCordon<'a, W, E>, HldTreeGlwsCordon<'a, W, E>>
where
    W: Fn(u64, u64) -> i64 + Sync,
    E: Fn(i64, usize) -> i64 + Sync,
{
    let prof = DepthProfile::new(&inst.parent);
    if prof.prefers_hld() {
        EitherCordon::Second(HldTreeGlwsCordon::new(inst, shape))
    } else {
        EitherCordon::First(TreeGlwsCordon::from_profile(inst, prof))
    }
}

/// Counting-sort the non-root nodes by depth into one flat CSR buffer:
/// `order[offsets[t]..offsets[t + 1]]` holds the depth `t + 1` nodes in node
/// order (depths are contiguous so no level is empty).  One flat allocation
/// instead of a `Vec<Vec<_>>` whose widest level reallocates while filling.
fn depth_order(prof: DepthProfile) -> (Option<Vec<u32>>, Vec<usize>) {
    let n = prof.depth.len() - 1;
    let mut offsets = prof.counts;
    for t in 1..offsets.len() {
        offsets[t] += offsets[t - 1];
    }
    if prof.sorted {
        // Depth already nondecreasing in node index: the sorted order is the
        // identity, level `t` is simply nodes `offsets[t] + 1 ..= offsets[t + 1]`.
        return (None, offsets);
    }
    let mut cursor = offsets.clone();
    let mut order = vec![0u32; n];
    for v in 1..=n {
        let c = &mut cursor[prof.depth[v] as usize - 1];
        order[*c] = v as u32;
        *c += 1;
    }
    (Some(order), offsets)
}

/// [`PhaseParallel`] instance for Tree-GLWS: frontiers are the tree's depth
/// levels (all decisions of a node are proper ancestors, hence in earlier
/// frontiers), each evaluated in parallel.
pub struct TreeGlwsCordon<'a, W, E> {
    inst: &'a TreeGlwsInstance<W, E>,
    /// Non-root nodes counting-sorted by depth (`None` when node index order
    /// is already depth-sorted — the identity permutation); see
    /// [`depth_order`].
    order: Option<Vec<u32>>,
    /// `order[offsets[t]..offsets[t + 1]]` is the depth `t + 1` level.
    offsets: Vec<usize>,
    next_level: usize,
    d: Vec<i64>,
    best: Vec<usize>,
    /// Reused per-round result buffer (grown once to the widest level).
    scratch: Vec<(i64, usize)>,
}

impl<'a, W, E> TreeGlwsCordon<'a, W, E>
where
    W: Fn(u64, u64) -> i64 + Sync,
    E: Fn(i64, usize) -> i64 + Sync,
{
    /// Group the nodes by depth and initialize the DP arrays.
    pub fn new(inst: &'a TreeGlwsInstance<W, E>) -> Self {
        Self::from_profile(inst, DepthProfile::new(&inst.parent))
    }

    /// [`TreeGlwsCordon::new`] with an already-computed depth profile, so the
    /// shape router's probe pass is not repeated by the constructor.
    fn from_profile(inst: &'a TreeGlwsInstance<W, E>, prof: DepthProfile) -> Self {
        let n = inst.n();
        let mut d = vec![0i64; n + 1];
        d[0] = inst.d0;
        let (order, offsets) = depth_order(prof);
        TreeGlwsCordon {
            inst,
            order,
            offsets,
            next_level: 0,
            d,
            best: vec![0usize; n + 1],
            scratch: Vec::new(),
        }
    }
}

/// The baseline relaxation of one node: scan every proper ancestor of `v` and
/// keep the best decision.  Shared by the parallel round and its sub-grain
/// inline fast path so both compute bit-identical `(value, decision)` pairs.
#[inline]
fn relax_ancestors<W, E>(inst: &TreeGlwsInstance<W, E>, d: &[i64], v: usize) -> (i64, usize)
where
    W: Fn(u64, u64) -> i64 + Sync,
    E: Fn(i64, usize) -> i64 + Sync,
{
    let mut u = inst.parent[v];
    let mut bv = i64::MAX;
    let mut bu = 0usize;
    loop {
        let cand = inst.value_via(d[u], u, v);
        if cand < bv {
            bv = cand;
            bu = u;
        }
        if u == 0 {
            break;
        }
        u = inst.parent[u];
    }
    (bv, bu)
}

impl<W, E> PhaseParallel for TreeGlwsCordon<'_, W, E>
where
    W: Fn(u64, u64) -> i64 + Sync,
    E: Fn(i64, usize) -> i64 + Sync,
{
    /// DP values plus the best ancestor decision of every node.
    type Output = (Vec<i64>, Vec<usize>);

    fn is_done(&self) -> bool {
        self.next_level + 1 >= self.offsets.len()
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        let inst = self.inst;
        let (lo, hi) = (
            self.offsets[self.next_level],
            self.offsets[self.next_level + 1],
        );
        let size = hi - lo;
        // Every node in a level sits at the same depth, so the level's
        // ancestor-probe count is `size × depth` — no per-node pass needed.
        metrics.add_edges(size as u64 * (self.next_level as u64 + 1));
        if round_min_grain(size) >= size {
            // Sub-grain fast path: the grain rule keeps this round inline
            // anyway, so skip the tuple staging and write results directly —
            // node values only read strictly shallower (already-settled)
            // entries of `d`, never this level's.
            for i in lo..hi {
                let v = match &self.order {
                    Some(order) => order[i] as usize,
                    None => i + 1,
                };
                let (bv, bu) = relax_ancestors(inst, &self.d, v);
                self.d[v] = bv;
                self.best[v] = bu;
            }
        } else {
            let d_ref = &self.d;
            // Reuse the round scratch: `collect_into_vec` refills the buffer
            // in place, so after the widest level no round allocates.
            let mut results = std::mem::take(&mut self.scratch);
            match &self.order {
                Some(order) => order[lo..hi]
                    .par_iter()
                    .map(|&v| relax_ancestors(inst, d_ref, v as usize))
                    .with_min_len(round_min_grain(size))
                    .collect_into_vec(&mut results),
                None => (lo..hi)
                    .into_par_iter()
                    .map(|i| relax_ancestors(inst, d_ref, i + 1))
                    .with_min_len(round_min_grain(size))
                    .collect_into_vec(&mut results),
            }
            for (i, &(bv, bu)) in results.iter().enumerate() {
                let v = match &self.order {
                    Some(order) => order[lo + i] as usize,
                    None => lo + i + 1,
                };
                self.d[v] = bv;
                self.best[v] = bu;
            }
            self.scratch = results;
        }
        self.next_level += 1;
        size
    }

    fn finish(self) -> Self::Output {
        (self.d, self.best)
    }

    fn round_budget(&self) -> Option<u64> {
        // One round per depth level: the tree height.
        Some((self.offsets.len() - 1) as u64)
    }
}

/// Work-efficient [`PhaseParallel`] instance for Tree-GLWS (Theorem 5.3).
///
/// Frontiers are the same depth levels as [`TreeGlwsCordon`]'s, so the round
/// theorem (rounds == tree height) is unchanged; the difference is what one
/// round costs.  A heavy path is a vertical chain with at most one node per
/// depth, so each round settles at most one new position per path, and every
/// settled node is pushed — exactly once — onto its path's persistent
/// best-decision envelope.  A frontier node then consults the `O(log n)`
/// heavy-path prefixes covering its ancestor chain, each answered by one
/// binary-lifted envelope query in `O(log n)` comparisons with *no* cost
/// evaluations.  Per-pair takeover keys are found by binary search during the
/// push, which is where the cost function is evaluated: `O(log maxdist)`
/// evaluations amortized per settled node.  Total work `O(n · polylog)`
/// versus the baseline's `O(n · h)`; per-round cost is proportional to the
/// frontier size times polylog factors.
pub struct HldTreeGlwsCordon<'a, W, E> {
    inst: &'a TreeGlwsInstance<W, E>,
    hld: HeavyLightDecomposition,
    levels: Vec<Vec<usize>>,
    next_level: usize,
    d: Vec<i64>,
    best: Vec<usize>,
    arena: EnvelopeArena,
    /// Per path (indexed by its head node): current top-of-stack entry.
    tops: Vec<u32>,
    /// Per settled node: the envelope entry created when it settled — i.e. the
    /// persistent version covering its path's positions up to the node.
    version: Vec<u32>,
    /// Reused per-round result buffer, sized for the widest level.
    scratch: Vec<(usize, i64, usize, u64, u64)>,
}

impl<'a, W, E> HldTreeGlwsCordon<'a, W, E>
where
    W: Fn(u64, u64) -> i64 + Sync,
    E: Fn(i64, usize) -> i64 + Sync,
{
    /// Decompose the tree, group the nodes by depth and seed the root's
    /// envelope.  `shape` declares which [`CostShape`] contract `inst.w`
    /// satisfies; it is trusted, not checked (the property-test suite checks
    /// it against [`naive_tree_glws`] for the workloads we ship).
    pub fn new(inst: &'a TreeGlwsInstance<W, E>, shape: CostShape) -> Self {
        let n = inst.n();
        let mut d = vec![0i64; n + 1];
        d[0] = inst.d0;
        let hld = HeavyLightDecomposition::new(&inst.parent);
        // Bucket the depth frontiers from the decomposition's depth vector
        // rather than recomputing depths via depth_levels().
        let mut levels: Vec<Vec<usize>> = vec![Vec::new(); hld.height()];
        for v in 1..=n {
            levels[hld.depth[v] - 1].push(v);
        }
        let widest = levels.iter().map(Vec::len).max().unwrap_or(0);
        let max_x = inst.dist.iter().copied().max().unwrap_or(0);
        // A heavy-path stack holds at most one node per depth, so the arena's
        // lifting rows are sized by the tree height, not n — on shallow trees
        // that cache-blocks the push/query hot loops (see envelope.rs).
        let mut arena = EnvelopeArena::new(n, hld.height() + 1, max_x, shape);
        let mut tops = vec![NO_ENTRY; n + 1];
        let mut version = vec![NO_ENTRY; n + 1];
        // The root is settled from the start: it seeds its path's envelope.
        let f = |u: usize, x: u64| (inst.e)(d[u], u) + (inst.w)(inst.dist[u], x);
        let (root_entry, _) = arena.push(NO_ENTRY, 0, inst.dist[0], &f);
        tops[0] = root_entry;
        version[0] = root_entry;
        HldTreeGlwsCordon {
            inst,
            hld,
            levels,
            next_level: 0,
            d,
            best: vec![0usize; n + 1],
            arena,
            tops,
            version,
            scratch: Vec::with_capacity(widest),
        }
    }
}

impl<W, E> PhaseParallel for HldTreeGlwsCordon<'_, W, E>
where
    W: Fn(u64, u64) -> i64 + Sync,
    E: Fn(i64, usize) -> i64 + Sync,
{
    /// DP values plus the best ancestor decision of every node.
    type Output = (Vec<i64>, Vec<usize>);

    fn is_done(&self) -> bool {
        self.next_level >= self.levels.len()
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        // Delegate through `round_with` so both driver entry points share one
        // round body; a caller-less arena only costs its first-use growth.
        let mut arena = FrontierArena::new();
        self.round_with(metrics, &mut arena)
    }

    fn round_with(&mut self, metrics: &MetricsCollector, frontier: &mut FrontierArena) -> usize {
        let inst = self.inst;
        let level = &self.levels[self.next_level];
        let (arena, hld, d_ref, version) = (&self.arena, &self.hld, &self.d, &self.version);
        // Query phase: every frontier node walks its O(log n) heavy-path
        // segments, nearest first, querying each segment's persistent
        // envelope version.  Read-only, hence fully parallel.  Ties across
        // segments keep the nearest segment and ties inside a segment keep
        // the deepest position, so `best` matches the naive ancestor scan
        // exactly.
        let mut results = std::mem::take(&mut self.scratch);
        level
            .par_iter()
            .map(|&v| {
                let dv = inst.dist[v];
                let (mut bv, mut bu) = (i64::MAX, 0usize);
                let (mut probes, mut edges) = (0u64, 0u64);
                for x in hld.ancestor_segments(&inst.parent, v) {
                    let (entry, p) = arena.query(version[x], dv);
                    probes += p;
                    let u = arena.node_of(entry);
                    edges += 1;
                    let cand = inst.value_via(d_ref[u], u, v);
                    if cand < bv {
                        bv = cand;
                        bu = u;
                    }
                }
                (v, bv, bu, probes, edges)
            })
            .with_min_len(round_min_grain(level.len()))
            .collect_into_vec(&mut results);
        let size = level.len();
        let (mut probes, mut edges) = (0u64, 0u64);
        for &(v, bv, bu, p, e) in &results {
            self.d[v] = bv;
            self.best[v] = bu;
            probes += p;
            edges += e;
        }
        // Settle phase, prepare half (parallel): a heavy path holds at most
        // one node per depth, so the round's settled nodes lie on pairwise
        // distinct heavy paths and every `tops[head]` read here is stable for
        // the whole round — each prepare computes exactly the pops and
        // takeover key the sequential push loop would have, independently of
        // the others.  The prepared pushes are staged in the driver arena's
        // pair buffer, `(below | evals, key)` packed per node, sized on first
        // use for the widest level like `results`.
        let (arena, hld, d_ref, tops) = (&self.arena, &self.hld, &self.d, &self.tops);
        let f = |u: usize, x: u64| (inst.e)(d_ref[u], u) + (inst.w)(inst.dist[u], x);
        let preps = frontier.pairs_mut();
        preps.reserve(results.capacity());
        results
            .par_iter()
            .map(|&(v, ..)| {
                let (below, key, evals) =
                    arena.prepare_push(tops[hld.head[v]], v, inst.dist[v], &f);
                debug_assert!(evals < 1 << 32, "eval count must fit the packed word");
                (((below as u64) << 32) | evals, key)
            })
            .with_min_len(round_min_grain(results.len()))
            .collect_into_vec(preps);
        // Commit half (sequential, in level order): appending the prepared
        // entries in the same fixed order the sequential loop used yields a
        // bit-identical arena layout at O(log) words per node, so results are
        // deterministic at any thread count.
        for (&(v, ..), &(packed, key)) in results.iter().zip(preps.iter()) {
            let entry = self.arena.commit_push((packed >> 32) as u32, v, key);
            let h = self.hld.head[v];
            self.tops[h] = entry;
            self.version[v] = entry;
            edges += packed & 0xFFFF_FFFF;
        }
        metrics.add_edges(edges);
        metrics.add_probes(probes);
        self.scratch = results;
        self.next_level += 1;
        size
    }

    fn finish(self) -> Self::Output {
        (self.d, self.best)
    }

    fn round_budget(&self) -> Option<u64> {
        // One round per depth level, exactly like the baseline cordon.
        Some(self.levels.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run one Tree-GLWS cordon through the driver.
    fn solve<P>(cordon: P) -> TreeGlwsResult
    where
        P: PhaseParallel<Output = (Vec<i64>, Vec<usize>)>,
    {
        let metrics = MetricsCollector::new();
        let (d, best) = run_phase_parallel(cordon, &metrics);
        TreeGlwsResult {
            d,
            best,
            metrics: metrics.snapshot(),
        }
    }

    fn convex_w(du: u64, dv: u64) -> i64 {
        let len = (dv - du) as i64;
        10 + len * len
    }

    fn random_tree(n: usize, chain_bias: u64, seed: u64) -> (Vec<usize>, Vec<u64>) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut parent = vec![0usize; n + 1];
        let mut lens = vec![0u64; n + 1];
        for v in 1..=n {
            parent[v] = if v == 1 || next() % 100 < chain_bias {
                v - 1
            } else {
                (next() % v as u64) as usize
            };
            lens[v] = next() % 5 + 1;
        }
        (parent, lens)
    }

    #[test]
    fn chain_tree_reduces_to_1d_glws() {
        // A path is exactly the 1-D problem; compare against pardp-glws naive.
        let n = 60usize;
        let parent: Vec<usize> = (0..=n).map(|v| v.saturating_sub(1)).collect();
        let lens = vec![1u64; n + 1];
        let inst = TreeGlwsInstance::new(parent, &lens, 0, convex_w, |d, _| d);
        let tree = parallel_tree_glws(&inst, CostShape::Convex);
        let oned = pardp_glws::naive_glws(&pardp_glws::ConvexGapCost::new(n, 10, 0, 1));
        assert_eq!(tree.d, oned.d);
    }

    #[test]
    fn depth_cordon_matches_naive_on_random_trees() {
        for seed in 0..6 {
            for &bias in &[0u64, 40, 90] {
                let (parent, lens) = random_tree(200, bias, seed);
                let inst =
                    TreeGlwsInstance::new(parent, &lens, 5, convex_w, |d, u| d + (u % 3) as i64);
                let want = naive_tree_glws(&inst);
                let got = solve(TreeGlwsCordon::new(&inst));
                assert_eq!(got.d, want.d, "seed {seed} bias {bias}");
                assert_eq!(got.best, want.best, "seed {seed} bias {bias}");
            }
        }
    }

    #[test]
    fn rounds_equal_tree_height() {
        let (parent, lens) = random_tree(300, 70, 9);
        let inst = TreeGlwsInstance::new(parent.clone(), &lens, 0, convex_w, |d, _| d);
        let r = parallel_tree_glws(&inst, CostShape::Convex);
        let mut depth = vec![0usize; parent.len()];
        let mut h = 0;
        for v in 1..parent.len() {
            depth[v] = depth[parent[v]] + 1;
            h = h.max(depth[v]);
        }
        assert_eq!(r.metrics.rounds as usize, h);
    }

    #[test]
    fn siblings_share_dp_values() {
        // A star: every leaf has the same single decision (the root).
        let n = 20;
        let parent = vec![0usize; n + 1];
        let lens = vec![3u64; n + 1];
        let inst = TreeGlwsInstance::new(parent, &lens, 7, convex_w, |d, _| d);
        let r = parallel_tree_glws(&inst, CostShape::Convex);
        for v in 1..=n {
            assert_eq!(r.d[v], 7 + 10 + 9);
            assert_eq!(r.best[v], 0);
        }
        assert_eq!(r.metrics.rounds, 1);
    }

    #[test]
    fn empty_tree() {
        let inst = TreeGlwsInstance::new(vec![0], &[0], 3, convex_w, |d, _| d);
        let r = parallel_tree_glws(&inst, CostShape::Convex);
        assert_eq!(r.d, vec![3]);
        assert_eq!(r.metrics.rounds, 0);
    }

    #[test]
    #[should_panic(expected = "parents must precede children")]
    fn bad_parent_order_rejected() {
        let _ = TreeGlwsInstance::new(vec![0, 2, 0], &[0, 1, 1], 0, convex_w, |d, _| d);
    }

    // -- the work-efficient cordon (Theorem 5.3) ---------------------------

    fn concave_w(du: u64, dv: u64) -> i64 {
        let len = dv - du;
        4 + 3 * len.min(7) as i64
    }

    #[test]
    fn hld_matches_naive_on_random_trees_convex() {
        for seed in 0..6 {
            for &bias in &[0u64, 40, 90, 100] {
                let (parent, lens) = random_tree(250, bias, seed);
                let inst =
                    TreeGlwsInstance::new(parent, &lens, 5, convex_w, |d, u| d + (u % 3) as i64);
                let want = naive_tree_glws(&inst);
                let got = solve(HldTreeGlwsCordon::new(&inst, CostShape::Convex));
                assert_eq!(got.d, want.d, "seed {seed} bias {bias}");
                assert_eq!(got.best, want.best, "seed {seed} bias {bias}");
            }
        }
    }

    #[test]
    fn hld_matches_naive_on_random_trees_concave() {
        for seed in 0..6 {
            for &bias in &[0u64, 40, 90, 100] {
                let (parent, lens) = random_tree(250, bias, seed);
                let inst =
                    TreeGlwsInstance::new(parent, &lens, 2, concave_w, |d, u| d + (u % 5) as i64);
                let want = naive_tree_glws(&inst);
                let got = solve(HldTreeGlwsCordon::new(&inst, CostShape::Concave));
                assert_eq!(got.d, want.d, "seed {seed} bias {bias}");
                assert_eq!(got.best, want.best, "seed {seed} bias {bias}");
            }
        }
    }

    #[test]
    fn hld_rounds_and_frontiers_match_the_baseline_cordon() {
        let (parent, lens) = random_tree(400, 70, 13);
        let inst = TreeGlwsInstance::new(parent, &lens, 0, convex_w, |d, _| d);
        let base = solve(TreeGlwsCordon::new(&inst));
        let hld = solve(HldTreeGlwsCordon::new(&inst, CostShape::Convex));
        assert_eq!(hld.metrics.rounds, base.metrics.rounds);
        assert_eq!(hld.metrics.frontier_sizes, base.metrics.frontier_sizes);
        assert_eq!(hld.d, base.d);
        assert_eq!(hld.best, base.best);
    }

    #[test]
    fn hld_work_is_subquadratic_on_a_path() {
        // On a path the baseline rescans every ancestor: exactly n(n+1)/2
        // edges.  The heavy-light cordon must stay polylog per node.
        let n = 4_000usize;
        let parent: Vec<usize> = (0..=n).map(|v| v.saturating_sub(1)).collect();
        let lens = vec![1u64; n + 1];
        let inst = TreeGlwsInstance::new(parent, &lens, 0, convex_w, |d, _| d);
        let base = solve(TreeGlwsCordon::new(&inst));
        assert_eq!(base.metrics.edges_relaxed, (n * (n + 1) / 2) as u64);
        let hld = solve(HldTreeGlwsCordon::new(&inst, CostShape::Convex));
        assert_eq!(hld.d, base.d);
        assert_eq!(hld.best, base.best);
        let log = (usize::BITS - n.leading_zeros()) as u64;
        assert!(
            hld.metrics.work_proxy() <= 12 * n as u64 * log,
            "HLD work {} exceeds 12·n·log n = {}",
            hld.metrics.work_proxy(),
            12 * n as u64 * log
        );
        assert!(hld.metrics.work_proxy() < base.metrics.edges_relaxed);
    }

    #[test]
    fn hld_star_and_empty_trees() {
        let n = 20;
        let inst = TreeGlwsInstance::new(
            vec![0usize; n + 1],
            &vec![3u64; n + 1],
            7,
            convex_w,
            |d, _| d,
        );
        let r = solve(HldTreeGlwsCordon::new(&inst, CostShape::Convex));
        for v in 1..=n {
            assert_eq!(r.d[v], 7 + 10 + 9);
            assert_eq!(r.best[v], 0);
        }
        assert_eq!(r.metrics.rounds, 1);
        let empty = TreeGlwsInstance::new(vec![0], &[0], 3, convex_w, |d, _| d);
        let r = solve(HldTreeGlwsCordon::new(&empty, CostShape::Convex));
        assert_eq!(r.d, vec![3]);
        assert_eq!(r.metrics.rounds, 0);
    }

    // -- the shape-adaptive router ----------------------------------------

    /// Whether [`tree_glws_cordon_auto`] builds the HLD cordon
    /// (`EitherCordon::Second`) for the tree `parent`.
    fn routes_to_hld(parent: Vec<usize>) -> bool {
        let lens = vec![1u64; parent.len()];
        let inst = TreeGlwsInstance::new(parent, &lens, 0, convex_w, |d, _| d);
        matches!(
            tree_glws_cordon_auto(&inst, CostShape::Convex),
            EitherCordon::Second(_)
        )
    }

    #[test]
    fn router_picks_hld_on_deep_and_baseline_on_shallow_shapes() {
        let n = 5_000usize;
        let path: Vec<usize> = (0..=n).map(|v| v.saturating_sub(1)).collect();
        assert!(routes_to_hld(path), "a path's avg depth is Θ(n)");
        let star = vec![0usize; n + 1];
        assert!(
            !routes_to_hld(star),
            "a star has depth 1 everywhere — envelopes can never pay"
        );
        let balanced: Vec<usize> = (0..=n).map(|v| v.saturating_sub(1) / 8).collect();
        assert!(
            !routes_to_hld(balanced),
            "an 8-ary balanced tree has avg depth O(log n)"
        );
        // Caterpillar: spine of n/2 plus legs — deep on average.
        let cat: Vec<usize> = (0..=n)
            .map(|v| {
                if v <= n / 2 {
                    v.saturating_sub(1)
                } else {
                    (v * 7 + 3) % (n / 2)
                }
            })
            .collect();
        assert!(routes_to_hld(cat), "a caterpillar's avg depth is Θ(spine)");
    }

    #[test]
    fn auto_router_matches_naive_and_reports_identical_frontiers() {
        // Both sides of the router's cut, with the cordon each tree must
        // take (`Some(true)`: HLD): bias 100 builds a path, bias 0 a
        // random-attachment tree.
        let mut trees = vec![(
            "star".to_string(),
            vec![0usize; 301],
            vec![3u64; 301],
            Some(false),
        )];
        for seed in 0..4 {
            for (bias, to_hld) in [(0u64, Some(false)), (40, None), (100, Some(true))] {
                let (parent, lens) = random_tree(300, bias, seed);
                trees.push((format!("seed {seed} bias {bias}"), parent, lens, to_hld));
            }
        }
        for (name, parent, lens, to_hld) in trees {
            let inst = TreeGlwsInstance::new(parent, &lens, 5, convex_w, |d, u| d + (u % 3) as i64);
            let routed = tree_glws_cordon_auto(&inst, CostShape::Convex);
            let hld = matches!(routed, EitherCordon::Second(_));
            assert!(to_hld.is_none_or(|want| want == hld), "{name}: HLD {hld}");
            let want = naive_tree_glws(&inst);
            let base = solve(TreeGlwsCordon::new(&inst));
            let auto = parallel_tree_glws(&inst, CostShape::Convex);
            assert_eq!(auto.d, want.d, "{name}");
            assert_eq!(auto.best, want.best, "{name}");
            assert_eq!(
                auto.metrics.frontier_sizes, base.metrics.frontier_sizes,
                "{name}: both cordons use depth frontiers"
            );
        }
    }

    #[test]
    fn hld_stalls_on_an_impossible_round_budget() {
        use pardp_core::{try_run_phase_parallel_with_budget, StallError};
        let (parent, lens) = random_tree(100, 80, 3);
        let inst = TreeGlwsInstance::new(parent, &lens, 0, convex_w, |d, _| d);
        let metrics = MetricsCollector::new();
        let cordon = HldTreeGlwsCordon::new(&inst, CostShape::Convex);
        let height = cordon.round_budget().unwrap();
        assert!(height > 1);
        let err =
            try_run_phase_parallel_with_budget(cordon, &metrics, Some(height - 1)).unwrap_err();
        assert!(matches!(err, StallError::BudgetExhausted { budget, .. } if budget == height - 1));
    }
}
