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
//! * [`parallel_tree_glws`] — Theorem 5.3's cordon, [`TreeGlwsCordon`]: the
//!   frontiers are the tree's depth levels (every node's decisions live
//!   strictly above it), all nodes of a level in parallel.  One `O(n)` pass
//!   over the parent array measures the depths; from them the cordon orders
//!   the nodes by level and compares the average ancestor-chain length
//!   against the envelopes' polylog per-node estimate to pick how a node
//!   finds its best ancestor:
//!   * on deep shapes (paths, caterpillars), the **work-efficient version of
//!     Theorem 5.3**: a [heavy-light
//!     decomposition](hld::HeavyLightDecomposition) partitions every
//!     ancestor chain into `O(log n)` heavy-path prefixes, and each heavy
//!     path keeps a *persistent* monotone best-decision envelope that grows
//!     as levels settle, so one node costs `O(log² n)` instead of
//!     `O(depth)` and each round's work is proportional to its frontier size
//!     (times polylog).  The transition cost must be convex or concave along
//!     root paths (declared via [`CostShape`]);
//!   * on shallow bushy shapes, each node rescans its full ancestor chain,
//!     `O(n·h)` work, which skips the envelopes' `O(log² n)` constant where
//!     `h` is small.
//!
//!   Both arms produce identical results and frontiers, so the choice is
//!   invisible except in wall clock and work counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hld;

mod envelope;

use envelope::{EnvelopeArena, NO_ENTRY};
use hld::HeavyLightDecomposition;
use pardp_core::{run_phase_parallel, PhaseParallel};
use pardp_parutils::{round_min_grain, Metrics, MetricsCollector};
use rayon::prelude::*;

/// Shape contract of the transition cost `w` along root paths, required by
/// the work-efficient arm of [`TreeGlwsCordon`].
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
/// The naive evaluator and the ancestor rescan need no such assumption.
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

/// Why [`TreeGlwsInstance::try_new`] rejects a tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeInputError {
    /// The parent array is empty, so the tree has no root.
    Empty,
    /// `edge_len` does not hold one length per node.
    LengthMismatch {
        /// Nodes in the tree, `parent.len()`.
        nodes: usize,
        /// `edge_len.len()`.
        edge_lengths: usize,
    },
    /// A node's parent does not come before it.
    ParentOrder {
        /// The node.
        node: usize,
        /// Its parent, `>= node`.
        parent: usize,
    },
    /// A node's distance from the root exceeds `u64::MAX`.
    DistanceOverflow {
        /// The first node, in index order, whose distance overflows.
        node: usize,
    },
}

impl std::fmt::Display for TreeInputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TreeInputError::Empty => {
                f.write_str("tree: the parent array is empty; node 0 is the root")
            }
            TreeInputError::LengthMismatch {
                nodes,
                edge_lengths,
            } => write!(
                f,
                "tree: need one edge length per node, got {edge_lengths} for {nodes} nodes"
            ),
            TreeInputError::ParentOrder { node, parent } => write!(
                f,
                "tree: parents must precede children, but node {node} has parent {parent}"
            ),
            TreeInputError::DistanceOverflow { node } => write!(
                f,
                "tree: the distance of node {node} from the root exceeds u64::MAX"
            ),
        }
    }
}

impl std::error::Error for TreeInputError {}

impl<W, E> TreeGlwsInstance<W, E>
where
    W: Fn(u64, u64) -> i64 + Sync,
    E: Fn(i64, usize) -> i64 + Sync,
{
    /// Build an instance from a parent array and per-node edge lengths
    /// (`edge_len[v]` is the length of the edge from `parent[v]` to `v`;
    /// `edge_len[0]` is ignored), checking that the tree has a root, one
    /// edge length per node, parents before children, and root distances
    /// that fit in `u64`.
    pub fn try_new(
        parent: Vec<usize>,
        edge_len: &[u64],
        d0: i64,
        w: W,
        e: E,
    ) -> Result<Self, TreeInputError> {
        if parent.is_empty() {
            return Err(TreeInputError::Empty);
        }
        if edge_len.len() != parent.len() {
            return Err(TreeInputError::LengthMismatch {
                nodes: parent.len(),
                edge_lengths: edge_len.len(),
            });
        }
        let mut dist = vec![0u64; parent.len()];
        for v in 1..parent.len() {
            let p = parent[v];
            if p >= v {
                return Err(TreeInputError::ParentOrder { node: v, parent: p });
            }
            dist[v] = dist[p]
                .checked_add(edge_len[v])
                .ok_or(TreeInputError::DistanceOverflow { node: v })?;
        }
        Ok(TreeGlwsInstance {
            parent,
            dist,
            d0,
            w,
            e,
        })
    }

    /// [`TreeGlwsInstance::try_new`], panicking where it returns an error.
    ///
    /// # Panics
    ///
    /// Panics with the [`TreeInputError`] message if `parent` is empty, if
    /// `edge_len` does not hold one length per node, if a parent does not
    /// precede its child ("parents must precede children"), or if a root
    /// distance exceeds `u64::MAX`.
    pub fn new(parent: Vec<usize>, edge_len: &[u64], d0: i64, w: W, e: E) -> Self {
        match Self::try_new(parent, edge_len, d0, w, e) {
            Ok(inst) => inst,
            #[expect(
                clippy::panic,
                reason = "documented panicking facade over the typed \
                          `try_new` (see the `# Panics` docs above)"
            )]
            Err(err) => panic!("{err}"),
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

/// Parallel Tree-GLWS (Theorem 5.3): [`TreeGlwsCordon::new`] through the
/// driver, so the heavy-path envelopes on deep trees and the ancestor rescan
/// on shallow ones.  Rounds are the tree's depth levels either way.  `shape`
/// declares which [`CostShape`] contract `inst.w` satisfies; only the
/// envelopes rely on it.
pub fn parallel_tree_glws<W, E>(inst: &TreeGlwsInstance<W, E>, shape: CostShape) -> TreeGlwsResult
where
    W: Fn(u64, u64) -> i64 + Sync,
    E: Fn(i64, usize) -> i64 + Sync,
{
    let metrics = MetricsCollector::new();
    let (d, best) = run_phase_parallel(TreeGlwsCordon::new(inst, shape), &metrics);
    TreeGlwsResult {
        d,
        best,
        metrics: metrics.snapshot(),
    }
}

/// Single-pass depth profile of a `parent` array: the per-node depths and
/// the statistics that choose the cordon's arm.
struct DepthProfile {
    /// `depth[v]` = edge depth of node `v` (`depth[0] == 0`).
    depth: Vec<u32>,
    /// Maximum entry of `depth`.
    height: usize,
    /// Sum over non-root nodes — the rescan's exact ancestor count.
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
        let mut height = 0u32;
        let mut total_depth = 0u64;
        let mut sorted = true;
        for v in 1..=n {
            let dv = depth[parent[v]] + 1;
            depth[v] = dv;
            sorted &= dv >= depth[v - 1];
            height = height.max(dv);
            total_depth += dv as u64;
        }
        DepthProfile {
            depth,
            height: height as usize,
            total_depth,
            sorted,
        }
    }

    /// Whether the heavy-path envelopes are predicted cheaper than the
    /// ancestor rescan on this tree.
    ///
    /// The rescan evaluates exactly `avg_depth` ancestors per node; the
    /// envelopes spend `O(log n)` segment queries, each an `O(log h)`
    /// binary-lifted descent, plus takeover binary searches per settled node.
    /// The estimate of the envelope cost is `log2(n) · log2(h)` per node, and
    /// the envelopes win only where the measured average chain length exceeds
    /// it — so shallow balanced or random-attachment trees (avg depth
    /// `O(log n)`) keep the rescan, while paths and caterpillars (avg depth
    /// `Θ(n)`) get the work-efficient arm.  The constants cancel well in
    /// practice: on the benchmark's balanced 8-ary tree the estimate is ≈ 9×
    /// the average depth, on a path it is ≈ 1% of it.
    fn prefers_envelopes(&self) -> bool {
        let n = self.depth.len() - 1;
        if n == 0 {
            return false;
        }
        let estimate = ((n as f64 + 2.0).log2()) * ((self.height as f64 + 2.0).log2());
        self.total_depth as f64 / n as f64 > estimate
    }
}

/// Sort the non-root nodes by depth into one flat CSR buffer:
/// `order[offsets[t]..offsets[t + 1]]` holds the depth `t + 1` nodes in node
/// order (depths are contiguous so no level is empty).  `order` is `None`
/// where the numbering is already depth-sorted: level `t` is then nodes
/// `offsets[t] + 1 ..= offsets[t + 1]`.
fn depth_order(prof: DepthProfile) -> (Option<Vec<u32>>, Vec<usize>) {
    let (depth, n) = (&prof.depth, prof.depth.len() - 1);
    let mut offsets = vec![0usize; prof.height + 1];
    if prof.sorted {
        // Sorted depths rise by at most one per node: a level starts where
        // its depth first appears.  The counting loop below would give the
        // same offsets, but on a long run of one depth each increment waits
        // for the store of the one before: on `balanced_tree(2·10⁵, 8)` it
        // took 0.3 ms more than this scan, and a solve of
        // `balanced_tree(2·10⁴, 8)` 10% longer (2-core Xeon).
        for v in 1..=n {
            if depth[v] != depth[v - 1] {
                offsets[depth[v] as usize - 1] = v - 1;
            }
        }
        offsets[prof.height] = n;
        return (None, offsets);
    }
    // Counting sort: level sizes, their prefix sums, then one scatter.
    for &dv in &depth[1..] {
        offsets[dv as usize] += 1;
    }
    for t in 1..offsets.len() {
        offsets[t] += offsets[t - 1];
    }
    let mut cursor = offsets.clone();
    let mut order = vec![0u32; n];
    for v in 1..=n {
        let c = &mut cursor[depth[v] as usize - 1];
        order[*c] = v as u32;
        *c += 1;
    }
    (Some(order), offsets)
}

/// The node at position `i` of the level order (see [`depth_order`]).
#[inline]
fn node_at(order: Option<&[u32]>, i: usize) -> usize {
    match order {
        Some(order) => order[i] as usize,
        None => i + 1,
    }
}

/// [`PhaseParallel`] instance for Tree-GLWS (Theorem 5.3): frontiers are the
/// tree's depth levels (all decisions of a node are proper ancestors, hence
/// in earlier frontiers), each evaluated in parallel, so rounds == tree
/// height.
///
/// A round branches in two places, both outside its per-node loops: how the
/// level's nodes find their best ancestor, and, for the envelopes only, the
/// settle phase that pushes the level onto them.
///
/// * **Ancestor rescan**: each node evaluates its whole ancestor chain,
///   `O(depth)` per node and `O(n·h)` in all.
/// * **Heavy-path envelopes** (the work-efficient version): a heavy path is
///   a vertical chain with at most one node per depth, so each round settles
///   at most one new position per path, and every settled node is pushed —
///   exactly once — onto its path's persistent best-decision envelope.  A
///   frontier node then consults the `O(log n)` heavy-path prefixes covering
///   its ancestor chain, each answered by one binary-lifted envelope query
///   in `O(log n)` comparisons with *no* cost evaluations.  Per-pair takeover
///   keys are found by binary search during the push, which is where the
///   cost function is evaluated: `O(log maxdist)` evaluations amortized per
///   settled node.  Total work `O(n · polylog)`; per-round cost is
///   proportional to the frontier size times polylog factors.
///
/// [`TreeGlwsCordon::new`] picks the arm from the tree's depths;
/// [`TreeGlwsCordon::rescan`] and [`TreeGlwsCordon::envelopes`] force one.
/// Both arms produce identical `(d, best)` outputs and frontiers.
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
    /// Reused result buffer of the levels that fork (grown once to the
    /// widest of them).
    scratch: Vec<(i64, usize)>,
    /// The heavy-path envelopes, or `None` where nodes rescan their
    /// ancestor chains.
    envelopes: Option<Envelopes>,
}

/// The envelope arm's state: one persistent best-decision stack per heavy
/// path, all in one arena.
struct Envelopes {
    hld: HeavyLightDecomposition,
    arena: EnvelopeArena,
    /// Per path (indexed by its head node): current top-of-stack entry.
    tops: Vec<u32>,
    /// Per settled node: the envelope entry created when it settled — i.e. the
    /// persistent version covering its path's positions up to the node.
    version: Vec<u32>,
    /// Reused per-round prepared envelope pushes, `(below << 32 | evals,
    /// key)` per node, sized for the widest level.
    preps: Vec<(u64, u64)>,
}

impl<'a, W, E> TreeGlwsCordon<'a, W, E>
where
    W: Fn(u64, u64) -> i64 + Sync,
    E: Fn(i64, usize) -> i64 + Sync,
{
    /// Order the nodes by depth and take the arm predicted cheaper on this
    /// tree: the heavy-path envelopes where the average ancestor chain is
    /// longer than their polylog per-node estimate, the rescan elsewhere.
    /// `shape` declares which [`CostShape`] contract `inst.w` satisfies; it
    /// is trusted, not checked, and only the envelopes rely on it.
    pub fn new(inst: &'a TreeGlwsInstance<W, E>, shape: CostShape) -> Self {
        let prof = DepthProfile::new(&inst.parent);
        let shape = prof.prefers_envelopes().then_some(shape);
        Self::build(inst, prof, shape)
    }

    /// The cordon with the ancestor-rescan arm, on any tree.
    pub fn rescan(inst: &'a TreeGlwsInstance<W, E>) -> Self {
        Self::build(inst, DepthProfile::new(&inst.parent), None)
    }

    /// The cordon with the heavy-path envelope arm, on any tree; `shape` as
    /// in [`TreeGlwsCordon::new`] (the property-test suite checks it against
    /// [`naive_tree_glws`] for the workloads we ship).
    pub fn envelopes(inst: &'a TreeGlwsInstance<W, E>, shape: CostShape) -> Self {
        Self::build(inst, DepthProfile::new(&inst.parent), Some(shape))
    }

    /// Order the nodes by level, initialize the DP arrays and, given a
    /// shape, decompose the tree and seed the root's envelope.
    fn build(
        inst: &'a TreeGlwsInstance<W, E>,
        prof: DepthProfile,
        shape: Option<CostShape>,
    ) -> Self {
        let n = inst.n();
        let mut d = vec![0i64; n + 1];
        d[0] = inst.d0;
        let height = prof.height;
        let (order, offsets) = depth_order(prof);
        let envelopes = shape.map(|shape| {
            let widest = offsets.windows(2).map(|l| l[1] - l[0]).max().unwrap_or(0);
            let max_x = inst.dist.iter().copied().max().unwrap_or(0);
            // A heavy-path stack holds at most one node per depth, so the
            // arena's lifting rows are sized by the tree height, not n — on
            // shallow trees that cache-blocks the push/query hot loops (see
            // envelope.rs).
            let mut arena = EnvelopeArena::new(n, height + 1, max_x, shape);
            let mut tops = vec![NO_ENTRY; n + 1];
            let mut version = vec![NO_ENTRY; n + 1];
            // The root is settled from the start: it seeds its path's envelope.
            let f = |u: usize, x: u64| (inst.e)(d[u], u) + (inst.w)(inst.dist[u], x);
            let (root_entry, _) = arena.push(NO_ENTRY, 0, inst.dist[0], &f);
            tops[0] = root_entry;
            version[0] = root_entry;
            Envelopes {
                hld: HeavyLightDecomposition::new(&inst.parent),
                arena,
                tops,
                version,
                preps: Vec::with_capacity(widest),
            }
        });
        TreeGlwsCordon {
            inst,
            order,
            offsets,
            next_level: 0,
            d,
            best: vec![0usize; n + 1],
            scratch: Vec::new(),
            envelopes,
        }
    }
}

/// The rescan of one node: evaluate every proper ancestor of `v` and keep
/// the best decision (ties keep the nearest ancestor).
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

/// Relax the level at positions `lo..hi` of the level order with `find`,
/// write each node's value and best ancestor into `d` and `best`, and return
/// what `find` counted per node, summed under `add`.  The envelope queries
/// count `(edges, probes)`; the rescan counts nothing (`()`), since its level
/// evaluates exactly size × depth ancestors, and a per-node pair through the
/// forked reduce made it a few percent slower on unsorted shallow trees.
///
/// A level the grain rule keeps inline writes each result straight into the
/// DP arrays: a node reads only strictly shallower, already-settled entries
/// of `d`, never its own level's.  A level that forks stages its results in
/// `scratch`, so after the widest such level no round allocates.
fn relax_level<C, F, A>(
    order: Option<&[u32]>,
    (lo, hi): (usize, usize),
    d: &mut [i64],
    best: &mut [usize],
    scratch: &mut Vec<(i64, usize)>,
    find: F,
    add: A,
) -> C
where
    C: Default + Send,
    F: Fn(&[i64], usize) -> (i64, usize, C) + Sync,
    A: Fn(C, C) -> C + Sync,
{
    let size = hi - lo;
    let grain = round_min_grain(size);
    if grain >= size {
        let mut counts = C::default();
        for i in lo..hi {
            let v = node_at(order, i);
            let (bv, bu, c) = find(d, v);
            d[v] = bv;
            best[v] = bu;
            counts = add(counts, c);
        }
        return counts;
    }
    if scratch.len() < size {
        // A fresh zeroed buffer: no pass clears it before the grains fill it.
        *scratch = vec![(0, 0); size];
    }
    let d_ref = &*d;
    let counts = scratch[..size]
        .par_iter_mut()
        .enumerate()
        .map(|(k, slot)| {
            let (bv, bu, c) = find(d_ref, node_at(order, lo + k));
            *slot = (bv, bu);
            c
        })
        .with_min_len(grain)
        .reduce(C::default, &add);
    for (i, &(bv, bu)) in (lo..hi).zip(&scratch[..size]) {
        let v = node_at(order, i);
        d[v] = bv;
        best[v] = bu;
    }
    counts
}

impl Envelopes {
    /// The envelope query of one node: walk the `O(log n)` heavy-path
    /// segments of `v`'s ancestor chain, nearest first, and query each
    /// segment's persistent envelope version.  Read-only, hence fully
    /// parallel.  Ties across segments keep the nearest segment and ties
    /// inside a segment keep the deepest position, so `best` matches the
    /// naive ancestor scan exactly.
    fn best_ancestor<W, E>(
        &self,
        inst: &TreeGlwsInstance<W, E>,
        d: &[i64],
        v: usize,
    ) -> (i64, usize, (u64, u64))
    where
        W: Fn(u64, u64) -> i64 + Sync,
        E: Fn(i64, usize) -> i64 + Sync,
    {
        let dv = inst.dist[v];
        let (mut bv, mut bu) = (i64::MAX, 0usize);
        let (mut edges, mut probes) = (0u64, 0u64);
        for x in self.hld.ancestor_segments(&inst.parent, v) {
            let (entry, p) = self.arena.query(self.version[x], dv);
            probes += p;
            let u = self.arena.node_of(entry);
            edges += 1;
            let cand = inst.value_via(d[u], u, v);
            if cand < bv {
                bv = cand;
                bu = u;
            }
        }
        (bv, bu, (edges, probes))
    }

    /// Push the settled level at positions `lo..hi` of the level order onto
    /// its paths' envelopes, and return the cost evaluations spent.
    fn settle<W, E>(
        &mut self,
        inst: &TreeGlwsInstance<W, E>,
        d: &[i64],
        order: Option<&[u32]>,
        (lo, hi): (usize, usize),
    ) -> u64
    where
        W: Fn(u64, u64) -> i64 + Sync,
        E: Fn(i64, usize) -> i64 + Sync,
    {
        // Prepare half (parallel): a heavy path holds at most one node per
        // depth, so the level's nodes lie on pairwise distinct heavy paths
        // and every `tops[head]` read here is stable for the whole round —
        // each prepare computes exactly the pops and takeover key the
        // sequential push loop would have, independently of the others.
        let (arena, head, tops) = (&self.arena, &self.hld.head, &self.tops);
        let f = |u: usize, x: u64| (inst.e)(d[u], u) + (inst.w)(inst.dist[u], x);
        (lo..hi)
            .into_par_iter()
            .map(|i| {
                let v = node_at(order, i);
                let (below, key, evals) = arena.prepare_push(tops[head[v]], v, inst.dist[v], &f);
                debug_assert!(evals < 1 << 32, "eval count must fit the packed word");
                (((below as u64) << 32) | evals, key)
            })
            .with_min_len(round_min_grain(hi - lo))
            .collect_into_vec(&mut self.preps);
        // Commit half (sequential, in level order): appending the prepared
        // entries in the same fixed order the sequential loop used yields a
        // bit-identical arena layout at O(log) words per node, so results are
        // deterministic at any thread count.
        let mut evals = 0u64;
        for (i, &(packed, key)) in (lo..hi).zip(&self.preps) {
            let v = node_at(order, i);
            let entry = self.arena.commit_push((packed >> 32) as u32, v, key);
            self.tops[self.hld.head[v]] = entry;
            self.version[v] = entry;
            evals += packed & 0xFFFF_FFFF;
        }
        evals
    }
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
        let level = (
            self.offsets[self.next_level],
            self.offsets[self.next_level + 1],
        );
        let order = self.order.as_deref();
        let (d, best, scratch) = (&mut self.d, &mut self.best, &mut self.scratch);
        let (mut edges, probes) = match &self.envelopes {
            None => {
                let find = |d: &[i64], v| {
                    let (bv, bu) = relax_ancestors(inst, d, v);
                    (bv, bu, ())
                };
                relax_level(order, level, d, best, scratch, find, |(), ()| ());
                // Every node of the level evaluates its `depth` ancestors.
                ((level.1 - level.0) as u64 * (self.next_level as u64 + 1), 0)
            }
            Some(env) => {
                let find = |d: &[i64], v| env.best_ancestor(inst, d, v);
                let add = |a: (u64, u64), b: (u64, u64)| (a.0 + b.0, a.1 + b.1);
                relax_level(order, level, d, best, scratch, find, add)
            }
        };
        if let Some(env) = &mut self.envelopes {
            edges += env.settle(inst, &self.d, order, level);
        }
        metrics.add_edges(edges);
        metrics.add_probes(probes);
        self.next_level += 1;
        level.1 - level.0
    }

    fn finish(self) -> Self::Output {
        (self.d, self.best)
    }

    fn round_budget(&self) -> Option<u64> {
        // One round per depth level: the tree height.
        Some((self.offsets.len() - 1) as u64)
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
                let got = solve(TreeGlwsCordon::rescan(&inst));
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

    /// The error `try_new` returns for `parent` and `edge_len`.
    fn input_error(parent: Vec<usize>, edge_len: &[u64]) -> Option<TreeInputError> {
        TreeGlwsInstance::try_new(parent, edge_len, 0, convex_w, |d, _| d).err()
    }

    #[test]
    fn empty_parent_array_is_rejected() {
        assert_eq!(input_error(vec![], &[]), Some(TreeInputError::Empty));
    }

    #[test]
    fn mismatched_edge_lengths_are_rejected() {
        assert_eq!(
            input_error(vec![0, 0, 1], &[0, 1]),
            Some(TreeInputError::LengthMismatch {
                nodes: 3,
                edge_lengths: 2
            })
        );
    }

    #[test]
    fn parent_after_child_is_rejected() {
        let err = input_error(vec![0, 0, 2], &[0, 1, 1]);
        assert_eq!(
            err,
            Some(TreeInputError::ParentOrder { node: 2, parent: 2 })
        );
        assert!(err.is_some_and(|e| e.to_string().contains("parents must precede children")));
    }

    #[test]
    fn root_distance_overflow_is_rejected() {
        // Node 1 sits exactly at `u64::MAX`; node 2 would wrap to 1.
        assert_eq!(
            input_error(vec![0, 0, 1], &[0, u64::MAX, 2]),
            Some(TreeInputError::DistanceOverflow { node: 2 })
        );
        assert_eq!(input_error(vec![0, 0, 0], &[0, u64::MAX, 2]), None);
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
                let got = solve(TreeGlwsCordon::envelopes(&inst, CostShape::Convex));
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
                let got = solve(TreeGlwsCordon::envelopes(&inst, CostShape::Concave));
                assert_eq!(got.d, want.d, "seed {seed} bias {bias}");
                assert_eq!(got.best, want.best, "seed {seed} bias {bias}");
            }
        }
    }

    #[test]
    fn hld_rounds_and_frontiers_match_the_baseline_cordon() {
        let (parent, lens) = random_tree(400, 70, 13);
        let inst = TreeGlwsInstance::new(parent, &lens, 0, convex_w, |d, _| d);
        let base = solve(TreeGlwsCordon::rescan(&inst));
        let hld = solve(TreeGlwsCordon::envelopes(&inst, CostShape::Convex));
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
        let base = solve(TreeGlwsCordon::rescan(&inst));
        assert_eq!(base.metrics.edges_relaxed, (n * (n + 1) / 2) as u64);
        let hld = solve(TreeGlwsCordon::envelopes(&inst, CostShape::Convex));
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
        let r = solve(TreeGlwsCordon::envelopes(&inst, CostShape::Convex));
        for v in 1..=n {
            assert_eq!(r.d[v], 7 + 10 + 9);
            assert_eq!(r.best[v], 0);
        }
        assert_eq!(r.metrics.rounds, 1);
        let empty = TreeGlwsInstance::new(vec![0], &[0], 3, convex_w, |d, _| d);
        let r = solve(TreeGlwsCordon::envelopes(&empty, CostShape::Convex));
        assert_eq!(r.d, vec![3]);
        assert_eq!(r.metrics.rounds, 0);
    }

    // -- the arm `TreeGlwsCordon::new` picks --------------------------------

    /// Whether [`TreeGlwsCordon::new`] takes the envelopes for the tree
    /// `parent`: only their queries count probes.
    fn routes_to_hld(parent: Vec<usize>) -> bool {
        let lens = vec![1u64; parent.len()];
        let inst = TreeGlwsInstance::new(parent, &lens, 0, convex_w, |d, _| d);
        solve(TreeGlwsCordon::new(&inst, CostShape::Convex))
            .metrics
            .probes
            > 0
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
        // Both sides of the arm choice, with the arm each tree must take
        // (`Some(true)`: the envelopes): bias 100 builds a path, bias 0 a
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
            let want = naive_tree_glws(&inst);
            let base = solve(TreeGlwsCordon::rescan(&inst));
            let auto = parallel_tree_glws(&inst, CostShape::Convex);
            // Only the envelopes' queries count probes.
            let hld = auto.metrics.probes > 0;
            assert!(to_hld.is_none_or(|want| want == hld), "{name}: HLD {hld}");
            assert_eq!(auto.d, want.d, "{name}");
            assert_eq!(auto.best, want.best, "{name}");
            assert_eq!(
                auto.metrics.frontier_sizes, base.metrics.frontier_sizes,
                "{name}: both cordons use depth frontiers"
            );
        }
    }

    #[test]
    fn hld_round_budget_equals_the_rounds_it_runs() {
        // The budget the driver arms is the tree height, with no slack: one
        // round fewer would trip the stall guard.
        let (parent, lens) = random_tree(100, 80, 3);
        let inst = TreeGlwsInstance::new(parent, &lens, 0, convex_w, |d, _| d);
        let cordon = TreeGlwsCordon::envelopes(&inst, CostShape::Convex);
        let budget = cordon.round_budget();
        let r = solve(cordon);
        assert!(r.metrics.rounds > 1);
        assert_eq!(budget, Some(r.metrics.rounds));
    }
}
