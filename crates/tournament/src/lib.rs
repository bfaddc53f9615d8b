//! Tournament (winner) tree with batched prefix-minimum extraction.
//!
//! This is the data structure behind the parallel LIS and sparse-LCS cordon
//! algorithms (Sec. 3 of the paper, following Gu et al. [47]).  The tree is
//! built once over the whole input sequence; each cordon round extracts — and
//! removes — every *prefix-minimum record*, i.e. every still-active element
//! that is not blocked by any smaller active element to its left.  Extracting
//! `l` records out of `L` remaining elements costs `O(l · log(L/l))` work and
//! `O(log L)` span, which is what gives the `O(n log k)` / `O(L log n)` total
//! work bounds of Theorems 3.1 and 3.2.
//!
//! # Layout
//!
//! The tree is *cache-blocked*: the sequence is cut into blocks of
//! [`BLOCK`] consecutive positions, and every block has the same shape — its
//! leaf keys, cut into chunks of [`CHUNK`], and a flat implicit heap of
//! [`HEAP`] slots over the chunk minima (`node v`'s children at `2v`/`2v+1`,
//! chunk `c`'s minimum at `CHUNKS + c`).  The tree keeps one buffer of leaf
//! blocks and one of heaps, built in parallel straight from the caller's
//! keys; the last block is padded with empty slots.  A small flat *summary
//! heap* over the per-block minima routes each round to the blocks that
//! actually contain records.  Inside a block the extraction descends the heap
//! only into subtrees whose minimum is a record (a child is pruned before the
//! call); each chunk it reaches is extracted by one linear scan of its leaves,
//! carrying the running minimum of the round-start keys (so a leaf taken
//! earlier in the scan still blocks the leaves after it, as the descent's
//! pre-extraction carry does), and the same scan yields the chunk's new
//! minimum.  A round extracting `l` records out of `L` therefore costs
//! `O(l · (log(L/l) + CHUNK))` work; the summary repair after it recomputes
//! each dirty summary node once.
//!
//! Slots hold plain keys: [`Key::MAX`] marks an empty slot, and a carry of
//! `Key::MAX` means nothing lies to the left.  Callers keep every key value
//! all the same: if some key equals `Key::MAX`, the constructor moves the run
//! of consecutive present keys that ends there down by one, onto the value
//! just below the run, which no key takes.  That map is injective and
//! order-preserving, so the records do not change, and every key the tree
//! returns is mapped back.  When no key equals `Key::MAX` the map is the
//! identity.
//!
//! Records are never buffered: the cordon passes each block the slice of its
//! DP values that is aligned with the block's positions, and the block writes
//! the round number straight into it.  Touched blocks are extracted
//! concurrently by splitting the leaf blocks, the heaps and the value slice at
//! the same block boundary (`split_at_mut`), so blocks are disjoint `&mut`
//! borrows — no interior mutability, no record buffers and no per-round
//! allocation.  [`TournamentTree::extract_prefix_minima`] runs the same block
//! kernel with a sink that pushes `(position, key)` pairs instead.
//!
//! Rounds whose estimated work is below the active grain hint run entirely
//! on the calling thread: no pool job is pushed and no worker is woken
//! (pinned by the dispatch-counter test in `tests/pool_fastpath.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pardp_core::PhaseParallel;
use pardp_parutils::{round_min_grain, MetricsCollector};

/// Positions per cache block.  A block's leaves and heap take 5 KiB for
/// `u32` keys and 10 KiB for `i64` keys, small enough that one round's scan
/// of a block stays in L1/L2.
const BLOCK: usize = 1024;

/// Leaves per chunk: the unit a block scans instead of descending further.
/// Kept small because a chunk holding a single record still costs a full
/// scan.  On a 2-core Xeon host, LIS on `random_sequence(10⁶, 2⁴⁰, _)`, whose
/// rounds take scattered single records, ran ~20% slower with 16 leaves per
/// chunk than with 8, while 4 gave back about a fifth of 8's round-time gain
/// on dense staircases.
const CHUNK: usize = 8;

/// Chunks per block: the leaves of a block's heap.
const CHUNKS: usize = BLOCK / CHUNK;

/// Slots of a block's heap over its chunk minima (slot 0 is unused).
const HEAP: usize = 2 * CHUNKS;

/// A key type the tree can hold: totally ordered, with a largest value that
/// the tree reserves to mark an empty slot.  Implemented for the primitive
/// integers.
pub trait Key: Ord + Copy + Send + Sync {
    /// The smallest value.
    const MIN: Self;
    /// The largest value, which marks an empty slot inside the tree.
    const MAX: Self;
    /// The value just below `self`; never called on [`Key::MIN`].
    fn pred(self) -> Self;
    /// The value just above `self`; never called on [`Key::MAX`].
    fn succ(self) -> Self;
}

macro_rules! impl_key {
    ($($t:ty),*) => {$(
        impl Key for $t {
            const MIN: Self = <$t>::MIN;
            const MAX: Self = <$t>::MAX;
            #[inline]
            fn pred(self) -> Self {
                self - 1
            }
            #[inline]
            fn succ(self) -> Self {
                self + 1
            }
        }
    )*};
}

impl_key!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

/// Whether an earlier element with an *equal* key blocks a later element from
/// being a prefix-minimum record.
///
/// * For the classic strictly-increasing LIS, a decision `j` relaxes `i` only
///   when `A[j] < A[i]`, so ties do **not** block: use [`TieRule::TiesAreRecords`].
/// * For the non-decreasing variant (`A[j] <= A[i]` relaxes), ties do block:
///   use [`TieRule::TiesBlocked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieRule {
    /// An element equal to the running minimum is itself a record.
    TiesAreRecords,
    /// An element equal to the running minimum is blocked (not a record).
    TiesBlocked,
}

impl TieRule {
    /// Whether `key` is a record behind `carry`, the minimum key to its left.
    #[inline]
    fn beats<K: Ord>(self, key: K, carry: K) -> bool {
        match self {
            TieRule::TiesAreRecords => key <= carry,
            TieRule::TiesBlocked => key < carry,
        }
    }

    /// [`TieRule::beats`] in the tree's encoding: an empty slot (`K::MAX`) is
    /// never a record, and a carry of `K::MAX` (nothing to the left) blocks
    /// no key.
    #[inline]
    fn is_record<K: Key>(self, key: K, carry: K) -> bool {
        key != K::MAX && self.beats(key, carry)
    }
}

/// The map from input keys to stored keys.  It moves the run of consecutive
/// present keys that ends at `K::MAX` down by one, onto `absent`: the largest
/// value no key takes.  With no key at `K::MAX`, `absent` is `K::MAX` and the
/// map is the identity.
#[derive(Debug, Clone, Copy)]
struct Remap<K> {
    absent: K,
}

impl<K: Key> Remap<K> {
    /// The map for keys of which at least one equals `K::MAX`.  Sorts a copy
    /// of the keys, so inputs holding `K::MAX` pay `O(n log n)` extra work.
    ///
    /// # Panics
    /// If the keys take every value of `K`, leaving none for the sentinel.
    fn over(len: usize, key: impl Fn(usize) -> K) -> Self {
        let mut keys: Vec<K> = (0..len).map(key).collect();
        keys.sort_unstable();
        let mut absent = K::MAX;
        for &k in keys.iter().rev() {
            if k < absent {
                break;
            }
            if k == absent {
                assert!(
                    absent != K::MIN,
                    "the keys take every value of the key type, so none is free to mark empty slots"
                );
                absent = absent.pred();
            }
        }
        Remap { absent }
    }

    /// The stored key of input key `k`.
    #[inline]
    fn store(self, k: K) -> K {
        if k > self.absent {
            k.pred()
        } else {
            k
        }
    }

    /// The input key of stored key `s`.
    #[inline]
    fn load(self, s: K) -> K {
        if s >= self.absent {
            s.succ()
        } else {
            s
        }
    }
}

/// One block: its leaf keys and the heap over its chunk minima.
struct Block<'a, K> {
    /// Stored keys; `K::MAX` once extracted, and past the input's end.
    leaves: &'a mut [K; BLOCK],
    /// Implicit heap: root at 1, node `v`'s children at `2v` / `2v+1`, the
    /// minimum of chunk `c` at `CHUNKS + c`.
    heap: &'a mut [K; HEAP],
}

impl<K: Key> Block<'_, K> {
    /// Build the heap over freshly written leaves.
    fn summarize(&mut self) {
        for (slot, chunk) in self.heap[CHUNKS..]
            .iter_mut()
            .zip(self.leaves.chunks_exact(CHUNK))
        {
            *slot = chunk.iter().copied().fold(K::MAX, K::min);
        }
        for v in (1..CHUNKS).rev() {
            self.heap[v] = self.heap[2 * v].min(self.heap[2 * v + 1]);
        }
    }

    /// Extract every record of this block, given the minimum active key
    /// strictly to the block's left at round start.  Calls `take(i, key)` for
    /// each record in increasing local position `i`, with its stored key.
    fn extract(&mut self, carry: K, rule: TieRule, take: &mut impl FnMut(usize, K)) {
        if rule.is_record(self.heap[1], carry) {
            self.extract_node(1, carry, rule, take);
        }
    }

    /// Extract the records under `node`, which holds at least one.  Children
    /// are pruned before the call, so the descent only follows subtrees that
    /// hold records.
    fn extract_node(
        &mut self,
        node: usize,
        carry: K,
        rule: TieRule,
        take: &mut impl FnMut(usize, K),
    ) {
        if node >= CHUNKS {
            self.heap[node] = self.extract_chunk(node - CHUNKS, carry, rule, take);
            return;
        }
        let (left, right) = (2 * node, 2 * node + 1);
        // The right child's carry uses the *pre-extraction* minimum of the
        // left child: elements removed on the left in this very round were
        // active when the round started, and the cordon is defined against
        // the state at the start of the round (all extracted elements share
        // the same DP value).
        let right_carry = carry.min(self.heap[left]);
        if rule.is_record(self.heap[left], carry) {
            self.extract_node(left, carry, rule, take);
        }
        if rule.is_record(self.heap[right], right_carry) {
            self.extract_node(right, right_carry, rule, take);
        }
        self.heap[node] = self.heap[left].min(self.heap[right]);
    }

    /// Extract the records of chunk `c` with one scan of its leaves, and
    /// return the chunk's new minimum.
    fn extract_chunk(
        &mut self,
        c: usize,
        mut carry: K,
        rule: TieRule,
        take: &mut impl FnMut(usize, K),
    ) -> K {
        let first = c * CHUNK;
        let mut min = K::MAX;
        for (i, leaf) in self.leaves[first..first + CHUNK].iter_mut().enumerate() {
            let k = *leaf;
            if rule.is_record(k, carry) {
                *leaf = K::MAX;
                take(first + i, k);
            } else {
                min = min.min(k);
            }
            // The carry runs over round-start keys, extracted or not.
            carry = carry.min(k);
        }
        min
    }
}

/// Blocks `first..` of a tree together with the DP values of their
/// positions, borrowed as one so that all three slices split at the same
/// block boundary.
struct BlocksMut<'a, K> {
    leaves: &'a mut [[K; BLOCK]],
    heaps: &'a mut [[K; HEAP]],
    values: &'a mut [u32],
    first: usize,
}

impl<K> BlocksMut<'_, K> {
    /// Split just before global block `b`.
    fn split_at(self, b: usize) -> (Self, Self) {
        let at = b - self.first;
        let (ll, lr) = self.leaves.split_at_mut(at);
        let (hl, hr) = self.heaps.split_at_mut(at);
        let (vl, vr) = self.values.split_at_mut(at * BLOCK);
        let left = BlocksMut {
            leaves: ll,
            heaps: hl,
            values: vl,
            first: self.first,
        };
        let right = BlocksMut {
            leaves: lr,
            heaps: hr,
            values: vr,
            first: b,
        };
        (left, right)
    }
}

/// Extract `touched` blocks in parallel by recursively splitting `blocks`:
/// the touched list is sorted by block index, so each half of the list maps
/// to a disjoint part of `blocks` (no interior mutability needed).  Every
/// record's value is set to `round`.  `grain` is the fork cutoff in
/// touched-block units.  Returns the number of records extracted.
fn extract_touched<K: Key>(
    blocks: BlocksMut<'_, K>,
    touched: &[(usize, K)],
    rule: TieRule,
    round: u32,
    grain: usize,
) -> usize {
    if touched.len() <= grain.max(1) {
        let BlocksMut {
            leaves,
            heaps,
            values,
            first,
        } = blocks;
        let mut count = 0;
        for &(b, carry) in touched {
            let local = b - first;
            let block_values = &mut values[local * BLOCK..];
            let mut block = Block {
                leaves: &mut leaves[local],
                heap: &mut heaps[local],
            };
            block.extract(carry, rule, &mut |i, _| {
                block_values[i] = round;
                count += 1;
            });
        }
        return count;
    }
    let mid = touched.len() / 2;
    let (left, right) = touched.split_at(mid);
    let (bl, br) = blocks.split_at(right[0].0);
    let (l, r) = rayon::join(
        || extract_touched(bl, left, rule, round, grain),
        || extract_touched(br, right, rule, round, grain),
    );
    l + r
}

/// Write `map(key(i))` into the leaf of every position `i < len` and build
/// each block's heap, in parallel over blocks.  Returns whether some key
/// equals `K::MAX`.
fn fill<K: Key>(
    leaves: &mut [[K; BLOCK]],
    heaps: &mut [[K; HEAP]],
    len: usize,
    key: &(impl Fn(usize) -> K + Sync),
    map: impl Fn(K) -> K + Sync,
) -> bool {
    use rayon::prelude::*;
    let grain_blocks = round_min_grain(len).div_ceil(BLOCK).max(1);
    leaves
        .par_iter_mut()
        .zip(heaps.par_iter_mut())
        .enumerate()
        .with_min_len(grain_blocks)
        .map(|(b, (leaves, heap))| {
            let first = b * BLOCK;
            let mut saw_max = false;
            for (i, leaf) in leaves[..BLOCK.min(len - first)].iter_mut().enumerate() {
                let k = key(first + i);
                saw_max |= k == K::MAX;
                *leaf = map(k);
            }
            Block { leaves, heap }.summarize();
            saw_max
        })
        .reduce(|| false, |a, b| a | b)
}

/// Tournament tree over a fixed sequence of keys.
#[derive(Debug, Clone)]
pub struct TournamentTree<K> {
    /// Leaf keys, one array per block (see the crate's *Layout* section).
    leaves: Vec<[K; BLOCK]>,
    /// Heaps over the chunk minima, one per block.
    heaps: Vec<[K; HEAP]>,
    /// Implicit heap over the per-block minima: root at 1, block `b`'s leaf
    /// at `scap + b`.  Routes each round to the blocks containing records in
    /// `O(t · log(B/t))` for `t` touched blocks.
    summary: Vec<K>,
    scap: usize,
    /// Blocks touched by the current round with their carries, in increasing
    /// block order.  Sized for every block up front, so no round grows it.
    touched: Vec<(usize, K)>,
    remap: Remap<K>,
    len: usize,
    active: usize,
    rule: TieRule,
}

impl<K: Key> TournamentTree<K> {
    /// Build the tree over positions `0..len`, reading the key of position
    /// `i` as `key(i)`, with the given tie rule.  `O(n)` work, `O(log n)`
    /// span; blocks are filled in parallel for large inputs, fully inline for
    /// sub-grain ones.  Inline, the number of allocations does not depend on
    /// `len` unless some key equals `K::MAX` (see the crate's *Layout*
    /// section).
    ///
    /// # Panics
    /// If the keys take every value of `K`, which only a key type narrower
    /// than the input's length allows.
    pub fn new(len: usize, key: impl Fn(usize) -> K + Sync, rule: TieRule) -> Self {
        let num_blocks = len.div_ceil(BLOCK);
        let mut leaves = vec![[K::MAX; BLOCK]; num_blocks];
        let mut heaps = vec![[K::MAX; HEAP]; num_blocks];
        let mut remap = Remap { absent: K::MAX };
        if fill(&mut leaves, &mut heaps, len, &key, |k| k) {
            remap = Remap::over(len, &key);
            fill(&mut leaves, &mut heaps, len, &key, |k| remap.store(k));
        }
        let scap = num_blocks.next_power_of_two().max(1);
        let mut summary = vec![K::MAX; 2 * scap];
        for (slot, heap) in summary[scap..].iter_mut().zip(&heaps) {
            *slot = heap[1];
        }
        for v in (1..scap).rev() {
            summary[v] = summary[2 * v].min(summary[2 * v + 1]);
        }
        TournamentTree {
            leaves,
            heaps,
            summary,
            scap,
            touched: Vec::with_capacity(num_blocks),
            remap,
            len,
            active: len,
            rule,
        }
    }

    /// Number of positions the tree was built over.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree was built over an empty sequence.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of still-active (not yet extracted) elements.
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// Minimum key among the active elements, if any.
    pub fn min_active(&self) -> Option<K> {
        let min = self.summary[1];
        (min != K::MAX).then(|| self.remap.load(min))
    }

    /// Walk the summary heap, collecting every block whose minimum is a
    /// record under its carry (exactly the blocks containing ≥ 1 record)
    /// into `self.touched`, in increasing block order.  Uses the pre-round
    /// summary minima throughout, so right-sibling carries see the state at
    /// round start.
    fn collect_touched(&mut self, node: usize, carry: K) {
        if !self.rule.is_record(self.summary[node], carry) {
            return;
        }
        if node >= self.scap {
            self.touched.push((node - self.scap, carry));
            return;
        }
        let right_carry = carry.min(self.summary[2 * node]);
        self.collect_touched(2 * node, carry);
        self.collect_touched(2 * node + 1, right_carry);
    }

    /// Route a round to the blocks holding its records (`self.touched`).
    /// Returns `false` once every element has been extracted.
    fn begin_round(&mut self) -> bool {
        self.touched.clear();
        if self.active == 0 {
            return false;
        }
        self.collect_touched(1, K::MAX);
        debug_assert!(!self.touched.is_empty());
        true
    }

    /// Close a round that extracted `count` records from the touched blocks:
    /// repair the summary heap above them.
    fn end_round(&mut self, count: usize) {
        for &(b, _) in &self.touched {
            self.summary[self.scap + b] = self.heaps[b][1];
        }
        // Each walk stops where it meets the next touched block's path (all
        // summary leaves share one depth, so the paths meet at the same
        // level); that later walk recomputes the shared ancestors once both
        // sides are repaired, so every dirty node is recomputed exactly once.
        for (i, &(b, _)) in self.touched.iter().enumerate() {
            let mut v = (self.scap + b) / 2;
            let mut next = self
                .touched
                .get(i + 1)
                .map_or(0, |&(c, _)| (self.scap + c) / 2);
            while v >= 1 && v != next {
                self.summary[v] = self.summary[2 * v].min(self.summary[2 * v + 1]);
                v /= 2;
                next /= 2;
            }
        }
        self.active -= count;
    }

    /// Run one extraction round, setting `values[pos] = round` for every
    /// record `pos` (`values` is indexed by position).  Returns the number of
    /// records extracted.
    ///
    /// Sub-grain rounds (estimated work below the active
    /// [`round_min_grain`] hint) run entirely on the calling thread and push
    /// no pool jobs.
    fn extract_round(&mut self, values: &mut [u32], round: u32) -> usize {
        if !self.begin_round() {
            return 0;
        }
        // Each touched block costs at most one block scan; cap the estimate
        // by the number of elements still alive.
        let est_work = (self.touched.len() * BLOCK).min(self.active);
        let grain = round_min_grain(est_work);
        let grain_blocks = if grain >= est_work {
            // Sub-grain round: stay on the calling thread, no pool traffic.
            self.touched.len()
        } else {
            grain.div_ceil(BLOCK).max(1)
        };
        let blocks = BlocksMut {
            leaves: &mut self.leaves,
            heaps: &mut self.heaps,
            values,
            first: 0,
        };
        let count = extract_touched(blocks, &self.touched, self.rule, round, grain_blocks);
        self.end_round(count);
        count
    }

    /// Extract and deactivate every prefix-minimum record, returning them as
    /// `(position, key)` pairs in increasing position order.
    ///
    /// A record is an active element with no active element to its left whose
    /// key blocks it under the tree's [`TieRule`].  Returns an empty vector
    /// once all elements have been extracted.  Runs the touched blocks on the
    /// calling thread, pushing each record as the block kernel finds it.
    pub fn extract_prefix_minima(&mut self) -> Vec<(usize, K)> {
        let mut out = Vec::new();
        if !self.begin_round() {
            return out;
        }
        let remap = self.remap;
        for &(b, carry) in &self.touched {
            let mut block = Block {
                leaves: &mut self.leaves[b],
                heap: &mut self.heaps[b],
            };
            block.extract(carry, self.rule, &mut |i, k| {
                out.push((b * BLOCK + i, remap.load(k)));
            });
        }
        self.end_round(out.len());
        out
    }
}

/// [`PhaseParallel`] instance over a tournament tree: round `r` extracts every
/// prefix-minimum record and assigns it DP value `r`.
///
/// This is the shared cordon of Sec. 3 — parallel LIS runs it over the input
/// values, parallel sparse LCS over the `j` keys of the canonically sorted
/// matching pairs — so both problems delegate to this one implementation.
pub struct StaircaseCordon<K> {
    tree: TournamentTree<K>,
    values: Vec<u32>,
    round: u32,
    remaining: usize,
}

impl<K: Key> StaircaseCordon<K> {
    /// Build the tournament tree over positions `0..len` with keys `key(i)`
    /// and the given tie rule (see [`TournamentTree::new`]).
    pub fn new(len: usize, key: impl Fn(usize) -> K + Sync, rule: TieRule) -> Self {
        StaircaseCordon {
            tree: TournamentTree::new(len, key, rule),
            values: vec![0u32; len],
            round: 0,
            remaining: len,
        }
    }
}

impl<K: Key> PhaseParallel for StaircaseCordon<K> {
    /// Per-position DP values (the round each position was extracted in) plus
    /// the number of rounds, i.e. the staircase depth.
    type Output = (Vec<u32>, u32);

    fn is_done(&self) -> bool {
        self.remaining == 0
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        // Each touched block writes the round number straight into its
        // position-aligned slice of the DP values; no record is buffered.
        let count = self.tree.extract_round(&mut self.values, self.round + 1);
        if count == 0 {
            return 0;
        }
        self.round += 1;
        metrics.add_edges(count as u64);
        self.remaining -= count;
        count
    }

    fn finish(self) -> Self::Output {
        (self.values, self.round)
    }

    fn round_budget(&self) -> Option<u64> {
        // The staircase depth never exceeds the number of elements (Theorems
        // 3.1 and 3.2: it equals the LIS/LCS length).
        Some(self.remaining as u64)
    }
}

/// Reference (sequential, quadratic-free) computation of the prefix-minimum
/// records of one round over `keys`, used as an oracle in tests.
pub fn reference_prefix_minima<K: Ord + Copy>(
    keys: &[(usize, K)],
    rule: TieRule,
) -> Vec<(usize, K)> {
    let mut out = Vec::new();
    let mut carry: Option<K> = None;
    for &(pos, k) in keys {
        if carry.is_none_or(|c| rule.beats(k, c)) {
            out.push((pos, k));
        }
        carry = Some(carry.map_or(k, |c| c.min(k)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    fn simulate_rounds<K: Key>(keys: &[K], rule: TieRule) -> Vec<Vec<(usize, K)>> {
        // Oracle: repeatedly take prefix-min records from the remaining list.
        let mut remaining: Vec<(usize, K)> = keys.iter().copied().enumerate().collect();
        let mut picked = vec![false; keys.len()];
        let mut rounds = Vec::new();
        while !remaining.is_empty() {
            let records = reference_prefix_minima(&remaining, rule);
            for &(p, _) in &records {
                picked[p] = true;
            }
            remaining.retain(|&(p, _)| !picked[p]);
            rounds.push(records);
        }
        rounds
    }

    /// `extract_round` with the fork cutoff forced to one block, so every
    /// touched list is split down to single blocks along with `values`.
    fn extract_round_split<K: Key>(
        tree: &mut TournamentTree<K>,
        values: &mut [u32],
        round: u32,
    ) -> usize {
        if !tree.begin_round() {
            return 0;
        }
        let blocks = BlocksMut {
            leaves: &mut tree.leaves,
            heaps: &mut tree.heaps,
            values,
            first: 0,
        };
        let count = extract_touched(blocks, &tree.touched, tree.rule, round, 1);
        tree.end_round(count);
        count
    }

    /// A tree over `keys`, read through the constructor's closure.
    fn tree_over<K: Key>(keys: &[K], rule: TieRule) -> TournamentTree<K> {
        TournamentTree::new(keys.len(), |i| keys[i], rule)
    }

    /// Positions whose DP value is `round`, in increasing order.
    fn positions_of(values: &[u32], round: u32) -> Vec<usize> {
        (0..values.len()).filter(|&p| values[p] == round).collect()
    }

    /// Check round by round against [`simulate_rounds`], through both sinks
    /// of the block kernel: the pushing one behind `extract_prefix_minima`,
    /// and the in-place DP values of `StaircaseCordon::round`, once with the
    /// real fork policy and once split down to single blocks.  The oracle
    /// pairs each record with its input key, so the pushing sink must hand
    /// every key back exactly as given.
    fn check_against_oracle<K: Key + Debug>(keys: &[K], rule: TieRule) {
        let mut tree = tree_over(keys, rule);
        let oracle = simulate_rounds(keys, rule);
        for (round, want) in oracle.iter().enumerate() {
            let got = tree.extract_prefix_minima();
            assert_eq!(&got, want, "round {round} mismatch for {keys:?}");
        }
        assert!(tree.extract_prefix_minima().is_empty());
        assert_eq!(tree.active_count(), 0);

        let metrics = MetricsCollector::new();
        let mut cordon = StaircaseCordon::new(keys.len(), |i| keys[i], rule);
        let mut split = tree_over(keys, rule);
        let mut split_values = vec![0u32; keys.len()];
        for (round, want) in (1u32..).zip(&oracle) {
            let want: Vec<usize> = want.iter().map(|&(p, _)| p).collect();
            assert_eq!(cordon.round(&metrics), want.len(), "round {round}");
            assert_eq!(positions_of(&cordon.values, round), want, "round {round}");
            let count = extract_round_split(&mut split, &mut split_values, round);
            assert_eq!(count, want.len(), "split round {round}");
            assert_eq!(
                positions_of(&split_values, round),
                want,
                "split round {round}"
            );
        }
        assert!(cordon.is_done());
        assert_eq!(cordon.round(&metrics), 0);
        assert_eq!(extract_round_split(&mut split, &mut split_values, 0), 0);
        let (values, rounds) = cordon.finish();
        assert_eq!(rounds as usize, oracle.len());
        assert_eq!(values, split_values);
    }

    /// Both tie rules against the oracle.
    fn check_both_rules<K: Key + Debug>(keys: &[K]) {
        check_against_oracle(keys, TieRule::TiesAreRecords);
        check_against_oracle(keys, TieRule::TiesBlocked);
    }

    /// Run lengths straddling a chunk and a block.
    const RUN_LENS: [usize; 6] = [CHUNK - 1, CHUNK, CHUNK + 1, BLOCK - 1, BLOCK, BLOCK + 1];

    /// Offsets that start a run at a chunk boundary, mid-chunk, or just
    /// either side of a chunk or block boundary.
    const OFFSETS: [usize; 7] = [0, 1, CHUNK / 2, CHUNK - 1, CHUNK + 1, BLOCK - 1, BLOCK + 1];

    /// Concatenated decreasing runs: run `i` is `len` keys counting down to
    /// `base`, for each `(len, base)` in `runs`.
    fn decreasing_runs(runs: &[(usize, u64)]) -> Vec<u64> {
        runs.iter()
            .flat_map(|&(len, base)| (0..len as u64).rev().map(move |t| base + t))
            .collect()
    }

    #[test]
    fn decreasing_runs_straddling_chunks_and_blocks_match_oracle() {
        for len in RUN_LENS {
            for offset in OFFSETS {
                let span = len as u64 + 1;
                // A filler run of `offset` keys, then runs whose bases rise
                // (each run drains in a round of its own), fall (all drain in
                // round one) and alternate.
                let rising = [
                    (offset, 0),
                    (len, 10 * span),
                    (len, 20 * span),
                    (3, 30 * span),
                ];
                let falling = [
                    (offset, 40 * span),
                    (len, 30 * span),
                    (len, 20 * span),
                    (3, 0),
                ];
                let mixed = [
                    (offset, 20 * span),
                    (len, 10 * span),
                    (len, 30 * span),
                    (len, 0),
                    (1, 5 * span),
                ];
                for runs in [&rising[..], &falling[..], &mixed[..]] {
                    check_both_rules(&decreasing_runs(runs));
                }
            }
        }
    }

    #[test]
    fn equal_key_runs_match_oracle() {
        // Under `TiesBlocked` an equal run drains one key per round, so a run
        // of `len` keys takes `len` rounds; under `TiesAreRecords` it drains
        // at once.  Runs start at a chunk boundary, mid-chunk, and just
        // before a block boundary.
        for len in RUN_LENS {
            for offset in [0, CHUNK / 2, BLOCK - CHUNK / 2] {
                let mut keys = vec![7u64; offset];
                keys.extend(std::iter::repeat_n(3, len));
                keys.extend(std::iter::repeat_n(5, CHUNK + 1));
                keys.extend(std::iter::repeat_n(3, CHUNK - 1));
                check_both_rules(&keys);
            }
        }
    }

    #[test]
    fn keys_at_the_type_limits_match_oracle() {
        let max = u64::MAX;
        // A lone `K::MAX`, alone and among small keys.
        check_both_rules(&[max]);
        check_both_rules(&[5, max, 2, max]);
        // The run `K::MAX, K::MAX - 1, K::MAX - 2` interleaved with small
        // keys over chunk and block boundaries; it moves down onto
        // `K::MAX - 3`.
        let top = [max, max - 1, max - 2];
        let keys: Vec<u64> = (0..2 * BLOCK + CHUNK + 3)
            .map(|i| match i % 7 {
                3 => top[i % 3],
                _ => (i as u64 * 2654435761) % 1_000,
            })
            .collect();
        check_both_rules(&keys);
        // `K::MIN` beside the top run, in a signed key type.
        let keys = [
            i64::MIN,
            i64::MAX,
            -1,
            i64::MIN,
            0,
            i64::MAX - 1,
            i64::MAX,
            i64::MIN + 1,
            i64::MAX - 2,
            1,
        ];
        check_both_rules(&keys);
        check_both_rules(&[i64::MIN]);
    }

    #[test]
    fn keys_taking_all_but_one_value_match_oracle() {
        // Every `u8` but 7, shuffled: the run `8..=255` moves onto `7..=254`.
        let values: Vec<u8> = (0..=255).filter(|&v| v != 7).collect();
        let keys: Vec<u8> = (0..values.len())
            .map(|i| values[i * 101 % values.len()])
            .collect();
        check_both_rules(&keys);
    }

    #[test]
    #[should_panic(expected = "none is free")]
    fn keys_taking_every_value_are_refused() {
        let keys: Vec<u8> = (0..=255).collect();
        tree_over(&keys, TieRule::TiesAreRecords);
    }

    #[test]
    fn dense_runs_among_scattered_singletons_match_oracle() {
        // Pseudo-random filler over three blocks (about 2√n rounds of
        // scattered single records), overwritten by dense decreasing runs
        // that cross chunk and block boundaries: runs of small keys drain in
        // round one, runs above the filler only once everything to their
        // left is gone.
        let n = 3 * BLOCK + CHUNK + 3;
        let mut keys: Vec<u64> = (0..n as u64)
            .map(|i| 2_000 + (i * 2654435761) % 1_000_003)
            .collect();
        let (low, high) = (BLOCK as u64, 3_000_000);
        for (start, len, top) in [
            (CHUNK / 2, 3 * CHUNK, low),
            (BLOCK - 5, 11, high),
            (BLOCK + CHUNK + 3, CHUNK + 1, high),
            (2 * BLOCK + 1, BLOCK, low),
        ] {
            for t in 0..len {
                keys[start + t] = top - t as u64;
            }
        }
        check_both_rules(&keys);
    }

    #[test]
    fn example_from_paper_figure2() {
        // Input sequence of Fig. 2(a): 7 3 6 8 1 4 2 5.
        let keys = [7u64, 3, 6, 8, 1, 4, 2, 5];
        let mut tree = tree_over(&keys, TieRule::TiesAreRecords);
        // Round 1: prefix minima are 7, 3, 1 (positions 0, 1, 4).
        assert_eq!(tree.extract_prefix_minima(), vec![(0, 7), (1, 3), (4, 1)]);
        // Round 2: remaining 6 8 4 2 5 -> prefix minima 6, 4, 2.
        assert_eq!(tree.extract_prefix_minima(), vec![(2, 6), (5, 4), (6, 2)]);
        // Round 3: remaining 8 5 -> prefix minima 8, 5.
        assert_eq!(tree.extract_prefix_minima(), vec![(3, 8), (7, 5)]);
        assert!(tree.extract_prefix_minima().is_empty());
    }

    #[test]
    fn rounds_equal_lis_length() {
        // The number of extraction rounds equals the LIS length of the input
        // (Theorem 3.1's span argument).
        let keys = [7u64, 3, 6, 8, 1, 4, 2, 5];
        let rounds = simulate_rounds(&keys, TieRule::TiesAreRecords).len();
        assert_eq!(rounds, 3); // LIS of the Fig. 2 sequence is 3 (e.g. 3 4 5).
    }

    #[test]
    fn increasing_input_one_round() {
        let keys: Vec<u64> = (0..1000).collect();
        let mut tree = tree_over(&keys, TieRule::TiesAreRecords);
        let r1 = tree.extract_prefix_minima();
        assert_eq!(r1.len(), 1, "only the first element is a record");
        // Decreasing input: everything is a record in round one.
        let keys: Vec<u64> = (0..1000).rev().collect();
        let mut tree = tree_over(&keys, TieRule::TiesAreRecords);
        assert_eq!(tree.extract_prefix_minima().len(), 1000);
        assert!(tree.extract_prefix_minima().is_empty());
    }

    #[test]
    fn ties_rules_differ() {
        let keys = [5u64, 5, 5];
        let mut with_ties = tree_over(&keys, TieRule::TiesAreRecords);
        assert_eq!(with_ties.extract_prefix_minima().len(), 3);
        let mut no_ties = tree_over(&keys, TieRule::TiesBlocked);
        assert_eq!(no_ties.extract_prefix_minima().len(), 1);
        assert_eq!(no_ties.extract_prefix_minima().len(), 1);
        assert_eq!(no_ties.extract_prefix_minima().len(), 1);
    }

    #[test]
    fn empty_and_singleton() {
        let mut t: TournamentTree<u64> = tree_over(&[], TieRule::TiesAreRecords);
        assert!(t.is_empty());
        assert!(t.extract_prefix_minima().is_empty());
        assert_eq!(t.min_active(), None);
        let mut t = tree_over(&[42u64], TieRule::TiesAreRecords);
        assert_eq!(t.extract_prefix_minima(), vec![(0, 42)]);
        assert!(t.extract_prefix_minima().is_empty());
    }

    #[test]
    fn pseudo_random_inputs_match_oracle() {
        // Deterministic pseudo-random sequences of several sizes, straddling
        // the block boundary (1024) and multiple blocks.
        for &n in &[
            1usize, 2, 3, 10, 63, 64, 65, 257, 1000, 1023, 1024, 1025, 5000,
        ] {
            let keys: Vec<u64> = (0..n as u64).map(|i| (i * 48271 + 11) % 997).collect();
            check_against_oracle(&keys, TieRule::TiesAreRecords);
            check_against_oracle(&keys, TieRule::TiesBlocked);
        }
    }

    #[test]
    fn min_active_tracks_extractions() {
        // The top two keys are stored moved down by one and read back as
        // given.
        let keys = [9u64, 2, 7, 4, u64::MAX - 1, u64::MAX];
        let mut tree = tree_over(&keys, TieRule::TiesAreRecords);
        assert_eq!(tree.min_active(), Some(2));
        tree.extract_prefix_minima(); // removes 9 and 2
        assert_eq!(tree.min_active(), Some(4));
        tree.extract_prefix_minima(); // removes 7 and 4
        assert_eq!(tree.min_active(), Some(u64::MAX - 1));
        tree.extract_prefix_minima(); // removes u64::MAX - 1
        assert_eq!(tree.min_active(), Some(u64::MAX));
        tree.extract_prefix_minima();
        assert_eq!(tree.min_active(), None);
    }

    #[test]
    fn cross_block_carry_blocks_later_blocks() {
        // A tiny key in block 0 must block everything in later blocks.
        let mut keys = vec![1_000_000u64; 3000];
        keys[0] = 0;
        let mut tree = tree_over(&keys, TieRule::TiesBlocked);
        assert_eq!(tree.extract_prefix_minima(), vec![(0, 0)]);
        // With the blocker gone, every remaining (equal) key ties; under
        // TiesBlocked only the first survives per round... the first element
        // of the remaining sequence is the sole record.
        assert_eq!(tree.extract_prefix_minima(), vec![(1, 1_000_000)]);
    }

    #[test]
    fn large_input_fully_drains() {
        let n = 100_000usize;
        let keys: Vec<u64> = (0..n as u64)
            .map(|i| (i * 2654435761) % 1_000_003)
            .collect();
        let mut tree = tree_over(&keys, TieRule::TiesAreRecords);
        let mut total = 0usize;
        let mut rounds = 0usize;
        loop {
            let r = tree.extract_prefix_minima();
            if r.is_empty() {
                break;
            }
            total += r.len();
            rounds += 1;
            assert!(rounds <= n, "cannot need more rounds than elements");
        }
        assert_eq!(total, n);
        assert_eq!(tree.active_count(), 0);
    }
}
