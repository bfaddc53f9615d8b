//! Tournament (winner) tree with batched prefix-minimum extraction.
//!
//! This is the data structure behind the parallel LIS and sparse-LCS cordon
//! algorithms (Sec. 3 of the paper, following Gu et al. \[47\]).  The tree is
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
//! `BLOCK` consecutive positions, and every block has the same shape — one
//! leaf per position, cut into chunks of `CHUNK` and groups of `GROUP`; an
//! alive mask per chunk, one byte with a bit per leaf; two flat arrays of
//! minima, one per group and one per chunk; and a *run mask* with a bit per
//! group.  The tree keeps one buffer of leaf blocks, one of alive masks and
//! one of minima and run masks.  The constructor takes a *block writer*,
//! `write(first, out)`, that fills `out` with the keys of positions
//! `first..first + out.len()`.  One pass over the blocks, parallel for
//! large inputs, presets each block's leaves to `Key::MAX` (so the last
//! block's padding is in place), lets the writer fill its positions, and
//! summarizes the block while it is in cache: in its slot of the leaf
//! buffer when the pass runs inline, on the stack before a move into its
//! slot when it forks.  No pass zeroes or fills the leaf buffer first.  The
//! summary marks each group whose keys form a *run*, in which no key rises
//! above the one before it, and folds the chunk minima of every other,
//! *mixed*, group.  Sparse LCS in canonical pair order lays each column's
//! matches out as such a run.  The last block's padding leaves are never
//! alive.  A small flat *summary heap* over the per-block minima routes
//! each round to the blocks that actually contain records.
//!
//! Inside a block the extraction makes one flat pass over the group minima,
//! and, for each mixed group whose minimum is a record, one over that
//! group's chunk minima.  Each pass computes, without branching on the
//! keys, the mask of its parts whose minimum is a record; each record chunk
//! is then extracted by one linear scan of its leaves, which yields the
//! chunk's new minimum.  A run group needs neither the second pass nor a
//! scan.  Its alive leaves always form a prefix: all of them at build, and
//! in a round, inside a run the smallest alive key before a leaf is the key
//! just before it, which the leaf's key beats, so a leaf is a record
//! exactly when its key beats the group's carry.  The keys do not rise
//! along the run, so the records are a suffix of the alive prefix, and
//! taking them leaves a shorter prefix.  If the first alive key beats the
//! carry, every alive key does, and the group is taken whole; otherwise one
//! binary search over at most `GROUP` keys finds where the records start.
//! A fill writes their round number.  All levels carry the running minimum
//! of the round-start keys, so a leaf taken earlier in the round still
//! blocks the leaves after it.  A touched block therefore costs `GROUPS`
//! group checks, plus, per mixed record group, `GROUP / CHUNK` chunk checks
//! and one `CHUNK`-leaf scan per record chunk, and per run record group one
//! comparison and a fill when it is taken whole, or else a search over at
//! most `GROUP` keys and one leaf write per record; a round extracting `l`
//! records out of `L` costs `O(l · (log(L/l) + GROUPS + GROUP / CHUNK +
//! CHUNK))` work, and the summary repair after it recomputes each dirty
//! summary node once.  A [`StaircaseCordon`] round adds these comparisons,
//! with each summary node its descent visits and its repair recomputes, to
//! the run's `probes`, once per round on the driving thread.
//!
//! An alive leaf holds its key.  A taken leaf holds its DP value, the number
//! of the round that took it, converted by [`Key::from_round`]; its alive bit
//! is clear, so a scan reads it as an empty slot.  The minima hold plain keys:
//! [`Key::MAX`] marks a part with no alive leaf, and a carry of `Key::MAX`
//! means nothing lies to the left.  Callers keep every key value all the
//! same: if some key equals `Key::MAX`, the constructor reads the keys back
//! from the leaves and moves the span of consecutive present values that
//! ends there down by one, onto the value just below the span, which no key
//! takes.  That map is injective and order-preserving, so the records do
//! not change.  When no key equals `Key::MAX` the map is the identity.
//!
//! Records are never buffered: a block writes the round number straight into
//! each leaf it takes, and its new minimum into its leaf of the summary heap.
//! Touched blocks are extracted concurrently by splitting the leaf blocks,
//! the alive masks, the minima and the summary leaves at the same block
//! boundary (`split_at_mut`), so blocks are disjoint `&mut` borrows — no
//! interior mutability, no record buffers and no per-round allocation.
//! Once every position is taken, the leaves are the DP values:
//! [`StaircaseCordon`]'s `finish` hands the leaf buffer back, as it is for
//! `u32` keys and narrowed in one pass for wider ones.  A leaf holds round
//! numbers up to `2^b − 1` for a key type of `b < 32` bits, and up to
//! `u32::MAX` otherwise.  Since an equal key does not block, a run over
//! `b`-bit keys takes at most `2^b − 1` rounds: its rounds count a longest
//! strictly increasing chain of keys, whose values are distinct, and one
//! value of the type stays free for `Key::MAX`, or the constructor refuses
//! the keys.  So the cordon's round cap binds only for keys wider than 32
//! bits over more than `u32::MAX` positions, where it keeps the `u32` round
//! counter from overflowing.
//!
//! A round forks only when each grain gets at least `FORK_BLOCKS` (16)
//! touched blocks; a narrower round, such as sparse LCS's rounds of 1–11
//! blocks on the paper's Fig. 6 shapes, runs entirely on the calling
//! thread: no pool job is pushed and no worker is woken (pinned by the
//! dispatch-counter test in `tests/pool_fastpath.rs`).
//!
//! [`reconstruct_chain`] walks one longest chain back from the DP values a
//! [`StaircaseCordon`] computed; LIS and sparse LCS reconstruct through it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pardp_core::PhaseParallel;
use pardp_parutils::{round_min_grain, MetricsCollector};
use std::any::Any;

/// Positions per cache block.  A block's leaves, alive masks and minima
/// take 4.7 KiB for `u32` keys and 9.3 KiB for `i64` keys, small enough
/// that one round's scan of a block stays in L1/L2.
const BLOCK: usize = 1024;

/// Leaves per chunk: the unit a block scans leaf by leaf, and the bits of
/// one alive mask.  Kept small because a chunk holding a single record
/// still costs a full scan.  On a 2-core Xeon host, LIS on
/// `random_sequence(10⁶, 2⁴⁰, _)`, whose rounds take scattered single
/// records, ran ~20% slower with 16 leaves per chunk than with 8, while 4
/// gave back about a fifth of 8's round-time gain on dense staircases.
const CHUNK: usize = 8;

/// Leaves per group: the unit of a block's first pass, and of a run, whose
/// alive masks read as one `u64`.  A block holding one record costs 16
/// group checks and 8 chunk checks, where one flat pass would check all 128
/// chunk minima; rounds of scattered single records (`lis_random`,
/// `lcs_deep`) touch many such blocks.
const GROUP: usize = 64;

/// Groups per block.
const GROUPS: usize = BLOCK / GROUP;

/// Fewest touched blocks a forked grain of an extraction round gets, so a
/// round forks only from twice this many.  At 2 threads on a 2-core Xeon
/// host, sparse LCS solves whose rounds touch 10–11 blocks
/// (`lcs_pairs_with(10⁶, 100, _)`) took 1.93–2.29 ms with the rounds
/// inline against 2.28–2.75 ms forked, and ones whose rounds touch 40
/// (`lcs_pairs_with(4·10⁶, 100, _)`) 9.2–10.6 ms forked against
/// 11.6–13.3 ms inline; rounds of 20–34 blocks read the same either way
/// within the host's noise.
const FORK_BLOCKS: usize = 16;

/// Chunks, and so alive masks, per group.
const GROUP_CHUNKS: usize = GROUP / CHUNK;

/// A key type the tree can hold: totally ordered, with a largest value that
/// the tree's minima reserve to mark a part with no alive leaf, and room for
/// a round number in a taken leaf.  Implemented for the primitive integers.
pub trait Key: Ord + Copy + Send + Sync + 'static {
    /// The smallest value.
    const MIN: Self;
    /// The largest value, which marks a part with no alive leaf.
    const MAX: Self;
    /// The value just below `self`; never called on [`Key::MIN`].
    fn pred(self) -> Self;
    /// Round number `r` as a key: the low bits of `r`, as many as the key
    /// type has.
    fn from_round(r: u32) -> Self;
    /// The round number [`Key::from_round`] stored: the inverse on every
    /// round number the key type has room for.
    fn to_round(self) -> u32;
}

macro_rules! impl_key {
    ($($t:ty => $bits:ty),*) => {$(
        impl Key for $t {
            const MIN: Self = <$t>::MIN;
            const MAX: Self = <$t>::MAX;
            #[inline]
            fn pred(self) -> Self {
                self - 1
            }
            #[inline]
            fn from_round(r: u32) -> Self {
                r as $bits as $t
            }
            #[inline]
            fn to_round(self) -> u32 {
                self as $bits as u32
            }
        }
    )*};
}

impl_key!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, u128 => u128, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, i128 => u128, isize => usize
);

/// The last round number a leaf of key type `K` can hold: `2^bits − 1` for
/// a key type of `bits < 32` bits, `u32::MAX` otherwise.
fn last_round<K: Key>() -> u32 {
    K::from_round(u32::MAX).to_round()
}

/// Whether `key` is a record behind `carry`, the minimum active key to its
/// left: `key <= carry`, so an equal key does not block.  LIS relaxes `i`
/// from `j` only when `A[j] < A[i]`, and sparse LCS relaxes a pair only
/// from one with a strictly smaller `j`.
#[inline]
fn beats<K: Ord>(key: K, carry: K) -> bool {
    key <= carry
}

/// [`beats`] for the minimum of a part: a part with no alive leaf
/// (`K::MAX`) holds no record, and a carry of `K::MAX` (nothing to the
/// left) blocks no key.
#[inline]
fn is_record<K: Key>(key: K, carry: K) -> bool {
    key != K::MAX && beats(key, carry)
}

/// The map from input keys to stored keys.  It moves the span of consecutive
/// present values that ends at `K::MAX` down by one, onto `absent`: the
/// largest value no key takes.  With no key at `K::MAX`, `absent` is
/// `K::MAX` and the map is the identity.
#[derive(Clone, Copy)]
struct Remap<K> {
    absent: K,
}

impl<K: Key> Remap<K> {
    /// The map for `keys`, of which at least one equals `K::MAX`.  Sorts a
    /// copy of the keys, so inputs holding `K::MAX` pay `O(n log n)` extra
    /// work.
    ///
    /// # Panics
    /// If the keys take every value of `K`, leaving none for the sentinel.
    fn over(keys: &[K]) -> Self {
        let mut keys = keys.to_vec();
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
}

/// The minima of one block's groups and chunks, and which groups are runs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Minima<K> {
    /// The minimum of group `g`'s alive leaves.
    groups: [K; GROUPS],
    /// `chunks[g][c]`: the minimum of the alive leaves of chunk `c` of group
    /// `g`, kept only while group `g` is mixed: nothing reads a run group's
    /// chunk minima, so they are neither computed nor repaired.
    chunks: [[K; GROUP_CHUNKS]; GROUPS],
    /// Bit `g` is set if group `g` is a *run*: its stored keys, padding
    /// excluded, were a nonempty sequence in which each key beats the one
    /// before it (see [`is_run`]).  Set once at build; every other group is
    /// *mixed*.
    runs: u16,
    /// Whether the block writer gave some key equal to `K::MAX`, which the
    /// build then remaps (see [`Remap`]).  Set by the build's first pass;
    /// the byte sits in padding the struct has anyway for keys of 16 bits
    /// or more.
    saw_max: bool,
}

impl<K: Key> Minima<K> {
    /// The minima of an empty block.
    const EMPTY: Self = Minima {
        groups: [K::MAX; GROUPS],
        chunks: [[K::MAX; GROUP_CHUNKS]; GROUPS],
        runs: 0,
        saw_max: false,
    };
}

/// The smallest of `keys`, or `K::MAX` (empty) if there are none.
fn min_of<K: Key>(keys: &[K]) -> K {
    keys.iter().copied().fold(K::MAX, K::min)
}

/// Whether each of `keys` beats the key before it: whether no key rises
/// above the one before it.  Checks the pairs a chunk at a time, each
/// chunk's without branching on the keys, and stops after the first chunk
/// that holds a failing pair, so a mixed group checks the pairs up to its
/// first break and no further.
#[inline]
fn is_run<K: Key>(keys: &[K]) -> bool {
    let next = keys.get(1..).unwrap_or_default();
    keys.chunks(CHUNK)
        .zip(next.chunks(CHUNK))
        .all(|(a, b)| a.iter().zip(b).fold(true, |ok, (&a, &b)| ok & beats(b, a)))
}

/// One block's alive masks: bit `i` of `alive[g][c]` is set while leaf
/// `g * GROUP + c * CHUNK + i` is alive, so `u64::from_le_bytes(alive[g])`
/// has bit `i` set while leaf `i` of group `g` is alive.
type AliveMasks = [[u8; GROUP_CHUNKS]; GROUPS];

/// One block: its leaves, the alive mask of each chunk, and the group and
/// chunk minima of its alive leaves.
struct Block<'a, K> {
    /// Stored keys of alive leaves, round numbers of taken ones.
    leaves: &'a mut [K; BLOCK],
    alive: &'a mut AliveMasks,
    minima: &'a mut Minima<K>,
}

impl<K: Key> Block<'_, K> {
    /// Make the block's first `n` leaves, already written, alive and the
    /// rest, which hold `K::MAX`, padding; mark its run groups, and compute
    /// its minima.  A full block's alive masks take one store.  A run
    /// group's minimum is its last key, and its chunk minima are skipped; a
    /// mixed group folds its chunks and then their minima.
    fn summarize(&mut self, n: usize) {
        const { assert!(CHUNK == u8::BITS as usize, "an alive bit per leaf") };
        const { assert!(GROUPS <= u16::BITS as usize, "a run bit per group") };
        debug_assert!(self.leaves[n..].iter().all(|&k| k == K::MAX));
        if n == BLOCK {
            *self.alive = [[u8::MAX; GROUP_CHUNKS]; GROUPS];
        } else {
            for (c, mask) in self.alive.as_flattened_mut().iter_mut().enumerate() {
                let keys = n.saturating_sub(c * CHUNK).min(CHUNK);
                *mask = u8::MAX.checked_shr((CHUNK - keys) as u32).unwrap_or(0);
            }
        }
        let Minima {
            groups,
            chunks,
            runs,
            ..
        } = self.minima;
        *runs = 0;
        let (keys, _) = self.leaves.as_chunks::<GROUP>();
        let parts = groups.iter_mut().zip(chunks.iter_mut());
        for (g, (group, (min, chunk_mins))) in keys.iter().zip(parts).enumerate() {
            // Only the last block's last keys fill a group in part.  A full
            // group's check has a constant length, so the compiler unrolls
            // each chunk's fold.
            let live = n.saturating_sub(g * GROUP).min(GROUP);
            let run = match live {
                GROUP => is_run(group),
                0 => false,
                _ => is_run(&group[..live]),
            };
            if run {
                *runs |= 1 << g;
                *min = group[live - 1];
            } else {
                for (slot, chunk) in chunk_mins.iter_mut().zip(group.chunks_exact(CHUNK)) {
                    *slot = min_of(chunk);
                }
                *min = min_of(chunk_mins);
            }
        }
    }

    /// Extract every record of this block, given the minimum active key
    /// strictly to the block's left at round start.  Writes `stamp` into
    /// each record's leaf.  Returns the block's new minimum, the number of
    /// records taken and the number of comparisons made: `GROUPS` group
    /// checks, `GROUP_CHUNKS` chunk checks per mixed record group, `CHUNK`
    /// leaf reads per scanned chunk, and per run record group 1 for a whole
    /// take, or else 1 plus the steps of its search.
    ///
    /// The first pass finds the groups whose minimum is a record.  A run
    /// record group takes its records whole or by one search (see
    /// [`extract_run`]); in a mixed one a second pass finds the record
    /// chunks, and each is then scanned leaf by leaf.  The running carry
    /// drops only at a record part (a part whose minimum is no record has
    /// it at or above the carry), so lowering the carry by each record
    /// part's round-start minimum, once that part is extracted, gives every
    /// record part its carry.
    fn extract(&mut self, mut carry: K, stamp: K) -> (K, usize, u64) {
        let Minima {
            groups,
            chunks,
            runs,
            ..
        } = self.minima;
        let mut taken = 0;
        let mut work = GROUPS as u64;
        for g in set_bits(record_mask(groups, carry)) {
            let alive = &mut self.alive[g];
            let start = groups[g];
            groups[g] = if *runs >> g & 1 != 0 {
                let leaves = &mut self.leaves[g * GROUP..(g + 1) * GROUP];
                let (min, took, steps) = extract_run(leaves, alive, carry, stamp);
                taken += took;
                work += steps;
                min
            } else {
                let group = &mut chunks[g];
                let mut chunk_carry = carry;
                work += GROUP_CHUNKS as u64;
                for c in set_bits(record_mask(group, carry)) {
                    let start = group[c];
                    let chunk = g * GROUP_CHUNKS + c;
                    let (min, took) =
                        extract_chunk(self.leaves, &mut alive[c], chunk, chunk_carry, stamp);
                    group[c] = min;
                    taken += took;
                    work += CHUNK as u64;
                    chunk_carry = chunk_carry.min(start);
                }
                min_of(group)
            };
            carry = carry.min(start);
        }
        (min_of(groups), taken, work)
    }
}

/// One flat pass over `mins`, the round-start minima of consecutive parts
/// of a block, of which the first has `carry` as the minimum active key to
/// its left.  Returns a mask with bit `i` set if part `i` holds a record:
/// if its minimum is a record under the minimum of `carry` and the minima
/// before it (the first leaf at that minimum is then a record, and a part
/// whose minimum is no record holds none).  The carry runs over the
/// round-start minima, extracted or not: elements removed in this round were
/// active when it started, and the cordon is defined against the state at
/// the start of the round (all extracted elements share the same DP value).
///
/// The pass does not branch on the keys: a branch per part would
/// mispredict at the record's part in every round that takes a single
/// record from the block.
#[inline]
fn record_mask<K: Key, const N: usize>(mins: &[K; N], mut carry: K) -> u32 {
    const { assert!(N <= 32, "a mask bit per part") };
    let mut mask = 0;
    for (i, &k) in mins.iter().enumerate() {
        // `is_record` without its short circuit.
        mask |= u32::from((k != K::MAX) & beats(k, carry)) << i;
        carry = carry.min(k);
    }
    mask
}

/// The indices of the set bits of `mask`, in increasing order.
fn set_bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (i < 32).then_some(i)
    })
}

/// Extract the records of a run group, given its leaves `leaves`, its alive
/// masks `alive` and the minimum active key to its left at round start,
/// and return the group's new minimum, the number of records and the
/// number of keys compared.  Each record's leaf gets `stamp`.
///
/// A run group's alive leaves are always a prefix `[0, p)`.  Inside it the
/// smallest alive key before a leaf is the key just before it, which the
/// leaf's key beats, so a leaf is a record exactly when its key beats the
/// carry.  The keys do not rise along the run, so the records are a suffix
/// `[q, p)`, and taking them leaves the prefix `[0, q)` alive.  If the
/// first alive key beats the carry, so do all the others, and the group is
/// taken whole (`q = 0`) after one comparison; otherwise a binary search
/// over the rest finds `q`.
fn extract_run<K: Key>(
    leaves: &mut [K],
    alive: &mut [u8; GROUP_CHUNKS],
    carry: K,
    stamp: K,
) -> (K, usize, u64) {
    let mask = u64::from_le_bytes(*alive);
    let p = (u64::BITS - mask.leading_zeros()) as usize;
    debug_assert_eq!(mask.count_ones() as usize, p, "alive leaves not a prefix");
    let keys = &mut leaves[..p];
    let mut steps = 1;
    let q = if beats(keys[0], carry) {
        0
    } else {
        1 + keys[1..].partition_point(|&k| {
            steps += 1;
            !beats(k, carry)
        })
    };
    debug_assert!(q < p, "a record group holds a record");
    keys[q..].fill(stamp);
    *alive = (mask & !(u64::MAX << q)).to_le_bytes();
    (q.checked_sub(1).map_or(K::MAX, |i| keys[i]), p - q, steps)
}

/// Extract the records of chunk `c` of a block with leaves `leaves` and
/// the chunk's alive mask `alive` by one scan of its leaves, given the
/// minimum active key to the chunk's left at round start, and return the
/// chunk's new minimum and the number of records.  Each record's leaf gets
/// `stamp`.
fn extract_chunk<K: Key>(
    leaves: &mut [K; BLOCK],
    alive: &mut u8,
    c: usize,
    mut carry: K,
    stamp: K,
) -> (K, usize) {
    let first = c * CHUNK;
    let mut min = K::MAX;
    let mut left = *alive;
    let mut taken = 0;
    for (i, leaf) in leaves[first..first + CHUNK].iter_mut().enumerate() {
        // A taken leaf reads as an empty slot.
        let k = if *alive >> i & 1 != 0 { *leaf } else { K::MAX };
        if is_record(k, carry) {
            *leaf = stamp;
            left &= !(1 << i);
            taken += 1;
        } else {
            min = min.min(k);
        }
        // The carry runs over round-start keys, extracted or not.
        carry = carry.min(k);
    }
    *alive = left;
    (min, taken)
}

/// Blocks `first..` of a tree together with their leaves of the summary
/// heap, borrowed as one so that all four slices split at the same block
/// boundary.
struct BlocksMut<'a, K> {
    leaves: &'a mut [[K; BLOCK]],
    alive: &'a mut [AliveMasks],
    minima: &'a mut [Minima<K>],
    block_mins: &'a mut [K],
    first: usize,
}

impl<K> BlocksMut<'_, K> {
    /// Split just before global block `b`.
    fn split_at(self, b: usize) -> (Self, Self) {
        let at = b - self.first;
        let (ll, lr) = self.leaves.split_at_mut(at);
        let (al, ar) = self.alive.split_at_mut(at);
        let (ml, mr) = self.minima.split_at_mut(at);
        let (bl, br) = self.block_mins.split_at_mut(at);
        let left = BlocksMut {
            leaves: ll,
            alive: al,
            minima: ml,
            block_mins: bl,
            first: self.first,
        };
        let right = BlocksMut {
            leaves: lr,
            alive: ar,
            minima: mr,
            block_mins: br,
            first: b,
        };
        (left, right)
    }
}

/// Extract `touched` blocks in parallel by recursively splitting `blocks`:
/// the touched list is sorted by block index, so each half of the list maps
/// to a disjoint part of `blocks` (no interior mutability needed).  Every
/// record's leaf gets `stamp`, and every touched block's new minimum goes
/// to its leaf of the summary heap.  A list splits in half only while both
/// halves keep at least `grain` touched blocks.  Returns the number of
/// records extracted and the comparisons the blocks made.
fn extract_touched<K: Key>(
    blocks: BlocksMut<'_, K>,
    touched: &[(usize, K)],
    stamp: K,
    grain: usize,
) -> (usize, u64) {
    if touched.len() < 2 * grain {
        let BlocksMut {
            leaves,
            alive,
            minima,
            block_mins,
            first,
        } = blocks;
        let (mut count, mut work) = (0, 0);
        for &(b, carry) in touched {
            let local = b - first;
            let mut block = Block {
                leaves: &mut leaves[local],
                alive: &mut alive[local],
                minima: &mut minima[local],
            };
            let (min, taken, steps) = block.extract(carry, stamp);
            block_mins[local] = min;
            count += taken;
            work += steps;
        }
        return (count, work);
    }
    let mid = touched.len() / 2;
    let (left, right) = touched.split_at(mid);
    let (bl, br) = blocks.split_at(right[0].0);
    let (l, r) = rayon::join(
        || extract_touched(bl, left, stamp, grain),
        || extract_touched(br, right, stamp, grain),
    );
    (l.0 + r.0, l.1 + r.1)
}

/// The summary nodes a round's descent visits and its repair recomputes,
/// given the `repaired` nodes: the descent visits the root and both
/// children of each (see [`TournamentTree::collect_touched`]).
fn summary_work(repaired: u64) -> u64 {
    1 + 3 * repaired
}

/// The fewest blocks a forked grain of a pass over the blocks of `len`
/// positions gets: [`round_min_grain`] over the positions, in whole blocks.
fn build_grain(len: usize) -> usize {
    round_min_grain(len).div_ceil(BLOCK).max(1)
}

/// In parallel over blocks, map the keys of each block's positions below
/// `len` through `remap` in place, then summarize the block.
fn remap_blocks<K: Key>(
    leaves: &mut [[K; BLOCK]],
    alive: &mut [AliveMasks],
    minima: &mut [Minima<K>],
    len: usize,
    remap: Remap<K>,
) {
    use rayon::prelude::*;
    leaves
        .par_iter_mut()
        .zip(alive.par_iter_mut())
        .zip(minima.par_iter_mut())
        .enumerate()
        .with_min_len(build_grain(len))
        .for_each(|(b, ((leaves, alive), minima))| {
            let n = BLOCK.min(len - b * BLOCK);
            for k in &mut leaves[..n] {
                *k = remap.store(*k);
            }
            Block {
                leaves,
                alive,
                minima,
            }
            .summarize(n);
        });
}

/// Tournament tree over a fixed sequence of keys.
struct TournamentTree<K> {
    /// One leaf per position, one array per block (see the crate's *Layout*
    /// section): the stored key while the position is alive, its round
    /// number once taken.
    leaves: Vec<[K; BLOCK]>,
    /// Alive masks, one per chunk, one array per block.
    alive: Vec<AliveMasks>,
    /// Group and chunk minima of the alive leaves, one per block.
    minima: Vec<Minima<K>>,
    /// Implicit heap over the per-block minima: root at 1, block `b`'s leaf
    /// at `scap + b`.  Routes each round to the blocks containing records in
    /// `O(t · log(B/t))` for `t` touched blocks.
    summary: Vec<K>,
    scap: usize,
    /// Blocks touched by the current round with their carries, in increasing
    /// block order.  Sized for every block up front, so no round grows it.
    touched: Vec<(usize, K)>,
    len: usize,
    active: usize,
}

impl<K: Key> TournamentTree<K> {
    /// Build the tree over positions `0..len`, whose keys `write` fills in
    /// (see [`StaircaseCordon::new`]).
    fn new(len: usize, write: impl Fn(usize, &mut [K]) + Sync) -> Self {
        use rayon::prelude::*;
        let num_blocks = len.div_ceil(BLOCK);
        let mut alive = vec![[[0; GROUP_CHUNKS]; GROUPS]; num_blocks];
        let mut minima = vec![Minima::EMPTY; num_blocks];
        // Write block `b`'s keys into `leaves`, whose other leaves already
        // hold `K::MAX`, and summarize it while it is in cache.
        let build =
            |b: usize, leaves: &mut [K; BLOCK], alive: &mut AliveMasks, minima: &mut Minima<K>| {
                let first = b * BLOCK;
                let n = BLOCK.min(len - first);
                write(first, &mut leaves[..n]);
                minima.saw_max = leaves[..n]
                    .iter()
                    .fold(false, |saw, &k| saw | (k == K::MAX));
                Block {
                    leaves,
                    alive,
                    minima,
                }
                .summarize(n);
            };
        // One pass over the blocks, with no pass over the leaf buffer before
        // it.  Inline, each block is preset in its slot and built there; a
        // forked pass builds each block on the stack and moves it into its
        // slot, and writes the masks and minima in place.
        let grain = build_grain(len);
        let mut leaves = Vec::with_capacity(num_blocks);
        if grain >= num_blocks {
            for (b, (alive, minima)) in alive.iter_mut().zip(&mut minima).enumerate() {
                leaves.push([K::MAX; BLOCK]);
                build(b, &mut leaves[b], alive, minima);
            }
        } else {
            alive
                .par_iter_mut()
                .zip(minima.par_iter_mut())
                .enumerate()
                .with_min_len(grain)
                .map(|(b, (alive, minima))| {
                    let mut leaves = [K::MAX; BLOCK];
                    build(b, &mut leaves, alive, minima);
                    leaves
                })
                .collect_into_vec(&mut leaves);
        }
        if minima.iter().any(|m| m.saw_max) {
            let remap = Remap::over(&leaves.as_flattened()[..len]);
            remap_blocks(&mut leaves, &mut alive, &mut minima, len, remap);
        }
        let scap = num_blocks.next_power_of_two().max(1);
        let mut summary = vec![K::MAX; 2 * scap];
        for (slot, block) in summary[scap..].iter_mut().zip(&minima) {
            *slot = min_of(&block.groups);
        }
        for v in (1..scap).rev() {
            summary[v] = summary[2 * v].min(summary[2 * v + 1]);
        }
        TournamentTree {
            leaves,
            alive,
            minima,
            summary,
            scap,
            touched: Vec::with_capacity(num_blocks),
            len,
            active: len,
        }
    }

    /// Walk the summary heap, collecting every block whose minimum is a
    /// record under its carry (exactly the blocks containing ≥ 1 record)
    /// into `self.touched`, in increasing block order.  Uses the pre-round
    /// summary minima throughout, so right-sibling carries see the state at
    /// round start.
    ///
    /// An inner node whose minimum is a record has a touched block below
    /// it: the child holding that minimum is a record under its own carry.
    /// So the inner nodes the walk descends from are exactly the touched
    /// blocks' ancestors, which [`TournamentTree::end_round`] recomputes,
    /// and the walk visits the root and both children of each of them.
    fn collect_touched(&mut self, node: usize, carry: K) {
        if !is_record(self.summary[node], carry) {
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

    /// Close a round that extracted `count` records from the touched blocks,
    /// whose summary leaves hold their new minima: repair the summary heap
    /// above them.  Returns the number of summary nodes recomputed.
    fn end_round(&mut self, count: usize) -> u64 {
        // Each walk stops where it meets the next touched block's path (all
        // summary leaves share one depth, so the paths meet at the same
        // level); that later walk recomputes the shared ancestors once both
        // sides are repaired, so every dirty node is recomputed exactly once.
        let mut repaired = 0;
        for (i, &(b, _)) in self.touched.iter().enumerate() {
            let mut v = (self.scap + b) / 2;
            let mut next = self
                .touched
                .get(i + 1)
                .map_or(0, |&(c, _)| (self.scap + c) / 2);
            while v >= 1 && v != next {
                self.summary[v] = self.summary[2 * v].min(self.summary[2 * v + 1]);
                repaired += 1;
                v /= 2;
                next /= 2;
            }
        }
        self.active -= count;
        repaired
    }

    /// Run one extraction round, writing `round` into the leaf of every
    /// record.  Returns the number of records extracted and the
    /// comparisons the round made: the blocks' own (see `Block::extract`),
    /// and the summary nodes the descent visits and the repair recomputes.
    ///
    /// The touched blocks split by [`round_min_grain`] over their positions,
    /// but into grains of at least [`FORK_BLOCKS`] blocks each: a round with
    /// fewer than twice that many runs entirely on the calling thread and
    /// pushes no pool jobs.
    fn extract_round(&mut self, round: u32) -> (usize, u64) {
        if !self.begin_round() {
            return (0, 0);
        }
        let grain = round_min_grain(self.touched.len() * BLOCK)
            .div_ceil(BLOCK)
            .max(FORK_BLOCKS);
        let blocks = BlocksMut {
            leaves: &mut self.leaves,
            alive: &mut self.alive,
            minima: &mut self.minima,
            block_mins: &mut self.summary[self.scap..],
            first: 0,
        };
        let stamp = K::from_round(round);
        let (count, work) = extract_touched(blocks, &self.touched, stamp, grain);
        (count, work + summary_work(self.end_round(count)))
    }

    /// The round numbers in the leaves of positions `0..len`, with 0 for a
    /// position still alive.
    fn into_rounds(self) -> Vec<u32> {
        let mut leaves = self.leaves;
        if self.active > 0 {
            for (block, alive) in leaves.iter_mut().zip(&self.alive) {
                for (c, &mask) in alive.as_flattened().iter().enumerate() {
                    for i in set_bits(u32::from(mask)) {
                        block[c * CHUNK + i] = K::from_round(0);
                    }
                }
            }
        }
        let mut leaves = leaves.into_flattened();
        leaves.truncate(self.len);
        // For `u32` keys the leaves already are the round numbers.
        match (&mut leaves as &mut dyn Any).downcast_mut::<Vec<u32>>() {
            Some(rounds) => std::mem::take(rounds),
            None => leaves.into_iter().map(K::to_round).collect(),
        }
    }
}

/// [`PhaseParallel`] instance over a tournament tree: round `r` extracts every
/// prefix-minimum record and assigns it DP value `r`.
///
/// This is the shared cordon of Sec. 3 — parallel LIS runs it over the input
/// values, parallel sparse LCS over the `j` keys of the canonically sorted
/// matching pairs — so both problems delegate to this one implementation.
/// The DP values live in the tree's taken leaves, so the cordon owns no
/// array of its own.
pub struct StaircaseCordon<K> {
    tree: TournamentTree<K>,
    round: u32,
}

impl<K: Key> StaircaseCordon<K> {
    /// Build the tournament tree over positions `0..len`.  The block writer
    /// `write(first, out)` fills `out` with the keys of positions
    /// `first..first + out.len()`; it is called once per block of the
    /// crate's *Layout* section, into a block whose padding already holds
    /// `K::MAX`: the block's own slot of the leaf buffer inline, a block on
    /// the stack that then moves into its slot when the build forks.
    /// `O(n)` work, `O(log n)` span; blocks are built in parallel for large
    /// inputs, fully inline for sub-grain ones.  Inline, the number of
    /// allocations does not depend on `len` unless some key equals
    /// `K::MAX`, and the tree allocates its leaves, alive masks, minima,
    /// summary heap and touched list once each; no pass zeroes or fills the
    /// leaf buffer before the blocks are written.
    ///
    /// # Panics
    /// If the keys take every value of `K`, which only a key type narrower
    /// than the input's length allows.
    pub fn new(len: usize, write: impl Fn(usize, &mut [K]) + Sync) -> Self {
        StaircaseCordon {
            tree: TournamentTree::new(len, write),
            round: 0,
        }
    }
}

impl<K: Key> PhaseParallel for StaircaseCordon<K> {
    /// Per-position DP values (the round each position was extracted in) plus
    /// the number of rounds, i.e. the staircase depth.
    type Output = (Vec<u32>, u32);

    fn is_done(&self) -> bool {
        self.tree.active == 0
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        // A taken leaf holds its round number, so a round whose number the
        // key type has no room for finalizes nothing (the round budget ends
        // a run first).
        if self.round == last_round::<K>() {
            return 0;
        }
        // Each touched block writes the round number straight into the
        // leaves it takes; no record is buffered.
        let (count, work) = self.tree.extract_round(self.round + 1);
        if count == 0 {
            return 0;
        }
        self.round += 1;
        metrics.add_edges(count as u64);
        metrics.add_probes(work);
        count
    }

    fn finish(self) -> Self::Output {
        (self.tree.into_rounds(), self.round)
    }

    fn round_budget(&self) -> Option<u64> {
        // The staircase depth never exceeds the number of elements (Theorems
        // 3.1 and 3.2: it equals the LIS/LCS length), nor may it pass the
        // last round number a leaf can hold.
        let rounds_left = last_round::<K>() - self.round;
        Some((self.tree.active as u64).min(u64::from(rounds_left)))
    }
}
/// Values compared at once by the backward search of [`reconstruct_chain`].
const SEARCH_CHUNK: usize = 32;

/// Walk one longest chain back from the DP values a [`StaircaseCordon`]
/// computed, and return its positions in increasing order.
///
/// The last element is the last position whose value is `length`.  From an
/// element `q`, the walk takes the last position `p < q` whose value is the
/// next level down and for which `extends(p, q)` holds: it searches the
/// values alone, backwards in chunks, and checks `extends` only at a
/// position on the level, moving further back if the check fails.  The
/// chain is therefore exactly the one a backward scan of every position
/// picks, for any `values`; it is shorter than `length` only if `values`
/// hold no such chain.
///
/// With the values of a staircase cordon and `extends` its strict key order
/// (LIS, or sparse LCS in canonical pair order), the first check always
/// succeeds.  One level's elements are the records of one round, so their
/// keys do not increase from left to right, and the last element of the
/// level before `q` has the level's smallest key before `q`.  That key lies
/// below `q`'s, since in that round a record of the level blocked `q`.
pub fn reconstruct_chain(
    values: &[u32],
    length: u32,
    extends: impl Fn(usize, usize) -> bool,
) -> Vec<usize> {
    // A chain holds at most one position per value, whatever `length` says.
    let mut chain: Vec<usize> = Vec::with_capacity(values.len().min(length as usize));
    let mut end = values.len();
    let mut level = length;
    while level > 0 {
        let Some(p) = last_on_level(&values[..end], level) else {
            break;
        };
        if chain.last().is_none_or(|&q| extends(p, q)) {
            chain.push(p);
            level -= 1;
        }
        end = p;
    }
    chain.reverse();
    chain
}

/// The last position of `values` whose value is `level`.
fn last_on_level(values: &[u32], level: u32) -> Option<usize> {
    let mut chunks = values.rchunks_exact(SEARCH_CHUNK);
    let mut end = values.len();
    for chunk in &mut chunks {
        end -= SEARCH_CHUNK;
        // A branch-free test over the whole chunk, which the compiler
        // vectorizes; the position is found only in a chunk that holds it.
        if chunk.iter().fold(false, |hit, &v| hit | (v == level)) {
            return chunk.iter().rposition(|&v| v == level).map(|i| end + i);
        }
    }
    chunks.remainder().iter().rposition(|&v| v == level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardp_core::try_run_phase_parallel;
    use std::fmt::Debug;

    /// The positions of one round's prefix-minimum records over the active
    /// `(position, key)` pairs: each pair whose key is at most every key
    /// before it.  The oracle states `k <= carry` itself, not through the
    /// kernel's [`beats`].
    fn reference_prefix_minima<K: Ord + Copy>(keys: &[(usize, K)]) -> Vec<usize> {
        let mut out = Vec::new();
        let mut carry: Option<K> = None;
        for &(pos, k) in keys {
            if carry.is_none_or(|c| k <= c) {
                out.push(pos);
            }
            carry = Some(carry.map_or(k, |c| c.min(k)));
        }
        out
    }

    /// Oracle: repeatedly take the prefix-minimum records of the remaining
    /// list, and return each round's positions.
    fn simulate_rounds<K: Ord + Copy>(keys: &[K]) -> Vec<Vec<usize>> {
        let mut remaining: Vec<(usize, K)> = keys.iter().copied().enumerate().collect();
        let mut picked = vec![false; keys.len()];
        let mut rounds = Vec::new();
        while !remaining.is_empty() {
            let records = reference_prefix_minima(&remaining);
            for &p in &records {
                picked[p] = true;
            }
            remaining.retain(|&(p, _)| !picked[p]);
            rounds.push(records);
        }
        rounds
    }

    /// `extract_round` with the fork cutoff forced to one block, so every
    /// touched list is split down to single blocks.
    fn extract_round_split<K: Key>(tree: &mut TournamentTree<K>, round: u32) -> (usize, u64) {
        if !tree.begin_round() {
            return (0, 0);
        }
        let blocks = BlocksMut {
            leaves: &mut tree.leaves,
            alive: &mut tree.alive,
            minima: &mut tree.minima,
            block_mins: &mut tree.summary[tree.scap..],
            first: 0,
        };
        let stamp = K::from_round(round);
        let (count, work) = extract_touched(blocks, &tree.touched, stamp, 1);
        (count, work + summary_work(tree.end_round(count)))
    }

    /// The block writer over `keys`.
    fn writer<K: Key>(keys: &[K]) -> impl Fn(usize, &mut [K]) + Sync + '_ {
        |first, out| out.copy_from_slice(&keys[first..first + out.len()])
    }

    /// A tree over `keys`.
    fn tree_over<K: Key>(keys: &[K]) -> TournamentTree<K> {
        TournamentTree::new(keys.len(), writer(keys))
    }

    /// A staircase cordon over `keys`.
    fn cordon_over<K: Key>(keys: &[K]) -> StaircaseCordon<K> {
        StaircaseCordon::new(keys.len(), writer(keys))
    }

    /// The DP values `tree`'s leaves hold: each taken position's round, 0
    /// for a position still alive.
    fn values_of<K: Key>(tree: &TournamentTree<K>) -> Vec<u32> {
        let masks = tree.alive.as_flattened().as_flattened();
        let leaves = tree.leaves.as_flattened();
        (0..tree.len)
            .map(|p| match masks[p / CHUNK] >> (p % CHUNK) & 1 {
                0 => leaves[p].to_round(),
                _ => 0,
            })
            .collect()
    }

    /// Positions whose DP value is `round`, in increasing order.
    fn positions_of(values: &[u32], round: u32) -> Vec<usize> {
        (0..values.len()).filter(|&p| values[p] == round).collect()
    }

    /// Check round by round against [`simulate_rounds`], through the round
    /// numbers `StaircaseCordon::round` writes into the taken leaves, once
    /// with the real fork policy and once split down to single blocks.  The
    /// split rounds sum their comparisons through the joins, and must count
    /// what the cordon's rounds count.
    fn check_against_oracle<K: Key + Debug>(keys: &[K]) {
        let oracle = simulate_rounds(keys);
        let metrics = MetricsCollector::new();
        let mut cordon = cordon_over(keys);
        let mut split = tree_over(keys);
        let mut split_work = 0;
        for (round, want) in (1u32..).zip(&oracle) {
            let probes = metrics.snapshot().probes;
            assert_eq!(cordon.round(&metrics), want.len(), "round {round}");
            assert_eq!(
                &positions_of(&values_of(&cordon.tree), round),
                want,
                "round {round} mismatch for {keys:?}"
            );
            let (count, work) = extract_round_split(&mut split, round);
            assert_eq!(count, want.len(), "split round {round}");
            assert_eq!(
                &positions_of(&values_of(&split), round),
                want,
                "split round {round}"
            );
            assert_eq!(
                metrics.snapshot().probes - probes,
                work,
                "work of round {round}"
            );
            split_work += work;
        }
        assert!(cordon.is_done());
        assert_eq!(cordon.round(&metrics), 0);
        assert_eq!(extract_round_split(&mut split, 0), (0, 0));
        assert_eq!(metrics.snapshot().probes, split_work);
        let (values, rounds) = cordon.finish();
        assert_eq!(rounds as usize, oracle.len());
        assert_eq!(values, split.into_rounds());
    }

    /// Run lengths straddling a chunk, a group and a block.
    const RUN_LENS: [usize; 9] = [
        CHUNK - 1,
        CHUNK,
        CHUNK + 1,
        GROUP - 1,
        GROUP,
        GROUP + 1,
        BLOCK - 1,
        BLOCK,
        BLOCK + 1,
    ];

    /// Offsets that start a run at a chunk boundary, mid-chunk, or just
    /// either side of a chunk, group or block boundary.
    const OFFSETS: [usize; 9] = [
        0,
        1,
        CHUNK / 2,
        CHUNK - 1,
        CHUNK + 1,
        GROUP - 1,
        GROUP + 1,
        BLOCK - 1,
        BLOCK + 1,
    ];

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
                    check_against_oracle(&decreasing_runs(runs));
                }
            }
        }
    }

    #[test]
    fn equal_key_runs_match_oracle() {
        // An equal run drains at once: a key equal to the carry is a record.
        // Runs start at a chunk boundary, mid-chunk, and just before a block
        // boundary.
        for len in RUN_LENS {
            for offset in [0, CHUNK / 2, BLOCK - CHUNK / 2] {
                let mut keys = vec![7u64; offset];
                keys.extend(std::iter::repeat_n(3, len));
                keys.extend(std::iter::repeat_n(5, CHUNK + 1));
                keys.extend(std::iter::repeat_n(3, CHUNK - 1));
                check_against_oracle(&keys);
            }
        }
    }

    #[test]
    fn keys_at_the_type_limits_match_oracle() {
        let max = u64::MAX;
        // A lone `K::MAX`, alone and among small keys.
        check_against_oracle(&[max]);
        check_against_oracle(&[5, max, 2, max]);
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
        check_against_oracle(&keys);
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
        check_against_oracle(&keys);
        check_against_oracle(&[i64::MIN]);
    }

    #[test]
    fn keys_taking_all_but_one_value_match_oracle() {
        // Every `u8` but 7, shuffled: the run `8..=255` moves onto `7..=254`.
        let values: Vec<u8> = (0..=255).filter(|&v| v != 7).collect();
        let keys: Vec<u8> = (0..values.len())
            .map(|i| values[i * 101 % values.len()])
            .collect();
        check_against_oracle(&keys);
    }

    #[test]
    #[should_panic(expected = "none is free")]
    fn keys_taking_every_value_are_refused() {
        let keys: Vec<u8> = (0..=255).collect();
        cordon_over(&keys);
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
        check_against_oracle(&keys);
    }

    /// The global indices of the groups `tree` marked as runs.
    fn run_groups<K: Key>(tree: &TournamentTree<K>) -> Vec<usize> {
        let blocks = tree.minima.iter().enumerate();
        blocks
            .flat_map(|(b, m)| set_bits(u32::from(m.runs)).map(move |g| b * GROUPS + g))
            .collect()
    }

    /// The groups that lie wholly inside positions `start..start + len`.
    fn groups_within(start: usize, len: usize) -> Vec<usize> {
        (start.div_ceil(GROUP)..(start + len) / GROUP).collect()
    }

    /// Whether the groups of `tree` marked as runs include every one of
    /// `want`.
    fn marks_runs<K: Key>(tree: &TournamentTree<K>, want: &[usize]) -> bool {
        let runs = run_groups(tree);
        want.iter().all(|g| runs.contains(g))
    }

    /// `len` pseudo-random keys in `base..base + 1000`.
    fn filler(len: usize, base: u64) -> Vec<u64> {
        (0..len as u64)
            .map(|i| base + (i * 2654435761 + 7) % 1000)
            .collect()
    }

    #[test]
    fn sorted_run_groups_match_oracle() {
        // A decreasing run of `GROUP - 1`, `GROUP` or `GROUP + 1` keys at a
        // group boundary or off it, below the filler on its left (so it
        // drains in round one) or above all of it (so it drains last).
        for len in [GROUP - 1, GROUP, GROUP + 1] {
            for start in [0, 1, CHUNK / 2, GROUP, GROUP + 1, BLOCK - GROUP, BLOCK - 1] {
                for base in [500, 5_000] {
                    let mut keys = filler(start, 1_000);
                    keys.extend((0..len as u64).rev().map(|t| base + t));
                    keys.extend(filler(GROUP + 3, 1_000));
                    assert!(marks_runs(&tree_over(&keys), &groups_within(start, len)));
                    check_against_oracle(&keys);
                }
            }
        }
    }

    #[test]
    fn runs_may_hold_equal_keys() {
        // Equal keys, and non-increasing keys with ties among them: each is
        // a run, since a key equal to the one before it beats it.
        for len in [GROUP - 1, GROUP, GROUP + 1, 2 * GROUP] {
            for start in [0, 1, GROUP] {
                let equal = vec![5; len];
                let ties: Vec<u64> = (0..len as u64).rev().map(|t| 100 + t / 3).collect();
                for run in [equal, ties] {
                    let mut keys = filler(start, 1_000);
                    keys.extend(run);
                    keys.extend(filler(CHUNK + 1, 1_000));
                    assert!(marks_runs(&tree_over(&keys), &groups_within(start, len)));
                    check_against_oracle(&keys);
                }
            }
        }
    }

    #[test]
    fn a_run_is_taken_as_a_suffix_over_several_rounds() {
        // Blockers `step, 2 * step, ..., 6 * step`, then a run counting down
        // from `2 * GROUP - 1` to 0.  Round `r` takes blocker `r * step`
        // and, behind it, the run keys from `r * step` down to what the
        // round before left: a suffix of the alive prefix.  Round 7 takes
        // the rest.  Pads of decreasing
        // keys above everything, all taken in round one, put the run at a
        // group boundary or just past one.
        let (step, len) = (20, 2 * GROUP);
        for pad in [GROUP - 6, 2 * GROUP - 6, GROUP - 5, BLOCK - 6] {
            let mut keys: Vec<u64> = (0..pad as u64).rev().map(|t| 10_000 + t).collect();
            keys.extend((1..=6).map(|r| r * step));
            keys.extend((0..len as u64).rev());
            let covered = groups_within(pad + 6, len);
            assert!(!covered.is_empty());
            assert!(marks_runs(&tree_over(&keys), &covered));
            check_against_oracle(&keys);
        }
    }

    #[test]
    fn a_run_broken_at_its_last_leaf_is_mixed() {
        // A group whose first `GROUP - 1` keys fall and whose last key rises
        // above them (mixed), or equals the one before it (still a run).
        for start in [0, GROUP, BLOCK - GROUP] {
            for last in [2_000, 500] {
                let mut keys = filler(start, 1_000);
                keys.extend((0..GROUP as u64 - 1).rev().map(|t| 500 + t));
                keys.push(last);
                keys.extend(filler(CHUNK + 1, 1_000));
                let g = start / GROUP;
                assert_eq!(run_groups(&tree_over(&keys)).contains(&g), last == 500);
                check_against_oracle(&keys);
            }
        }
    }

    #[test]
    fn the_last_blocks_partial_group_can_be_a_run() {
        // The tree ends `tail` keys into a group; those keys fall, below
        // the filler before them or above all of it.
        for tail in [1, 2, CHUNK - 1, CHUNK + 1, GROUP - 1] {
            for base in [500, 5_000] {
                let mut keys = filler(BLOCK + GROUP, 1_000);
                keys.extend((0..tail as u64).rev().map(|t| base + t));
                let g = (BLOCK + GROUP) / GROUP;
                assert!(run_groups(&tree_over(&keys)).contains(&g));
                check_against_oracle(&keys);
            }
        }
    }

    #[test]
    fn runs_reaching_the_key_limit_match_oracle() {
        // A run counting down from `K::MAX`: the remap moves it down by one.
        let max = u64::MAX;
        for start in [0, 1, GROUP] {
            let mut keys = filler(start, 1_000);
            keys.extend((0..GROUP as u64 + 1).map(|t| max - t));
            keys.extend(filler(CHUNK + 1, 1_000));
            assert!(marks_runs(
                &tree_over(&keys),
                &groups_within(start, GROUP + 1)
            ));
            check_against_oracle(&keys);
        }
        // `u8` keys: 255 twice, then down to 192 (group 0 is a run, the tie
        // included), a rising stretch, and 255 down to 192 again.  Every value of the span `192..=255` is present, so it
        // moves onto `191..=254`.
        let mut keys: Vec<u8> = vec![255];
        keys.extend((192..=255).rev());
        keys.extend(0..GROUP as u8);
        keys.extend((192..=255).rev());
        assert!(run_groups(&tree_over(&keys)).contains(&0));
        check_against_oracle(&keys);
    }

    #[test]
    fn matching_pair_columns_match_oracle() {
        // The `j` keys of the matching pairs of two pseudo-random strings
        // over 2-4 letters in canonical order (`i` up, `j` down): each
        // column's matches fall strictly, and a column of 64 or more fills
        // whole groups.
        for (n, m, letters, seed) in [(12, 400, 2, 1), (20, 600, 4, 2), (6, 1_500, 3, 3)] {
            let mut state: u64 = seed;
            let mut string = |len: usize| -> Vec<u64> {
                (0..len)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 33) % letters
                    })
                    .collect()
            };
            let (a, b) = (&string(n), &string(m));
            let keys: Vec<u32> = (0..n)
                .flat_map(|i| (0..m).rev().filter(move |&j| a[i] == b[j]))
                .map(|j| j as u32)
                .collect();
            assert!(!run_groups(&tree_over(&keys)).is_empty());
            check_against_oracle(&keys);
        }
    }

    #[test]
    fn example_from_paper_figure2() {
        // Input sequence of Fig. 2(a): 7 3 6 8 1 4 2 5.  Round 1 takes the
        // prefix minima 7, 3, 1; round 2 those of 6 8 4 2 5, which are 6, 4
        // and 2; round 3 the rest, 8 and 5.  Three rounds, the LIS length
        // (Theorem 3.1's span argument; e.g. 3 4 5).
        let keys = [7u64, 3, 6, 8, 1, 4, 2, 5];
        let metrics = MetricsCollector::new();
        let (values, rounds) = try_run_phase_parallel(cordon_over(&keys), &metrics).unwrap();
        assert_eq!(values, [1, 1, 2, 3, 1, 2, 2, 3]);
        assert_eq!(rounds, 3);
    }

    #[test]
    fn monotone_inputs_take_one_record_or_all_of_them() {
        let metrics = MetricsCollector::new();
        let increasing: Vec<u64> = (0..1000).collect();
        let mut cordon = cordon_over(&increasing);
        assert_eq!(
            cordon.round(&metrics),
            1,
            "only the first element is a record"
        );
        assert_eq!(positions_of(&values_of(&cordon.tree), 1), [0]);
        // Decreasing input: everything is a record in round one.
        let decreasing: Vec<u64> = (0..1000).rev().collect();
        let mut cordon = cordon_over(&decreasing);
        assert_eq!(cordon.round(&metrics), 1000);
        assert!(cordon.is_done());
        assert_eq!(cordon.round(&metrics), 0);
    }

    #[test]
    fn equal_keys_are_all_records_of_one_round() {
        let metrics = MetricsCollector::new();
        let solved = try_run_phase_parallel(cordon_over(&[5u64, 5, 5]), &metrics);
        assert_eq!(solved, Ok((vec![1, 1, 1], 1)));
    }

    #[test]
    fn empty_and_singleton() {
        let metrics = MetricsCollector::new();
        let mut empty = cordon_over::<u64>(&[]);
        assert!(empty.is_done());
        assert_eq!(empty.round(&metrics), 0);
        assert_eq!(empty.finish(), (vec![], 0));
        let mut single = cordon_over(&[42u64]);
        assert_eq!(single.round(&metrics), 1);
        assert!(single.is_done());
        assert_eq!(single.round(&metrics), 0);
        assert_eq!(single.finish(), (vec![1], 1));
    }

    #[test]
    fn pseudo_random_inputs_match_oracle() {
        // Deterministic pseudo-random sequences of several sizes, straddling
        // the block boundary (1024) and multiple blocks.
        for &n in &[
            1usize, 2, 3, 10, 63, 64, 65, 257, 1000, 1023, 1024, 1025, 5000,
        ] {
            let keys: Vec<u64> = (0..n as u64).map(|i| (i * 48271 + 11) % 997).collect();
            check_against_oracle(&keys);
            // `u32` keys: the cordon hands its leaves back as the DP values.
            let keys: Vec<u32> = keys.iter().map(|&k| k as u32).collect();
            check_against_oracle(&keys);
        }
    }

    #[test]
    fn narrow_keys_hold_every_round_number_they_have_room_for() {
        // The increasing `u8` keys `0..=254` take one record a round, as
        // many rounds as a `u8` leaf has round numbers.
        let keys: Vec<u8> = (0..=254).collect();
        let cordon = cordon_over(&keys);
        assert_eq!(cordon.round_budget(), Some(255));
        let metrics = MetricsCollector::new();
        let (values, rounds) = try_run_phase_parallel(cordon, &metrics).unwrap();
        assert_eq!(rounds, 255);
        assert_eq!(values, (1..=255).collect::<Vec<u32>>());
    }

    #[test]
    fn a_round_number_past_the_key_type_finalizes_nothing() {
        // No `u8` input needs more rounds than a `u8` leaf has round numbers
        // (see the crate docs), so the round counter is set just below the
        // last one by hand.
        let metrics = MetricsCollector::new();
        let mut cordon = cordon_over(&[5u8, 6, 6, 7]);
        cordon.round = 254;
        assert_eq!(cordon.round_budget(), Some(1));
        assert_eq!(cordon.round(&metrics), 1);
        assert_eq!(cordon.round_budget(), Some(0));
        assert_eq!(cordon.round(&metrics), 0);
        assert!(!cordon.is_done());
        let (values, rounds) = cordon.finish();
        assert_eq!(rounds, 255);
        // The positions no round took read 0, not their keys.
        assert_eq!(values, [255, 0, 0, 0]);
    }

    #[test]
    fn cross_block_carry_blocks_later_blocks() {
        // A tiny key in block 0 must block everything in later blocks; once
        // it is gone, the equal keys behind it are all records.
        let mut keys = vec![1_000_000u64; 3000];
        keys[0] = 0;
        let metrics = MetricsCollector::new();
        let mut cordon = cordon_over(&keys);
        assert_eq!(cordon.round(&metrics), 1);
        assert_eq!(positions_of(&values_of(&cordon.tree), 1), [0]);
        assert_eq!(cordon.round(&metrics), 2999);
        assert!(cordon.is_done());
    }

    #[test]
    fn extract_run_takes_a_group_whole_in_part_or_behind_an_equal_carry() {
        // A strictly falling run, 226 down to 100 in steps of 2, and the
        // leaves holding the stamp, round number 0, which no key equals.
        let keys: Vec<u64> = (0..GROUP as u64).rev().map(|t| 100 + 2 * t).collect();
        let stamped =
            |leaves: &[u64]| -> Vec<usize> { (0..GROUP).filter(|&i| leaves[i] == 0).collect() };

        // Whole: the carry lies above the first key, so one comparison.
        let (mut leaves, mut alive) = (keys.clone(), [u8::MAX; GROUP_CHUNKS]);
        let taken = extract_run(&mut leaves, &mut alive, 1_000, 0);
        assert_eq!(taken, (u64::MAX, GROUP, 1));
        assert_eq!(alive, [0; GROUP_CHUNKS]);
        assert_eq!(stamped(&leaves), (0..GROUP).collect::<Vec<_>>());

        // In part: a carry of 151 takes the keys up to 150, by a search.
        let (mut leaves, mut alive) = (keys.clone(), [u8::MAX; GROUP_CHUNKS]);
        let (min, took, steps) = extract_run(&mut leaves, &mut alive, 151, 0);
        assert_eq!((min, took), (152, GROUP - 38));
        assert!(steps > 1, "a partial take searches");
        assert_eq!(u64::from_le_bytes(alive), (1 << 38) - 1);
        assert_eq!(stamped(&leaves), (38..GROUP).collect::<Vec<_>>());
        // Then whole, once the carry has risen above the rest.
        let taken = extract_run(&mut leaves, &mut alive, 1_000, 0);
        assert_eq!(taken, (u64::MAX, 38, 1));
        assert_eq!(stamped(&leaves), (0..GROUP).collect::<Vec<_>>());

        // A carry equal to the first key blocks none of them, so the group
        // goes whole after one comparison.
        let (mut leaves, mut alive) = (keys.clone(), [u8::MAX; GROUP_CHUNKS]);
        let taken = extract_run(&mut leaves, &mut alive, keys[0], 0);
        assert_eq!(taken, (u64::MAX, GROUP, 1));
        assert_eq!(alive, [0; GROUP_CHUNKS]);
    }

    #[test]
    fn run_groups_taken_whole_in_part_and_behind_an_equal_carry_match_oracle() {
        // High falling pads (taken in round one), a blocker, then a falling
        // run of `GROUP + 3` keys from 500 at a group boundary.  A blocker
        // above the run, or equal to its first key, lets it go whole; one
        // inside it takes it in part, and the rest whole in round two.
        for start in [GROUP, 2 * GROUP, BLOCK] {
            for blocker in [501, 480, 500] {
                let mut keys: Vec<u64> = (0..start as u64 - 1).rev().map(|t| 10_000 + t).collect();
                keys.push(blocker);
                keys.extend((0..GROUP as u64 + 3).map(|t| 500 - t));
                keys.extend(filler(CHUNK + 1, 1_000));
                assert!(marks_runs(&tree_over(&keys), &[start / GROUP]));
                check_against_oracle(&keys);
            }
        }
    }

    /// The summary nodes [`TournamentTree::collect_touched`] visits from
    /// `node`, counted by walking the same way.
    fn visits<K: Key>(tree: &TournamentTree<K>, node: usize, carry: K) -> u64 {
        if !is_record(tree.summary[node], carry) || node >= tree.scap {
            return 1;
        }
        let right = carry.min(tree.summary[2 * node]);
        1 + visits(tree, 2 * node, carry) + visits(tree, 2 * node + 1, right)
    }

    #[test]
    fn the_descent_visits_the_root_and_both_children_of_each_repaired_node() {
        let random: Vec<u64> = (0..5 * BLOCK as u64 + 3)
            .map(|i| (i * 2654435761) % 1_000_003)
            .collect();
        let runs = decreasing_runs(&[(700, 5_000), (3_000, 9_000), (900, 100), (1_500, 2_000)]);
        for keys in [random, runs, vec![7]] {
            let mut tree = tree_over(&keys);
            while tree.active > 0 {
                let visited = visits(&tree, 1, u64::MAX);
                assert!(tree.begin_round());
                let blocks = BlocksMut {
                    leaves: &mut tree.leaves,
                    alive: &mut tree.alive,
                    minima: &mut tree.minima,
                    block_mins: &mut tree.summary[tree.scap..],
                    first: 0,
                };
                let (count, _) = extract_touched(blocks, &tree.touched, 1, 1);
                let repaired = tree.end_round(count);
                assert_eq!(visited, 1 + 2 * repaired);
                assert_eq!(summary_work(repaired), visited + repaired);
            }
        }
    }

    #[test]
    fn key_max_in_several_blocks_builds_at_one_and_two_threads() {
        // `K::MAX` in blocks 0 and 2 and in the last, partial, block 3, so
        // the build's flag and the remap pass see several blocks.  The span
        // `K::MAX - 1..=K::MAX` moves onto `K::MAX - 2..=K::MAX - 1`.
        let max = u64::MAX;
        let mut keys = filler(3 * BLOCK + 100, 1_000);
        for p in [5, 2 * BLOCK + 17, 3 * BLOCK + 99] {
            keys[p] = max;
        }
        keys[3 * BLOCK + 40] = max - 1;
        let remap = Remap::over(&keys);
        assert_eq!(remap.absent, max - 2);
        let stored: Vec<u64> = keys.iter().map(|&k| remap.store(k)).collect();
        for threads in [1, 2] {
            pardp_parutils::with_threads(threads, || {
                let tree = tree_over(&keys);
                let leaves = &tree.leaves.as_flattened()[..keys.len()];
                assert_eq!(leaves, stored, "at {threads} threads");
                assert!(tree.minima.iter().filter(|m| m.saw_max).count() == 3);
                check_against_oracle(&keys);
            });
        }
    }

    #[test]
    fn a_two_thread_build_equals_the_one_thread_build() {
        // 40 blocks, enough for the build to fork at 2 threads: falling
        // runs of 90 keys (many of their groups are runs) between stretches
        // of pseudo-random keys.
        let keys: Vec<u32> = (0..40 * BLOCK as u32 - 7)
            .map(|i| match i / 3_000 % 2 {
                0 => 1_000_000 - i % 90 * 7 - i / 90,
                _ => i.wrapping_mul(2654435761) % 1_000_003,
            })
            .collect();
        let build = |threads| {
            pardp_parutils::with_threads(threads, || {
                // The build forks where its grain is narrower than the tree:
                // at 2 threads on a host with 2 cores or more.
                let forks = build_grain(keys.len()) < keys.len().div_ceil(BLOCK);
                let metrics = MetricsCollector::new();
                let solved = try_run_phase_parallel(cordon_over(&keys), &metrics);
                (tree_over(&keys), forks, solved)
            })
        };
        let (one, forks_one, solved_one) = build(1);
        let (two, forks_two, solved_two) = build(2);
        assert!(!forks_one);
        if std::thread::available_parallelism().map_or(1, |p| p.get()) >= 2 {
            assert!(forks_two, "the 2-thread build forks");
        }
        assert_eq!(one.leaves, two.leaves);
        assert_eq!(one.alive, two.alive);
        assert_eq!(one.minima, two.minima);
        assert_eq!(one.summary, two.summary);
        assert!(!run_groups(&one).is_empty());
        assert_eq!(solved_one, solved_two);
    }

    #[test]
    fn large_input_fully_drains() {
        let n = 100_000usize;
        let keys: Vec<u64> = (0..n as u64)
            .map(|i| (i * 2654435761) % 1_000_003)
            .collect();
        let metrics = MetricsCollector::new();
        let (values, rounds) = try_run_phase_parallel(cordon_over(&keys), &metrics).unwrap();
        assert_eq!(metrics.snapshot().states_finalized, n as u64);
        assert!(
            rounds as usize <= n,
            "cannot need more rounds than elements"
        );
        assert!(values.iter().all(|&v| (1..=rounds).contains(&v)));
    }
}
