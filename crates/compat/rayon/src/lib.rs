//! API-compatible stand-in for the subset of [rayon] this workspace uses —
//! now with a real thread pool.
//!
//! The build environment has no access to crates.io, so the workspace routes
//! `rayon = { path = ... }` at this crate instead (see `crates/compat/README.md`).
//! The shim executes work on a lazily created `std::thread` worker pool with
//! chunked work-stealing deques (the private `pool` module): `join` forks its
//! second closure onto the pool, and the `ParIter` combinators split their
//! input into grains that workers (and the calling thread, which always
//! helps) execute concurrently.  The pool size comes from `RAYON_NUM_THREADS`
//! or [`std::thread::available_parallelism`], and
//! `ThreadPoolBuilder::num_threads` + `ThreadPool::install` override it for a
//! closure's dynamic extent exactly like real rayon.  At one effective thread
//! `join` runs its closures back to back and every combinator drives a plain
//! `std` iterator on the calling thread.
//!
//! # Execution model
//!
//! A pipeline is a [`Producer`] — a splittable description of the input plus
//! the fused adaptor closures.  A terminal operation picks a *grain size*
//! from the input length, the effective thread count, and the
//! [`ParIter::with_min_len`] hint (a real granularity control here, not a
//! no-op), then recursively `join`-splits the producer down to grains.
//! Grain results are always combined **in order**, so order-sensitive
//! terminals (`collect`, `min`, `reduce_with` with a positional tie-break)
//! return the same value for every thread count and grain size as long as
//! the combining operation is associative — the determinism contract the
//! engine's tests pin down.
//!
//! # Semantic fine print (matching real rayon)
//!
//! * [`ParIter::reduce`] may invoke its identity closure **once per grain**
//!   (plus once for the final fold), not exactly once: the identity must be a
//!   true neutral element of `op`, or results will vary with the grain count.
//! * [`ParIter::min`] keeps the **first** minimum (the `std::iter` tie rule),
//!   independent of splitting.
//! * Adaptor closures need `Fn + Send + Sync` because grains run on pool
//!   threads.
//!
//! [rayon]: https://docs.rs/rayon

#![deny(unsafe_code, clippy::undocumented_unsafe_blocks)]

use std::marker::PhantomData;

#[allow(unsafe_code)]
mod pool;

/// Run both closures, returning both results; above one effective thread the
/// second closure is queued on the pool (and reclaimed by the caller if no
/// worker picked it up — the work-stealing fast path).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if pool::effective_threads() > 1 {
        return pool::join(a, b);
    }
    (a(), b())
}

/// Number of threads parallel work may currently use: the innermost
/// [`ThreadPool::install`] override, else `RAYON_NUM_THREADS`, else the
/// machine's available parallelism.
pub fn current_num_threads() -> usize {
    pool::effective_threads()
}

/// Cumulative pool dispatch diagnostics: `(injector pushes, worker wakeups)`.
///
/// Not part of the real rayon API — a shim extension used to *prove* the
/// per-round dispatch fast path: code that must bypass the pool (sub-grain
/// cordon rounds, the `SEQ_CUTOFF` sequential path) asserts that the deltas
/// across the region are zero.  Both counters are monotone process-global
/// totals.
pub fn dispatch_diagnostics() -> (u64, u64) {
    pool::dispatch_counters()
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type mirroring `rayon::ThreadPoolBuildError`; never produced here.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Create a builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request an explicit thread count (0 keeps the global default).
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Build the pool handle; never fails.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let num_threads = if self.num_threads == 0 {
            current_num_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { num_threads })
    }
}

/// A handle configuring how many threads parallel work inside
/// [`ThreadPool::install`] may use.  All handles share the one global worker
/// set (grown on demand), like rayon pools share a global registry per pool.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `f` with this pool's thread count as the effective parallelism.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        let _guard = pool::install_threads(self.num_threads);
        f()
    }

    /// The thread count the pool was configured with.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

// ---------------------------------------------------------------------------
// Producers: splittable pipeline descriptions.
// ---------------------------------------------------------------------------

/// A splittable, exactly-once-consumable description of a parallel pipeline:
/// the input range/slice plus the fused adaptor closures.
///
/// `len` is the exact element count for [`IndexedProducer`]s and an upper
/// bound (a splitting hint) for filtering/flattening producers.
#[allow(clippy::len_without_is_empty)] // `len` is a splitting hint, not a container size
pub trait Producer: Sized + Send {
    /// Element type produced.
    type Item: Send;
    /// Sequential iterator driving one grain.
    type IntoIter: Iterator<Item = Self::Item>;
    /// Exact length (indexed) or upper-bound splitting hint (unindexed).
    fn len(&self) -> usize;
    /// Split into `[0, index)` and `[index, len)` (indices of the *base*
    /// input for unindexed producers).
    fn split_at(self, index: usize) -> (Self, Self);
    /// Consume this producer sequentially.
    fn into_seq(self) -> Self::IntoIter;
}

/// Marker for producers whose [`Producer::len`] is exact and whose items have
/// fixed positions — required by `enumerate`, `zip` and `collect_into_vec`
/// (mirrors rayon's `IndexedParallelIterator`).
pub trait IndexedProducer: Producer {}

/// Pick the grain size for an input of `len` items: roughly
/// `len / (4 × threads)` — a few grains per thread so work stealing can
/// balance uneven grains — but never below the `with_min_len` hint.
fn grain_size(len: usize, min_len: usize) -> usize {
    let threads = current_num_threads().max(1);
    len.div_ceil(threads * 4).max(min_len)
}

/// Split `p` into grains of at most `grain` items, run `map` on each grain,
/// and fold the grain results **in order** with `combine`.
fn map_reduce<P, T, M, C>(p: P, grain: usize, map: &M, combine: &C) -> T
where
    P: Producer,
    T: Send,
    M: Fn(P) -> T + Sync,
    C: Fn(T, T) -> T + Sync,
{
    let len = p.len();
    if len <= grain.max(1) {
        return map(p);
    }
    // Split at a grain multiple so grain boundaries are a function of the
    // input length alone, not of the recursion path.
    let half_grains = len.div_ceil(grain).div_ceil(2);
    let mid = (half_grains * grain).min(len - 1).max(1);
    let (left, right) = p.split_at(mid);
    let (tl, tr) = pool::join(
        || map_reduce(left, grain, map, combine),
        || map_reduce(right, grain, map, combine),
    );
    combine(tl, tr)
}

/// Write every item of `p` into `out` at its index, splitting in parallel.
fn fill_slots<P>(p: P, grain: usize, out: &mut [std::mem::MaybeUninit<P::Item>])
where
    P: IndexedProducer,
{
    debug_assert_eq!(p.len(), out.len());
    if p.len() <= grain.max(1) {
        for (slot, item) in out.iter_mut().zip(p.into_seq()) {
            slot.write(item);
        }
        return;
    }
    let mid = p.len() / 2;
    let (pl, pr) = p.split_at(mid);
    let (ol, or) = out.split_at_mut(mid);
    pool::join(|| fill_slots(pl, grain, ol), || fill_slots(pr, grain, or));
}

// --- base producer: numeric ranges -----------------------------------------

/// Integer types accepted by `into_par_iter()` on ranges.
pub trait RangeInt: Copy + PartialOrd + Send + Sync {
    /// `self + n`, where `n` is known to stay within the original range.
    fn offset(self, n: usize) -> Self;
    /// Elements in `self..end` (0 when `end <= self`).
    fn distance_to(self, end: Self) -> usize;
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl RangeInt for $t {
            #[inline]
            fn offset(self, n: usize) -> Self {
                self + n as $t
            }
            #[inline]
            fn distance_to(self, end: Self) -> usize {
                if end > self { (end - self) as usize } else { 0 }
            }
        }
    )*};
}

impl_range_int!(usize, u32, u64, i32, i64);

/// Producer over a numeric range.
pub struct RangeProducer<T> {
    next: T,
    remaining: usize,
}

impl<T: RangeInt> Producer for RangeProducer<T> {
    type Item = T;
    type IntoIter = RangeSeq<T>;

    fn len(&self) -> usize {
        self.remaining
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        debug_assert!(index <= self.remaining);
        (
            RangeProducer {
                next: self.next,
                remaining: index,
            },
            RangeProducer {
                next: self.next.offset(index),
                remaining: self.remaining - index,
            },
        )
    }

    fn into_seq(self) -> RangeSeq<T> {
        RangeSeq {
            next: self.next,
            remaining: self.remaining,
        }
    }
}

impl<T: RangeInt> IndexedProducer for RangeProducer<T> {}

/// Sequential counterpart of [`RangeProducer`].
pub struct RangeSeq<T> {
    next: T,
    remaining: usize,
}

impl<T: RangeInt> Iterator for RangeSeq<T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        if self.remaining == 0 {
            return None;
        }
        let value = self.next;
        self.next = value.offset(1);
        self.remaining -= 1;
        Some(value)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

// --- base producers: slices -------------------------------------------------

/// Producer over `&[T]`.
pub struct SliceProducer<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> Producer for SliceProducer<'a, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.slice.split_at(index);
        (SliceProducer { slice: l }, SliceProducer { slice: r })
    }

    fn into_seq(self) -> Self::IntoIter {
        self.slice.iter()
    }
}

impl<T: Sync> IndexedProducer for SliceProducer<'_, T> {}

/// Producer over `&mut [T]`.
pub struct SliceMutProducer<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> Producer for SliceMutProducer<'a, T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.slice.split_at_mut(index);
        (SliceMutProducer { slice: l }, SliceMutProducer { slice: r })
    }

    fn into_seq(self) -> Self::IntoIter {
        self.slice.iter_mut()
    }
}

impl<T: Send> IndexedProducer for SliceMutProducer<'_, T> {}

// --- adaptor producers ------------------------------------------------------

/// `map` adaptor: applies `f` to every item.
pub struct MapProducer<P, F, R> {
    base: P,
    f: F,
    _r: PhantomData<fn() -> R>,
}

impl<P, F, R> Producer for MapProducer<P, F, R>
where
    P: Producer,
    F: Fn(P::Item) -> R + Send + Sync + Clone,
    R: Send,
{
    type Item = R;
    type IntoIter = MapSeq<P::IntoIter, F, R>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            MapProducer {
                base: l,
                f: self.f.clone(),
                _r: PhantomData,
            },
            MapProducer {
                base: r,
                f: self.f,
                _r: PhantomData,
            },
        )
    }

    fn into_seq(self) -> Self::IntoIter {
        MapSeq {
            inner: self.base.into_seq(),
            f: self.f,
            _r: PhantomData,
        }
    }
}

impl<P, F, R> IndexedProducer for MapProducer<P, F, R>
where
    P: IndexedProducer,
    F: Fn(P::Item) -> R + Send + Sync + Clone,
    R: Send,
{
}

/// Sequential counterpart of [`MapProducer`].
pub struct MapSeq<I, F, R> {
    inner: I,
    f: F,
    _r: PhantomData<fn() -> R>,
}

impl<I, F, R> Iterator for MapSeq<I, F, R>
where
    I: Iterator,
    F: Fn(I::Item) -> R,
{
    type Item = R;

    #[inline]
    fn next(&mut self) -> Option<R> {
        self.inner.next().map(|x| (self.f)(x))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// `filter` adaptor (unindexed: `len` becomes an upper bound).
pub struct FilterProducer<P, F> {
    base: P,
    f: F,
}

impl<P, F> Producer for FilterProducer<P, F>
where
    P: Producer,
    F: Fn(&P::Item) -> bool + Send + Sync + Clone,
{
    type Item = P::Item;
    type IntoIter = FilterSeq<P::IntoIter, F>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            FilterProducer {
                base: l,
                f: self.f.clone(),
            },
            FilterProducer { base: r, f: self.f },
        )
    }

    fn into_seq(self) -> Self::IntoIter {
        FilterSeq {
            inner: self.base.into_seq(),
            f: self.f,
        }
    }
}

/// Sequential counterpart of [`FilterProducer`].
pub struct FilterSeq<I, F> {
    inner: I,
    f: F,
}

impl<I, F> Iterator for FilterSeq<I, F>
where
    I: Iterator,
    F: Fn(&I::Item) -> bool,
{
    type Item = I::Item;

    #[inline]
    fn next(&mut self) -> Option<I::Item> {
        self.inner.by_ref().find(|x| (self.f)(x))
    }
}

/// `flat_map_iter` adaptor: flat-maps through a *serial* iterator per item
/// (unindexed; `len` counts base items, as a splitting hint).
pub struct FlatMapIterProducer<P, F, U: IntoIterator> {
    base: P,
    f: F,
    _u: PhantomData<fn() -> U>,
}

impl<P, F, U> Producer for FlatMapIterProducer<P, F, U>
where
    P: Producer,
    F: Fn(P::Item) -> U + Send + Sync + Clone,
    U: IntoIterator,
    U::Item: Send,
{
    type Item = U::Item;
    type IntoIter = FlatMapIterSeq<P::IntoIter, F, U>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            FlatMapIterProducer {
                base: l,
                f: self.f.clone(),
                _u: PhantomData,
            },
            FlatMapIterProducer {
                base: r,
                f: self.f,
                _u: PhantomData,
            },
        )
    }

    fn into_seq(self) -> Self::IntoIter {
        FlatMapIterSeq {
            inner: self.base.into_seq(),
            f: self.f,
            current: None,
        }
    }
}

/// Sequential counterpart of [`FlatMapIterProducer`].
pub struct FlatMapIterSeq<I, F, U: IntoIterator> {
    inner: I,
    f: F,
    current: Option<U::IntoIter>,
}

impl<I, F, U> Iterator for FlatMapIterSeq<I, F, U>
where
    I: Iterator,
    F: Fn(I::Item) -> U,
    U: IntoIterator,
{
    type Item = U::Item;

    fn next(&mut self) -> Option<U::Item> {
        loop {
            if let Some(cur) = &mut self.current {
                if let Some(item) = cur.next() {
                    return Some(item);
                }
            }
            match self.inner.next() {
                Some(x) => self.current = Some((self.f)(x).into_iter()),
                None => return None,
            }
        }
    }
}

/// `flatten` adaptor (unindexed; `len` counts outer items).
pub struct FlattenProducer<P> {
    base: P,
}

impl<P> Producer for FlattenProducer<P>
where
    P: Producer,
    P::Item: IntoIterator,
    <P::Item as IntoIterator>::Item: Send,
{
    type Item = <P::Item as IntoIterator>::Item;
    type IntoIter = FlattenSeq<P::IntoIter, P::Item>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (FlattenProducer { base: l }, FlattenProducer { base: r })
    }

    fn into_seq(self) -> Self::IntoIter {
        FlattenSeq {
            inner: self.base.into_seq(),
            current: None,
        }
    }
}

/// Sequential counterpart of [`FlattenProducer`].
pub struct FlattenSeq<I, U: IntoIterator> {
    inner: I,
    current: Option<U::IntoIter>,
}

impl<I, U> Iterator for FlattenSeq<I, U>
where
    I: Iterator<Item = U>,
    U: IntoIterator,
{
    type Item = U::Item;

    fn next(&mut self) -> Option<U::Item> {
        loop {
            if let Some(cur) = &mut self.current {
                if let Some(item) = cur.next() {
                    return Some(item);
                }
            }
            match self.inner.next() {
                Some(x) => self.current = Some(x.into_iter()),
                None => return None,
            }
        }
    }
}

/// `enumerate` adaptor; splitting offsets the right half's base index.
pub struct EnumerateProducer<P> {
    base: P,
    offset: usize,
}

impl<P: IndexedProducer> Producer for EnumerateProducer<P> {
    type Item = (usize, P::Item);
    type IntoIter = EnumerateSeq<P::IntoIter>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            EnumerateProducer {
                base: l,
                offset: self.offset,
            },
            EnumerateProducer {
                base: r,
                offset: self.offset + index,
            },
        )
    }

    fn into_seq(self) -> Self::IntoIter {
        EnumerateSeq {
            inner: self.base.into_seq(),
            index: self.offset,
        }
    }
}

impl<P: IndexedProducer> IndexedProducer for EnumerateProducer<P> {}

/// Sequential counterpart of [`EnumerateProducer`].
pub struct EnumerateSeq<I> {
    inner: I,
    index: usize,
}

impl<I: Iterator> Iterator for EnumerateSeq<I> {
    type Item = (usize, I::Item);

    #[inline]
    fn next(&mut self) -> Option<(usize, I::Item)> {
        let item = self.inner.next()?;
        let index = self.index;
        self.index += 1;
        Some((index, item))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// `zip` adaptor over two indexed producers (truncates to the shorter).
pub struct ZipProducer<A, B> {
    a: A,
    b: B,
}

impl<A: IndexedProducer, B: IndexedProducer> Producer for ZipProducer<A, B> {
    type Item = (A::Item, B::Item);
    type IntoIter = std::iter::Zip<A::IntoIter, B::IntoIter>;

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (al, ar) = self.a.split_at(index);
        let (bl, br) = self.b.split_at(index);
        (ZipProducer { a: al, b: bl }, ZipProducer { a: ar, b: br })
    }

    fn into_seq(self) -> Self::IntoIter {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

impl<A: IndexedProducer, B: IndexedProducer> IndexedProducer for ZipProducer<A, B> {}

// ---------------------------------------------------------------------------
// ParIter: the user-facing pipeline handle.
// ---------------------------------------------------------------------------

/// The parallel-iterator facade over a [`Producer`], carrying the granularity
/// hints.  Terminal operations split the producer into grains and run them
/// across the pool (see the crate docs for the execution model).
pub struct ParIter<P> {
    producer: P,
    min_len: usize,
}

fn par<P: Producer>(producer: P) -> ParIter<P> {
    ParIter {
        producer,
        min_len: 1,
    }
}

impl<P: Producer> ParIter<P> {
    /// Run `map` on every grain and fold the grain results in order.
    fn drive<T, M, C>(self, map: M, combine: C) -> T
    where
        T: Send,
        M: Fn(P) -> T + Sync,
        C: Fn(T, T) -> T + Sync,
    {
        let len = self.producer.len();
        let grain = grain_size(len, self.min_len);
        if pool::effective_threads() > 1 && len > grain {
            return map_reduce(self.producer, grain, &map, &combine);
        }
        map(self.producer)
    }

    // --- adaptors ---------------------------------------------------------

    /// Apply `f` to every item.
    pub fn map<R, F>(self, f: F) -> ParIter<MapProducer<P, F, R>>
    where
        F: Fn(P::Item) -> R + Send + Sync,
        R: Send,
    {
        let producer = MapProducer {
            base: self.producer,
            f,
            _r: PhantomData,
        };
        ParIter {
            producer,
            min_len: self.min_len,
        }
    }

    /// Keep only the items matching `f`.
    pub fn filter<F>(self, f: F) -> ParIter<FilterProducer<P, F>>
    where
        F: Fn(&P::Item) -> bool + Send + Sync,
    {
        ParIter {
            producer: FilterProducer {
                base: self.producer,
                f,
            },
            min_len: self.min_len,
        }
    }

    /// rayon's `flat_map_iter`: flat-map each item through a *serial*
    /// iterator (the parallelism stays at the outer level).
    pub fn flat_map_iter<U, F>(self, f: F) -> ParIter<FlatMapIterProducer<P, F, U>>
    where
        F: Fn(P::Item) -> U + Send + Sync,
        U: IntoIterator,
        U::Item: Send,
    {
        let producer = FlatMapIterProducer {
            base: self.producer,
            f,
            _u: PhantomData,
        };
        ParIter {
            producer,
            min_len: self.min_len,
        }
    }

    /// Flatten nested iterables (outer level parallel, inner serial).
    pub fn flatten(self) -> ParIter<FlattenProducer<P>>
    where
        P::Item: IntoIterator,
        <P::Item as IntoIterator>::Item: Send,
    {
        let producer = FlattenProducer {
            base: self.producer,
        };
        ParIter {
            producer,
            min_len: self.min_len,
        }
    }

    /// Pair every item with its index (requires an indexed pipeline).
    pub fn enumerate(self) -> ParIter<EnumerateProducer<P>>
    where
        P: IndexedProducer,
    {
        let producer = EnumerateProducer {
            base: self.producer,
            offset: 0,
        };
        ParIter {
            producer,
            min_len: self.min_len,
        }
    }

    /// Pair items positionally with `other` (both sides indexed; truncates to
    /// the shorter input).
    pub fn zip<Q>(self, other: ParIter<Q>) -> ParIter<ZipProducer<P, Q>>
    where
        P: IndexedProducer,
        Q: IndexedProducer,
    {
        let producer = ZipProducer {
            a: self.producer,
            b: other.producer,
        };
        ParIter {
            producer,
            min_len: self.min_len,
        }
    }

    /// Never split below `min` items per grain: small inputs run sequentially
    /// on the calling thread with no pool round-trip.
    pub fn with_min_len(mut self, min: usize) -> Self {
        self.min_len = min.max(1);
        self
    }

    // --- terminal operations ---------------------------------------------

    /// Run `f` on every item.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(P::Item) + Send + Sync,
    {
        self.drive(|grain| grain.into_seq().for_each(&f), |(), ()| ());
    }

    /// Collect into any `FromIterator` container, preserving input order.
    pub fn collect<C: FromIterator<P::Item>>(self) -> C {
        let parts = self.drive(
            |grain| {
                let mut out = Vec::with_capacity(grain.len());
                out.extend(grain.into_seq());
                out
            },
            |mut left, right: Vec<P::Item>| {
                left.extend(right);
                left
            },
        );
        C::from_iter(parts)
    }

    /// Reduce with an identity.  The identity closure may run **once per
    /// grain** (grain count varies with thread count and the
    /// `with_min_len` hint), so it must produce a true neutral element of
    /// `op`.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> P::Item
    where
        ID: Fn() -> P::Item + Send + Sync,
        OP: Fn(P::Item, P::Item) -> P::Item + Send + Sync,
    {
        self.drive(|grain| grain.into_seq().fold(identity(), &op), &op)
    }

    /// Reduce without an identity; `None` when the pipeline is empty.
    pub fn reduce_with<OP>(self, op: OP) -> Option<P::Item>
    where
        OP: Fn(P::Item, P::Item) -> P::Item + Send + Sync,
    {
        self.drive(
            |grain| grain.into_seq().reduce(&op),
            |left, right| match (left, right) {
                (Some(l), Some(r)) => Some(op(l, r)),
                (l, r) => l.or(r),
            },
        )
    }

    /// Minimum item; ties keep the **first** (leftmost) occurrence, matching
    /// `std::iter::Iterator::min` for every thread count.
    pub fn min(self) -> Option<P::Item>
    where
        P::Item: Ord,
    {
        self.drive(
            |grain| grain.into_seq().min(),
            |left, right| match (left, right) {
                (Some(l), Some(r)) => Some(if r < l { r } else { l }),
                (l, r) => l.or(r),
            },
        )
    }

    /// Sum the items (partial sums are combined left to right).
    pub fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<P::Item> + std::iter::Sum<S>,
    {
        self.drive(
            |grain| grain.into_seq().sum::<S>(),
            |left, right| std::iter::once(left).chain(std::iter::once(right)).sum(),
        )
    }
}

impl<P: IndexedProducer> ParIter<P> {
    /// Collect into `target`, reusing its allocation: the buffer is cleared
    /// and grown at most once, and each grain writes its items directly into
    /// the final positions.  With warm (pre-sized) buffers this performs no
    /// heap allocation — the engine's zero-allocation round path.
    ///
    /// If a pipeline closure panics, `target` is left empty and the items
    /// already written are leaked (never dropped), as with real rayon.
    #[allow(unsafe_code)]
    pub fn collect_into_vec(self, target: &mut Vec<P::Item>) {
        let len = self.producer.len();
        target.clear();
        target.reserve(len);
        let grain = grain_size(len, self.min_len);
        if pool::effective_threads() > 1 && len > grain {
            let spare = &mut target.spare_capacity_mut()[..len];
            fill_slots(self.producer, grain, spare);
            // SAFETY: `fill_slots` wrote every one of the `len` reserved
            // slots exactly once (indexed producers yield exactly `len`
            // items); on panic we never get here and `target` stays empty.
            unsafe { target.set_len(len) };
            return;
        }
        target.extend(self.producer.into_seq());
    }
}

// ---------------------------------------------------------------------------
// Conversion traits.
// ---------------------------------------------------------------------------

/// Conversion into a [`ParIter`], mirroring `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type Iter;
    /// The element type.
    type Item: Send;
    /// Convert into the parallel facade.
    fn into_par_iter(self) -> Self::Iter;
}

macro_rules! impl_range_into_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Iter = ParIter<RangeProducer<$t>>;
            type Item = $t;
            fn into_par_iter(self) -> Self::Iter {
                par(RangeProducer {
                    next: self.start,
                    remaining: self.start.distance_to(self.end),
                })
            }
        }

        impl IntoParallelIterator for std::ops::RangeInclusive<$t> {
            type Iter = ParIter<RangeProducer<$t>>;
            type Item = $t;
            fn into_par_iter(self) -> Self::Iter {
                let (start, end) = self.into_inner();
                // `start.distance_to(end) + 1` would overflow only for a
                // range covering the full usize domain, which no DP index
                // space here reaches.
                let remaining = if start > end {
                    0
                } else {
                    start.distance_to(end) + 1
                };
                par(RangeProducer {
                    next: start,
                    remaining,
                })
            }
        }
    )*};
}

impl_range_into_par_iter!(usize, u32, u64, i32, i64);

impl<'data, T: Sync + 'data> IntoParallelIterator for &'data [T] {
    type Iter = ParIter<SliceProducer<'data, T>>;
    type Item = &'data T;
    fn into_par_iter(self) -> Self::Iter {
        par(SliceProducer { slice: self })
    }
}

impl<'data, T: Sync + 'data> IntoParallelIterator for &'data Vec<T> {
    type Iter = ParIter<SliceProducer<'data, T>>;
    type Item = &'data T;
    fn into_par_iter(self) -> Self::Iter {
        par(SliceProducer { slice: self })
    }
}

impl<'data, T: Send + 'data> IntoParallelIterator for &'data mut [T] {
    type Iter = ParIter<SliceMutProducer<'data, T>>;
    type Item = &'data mut T;
    fn into_par_iter(self) -> Self::Iter {
        par(SliceMutProducer { slice: self })
    }
}

impl<'data, T: Send + 'data> IntoParallelIterator for &'data mut Vec<T> {
    type Iter = ParIter<SliceMutProducer<'data, T>>;
    type Item = &'data mut T;
    fn into_par_iter(self) -> Self::Iter {
        par(SliceMutProducer { slice: self })
    }
}

impl<P: Producer> IntoParallelIterator for ParIter<P> {
    type Iter = Self;
    type Item = P::Item;
    fn into_par_iter(self) -> Self {
        self
    }
}

/// `par_iter` on shared references, mirroring
/// `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'data> {
    /// The parallel iterator type.
    type Iter;
    /// The element type (a shared reference).
    type Item: Send + 'data;
    /// Iterate over shared references.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: 'data + ?Sized> IntoParallelRefIterator<'data> for T
where
    &'data T: IntoParallelIterator,
{
    type Iter = <&'data T as IntoParallelIterator>::Iter;
    type Item = <&'data T as IntoParallelIterator>::Item;
    fn par_iter(&'data self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// `par_iter_mut` on unique references, mirroring
/// `rayon::iter::IntoParallelRefMutIterator`.
pub trait IntoParallelRefMutIterator<'data> {
    /// The parallel iterator type.
    type Iter;
    /// The element type (a unique reference).
    type Item: Send + 'data;
    /// Iterate over unique references.
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, T: 'data + ?Sized> IntoParallelRefMutIterator<'data> for T
where
    &'data mut T: IntoParallelIterator,
{
    type Iter = <&'data mut T as IntoParallelIterator>::Iter;
    type Item = <&'data mut T as IntoParallelIterator>::Item;
    fn par_iter_mut(&'data mut self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// Everything call sites normally get from `rayon::prelude::*`.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParIter,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Run `f` under an installed pool of `n` threads.
    fn at_threads<R: Send>(n: usize, f: impl FnOnce() -> R + Send) -> R {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap();
        pool.install(f)
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = super::join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn par_iter_combinators_match_std() {
        let v = vec![3u64, 1, 4, 1, 5];
        let doubled: Vec<u64> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![6, 2, 8, 2, 10]);
        assert_eq!(v.par_iter().map(|&x| x).min(), Some(1));
        let total: u64 = (0..10u64).into_par_iter().sum();
        assert_eq!(total, 45);
        assert_eq!((0..5usize).into_par_iter().reduce(|| 0, |a, b| a + b), 10);
        assert_eq!(
            v.par_iter().map(|&x| x).reduce_with(|a, b| a.min(b)),
            Some(1)
        );
    }

    #[test]
    fn par_iter_mut_enumerate() {
        let mut v = vec![0usize; 10];
        v.par_iter_mut().enumerate().for_each(|(i, slot)| *slot = i);
        assert_eq!(v[9], 9);
    }

    #[test]
    fn thread_pool_installs() {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        assert_eq!(pool.install(|| 7), 7);
        assert_eq!(pool.install(super::current_num_threads), 4);
    }

    #[test]
    fn threaded_map_collect_preserves_order() {
        let n = 10_000usize;
        let expect: Vec<usize> = (0..n).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 8] {
            let got: Vec<usize> = at_threads(threads, || {
                (0..n).into_par_iter().map(|i| i * 3 + 1).collect()
            });
            assert_eq!(got, expect, "threads {threads}");
        }
    }

    #[test]
    fn min_tie_rule_is_thread_count_independent() {
        // Equal keys with distinct payloads expose the tie rule: min keeps
        // the first occurrence, like std::iter.
        let items: Vec<(u32, usize)> = (0..5000).map(|i| (0, i)).collect();
        for threads in [1, 2, 8] {
            let min = at_threads(threads, || items.par_iter().map(|&(k, _)| (k, ())).min());
            assert_eq!(min, Some((0, ())), "threads {threads}");
        }
        // Payload-carrying comparison: total order makes ties impossible, so
        // min agrees exactly across thread counts.
        for threads in [1, 2, 8] {
            let min = at_threads(threads, || items.par_iter().map(|&x| x).min());
            assert_eq!(min, Some((0, 0)), "threads {threads}");
        }
    }

    #[test]
    fn reduce_identity_runs_once_per_grain() {
        let n = 8192usize;
        let calls = AtomicUsize::new(0);
        let sum = at_threads(8, || {
            (0..n).into_par_iter().reduce(
                || {
                    calls.fetch_add(1, Ordering::Relaxed);
                    0
                },
                |a, b| a + b,
            )
        });
        assert_eq!(sum, n * (n - 1) / 2);
        // The identity runs once per grain: n / (4 × 8) = 256 items per
        // grain, so 32 grains here.
        let grains = calls.load(Ordering::Relaxed);
        assert!(grains >= 32, "expected >= 32 identity calls, got {grains}");
    }

    #[test]
    fn with_min_len_forces_sequential_execution() {
        let n = 8192usize;
        let calls = AtomicUsize::new(0);
        let sum = at_threads(8, || {
            (0..n).into_par_iter().with_min_len(n).reduce(
                || {
                    calls.fetch_add(1, Ordering::Relaxed);
                    0
                },
                |a, b| a + b,
            )
        });
        assert_eq!(sum, n * (n - 1) / 2);
        // One grain -> the identity ran exactly once: the granularity hint is
        // a real control, not a no-op.
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn filter_and_flat_map_iter_preserve_order_across_threads() {
        let n = 6000usize;
        let expect: Vec<usize> = (0..n)
            .filter(|i| i % 3 == 0)
            .flat_map(|i| [i, i + 1])
            .collect();
        for threads in [1, 2, 8] {
            let got: Vec<usize> = at_threads(threads, || {
                (0..n)
                    .into_par_iter()
                    .filter(|i| i % 3 == 0)
                    .flat_map_iter(|i| [i, i + 1])
                    .collect()
            });
            assert_eq!(got, expect, "threads {threads}");
        }
    }

    #[test]
    fn zip_and_enumerate_line_up() {
        let a: Vec<u32> = (0..5000).collect();
        let mut b: Vec<u64> = vec![0; 5000];
        at_threads(8, || {
            b.par_iter_mut()
                .zip(a.par_iter())
                .enumerate()
                .for_each(|(i, (slot, &x))| *slot = (i as u64) * 1000 + x as u64);
        });
        for (i, &v) in b.iter().enumerate() {
            assert_eq!(v, (i as u64) * 1000 + i as u64);
        }
    }

    #[test]
    fn collect_into_vec_reuses_the_allocation() {
        let n = 40_000usize;
        let mut buf: Vec<usize> = Vec::new();
        at_threads(8, || {
            (0..n)
                .into_par_iter()
                .map(|i| i ^ 1)
                .collect_into_vec(&mut buf);
        });
        assert_eq!(buf.len(), n);
        assert!(buf.iter().enumerate().all(|(i, &v)| v == i ^ 1));
        let ptr = buf.as_ptr();
        let cap = buf.capacity();
        at_threads(8, || {
            (0..n)
                .into_par_iter()
                .map(|i| i ^ 2)
                .collect_into_vec(&mut buf);
        });
        assert_eq!(buf.as_ptr(), ptr, "warm buffer must not reallocate");
        assert_eq!(buf.capacity(), cap);
        assert!(buf.iter().enumerate().all(|(i, &v)| v == i ^ 2));
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // deliberately exercises an empty `..=` range
    fn inclusive_and_signed_ranges_work() {
        let got: Vec<usize> = (10..=14usize).into_par_iter().collect();
        assert_eq!(got, vec![10, 11, 12, 13, 14]);
        let got: Vec<i64> = (-3i64..3).into_par_iter().collect();
        assert_eq!(got, vec![-3, -2, -1, 0, 1, 2]);
        let empty: Vec<usize> = (5..=4usize).into_par_iter().collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn panics_in_parallel_closures_propagate() {
        let result = std::panic::catch_unwind(|| {
            at_threads(4, || {
                (0..10_000usize)
                    .into_par_iter()
                    .for_each(|i| assert!(i < 5000, "boom"));
            })
        });
        assert!(result.is_err());
    }
}
