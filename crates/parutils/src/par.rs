//! Granularity-controlled fork–join helpers.
//!
//! All parallel algorithms in this workspace follow the same discipline: below
//! [`SEQ_CUTOFF`] elements the sequential code path is used directly, so the
//! asymptotic parallel structure never costs more than a small constant factor
//! over the sequential baselines on small inputs (this is the usual ParlayLib
//! granularity-control idiom the paper's implementation relies on).

use rayon::prelude::*;

/// Problem size below which parallel helpers fall back to sequential code.
///
/// The value is deliberately conservative: a rayon task spawn costs on the
/// order of a microsecond, so batches of a few thousand cheap operations are
/// the smallest unit worth forking for.
pub const SEQ_CUTOFF: usize = 2048;

/// Run two closures, in parallel when `size` is at least [`SEQ_CUTOFF`],
/// sequentially otherwise.
///
/// This mirrors `parlay::par_do_if` and keeps recursive divide-and-conquer
/// algorithms work-efficient near the leaves.
#[inline]
pub fn maybe_join<A, B, RA, RB>(size: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if size >= SEQ_CUTOFF {
        rayon::join(a, b)
    } else {
        (a(), b())
    }
}

/// Map `f` over `0..n` in parallel, producing a `Vec` of the results.
///
/// Equivalent to ParlayLib's `tabulate`.  Falls back to a sequential loop for
/// small `n`.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync + Send,
{
    if n < SEQ_CUTOFF {
        (0..n).map(f).collect()
    } else {
        // Pass by reference: `&F` is `Fn` and trivially `Clone`, so the
        // producer can split without requiring `F: Clone` in our public API.
        (0..n).into_par_iter().map(&f).collect()
    }
}

/// Run `f` inside a dedicated rayon pool with `threads` worker threads.
///
/// The benchmark harness uses this to produce the "Ours" vs "Ours (1 thread)"
/// series of the paper's figures without relying on global environment
/// variables.
pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    #[expect(
        clippy::expect_used,
        reason = "the shim's builder is infallible and a real rayon build failure \
                  at startup has no useful recovery: deliberate fail-fast at harness \
                  setup, never on the hot path"
    )]
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("failed to build rayon thread pool");
    pool.install(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maybe_join_runs_both_closures_small() {
        let (a, b) = maybe_join(4, || 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn maybe_join_runs_both_closures_large() {
        let (a, b) = maybe_join(SEQ_CUTOFF * 2, || vec![1u8; 8], || 7usize);
        assert_eq!(a.len(), 8);
        assert_eq!(b, 7);
    }

    #[test]
    fn par_map_matches_sequential_map() {
        let n = 10_000;
        let got = par_map(n, |i| i * i);
        let want: Vec<usize> = (0..n).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_map_empty() {
        let got: Vec<u32> = par_map(0, |_| unreachable!());
        assert!(got.is_empty());
    }

    #[test]
    fn with_threads_single_thread_pool_works() {
        let sum: u64 = with_threads(1, || (0..100u64).into_par_iter().sum());
        assert_eq!(sum, 4950);
    }

    #[test]
    fn with_threads_multi_thread_pool_works() {
        let sum: u64 = with_threads(4, || (0..100u64).into_par_iter().sum());
        assert_eq!(sum, 4950);
    }
}
