//! Parallel sorting.
//!
//! A stable parallel merge sort that degrades to `slice::sort_by_key` below
//! the cutoff; `pardp-workloads` sorts the two slopes of its valley weight
//! profiles with it.

use crate::par::{maybe_join, SEQ_CUTOFF};

/// Stable parallel sort of `items` by `key`, merging through the reusable
/// `scratch` buffer.
///
/// The merge writes every scratch slot before reading it, so the buffer's
/// existing contents are irrelevant; it only needs to hold `items.len()`
/// initialized values.  On the first call (or the first call at a new
/// high-water length) the deficit is seeded by cloning from `items`; every
/// later call at or below that length performs **zero** heap allocation and
/// zero seeding clones.
pub fn par_sort_by_key_with<T, K, F>(items: &mut [T], scratch: &mut Vec<T>, key: F)
where
    T: Clone + Send + Sync,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    let n = items.len();
    if n < SEQ_CUTOFF {
        items.sort_by_key(|x| key(x));
        return;
    }
    if scratch.len() < n {
        scratch.clear();
        scratch.extend_from_slice(items);
    }
    merge_sort(items, &mut scratch[..n], &key);
}

fn merge_sort<T, K, F>(data: &mut [T], buf: &mut [T], key: &F)
where
    T: Clone + Send + Sync,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    let n = data.len();
    if n < SEQ_CUTOFF {
        data.sort_by_key(|x| key(x));
        return;
    }
    let mid = n / 2;
    {
        let (dl, dr) = data.split_at_mut(mid);
        let (bl, br) = buf.split_at_mut(mid);
        maybe_join(n, || merge_sort(dl, bl, key), || merge_sort(dr, br, key));
    }
    // Merge data[..mid] and data[mid..] into buf, then copy back.
    {
        let (left, right) = data.split_at(mid);
        merge_into(left, right, buf, key);
    }
    data.clone_from_slice(buf);
}

fn merge_into<T, K, F>(left: &[T], right: &[T], out: &mut [T], key: &F)
where
    T: Clone,
    K: Ord,
    F: Fn(&T) -> K,
{
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < left.len() && j < right.len() {
        // `<=` keeps the sort stable.
        if key(&left[i]) <= key(&right[j]) {
            out[k] = left[i].clone();
            i += 1;
        } else {
            out[k] = right[j].clone();
            j += 1;
        }
        k += 1;
    }
    while i < left.len() {
        out[k] = left[i].clone();
        i += 1;
        k += 1;
    }
    while j < right.len() {
        out[k] = right[j].clone();
        j += 1;
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_small_slice() {
        let mut v = vec![5u32, 1, 4, 1, 3];
        par_sort_by_key_with(&mut v, &mut Vec::new(), |x| *x);
        assert_eq!(v, vec![1, 1, 3, 4, 5]);
    }

    #[test]
    fn sorts_large_slice_matches_std() {
        let mut v: Vec<u64> = (0..100_000).map(|i| (i * 2654435761) % 1_000_003).collect();
        let mut want = v.clone();
        want.sort_unstable();
        par_sort_by_key_with(&mut v, &mut Vec::new(), |x| *x);
        assert_eq!(v, want);
    }

    #[test]
    fn sort_is_stable() {
        // Pairs sorted by first component only; second component records the
        // original order and must stay sorted within equal keys.
        let mut v: Vec<(u32, usize)> = (0..50_000).map(|i| ((i % 10) as u32, i)).collect();
        par_sort_by_key_with(&mut v, &mut Vec::new(), |p| p.0);
        for w in v.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
    }

    #[test]
    fn sort_empty_and_singleton() {
        let mut e: Vec<u8> = vec![];
        par_sort_by_key_with(&mut e, &mut Vec::new(), |x| *x);
        assert!(e.is_empty());
        let mut s = vec![9u8];
        par_sort_by_key_with(&mut s, &mut Vec::new(), |x| *x);
        assert_eq!(s, vec![9]);
    }

    #[test]
    fn sort_reverse_input() {
        let mut v: Vec<u32> = (0..30_000).rev().collect();
        par_sort_by_key_with(&mut v, &mut Vec::new(), |x| *x);
        let want: Vec<u32> = (0..30_000).collect();
        assert_eq!(v, want);
    }

    #[test]
    fn sort_with_reuses_the_scratch_buffer() {
        let mut scratch: Vec<u64> = Vec::new();
        let mut v: Vec<u64> = (0..50_000).map(|i| (i * 2654435761) % 999_983).collect();
        par_sort_by_key_with(&mut v, &mut scratch, |x| *x);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        // The scratch was grown once; later calls at the same (or smaller)
        // length must reuse the very same allocation.
        let cap = scratch.capacity();
        let ptr = scratch.as_ptr();
        for round in 0..3u64 {
            let mut w: Vec<u64> = (0..50_000u64)
                .map(|i| i.wrapping_mul(11400714819323198485).wrapping_add(round) % 999_983)
                .collect();
            let mut want = w.clone();
            want.sort_unstable();
            par_sort_by_key_with(&mut w, &mut scratch, |x| *x);
            assert_eq!(w, want);
            assert_eq!(scratch.capacity(), cap, "scratch must not reallocate");
            assert_eq!(scratch.as_ptr(), ptr, "scratch must not move");
        }
        // Smaller inputs also reuse the same buffer.
        let mut small: Vec<u64> = (0..10_000).rev().collect();
        par_sort_by_key_with(&mut small, &mut scratch, |x| *x);
        assert!(small.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(scratch.as_ptr(), ptr);
    }

    #[test]
    fn sort_with_is_stable_and_matches_plain_sort() {
        let mut scratch: Vec<(u32, usize)> = Vec::new();
        let mut v: Vec<(u32, usize)> = (0..40_000).map(|i| ((i % 7) as u32, i)).collect();
        par_sort_by_key_with(&mut v, &mut scratch, |p| p.0);
        for w in v.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
    }
}
