//! Heavy-light decomposition of a rooted tree (the substrate of Theorem 5.3).
//!
//! Every non-leaf keeps a *heavy* edge to the child with the largest subtree;
//! the heavy edges partition the nodes into vertical *heavy paths*.  Walking
//! from any node towards the root crosses at most `⌊log₂ n⌋` light edges
//! (each light edge at least halves the subtree size), so every ancestor chain
//! decomposes into `O(log n)` contiguous heavy-path prefixes — exactly the
//! segments the work-efficient Tree-GLWS cordon consults per node instead of
//! rescanning the whole chain.

/// Heavy-path partition of a rooted tree given as a parent array
/// (`parent[v] < v`, node 0 is the root).
#[derive(Debug, Clone)]
pub struct HeavyLightDecomposition {
    /// `head[v]` — the shallowest node of `v`'s heavy path (`head[v] == v`
    /// for the root and for every light child).
    pub head: Vec<usize>,
}

impl HeavyLightDecomposition {
    /// Decompose the tree described by `parent` (`parent[0]` is ignored).
    /// The heavy child of a node is its child with the largest subtree; among
    /// equal subtrees, the one with the largest index.
    ///
    /// # Panics
    ///
    /// Panics if some `parent[v] >= v`, the invariant every
    /// [`crate::TreeGlwsInstance`] already enforces.
    pub fn new(parent: &[usize]) -> Self {
        let n = parent.len() - 1;
        let mut subtree = vec![1usize; n + 1];
        let mut heavy = vec![usize::MAX; n + 1];
        for v in (1..=n).rev() {
            let p = parent[v];
            assert!(p < v, "parents must precede children");
            subtree[p] += subtree[v];
            // Every child of `v` has a larger index, so `subtree[v]` is final
            // here, and so is the subtree of the heavy child seen before it.
            if heavy[p] == usize::MAX || subtree[v] > subtree[heavy[p]] {
                heavy[p] = v;
            }
        }
        let mut head = vec![0usize; n + 1];
        for v in 1..=n {
            let p = parent[v];
            head[v] = if heavy[p] == v { head[p] } else { v };
        }
        HeavyLightDecomposition { head }
    }

    /// The deepest node of every heavy-path segment of `v`'s *proper ancestor*
    /// chain, nearest segment first.  Segment `x` covers the path positions
    /// `head[x]..=x`; the iterator yields `O(log n)` segments.
    pub fn ancestor_segments<'a>(
        &'a self,
        parent: &'a [usize],
        v: usize,
    ) -> impl Iterator<Item = usize> + 'a {
        debug_assert!(v >= 1, "the root has no proper ancestors");
        let mut next = Some(parent[v]);
        std::iter::from_fn(move || {
            let x = next?;
            let h = self.head[x];
            next = if h == 0 { None } else { Some(parent[h]) };
            Some(x)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Vec<usize> {
        (0..=n).map(|v| v.saturating_sub(1)).collect()
    }

    #[test]
    fn a_path_is_one_heavy_path() {
        let parent = path(50);
        let hld = HeavyLightDecomposition::new(&parent);
        assert_eq!(hld.head, vec![0; 51]);
        // One segment covers the whole ancestor chain, from the parent on.
        for v in 1..=50 {
            assert_eq!(
                hld.ancestor_segments(&parent, v).collect::<Vec<_>>(),
                [v - 1]
            );
        }
    }

    #[test]
    fn a_star_has_singleton_paths_except_the_heavy_leaf() {
        let parent = vec![0usize; 21];
        let hld = HeavyLightDecomposition::new(&parent);
        let on_root_path: Vec<usize> = (1..=20).filter(|&v| hld.head[v] == 0).collect();
        assert_eq!(
            on_root_path,
            [20],
            "one heavy child: the last of the equal subtrees"
        );
        for v in 1..=20 {
            assert_eq!(hld.ancestor_segments(&parent, v).count(), 1);
        }
    }

    #[test]
    fn segments_cover_the_ancestor_chain_exactly_once() {
        // Pseudo-random trees: the segments, expanded, must equal the chain.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [1usize, 2, 17, 200, 800] {
            let mut parent = vec![0usize; n + 1];
            for (v, p) in parent.iter_mut().enumerate().skip(2) {
                *p = (next() % v as u64) as usize;
            }
            let hld = HeavyLightDecomposition::new(&parent);
            for v in 1..=n {
                let mut expanded = Vec::new();
                for x in hld.ancestor_segments(&parent, v) {
                    let mut u = x;
                    loop {
                        expanded.push(u);
                        if u == hld.head[x] {
                            break;
                        }
                        u = parent[u];
                    }
                }
                let mut chain = Vec::new();
                let mut u = parent[v];
                loop {
                    chain.push(u);
                    if u == 0 {
                        break;
                    }
                    u = parent[u];
                }
                assert_eq!(expanded, chain, "n {n} v {v}");
            }
        }
    }

    #[test]
    fn light_edges_bound_the_segment_count() {
        // Theorem 5.3's work bound rests on O(log n) segments per node.
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 4096usize;
        let mut parent = vec![0usize; n + 1];
        for (v, p) in parent.iter_mut().enumerate().skip(2) {
            *p = (next() % v as u64) as usize;
        }
        let hld = HeavyLightDecomposition::new(&parent);
        let bound = (usize::BITS - n.leading_zeros()) as usize + 1;
        for v in 1..=n {
            let segments = hld.ancestor_segments(&parent, v).count();
            assert!(segments <= bound, "v {v}: {segments} segments > {bound}");
        }
    }

    #[test]
    fn heavy_children_have_the_largest_subtrees() {
        // Node 1's subtree (1, 3, 4, 5, 6) outweighs node 2's (2, 7), and
        // node 3's (3, 6) outweighs 4's and 5's, so the heavy path is
        // 0-1-3-6.  Node 7 hangs below the light child 2, so its chain
        // crosses two paths.
        let parent = vec![0, 0, 0, 1, 1, 1, 3, 2];
        let hld = HeavyLightDecomposition::new(&parent);
        assert_eq!(hld.head, vec![0, 0, 2, 0, 4, 5, 0, 2]);
        let segments = |v| hld.ancestor_segments(&parent, v).collect::<Vec<_>>();
        assert_eq!(segments(6), [3]);
        assert_eq!(segments(4), [1]);
        assert_eq!(segments(7), [2, 0], "nearest segment first");
    }
}
