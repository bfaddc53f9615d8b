//! SMAWK: linear-time row minima of a totally monotone matrix.
//!
//! The paper (Sec. 5.4) notes that each layer of k-GLWS is a static matrix
//! searching problem that SMAWK solves in `O(n)` sequential work, but that the
//! algorithm is "quite complicated and inherently sequential"; the practical
//! (and parallelizable) alternative is the `O(n log n)` divide-and-conquer.
//! The k-GLWS solver in [`crate::kglws`] therefore runs its own
//! divide-and-conquer and does not call this module; SMAWK is provided as a
//! standalone primitive, checked against brute-force row minima in its tests.
//!
//! The matrix is given implicitly by a function `f(row, col)`.  The matrix
//! must be *convex totally monotone*: if `f(r, c) >= f(r, d)` for columns
//! `c < d`, then the same holds for every later row — equivalently the
//! leftmost argmin column index is non-decreasing in the row index.

/// Compute, for every row of an implicitly-given `nrows x ncols` convex
/// totally monotone matrix, the column index of a minimum entry.
///
/// Ties are broken towards smaller column indices as far as total
/// monotonicity allows.  `O(nrows + ncols)` evaluations of `f`.
pub fn smawk_row_minima(
    nrows: usize,
    ncols: usize,
    f: &(impl Fn(usize, usize) -> i64 + ?Sized),
) -> Vec<usize> {
    let mut result = vec![0usize; nrows];
    if nrows == 0 || ncols == 0 {
        return result;
    }
    let rows: Vec<usize> = (0..nrows).collect();
    let cols: Vec<usize> = (0..ncols).collect();
    smawk_inner(&rows, &cols, f, &mut result);
    result
}

fn smawk_inner(
    rows: &[usize],
    cols: &[usize],
    f: &(impl Fn(usize, usize) -> i64 + ?Sized),
    result: &mut [usize],
) {
    if rows.is_empty() {
        return;
    }
    // REDUCE: keep at most |rows| candidate columns.
    let mut stack: Vec<usize> = Vec::with_capacity(rows.len());
    for &c in cols {
        loop {
            if stack.is_empty() {
                stack.push(c);
                break;
            }
            let r = rows[stack.len() - 1];
            // analyze: allow(no-panics): non-empty — the `is_empty` arm above
            // pushed and broke out.
            let top = *stack.last().unwrap();
            // Prefer the earlier column on ties (strict > keeps `top`).
            if f(r, top) > f(r, c) {
                stack.pop();
            } else {
                if stack.len() < rows.len() {
                    stack.push(c);
                }
                break;
            }
        }
    }
    let cols = stack;

    // Recurse on the odd-indexed rows.
    let odd_rows: Vec<usize> = rows.iter().skip(1).step_by(2).copied().collect();
    smawk_inner(&odd_rows, &cols, f, result);

    // INTERPOLATE: fill the even-indexed rows; each even row's argmin lies
    // between the argmins of its odd neighbours.
    let mut col_idx = 0usize;
    for (pos, &r) in rows.iter().enumerate().step_by(2) {
        let upper = if pos + 1 < rows.len() {
            result[rows[pos + 1]]
        } else {
            // analyze: allow(no-panics): `cols` is non-empty — SMAWK recurses
            // only on non-empty row/column sets.
            *cols.last().unwrap()
        };
        let mut best_col = cols[col_idx];
        let mut best_val = f(r, best_col);
        while cols[col_idx] != upper {
            col_idx += 1;
            let c = cols[col_idx];
            let v = f(r, c);
            if v < best_val {
                best_val = v;
                best_col = c;
            }
        }
        result[r] = best_col;
    }
}

/// Brute-force row minima (leftmost argmin), used as an oracle in tests and by
/// small fallback paths.
pub fn brute_force_row_minima(
    nrows: usize,
    ncols: usize,
    f: &(impl Fn(usize, usize) -> i64 + ?Sized),
) -> Vec<usize> {
    (0..nrows)
        .map(|r| {
            let mut best = 0usize;
            let mut best_val = f(r, 0);
            for c in 1..ncols {
                let v = f(r, c);
                if v < best_val {
                    best_val = v;
                    best = c;
                }
            }
            best
        })
        .collect()
}

/// Check whether the implicit matrix is convex totally monotone (used to
/// validate synthetic test matrices; quadratic in the dimensions).
pub fn is_convex_totally_monotone(
    nrows: usize,
    ncols: usize,
    f: &(impl Fn(usize, usize) -> i64 + ?Sized),
) -> bool {
    for a in 0..nrows {
        for b in (a + 1)..nrows {
            for c in 0..ncols {
                for d in (c + 1)..ncols {
                    if f(a, c) >= f(a, d) && f(b, c) < f(b, d) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Monge matrix built from a convex function of (row - col) plus row and
    /// column offsets; Monge implies totally monotone.
    fn monge_matrix(_nrows: usize, _ncols: usize, seed: i64) -> impl Fn(usize, usize) -> i64 {
        move |r: usize, c: usize| {
            let d = r as i64 - c as i64 + seed;
            d * d + 3 * r as i64 + 7 * c as i64
        }
    }

    #[test]
    fn matches_brute_force_on_monge_matrices() {
        for &(n, m) in &[
            (1usize, 1usize),
            (1, 7),
            (7, 1),
            (5, 5),
            (16, 9),
            (40, 40),
            (33, 64),
        ] {
            for seed in -3..3 {
                let f = monge_matrix(n, m, seed);
                assert!(is_convex_totally_monotone(n, m, &f));
                let got = smawk_row_minima(n, m, &f);
                let want = brute_force_row_minima(n, m, &f);
                // Compare attained values (ties may pick different columns).
                for r in 0..n {
                    assert_eq!(
                        f(r, got[r]),
                        f(r, want[r]),
                        "row {r} ({n}x{m}, seed {seed})"
                    );
                }
                // Argmin columns must be non-decreasing (total monotonicity).
                for r in 1..n {
                    assert!(got[r - 1] <= got[r]);
                }
            }
        }
    }

    #[test]
    fn empty_matrix() {
        let f = |_: usize, _: usize| 0i64;
        assert!(smawk_row_minima(0, 5, &f).is_empty());
        assert_eq!(smawk_row_minima(3, 0, &f), vec![0, 0, 0]);
    }

    #[test]
    fn single_column() {
        let f = |r: usize, _: usize| r as i64;
        assert_eq!(smawk_row_minima(4, 1, &f), vec![0, 0, 0, 0]);
    }

    #[test]
    fn linear_number_of_evaluations() {
        use std::cell::Cell;
        let n = 4096usize;
        let count = Cell::new(0u64);
        let f = |r: usize, c: usize| {
            count.set(count.get() + 1);
            let d = r as i64 - c as i64;
            d * d
        };
        let _ = smawk_row_minima(n, n, &f);
        // SMAWK evaluates O(n) entries; allow a generous constant.
        assert!(
            count.get() < 20 * n as u64,
            "evaluations {} look super-linear",
            count.get()
        );
    }

    #[test]
    fn monotone_but_not_monge_matrix() {
        // Hand-crafted totally monotone matrix (not Monge).
        let data = [
            [1i64, 2, 4, 8],
            [5, 3, 6, 9],
            [9, 7, 5, 10],
            [12, 11, 10, 9],
        ];
        let f = |r: usize, c: usize| data[r][c];
        assert!(is_convex_totally_monotone(4, 4, &f));
        let got = smawk_row_minima(4, 4, &f);
        assert_eq!(got, vec![0, 1, 2, 3]);
    }
}
