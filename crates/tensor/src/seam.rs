//! Partial GEMM and the all-reduce seam for sharded (tensor-parallel)
//! execution.
//!
//! Row-sharded layers (`OUT_PROJ`, `FC2`/`DOWN_PROJ`) split the *input*
//! (`k`) dimension across shards: shard `s` holds the weight columns for
//! its slice of the input features, computes a partial product over that
//! slice, and the partials are summed — the all-reduce seam of
//! Megatron-style tensor parallelism.
//!
//! # Why the seam accumulates in `f64`
//!
//! A serial `f32` dot product and a sum of per-slice `f32` dots differ by
//! a few ulps (float addition is not associative), and the difference
//! would *depend on the shard count* — so an `N`-shard generation could
//! drift token-wise from the 1-shard golden. Accumulating each partial in
//! `f64` makes every product term exact (an `f32 × f32` product is
//! exactly representable in `f64`: 24 + 24 = 48 ≤ 53 mantissa bits) and
//! pushes the association error of the reduce down to ~2⁻⁵³ relative —
//! far below the `f32` rounding of the final result, and *orders of
//! magnitude* below the per-layer F16 storage quantisation that follows.
//! The reduced value is therefore bit-stable across shard counts on the
//! simulator's workloads, which is what lets `tests/` pin N-shard
//! generations token-identical to the 1-shard golden.

use crate::matrix::Matrix;

/// Output elements whose accumulation chains run side by side in
/// [`matmul_transb_cols_f64`]. One chain is a dependent `f64` add per
/// term; eight independent ones are bound by the `f32 → f64` conversions
/// instead of the adder's latency (four measured 15 % slower, sixteen no
/// faster).
const INTERLEAVE: usize = 8;

/// Output elements `j..j + W` of one partial row: each is `0.0` plus its
/// terms `a_row[k] × b_t[j + l][k]` in ascending `k`, the `W` chains
/// advancing together.
fn chains<const W: usize>(a_row: &[f32], b_t: &Matrix, j: usize, out: &mut [f64]) {
    let b_rows: [&[f32]; W] = std::array::from_fn(|l| &b_t.row(j + l)[..a_row.len()]);
    let mut acc = [0.0f64; W];
    for (k, &av) in a_row.iter().enumerate() {
        let av = f64::from(av);
        for (acc, b_row) in acc.iter_mut().zip(&b_rows) {
            *acc += av * f64::from(b_row[k]);
        }
    }
    out.copy_from_slice(&acc);
}

/// Partial `A × Bᵀ` over an input-column slice, accumulated in `f64`.
///
/// `a` is `[n, k_full]`; `b_t` is the shard's weight slice
/// `[out, k_slice]` whose columns correspond to `a`'s columns
/// `col_lo..col_lo + k_slice`. Writes the `[n, out]` partial row-major
/// into `out` (resized to `n * out`). Every term is accumulated — no
/// zero-skip — so injected NaN/Inf in either operand poisons the partial
/// exactly as on a strict kernel.
///
/// Each output element is the sum of its terms in ascending column order,
/// starting from `0.0` — one fixed chain per element, whatever `out` or
/// the slice layout. Speed comes only from advancing several elements'
/// chains together, which leaves every chain's own order alone.
pub fn matmul_transb_cols_f64(a: &Matrix, b_t: &Matrix, col_lo: usize, out: &mut Vec<f64>) {
    let n = a.rows();
    let out_f = b_t.rows();
    let k_slice = b_t.cols();
    assert!(
        col_lo + k_slice <= a.cols(),
        "column slice {}..{} exceeds input width {}",
        col_lo,
        col_lo + k_slice,
        a.cols()
    );
    out.clear();
    out.resize(n * out_f, 0.0);
    if out_f == 0 {
        return;
    }
    for (i, o_row) in out.chunks_exact_mut(out_f).enumerate() {
        let a_row = &a.row(i)[col_lo..col_lo + k_slice];
        let mut groups = o_row.chunks_exact_mut(INTERLEAVE);
        let mut j = 0;
        for group in &mut groups {
            chains::<INTERLEAVE>(a_row, b_t, j, group);
            j += INTERLEAVE;
        }
        for o in groups.into_remainder().chunks_exact_mut(1) {
            chains::<1>(a_row, b_t, j, o);
            j += 1;
        }
    }
}

/// Elements reduced together in [`reduce_seam_into`]: the accumulators of
/// one chunk live on the stack.
const REDUCE_CHUNK: usize = 8;

/// The all-reduce seam: sum per-shard `f64` partials in fixed shard
/// order, then round once to `f32` into `out` (`[rows, cols]`).
///
/// Partials must all have length `rows * cols`; an empty shard may pass
/// an empty slice (skipped). The summation order is the caller's slice
/// order, so reduces are deterministic for a fixed shard layout.
pub fn reduce_seam_into<P: AsRef<[f64]>>(partials: &[P], rows: usize, cols: usize, out: &mut Matrix) {
    out.reset(rows, cols);
    let len = rows * cols;
    for part in partials {
        let part = part.as_ref();
        assert!(
            part.is_empty() || part.len() == len,
            "partial shape mismatch in reduce seam"
        );
    }
    // Each element is `0.0 + p₀ + p₁ + …` in f64, so the rounding to f32
    // happens exactly once per element.
    for (c, o_chunk) in out.as_mut_slice().chunks_mut(REDUCE_CHUNK).enumerate() {
        let lo = c * REDUCE_CHUNK;
        let mut acc = [0.0f64; REDUCE_CHUNK];
        for part in partials.iter().map(AsRef::as_ref).filter(|p| !p.is_empty()) {
            for (a, &p) in acc.iter_mut().zip(&part[lo..lo + o_chunk.len()]) {
                *a += p;
            }
        }
        for (o, &a) in o_chunk.iter_mut().zip(&acc) {
            *o = a as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul_transb_into;

    fn demo(rows: usize, cols: usize, seed: u32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let h = (r as u32)
                .wrapping_mul(2654435761)
                .wrapping_add((c as u32).wrapping_mul(40503))
                .wrapping_add(seed);
            ((h % 2000) as f32 - 1000.0) * 1e-3
        })
    }

    /// The kernel as it was before the chains were interleaved: one output
    /// element at a time, terms in ascending column order.
    fn sequential_reference(a: &Matrix, b_t: &Matrix, col_lo: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(a.rows() * b_t.rows());
        for i in 0..a.rows() {
            let a_row = &a.row(i)[col_lo..col_lo + b_t.cols()];
            for j in 0..b_t.rows() {
                let mut acc = 0.0f64;
                for (&av, &bv) in a_row.iter().zip(b_t.row(j)) {
                    acc += f64::from(av) * f64::from(bv);
                }
                out.push(acc);
            }
        }
        out
    }

    /// Bit-equal, except that any NaN matches any NaN (which payload an
    /// add of two NaNs keeps is the compiler's choice of operand order).
    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g.is_nan() && w.is_nan()) || g.to_bits() == w.to_bits(),
                "{what}: element {i} is {g:e}, reference {w:e}"
            );
        }
    }

    #[test]
    fn interleaved_kernel_is_bit_identical_to_the_sequential_one_on_ragged_shapes() {
        let mut part = Vec::new();
        for n in [1usize, 5, 112] {
            for out_f in [0usize, 1, INTERLEAVE - 1, INTERLEAVE, INTERLEAVE + 3, 3 * INTERLEAVE + 1] {
                for (k_full, col_lo, k_slice) in [(9usize, 0usize, 9usize), (40, 7, 21), (33, 32, 1), (16, 4, 0)] {
                    let a = demo(n, k_full, (n + out_f) as u32);
                    let w = demo(out_f, k_slice, (k_slice + 31 * out_f) as u32);
                    matmul_transb_cols_f64(&a, &w, col_lo, &mut part);
                    assert_same_bits(
                        &part,
                        &sequential_reference(&a, &w, col_lo),
                        &format!("n={n} out={out_f} k={col_lo}+{k_slice}/{k_full}"),
                    );
                }
            }
        }
    }

    #[test]
    fn non_finite_values_poison_the_same_elements_as_the_sequential_kernel() {
        let (n, out_f, k) = (3, INTERLEAVE + 2, 11);
        let mut part = Vec::new();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            // In the activations: row 1 of the partial is poisoned, in the
            // interleaved groups and in the tail alike.
            let mut a = demo(n, k, 21);
            a.set(1, 4, bad);
            let w = demo(out_f, k, 22);
            matmul_transb_cols_f64(&a, &w, 0, &mut part);
            assert_same_bits(&part, &sequential_reference(&a, &w, 0), "bad activation");
            assert!(part[out_f..2 * out_f].iter().all(|v| !v.is_finite()));
            assert!(part[..out_f].iter().all(|v| v.is_finite()));
            // In the weights, against a zero activation: 0 × Inf is NaN, so
            // a kernel that skipped zero terms would come out finite.
            let mut a = demo(n, k, 23);
            for r in 0..n {
                a.set(r, 6, 0.0);
            }
            let mut w = demo(out_f, k, 24);
            w.set(2, 6, bad);
            w.set(out_f - 1, 6, bad);
            matmul_transb_cols_f64(&a, &w, 0, &mut part);
            assert_same_bits(&part, &sequential_reference(&a, &w, 0), "bad weight");
            for (i, v) in part.iter().enumerate() {
                let poisoned = i % out_f == 2 || i % out_f == out_f - 1;
                assert_eq!(v.is_nan(), poisoned, "element {i} is {v:e}");
            }
        }
    }

    #[test]
    fn single_slice_matches_f32_gemm_closely() {
        let a = demo(3, 16, 1);
        let w = demo(5, 16, 2);
        let mut part = Vec::new();
        matmul_transb_cols_f64(&a, &w, 0, &mut part);
        let mut reduced = Matrix::zeros(0, 0);
        reduce_seam_into(&[&part], 3, 5, &mut reduced);
        let mut reference = Matrix::zeros(3, 5);
        matmul_transb_into(&a, &w, &mut reference);
        assert!(reduced.max_abs_diff(&reference) < 1e-5);
    }

    #[test]
    fn reduce_is_shard_count_invariant() {
        let a = demo(2, 24, 3);
        let w = demo(7, 24, 4);
        // One slice vs three uneven slices: identical after the f64 seam.
        let mut whole = Vec::new();
        matmul_transb_cols_f64(&a, &w, 0, &mut whole);
        let mut one = Matrix::zeros(0, 0);
        reduce_seam_into(&[&whole], 2, 7, &mut one);

        let spans = [(0usize, 10usize), (10, 21), (21, 24)];
        let parts: Vec<Vec<f64>> = spans
            .iter()
            .map(|&(lo, hi)| {
                let slice = Matrix::from_fn(7, hi - lo, |r, c| w.get(r, lo + c));
                let mut p = Vec::new();
                matmul_transb_cols_f64(&a, &slice, lo, &mut p);
                p
            })
            .collect();
        let refs: Vec<&[f64]> = parts.iter().map(|p| p.as_slice()).collect();
        let mut three = Matrix::zeros(0, 0);
        reduce_seam_into(&refs, 2, 7, &mut three);
        assert_eq!(one, three, "seam must not depend on the slice layout");
    }

    #[test]
    fn non_finite_terms_poison_the_partial() {
        let mut a = demo(1, 8, 5);
        a.set(0, 3, f32::NAN);
        let w = demo(2, 8, 6);
        let mut part = Vec::new();
        matmul_transb_cols_f64(&a, &w, 0, &mut part);
        assert!(part.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn empty_partials_are_skipped() {
        let a = demo(1, 4, 7);
        let w = demo(3, 4, 8);
        let mut part = Vec::new();
        matmul_transb_cols_f64(&a, &w, 0, &mut part);
        let empty: Vec<f64> = Vec::new();
        let mut with_empty = Matrix::zeros(0, 0);
        reduce_seam_into(&[&part, &empty], 1, 3, &mut with_empty);
        let mut without = Matrix::zeros(0, 0);
        reduce_seam_into(&[&part], 1, 3, &mut without);
        assert_eq!(with_empty, without);
    }

    #[test]
    fn an_empty_partial_in_the_middle_is_skipped() {
        // Longer than one reduce chunk, and not a multiple of it.
        let (rows, cols) = (3, REDUCE_CHUNK + 3);
        let parts: Vec<Vec<f64>> = (0..3)
            .map(|s| {
                let values = demo(1, rows * cols, s);
                values.as_slice().iter().map(|&v| f64::from(v) * 1e-3 + 1.0).collect()
            })
            .collect();
        let empty: Vec<f64> = Vec::new();
        let mut got = Matrix::zeros(0, 0);
        reduce_seam_into(&[&parts[0], &empty, &parts[1], &parts[2]], rows, cols, &mut got);
        // Shard order, f64 throughout, one rounding.
        let want = Matrix::from_fn(rows, cols, |r, c| {
            let i = r * cols + c;
            (0.0 + parts[0][i] + parts[1][i] + parts[2][i]) as f32
        });
        assert_eq!(got, want);
    }
}
