//! General matrix multiplication kernels.
//!
//! The inference engine spends >94% of its FLOPs in linear layers (the paper
//! makes the same observation for Llama2-7B, which is why its fault model
//! targets them). We provide:
//!
//! * [`matmul_naive`] — the obviously-correct triple loop, used as the test
//!   oracle.
//! * [`matmul_transb_into`] — `A × Bᵀ` with B given as `[n, k]` (the natural
//!   layout for weight matrices), built on a B-panel-blocked micro-kernel:
//!   four rows of Bᵀ are streamed against one row of A at a time so each
//!   A load feeds four accumulator chains. On x86-64 with AVX2+FMA the
//!   panel kernel runs on 256-bit fused multiply-adds (runtime-detected);
//!   everywhere else an 8-lane portable kernel autovectorises.
//!
//! # One kernel semantics: every term accumulates
//!
//! The repo's premise is that injected faults propagate exactly as they
//! would through a GPU kernel: `0 × NaN = NaN`, `0 × Inf = NaN`, and a
//! non-finite term anywhere in a dot product poisons the sum. A zero-skip
//! ("`if a == 0.0 { continue; }`") breaks that contract — it masks a
//! NaN/Inf sitting in the other operand, silently deflating SDC/DUE rates.
//! No kernel in this workspace has one: non-finite values land in the
//! output exactly where the [`matmul_naive`] oracle puts them, in
//! reference generations and fault-injection trials alike (the `zero-skip`
//! lint in `crates/analyze` keeps it so).
//!
//! Every GEMM here runs on the calling thread. The largest product any zoo
//! model, workload or probe forms is 160 × 256 × 64 = 2.6 M
//! multiply-accumulates — tens of microseconds on the SIMD panel kernel —
//! and the parallelism is above this layer: across campaign trials, shards,
//! batch lanes and the row blocks of a serving linear
//! ([`matmul_transb_rows_into`] writes one block straight into its rows of
//! a shared output), all on the `ft2-parallel` pool.

use crate::matrix::Matrix;
use std::ops::Range;

/// What is left of a per-call choice between IEEE-faithful accumulation
/// and a zero-skipping fault-free shortcut: the shortcut (`Fast`) paid for
/// nothing measurable and is gone, so the enum selects nothing. It keeps
/// its one variant only because `benchmark/src/probes.rs` names it and a
/// crate PR may not edit the benchmark; a `benchmark`-archetype PR can drop
/// the enum together with `attention_forward_into`'s ignored argument.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelPolicy {
    /// Accumulate every term: non-finite inputs propagate exactly as in
    /// [`matmul_naive`] (`0 × NaN = NaN`).
    #[default]
    Strict,
}

/// Reference triple-loop GEMM: `A[m,k] × B[k,n] -> C[m,n]`.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.get(i, p) * b.get(p, j);
            }
            c.set(i, j, acc);
        }
    }
    c
}

/// Dot product with 4-way unrolled accumulation; LLVM vectorises this
/// reliably. Every term participates (no zero-skip), so non-finite values
/// poison the result exactly as in a sequential sum.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0, 0.0, 0.0);
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    let mut acc = (s0 + s1) + (s2 + s3);
    for j in chunks * 4..a.len() {
        acc += a[j] * b[j];
    }
    acc
}

/// Portable 4-row panel kernel: dot products of one A row against four
/// rows of Bᵀ, with 8 independent accumulator lanes per row so the
/// autovectoriser can keep the FMA pipes busy. Reduction order is fixed
/// (pairwise over the 8 lanes), independent of target features.
fn dot4_portable(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    const L: usize = 8;
    let k = a.len();
    let mut acc = [[0.0f32; L]; 4];
    let mut j = 0;
    while j + L <= k {
        for l in 0..L {
            let av = a[j + l];
            acc[0][l] += av * b0[j + l];
            acc[1][l] += av * b1[j + l];
            acc[2][l] += av * b2[j + l];
            acc[3][l] += av * b3[j + l];
        }
        j += L;
    }
    let mut out = [0.0f32; 4];
    for (o, lanes) in out.iter_mut().zip(&acc) {
        *o = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    }
    while j < k {
        out[0] += a[j] * b0[j];
        out[1] += a[j] * b1[j];
        out[2] += a[j] * b2[j];
        out[3] += a[j] * b3[j];
        j += 1;
    }
    out
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Runtime-dispatched AVX2+FMA panel kernel. Rust's default x86-64
    //! target baseline is SSE2, so without this the decode GEMV runs at a
    //! fraction of the machine's FLOP rate. The kernel keeps every term
    //! (no zero-skip): NaN/Inf propagation matches the oracle, only the
    //! *rounding* of finite sums differs from the scalar path (FMA skips
    //! the intermediate product rounding) — within the tolerance every
    //! equivalence test pins.
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Is the AVX2+FMA path available (and not disabled via `FT2_NO_SIMD`)?
    pub fn enabled() -> bool {
        static HAVE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *HAVE.get_or_init(|| {
            std::env::var_os("FT2_NO_SIMD").is_none()
                && is_x86_feature_detected!("avx2")
                && is_x86_feature_detected!("fma")
        })
    }

    /// Horizontal sum of a 256-bit register (fixed reduction order).
    ///
    /// # Safety
    /// Caller must have verified AVX support (implied by the AVX2+FMA
    /// check in [`enabled`]).
    #[inline]
    #[target_feature(enable = "avx")]
    unsafe fn hsum256(v: __m256) -> f32 {
        let hi = _mm256_extractf128_ps(v, 1);
        let lo = _mm256_castps256_ps128(v);
        let s = _mm_add_ps(lo, hi);
        let shuf = _mm_movehdup_ps(s);
        let sums = _mm_add_ps(s, shuf);
        let shuf2 = _mm_movehl_ps(shuf, sums);
        _mm_cvtss_f32(_mm_add_ss(sums, shuf2))
    }

    /// Four dot products sharing each A load, two 256-bit FMA chains per
    /// row (hides the FMA latency at k ≥ 16).
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support (see [`enabled`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot4(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
        let k = a.len();
        let ap = a.as_ptr();
        let bp = [b0.as_ptr(), b1.as_ptr(), b2.as_ptr(), b3.as_ptr()];
        let mut acc0 = [_mm256_setzero_ps(); 4];
        let mut acc1 = [_mm256_setzero_ps(); 4];
        let mut j = 0usize;
        while j + 16 <= k {
            let av0 = _mm256_loadu_ps(ap.add(j));
            let av1 = _mm256_loadu_ps(ap.add(j + 8));
            for r in 0..4 {
                acc0[r] = _mm256_fmadd_ps(av0, _mm256_loadu_ps(bp[r].add(j)), acc0[r]);
                acc1[r] = _mm256_fmadd_ps(av1, _mm256_loadu_ps(bp[r].add(j + 8)), acc1[r]);
            }
            j += 16;
        }
        if j + 8 <= k {
            let av0 = _mm256_loadu_ps(ap.add(j));
            for r in 0..4 {
                acc0[r] = _mm256_fmadd_ps(av0, _mm256_loadu_ps(bp[r].add(j)), acc0[r]);
            }
            j += 8;
        }
        let mut out = [0.0f32; 4];
        for r in 0..4 {
            out[r] = hsum256(_mm256_add_ps(acc0[r], acc1[r]));
        }
        while j < k {
            out[0] += a[j] * b0[j];
            out[1] += a[j] * b1[j];
            out[2] += a[j] * b2[j];
            out[3] += a[j] * b3[j];
            j += 1;
        }
        out
    }
}

/// Best-available 4-row panel dot product.
#[inline]
fn dot4(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    #[cfg(target_arch = "x86_64")]
    if x86::enabled() {
        // SAFETY: feature support verified at runtime by `x86::enabled`.
        return unsafe { x86::dot4(a, b0, b1, b2, b3) };
    }
    dot4_portable(a, b0, b1, b2, b3)
}

/// One output row of `A × Bᵀ`: `out_row[j] = dot(a_row, b_t.row(j))`,
/// computed in panels of four B rows.
#[inline]
fn transb_row(a_row: &[f32], b_t: &Matrix, out_row: &mut [f32]) {
    let n = b_t.rows();
    debug_assert_eq!(out_row.len(), n);
    let mut j = 0;
    while j + 4 <= n {
        let r = dot4(a_row, b_t.row(j), b_t.row(j + 1), b_t.row(j + 2), b_t.row(j + 3));
        out_row[j..j + 4].copy_from_slice(&r);
        j += 4;
    }
    while j < n {
        out_row[j] = dot(a_row, b_t.row(j));
        j += 1;
    }
}

/// `A[m,k] × Bᵀ` with `B` stored as `[n, k]` (row per output feature):
/// `C[i][j] = dot(A.row(i), B.row(j))`, one row of A at a time, written
/// into a caller-owned output matrix whose allocation is reused (the
/// decode hot path calls this once per linear layer per token; reuse
/// removes the per-step allocation storm).
///
/// This kernel has no zero-skip: every term of every dot product
/// participates, so NaN/Inf placement always matches [`matmul_naive`].
pub fn matmul_transb_into(a: &Matrix, b_t: &Matrix, c: &mut Matrix) {
    assert_eq!(a.cols(), b_t.cols(), "matmul_transb shape mismatch");
    let (m, n) = (a.rows(), b_t.rows());
    c.reset(m, n);
    for i in 0..m {
        transb_row(a.row(i), b_t, c.row_mut(i));
    }
}

/// Batch-aware `A × Bᵀ`: the same per-element math as
/// [`matmul_transb_into`] — each output element is the identical
/// [`dot4`]/[`dot`] call with the identical reduction order, so every
/// output **row is bit-identical** to the row-major kernel's — but the
/// loops are reordered *panel-major*: each 4-row weight panel of `Bᵀ` is
/// loaded once and amortised over all rows of `A` while it sits in L1/L2.
///
/// For a continuous-batching decode step (a handful of activation rows
/// against a large weight matrix) the weight matrix dominates memory
/// traffic; the row-major kernel streams it `m` times, this kernel once.
/// The AVX2+FMA [`dot4`] micro-kernel is reused unchanged, so the SIMD
/// path gets the same amortisation.
///
/// Single-row inputs delegate to [`matmul_transb_into`] (bit-identical
/// either way).
pub fn matmul_transb_batch_into(a: &Matrix, b_t: &Matrix, c: &mut Matrix) {
    assert_eq!(a.cols(), b_t.cols(), "matmul_transb shape mismatch");
    let (m, n) = (a.rows(), b_t.rows());
    if m <= 1 {
        matmul_transb_into(a, b_t, c);
        return;
    }
    c.reset(m, n);
    matmul_transb_rows_into(a, 0..m, b_t, c.as_mut_slice());
}

/// Rows `rows` of the batch kernel's product, written row-major into `out`
/// (`rows.len() × b_t.rows()` elements): the panel-major loop of
/// [`matmul_transb_batch_into`] over a contiguous block of A's rows, so
/// every element is the same [`dot4`]/[`dot`] call with the same
/// reduction order. Disjoint row blocks of one product can therefore be
/// computed on different threads, straight into their rows of one output.
pub fn matmul_transb_rows_into(a: &Matrix, rows: Range<usize>, b_t: &Matrix, out: &mut [f32]) {
    assert_eq!(a.cols(), b_t.cols(), "matmul_transb shape mismatch");
    assert!(rows.end <= a.rows(), "row block past the end of A");
    let n = b_t.rows();
    assert_eq!(out.len(), rows.len() * n, "output is not rows × n");
    let mut j = 0;
    while j + 4 <= n {
        let (b0, b1, b2, b3) = (b_t.row(j), b_t.row(j + 1), b_t.row(j + 2), b_t.row(j + 3));
        for (i, o) in rows.clone().zip(out.chunks_exact_mut(n)) {
            o[j..j + 4].copy_from_slice(&dot4(a.row(i), b0, b1, b2, b3));
        }
        j += 4;
    }
    while j < n {
        let bj = b_t.row(j);
        for (i, o) in rows.clone().zip(out.chunks_exact_mut(n)) {
            o[j] = dot(a.row(i), bj);
        }
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft2_numeric::{Rng, Xoshiro256StarStar};

    fn random_matrix(rng: &mut impl Rng, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.normal() as f32)
    }

    /// The two `_into` kernels into a fresh output.
    fn transb(a: &Matrix, b_t: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(0, 0);
        matmul_transb_into(a, b_t, &mut c);
        c
    }

    fn transb_batch(a: &Matrix, b_t: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(0, 0);
        matmul_transb_batch_into(a, b_t, &mut c);
        c
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        assert_eq!(matmul_naive(&a, &b).as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transb_matches_explicit_transpose() {
        let mut rng = Xoshiro256StarStar::new(19);
        // The last two are empty on one side: no output columns, no rows.
        let shapes = [(3usize, 10usize, 4usize), (64, 96, 64), (1, 64, 512), (5, 13, 7), (3, 4, 0), (0, 4, 3)];
        for &(m, k, n) in &shapes {
            let a = random_matrix(&mut rng, m, k);
            let bt = random_matrix(&mut rng, n, k);
            let direct = transb(&a, &bt);
            assert_eq!((direct.rows(), direct.cols()), (m, n));
            let via_transpose = matmul_naive(&a, &bt.transpose());
            assert!(
                direct.max_abs_diff(&via_transpose) < 1e-3,
                "mismatch {m}x{k}x{n}"
            );
        }
    }

    /// 192 × 160 × 160: once the row-parallel path's shape, now simply the
    /// largest product tested against the oracle.
    #[test]
    fn transb_parallel_path_matches_naive() {
        let mut rng = Xoshiro256StarStar::new(21);
        let a = random_matrix(&mut rng, 192, 160);
        let bt = random_matrix(&mut rng, 160, 160);
        let direct = transb(&a, &bt);
        let via_transpose = matmul_naive(&a, &bt.transpose());
        assert!(direct.max_abs_diff(&via_transpose) < 1e-3);
    }

    #[test]
    fn transb_into_reuses_buffer_and_matches() {
        let mut rng = Xoshiro256StarStar::new(22);
        let mut out = Matrix::zeros(9, 9); // wrong shape on purpose
        for _ in 0..3 {
            let a = random_matrix(&mut rng, 4, 24);
            let bt = random_matrix(&mut rng, 11, 24);
            matmul_transb_into(&a, &bt, &mut out);
            assert_eq!(out.rows(), 4);
            assert_eq!(out.cols(), 11);
            assert!(out.max_abs_diff(&transb(&a, &bt)) == 0.0);
        }
    }

    /// The serving contract: the panel-major batch kernel must be
    /// *bit-identical* to the row-major kernel on every row — batched
    /// decode steps only match single-sequence generations because each
    /// output element is the exact same `dot4`/`dot` reduction.
    #[test]
    fn batch_kernel_is_bit_identical_to_row_major() {
        let mut rng = Xoshiro256StarStar::new(77);
        for &(m, k, n) in &[
            (2usize, 24usize, 16usize),
            (3, 13, 7),   // remainder columns (n % 4 != 0)
            (4, 64, 33),  // remainder + odd k
            (8, 96, 64),  // serving batch against a square-ish weight
            (16, 17, 5),
        ] {
            let a = random_matrix(&mut rng, m, k);
            let bt = random_matrix(&mut rng, n, k);
            let row_major = transb(&a, &bt);
            let batch = transb_batch(&a, &bt);
            assert_eq!(batch, row_major, "bitwise divergence at {m}x{k}x{n}");
        }
    }

    #[test]
    fn batch_kernel_delegates_for_single_row_and_large_products() {
        let mut rng = Xoshiro256StarStar::new(78);
        // m == 1: the decode GEMV path.
        let a1 = random_matrix(&mut rng, 1, 48);
        let bt1 = random_matrix(&mut rng, 19, 48);
        assert_eq!(transb_batch(&a1, &bt1), transb(&a1, &bt1));
        // A large product stays on the panel kernel, and stays
        // bit-identical to the row-major one.
        let a2 = random_matrix(&mut rng, 192, 160);
        let bt2 = random_matrix(&mut rng, 160, 160);
        assert_eq!(transb_batch(&a2, &bt2), transb(&a2, &bt2));
    }

    #[test]
    fn batch_kernel_propagates_nonfinite_like_naive() {
        let mut rng = Xoshiro256StarStar::new(79);
        let a = random_matrix(&mut rng, 4, 24);
        let mut bt = random_matrix(&mut rng, 11, 24);
        bt.set(1, 2, f32::NAN);
        bt.set(10, 0, f32::INFINITY);
        let got = transb_batch(&a, &bt);
        let oracle = matmul_naive(&a, &bt.transpose());
        for i in 0..4 {
            for j in 0..11 {
                assert_eq!(got.get(i, j).is_nan(), oracle.get(i, j).is_nan());
                assert_eq!(got.get(i, j).is_finite(), oracle.get(i, j).is_finite());
            }
        }
    }

    #[test]
    fn batch_into_reuses_buffer_and_matches() {
        let mut rng = Xoshiro256StarStar::new(80);
        let mut out = Matrix::zeros(3, 3); // wrong shape on purpose
        for _ in 0..3 {
            let a = random_matrix(&mut rng, 5, 24);
            let bt = random_matrix(&mut rng, 11, 24);
            matmul_transb_batch_into(&a, &bt, &mut out);
            assert_eq!(out, transb(&a, &bt));
        }
    }

    #[test]
    fn dot_unrolled_matches_fold() {
        let a: Vec<f32> = (0..13).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..13).map(|i| (13 - i) as f32).collect();
        let expect: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - expect).abs() < 1e-4);
    }

    #[test]
    fn panel_kernel_matches_dot() {
        let mut rng = Xoshiro256StarStar::new(23);
        for k in [1usize, 3, 7, 8, 15, 16, 17, 31, 32, 64, 100] {
            let a: Vec<f32> = (0..k).map(|_| rng.normal() as f32).collect();
            let bs: Vec<Vec<f32>> = (0..4)
                .map(|_| (0..k).map(|_| rng.normal() as f32).collect())
                .collect();
            let got = dot4_portable(&a, &bs[0], &bs[1], &bs[2], &bs[3]);
            for r in 0..4 {
                let want = dot(&a, &bs[r]);
                assert!(
                    (got[r] - want).abs() < 1e-3 * want.abs().max(1.0),
                    "portable k={k} row {r}: {} vs {}",
                    got[r],
                    want
                );
            }
            #[cfg(target_arch = "x86_64")]
            if x86::enabled() {
                // SAFETY: feature support verified.
                let simd = unsafe { x86::dot4(&a, &bs[0], &bs[1], &bs[2], &bs[3]) };
                for r in 0..4 {
                    let want = dot(&a, &bs[r]);
                    assert!(
                        (simd[r] - want).abs() < 1e-3 * want.abs().max(1.0),
                        "simd k={k} row {r}: {} vs {}",
                        simd[r],
                        want
                    );
                }
            }
        }
    }

    #[test]
    fn transb_propagates_nonfinite_like_naive() {
        let mut rng = Xoshiro256StarStar::new(42);
        for &(m, k, n) in &[(1usize, 64usize, 12usize), (3, 24, 7)] {
            let a = random_matrix(&mut rng, m, k);
            let mut bt = random_matrix(&mut rng, n, k);
            bt.set(1, 2, f32::NAN);
            bt.set(n - 1, 0, f32::INFINITY);
            let got = transb(&a, &bt);
            let oracle = matmul_naive(&a, &bt.transpose());
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(got.get(i, j).is_nan(), oracle.get(i, j).is_nan());
                    assert_eq!(got.get(i, j).is_finite(), oracle.get(i, j).is_finite());
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        matmul_naive(&a, &b);
    }
}
