//! Property-based tests for tensor kernels.

use ft2_tensor::ops::mul_inplace;
use ft2_tensor::{
    add_inplace, argmax, layer_norm, matmul_naive, matmul_transb_into, rms_norm, scale_inplace,
    softmax_rows, DType, Matrix,
};
use proptest::prelude::*;

/// The IEEE special values the strict kernels must propagate exactly like
/// the naive oracle: NaN, both infinities, subnormals of both signs, and
/// exact zero (the value a zero-skip shortcut keys on).
const SPECIALS: [f32; 6] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1.0e-40,
    -1.0e-40,
    0.0,
];

/// Plant `plants` special values at LCG-derived positions of `a` and `b`.
fn plant_specials(a: &mut Matrix, b: &mut Matrix, seed: u64, plants: usize) {
    let mut s = seed | 1;
    let mut next = |n: usize| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) % n.max(1) as u64) as usize
    };
    for _ in 0..plants {
        let v = SPECIALS[next(SPECIALS.len())];
        if next(2) == 0 {
            let (r, c) = (next(a.rows()), next(a.cols()));
            a.set(r, c, v);
        } else {
            let (r, c) = (next(b.rows()), next(b.cols()));
            b.set(r, c, v);
        }
    }
}

/// Assert `got` and `oracle` agree on NaN/Inf placement everywhere and agree
/// within `tol` on finite entries.
fn assert_nonfinite_placement(got: &Matrix, oracle: &Matrix, tol: f32) {
    assert_eq!((got.rows(), got.cols()), (oracle.rows(), oracle.cols()));
    for r in 0..oracle.rows() {
        for c in 0..oracle.cols() {
            let (g, o) = (got.get(r, c), oracle.get(r, c));
            if o.is_nan() {
                assert!(g.is_nan(), "[{r},{c}] oracle NaN, got {g}");
            } else if o.is_infinite() {
                assert_eq!(g, o, "[{r},{c}] oracle {o}, got {g}");
            } else {
                assert!(g.is_finite(), "[{r},{c}] oracle {o} finite, got {g}");
                assert!((g - o).abs() < tol, "[{r},{c}] oracle {o}, got {g}");
            }
        }
    }
}

fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    /// `matmul_transb_into(a, b)` equals the naive oracle on `(a, bᵀ)`.
    #[test]
    fn transb_consistent(
        m in 1usize..10, k in 1usize..10, n in 1usize..10,
        seed in any::<u32>(),
    ) {
        let a = Matrix::from_fn(m, k, |r, c| ((r + c * 3 + seed as usize) % 11) as f32 * 0.2 - 1.0);
        let bt = Matrix::from_fn(n, k, |r, c| ((r * 5 + c + seed as usize) % 13) as f32 * 0.2 - 1.2);
        let mut direct = Matrix::zeros(0, 0);
        matmul_transb_into(&a, &bt, &mut direct);
        let via = matmul_naive(&a, &bt.transpose());
        prop_assert!(direct.max_abs_diff(&via) < 1e-3);
    }

    /// Softmax rows sum to one and are within (0,1] for finite inputs.
    #[test]
    fn softmax_is_a_distribution(m in matrix_strategy(8)) {
        let mut s = m.clone();
        softmax_rows(&mut s);
        for r in 0..s.rows() {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
            for &v in s.row(r) {
                prop_assert!(v > 0.0 && v <= 1.0 + 1e-6);
            }
        }
    }

    /// Softmax is invariant under per-row shifts.
    #[test]
    fn softmax_shift_invariant(m in matrix_strategy(6), shift in -5.0f32..5.0) {
        let mut a = m.clone();
        softmax_rows(&mut a);
        let mut shifted = m.clone();
        for v in shifted.as_mut_slice() {
            *v += shift;
        }
        softmax_rows(&mut shifted);
        prop_assert!(a.max_abs_diff(&shifted) < 1e-4);
    }

    /// LayerNorm output has near-zero mean and near-unit variance per row
    /// (identity affine), for rows with some spread.
    #[test]
    fn layer_norm_standardises(cols in 2usize..32, seed in any::<u32>()) {
        let mut m = Matrix::from_fn(1, cols, |_, c| ((c * 37 + seed as usize) % 29) as f32 * 0.7);
        // Ensure spread.
        m.set(0, 0, m.get(0, 0) + 5.0);
        let gamma = vec![1.0f32; cols];
        let beta = vec![0.0f32; cols];
        layer_norm(&mut m, &gamma, &beta, 1e-5);
        let mean: f32 = m.row(0).iter().sum::<f32>() / cols as f32;
        let var: f32 = m.row(0).iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        prop_assert!(mean.abs() < 1e-3);
        prop_assert!((var - 1.0).abs() < 1e-2);
    }

    /// RMSNorm output has near-unit RMS.
    #[test]
    fn rms_norm_unit_rms(cols in 2usize..32, seed in any::<u32>()) {
        let mut m = Matrix::from_fn(1, cols, |_, c| ((c * 7 + seed as usize) % 13) as f32 * 0.5 + 0.1);
        let gamma = vec![1.0f32; cols];
        rms_norm(&mut m, &gamma, 1e-6);
        let ms: f32 = m.row(0).iter().map(|v| v * v).sum::<f32>() / cols as f32;
        prop_assert!((ms - 1.0).abs() < 1e-2);
    }

    /// Quantising to f16 then f32 is a no-op the second time, and the f16
    /// grid is coarser than or equal to the original values.
    #[test]
    fn quantisation_idempotent(m in matrix_strategy(8)) {
        let mut once = m.clone();
        once.quantize(DType::F16);
        let mut twice = once.clone();
        twice.quantize(DType::F16);
        prop_assert_eq!(&once, &twice);
        let mut bf = m.clone();
        bf.quantize(DType::Bf16);
        let mut bf2 = bf.clone();
        bf2.quantize(DType::Bf16);
        prop_assert_eq!(&bf, &bf2);
    }

    /// argmax returns an index whose value is >= every other value.
    #[test]
    fn argmax_is_max(values in prop::collection::vec(-100.0f32..100.0, 1..64)) {
        let idx = argmax(&values);
        prop_assert!(idx < values.len());
        for &v in &values {
            prop_assert!(values[idx] >= v);
        }
    }

    /// Elementwise ops compose as expected: (a + b) * s == a*s + b*s.
    #[test]
    fn elementwise_distributes(cols in 1usize..32, s in -3.0f32..3.0, seed in any::<u32>()) {
        let a = Matrix::from_fn(1, cols, |_, c| ((c + seed as usize) % 17) as f32 * 0.3 - 1.0);
        let b = Matrix::from_fn(1, cols, |_, c| ((c * 3 + seed as usize) % 11) as f32 * 0.2 - 0.9);
        let mut lhs = a.clone();
        add_inplace(&mut lhs, &b);
        scale_inplace(&mut lhs, s);
        let mut ra = a.clone();
        scale_inplace(&mut ra, s);
        let mut rb = b.clone();
        scale_inplace(&mut rb, s);
        add_inplace(&mut ra, &rb);
        prop_assert!(lhs.max_abs_diff(&ra) < 1e-4);
    }

    /// `matmul_transb_into` (always strict — the model's GEMM) propagates planted
    /// specials exactly where the oracle does, across the SIMD panel kernel,
    /// its scalar tail, and the portable fallback.
    #[test]
    fn transb_propagates_specials_like_naive(
        m in 1usize..10, k in 1usize..40, n in 1usize..10,
        seed in any::<u64>(), plants in 0usize..10,
    ) {
        let mut a = Matrix::from_fn(m, k, |r, c| {
            ((r + c * 3 + seed as usize) % 11) as f32 * 0.2 - 1.0
        });
        let mut bt = Matrix::from_fn(n, k, |r, c| {
            ((r * 5 + c + seed as usize) % 13) as f32 * 0.2 - 1.2
        });
        plant_specials(&mut a, &mut bt, seed ^ 0xD07, plants);
        let mut direct = Matrix::zeros(0, 0);
        matmul_transb_into(&a, &bt, &mut direct);
        let oracle = matmul_naive(&a, &bt.transpose());
        assert_nonfinite_placement(&direct, &oracle, 1e-3);
    }

    /// Hadamard product commutes.
    #[test]
    fn mul_commutes(cols in 1usize..32, seed in any::<u32>()) {
        let a = Matrix::from_fn(1, cols, |_, c| ((c * 5 + seed as usize) % 9) as f32 - 4.0);
        let b = Matrix::from_fn(1, cols, |_, c| ((c * 2 + seed as usize) % 7) as f32 - 3.0);
        let mut ab = a.clone();
        mul_inplace(&mut ab, &b);
        let mut ba = b.clone();
        mul_inplace(&mut ba, &a);
        prop_assert_eq!(ab, ba);
    }
}
