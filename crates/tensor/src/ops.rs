//! Elementwise and normalisation kernels for transformer inference.
//!
//! Note on fault propagation: these kernels use plain IEEE-754 `f32`
//! arithmetic with no special-casing of non-finite inputs, so a NaN or huge
//! value introduced by fault injection propagates exactly as it would
//! through a GPU kernel (e.g. one NaN in a softmax row poisons the whole
//! row — the mechanism behind the paper's Take-away #2).

use crate::matrix::Matrix;

/// Numerically-stable softmax of one row, in place: max-subtract, exp,
/// single-pass sum, multiply by the reciprocal. The one softmax in the
/// workspace — [`softmax_rows`] and the attention core both call it, so a
/// row's weights do not depend on which of them computed it.
pub fn softmax_inplace(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    // A zero/NaN sum (all -inf, or NaN contamination) yields NaN weights,
    // matching real softmax behaviour under corruption.
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// [`softmax_inplace`] over every row of `m`.
pub fn softmax_rows(m: &mut Matrix) {
    if m.cols() == 0 {
        return;
    }
    for r in 0..m.rows() {
        softmax_inplace(m.row_mut(r));
    }
}

/// LayerNorm over each row: `gamma * (x - mean) / sqrt(var + eps) + beta`.
pub fn layer_norm(m: &mut Matrix, gamma: &[f32], beta: &[f32], eps: f32) {
    let cols = m.cols();
    assert_eq!(gamma.len(), cols);
    assert_eq!(beta.len(), cols);
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let mean = row.iter().sum::<f32>() / cols as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for (v, (&g, &b)) in row.iter_mut().zip(gamma.iter().zip(beta)) {
            *v = g * (*v - mean) * inv + b;
        }
    }
}

/// RMSNorm over each row: `gamma * x / sqrt(mean(x²) + eps)` (Llama-style).
pub fn rms_norm(m: &mut Matrix, gamma: &[f32], eps: f32) {
    let cols = m.cols();
    assert_eq!(gamma.len(), cols);
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let ms = row.iter().map(|v| v * v).sum::<f32>() / cols as f32;
        let inv = 1.0 / (ms + eps).sqrt();
        for (v, &g) in row.iter_mut().zip(gamma) {
            *v = g * *v * inv;
        }
    }
}

/// ReLU in place.
pub fn relu_inplace(m: &mut Matrix) {
    for v in m.as_mut_slice() {
        // max(0, v); NaN propagates (NaN.max(0) is 0 in Rust, so branch
        // explicitly to keep NaN, as IEEE maxNum on GPUs is not what torch
        // relu does — torch relu keeps NaN).
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// GELU (tanh approximation) in place.
pub fn gelu_inplace(m: &mut Matrix) {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    for v in m.as_mut_slice() {
        let x = *v;
        *v = 0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh());
    }
}

/// SiLU / swish (`x * sigmoid(x)`) in place.
pub fn silu_inplace(m: &mut Matrix) {
    for v in m.as_mut_slice() {
        let x = *v;
        *v = x / (1.0 + (-x).exp());
    }
}

/// Elementwise `a += b` (residual connection).
pub fn add_inplace(a: &mut Matrix, b: &Matrix) {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.cols(), b.cols());
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += y;
    }
}

/// Add a bias row vector to every row.
pub fn add_bias_inplace(m: &mut Matrix, bias: &[f32]) {
    assert_eq!(m.cols(), bias.len());
    for r in 0..m.rows() {
        for (v, &b) in m.row_mut(r).iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Multiply every element by a scalar.
pub fn scale_inplace(m: &mut Matrix, s: f32) {
    for v in m.as_mut_slice() {
        *v *= s;
    }
}

/// Elementwise product `a *= b` (gated MLPs).
pub fn mul_inplace(a: &mut Matrix, b: &Matrix) {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.cols(), b.cols());
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x *= y;
    }
}

/// Index of the maximum element of a slice; NaNs are skipped so a corrupted
/// logit vector still yields a deterministic (if wrong) token. Returns 0 for
/// all-NaN input.
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in xs.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32, tol: f32) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        softmax_rows(&mut m);
        for r in 0..2 {
            let sum: f32 = m.row(r).iter().sum();
            assert!(close(sum, 1.0, 1e-6));
            assert!(m.row(r).iter().all(|&v| v > 0.0));
        }
        // Largest logit gets the largest weight.
        assert!(m.get(0, 2) > m.get(0, 1));
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let mut a = Matrix::from_vec(1, 3, vec![1000.0, 1001.0, 1002.0]);
        softmax_rows(&mut a);
        let mut b = Matrix::from_vec(1, 3, vec![0.0, 1.0, 2.0]);
        softmax_rows(&mut b);
        assert!(a.max_abs_diff(&b) < 1e-6);
    }

    #[test]
    fn softmax_nan_poisons_row() {
        let mut m = Matrix::from_vec(1, 3, vec![0.0, f32::NAN, 1.0]);
        softmax_rows(&mut m);
        assert!(m.row(0).iter().all(|v| v.is_nan()));
    }

    #[test]
    fn softmax_saturates_on_huge_value() {
        // A fault-injected huge logit makes the softmax one-hot: the scaling
        // mechanism that renders K/Q faults non-critical (§4.1.1).
        let mut m = Matrix::from_vec(1, 3, vec![0.0, 60000.0, 1.0]);
        softmax_rows(&mut m);
        assert!(close(m.get(0, 1), 1.0, 1e-6));
        assert!(m.get(0, 0) < 1e-12);
    }

    #[test]
    fn layer_norm_standardises() {
        let mut m = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let gamma = vec![1.0; 4];
        let beta = vec![0.0; 4];
        layer_norm(&mut m, &gamma, &beta, 1e-5);
        let mean: f32 = m.row(0).iter().sum::<f32>() / 4.0;
        let var: f32 = m
            .row(0)
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 4.0;
        assert!(close(mean, 0.0, 1e-5));
        assert!(close(var, 1.0, 1e-3));
    }

    #[test]
    fn rms_norm_unit_rms() {
        let mut m = Matrix::from_vec(1, 4, vec![2.0, -2.0, 2.0, -2.0]);
        let gamma = vec![1.0; 4];
        rms_norm(&mut m, &gamma, 1e-6);
        let ms: f32 = m.row(0).iter().map(|v| v * v).sum::<f32>() / 4.0;
        assert!(close(ms, 1.0, 1e-4));
    }

    #[test]
    fn activations() {
        let mut m = Matrix::from_vec(1, 3, vec![-2.0, 0.0, 2.0]);
        relu_inplace(&mut m);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 2.0]);

        let mut g = Matrix::from_vec(1, 3, vec![-2.0, 0.0, 2.0]);
        gelu_inplace(&mut g);
        assert!(close(g.get(0, 1), 0.0, 1e-6));
        assert!(close(g.get(0, 2), 1.9546, 1e-3));
        assert!(close(g.get(0, 0), -0.0454, 1e-3));

        let mut s = Matrix::from_vec(1, 3, vec![-2.0, 0.0, 2.0]);
        silu_inplace(&mut s);
        assert!(close(s.get(0, 1), 0.0, 1e-6));
        assert!(close(s.get(0, 2), 1.7616, 1e-3));
    }

    #[test]
    fn relu_keeps_nan() {
        let mut m = Matrix::from_vec(1, 2, vec![f32::NAN, -1.0]);
        relu_inplace(&mut m);
        assert!(m.get(0, 0).is_nan());
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn activation_squashes_huge_negative_but_passes_huge_positive() {
        // The magnitude-reduction mechanism of Take-away #4: activations kill
        // large negative faulty values; large positive ones survive but the
        // next (critical, protected) layer clips their products.
        let mut m = Matrix::from_vec(1, 2, vec![-60000.0, 60000.0]);
        silu_inplace(&mut m);
        assert_eq!(m.get(0, 0), 0.0);
        assert!(m.get(0, 1) > 59000.0);
    }

    #[test]
    fn residual_add_and_bias() {
        let mut a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![10.0, 20.0, 30.0, 40.0]);
        add_inplace(&mut a, &b);
        assert_eq!(a.as_slice(), &[11.0, 22.0, 33.0, 44.0]);
        add_bias_inplace(&mut a, &[1.0, -1.0]);
        assert_eq!(a.as_slice(), &[12.0, 21.0, 34.0, 43.0]);
        scale_inplace(&mut a, 0.5);
        assert_eq!(a.as_slice(), &[6.0, 10.5, 17.0, 21.5]);
    }

    #[test]
    fn elementwise_mul() {
        let mut a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![2.0, 0.5, -1.0]);
        mul_inplace(&mut a, &b);
        assert_eq!(a.as_slice(), &[2.0, 1.0, -3.0]);
    }

    #[test]
    fn argmax_behaviour() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[f32::NAN, 1.0, 0.5]), 1);
        assert_eq!(argmax(&[f32::NAN, f32::NAN]), 0);
        assert_eq!(argmax(&[-1.0, -2.0]), 0);
    }
}
