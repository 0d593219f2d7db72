// Annotated twin of bad_tree/crates/tensor/src/kernel.rs: the zero guard
// carries the audit note, and earns it — it counts zeros and skips no term.

pub fn dot_counting_zeros(a: &[f32], b: &[f32]) -> (f32, usize) {
    let (mut s, mut zeros) = (0.0, 0);
    for i in 0..a.len() {
        // ft2: zero-ok (counts sparsity; the term below still accumulates)
        if a[i] == 0.0 {
            zeros += 1;
        }
        s += a[i] * b[i];
    }
    (s, zeros)
}
