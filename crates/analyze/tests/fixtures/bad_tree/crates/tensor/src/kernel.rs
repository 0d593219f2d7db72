// Seeded violation: a zero-skip sparsity guard in kernel code with no
// `ft2: zero-ok` audit note — it would mask a NaN/Inf in `b`.

pub fn dot_skipping_zeros(a: &[f32], b: &[f32]) -> f32 {
    let mut s = 0.0;
    for i in 0..a.len() {
        if a[i] == 0.0 {
            continue;
        }
        s += a[i] * b[i];
    }
    s
}
