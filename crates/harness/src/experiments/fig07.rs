//! Figure 7 — the two abnormal-value archetypes of binary16: a flip of the
//! highest exponent bit of a small value yields an extreme magnitude, and
//! the same flip on a value in (1,2) ∪ (−2,−1) yields NaN.

use super::ExperimentCtx;
use crate::report::Table;
use ft2_numeric::{is_nan_vulnerable, DType, F16};

fn describe(v: f32) -> (String, String, String) {
    let h = F16::from_f32(v);
    let flipped = h.flip_bit(14);
    let bits = format!("{:016b}", h.to_bits());
    let outcome = if flipped.is_nan() {
        "NaN".to_string()
    } else if flipped.is_infinite() {
        "Inf".to_string()
    } else {
        format!("{}", flipped.to_f32())
    };
    (bits, format!("{:016b}", flipped.to_bits()), outcome)
}

/// Run the demonstration and emit its table.
pub fn run(ctx: &ExperimentCtx) -> Table {
    let mut table = Table::new(
        "Fig. 7 — highest-exponent-bit flip on FP16 values (sign|exp5|mant10)",
        &["value", "bits_before", "bits_after", "becomes", "nan_vulnerable"],
    );
    for v in [0.5f32, 0.0312, 1.5, -1.25, 1.0, 2.0, 3.75] {
        let (before, after, outcome) = describe(v);
        table.row(vec![
            format!("{v}"),
            before,
            after,
            outcome,
            if is_nan_vulnerable(v, DType::F16) { "yes" } else { "no" }.into(),
        ]);
    }
    ctx.emit("fig07_bitflip_examples", &table);
    table
}
