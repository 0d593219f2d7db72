//! Storage formats, the bit-flip fault primitive, and the NaN-vulnerability
//! analysis of §4.1.1.
//!
//! Every fault model in the paper corrupts the *stored representation* of a
//! neuron value: single-bit flips, double-bit flips, and single flips
//! restricted to exponent bits (the "EXP" model, the most aggressive one).
//! [`DType`] is the one place that knows a tensor's storage format — its bit
//! layout, its rounding grid, and how a fault xors into its stored pattern —
//! so that `ft2-tensor` and `ft2-fault` stay format-agnostic.

use crate::f16::{Bf16, F16};

/// Storage precision of a tensor. Values are always *carried* as `f32`;
/// `DType` controls the grid they are rounded to when stored, and the bit
/// format faults are injected into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DType {
    /// IEEE binary16 storage (the paper's default).
    F16,
    /// IEEE binary32 storage (the paper's §5.2.3 case study).
    F32,
    /// bfloat16 storage (extension).
    Bf16,
}

impl DType {
    /// `(exponent bits, mantissa bits)` of the stored pattern.
    const fn layout(self) -> (u32, u32) {
        match self {
            DType::F16 => F16::LAYOUT,
            DType::F32 => (8, 23),
            DType::Bf16 => Bf16::LAYOUT,
        }
    }

    /// Total number of bits in the representation.
    pub const fn total_bits(self) -> u32 {
        self.sign_bit() + 1
    }

    /// Inclusive range of exponent bit indices (LSB = bit 0).
    pub const fn exponent_bits(self) -> (u32, u32) {
        let (exp, mant) = self.layout();
        (mant, mant + exp - 1)
    }

    /// Index of the sign bit.
    pub const fn sign_bit(self) -> u32 {
        let (exp, mant) = self.layout();
        exp + mant
    }

    /// Short lowercase name, used in reports.
    pub const fn name(self) -> &'static str {
        match self {
            DType::F16 => "fp16",
            DType::F32 => "fp32",
            DType::Bf16 => "bf16",
        }
    }

    /// Classify a bit index as `"sign"`, `"exponent"` or `"mantissa"`.
    pub fn bit_class(self, bit: u32) -> &'static str {
        let (lo, hi) = self.exponent_bits();
        if bit == self.sign_bit() {
            "sign"
        } else if (lo..=hi).contains(&bit) {
            "exponent"
        } else {
            "mantissa"
        }
    }

    /// The fault primitive: store `value` in this format, xor `bits` into
    /// the stored pattern, load the result. An FP16 tensor holds binary16
    /// patterns, so a fault on it corrupts the binary16 pattern, not the
    /// widened f32. With no bits this is the plain store-and-load.
    pub fn flip(self, value: f32, bits: &[u32]) -> f32 {
        debug_assert!(bits.iter().all(|&b| b < self.total_bits()));
        let mask = bits.iter().fold(0u32, |m, &b| m ^ (1 << b));
        match self {
            DType::F16 => F16::from_bits(F16::from_f32(value).to_bits() ^ mask as u16).to_f32(),
            DType::F32 => f32::from_bits(value.to_bits() ^ mask),
            DType::Bf16 => Bf16::from_bits(Bf16::from_f32(value).to_bits() ^ mask as u16).to_f32(),
        }
    }

    /// Round every value to this storage grid in place — the "store to
    /// memory" step of a mixed-precision pipeline. Matches on the format
    /// once per slice and runs that format's monomorphised loop.
    pub fn quantize_slice(self, values: &mut [f32]) {
        match self {
            DType::F16 => F16::round_slice(values),
            DType::F32 => {}
            DType::Bf16 => Bf16::round_slice(values),
        }
    }
}

/// Is `value` NaN-vulnerable in `format` (§4.1.1): does flipping its highest
/// exponent bit produce a NaN? In binary16 these are the magnitudes in
/// (1, 2) — unbiased exponent 0, with the exact powers of two excluded
/// because their zero mantissa flips to ±∞, not NaN.
pub fn is_nan_vulnerable(value: f32, format: DType) -> bool {
    format.flip(value, &[format.exponent_bits().1]).is_nan()
}

/// Fraction of `values` that are NaN-vulnerable in the given format
/// (Fig. 8(b) statistic). Returns 0 for an empty slice.
pub fn nan_vulnerable_fraction(values: &[f32], format: DType) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let n = values
        .iter()
        .filter(|&&v| is_nan_vulnerable(v, format))
        .count();
    n as f64 / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_layouts() {
        assert_eq!(DType::F16.exponent_bits(), (10, 14));
        assert_eq!(DType::F32.exponent_bits(), (23, 30));
        assert_eq!(DType::Bf16.exponent_bits(), (7, 14));
        assert_eq!(DType::F16.sign_bit(), 15);
        assert_eq!(DType::F32.sign_bit(), 31);
        assert_eq!(DType::Bf16.sign_bit(), 15);
        assert_eq!(DType::F16.total_bits(), 16);
        assert_eq!(DType::F32.total_bits(), 32);
        assert_eq!(DType::Bf16.total_bits(), 16);
    }

    #[test]
    fn bit_location_classes() {
        let fmt = DType::F16;
        assert_eq!(fmt.bit_class(15), "sign");
        assert_eq!(fmt.bit_class(14), "exponent");
        assert_eq!(fmt.bit_class(12), "exponent");
        assert_eq!(fmt.bit_class(10), "exponent");
        assert_eq!(fmt.bit_class(9), "mantissa");
        assert_eq!(fmt.bit_class(3), "mantissa");
    }

    #[test]
    fn flip_is_involution() {
        for bit in 0..32 {
            let v = 123.456f32;
            assert_eq!(DType::F32.flip(DType::F32.flip(v, &[bit]), &[bit]), v);
        }
    }

    #[test]
    fn flip_in_f16_respects_storage() {
        // 1.5 stored as binary16; flipping bit 14 must give NaN.
        let out = DType::F16.flip(1.5, &[14]);
        assert!(out.is_nan());
        // In f32 storage, 1.5's top exponent flip (bit 30) gives exponent
        // 0111_1111 -> 1111_1111: NaN in f32 too.
        let out32 = DType::F32.flip(1.5, &[30]);
        assert!(out32.is_nan());
        // 0.5 flips to a huge finite value in both — 2^15 in binary16.
        assert_eq!(DType::F16.flip(0.5, &[14]), 32768.0);
        assert!(DType::F32.flip(0.5, &[30]).is_finite());
    }

    #[test]
    fn double_flip() {
        let v = 2.0f32;
        let out = DType::F32.flip(v, &[0, 1]);
        // Mantissa LSB flips: tiny perturbation.
        assert!((out - v).abs() < 1e-5);
        let out = DType::F16.flip(0.75, &[0, 1]);
        assert!((out - 0.75).abs() < 0.01);
    }

    #[test]
    fn quantize_slice_is_the_empty_flip() {
        let raw = [1.0005f32, -2.0003, 70000.0, 1e-9, f32::NAN, 0.1];
        for format in [DType::F16, DType::F32, DType::Bf16] {
            let mut stored = raw;
            format.quantize_slice(&mut stored);
            for (s, &v) in stored.iter().zip(&raw) {
                assert_eq!(s.to_bits(), format.flip(v, &[]).to_bits(), "{format:?} {v}");
            }
        }
    }

    #[test]
    fn nan_vulnerability_matches_intervals() {
        // Values strictly inside (1,2) or (-2,-1) are vulnerable; powers of
        // two and values outside are not.
        let f16 = |v| is_nan_vulnerable(v, DType::F16);
        assert!(f16(1.5));
        assert!(f16(1.000_976_6)); // 1 + 2^-10
        assert!(f16(-1.5));
        assert!(f16(1.999));
        assert!(!f16(1.0)); // exact power of two -> inf
        assert!(!f16(-1.0));
        assert!(!f16(0.5));
        assert!(!f16(2.0));
        assert!(!f16(3.0));
        assert!(!f16(0.0));
    }

    #[test]
    fn nan_vulnerable_fraction_counts() {
        let vals = [0.5f32, 1.5, 1.2, -1.7, 3.0, 0.0];
        let frac = nan_vulnerable_fraction(&vals, DType::F16);
        assert!((frac - 3.0 / 6.0).abs() < 1e-12);
        assert_eq!(nan_vulnerable_fraction(&[], DType::F16), 0.0);
    }

    #[test]
    fn f32_nan_vulnerable_interval_is_same_shape() {
        // In binary32 the same (1,2)/(-2,-1) property holds for the top
        // exponent bit (bit 30).
        assert!(is_nan_vulnerable(1.5, DType::F32));
        assert!(!is_nan_vulnerable(2.5, DType::F32));
    }
}
