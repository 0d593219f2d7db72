//! The 16-bit storage formats, implemented from scratch as one
//! const-generic type.
//!
//! [`Float<EXP, MANT>`] holds the raw `u16` pattern of a value with 1 sign
//! bit, `EXP` exponent bits and `MANT` mantissa bits, so fault injection can
//! flip any bit and the resulting value (huge number, subnormal, NaN,
//! infinity) is decoded with exact IEEE semantics. [`F16`] is IEEE-754
//! binary16 (1/5/10, Fig. 7 of the paper); [`Bf16`] is bfloat16 (1/8/7), an
//! extension beyond the paper's FP16/FP32 study that shares binary32's
//! exponent range. Masks, bias and exponent range all follow from `EXP` and
//! `MANT`.
//!
//! Values are carried as `f32`: [`Float::from_f32`] is the store of an f32
//! accumulator (round to nearest even), [`Float::to_f32`] the exact load —
//! the behaviour of GPU FP16 units with an FP32 accumulator path, which is
//! the configuration the paper evaluates.

/// A 16-bit float with `EXP` exponent and `MANT` mantissa bits
/// (`1 + EXP + MANT == 16`, `EXP <= 8`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(transparent)]
pub struct Float<const EXP: u32, const MANT: u32>(u16);

/// IEEE-754 binary16.
pub type F16 = Float<5, 10>;

/// bfloat16: binary32 with the low 16 mantissa bits dropped.
pub type Bf16 = Float<8, 7>;

impl<const EXP: u32, const MANT: u32> Float<EXP, MANT> {
    /// `(exponent bits, mantissa bits)` of the stored pattern.
    pub(crate) const LAYOUT: (u32, u32) = (EXP, MANT);
    /// The all-ones exponent field of ∞ and NaN.
    const EXP_MAX: u32 = (1 << EXP) - 1;
    const EXP_MASK: u16 = (Self::EXP_MAX as u16) << MANT;
    const MANT_MASK: u16 = (1 << MANT) - 1;
    const BIAS: i32 = (1 << (EXP - 1)) - 1;
    /// Mantissa bits binary32 has beyond this format's.
    const SHIFT: u32 = 23 - MANT;
    /// 2^(1 - BIAS - MANT), the weight of a subnormal's lowest bit (a
    /// normal f64, so `mant × ULP` is exact there and then in f32).
    const SUBNORMAL_ULP: f64 = f64::from_bits(((1024 - Self::BIAS - MANT as i32) as u64) << 52);

    /// Construct from a raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        Float(bits)
    }

    /// The raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Round an `f32` to this format, to nearest even: overflow goes to ±∞,
    /// values below the normal range to subnormals or ±0. A NaN keeps its
    /// payload truncated to `MANT` bits, so a flipped NaN pattern survives
    /// the trip through `f32` and a second flip restores it; only a payload
    /// truncated to zero gets the top mantissa bit, to stay a NaN.
    #[inline]
    pub fn from_f32(value: f32) -> Self {
        let x = value.to_bits();
        let sign = ((x >> 31) as u16) << 15;
        let exp = ((x >> 23) & 0xFF) as i32;
        let mant = x & 0x007F_FFFF;
        if exp == 0xFF {
            let payload = (mant >> Self::SHIFT) as u16;
            let payload = if mant != 0 && payload == 0 {
                1 << (MANT - 1)
            } else {
                payload
            };
            return Float(sign | Self::EXP_MASK | payload);
        }
        let biased = exp - 127 + Self::BIAS;
        if biased >= Self::EXP_MAX as i32 {
            return Float(sign | Self::EXP_MASK);
        }
        // `bits` keeps the high part, `rem` the dropped low bits, `half` the
        // weight of half an ulp of what is kept.
        let (mut bits, rem, half) = if biased > 0 {
            let bits = ((biased as u32) << MANT) | (mant >> Self::SHIFT);
            (
                bits,
                mant & ((1 << Self::SHIFT) - 1),
                1 << (Self::SHIFT - 1),
            )
        } else {
            // A subnormal (or zero) result: the significand shifts one more
            // place per exponent step below 1. A binary32 subnormal has no
            // implicit bit and the smallest normal's exponent. Past 31
            // places everything rounds to zero.
            let (biased, mant) = if exp == 0 {
                (biased + 1, mant)
            } else {
                (biased, mant | 0x0080_0000)
            };
            let shift = (Self::SHIFT + (1 - biased) as u32).min(31);
            (mant >> shift, mant & ((1 << shift) - 1), 1 << (shift - 1))
        };
        if rem > half || (rem == half && (bits & 1) == 1) {
            bits += 1; // a mantissa carry bumps the exponent, up to ∞
        }
        Float(sign | bits as u16)
    }

    /// Widen to `f32` exactly (every value of the format is representable).
    #[inline]
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 >> 15) as u32) << 31;
        let exp = ((self.0 & Self::EXP_MASK) >> MANT) as u32;
        let mant = (self.0 & Self::MANT_MASK) as u32;
        let magnitude = if exp == Self::EXP_MAX {
            // ∞ or NaN, the payload carried unchanged.
            0x7F80_0000 | (mant << Self::SHIFT)
        } else if exp != 0 {
            (((exp as i32 - Self::BIAS + 127) as u32) << 23) | (mant << Self::SHIFT)
        } else {
            ((mant as f64 * Self::SUBNORMAL_ULP) as f32).to_bits()
        };
        f32::from_bits(sign | magnitude)
    }

    /// Round every value to this format's grid in place.
    pub(crate) fn round_slice(values: &mut [f32]) {
        for v in values {
            *v = Self::from_f32(*v).to_f32();
        }
    }

    /// Is this a NaN encoding (all exponent bits set, non-zero mantissa)?
    #[inline]
    pub const fn is_nan(self) -> bool {
        (self.0 & Self::EXP_MASK) == Self::EXP_MASK && (self.0 & Self::MANT_MASK) != 0
    }

    /// Is this positive or negative infinity?
    #[inline]
    pub const fn is_infinite(self) -> bool {
        (self.0 & Self::EXP_MASK) == Self::EXP_MASK && (self.0 & Self::MANT_MASK) == 0
    }

    /// Flip a single bit of the representation. Bit 0 is the least
    /// significant mantissa bit, bit 15 the sign, bit 14 the highest
    /// exponent bit (Fig. 7).
    #[inline]
    pub const fn flip_bit(self, bit: u32) -> Self {
        Float(self.0 ^ (1 << bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_decode_correctly() {
        for (bits, want) in [
            (0x0000, 0.0f32),
            (0x3C00, 1.0),
            (0xBC00, -1.0),
            (0x7BFF, 65504.0),
            (0xFBFF, -65504.0),
            (0x0400, 2.0f32.powi(-14)),
            (0x0001, 2.0f32.powi(-24)),
            (0x1400, 2.0f32.powi(-10)),
        ] {
            assert_eq!(F16::from_bits(bits).to_f32(), want, "{bits:#06x}");
        }
        assert!(F16::from_bits(0x7E00).is_nan());
        assert!(F16::from_bits(0x7C00).is_infinite());
        assert!(F16::from_bits(0xFC00).is_infinite());
        assert_eq!(F16::from_bits(0xFC00).to_f32(), f32::NEG_INFINITY);
    }

    #[test]
    fn roundtrip_simple_values() {
        for &v in &[
            0.0f32, -0.0, 1.0, -1.0, 2.0, 0.5, 0.25, 1.5, 3.140625, 1000.0, -1000.0, 65504.0,
        ] {
            let h = F16::from_f32(v);
            assert_eq!(h.to_f32(), v, "roundtrip failed for {v}");
        }
    }

    #[test]
    fn rounding_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10: ties to even
        // keep 1.0 (even mantissa).
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway).to_f32(), 1.0);
        // Slightly above halfway rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(F16::from_f32(above).to_f32(), 1.0 + 2.0f32.powi(-10));
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; ties to even
        // round up to 1+2^-9 (even mantissa).
        let halfway2 = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway2).to_f32(), 1.0 + 2.0f32.powi(-9));
    }

    #[test]
    fn overflow_to_infinity() {
        assert!(F16::from_f32(65520.0).is_infinite()); // rounds past MAX
        assert_eq!(F16::from_f32(65519.0).to_f32(), 65504.0); // rounds down to MAX
        assert!(F16::from_f32(1e9).is_infinite());
        assert!(F16::from_f32(-1e9).is_infinite());
        assert_eq!(F16::from_f32(-1e9).to_f32(), f32::NEG_INFINITY);
    }

    #[test]
    fn underflow_and_subnormals() {
        let tiny = 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).to_f32(), tiny);
        assert_eq!(F16::from_f32(2.0f32.powi(-25)).to_f32(), 0.0);
        let sub = 3.0 * 2.0f32.powi(-24);
        let h = F16::from_f32(sub);
        assert_eq!(h.to_bits() & 0x7C00, 0, "subnormal: exponent field 0");
        assert_eq!(h.to_f32(), sub);
        // Largest subnormal.
        let max_sub = 1023.0 * 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(max_sub).to_f32(), max_sub);
    }

    #[test]
    fn nan_propagates_through_conversion() {
        let h = F16::from_f32(f32::NAN);
        assert!(h.is_nan());
        assert!(h.to_f32().is_nan());
    }

    #[test]
    fn fig7_examples() {
        // Fig. 7(a): flipping the highest exponent bit of a small value
        // produces an extremely large value: 0.5 has exponent 01110, which
        // flips to 11110 => huge finite value.
        let half = F16::from_f32(0.5);
        let flipped = half.flip_bit(14);
        assert!(flipped.to_f32().is_finite());
        assert!(flipped.to_f32() > 10_000.0);

        // Fig. 7(b): values in (1, 2) have exponent 01111; flipping the top
        // exponent bit yields 11111 with non-zero mantissa => NaN.
        let v = F16::from_f32(1.5);
        assert!(v.flip_bit(14).is_nan());
        let v = F16::from_f32(-1.25);
        assert!(v.flip_bit(14).is_nan());
        // Exactly 1.0 has a zero mantissa: the same flip gives infinity.
        assert!(F16::from_f32(1.0).flip_bit(14).is_infinite());
    }

    #[test]
    fn exhaustive_roundtrip_f16_f32_f16() {
        // Every one of the 65536 bit patterns of both formats must
        // round-trip through f32 bit-identically — including NaN payloads,
        // which fault injection relies on (flipping the same bit twice must
        // restore the pattern).
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            let back = F16::from_f32(h.to_f32());
            assert_eq!(back.to_bits(), bits, "roundtrip failed for {bits:#06x}");
            let b = Bf16::from_bits(bits);
            let back = Bf16::from_f32(b.to_f32());
            assert_eq!(
                back.to_bits(),
                bits,
                "bf16 roundtrip failed for {bits:#06x}"
            );
        }
    }

    #[test]
    fn roundtrip_simple() {
        for &v in &[0.0f32, 1.0, -1.0, 0.5, 2.0, 128.0, -65536.0] {
            assert_eq!(Bf16::from_f32(v).to_f32(), v);
        }
    }

    #[test]
    fn truncation_rounds_to_nearest_even() {
        // 1 + 2^-8 is halfway between 1.0 and 1 + 2^-7: ties-to-even keeps 1.0.
        let halfway = 1.0 + 2.0f32.powi(-8);
        assert_eq!(Bf16::from_f32(halfway).to_f32(), 1.0);
        let above = 1.0 + 2.0f32.powi(-8) + 2.0f32.powi(-16);
        assert_eq!(Bf16::from_f32(above).to_f32(), 1.0 + 2.0f32.powi(-7));
    }

    #[test]
    fn exponent_range_matches_f32() {
        // bf16 can represent 1e38 (f16 cannot).
        let big = Bf16::from_f32(1e38).to_f32();
        assert!(big.is_finite());
        assert!(big > 9.9e37);
        assert!(F16::from_f32(1e38).is_infinite());
    }

    #[test]
    fn nan_and_inf() {
        assert!(Bf16::from_f32(f32::NAN).is_nan());
        assert!(Bf16::from_f32(f32::INFINITY).is_infinite());
        assert!(Bf16::from_bits(0x7FC0).is_nan());
        assert!(!Bf16::from_bits(0x7FC0).to_f32().is_finite());
    }

    #[test]
    fn highest_exponent_bit_flip_makes_huge_or_nan() {
        // 1.5 in bf16 has exponent 0111_1111; flipping bit 14 gives
        // 1111_1111 => NaN (mantissa non-zero).
        let v = Bf16::from_f32(1.5);
        assert!(v.flip_bit(14).is_nan());
        // 0.5 has exponent 0111_1110 -> 1111_1110 => huge finite.
        let f = Bf16::from_f32(0.5).flip_bit(14).to_f32();
        assert!(f.is_finite());
        assert!(f > 1e37);
    }
}
