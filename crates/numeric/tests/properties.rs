//! Property-based tests for the numeric foundations.

use ft2_numeric::{
    crc64, crc64_f32s, is_nan_vulnerable, Bf16, DType, OnlineStats, Rng, SplitMix64,
    Xoshiro256StarStar, F16,
};
use proptest::prelude::*;

/// CRC-64/ECMA-182 the slow way: one nibble per step through a 16-entry
/// table, the definition the slice-by-8 tables must reproduce.
fn nibble_crc64(bytes: &[u8]) -> u64 {
    const POLY: u64 = 0x42F0_E1EB_A9EA_3693;
    let table: Vec<u64> = (0..16u64)
        .map(|n| {
            (0..4).fold(n << 60, |crc, _| {
                if crc & (1 << 63) != 0 {
                    (crc << 1) ^ POLY
                } else {
                    crc << 1
                }
            })
        })
        .collect();
    let mut crc = 0u64;
    for &b in bytes {
        crc = (crc << 4) ^ table[((crc >> 60) ^ (b >> 4) as u64) as usize & 0xF];
        crc = (crc << 4) ^ table[((crc >> 60) ^ (b & 0xF) as u64) as usize & 0xF];
    }
    crc
}

/// An `f32` bit pattern that is, about half the time, one of the values a
/// checksum must tell apart from its neighbours: ±0.0 or a NaN payload.
fn stored_f32() -> impl Strategy<Value = f32> {
    (0u8..6, any::<u32>()).prop_map(|(kind, bits)| match kind {
        0 => -0.0,
        1 => 0.0,
        // Quiet or signalling NaN with an arbitrary sign and payload.
        2 => f32::from_bits(0x7F80_0000 | (bits & 0x8000_0000) | (bits & 0x007F_FFFF).max(1)),
        _ => f32::from_bits(bits),
    })
}

proptest! {
    /// f32 -> f16 -> f32 is idempotent (second conversion changes nothing).
    #[test]
    fn f16_conversion_idempotent(v in -1e6f32..1e6f32) {
        let once = F16::from_f32(v).to_f32();
        let twice = F16::from_f32(once).to_f32();
        prop_assert_eq!(once.to_bits(), twice.to_bits());
    }

    /// f16(v) is always within half a ULP-ish relative error of v for values
    /// in the normal range.
    #[test]
    fn f16_rounding_error_bounded(v in 6.2e-5f32..6.0e4f32) {
        let h = F16::from_f32(v).to_f32();
        let rel = ((h - v) / v).abs();
        // Half ULP of binary16 normals: 2^-11.
        prop_assert!(rel <= 2.0f32.powi(-11) + 1e-9, "v={v} h={h} rel={rel}");
    }

    /// Sign symmetry: conversion commutes with negation.
    #[test]
    fn f16_sign_symmetric(v in -6.0e4f32..6.0e4f32) {
        let a = F16::from_f32(-v).to_bits();
        let b = F16::from_f32(v).flip_bit(15).to_bits();
        prop_assert_eq!(a, b);
    }

    /// Ordering of finite f16 values agrees with f32 ordering.
    #[test]
    fn f16_order_preserved(a in -6e4f32..6e4f32, b in -6e4f32..6e4f32) {
        let (ha, hb) = (F16::from_f32(a), F16::from_f32(b));
        if ha.to_f32() < hb.to_f32() {
            prop_assert!(a < b);
        }
    }

    /// bf16 round-trip is idempotent.
    #[test]
    fn bf16_conversion_idempotent(v in -1e30f32..1e30f32) {
        let once = Bf16::from_f32(v).to_f32();
        let twice = Bf16::from_f32(once).to_f32();
        prop_assert_eq!(once.to_bits(), twice.to_bits());
    }

    /// Flipping the same bit twice at the representation level is an exact
    /// involution (xor on the stored u16).
    #[test]
    fn flip_is_involution_in_storage(v in -6e4f32..6e4f32, bit in 0u32..16) {
        let stored = F16::from_f32(v);
        prop_assert_eq!(stored.flip_bit(bit).flip_bit(bit).to_bits(), stored.to_bits());
        // At the f32-carrier level, a round-trip restores the value whenever
        // the intermediate is not a NaN (NaN payloads canonicalise — fine for
        // fault injection, which corrupts a value exactly once).
        let once = DType::F16.flip(stored.to_f32(), &[bit]);
        if !once.is_nan() {
            let twice = DType::F16.flip(once, &[bit]);
            prop_assert_eq!(F16::from_f32(twice).to_bits(), stored.to_bits());
        }
    }

    /// A double flip equals two sequential flips at the representation level.
    #[test]
    fn double_flip_composes(v in -6e4f32..6e4f32, a in 0u32..16, b in 0u32..16) {
        prop_assume!(a != b);
        let stored = F16::from_f32(v);
        let both = stored.flip_bit(a).flip_bit(b);
        let mask = F16::from_bits(stored.to_bits() ^ (1 << a) ^ (1 << b));
        prop_assert_eq!(both.to_bits(), mask.to_bits());
        // And the format-level helper agrees whenever no NaN canonicalisation
        // is involved.
        let helper = DType::F16.flip(stored.to_f32(), &[a, b]);
        if !helper.is_nan() && !both.is_nan() {
            prop_assert_eq!(F16::from_f32(helper).to_bits(), both.to_bits());
        }
    }

    /// NaN-vulnerability matches the paper's interval characterisation for
    /// values representable in f16: vulnerable iff |v| in (1,2) after
    /// quantisation, excluding exact 1.0 (powers of two give infinity).
    #[test]
    fn nan_vulnerable_iff_in_interval(v in -10.0f32..10.0) {
        let q = F16::from_f32(v);
        let mag = q.to_f32().abs();
        let in_interval = mag > 1.0 && mag < 2.0;
        prop_assert_eq!(is_nan_vulnerable(q.to_f32(), DType::F16), in_interval);
    }

    /// below(n) stays in range for arbitrary seeds and n.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut rng = Xoshiro256StarStar::new(seed);
        for _ in 0..32 {
            prop_assert!(rng.below(n) < n);
        }
    }

    /// Stream derivation: different paths give different streams.
    #[test]
    fn rng_streams_differ(seed in any::<u64>(), a in 0u64..1000, b in 0u64..1000) {
        prop_assume!(a != b);
        let mut ra = Xoshiro256StarStar::for_stream(seed, &[a]);
        let mut rb = Xoshiro256StarStar::for_stream(seed, &[b]);
        let va: Vec<u64> = (0..4).map(|_| ra.next_u64()).collect();
        let vb: Vec<u64> = (0..4).map(|_| rb.next_u64()).collect();
        prop_assert_ne!(va, vb);
    }

    /// SplitMix64::mix is injective on sampled pairs (it is a bijection).
    #[test]
    fn splitmix_mix_injective(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        prop_assert_ne!(SplitMix64::mix(a), SplitMix64::mix(b));
    }

    /// Welford merge is equivalent to sequential accumulation at any split.
    #[test]
    fn online_stats_merge_assoc(data in prop::collection::vec(-1e3f64..1e3, 1..64), split in 0usize..64) {
        let split = split.min(data.len());
        let mut whole = OnlineStats::new();
        for &x in &data { whole.push(x); }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &data[..split] { left.push(x); }
        for &x in &data[split..] { right.push(x); }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-9);
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-6);
    }

    /// The slice-by-8 CRC equals the nibble-table definition on byte
    /// slices of every length below 300, starting at every alignment.
    #[test]
    fn crc64_matches_the_nibble_oracle(bytes in prop::collection::vec(any::<u8>(), 0..308)) {
        for offset in 0..8.min(bytes.len() + 1) {
            let tail = &bytes[offset..];
            let slice = &tail[..tail.len().min(299)];
            prop_assert_eq!(crc64(slice), nibble_crc64(slice), "len {} offset {offset}", slice.len());
        }
    }

    /// `crc64_f32s` equals the oracle over the values' little-endian bytes,
    /// at odd and even lengths, and tells -0.0 and NaN payloads apart.
    #[test]
    fn crc64_f32s_matches_the_nibble_oracle(values in prop::collection::vec(stored_f32(), 1..70)) {
        for len in [values.len(), values.len() - 1] {
            let vals = &values[..len];
            let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
            prop_assert_eq!(crc64_f32s(vals), nibble_crc64(&bytes), "len {len}");
            prop_assert_eq!(crc64_f32s(vals), crc64(&bytes));
        }
    }
}
