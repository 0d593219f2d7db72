//! Exhaustive proof of the 16-bit storage formats.
//!
//! Tier-1 half: a table of boundary cases per alias (signed zeros, binary32
//! subnormals, every subnormal/normal boundary, the round-to-∞ edges, ties,
//! a mantissa carry into the exponent, every NaN class) and a pinned digest
//! of `to_f32` over all 2^16 patterns. The exact `to_f32` → `from_f32`
//! round trip of all 2^16 patterns of both aliases is a unit test in
//! `src/f16.rs`.
//!
//! Release half, `#[ignore]`d because it converts 2^33 values
//! (`scripts/verify.sh` runs it with `cargo test --release -- --ignored`):
//! a digest of `from_f32` over every `f32` bit pattern, per alias.
//!
//! The pinned digests were computed with these same bodies against the
//! separate hand-written `F16` and `Bf16` types of commit c86a9dd, which
//! the const-generic `Float<EXP, MANT>` replaced: equal digests make the
//! replacement bit-identical on every input.

use ft2_numeric::{Bf16, F16};

const SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Order-sensitive multiply-xor fold, one multiply per element.
fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Digest of `to_f32` over all 2^16 patterns, in pattern order.
fn widen_digest(to_f32: impl Fn(u16) -> f32) -> u64 {
    (0..=u16::MAX).fold(SEED, |h, b| fold(h, to_f32(b).to_bits() as u64))
}

/// Digest of `from_f32` over all 2^32 `f32` patterns: 64 chunks in
/// pattern order, folded on worker threads, their digests folded in chunk
/// order — so the result does not depend on the thread count.
fn narrow_digest(from_f32: impl Fn(f32) -> u16 + Sync) -> u64 {
    const CHUNKS: u64 = 64;
    const PER: u64 = (1 << 32) / CHUNKS;
    let chunk = |c: u64| {
        (c * PER..(c + 1) * PER).fold(SEED, |h, i| {
            fold(h, from_f32(f32::from_bits(i as u32)) as u64)
        })
    };
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8);
    let mut digests = vec![0; CHUNKS as usize];
    std::thread::scope(|s| {
        let chunk = &chunk;
        let handles: Vec<_> = (0..workers as u64)
            .map(|w| {
                s.spawn(move || {
                    (w..CHUNKS)
                        .step_by(workers)
                        .map(|c| (c, chunk(c)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (c, d) in handle.join().unwrap() {
                digests[c as usize] = d;
            }
        }
    });
    digests.into_iter().fold(SEED, fold)
}

// Computed by `widen_digest` / `narrow_digest` above on commit c86a9dd,
// whose `F16` and `Bf16` were two hand-written types.
const F16_WIDEN_DIGEST: u64 = 0x98BD_C6A5_EF78_A325;
const BF16_WIDEN_DIGEST: u64 = 0x2BF3_EF1E_AAB6_2325;
const F16_NARROW_DIGEST: u64 = 0x4CB1_E5D3_F77E_E1ED;
const BF16_NARROW_DIGEST: u64 = 0xBB3B_8717_AD89_D425;

/// `(f32 input bits, expected binary16 bits)`.
const F16_CASES: &[(u32, u16)] = &[
    // Signed zeros.
    (0x0000_0000, 0x0000),
    (0x8000_0000, 0x8000),
    // binary32 subnormals and the smallest binary32 normal flush to ±0.
    (0x0000_0001, 0x0000),
    (0x8000_0001, 0x8000),
    (0x007F_FFFF, 0x0000),
    (0x0080_0000, 0x0000),
    // The smallest subnormal 2^-24; the tie 2^-25 below it rounds to even
    // (zero), anything above the tie rounds up to it.
    (0x3380_0000, 0x0001),
    (0x3300_0000, 0x0000),
    (0xB300_0000, 0x8000),
    (0x3300_0001, 0x0001),
    (0x3340_0000, 0x0001),
    // 1.5 × 2^-24 ties between the first two subnormals: even wins.
    (0x33C0_0000, 0x0002),
    // The largest subnormal, just below and at the tie with 2^-14, and the
    // smallest normal: the subnormal/normal boundary.
    (0x387F_C000, 0x03FF),
    (0x387F_DFFF, 0x03FF),
    (0x387F_E000, 0x0400),
    (0x3880_0000, 0x0400),
    (0xB880_0000, 0x8400),
    // Ties to even in the normal range: 1 + 2^-11 stays 1, 1 + 3·2^-11
    // goes up to 1 + 2^-9.
    (0x3F80_1000, 0x3C00),
    (0x3F80_3000, 0x3C02),
    // Mantissa carry into the exponent: 2 - 2^-11 ties up to 2.0.
    (0x3FFF_F000, 0x4000),
    // Round-to-∞ edges: 65 504 is MAX, 65 519.996 rounds down to it, the
    // tie 65 520 rounds up to ∞ (the carry runs out of exponent).
    (0x477F_E000, 0x7BFF),
    (0x477F_EFFF, 0x7BFF),
    (0x477F_F000, 0x7C00),
    (0xC77F_F000, 0xFC00),
    (0x7F7F_FFFF, 0x7C00),
    (0x7F80_0000, 0x7C00),
    (0xFF80_0000, 0xFC00),
    // NaNs: quiet, signalling, payload truncated to zero (the top mantissa
    // bit is set), full payloads, both signs.
    (0x7FC0_0000, 0x7E00),
    (0xFFC0_0000, 0xFE00),
    (0x7FA0_0000, 0x7D00),
    (0x7F80_2000, 0x7C01),
    (0x7F80_0001, 0x7E00),
    (0xFF80_1FFF, 0xFE00),
    (0x7FFF_FFFF, 0x7FFF),
    (0xFFFF_E000, 0xFFFF),
];

/// `(f32 input bits, expected bfloat16 bits)`.
const BF16_CASES: &[(u32, u16)] = &[
    // Signed zeros.
    (0x0000_0000, 0x0000),
    (0x8000_0000, 0x8000),
    // binary32 subnormals become bfloat16 subnormals: the smallest one is
    // 2^-133, its half 2^-134 ties to even (zero), 1.5 ulp ties up to 2.
    (0x0000_0001, 0x0000),
    (0x0000_8000, 0x0000),
    (0x0000_8001, 0x0001),
    (0x0001_0000, 0x0001),
    (0x8001_0000, 0x8001),
    (0x0001_8000, 0x0002),
    // The largest subnormal, the tie above it, and the smallest normal.
    (0x007F_7FFF, 0x007F),
    (0x007F_8000, 0x0080),
    (0x007F_FFFF, 0x0080),
    (0x0080_0000, 0x0080),
    (0x8080_0000, 0x8080),
    // Ties to even: 1 + 2^-8 stays 1, 1 + 3·2^-8 goes up.
    (0x3F80_8000, 0x3F80),
    (0x3F81_8000, 0x3F82),
    // Mantissa carry into the exponent: 2 - 2^-8 ties up to 2.0.
    (0x3FFF_8000, 0x4000),
    // Round-to-∞ edges: bfloat16 MAX, the tie above it, f32::MAX.
    (0x7F7F_7FFF, 0x7F7F),
    (0x7F7F_8000, 0x7F80),
    (0x7F7F_FFFF, 0x7F80),
    (0xFF7F_FFFF, 0xFF80),
    (0x7F80_0000, 0x7F80),
    (0xFF80_0000, 0xFF80),
    // NaNs: truncated, never rounded — quiet, signalling, payload
    // truncated to zero, full payloads, both signs.
    (0x7FC0_0000, 0x7FC0),
    (0xFFC0_0000, 0xFFC0),
    (0x7FA0_0000, 0x7FA0),
    (0x7F81_0000, 0x7F81),
    (0x7F80_0001, 0x7FC0),
    (0xFF80_FFFF, 0xFFC0),
    (0x7FFF_FFFF, 0x7FFF),
    (0xFFFF_FFFF, 0xFFFF),
];

fn check_table(name: &str, cases: &[(u32, u16)], from_f32: impl Fn(f32) -> u16) {
    for &(input, want) in cases {
        let got = from_f32(f32::from_bits(input));
        assert_eq!(
            got, want,
            "{name}: from_f32({input:#010x}) = {got:#06x}, want {want:#06x}"
        );
    }
}

#[test]
fn f16_boundary_table() {
    check_table("F16", F16_CASES, |v| F16::from_f32(v).to_bits());
}

#[test]
fn bf16_boundary_table() {
    check_table("Bf16", BF16_CASES, |v| Bf16::from_f32(v).to_bits());
}

#[test]
fn to_f32_digests_match_the_replaced_types() {
    assert_eq!(
        widen_digest(|b| F16::from_bits(b).to_f32()),
        F16_WIDEN_DIGEST
    );
    assert_eq!(
        widen_digest(|b| Bf16::from_bits(b).to_f32()),
        BF16_WIDEN_DIGEST
    );
}

#[test]
#[ignore = "2^33 conversions: run with --release -- --ignored"]
fn from_f32_digests_over_all_f32_match_the_replaced_types() {
    assert_eq!(
        narrow_digest(|v| F16::from_f32(v).to_bits()),
        F16_NARROW_DIGEST
    );
    assert_eq!(
        narrow_digest(|v| Bf16::from_f32(v).to_bits()),
        BF16_NARROW_DIGEST
    );
}
