//! CRC-64 integrity checksums (ECMA-182 polynomial).
//!
//! The integrity layer checksums weight tiles and KV-cache rows with
//! CRC-64/ECMA (polynomial `0x42F0E1EBA9EA3693`). Because the polynomial's
//! constant term is 1, a CRC-64 detects **every** error burst of at most 64
//! bits — and a fault model that corrupts bits within one stored `f32`
//! element is a burst of at most 32 bits, so any single-element corruption
//! (single-bit, double-bit, or exponent flips, in any storage format) is
//! *guaranteed* to change the checksum. That is the soundness property the
//! scrubber and the KV guard rely on.
//!
//! Implemented slice-by-8: eight 256-entry tables, built at compile time,
//! fold one 8-byte word per step, so KV seals and tile scrubs run at
//! memory speed. The values are those of the plain bitwise definition
//! (init 0, no reflection, no final xor) — every stored seal, weight-tile
//! checksum and checkpoint fingerprint stays valid.

/// The CRC-64/ECMA-182 generator polynomial (normal representation).
pub const CRC64_ECMA_POLY: u64 = 0x42F0_E1EB_A9EA_3693;

/// Slice-by-8 tables for `CRC64_ECMA_POLY`: `TABLES[0][b]` is the CRC of
/// the byte `b`, and `TABLES[k][b]` that of `b` followed by `k` zero bytes.
const fn build_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut crc = (n as u64) << 56;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & (1 << 63) != 0 {
                (crc << 1) ^ CRC64_ECMA_POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        tables[0][n] = crc;
        n += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[k - 1][n];
            tables[k][n] = (prev << 8) ^ tables[0][(prev >> 56) as usize];
            n += 1;
        }
        k += 1;
    }
    tables
}

// A `static`, not a `const`: a `const` is a value, which an unoptimised
// build copies (16 KiB) at every lookup.
static TABLES: [[u64; 256]; 8] = build_tables();

/// Fold one byte into `crc`.
#[inline]
fn byte_step(crc: u64, b: u8) -> u64 {
    (crc << 8) ^ TABLES[0][((crc >> 56) as u8 ^ b) as usize]
}

/// Fold eight bytes into `crc`, given as the big-endian word of the bytes
/// in stream order.
#[inline]
fn word_step(crc: u64, word: u64) -> u64 {
    let x = (crc ^ word).to_be_bytes();
    TABLES[7][x[0] as usize]
        ^ TABLES[6][x[1] as usize]
        ^ TABLES[5][x[2] as usize]
        ^ TABLES[4][x[3] as usize]
        ^ TABLES[3][x[4] as usize]
        ^ TABLES[2][x[5] as usize]
        ^ TABLES[1][x[6] as usize]
        ^ TABLES[0][x[7] as usize]
}

/// CRC-64/ECMA of a byte slice (init 0, no reflection, no final xor).
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut crc = 0u64;
    for w in &mut words {
        crc = word_step(crc, u64::from_be_bytes(w.try_into().expect("8-byte chunk")));
    }
    words
        .remainder()
        .iter()
        .fold(crc, |crc, &b| byte_step(crc, b))
}

/// CRC-64/ECMA over the bit patterns of a slice of `f32` values
/// (little-endian byte order). Values are hashed by *representation*, so
/// `0.0` and `-0.0` — and distinct NaN payloads — checksum differently,
/// exactly what stored-state integrity needs. Two values make one 8-byte
/// word; an odd last value is folded byte by byte.
pub fn crc64_f32s(values: &[f32]) -> u64 {
    let mut pairs = values.chunks_exact(2);
    let mut crc = 0u64;
    for p in &mut pairs {
        let (a, b) = (p[0].to_bits().swap_bytes(), p[1].to_bits().swap_bytes());
        crc = word_step(crc, (a as u64) << 32 | b as u64);
    }
    pairs
        .remainder()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(crc, byte_step)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue check value of CRC-64/ECMA-182.
    #[test]
    fn known_answer() {
        assert_eq!(crc64(b"123456789"), 0x6C40_DF5F_0B49_7347);
    }

    #[test]
    fn empty_is_zero_and_deterministic() {
        assert_eq!(crc64(&[]), 0);
        let a = crc64(b"hello, world");
        let b = crc64(b"hello, world");
        assert_eq!(a, b);
        assert_ne!(a, crc64(b"hello, worle"));
    }

    #[test]
    fn single_bit_flips_always_change_the_crc() {
        let base = b"integrity scrubbing over weight tiles".to_vec();
        let c0 = crc64(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut m = base.clone();
                m[byte] ^= 1 << bit;
                assert_ne!(crc64(&m), c0, "undetected flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn f32_variant_matches_byte_variant() {
        let vals = [1.5f32, -0.25, 0.0, f32::INFINITY, 3.15625];
        let mut bytes = Vec::new();
        for v in &vals {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        assert_eq!(crc64_f32s(&vals), crc64(&bytes));
    }

    #[test]
    fn representation_sensitive() {
        // 0.0 and -0.0 compare equal as floats but have different bits; the
        // integrity layer must distinguish them.
        assert_ne!(crc64_f32s(&[0.0]), crc64_f32s(&[-0.0]));
    }
}
