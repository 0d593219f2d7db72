#![warn(missing_docs)]
//! # ft2-numeric
//!
//! Numeric foundations for the FT2 reproduction:
//!
//! * [`f16`] — the 16-bit storage formats from scratch, as one
//!   const-generic [`Float<EXP, MANT>`](Float): [`F16`] (IEEE-754 binary16)
//!   and [`Bf16`] (bfloat16, an extension beyond the paper's FP16 / FP32
//!   study). The fault models of the paper operate on the *bit patterns* of
//!   FP16 values (Fig. 7), so we need full control over the representation
//!   rather than a hardware type.
//! * [`bits`] — [`DType`], the one enum that knows a storage format: its
//!   bit layout, its rounding grid (a per-slice quantiser) and the bit-flip
//!   primitive every fault model uses; plus the *NaN-vulnerable interval*
//!   analysis of §4.1.1.
//! * [`crc`] — CRC-64/ECMA integrity checksums; the guarantee that any
//!   corruption confined to one stored element changes the checksum is what
//!   the weight scrubber and KV guard build on.
//! * [`rng`] — deterministic, counter-splittable random number generation
//!   (SplitMix64 + xoshiro256**). Campaign reproducibility across thread
//!   counts requires per-trial derivable streams, which stateful generators
//!   do not give us directly.
//! * [`stats`] — descriptive statistics, Welford accumulators, histograms and
//!   the binomial confidence intervals used to report SDC-rate error margins
//!   (§5.1 quotes ±0.00554% – ±0.368% at 95% confidence).

pub mod bits;
pub mod crc;
pub mod f16;
pub mod philox;
pub mod rng;
pub mod stats;

pub use bits::{is_nan_vulnerable, nan_vulnerable_fraction, DType};
pub use crc::{crc64, crc64_f32s};
pub use f16::{Bf16, Float, F16};
pub use philox::{philox4x32_10, Philox};
pub use rng::{Rng, SplitMix64, Xoshiro256StarStar};
pub use stats::{proportion_ci95, Histogram, OnlineStats};
