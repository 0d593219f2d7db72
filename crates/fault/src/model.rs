//! The three fault models of §2.2, plus the fault-duration and fault-target
//! dimensions that extend the paper's transient activation faults to
//! persistent stored-state corruption (weights, KV-cache).

use ft2_numeric::{DType, Rng};

/// Which bits of a stored value a fault corrupts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// *1-bit*: one uniformly random bit of the representation flips.
    SingleBit,
    /// *2-bit*: two distinct uniformly random bits flip.
    DoubleBit,
    /// *EXP*: one uniformly random **exponent** bit flips — the paper's most
    /// aggressive model, since exponent corruption changes magnitude
    /// multiplicatively.
    ExponentBit,
}

impl FaultModel {
    /// All three fault models, in the paper's reporting order.
    pub const ALL: [FaultModel; 3] = [
        FaultModel::SingleBit,
        FaultModel::DoubleBit,
        FaultModel::ExponentBit,
    ];

    /// Display name used in figures ("1-bit", "2-bit", "EXP").
    pub const fn name(self) -> &'static str {
        match self {
            FaultModel::SingleBit => "1-bit",
            FaultModel::DoubleBit => "2-bit",
            FaultModel::ExponentBit => "EXP",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<FaultModel> {
        match s.to_ascii_lowercase().as_str() {
            "1-bit" | "1bit" | "single" | "single-bit" => Some(FaultModel::SingleBit),
            "2-bit" | "2bit" | "double" | "double-bit" => Some(FaultModel::DoubleBit),
            "exp" | "exponent" => Some(FaultModel::ExponentBit),
            _ => None,
        }
    }

    /// Sample the bit positions to flip for a value stored in `format`.
    pub fn sample_bits(self, rng: &mut impl Rng, format: DType) -> Vec<u32> {
        let total = format.total_bits() as u64;
        match self {
            FaultModel::SingleBit => vec![rng.below(total) as u32],
            FaultModel::DoubleBit => {
                let a = rng.below(total) as u32;
                let mut b = rng.below(total - 1) as u32;
                if b >= a {
                    b += 1; // distinct without rejection
                }
                vec![a, b]
            }
            FaultModel::ExponentBit => {
                let (lo, hi) = format.exponent_bits();
                vec![lo + rng.below((hi - lo + 1) as u64) as u32]
            }
        }
    }
}

/// How long an injected fault endures.
///
/// The paper (and PR 2's rollback) assume [`FaultDuration::Transient`]: the
/// corruption exists for exactly one step, so re-decoding the token after a
/// KV-snapshot rollback re-computes clean state. Stored-state corruption
/// (DRAM/SRAM stuck bits, uncorrected ECC escapes) instead *persists* across
/// steps — re-decoding re-reads the same flipped bits, which is the regime
/// the integrity scrubber and repair path exist for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultDuration {
    /// The corruption exists for one step only (the paper's model).
    Transient,
    /// The corruption re-appears every `period` steps (e.g. a marginal cell
    /// that flips under a recurring access pattern). `period == 1` corrupts
    /// every step.
    Intermittent {
        /// Steps between recurrences of the corruption (>= 1).
        period: usize,
    },
    /// The corruption endures from the strike step until explicitly
    /// repaired — rollback alone cannot mask it.
    Persistent,
}

impl FaultDuration {
    /// The durations in reporting order (intermittent shown at period 4).
    pub const ALL: [FaultDuration; 3] = [
        FaultDuration::Transient,
        FaultDuration::Intermittent { period: 4 },
        FaultDuration::Persistent,
    ];

    /// Display name used in reports.
    pub const fn name(self) -> &'static str {
        match self {
            FaultDuration::Transient => "transient",
            FaultDuration::Intermittent { .. } => "intermittent",
            FaultDuration::Persistent => "persistent",
        }
    }

    /// Parse a CLI name: `transient`, `persistent`, `intermittent`
    /// (period 4) or `intermittent:N`.
    pub fn parse(s: &str) -> Option<FaultDuration> {
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "transient" => return Some(FaultDuration::Transient),
            "persistent" => return Some(FaultDuration::Persistent),
            "intermittent" => return Some(FaultDuration::Intermittent { period: 4 }),
            _ => {}
        }
        if let Some(p) = lower.strip_prefix("intermittent:") {
            let period: usize = p.parse().ok()?;
            if period >= 1 {
                return Some(FaultDuration::Intermittent { period });
            }
        }
        None
    }

    /// Does a fault struck at `strike` corrupt state during `step`?
    /// (`Transient` corrupts only the strike step; `Persistent` every step
    /// from the strike on; `Intermittent` every `period`-th step from the
    /// strike.)
    pub fn active_at(self, strike: usize, step: usize) -> bool {
        if step < strike {
            return false;
        }
        match self {
            FaultDuration::Transient => step == strike,
            // ft2: nan-ok (usize period floor, no floats)
            FaultDuration::Intermittent { period } => (step - strike).is_multiple_of(period.max(1)),
            FaultDuration::Persistent => true,
        }
    }
}

/// Which stored tensor class a fault strikes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// A linear-layer output (the paper's model): computation-path state
    /// that is rebuilt every forward pass.
    Activation,
    /// A weight-matrix element: read by every subsequent forward pass until
    /// repaired from the golden copy.
    Weight,
    /// A cached K/V row element: re-read by attention at every subsequent
    /// step until the poisoned page is invalidated and re-decoded.
    KvCache,
}

impl FaultTarget {
    /// The targets in reporting order.
    pub const ALL: [FaultTarget; 3] = [
        FaultTarget::Activation,
        FaultTarget::Weight,
        FaultTarget::KvCache,
    ];

    /// Display name used in reports.
    pub const fn name(self) -> &'static str {
        match self {
            FaultTarget::Activation => "activation",
            FaultTarget::Weight => "weight",
            FaultTarget::KvCache => "kv-cache",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<FaultTarget> {
        match s.to_ascii_lowercase().as_str() {
            "activation" | "act" => Some(FaultTarget::Activation),
            "weight" | "weights" => Some(FaultTarget::Weight),
            "kv-cache" | "kvcache" | "kv" => Some(FaultTarget::KvCache),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft2_numeric::Xoshiro256StarStar;

    #[test]
    fn names_and_parse_roundtrip() {
        for m in FaultModel::ALL {
            assert_eq!(FaultModel::parse(m.name()), Some(m));
        }
        assert_eq!(FaultModel::parse("EXP"), Some(FaultModel::ExponentBit));
        assert_eq!(FaultModel::parse("3-bit"), None);
    }

    #[test]
    fn duration_parse_and_names() {
        assert_eq!(
            FaultDuration::parse("transient"),
            Some(FaultDuration::Transient)
        );
        assert_eq!(
            FaultDuration::parse("Persistent"),
            Some(FaultDuration::Persistent)
        );
        assert_eq!(
            FaultDuration::parse("intermittent"),
            Some(FaultDuration::Intermittent { period: 4 })
        );
        assert_eq!(
            FaultDuration::parse("intermittent:7"),
            Some(FaultDuration::Intermittent { period: 7 })
        );
        assert_eq!(FaultDuration::parse("intermittent:0"), None);
        assert_eq!(FaultDuration::parse("forever"), None);
        for d in FaultDuration::ALL {
            assert!(FaultDuration::parse(d.name()).is_some());
        }
    }

    #[test]
    fn duration_activity_schedule() {
        let t = FaultDuration::Transient;
        assert!(t.active_at(3, 3));
        assert!(!t.active_at(3, 4));
        assert!(!t.active_at(3, 2));

        let p = FaultDuration::Persistent;
        assert!(!p.active_at(3, 2));
        assert!(p.active_at(3, 3));
        assert!(p.active_at(3, 100));

        let i = FaultDuration::Intermittent { period: 3 };
        assert!(i.active_at(2, 2));
        assert!(!i.active_at(2, 3));
        assert!(!i.active_at(2, 4));
        assert!(i.active_at(2, 5));
        assert!(i.active_at(2, 8));
    }

    #[test]
    fn target_parse_roundtrip() {
        for t in FaultTarget::ALL {
            assert_eq!(FaultTarget::parse(t.name()), Some(t));
        }
        assert_eq!(FaultTarget::parse("kv"), Some(FaultTarget::KvCache));
        assert_eq!(FaultTarget::parse("dram"), None);
    }

    #[test]
    fn single_bit_covers_all_positions() {
        let mut rng = Xoshiro256StarStar::new(1);
        let mut seen = [false; 16];
        for _ in 0..2000 {
            let bits = FaultModel::SingleBit.sample_bits(&mut rng, DType::F16);
            assert_eq!(bits.len(), 1);
            assert!(bits[0] < 16);
            seen[bits[0] as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn double_bit_gives_distinct_bits() {
        let mut rng = Xoshiro256StarStar::new(2);
        for _ in 0..2000 {
            let bits = FaultModel::DoubleBit.sample_bits(&mut rng, DType::F16);
            assert_eq!(bits.len(), 2);
            assert_ne!(bits[0], bits[1]);
            assert!(bits.iter().all(|&b| b < 16));
        }
    }

    #[test]
    fn exp_bits_stay_in_exponent_range() {
        let mut rng = Xoshiro256StarStar::new(3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..2000 {
            let bits = FaultModel::ExponentBit.sample_bits(&mut rng, DType::F16);
            assert_eq!(bits.len(), 1);
            assert!((10..=14).contains(&bits[0]), "bit {}", bits[0]);
            seen.insert(bits[0]);
        }
        assert_eq!(seen.len(), 5);
        // f32 exponent range.
        for _ in 0..200 {
            let bits = FaultModel::ExponentBit.sample_bits(&mut rng, DType::F32);
            assert!((23..=30).contains(&bits[0]));
        }
    }
}
