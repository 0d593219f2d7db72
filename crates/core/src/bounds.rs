//! Per-layer value bounds for range restriction, plus the architectural
//! priors that guard bound integrity against a poisoned profiling pass.

use ft2_model::{LayerKind, TapPoint};
use std::collections::BTreeMap;

/// Largest |value| a healthy layer of this kind plausibly produces on the
/// simulator, with a wide safety margin. Calibrated against offline profiles
/// of every zoo model (worst observed |bound| ≈ 6.5; the MLP expansion
/// layers feeding the activation are the widest). A profiled bound beyond
/// this cap can only come from a fault during profiling.
pub fn prior_cap(kind: LayerKind) -> f32 {
    match kind {
        LayerKind::Fc1 | LayerKind::GateProj => 64.0,
        _ => 32.0,
    }
}

/// The static fallback bound for a layer kind, used when a profiled bound
/// fails [`LayerBounds::is_sane`]. Deliberately loose — it restores *some*
/// upper/lower check (catching exponent-scale excursions) without risking
/// clamping legitimate values.
pub fn static_prior(kind: LayerKind) -> LayerBounds {
    let cap = prior_cap(kind);
    LayerBounds { lo: -cap, hi: cap }
}

/// The `[lo, hi]` bound of one protected layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LayerBounds {
    /// Lower bound.
    pub lo: f32,
    /// Upper bound.
    pub hi: f32,
}

impl LayerBounds {
    /// An empty (inverted) bound that any observation will widen.
    pub fn empty() -> LayerBounds {
        LayerBounds {
            lo: f32::INFINITY,
            hi: f32::NEG_INFINITY,
        }
    }

    /// Widen to include `v`. Non-finite values are ignored — they are
    /// corrected, not learned: a NaN or ±Inf admitted here would become a
    /// permanent bound endpoint that disables the range check forever.
    #[inline]
    pub fn observe(&mut self, v: f32) {
        if !v.is_finite() {
            return;
        }
        if v < self.lo {
            self.lo = v;
        }
        if v > self.hi {
            self.hi = v;
        }
    }

    /// Has at least one value been observed?
    pub fn is_initialised(&self) -> bool {
        self.lo <= self.hi
    }

    /// Widen the bound outward by `scale` (≥ 1): each endpoint moves away
    /// from zero by the factor (§4.2.1's bound scaling, default 2×).
    pub fn scaled(&self, scale: f32) -> LayerBounds {
        debug_assert!(scale >= 1.0);
        let widen = |v: f32| {
            if v >= 0.0 {
                // Positive endpoints: hi moves up, lo (if positive) moves
                // toward zero to stay conservative on the outside only.
                v * scale
            } else {
                v * scale
            }
        };
        // Both endpoints move away from zero; a positive lo is relaxed
        // toward zero instead (dividing by scale) so the interval only ever
        // grows.
        let lo = if self.lo >= 0.0 {
            self.lo / scale
        } else {
            widen(self.lo)
        };
        let hi = if self.hi <= 0.0 {
            self.hi / scale
        } else {
            widen(self.hi)
        };
        LayerBounds { lo, hi }
    }

    /// Clamp a value into the bound (used by `Correction::ClampToBound`).
    ///
    /// NaN maps to `hi`: `f32::min`/`max` return the non-NaN operand, so the
    /// result is always inside `[lo, hi]` and never NaN. The detection path
    /// (`Protector::correct`) additionally rewrites NaN to 0 *before* ever
    /// calling this, so in-pipeline clamps only see finite values.
    #[inline]
    #[allow(
        clippy::disallowed_methods,
        reason = "NaN→hi is in-bounds by min/max semantics; the detection path \
                  zeroes NaN upstream in Protector::correct"
    )]
    pub fn clamp(&self, v: f32) -> f32 {
        v.min(self.hi).max(self.lo)
    }

    /// Is `v` inside `[lo, hi]`? NaN is never inside.
    #[inline]
    pub fn contains(&self, v: f32) -> bool {
        v >= self.lo && v <= self.hi
    }

    /// Does this bound look like the product of a clean profiling pass for
    /// a layer of `kind`? Requires: initialised, both endpoints finite,
    /// not inverted, and both magnitudes under the architectural prior cap.
    pub fn is_sane(&self, kind: LayerKind) -> bool {
        let cap = prior_cap(kind);
        self.lo.is_finite()
            && self.hi.is_finite()
            && self.lo <= self.hi
            && self.lo.abs() <= cap
            && self.hi.abs() <= cap
    }
}

/// Bounds for a set of protected layers.
#[derive(Clone, Debug, Default)]
pub struct BoundsStore {
    map: BTreeMap<TapPoint, LayerBounds>,
}

impl BoundsStore {
    /// Empty store.
    pub fn new() -> BoundsStore {
        BoundsStore::default()
    }

    /// Bounds for a layer, if recorded.
    pub fn get(&self, point: &TapPoint) -> Option<&LayerBounds> {
        self.map.get(point)
    }

    /// Record/widen the bounds of a layer with a batch of observations.
    pub fn observe_all(&mut self, point: TapPoint, values: &[f32]) {
        let b = self.map.entry(point).or_insert_with(LayerBounds::empty);
        for &v in values {
            b.observe(v);
        }
    }

    /// Set the bounds of a layer explicitly.
    pub fn set(&mut self, point: TapPoint, bounds: LayerBounds) {
        self.map.insert(point, bounds);
    }

    /// Number of layers with bounds.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no layer has bounds.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Return a copy with every bound widened by `scale`.
    pub fn scaled(&self, scale: f32) -> BoundsStore {
        BoundsStore {
            map: self
                .map
                .iter()
                .map(|(k, v)| (*k, v.scaled(scale)))
                .collect(),
        }
    }

    /// Merge another store, widening overlapping bounds.
    pub fn merge(&mut self, other: &BoundsStore) {
        for (k, v) in &other.map {
            let b = self.map.entry(*k).or_insert_with(LayerBounds::empty);
            b.observe(v.lo);
            b.observe(v.hi);
        }
    }

    /// Validate every bound against the architectural prior of its layer
    /// kind and replace insane ones with [`static_prior`]. Returns how many
    /// bounds were repaired. Run after any profiling pass whose inputs may
    /// have been faulted (the online first-token pass in particular) so a
    /// corrupted observation cannot silently disable protection.
    pub fn enforce_integrity(&mut self) -> usize {
        let mut repaired = 0;
        for (point, b) in self.map.iter_mut() {
            if !b.is_sane(point.layer) {
                *b = static_prior(point.layer);
                repaired += 1;
            }
        }
        repaired
    }

    /// Memory footprint of the stored bounds in bytes (two f32 per layer —
    /// the paper's §5.2.2 reports 288–512 B for 72–128 protected layers).
    pub fn memory_bytes(&self) -> usize {
        self.map.len() * 2 * std::mem::size_of::<f32>()
    }

    /// Iterate over `(point, bounds)`.
    pub fn iter(&self) -> impl Iterator<Item = (&TapPoint, &LayerBounds)> {
        self.map.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft2_model::LayerKind;

    fn point(block: usize) -> TapPoint {
        TapPoint {
            block,
            layer: LayerKind::VProj,
        }
    }

    #[test]
    fn observe_widens() {
        let mut b = LayerBounds::empty();
        assert!(!b.is_initialised());
        b.observe(1.0);
        b.observe(-2.0);
        b.observe(f32::NAN); // ignored
        b.observe(0.5);
        assert!(b.is_initialised());
        assert_eq!(b.lo, -2.0);
        assert_eq!(b.hi, 1.0);
    }

    #[test]
    fn scaling_always_grows_the_interval() {
        let b = LayerBounds { lo: -2.0, hi: 3.0 };
        let s = b.scaled(2.0);
        assert_eq!(s.lo, -4.0);
        assert_eq!(s.hi, 6.0);
        // All-positive interval: lo relaxes toward zero.
        let b = LayerBounds { lo: 0.5, hi: 3.0 };
        let s = b.scaled(2.0);
        assert_eq!(s.lo, 0.25);
        assert_eq!(s.hi, 6.0);
        // All-negative interval.
        let b = LayerBounds { lo: -3.0, hi: -0.5 };
        let s = b.scaled(2.0);
        assert_eq!(s.lo, -6.0);
        assert_eq!(s.hi, -0.25);
        // Every original point remains inside.
        assert!(s.contains(-3.0) && s.contains(-0.5));
    }

    #[test]
    fn clamp_and_contains() {
        let b = LayerBounds { lo: -1.0, hi: 2.0 };
        assert_eq!(b.clamp(5.0), 2.0);
        assert_eq!(b.clamp(-5.0), -1.0);
        assert_eq!(b.clamp(0.5), 0.5);
        assert!(b.contains(0.0));
        assert!(!b.contains(2.1));
        assert!(!b.contains(f32::NAN));
        // Clamping a NaN through min/max: NaN.min(hi) propagates... make the
        // behaviour explicit: f32::min(NaN, x) == x in Rust, so the result
        // is within bounds.
        let c = b.clamp(f32::NAN);
        assert!(!c.is_nan());
    }

    #[test]
    fn clamp_never_returns_nan_or_escapes_bounds() {
        // Regression for the NaN-swallowing min/max pattern: `v.min(hi)`
        // with v = NaN returns `hi` (f32::min keeps the non-NaN operand),
        // so clamp must map every non-finite input to an in-bounds finite
        // value — never propagate NaN into the residual stream.
        let b = LayerBounds { lo: -1.0, hi: 2.0 };
        for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1.0e30] {
            let c = b.clamp(v);
            assert!(!c.is_nan(), "clamp({v}) produced NaN");
            assert!(b.contains(c), "clamp({v}) = {c} escaped [{}, {}]", b.lo, b.hi);
        }
        assert_eq!(b.clamp(f32::NAN), b.hi);
    }

    #[test]
    fn store_roundtrip_and_memory() {
        let mut s = BoundsStore::new();
        s.observe_all(point(0), &[1.0, -1.0, 0.2]);
        s.observe_all(point(1), &[3.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(&point(0)).unwrap().hi, 1.0);
        assert_eq!(s.memory_bytes(), 16);
        let scaled = s.scaled(2.0);
        assert_eq!(scaled.get(&point(0)).unwrap().hi, 2.0);
    }

    #[test]
    fn observe_ignores_infinities() {
        // Regression: an Inf observed during profiling used to become a
        // permanent `hi = inf` bound, disabling the upper check forever.
        let mut b = LayerBounds::empty();
        b.observe(f32::INFINITY);
        b.observe(f32::NEG_INFINITY);
        assert!(!b.is_initialised());
        b.observe(1.0);
        b.observe(-2.0);
        b.observe(f32::INFINITY);
        b.observe(f32::NEG_INFINITY);
        assert_eq!(b.lo, -2.0);
        assert_eq!(b.hi, 1.0);
        // The upper-bound check still works after seeing an Inf.
        assert!(!b.contains(1.5));
        assert_eq!(b.clamp(f32::INFINITY), 1.0);
    }

    #[test]
    fn sanity_check_rejects_poisoned_bounds() {
        let kind = LayerKind::VProj;
        assert!(LayerBounds { lo: -2.0, hi: 3.0 }.is_sane(kind));
        // Uninitialised / inverted.
        assert!(!LayerBounds::empty().is_sane(kind));
        // Non-finite endpoint.
        assert!(!LayerBounds { lo: -1.0, hi: f32::INFINITY }.is_sane(kind));
        assert!(!LayerBounds { lo: f32::NAN, hi: 1.0 }.is_sane(kind));
        // Magnitude beyond the architectural prior.
        assert!(!LayerBounds { lo: -1.0, hi: 1.0e6 }.is_sane(kind));
        // The wide MLP kinds get a wider cap.
        assert!(LayerBounds { lo: -50.0, hi: 50.0 }.is_sane(LayerKind::Fc1));
        assert!(!LayerBounds { lo: -50.0, hi: 50.0 }.is_sane(LayerKind::VProj));
    }

    #[test]
    fn enforce_integrity_repairs_only_insane_bounds() {
        let mut s = BoundsStore::new();
        let good = LayerBounds { lo: -1.5, hi: 2.5 };
        s.set(point(0), good);
        s.set(point(1), LayerBounds { lo: -1.0, hi: 1.0e8 }); // poisoned
        let repaired = s.enforce_integrity();
        assert_eq!(repaired, 1);
        assert_eq!(*s.get(&point(0)).unwrap(), good);
        let fixed = s.get(&point(1)).unwrap();
        assert_eq!(*fixed, static_prior(LayerKind::VProj));
        // The repaired bound still catches exponent-scale excursions.
        assert!(!fixed.contains(1.0e4));
        // Running again repairs nothing.
        assert_eq!(s.enforce_integrity(), 0);
    }

    #[test]
    fn merge_widens() {
        let mut a = BoundsStore::new();
        a.set(point(0), LayerBounds { lo: -1.0, hi: 1.0 });
        let mut b = BoundsStore::new();
        b.set(point(0), LayerBounds { lo: -3.0, hi: 0.5 });
        b.set(point(1), LayerBounds { lo: 0.0, hi: 2.0 });
        a.merge(&b);
        assert_eq!(a.get(&point(0)).unwrap().lo, -3.0);
        assert_eq!(a.get(&point(0)).unwrap().hi, 1.0);
        assert_eq!(a.len(), 2);
    }
}
