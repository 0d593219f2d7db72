//! Protection schemes: FT2 and the published baselines, with exactly the
//! Table 1 coverage sets.
//!
//! | Scheme         | Coverage                              | Bounds       |
//! |----------------|---------------------------------------|--------------|
//! | Ranger         | MLP activation outputs only           | offline      |
//! | MaxiMals       | OUT_PROJ, FC2, DOWN_PROJ              | offline      |
//! | Global Clipper | V_PROJ, OUT_PROJ                      | offline      |
//! | FT2            | all critical layers (heuristic)       | first token  |
//! | FT2-offline    | all critical layers (heuristic)       | offline      |
//!
//! Two extension schemes support the ablation benches: `Ft2ClipToZero`
//! (FT2 coverage/bounds but the CNN-era zero correction — quantifies
//! Take-away #8) and `FullProtection` (every linear layer — quantifies the
//! "nearly 2× overhead" the paper cites for naive full coverage).

use crate::critical::critical_layers;
use crate::integrity::IntegrityConfig;
use crate::profile::OfflineBounds;
use crate::protect::{Correction, Coverage, NanPolicy, Protector};
use ft2_fault::ProtectionFactory;
use ft2_model::{ArchStyle, LayerKind, LayerTap, ModelConfig, StateTap};
use std::sync::Arc;

/// Default FT2 bound scale factor (§4.2.1: set to 2 "for easy and faster
/// calculation"; Fig. 9 shows insensitivity).
pub const FT2_DEFAULT_SCALE: f32 = 2.0;

/// Bound scale applied to the *offline*-profiled bounds of the baselines.
/// MaxiMals introduced bound scaling (§4.2.1 credits it), and every
/// deployed range-restriction scheme widens profiled bounds to cover
/// profiling-split sampling error; without it a finite profiling split
/// occasionally clips benign activations of the evaluation split.
pub const OFFLINE_BOUND_SCALE: f32 = 1.75;

/// The protection schemes of the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No protection at all.
    NoProtection,
    /// Ranger [12]: clips only MLP activation outputs.
    Ranger,
    /// MaxiMals [57]: protects attention-block and MLP outputs
    /// (OUT_PROJ, FC2, DOWN_PROJ) — misses V_PROJ and UP_PROJ.
    MaxiMals,
    /// Global Clipper [60]: protects attention linear outputs
    /// (V_PROJ, OUT_PROJ) — misses all MLP critical layers.
    GlobalClipper,
    /// FT2 with online first-token bounds (the paper's contribution).
    Ft2,
    /// FT2 coverage with offline-profiled bounds (upper-bound comparison).
    Ft2Offline,
    /// Ablation: FT2 coverage and bounds, but out-of-bound values are
    /// zeroed instead of clamped to the bound.
    Ft2ClipToZero,
    /// Ablation: online protection of *every* block linear layer.
    FullProtection,
}

impl Scheme {
    /// The schemes of the paper's main comparison (Fig. 13 order).
    pub const PAPER_SET: [Scheme; 6] = [
        Scheme::NoProtection,
        Scheme::Ranger,
        Scheme::MaxiMals,
        Scheme::GlobalClipper,
        Scheme::Ft2Offline,
        Scheme::Ft2,
    ];

    /// Display name matching the paper's legends.
    pub const fn name(self) -> &'static str {
        match self {
            Scheme::NoProtection => "No Protection",
            Scheme::Ranger => "Ranger",
            Scheme::MaxiMals => "MaxiMals",
            Scheme::GlobalClipper => "Global Clipper",
            Scheme::Ft2 => "FT2",
            Scheme::Ft2Offline => "FT2-offline",
            Scheme::Ft2ClipToZero => "FT2-clip0",
            Scheme::FullProtection => "Full Protection",
        }
    }

    /// Does this scheme need offline-profiled bounds?
    pub const fn needs_offline_bounds(self) -> bool {
        matches!(
            self,
            Scheme::Ranger | Scheme::MaxiMals | Scheme::GlobalClipper | Scheme::Ft2Offline
        )
    }

    /// The hook coverage of this scheme for a given architecture.
    pub fn coverage(self, style: ArchStyle) -> Coverage {
        match self {
            Scheme::NoProtection => Coverage::linears(Vec::new()),
            Scheme::Ranger => Coverage::activations_only(),
            Scheme::MaxiMals => Coverage::linears(vec![
                LayerKind::OutProj,
                LayerKind::Fc2,
                LayerKind::DownProj,
            ]),
            Scheme::GlobalClipper => Coverage::linears(vec![LayerKind::VProj, LayerKind::OutProj]),
            Scheme::Ft2 | Scheme::Ft2Offline | Scheme::Ft2ClipToZero => {
                Coverage::linears(critical_layers(style))
            }
            Scheme::FullProtection => Coverage::linears(LayerKind::for_style(style).to_vec()),
        }
    }

    /// Which linear layers of Table 1 this scheme marks as protected
    /// (for rendering the Table 1 coverage matrix).
    pub fn covers_linear(self, style: ArchStyle, kind: LayerKind) -> bool {
        self.coverage(style).linear.contains(&kind)
    }
}

/// A [`ProtectionFactory`] producing fresh [`Protector`] taps per trial.
pub struct SchemeFactory {
    scheme: Scheme,
    style: ArchStyle,
    offline: Option<Arc<OfflineBounds>>,
    scale: f32,
    storm_threshold: Option<u64>,
    integrity: IntegrityConfig,
    label: String,
}

impl SchemeFactory {
    /// Build a factory for a scheme. `offline` must be provided for the
    /// offline-bounds schemes (panics otherwise at `make` time).
    pub fn new(
        scheme: Scheme,
        config: &ModelConfig,
        offline: Option<Arc<OfflineBounds>>,
    ) -> SchemeFactory {
        assert!(
            !scheme.needs_offline_bounds() || offline.is_some(),
            "{} requires offline bounds",
            scheme.name()
        );
        SchemeFactory {
            scheme,
            style: config.style,
            offline,
            scale: FT2_DEFAULT_SCALE,
            storm_threshold: None,
            integrity: IntegrityConfig::disabled(),
            label: scheme.name().to_string(),
        }
    }

    /// FT2 with a custom bound scale factor (the Fig. 9 sweep). A scale
    /// other than [`FT2_DEFAULT_SCALE`] is part of the name (`FT2@1.25`),
    /// so each scale gets its own campaign fingerprint.
    pub fn ft2_with_scale(config: &ModelConfig, scale: f32) -> SchemeFactory {
        SchemeFactory {
            scheme: Scheme::Ft2,
            style: config.style,
            offline: None,
            scale,
            storm_threshold: None,
            integrity: IntegrityConfig::disabled(),
            label: if scale == FT2_DEFAULT_SCALE {
                Scheme::Ft2.name().to_string()
            } else {
                format!("{}@{scale}", Scheme::Ft2.name())
            },
        }
    }

    /// Attach a stored-state integrity layer (weight scrubbing and/or a
    /// KV-cache guard) to every produced tap set. The reported scheme name
    /// gains a suffix (e.g. `FT2+scrub8+kvguard`) so campaign fingerprints
    /// distinguish integrity configurations.
    pub fn with_integrity(mut self, integrity: IntegrityConfig) -> SchemeFactory {
        self.label = format!("{}{}", self.label, integrity.label_suffix());
        self.integrity = integrity;
        self
    }

    /// Override the per-step storm threshold of every produced protector
    /// (the `FT2_STORM_THRESHOLD` knob; `None` keeps the default).
    pub fn with_storm_threshold(mut self, threshold: Option<u64>) -> SchemeFactory {
        self.storm_threshold = threshold;
        self
    }

    /// The scheme this factory produces.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    fn tuned(&self, p: Protector) -> Protector {
        match self.storm_threshold {
            Some(t) => p.with_storm_threshold(t),
            None => p,
        }
    }
}

impl ProtectionFactory for SchemeFactory {
    fn make(&self) -> Vec<Box<dyn LayerTap>> {
        let coverage = self.scheme.coverage(self.style);
        match self.scheme {
            Scheme::NoProtection => Vec::new(),
            Scheme::Ranger => {
                let offline = self.offline.as_ref().expect("Ranger needs offline bounds");
                vec![Box::new(self.tuned(Protector::offline(
                    coverage,
                    offline.activations.scaled(OFFLINE_BOUND_SCALE),
                    Correction::ClampToBound,
                    NanPolicy::ToZero,
                )))]
            }
            Scheme::MaxiMals | Scheme::GlobalClipper | Scheme::Ft2Offline => {
                let offline = self
                    .offline
                    .as_ref()
                    .unwrap_or_else(|| panic!("{} needs offline bounds", self.scheme.name()));
                vec![Box::new(self.tuned(Protector::offline(
                    coverage,
                    offline.linear.scaled(OFFLINE_BOUND_SCALE),
                    Correction::ClampToBound,
                    NanPolicy::ToZero,
                )))]
            }
            Scheme::Ft2 | Scheme::FullProtection => {
                vec![Box::new(
                    self.tuned(Protector::ft2_online(coverage, self.scale)),
                )]
            }
            Scheme::Ft2ClipToZero => {
                let p = Protector::ft2_online(coverage, self.scale)
                    .with_correction(Correction::ClipToZero);
                vec![Box::new(self.tuned(p))]
            }
        }
    }

    fn make_state(&self) -> Vec<Box<dyn StateTap>> {
        self.integrity.make_state()
    }

    fn scheme_name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft2_model::ModelConfig;

    #[test]
    fn table1_coverage_matrix() {
        use LayerKind::*;
        let style = ArchStyle::LlamaStyle;
        // Ranger: no linear layers.
        for k in LayerKind::ALL {
            assert!(!Scheme::Ranger.covers_linear(style, k));
        }
        // MaxiMals: OUT, FC2, DOWN but not V or UP.
        assert!(Scheme::MaxiMals.covers_linear(style, OutProj));
        assert!(Scheme::MaxiMals.covers_linear(style, DownProj));
        assert!(!Scheme::MaxiMals.covers_linear(style, VProj));
        assert!(!Scheme::MaxiMals.covers_linear(style, UpProj));
        // Global Clipper: V and OUT only.
        assert!(Scheme::GlobalClipper.covers_linear(style, VProj));
        assert!(Scheme::GlobalClipper.covers_linear(style, OutProj));
        assert!(!Scheme::GlobalClipper.covers_linear(style, DownProj));
        // FT2: all critical layers of the architecture.
        for k in [VProj, OutProj, UpProj, DownProj] {
            assert!(Scheme::Ft2.covers_linear(style, k));
        }
        for k in [KProj, QProj, GateProj] {
            assert!(!Scheme::Ft2.covers_linear(style, k));
        }
        // OPT style: FT2 covers FC2 but not FC1.
        assert!(Scheme::Ft2.covers_linear(ArchStyle::OptStyle, Fc2));
        assert!(!Scheme::Ft2.covers_linear(ArchStyle::OptStyle, Fc1));
    }

    #[test]
    fn factory_produces_taps_per_scheme() {
        let config = ModelConfig::tiny_opt();
        let none = SchemeFactory::new(Scheme::NoProtection, &config, None);
        assert!(none.make().is_empty());
        let ft2 = SchemeFactory::new(Scheme::Ft2, &config, None);
        assert_eq!(ft2.make().len(), 1);
        assert_eq!(ft2.scheme_name(), "FT2");
    }

    #[test]
    fn each_bound_scale_has_its_own_scheme_name() {
        let config = ModelConfig::tiny_opt();
        let name = |scale| {
            SchemeFactory::ft2_with_scale(&config, scale)
                .scheme_name()
                .to_string()
        };
        assert_eq!(name(FT2_DEFAULT_SCALE), "FT2");
        assert_eq!(name(1.25), "FT2@1.25");
        assert_ne!(name(1.0), name(1.5));
        let repair = SchemeFactory::ft2_with_scale(&config, 3.0).with_integrity(IntegrityConfig {
            scrub_tiles_per_step: 0,
            kv_guard: true,
            checksums: None,
        });
        assert_eq!(repair.scheme_name(), "FT2@3+kvguard");
    }

    #[test]
    #[should_panic]
    fn offline_scheme_without_bounds_panics() {
        let config = ModelConfig::tiny_opt();
        let _ = SchemeFactory::new(Scheme::MaxiMals, &config, None);
    }

    #[test]
    fn paper_set_order() {
        let names: Vec<&str> = Scheme::PAPER_SET.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "No Protection",
                "Ranger",
                "MaxiMals",
                "Global Clipper",
                "FT2-offline",
                "FT2"
            ]
        );
    }
}
