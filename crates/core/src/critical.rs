//! Critical-layer identification (§4.1).
//!
//! The heuristic (Take-away #5): a layer is critical iff no
//! magnitude-squashing op (scaling or activation) lies on the path from its
//! output to the next linear layer. This reproduces the second column of
//! Table 1 for both architecture families, and the structural analysis
//! costs nothing — no fault injection, no profiling run.

use ft2_model::{ArchGraph, ArchStyle, LayerKind, ModelConfig};

/// Is `kind` critical under the heuristic, for the given architecture?
pub fn is_critical(style: ArchStyle, kind: LayerKind) -> Option<bool> {
    let graph = ArchGraph::for_style(style);
    graph
        .path_after(kind)
        .map(|ops| !ops.iter().any(|op| op.squashes_magnitude()))
}

/// The critical layers of an architecture, in block execution order.
pub fn critical_layers(style: ArchStyle) -> Vec<LayerKind> {
    let graph = ArchGraph::for_style(style);
    graph
        .layers()
        .filter(|(_, ops)| !ops.iter().any(|op| op.squashes_magnitude()))
        .map(|(k, _)| k)
        .collect()
}

/// A full criticality report for a model, for Table 1 style output.
#[derive(Clone, Debug)]
pub struct CriticalityReport {
    /// `(layer, is_critical)` in block execution order.
    pub layers: Vec<(LayerKind, bool)>,
    /// The architecture analysed.
    pub style: ArchStyle,
}

impl CriticalityReport {
    /// Analyse a model configuration.
    pub fn analyse(config: &ModelConfig) -> CriticalityReport {
        let graph = ArchGraph::for_config(config);
        let layers = graph
            .layers()
            .map(|(k, ops)| (k, !ops.iter().any(|op| op.squashes_magnitude())))
            .collect();
        CriticalityReport {
            layers,
            style: config.style,
        }
    }

    /// Just the critical layer kinds.
    pub fn critical(&self) -> Vec<LayerKind> {
        self.layers
            .iter()
            .filter(|(_, c)| *c)
            .map(|(k, _)| *k)
            .collect()
    }

    /// Table 1 ground truth for the nine layer kinds (Y/N column).
    /// `None` for kinds absent from the analysed architecture.
    pub fn table1_expectation(kind: LayerKind) -> bool {
        use LayerKind::*;
        match kind {
            KProj | QProj | Fc1 | GateProj => false,
            VProj | OutProj | Fc2 | UpProj | DownProj => true,
        }
    }

    /// Does this report agree with Table 1 on every layer it contains?
    pub fn matches_table1(&self) -> bool {
        self.layers
            .iter()
            .all(|(k, c)| *c == Self::table1_expectation(*k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_critical_set_matches_table1() {
        let crit = critical_layers(ArchStyle::OptStyle);
        assert_eq!(
            crit,
            vec![LayerKind::VProj, LayerKind::OutProj, LayerKind::Fc2]
        );
    }

    #[test]
    fn llama_critical_set_matches_table1() {
        let crit = critical_layers(ArchStyle::LlamaStyle);
        assert_eq!(
            crit,
            vec![
                LayerKind::VProj,
                LayerKind::OutProj,
                LayerKind::UpProj,
                LayerKind::DownProj
            ]
        );
    }

    #[test]
    fn non_critical_layers_are_correct() {
        assert_eq!(
            is_critical(ArchStyle::OptStyle, LayerKind::KProj),
            Some(false)
        );
        assert_eq!(
            is_critical(ArchStyle::OptStyle, LayerKind::QProj),
            Some(false)
        );
        assert_eq!(
            is_critical(ArchStyle::OptStyle, LayerKind::Fc1),
            Some(false)
        );
        assert_eq!(
            is_critical(ArchStyle::LlamaStyle, LayerKind::GateProj),
            Some(false)
        );
        // UP_PROJ is the subtle one: followed only by an elementwise mul.
        assert_eq!(
            is_critical(ArchStyle::LlamaStyle, LayerKind::UpProj),
            Some(true)
        );
        // Absent layers yield None.
        assert_eq!(is_critical(ArchStyle::OptStyle, LayerKind::UpProj), None);
        assert_eq!(is_critical(ArchStyle::LlamaStyle, LayerKind::Fc1), None);
    }

    #[test]
    fn reports_match_table1_for_both_families() {
        for config in [
            ft2_model::ModelConfig::tiny_opt(),
            ft2_model::ModelConfig::tiny_llama(),
        ] {
            let report = CriticalityReport::analyse(&config);
            assert!(report.matches_table1(), "mismatch for {}", config.name);
        }
    }

    #[test]
    fn all_zoo_models_match_table1() {
        for spec in ft2_model::model_zoo() {
            let report = CriticalityReport::analyse(&spec.config);
            assert!(report.matches_table1(), "mismatch for {}", spec.name());
        }
    }
}
