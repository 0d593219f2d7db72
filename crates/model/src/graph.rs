//! The architecture op-graph: what happens to a linear layer's output
//! before the *next* linear layer consumes it.
//!
//! This is the input to the paper's criticality heuristic (§4.1.2):
//!
//! > a layer is deemed critical if no scaling operation or activation layer
//! > is present before the next linear layer.
//!
//! We model the path from each linear layer's output to the next linear
//! layer as a list of [`OpClass`] values. The classification is purely
//! structural — derived from [`ArchStyle`] — and requires no execution,
//! which is exactly the property the paper exploits to avoid profiling.

use crate::config::{ArchStyle, LayerKind, ModelConfig};

/// Classes of operation that can appear between two linear layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Multiplication by a constant < 1 (the `1/sqrt(d_k)` attention-score
    /// scale). Reduces the magnitude of faulty values.
    Scale,
    /// Row-wise softmax: output bounded in [0, 1] regardless of input
    /// magnitude. The strongest magnitude squasher.
    Softmax,
    /// Elementwise activation (ReLU/GELU/SiLU): kills large negative values
    /// and bounds the derivative path of large positives through the gate.
    Activation,
    /// Attention-weighted sum of value vectors (convex combination over
    /// positions).
    WeightedSum,
    /// Elementwise product with another branch (gated MLP).
    Mul,
    /// Residual addition from a branch that bypassed this layer.
    Residual,
    /// Layer/RMS normalisation.
    Norm,
}

impl OpClass {
    /// Does this op *reduce the magnitude* of extreme faulty values in the
    /// sense of the paper's heuristic? Only true scaling operations and
    /// activation layers qualify; residual adds, norms, weighted sums and
    /// elementwise products do not (a huge value survives all of them).
    pub const fn squashes_magnitude(self) -> bool {
        matches!(
            self,
            OpClass::Scale | OpClass::Softmax | OpClass::Activation
        )
    }
}

/// The per-layer op paths of one architecture.
#[derive(Clone, Debug)]
pub struct ArchGraph {
    style: ArchStyle,
    paths: Vec<(LayerKind, Vec<OpClass>)>,
}

impl ArchGraph {
    /// Build the op-graph for an architecture style.
    pub fn for_style(style: ArchStyle) -> ArchGraph {
        use LayerKind::*;
        use OpClass::*;
        let paths: Vec<(LayerKind, Vec<OpClass>)> = match style {
            ArchStyle::OptStyle => vec![
                // K/Q feed the attention-score computation: scores are
                // scaled by 1/sqrt(d_k) then softmaxed.
                (KProj, vec![Scale, Softmax]),
                (QProj, vec![Scale, Softmax]),
                // V is combined by attention weights (a convex combination —
                // no magnitude reduction for a single huge element in the
                // attended row) and then hits OUT_PROJ.
                (VProj, vec![WeightedSum]),
                // OUT_PROJ output goes through residual add and the next
                // norm before FC1.
                (OutProj, vec![Residual, Norm]),
                // FC1 feeds the activation.
                (Fc1, vec![Activation]),
                // FC2 output: residual + norm, then next block's K/Q/V.
                (Fc2, vec![Residual, Norm]),
            ],
            ArchStyle::LlamaStyle => vec![
                (KProj, vec![Scale, Softmax]),
                (QProj, vec![Scale, Softmax]),
                (VProj, vec![WeightedSum]),
                (OutProj, vec![Residual, Norm]),
                // GATE goes through the activation before the elementwise
                // product with UP.
                (GateProj, vec![Activation, Mul]),
                // UP is multiplied by the activated gate — an elementwise
                // product does NOT squash a huge faulty value (the gate is
                // O(1) on average), so UP_PROJ remains critical. This is the
                // Table 1 distinction MaxiMals misses.
                (UpProj, vec![Mul]),
                (DownProj, vec![Residual, Norm]),
            ],
        };
        ArchGraph { style, paths }
    }

    /// Build the op-graph for a model configuration.
    pub fn for_config(config: &ModelConfig) -> ArchGraph {
        Self::for_style(config.style)
    }

    /// The architecture style this graph describes.
    pub fn style(&self) -> ArchStyle {
        self.style
    }

    /// The ops on the path from `kind`'s output to the next linear layer,
    /// or `None` if the layer does not exist in this architecture.
    pub fn path_after(&self, kind: LayerKind) -> Option<&[OpClass]> {
        self.paths
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, p)| p.as_slice())
    }

    /// All layers with their paths, in block execution order.
    pub fn layers(&self) -> impl Iterator<Item = (LayerKind, &[OpClass])> {
        self.paths.iter().map(|(k, p)| (*k, p.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_graph_paths() {
        let g = ArchGraph::for_style(ArchStyle::OptStyle);
        assert_eq!(
            g.path_after(LayerKind::KProj).unwrap(),
            &[OpClass::Scale, OpClass::Softmax]
        );
        assert_eq!(
            g.path_after(LayerKind::Fc1).unwrap(),
            &[OpClass::Activation]
        );
        assert_eq!(
            g.path_after(LayerKind::Fc2).unwrap(),
            &[OpClass::Residual, OpClass::Norm]
        );
        assert!(g.path_after(LayerKind::GateProj).is_none());
    }

    #[test]
    fn llama_graph_paths() {
        let g = ArchGraph::for_style(ArchStyle::LlamaStyle);
        assert_eq!(
            g.path_after(LayerKind::GateProj).unwrap(),
            &[OpClass::Activation, OpClass::Mul]
        );
        assert_eq!(g.path_after(LayerKind::UpProj).unwrap(), &[OpClass::Mul]);
        assert!(g.path_after(LayerKind::Fc1).is_none());
        assert_eq!(g.layers().count(), 7);
    }

    #[test]
    fn squash_classification() {
        assert!(OpClass::Scale.squashes_magnitude());
        assert!(OpClass::Softmax.squashes_magnitude());
        assert!(OpClass::Activation.squashes_magnitude());
        assert!(!OpClass::Residual.squashes_magnitude());
        assert!(!OpClass::Norm.squashes_magnitude());
        assert!(!OpClass::Mul.squashes_magnitude());
        assert!(!OpClass::WeightedSum.squashes_magnitude());
    }
}
