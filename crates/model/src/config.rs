//! Model configuration and layer taxonomy.

use ft2_tensor::DType;

/// The two decoder-block families of Fig. 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArchStyle {
    /// Fig. 1(a): LayerNorm, learned positions, `FC1 → act → FC2` MLP.
    OptStyle,
    /// Fig. 1(b): RMSNorm, rotary positions, gated `GATE/UP → DOWN` MLP.
    LlamaStyle,
}

/// Normalisation used at block boundaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NormKind {
    /// Mean/variance LayerNorm with affine parameters.
    LayerNorm,
    /// Scale-only RMSNorm.
    RmsNorm,
}

/// MLP activation function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Rectified linear unit (OPT).
    Relu,
    /// Gaussian error linear unit, tanh approximation (GPT-J).
    Gelu,
    /// Sigmoid-weighted linear unit (Llama/Vicuna/Qwen).
    Silu,
}

/// The linear layers of a decoder block — the fault-injection and
/// protection targets of the paper (Table 1 rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LayerKind {
    /// Key projection.
    KProj,
    /// Query projection.
    QProj,
    /// Value projection.
    VProj,
    /// Attention output projection.
    OutProj,
    /// First MLP linear (OPT-style).
    Fc1,
    /// Second MLP linear (OPT-style).
    Fc2,
    /// Gate projection (Llama-style gated MLP).
    GateProj,
    /// Up projection (Llama-style gated MLP).
    UpProj,
    /// Down projection (Llama-style gated MLP).
    DownProj,
}

impl LayerKind {
    /// Uppercase display name matching the paper's figures.
    pub const fn name(self) -> &'static str {
        match self {
            LayerKind::KProj => "K_PROJ",
            LayerKind::QProj => "Q_PROJ",
            LayerKind::VProj => "V_PROJ",
            LayerKind::OutProj => "OUT_PROJ",
            LayerKind::Fc1 => "FC1",
            LayerKind::Fc2 => "FC2",
            LayerKind::GateProj => "GATE_PROJ",
            LayerKind::UpProj => "UP_PROJ",
            LayerKind::DownProj => "DOWN_PROJ",
        }
    }

    /// The layer kinds present in each architecture style, in execution
    /// order within a block.
    pub fn for_style(style: ArchStyle) -> &'static [LayerKind] {
        match style {
            ArchStyle::OptStyle => &[
                LayerKind::KProj,
                LayerKind::QProj,
                LayerKind::VProj,
                LayerKind::OutProj,
                LayerKind::Fc1,
                LayerKind::Fc2,
            ],
            ArchStyle::LlamaStyle => &[
                LayerKind::KProj,
                LayerKind::QProj,
                LayerKind::VProj,
                LayerKind::OutProj,
                LayerKind::GateProj,
                LayerKind::UpProj,
                LayerKind::DownProj,
            ],
        }
    }

    /// All nine layer kinds (Table 1 rows).
    pub const ALL: [LayerKind; 9] = [
        LayerKind::KProj,
        LayerKind::QProj,
        LayerKind::VProj,
        LayerKind::OutProj,
        LayerKind::Fc1,
        LayerKind::Fc2,
        LayerKind::GateProj,
        LayerKind::UpProj,
        LayerKind::DownProj,
    ];
}

/// Full configuration of a simulator model.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Human-readable name, e.g. `"OPT-6.7B-sim"`.
    pub name: String,
    /// Decoder-block family.
    pub style: ArchStyle,
    /// Hidden (embedding) dimension.
    pub hidden: usize,
    /// Number of attention heads (`hidden % heads == 0`).
    pub heads: usize,
    /// Number of decoder blocks.
    pub blocks: usize,
    /// MLP intermediate dimension.
    pub ffn: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Maximum sequence length (prompt + generated).
    pub max_seq: usize,
    /// MLP activation.
    pub activation: Activation,
    /// Block-boundary normalisation.
    pub norm: NormKind,
    /// Whether linear layers carry bias terms (OPT does, Llama does not).
    pub bias: bool,
    /// Storage precision of weights and layer outputs.
    pub dtype: DType,
    /// Weight-initialisation seed; two models with different seeds are
    /// different "pretrained checkpoints".
    pub seed: u64,
    /// Parameter count of the *paper-scale* model this config stands in for
    /// (used by `ft2-hw` for timing estimates at the published scale).
    pub paper_params: f64,
}

impl ModelConfig {
    /// Per-head dimension.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// Check the structural invariants the engine relies on. Called by
    /// `Model::new`, so a misconfigured zoo entry fails loudly at
    /// construction instead of silently misbehaving (e.g. `apply_rope`
    /// used to drop the last lane of an odd `head_dim` without a word).
    pub fn validate(&self) -> Result<(), String> {
        if self.hidden == 0 || self.blocks == 0 || self.ffn == 0 || self.vocab == 0 {
            return Err(format!(
                "{}: all dimensions must be nonzero (hidden={}, blocks={}, ffn={}, vocab={})",
                self.name, self.hidden, self.blocks, self.ffn, self.vocab
            ));
        }
        if self.heads == 0 || !self.hidden.is_multiple_of(self.heads) {
            return Err(format!(
                "{}: hidden ({}) must be divisible by heads ({})",
                self.name, self.hidden, self.heads
            ));
        }
        if self.max_seq == 0 {
            return Err(format!("{}: max_seq must be nonzero", self.name));
        }
        if self.style == ArchStyle::LlamaStyle && !self.head_dim().is_multiple_of(2) {
            return Err(format!(
                "{}: rotary embeddings need an even head_dim, got {}",
                self.name,
                self.head_dim()
            ));
        }
        Ok(())
    }

    /// The linear layer kinds a block of this model contains.
    pub fn block_layers(&self) -> &'static [LayerKind] {
        LayerKind::for_style(self.style)
    }

    /// Output feature count of a given linear layer.
    pub fn out_features(&self, kind: LayerKind) -> usize {
        match kind {
            LayerKind::KProj
            | LayerKind::QProj
            | LayerKind::VProj
            | LayerKind::OutProj
            | LayerKind::Fc2
            | LayerKind::DownProj => self.hidden,
            LayerKind::Fc1 | LayerKind::GateProj | LayerKind::UpProj => self.ffn,
        }
    }

    /// Input feature count of a given linear layer.
    pub fn in_features(&self, kind: LayerKind) -> usize {
        match kind {
            LayerKind::Fc2 | LayerKind::DownProj => self.ffn,
            _ => self.hidden,
        }
    }

    /// Total protected-layer count if every block-linear layer is covered
    /// (the paper's "72–128 protected layers" bookkeeping in §5.2.2).
    pub fn total_block_linears(&self) -> usize {
        self.blocks * self.block_layers().len()
    }

    /// Actual parameter count of the simulator model.
    pub fn sim_params(&self) -> usize {
        let per_block: usize = self
            .block_layers()
            .iter()
            .map(|&k| {
                self.in_features(k) * self.out_features(k)
                    + if self.bias { self.out_features(k) } else { 0 }
            })
            .sum();
        let embeddings = self.vocab * self.hidden
            + if self.style == ArchStyle::OptStyle {
                self.max_seq * self.hidden
            } else {
                0
            };
        let head = self.vocab * self.hidden;
        embeddings + self.blocks * per_block + head
    }

    /// A small but fully functional test configuration.
    pub fn tiny_opt() -> ModelConfig {
        ModelConfig {
            name: "tiny-opt".into(),
            style: ArchStyle::OptStyle,
            hidden: 32,
            heads: 4,
            blocks: 2,
            ffn: 128,
            vocab: 96,
            max_seq: 64,
            activation: Activation::Relu,
            norm: NormKind::LayerNorm,
            bias: true,
            dtype: DType::F16,
            seed: 0xF72,
            paper_params: 6.66e9,
        }
    }

    /// A small Llama-style test configuration.
    pub fn tiny_llama() -> ModelConfig {
        ModelConfig {
            name: "tiny-llama".into(),
            style: ArchStyle::LlamaStyle,
            hidden: 32,
            heads: 4,
            blocks: 2,
            ffn: 96,
            vocab: 96,
            max_seq: 64,
            activation: Activation::Silu,
            norm: NormKind::RmsNorm,
            bias: false,
            dtype: DType::F16,
            seed: 0x11A,
            paper_params: 6.74e9,
        }
    }
}

/// Precomputed rotary-embedding angles for every `(position, pair)` of a
/// model: `sin`/`cos` of `pos · 10000^(−2i/head_dim)` for positions
/// `0..max_seq` and pairs `0..head_dim/2`.
///
/// The table entries are produced by the *identical* float expression the
/// on-the-fly [`crate::attention::apply_rope`] evaluates, so table-driven
/// RoPE is bit-for-bit equal to the recomputing path — it just removes a
/// `powf` + `sin_cos` per element from every decode step.
#[derive(Clone, Debug)]
pub struct RopeTable {
    half: usize,
    sin: Vec<f32>,
    cos: Vec<f32>,
}

impl RopeTable {
    /// Build the table for a model (positions `0..config.max_seq`).
    pub fn build(config: &ModelConfig) -> RopeTable {
        let head_dim = config.head_dim();
        assert!(
            head_dim.is_multiple_of(2),
            "rotary embeddings need an even head_dim"
        );
        let half = head_dim / 2;
        let positions = config.max_seq;
        let mut sin = Vec::with_capacity(positions * half);
        let mut cos = Vec::with_capacity(positions * half);
        for pos in 0..positions {
            for i in 0..half {
                // Must match apply_rope's expression exactly for the
                // bit-identity contract above.
                let theta = pos as f32 * 10_000f32.powf(-2.0 * i as f32 / head_dim as f32);
                let (s, c) = theta.sin_cos();
                sin.push(s);
                cos.push(c);
            }
        }
        RopeTable { half, sin, cos }
    }

    /// Number of rotation pairs per head (`head_dim / 2`).
    pub fn half(&self) -> usize {
        self.half
    }

    /// The `(sin, cos)` slices for one absolute position, `half` entries
    /// each. Panics past `max_seq` (the engine rejects such sequences).
    pub fn at(&self, pos: usize) -> (&[f32], &[f32]) {
        let lo = pos * self.half;
        let hi = lo + self.half;
        (&self.sin[lo..hi], &self.cos[lo..hi])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_sets_per_style() {
        let opt = LayerKind::for_style(ArchStyle::OptStyle);
        assert_eq!(opt.len(), 6);
        assert!(opt.contains(&LayerKind::Fc1));
        assert!(!opt.contains(&LayerKind::GateProj));
        let llama = LayerKind::for_style(ArchStyle::LlamaStyle);
        assert_eq!(llama.len(), 7);
        assert!(llama.contains(&LayerKind::UpProj));
        assert!(!llama.contains(&LayerKind::Fc1));
    }

    #[test]
    fn feature_shapes() {
        let c = ModelConfig::tiny_opt();
        assert_eq!(c.head_dim(), 8);
        assert_eq!(c.in_features(LayerKind::Fc1), 32);
        assert_eq!(c.out_features(LayerKind::Fc1), 128);
        assert_eq!(c.in_features(LayerKind::Fc2), 128);
        assert_eq!(c.out_features(LayerKind::Fc2), 32);
        assert_eq!(c.total_block_linears(), 12);

        let l = ModelConfig::tiny_llama();
        assert_eq!(l.in_features(LayerKind::DownProj), 96);
        assert_eq!(l.out_features(LayerKind::UpProj), 96);
        assert_eq!(l.total_block_linears(), 14);
    }

    #[test]
    fn sim_params_counts_everything() {
        let c = ModelConfig::tiny_opt();
        // embeddings: 96*32 + 64*32; head: 96*32
        // per block: k,q,v,out: 32*32+32 each; fc1: 32*128+128; fc2: 128*32+32
        let per_block = 4 * (32 * 32 + 32) + (32 * 128 + 128) + (128 * 32 + 32);
        let expect = 96 * 32 + 64 * 32 + 96 * 32 + 2 * per_block;
        assert_eq!(c.sim_params(), expect);
    }

    #[test]
    fn validate_accepts_the_test_configs() {
        assert!(ModelConfig::tiny_opt().validate().is_ok());
        assert!(ModelConfig::tiny_llama().validate().is_ok());
    }

    #[test]
    fn validate_rejects_odd_head_dim_for_rotary() {
        let mut c = ModelConfig::tiny_llama();
        c.hidden = 36; // 36 / 4 heads = head_dim 9
        let err = c.validate().unwrap_err();
        assert!(err.contains("even head_dim"), "got: {err}");
        // The same shape is fine for OPT-style (learned positions).
        let mut o = ModelConfig::tiny_opt();
        o.hidden = 36;
        assert!(o.validate().is_ok());
    }

    #[test]
    fn validate_rejects_indivisible_heads_and_zero_dims() {
        let mut c = ModelConfig::tiny_opt();
        c.heads = 5;
        assert!(c.validate().is_err());
        let mut z = ModelConfig::tiny_opt();
        z.vocab = 0;
        assert!(z.validate().is_err());
    }

    #[test]
    fn rope_table_matches_on_the_fly_bitwise() {
        let config = ModelConfig::tiny_llama();
        let table = RopeTable::build(&config);
        let head_dim = config.head_dim();
        let half = head_dim / 2;
        assert_eq!(table.half(), half);
        for pos in [0usize, 1, 7, config.max_seq - 1] {
            let (sin, cos) = table.at(pos);
            for i in 0..half {
                let theta = pos as f32 * 10_000f32.powf(-2.0 * i as f32 / head_dim as f32);
                let (s, c) = theta.sin_cos();
                assert_eq!(sin[i].to_bits(), s.to_bits(), "sin pos={pos} i={i}");
                assert_eq!(cos[i].to_bits(), c.to_bits(), "cos pos={pos} i={i}");
            }
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(LayerKind::VProj.name(), "V_PROJ");
        assert_eq!(LayerKind::DownProj.name(), "DOWN_PROJ");
        assert_eq!(LayerKind::ALL.len(), 9);
    }
}
